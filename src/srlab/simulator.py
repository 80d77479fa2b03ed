"""Raw-image simulator: blur, dual-subarray sampling, and noise.

Chain: an HR target is filtered by the composed system OTF in the
frequency domain, each subarray observation is its blurred spectrum
under a sub-pixel shift ramp folded onto the LR grid (fourier.fold, the
decimation the solver models), and white Gaussian noise is added at the
configured SNR.  Spectra are the images' row half-planes
(fourier.rfft2_rows): the OTF is even, so it is evaluated on row bins
0..h//2 only.  Boundaries are periodic throughout; scenario targets
keep a uniform border so wraparound never touches the star.

No quantization happens inside the pipeline; values stay float end to
end (PGM export quantizes on write only).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fourier import (check_gaussian_fits, fold, gaussian_kernel, irfft2_rows,
                      rfft2_rows, shift_multiplier_2d)
from .grid import as_float, check_image
from .mtf import GEOMETRY, GeometryConstants, system_otf
from .seeding import child_seed

__all__ = [
    "SystemParams",
    "Observation",
    "SIGMA_PER_FWHM",
    "render_blurred_scene",
    "add_noise",
    "simulate_observations",
    "subarray_observations",
    "REFERENCE_SIGNAL",
    "ASSUMED_PSF_FWHM",
]

# Gaussian sigma for a given full-width-at-half-maximum
SIGMA_PER_FWHM = 1.0 / (2.0 * math.sqrt(2.0 * math.log(2.0)))

# 15% albedo reference signal in counts; SNR and NEM are quoted at it
REFERENCE_SIGNAL = 300.0

# FWHM in HR pixels of the solver's nominal Gaussian PSF estimate
ASSUMED_PSF_FWHM = 2.0

# how a subarray image samples the HR grid (along, across track)
_DECIMATION = (1, int(GEOMETRY.hr_per_lr))


def _hr_shape(shape, decimation, inverse: bool = False) -> tuple[int, ...]:
    """The HR grid an image of this shape samples at this decimation, its
    shape times the decimation; with inverse, the shape of the image
    that samples an HR grid of this shape."""
    return tuple(n // s if inverse else n * s for n, s in zip(shape, decimation))


@dataclass(frozen=True)
class SystemParams:
    """Full per-trial system parameter record.

    Nominal values follow the mission expectation: 30% optics MTF at HR
    Nyquist, one clock phase, 0.1 px jitter, SNR 60 at the 300-count
    reference signal, 0.5 LR px subarray stagger, 10 LR lines of
    along-track subarray separation.  assumed_psf_sigma is the solver's
    Gaussian estimate of the blur (default: ASSUMED_PSF_FWHM), deliberately
    distinct from the true OTF chain.  The first three fields are what
    the system OTF (mtf.system_otf) reads; n_phi is a whole count, kept
    as an int whichever number gives it (a sweep cell's 2.0 is 2), and
    every float field is kept as a float.
    geometry is fixed: any value but mtf.GEOMETRY is refused, and srlab
    reads GEOMETRY itself.
    """

    optics_mtf_at_hr_nyq: float = 0.30
    n_phi: int = 1
    jitter_sigma: float = 0.1
    snr_at_300: float = 60.0
    subarray_shift_ax: float = 0.5
    subarray_shift_al_lines: int = 10
    assumed_psf_sigma: float = ASSUMED_PSF_FWHM * SIGMA_PER_FWHM
    geometry: GeometryConstants = GEOMETRY

    def __post_init__(self):
        for name in ("optics_mtf_at_hr_nyq", "jitter_sigma", "snr_at_300",
                     "subarray_shift_ax", "assumed_psf_sigma"):
            object.__setattr__(self, name, as_float(getattr(self, name), name))
        if self.geometry != GEOMETRY:
            raise ValueError(f"geometry is fixed at mtf.GEOMETRY, got {self.geometry!r}")
        # every test is written so that NaN fails it; an infinite SNR is
        # the noise-free case
        if not 0.0 < self.optics_mtf_at_hr_nyq <= 1.0:
            raise ValueError("optics MTF at HR Nyquist must be in (0, 1]")
        # a whole count, stored as an int; NaN, an infinity and an int past
        # the float range are not whole numbers
        try:
            whole = float(self.n_phi).is_integer()
        except OverflowError:
            whole = False
        if not whole:
            raise ValueError(f"clock phase count must be a whole number, got {self.n_phi!r}")
        if not self.n_phi >= 1:
            raise ValueError("clock phase count must be >= 1")
        object.__setattr__(self, "n_phi", int(self.n_phi))
        if not 0.0 <= self.jitter_sigma * abs(self.jitter_sigma) < math.inf:
            raise ValueError(f"jitter sigma must be >= 0 with a finite square, got {self.jitter_sigma!r}")
        if not self.snr_at_300 > 0:
            raise ValueError(f"SNR must be > 0, got {self.snr_at_300!r}")
        if not 0.0 <= self.subarray_shift_ax < 1.0:
            raise ValueError("subarray shift must be in [0, 1) LR pixels")
        if not 0.0 < self.assumed_psf_sigma < math.inf:
            raise ValueError(f"assumed PSF sigma must be finite and > 0, "
                             f"got {self.assumed_psf_sigma!r}")
        # the HR shift _subarray_shifts makes of it must pass Observation
        as_float(self.subarray_shift_al_lines, "subarray_shift_al_lines")
        if not 0.0 <= math.pi * _subarray_shifts(self)[1][0] < math.inf:
            raise ValueError("subarray_shift_al_lines must be >= 0 with a finite HR "
                             "shift and phase ramp pi * shift")

    @property
    def noise_sigma(self) -> float:
        """White-noise standard deviation in counts at the reference signal."""
        return REFERENCE_SIGNAL / self.snr_at_300


@dataclass
class Observation:
    """One low-resolution subarray image plus its forward-model metadata.

    shift_hr is the true (along, across) shift in HR pixels relative to
    observation 1; registration is assumed known, so the solver receives
    these exact values.  assumed_psf is the solver-side blur kernel, not
    the true OTF.
    """

    image: np.ndarray
    shift_hr: tuple[float, float]
    decimation: tuple[int, int]
    assumed_psf: np.ndarray

    def __post_init__(self):
        self.image = check_image(self.image, "observation image")
        self.shift_hr = tuple(as_float(s, "shift_hr") for s in self.shift_hr)
        if self.decimation[0] < 1 or self.decimation[1] < 1:
            raise ValueError("decimation factors must be >= 1")
        # the shift ramp's largest phase is pi * shift, at the Nyquist bin
        if not all(math.isfinite(math.pi * s) for s in self.shift_hr):
            raise ValueError(f"shift_hr components must be finite with a finite phase "
                             f"ramp pi * shift, got {self.shift_hr!r}")
        self.assumed_psf = np.asarray(self.assumed_psf, dtype=np.float64)
        if self.assumed_psf.ndim != 2 or not np.all(np.isfinite(self.assumed_psf)):
            raise ValueError(f"assumed PSF must be a finite 2-D kernel, "
                             f"got shape {self.assumed_psf.shape}")
        if not abs(float(self.assumed_psf.sum()) - 1.0) <= 1e-9:
            raise ValueError("assumed PSF must sum to 1")

    @property
    def hr_shape(self) -> tuple[int, int]:
        """The HR grid the image samples: its shape times the decimation."""
        return _hr_shape(self.image.shape, self.decimation)


def _subarray_shifts(params: SystemParams) -> tuple[tuple[float, float], ...]:
    """Each subarray's (along, across) shift in HR pixels: the first at
    (0, 0), the second at the along-track line separation plus the
    across-track stagger."""
    return ((0.0, 0.0), (params.subarray_shift_al_lines * GEOMETRY.hr_per_lr,
                         params.subarray_shift_ax * GEOMETRY.hr_per_lr))


def _blurred_spectrum(target: np.ndarray, params: SystemParams) -> np.ndarray:
    """Half-plane spectrum of an HR target filtered by the system OTF.

    The OTF is evaluated on the target's frequency grid in cycles per HR
    sample.  DC gain is 1, so the mean is preserved.  The plane is
    column-major, as the solver's are, so every fold block of it is a
    contiguous run of columns (the values are the same in either layout).
    """
    target = check_image(target, "target")
    h, w = target.shape
    if h % 2 or w % 2:
        raise ValueError(f"target dimensions must be even, got {h}x{w}")

    otf = system_otf(params, np.fft.fftfreq(w)[None, :], np.fft.rfftfreq(h)[:, None])
    spectrum = rfft2_rows(target, out=np.empty(otf.shape, complex, order="F"))
    spectrum *= otf
    return spectrum


def render_blurred_scene(target: np.ndarray, params: SystemParams) -> np.ndarray:
    """Filter an HR target by the system OTF (see _blurred_spectrum), as a
    row-major image."""
    shape = np.shape(target)
    return irfft2_rows(_blurred_spectrum(target, params), shape, out=np.empty(shape))


def add_noise(image: np.ndarray, sigma: float, rng_seed: int) -> np.ndarray:
    """Add i.i.d. zero-mean Gaussian noise of standard deviation sigma
    counts (SystemParams.noise_sigma, 300/SNR, in the simulator).

    The noise is signal-independent (white).  Deterministic for a given seed.
    """
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"noise sigma must be finite and >= 0, got {sigma!r}")
    rng = np.random.default_rng(rng_seed)
    return image + rng.normal(0.0, sigma, size=image.shape)


def subarray_observations(images, params: SystemParams) -> tuple[Observation, Observation]:
    """The Observations of the two subarray images, built from params alone:
    decimation (1, 2) (1 LR pixel = 2 HR samples across track), the shifts
    of _subarray_shifts and the solver PSF gaussian_kernel(assumed_psf_sigma),
    refused before it is built if it would not fit the first image's HR grid."""
    first, second = images
    check_gaussian_fits(params.assumed_psf_sigma, _hr_shape(np.shape(first), _DECIMATION))
    psf = gaussian_kernel(params.assumed_psf_sigma)
    return tuple(Observation(image, shift, _DECIMATION, psf)
                 for image, shift in zip((first, second), _subarray_shifts(params)))


def simulate_observations(target: np.ndarray, params: SystemParams, rng_seed: int
                          ) -> tuple[Observation, Observation]:
    """Produce the two staggered subarray observations of a target.

    One blurred spectrum feeds both subarrays: a subarray image samples
    it at (i*s_al + d_al, j*s_ax + d_ax), a shift ramp folded onto the
    LR grid, at the shifts subarray_observations records.  Noise streams
    are derived as child seeds (seed, observation index), so the pair is
    independent of evaluation order.  The noisy images go through
    subarray_observations, the builder srlab superresolve uses on the
    images it reads.
    """
    spectrum = _blurred_spectrum(target, params)
    shape = np.shape(target)
    lr_shape = _hr_shape(shape, _DECIMATION, inverse=True)
    images = []
    for k, shift in enumerate(_subarray_shifts(params)):
        ramp = shift_multiplier_2d(shape, shift)
        sampled = irfft2_rows(fold(ramp, spectrum, _DECIMATION), lr_shape)
        images.append(add_noise(sampled, params.noise_sigma, child_seed(rng_seed, k)))
    return subarray_observations(images, params)
