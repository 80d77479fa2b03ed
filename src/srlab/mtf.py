"""Component MTFs of the imaging chain and their 2-D composition.

All frequencies are in cycles per HR sample (the 4 um focal-plane pitch)
unless noted.  HR Nyquist is 0.5 cycles/sample = 125 lp/mm; the detector
pixel is two HR samples wide, so its Nyquist is 0.25 cycles/sample.

The composed system OTF is zero-phase (pure magnitude): shifts are
handled by the motion operator in the simulator, never by OTF phase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .grid import MAX_PIXELS

if TYPE_CHECKING:
    from .simulator import SystemParams

__all__ = [
    "GeometryConstants",
    "optics_mtf",
    "footprint_mtf",
    "sampling_mtf",
    "smear_mtf",
    "jitter_mtf",
    "system_otf",
    "mtf_curve_table",
]


@dataclass(frozen=True)
class GeometryConstants:
    """Fixed focal-plane and ground-sampling geometry.

    The detector pixel is exactly twice the HR sample in both focal-plane
    pitch and ground footprint, so the LR Nyquist is half the HR Nyquist.
    """

    hr_sample_pitch_um: float = 4.0
    lr_pixel_pitch_um: float = 8.0
    hr_gsd_m: float = 1.25
    lr_igfov_m: float = 2.5
    f_nyq_hr: float = 0.5
    f_nyq_lr: float = 0.25

    def __post_init__(self):
        if self.lr_pixel_pitch_um != 2.0 * self.hr_sample_pitch_um:
            raise ValueError("LR pixel pitch must be 2x the HR sample pitch")
        if self.lr_igfov_m != 2.0 * self.hr_gsd_m:
            raise ValueError("LR footprint must be 2x the HR ground sample")
        if self.f_nyq_lr != self.f_nyq_hr / 2.0:
            raise ValueError("LR Nyquist must be half the HR Nyquist")

    @property
    def hr_per_lr(self) -> float:
        """HR samples per detector pixel (2.0): the footprint aperture's
        width, and the HR length of a shift given in LR pixels."""
        return self.lr_pixel_pitch_um / self.hr_sample_pitch_um


# the instrument's geometry, the only one srlab reads
GEOMETRY = GeometryConstants()


def _frequencies(f) -> np.ndarray:
    """f as a float64 array; ValueError if any frequency is negative."""
    f = np.asarray(f, dtype=np.float64)
    if np.any(f < 0):
        raise ValueError("frequency must be >= 0")
    return f


def optics_mtf(f, m_nyq):
    """Realizable-optics MTF: exponential family pinned to m_nyq at HR Nyquist.

    Single-parameter stand-in for the aberrated-optics curve: value 1 at
    DC, m_nyq at 0.5 cycles/sample, m_nyq**(f/0.5) elsewhere.
    """
    f = _frequencies(f)
    m_nyq = float(m_nyq)
    if not 0.0 < m_nyq <= 1.0:
        raise ValueError("m_nyq must be in (0, 1]")
    return np.power(m_nyq, f / GEOMETRY.f_nyq_hr)


def footprint_mtf(f, w):
    """Detector footprint MTF |sinc(f*w)| for a square aperture of width w HR pixels."""
    f = _frequencies(f)
    if w <= 0:
        raise ValueError("detector width must be > 0")
    return np.abs(np.sinc(f * w))


def sampling_mtf(f, samp_pitch):
    """Sampling-aperture MTF |sinc(f*pitch)|.

    Reporting only: the simulator realizes sampling explicitly by
    decimation, so this factor is never applied as blur (that would
    double-count the sampling).
    """
    return footprint_mtf(f, samp_pitch)


def smear_mtf(f, f_N=GEOMETRY.f_nyq_hr, n_phi=1):
    """Discrete charge-transfer smear MTF sinc((pi/2)(f/f_N)/n_phi).

    sinc here is the unnormalized sin(x)/x.  More moves per stage means
    smoother charge motion; n_phi -> inf approaches 1 everywhere.
    Applies along-track only.
    """
    f = _frequencies(f)
    if f_N <= 0:
        raise ValueError("reference frequency must be > 0")
    if n_phi < 1:
        raise ValueError("n_phi must be >= 1")
    x = (np.pi / 2.0) * (f / f_N) / n_phi
    # np.sinc is sin(pi t)/(pi t); feed t = x/pi to get sin(x)/x
    return np.sinc(x / np.pi)


def jitter_mtf(f, sigma):
    """Line-of-sight jitter MTF exp(-2 pi^2 sigma^2 f^2) for Gaussian motion."""
    f = _frequencies(f)
    if sigma < 0:
        raise ValueError("jitter sigma must be >= 0")
    return np.exp(-2.0 * np.pi**2 * sigma**2 * f * f)


def system_otf(params: SystemParams, fx, fy):
    """Composite zero-phase system OTF on a 2-D frequency grid.

    Parameters
    ----------
    params : SystemParams
        Reads the optics MTF at HR Nyquist, the clock phase count and the
        jitter sigma; the detector footprint and the Nyquist are GEOMETRY's.
    fx : across-track frequency, cycles/HR sample (may be an array).
    fy : along-track frequency, cycles/HR sample.

    Radial factors (optics, jitter) are evaluated at sqrt(fx^2+fy^2); the
    detector footprint applies separably per axis; smear applies to the
    along-track component only, referenced to GEOMETRY's HR Nyquist.  The
    smear factor enters by magnitude so the composed OTF is non-negative
    beyond the first smear null.
    """
    fx = np.abs(np.asarray(fx, dtype=np.float64))
    fy = np.abs(np.asarray(fy, dtype=np.float64))
    fr = np.hypot(fx, fy)
    otf = optics_mtf(fr, params.optics_mtf_at_hr_nyq)
    otf = otf * footprint_mtf(fx, GEOMETRY.hr_per_lr)
    otf = otf * footprint_mtf(fy, GEOMETRY.hr_per_lr)
    otf = otf * jitter_mtf(fr, params.jitter_sigma)
    otf = otf * np.abs(smear_mtf(fy, GEOMETRY.f_nyq_hr, params.n_phi))
    return otf


def mtf_curve_table(params: SystemParams, n_points: int):
    """Tabulate every component MTF over [0, HR Nyquist].

    Returns (header, rows) where rows is an (n_points, 7) array with
    columns f, optics, footprint, sampling, smear, jitter, system.  The
    system column is the along-track composite system_otf(0, f), the axis
    where all factors act.  n_points must be at least 2, and the table
    at most grid.MAX_PIXELS values."""
    header = ["f_cyc_per_hr_sample", "optics", "footprint", "sampling",
              "smear", "jitter", "system"]
    if n_points < 2:
        raise ValueError(f"MTF curve needs at least 2 points, got {n_points}")
    if len(header) * n_points > MAX_PIXELS:
        raise ValueError(f"MTF curve of {n_points} points: more than {MAX_PIXELS} values")
    f = np.linspace(0.0, GEOMETRY.f_nyq_hr, n_points)
    cols = [
        f,
        optics_mtf(f, params.optics_mtf_at_hr_nyq),
        footprint_mtf(f, GEOMETRY.hr_per_lr),
        sampling_mtf(f, GEOMETRY.hr_per_lr),
        smear_mtf(f, GEOMETRY.f_nyq_hr, params.n_phi),
        jitter_mtf(f, params.jitter_sigma),
        system_otf(params, 0.0, f),
    ]
    return header, np.column_stack(cols)
