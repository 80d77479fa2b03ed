"""FFT helpers shared by the simulator and the solver.

All operators here assume periodic (circular) boundaries, which makes
forward/adjoint pairs exact transposes.  Shift multipliers are forced
Hermitian by replacing the Nyquist-bin phase with its real part, so
applying them to a real image returns a real image and the conjugate
multiplier is the exact adjoint.  Every transform in srlab goes
through scipy.fft.
"""

from __future__ import annotations

import numpy as np
import scipy.fft

__all__ = [
    "shift_multiplier_1d",
    "shift_multiplier_2d",
    "apply_transfer",
    "subpixel_shift",
    "gaussian_kernel",
    "sinc_upsample",
    "kernel_transfer",
]


def shift_multiplier_1d(n: int, delta: float) -> np.ndarray:
    """Frequency-domain multiplier sampling a signal at x + delta.

    exp(+2i pi f delta) on the fftfreq grid; the Nyquist bin (even n) is
    replaced by cos(pi delta) to keep the multiplier Hermitian.
    """
    f = np.fft.fftfreq(n)
    m = np.exp(2j * np.pi * f * delta)
    if n % 2 == 0:
        m[n // 2] = np.cos(np.pi * delta)
    return m


def shift_multiplier_2d(shape: tuple[int, int], shift: tuple[float, float]) -> np.ndarray:
    """Separable 2-D shift multiplier for sampling at (row+d0, col+d1)."""
    m0 = shift_multiplier_1d(shape[0], shift[0])
    m1 = shift_multiplier_1d(shape[1], shift[1])
    return m0[:, None] * m1[None, :]


def apply_transfer(x: np.ndarray, transfer: np.ndarray) -> np.ndarray:
    """Filter a real image by a (Hermitian) frequency-domain multiplier."""
    return scipy.fft.ifft2(scipy.fft.fft2(x) * transfer).real


def subpixel_shift(x: np.ndarray, shift: tuple[float, float]) -> np.ndarray:
    """Sample x at (row + d0, col + d1) with periodic boundaries.

    Integer shifts take an exact np.roll path; fractional shifts go
    through the frequency-domain phase ramp.
    """
    d0, d1 = float(shift[0]), float(shift[1])
    if d0 == int(d0) and d1 == int(d1):
        return np.roll(x, (-int(d0), -int(d1)), axis=(0, 1))
    return apply_transfer(x, shift_multiplier_2d(x.shape, (d0, d1)))


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Unit-sum 2-D Gaussian kernel, truncated at ~4 sigma.

    Used as the solver-side blur estimate; sigma is in HR pixels.
    """
    if sigma <= 0:
        raise ValueError("sigma must be > 0")
    radius = max(1, int(np.ceil(4.0 * sigma)))
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    g = np.exp(-0.5 * (t / sigma) ** 2)
    k = g[:, None] * g[None, :]
    return k / k.sum()


def sinc_upsample(data: np.ndarray, factor: int) -> np.ndarray:
    """Exact periodic sinc interpolation onto a factor-times-finer grid.

    Zero-pads the half-plane real-FFT spectrum.  The Nyquist row of an
    even height is split between +/- frequencies; the Nyquist column of
    an even width is halved, and its conjugate twin at the negative
    frequency is implied by the half-plane layout, so the result stays
    real and symmetric.  Output sample k lies at input coordinate
    k/factor.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return np.asarray(data, dtype=np.float64).copy()
    h, w = data.shape
    big_h, big_w = h * factor, w * factor
    spectrum = scipy.fft.rfft2(data)
    padded = np.zeros((big_h, big_w // 2 + 1), dtype=complex)
    n_pos, n_neg = (h + 1) // 2, (h - 1) // 2  # rows of frequency 0.., ..-1
    padded[:n_pos, :w // 2 + 1] = spectrum[:n_pos]
    padded[big_h - n_neg:, :w // 2 + 1] = spectrum[h - n_neg:]
    if h % 2 == 0:
        padded[h // 2, :w // 2 + 1] = 0.5 * spectrum[h // 2]
        padded[big_h - h // 2, :w // 2 + 1] = padded[h // 2, :w // 2 + 1]
    if w % 2 == 0:
        padded[:, w // 2] *= 0.5
    # columns in place, then rows: irfft2 would hold a third full-size
    # complex array as its intermediate
    columns = scipy.fft.ifft(padded, axis=0, overwrite_x=True)
    return scipy.fft.irfft(columns, n=big_w, axis=1, overwrite_x=True) * factor * factor


def kernel_transfer(kernel: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Transfer function of a small centered kernel on a periodic grid.

    The kernel center lands on sample (0, 0) so convolution by the
    returned multiplier introduces no shift.
    """
    kh, kw = kernel.shape
    if kh > shape[0] or kw > shape[1]:
        raise ValueError(f"kernel {kernel.shape} larger than grid {shape}")
    padded = np.zeros(shape)
    padded[:kh, :kw] = kernel
    padded = np.roll(padded, (-(kh // 2), -(kw // 2)), axis=(0, 1))
    return scipy.fft.fft2(padded)
