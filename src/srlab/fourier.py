"""FFT helpers shared by the simulator and the solver.

All operators here assume periodic (circular) boundaries, which makes
forward/adjoint pairs exact transposes.  Shift multipliers are forced
Hermitian by replacing the Nyquist-bin phase with its real part, so
applying them to a real image returns a real image and the conjugate
multiplier is the exact adjoint.  Decimation is one pair on spectra,
fold and its adjoint unfold: the simulator samples its subarrays and
the solver models them through it.  Every transform in srlab goes
through scipy.fft.
"""

from __future__ import annotations

import numpy as np
import scipy.fft

__all__ = [
    "shift_multiplier_1d",
    "shift_multiplier_2d",
    "fold",
    "unfold",
    "gaussian_kernel",
    "sinc_upsample",
    "sinc_columns",
    "sinc_rows",
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


def _blocks(spectrum: np.ndarray, decimation: tuple[int, int]) -> np.ndarray:
    """(s0, n0, s1, n1) view of an HR spectrum: block [i, :, j, :] holds
    the bins that alias onto the LR spectrum under decimation (s0, s1)."""
    (s0, s1), (n0, n1) = decimation, spectrum.shape
    return spectrum.reshape(s0, n0 // s0, s1, n1 // s1)


def fold(transfer: np.ndarray, spectrum: np.ndarray,
         decimation: tuple[int, int]) -> np.ndarray:
    """LR spectrum of transfer * spectrum decimated to samples (i*s0, j*s1):
    the mean of its blocks.  Each HR side is a multiple of its factor."""
    s0, s1 = decimation
    t_blocks, x_blocks = _blocks(transfer, decimation), _blocks(spectrum, decimation)
    out = t_blocks[0, :, 0, :] * x_blocks[0, :, 0, :]
    for k in range(1, s0 * s1):
        i, j = divmod(k, s1)
        out += t_blocks[i, :, j, :] * x_blocks[i, :, j, :]
    out *= 1.0 / (s0 * s1)  # as numpy divides a complex array by an integer
    return out


def unfold(transfer: np.ndarray, lr_spectrum: np.ndarray,
           decimation: tuple[int, int]) -> np.ndarray:
    """conj(transfer) * tile(lr_spectrum), the adjoint of fold, as one
    fresh HR spectrum."""
    out = np.conj(transfer)
    blocks = _blocks(out, decimation)
    blocks *= lr_spectrum[None, :, None, :]
    return out


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
    k/factor.  This is sinc_rows over every row of sinc_columns.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    if factor == 1:
        return np.asarray(data, dtype=np.float64).copy()
    h, w = data.shape
    return sinc_rows(sinc_columns(data, factor), w, factor, 0, h * factor)


def sinc_columns(data: np.ndarray, factor: int) -> np.ndarray:
    """Column stage of sinc_upsample (factor >= 2): the half-plane
    spectrum zero-padded to factor times the rows and inverse-transformed
    along them, (h * factor, w//2 + 1) complex.  Only the input's w//2+1
    columns of the padded half-plane are nonzero, so only they are
    transformed (irfft2 would transform the zero columns too, and hold a
    third full-size complex array as its intermediate)."""
    h, w = data.shape
    big_h = h * factor
    spectrum = scipy.fft.rfft2(data)
    padded = np.zeros((big_h, w // 2 + 1), dtype=complex)
    n_pos, n_neg = (h + 1) // 2, (h - 1) // 2  # rows of frequency 0.., ..-1
    padded[:n_pos] = spectrum[:n_pos]
    padded[big_h - n_neg:] = spectrum[h - n_neg:]
    if h % 2 == 0:
        padded[h // 2] = 0.5 * spectrum[h // 2]
        padded[big_h - h // 2] = padded[h // 2]
    if w % 2 == 0:
        padded[:, w // 2] *= 0.5
    return scipy.fft.ifft(padded, axis=0, overwrite_x=True)


def sinc_rows(columns: np.ndarray, width: int, factor: int, lo: int,
              hi: int) -> np.ndarray:
    """Rows lo:hi of sinc_upsample(data, factor) from its column stage
    columns = sinc_columns(data, factor); width is data's width.  Rows
    transform independently, so any row range is bit-identical to the
    same rows of the whole image."""
    big_w = width * factor
    rows = np.zeros((hi - lo, big_w // 2 + 1), dtype=complex)
    rows[:, :width // 2 + 1] = columns[lo:hi]
    out = scipy.fft.irfft(rows, n=big_w, axis=1, overwrite_x=True)
    out *= factor * factor
    return out


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
