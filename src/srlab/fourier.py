"""FFT helpers shared by the simulator and the solver.

All operators here assume periodic (circular) boundaries, which makes
forward/adjoint pairs exact transposes.  Every image in srlab is real,
so its spectrum is Hermitian and only its half-plane is kept: the
rfft2 layout with the half axis on the rows (rfft2_rows), row bins
0..h//2 by every column bin.  Row bin a past h//2 is the conjugate of
row bin h - a with the column bin negated.  Shift multipliers are forced
Hermitian by replacing the Nyquist-bin phase with its real part, so
applying them to a real image returns a real image and the conjugate
multiplier is the exact adjoint; they and kernel transfers are given on
the half-plane.  Decimation is one pair on half-plane spectra, fold and
its adjoint unfold: the simulator samples its subarrays and the solver
models them through it.  Decimation folds the spectrum (Zhao et al.,
IEEE TIP 25(8), 2016): along the columns, LR bin l is the mean of the HR
bins l + j*n1; along decimated rows, LR bin k collects HR bins k + i*n0,
and those past the HR half enter as the conjugates of their mirror bins.
An odd side has no Nyquist line.  On the half-plane, Parseval weights
each row by 2, except bin 0 and an even height's Nyquist row, which are
their own twins and count once.  Every transform in srlab goes through
numpy.fft.  rfft2_rows, irfft2_rows, fold and unfold write into out=
when it is given, so that a caller that holds its buffers (the solver)
allocates no plane per call; irfft2_rows then runs its column pass in
place in the spectrum it is given.  They keep the layout of their
operands and of out= and give the same values in any layout: on
column-major planes (the solver's) the real pass along the columns and
every fold and unfold block, a run of whole columns, are contiguous.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "rfft2_rows",
    "irfft2_rows",
    "shift_multiplier_1d",
    "shift_multiplier_2d",
    "full_rows",
    "fold",
    "unfold",
    "gaussian_kernel",
    "check_gaussian_fits",
    "sinc_upsample",
    "sinc_columns",
    "sinc_rows",
    "kernel_transfer",
]


def rfft2_rows(image: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Half-plane spectrum of a real image: row bins 0..h//2, every
    column bin; written into out when given."""
    return np.fft.rfft2(image, axes=(1, 0), out=out)


def irfft2_rows(spectrum: np.ndarray, shape: tuple[int, int],
                out: np.ndarray | None = None) -> np.ndarray:
    """Real image of the given shape whose half-plane spectrum this is.

    The two passes of irfft2, one call each: the column ifft, then the
    row irfft.  With out, the image is written there and the column pass
    runs in place in spectrum, which it overwrites; irfft2 itself would
    hold a fresh half-plane for that pass even when given out."""
    columns = np.fft.ifft(spectrum, n=shape[1], axis=1,
                         out=None if out is None else spectrum)
    return np.fft.irfft(columns, n=shape[0], axis=0, out=out)


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
    """Separable 2-D shift multiplier for sampling at (row+d0, col+d1), on
    the half-plane of an image of this shape."""
    m0 = shift_multiplier_1d(shape[0], shift[0])[:shape[0] // 2 + 1]
    m1 = shift_multiplier_1d(shape[1], shift[1])
    return m0[:, None] * m1[None, :]


def full_rows(half: np.ndarray, height: int) -> np.ndarray:
    """The full spectrum, of this height, whose half-plane is half."""
    mirror = half[(height - 1) // 2:0:-1]  # the twins of rows height//2 + 1..
    return np.concatenate([half, np.conj(np.roll(mirror[:, ::-1], 1, axis=1))])


def _height(rows: int, factor: int) -> int:
    """The height of a half-plane of this many rows that a row factor > 1
    divides: of 2*rows - 2 and 2*rows - 1 only one is its multiple."""
    height = 2 * rows - 2
    if height % factor:
        height += 1
    if height % factor:
        raise ValueError(f"no height with {rows} half-plane rows is a multiple "
                         f"of {factor}")
    return height


def fold(transfer: np.ndarray, spectrum: np.ndarray, decimation: tuple[int, int],
         out: np.ndarray | None = None) -> np.ndarray:
    """LR half-plane spectrum of transfer * spectrum (both HR half-plane)
    decimated to samples (i*s0, j*s1), written into out when given.  Each
    HR side is a multiple of its factor."""
    s0, s1 = decimation
    rows, n1 = len(spectrum), spectrum.shape[1] // s1
    t_blocks = transfer.reshape(rows, s1, n1)
    x_blocks = spectrum.reshape(rows, s1, n1)
    blocks = np.multiply(t_blocks[:, 0], x_blocks[:, 0], out=out if s0 == 1 else None)
    for j in range(1, s1):
        blocks += t_blocks[:, j] * x_blocks[:, j]
    if s0 > 1:
        n0 = _height(rows, s0) // s0
        blocks = full_rows(blocks, n0 * s0).reshape(s0, n0, n1).sum(axis=0)[:n0 // 2 + 1]
    # as numpy divides a complex array by an integer
    return np.multiply(blocks, 1.0 / (s0 * s1), out=blocks if out is None else out)


def unfold(transfer: np.ndarray, lr_spectrum: np.ndarray, decimation: tuple[int, int],
           out: np.ndarray | None = None) -> np.ndarray:
    """conj(transfer) * lr_spectrum tiled over the HR half-plane, the
    adjoint of fold, as one HR half-plane spectrum (out when given, else
    fresh): HR bin (a, b) takes LR bin (a mod n0, b mod n1)."""
    s0, s1 = decimation
    out = np.conj(transfer, out=out)
    rows = len(out)
    if s0 > 1:
        n0 = _height(rows, s0) // s0
        lr_spectrum = np.tile(full_rows(lr_spectrum, n0), (s0, 1))[:rows]
    blocks = out.reshape(rows, s1, -1)
    blocks *= lr_spectrum[:, None, :]
    return out


def gaussian_kernel(sigma: float) -> np.ndarray:
    """Unit-sum 2-D Gaussian kernel, truncated at ~4 sigma.

    Used as the solver-side blur estimate; sigma is in HR pixels.
    """
    radius = _gaussian_radius(sigma)
    t = np.arange(-radius, radius + 1, dtype=np.float64)
    g = np.exp(-0.5 * (t / sigma) ** 2)
    k = g[:, None] * g[None, :]
    return k / k.sum()


def _gaussian_radius(sigma: float) -> int:
    if not 0.0 < 4.0 * sigma < math.inf:  # ceil cannot take the inf of 4 * 1e308
        raise ValueError(f"sigma must be finite and > 0, as must 4 sigma, got {sigma!r}")
    return max(1, math.ceil(4.0 * sigma))


def check_gaussian_fits(sigma: float, shape: tuple[int, int]) -> None:
    """ValueError unless gaussian_kernel(sigma) fits a grid of this shape,
    found before the kernel is built (kernel_transfer refuses it after)."""
    side = 2 * _gaussian_radius(sigma) + 1
    if side > min(shape):
        raise ValueError(f"PSF sigma {sigma!r}: kernel ({side}, {side}) larger "
                         f"than grid {tuple(shape)}")


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
    spectrum = np.fft.rfft2(data)
    padded = np.zeros((big_h, w // 2 + 1), dtype=complex)
    n_pos, n_neg = (h + 1) // 2, (h - 1) // 2  # rows of frequency 0.., ..-1
    padded[:n_pos] = spectrum[:n_pos]
    padded[big_h - n_neg:] = spectrum[h - n_neg:]
    if h % 2 == 0:
        padded[h // 2] = 0.5 * spectrum[h // 2]
        padded[big_h - h // 2] = padded[h // 2]
    if w % 2 == 0:
        padded[:, w // 2] *= 0.5
    return np.fft.ifft(padded, axis=0, out=padded)


def sinc_rows(columns: np.ndarray, width: int, factor: int, lo: int,
              hi: int) -> np.ndarray:
    """Rows lo:hi of sinc_upsample(data, factor) from its column stage
    columns = sinc_columns(data, factor); width is data's width.  Rows
    transform independently, so any row range is bit-identical to the
    same rows of the whole image."""
    big_w = width * factor
    rows = np.zeros((hi - lo, big_w // 2 + 1), dtype=complex)
    rows[:, :width // 2 + 1] = columns[lo:hi]
    out = np.fft.irfft(rows, n=big_w, axis=1)
    out *= factor * factor
    return out


def kernel_transfer(kernel: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Transfer function of a small centered kernel on a periodic grid,
    on its half-plane.

    The kernel center lands on sample (0, 0) so convolution by the
    returned multiplier introduces no shift.
    """
    kh, kw = kernel.shape
    if kh > shape[0] or kw > shape[1]:
        raise ValueError(f"kernel {kernel.shape} larger than grid {shape}")
    padded = np.zeros(shape)
    padded[:kh, :kw] = kernel
    padded = np.roll(padded, (-(kh // 2), -(kw // 2)), axis=(0, 1))
    return rfft2_rows(padded)
