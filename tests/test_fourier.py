import numpy as np
import pytest
import scipy.fft
from hypothesis import given
from hypothesis import strategies as st

from srlab.fourier import (fold, gaussian_kernel, kernel_transfer,
                           shift_multiplier_2d, sinc_columns, sinc_rows,
                           sinc_upsample, unfold)


def shift(x, delta):
    """x sampled at (row + d0, col + d1) through the shift multiplier."""
    return scipy.fft.ifft2(scipy.fft.fft2(x) * shift_multiplier_2d(x.shape, delta)).real


def test_integer_shift_matches_roll(rng):
    x = rng.normal(size=(16, 16))
    np.testing.assert_allclose(shift(x, (3.0, -2.0)), np.roll(x, (-3, 2), axis=(0, 1)),
                               rtol=0, atol=1e-12 * np.abs(x).max())


def test_fractional_shift_matches_cosine_phase(rng):
    n = 64
    j = np.arange(n)
    img = np.cos(2 * np.pi * 0.125 * j)[None, :].repeat(8, axis=0)
    shifted = shift(img, (0.0, 0.5))
    expected = np.cos(2 * np.pi * 0.125 * (j + 0.5))[None, :].repeat(8, axis=0)
    assert np.allclose(shifted, expected, atol=1e-12)


def test_shift_multiplier_is_hermitian():
    m = shift_multiplier_2d((8, 8), (0.3, -0.7))
    full = np.fft.ifft2(np.fft.fft2(np.eye(8)) * m)
    assert np.abs(full.imag).max() < 1e-12


def test_shift_roundtrip_bandlimited(rng):
    # the Hermitian Nyquist treatment attenuates Nyquist content for
    # fractional shifts, so the roundtrip identity holds below Nyquist
    spectrum = np.fft.fft2(rng.normal(size=(32, 32)))
    f = np.fft.fftfreq(32)
    keep = (np.abs(f)[:, None] < 0.45) & (np.abs(f)[None, :] < 0.45)
    x = np.fft.ifft2(spectrum * keep).real
    back = shift(shift(x, (0.37, -1.21)), (-0.37, 1.21))
    assert np.allclose(back, x, atol=1e-10)


def test_fractional_shift_attenuates_nyquist():
    n = 16
    x = np.cos(np.pi * np.arange(n))[None, :].repeat(4, axis=0)  # pure Nyquist
    out = shift(x, (0.0, 0.5))
    # cos(pi * 0.5) = 0: the half-pixel shift nulls the Nyquist cosine
    assert np.allclose(out, 0.0, atol=1e-12)


@pytest.mark.parametrize("decimation", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)])
def test_fold_is_spectrum_of_decimated_image(rng, decimation):
    x = rng.normal(size=(12, 16))
    transfer = shift_multiplier_2d(x.shape, (0.3, -1.7))
    lr = scipy.fft.ifft2(fold(transfer, scipy.fft.fft2(x), decimation)).real
    s0, s1 = decimation
    np.testing.assert_allclose(lr, shift(x, (0.3, -1.7))[::s0, ::s1], rtol=0, atol=1e-12)


@pytest.mark.parametrize("decimation", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)])
def test_unfold_is_adjoint_of_fold(rng, decimation):
    hr = (12, 16)
    transfer = scipy.fft.fft2(rng.normal(size=hr))
    x = rng.normal(size=hr) + 1j * rng.normal(size=hr)
    y = rng.normal(size=(hr[0] // decimation[0], hr[1] // decimation[1])) + 0j
    # fold averages the s0*s1 blocks that unfold tiles
    lhs = np.vdot(y, fold(transfer, x, decimation)) * decimation[0] * decimation[1]
    rhs = np.vdot(unfold(transfer, y, decimation), x)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert unfold(transfer, y, decimation).shape == hr


def test_gaussian_kernel_unit_sum():
    for sigma in (0.3, 0.85, 2.5):
        k = gaussian_kernel(sigma)
        assert k.sum() == pytest.approx(1.0, abs=1e-12)
        assert k.shape[0] == k.shape[1]
        assert k.shape[0] % 2 == 1
    with pytest.raises(ValueError):
        gaussian_kernel(0.0)


def test_kernel_transfer_dc_gain():
    k = gaussian_kernel(1.0)
    t = kernel_transfer(k, (32, 32))
    assert t[0, 0].real == pytest.approx(1.0)
    assert abs(t[0, 0].imag) < 1e-12


def test_kernel_transfer_rejects_oversized():
    with pytest.raises(ValueError):
        kernel_transfer(np.ones((9, 9)) / 81, (8, 8))


def test_sinc_upsample_interpolates_at_nodes(rng):
    x = rng.normal(size=(12, 10))
    up = sinc_upsample(x, 2)
    assert up.shape == (24, 20)
    assert np.allclose(up[::2, ::2], x, atol=1e-10)
    # mean preserved
    assert up.mean() == pytest.approx(x.mean())


def test_sinc_upsample_exact_for_bandlimited():
    n = 16
    j = np.arange(n)
    img = np.cos(2 * np.pi * 3 / n * j)[None, :] * \
        np.cos(2 * np.pi * 2 / n * j)[:, None]
    up = sinc_upsample(img, 4)
    jj = np.arange(4 * n) / 4.0
    expected = np.cos(2 * np.pi * 3 / n * jj)[None, :] * \
        np.cos(2 * np.pi * 2 / n * jj)[:, None]
    assert np.allclose(up, expected, atol=1e-10)


def test_sinc_upsample_factor_one_copies(rng):
    x = rng.normal(size=(6, 6))
    up = sinc_upsample(x, 1)
    assert np.array_equal(up, x)
    up[0, 0] = 99.0
    assert x[0, 0] != 99.0


def full_width_upsample(data, factor):
    """Reference: sinc_upsample's column pass over the whole padded half-plane."""
    h, w = data.shape
    big_h, big_w = h * factor, w * factor
    spectrum = scipy.fft.rfft2(data)
    padded = np.zeros((big_h, big_w // 2 + 1), dtype=complex)
    n_pos, n_neg = (h + 1) // 2, (h - 1) // 2
    padded[:n_pos, :w // 2 + 1] = spectrum[:n_pos]
    padded[big_h - n_neg:, :w // 2 + 1] = spectrum[h - n_neg:]
    if h % 2 == 0:
        padded[h // 2, :w // 2 + 1] = 0.5 * spectrum[h // 2]
        padded[big_h - h // 2, :w // 2 + 1] = padded[h // 2, :w // 2 + 1]
    if w % 2 == 0:
        padded[:, w // 2] *= 0.5
    columns = scipy.fft.ifft(padded, axis=0)
    return scipy.fft.irfft(columns, n=big_w, axis=1) * (factor * factor)


@pytest.mark.parametrize("shape", [(12, 10), (9, 7), (10, 7), (7, 10)])
@pytest.mark.parametrize("factor", [2, 3, 4])
def test_sinc_upsample_equals_full_width_column_pass(rng, shape, factor):
    x = rng.normal(size=shape)
    assert np.array_equal(sinc_upsample(x, factor), full_width_upsample(x, factor))


@given(h=st.integers(5, 20), w=st.integers(5, 20), factor=st.integers(2, 4),
       data=st.data())
def test_row_stage_equals_rows_of_the_upsample(h, w, factor, data):
    x = np.random.default_rng(h * 100 + w).normal(size=(h, w))
    lo = data.draw(st.integers(0, h * factor), label="lo")
    hi = data.draw(st.integers(lo, h * factor), label="hi")
    rows = sinc_rows(sinc_columns(x, factor), w, factor, lo, hi)
    assert np.array_equal(rows, sinc_upsample(x, factor)[lo:hi])


def zero_pad_upsample(data, factor):
    """Reference: full complex spectrum, centered and zero-padded."""
    h, w = data.shape
    spectrum = np.fft.fftshift(np.fft.fft2(data))
    padded = np.zeros((h * factor, w * factor), dtype=complex)
    r0, c0 = h * factor // 2 - h // 2, w * factor // 2 - w // 2
    padded[r0:r0 + h, c0:c0 + w] = spectrum
    if h % 2 == 0:
        padded[r0 + h, c0:c0 + w] = 0.5 * padded[r0, c0:c0 + w]
        padded[r0, c0:c0 + w] *= 0.5
    rows = slice(r0, r0 + h + (h % 2 == 0))
    if w % 2 == 0:
        padded[rows, c0 + w] = 0.5 * padded[rows, c0]
        padded[rows, c0] *= 0.5
    return np.fft.ifft2(np.fft.ifftshift(padded)).real * factor * factor


@pytest.mark.parametrize("shape", [(16, 16), (15, 17), (16, 15), (7, 8)])
@pytest.mark.parametrize("factor", [2, 3, 4])
def test_sinc_upsample_matches_complex_zero_pad(rng, shape, factor):
    x = rng.normal(size=shape)
    np.testing.assert_allclose(sinc_upsample(x, factor), zero_pad_upsample(x, factor),
                               rtol=0, atol=1e-12)
