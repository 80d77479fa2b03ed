import numpy as np
import pytest
import scipy.fft
from hypothesis import assume, given
from hypothesis import strategies as st

from srlab.fourier import (check_gaussian_fits, fold, full_rows, gaussian_kernel,
                           irfft2_rows, kernel_transfer, rfft2_rows,
                           shift_multiplier_1d, shift_multiplier_2d, sinc_columns,
                           sinc_rows, sinc_upsample, unfold)


def shift(x, delta):
    """x sampled at (row + d0, col + d1) through the shift multiplier."""
    return irfft2_rows(rfft2_rows(x) * shift_multiplier_2d(x.shape, delta), x.shape)


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
    for shape in [(8, 8), (7, 9)]:
        m = full_rows(shift_multiplier_2d(shape, (0.3, -0.7)), shape[0])
        full = np.fft.ifft2(np.fft.fft2(np.eye(*shape)) * m)
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


@pytest.mark.parametrize("shape", [(8, 6), (8, 7), (9, 6), (9, 7), (1, 6), (6, 1), (1, 1)])
def test_transforms_into_out_match_the_fresh_form(rng, shape):
    # even and odd heights and widths, a 1-row and a 1-column grid
    x = rng.normal(size=shape)
    spectrum = rfft2_rows(x)
    out = np.full_like(spectrum, np.nan)
    assert rfft2_rows(x, out=out) is out
    assert out.tobytes() == spectrum.tobytes()
    # the fresh inverse leaves its spectrum as it was and gives what
    # irfft2 gives; with out, it overwrites the spectrum instead
    kept = spectrum.copy()
    image = irfft2_rows(spectrum, shape)
    assert spectrum.tobytes() == kept.tobytes()
    assert image.tobytes() == np.fft.irfft2(kept, s=shape[::-1], axes=(1, 0)).tobytes()
    image_out = np.full(shape, np.nan)
    assert irfft2_rows(spectrum, shape, out=image_out) is image_out
    assert image_out.tobytes() == image.tobytes()


@pytest.mark.parametrize("decimation", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)])
def test_fold_and_unfold_into_out_match_the_fresh_form(rng, decimation):
    x = rng.normal(size=(12, 16))
    transfer = shift_multiplier_2d(x.shape, (0.3, -1.7))
    spectrum = rfft2_rows(x)
    lr = fold(transfer, spectrum, decimation)
    out = np.full_like(lr, np.nan)
    assert fold(transfer, spectrum, decimation, out=out) is out
    assert out.tobytes() == lr.tobytes()
    hr = unfold(transfer, lr, decimation)
    out = np.full_like(hr, np.nan)
    assert unfold(transfer, lr, decimation, out=out) is out
    assert out.tobytes() == hr.tobytes()


@pytest.mark.parametrize("decimation", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)])
def test_fold_is_spectrum_of_decimated_image(rng, decimation):
    x = rng.normal(size=(12, 16))
    transfer = shift_multiplier_2d(x.shape, (0.3, -1.7))
    s0, s1 = decimation
    lr = irfft2_rows(fold(transfer, rfft2_rows(x), decimation), (12 // s0, 16 // s1))
    np.testing.assert_allclose(lr, shift(x, (0.3, -1.7))[::s0, ::s1], rtol=0, atol=1e-12)


def half_plane_dot(a, b, height):
    """Inner product of the real images of this height whose half-plane
    spectra are a and b, by Parseval (up to the factor of the image size):
    the bin-0 row and an even height's Nyquist row count once, every other
    row twice."""
    dot = 2.0 * np.vdot(a, b) - np.vdot(a[0], b[0])
    if height % 2 == 0:
        dot -= np.vdot(a[-1], b[-1])
    return dot.real


def check_adjoint(transfer, hr_image, lr_image, decimation):
    """<fold(T X), R> * s0 * s1 == <X, unfold(T, R)>: fold averages the
    s0*s1 blocks that unfold tiles."""
    x, y = rfft2_rows(hr_image), rfft2_rows(lr_image)
    lhs = half_plane_dot(y, fold(transfer, x, decimation),
                         len(lr_image)) * decimation[0] * decimation[1]
    rhs = half_plane_dot(unfold(transfer, y, decimation), x, len(hr_image))
    assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("decimation", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)])
def test_unfold_is_adjoint_of_fold(rng, decimation):
    hr = (12, 16)
    transfer = rfft2_rows(rng.normal(size=hr))
    y = rng.normal(size=(hr[0] // decimation[0], hr[1] // decimation[1]))
    check_adjoint(transfer, rng.normal(size=hr), y, decimation)
    assert unfold(transfer, rfft2_rows(y), decimation).shape == (hr[0] // 2 + 1, hr[1])


def _blocks(spectrum, decimation):
    """(s0, n0, s1, n1) view of an HR spectrum: block [i, :, j, :] holds
    the bins that alias onto the LR spectrum under decimation (s0, s1)."""
    (s0, s1), (n0, n1) = decimation, spectrum.shape
    return spectrum.reshape(s0, n0 // s0, s1, n1 // s1)


def full_plane_fold(transfer, spectrum, decimation):
    """Reference: fold on full spectra, the mean of the blocks, as srlab
    folded before it kept half-planes."""
    s0, s1 = decimation
    t_blocks, x_blocks = _blocks(transfer, decimation), _blocks(spectrum, decimation)
    out = t_blocks[0, :, 0, :] * x_blocks[0, :, 0, :]
    for k in range(1, s0 * s1):
        i, j = divmod(k, s1)
        out += t_blocks[i, :, j, :] * x_blocks[i, :, j, :]
    out *= 1.0 / (s0 * s1)
    return out


def full_plane_unfold(transfer, lr_spectrum, decimation):
    """Reference: unfold on full spectra, conj(transfer) * tile(lr_spectrum)."""
    out = np.conj(transfer)
    blocks = _blocks(out, decimation)
    blocks *= lr_spectrum[None, :, None, :]
    return out


@given(lr_shape=st.tuples(st.integers(2, 9), st.integers(2, 9)),
       decimation=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       delta=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
       sigma=st.floats(0.2, 0.7), seed=st.integers(0, 2**16))
def test_half_plane_fold_matches_full_plane(lr_shape, decimation, delta, sigma, seed):
    # odd and even sides on both axes; the rows are the half axis
    hr = (lr_shape[0] * decimation[0], lr_shape[1] * decimation[1])
    kernel = gaussian_kernel(sigma)
    assume(len(kernel) <= min(hr))
    padded = np.zeros(hr)
    padded[:len(kernel), :len(kernel)] = kernel
    padded = np.roll(padded, (-(len(kernel) // 2),) * 2, axis=(0, 1))
    full_transfer = scipy.fft.fft2(padded) * np.outer(
        shift_multiplier_1d(hr[0], delta[0]), shift_multiplier_1d(hr[1], delta[1]))
    transfer = kernel_transfer(kernel, hr) * shift_multiplier_2d(hr, delta)
    np.testing.assert_allclose(transfer, full_transfer[:hr[0] // 2 + 1],
                               rtol=0, atol=1e-14)
    np.testing.assert_allclose(full_rows(transfer, hr[0]), full_transfer,
                               rtol=0, atol=1e-14)

    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=hr), rng.normal(size=lr_shape)
    expected = full_plane_fold(full_transfer, scipy.fft.fft2(x), decimation)
    np.testing.assert_allclose(fold(transfer, rfft2_rows(x), decimation),
                               expected[:lr_shape[0] // 2 + 1],
                               rtol=0, atol=1e-12 * np.abs(expected).max())
    expected = full_plane_unfold(full_transfer, scipy.fft.fft2(y), decimation)
    np.testing.assert_allclose(unfold(transfer, rfft2_rows(y), decimation),
                               expected[:hr[0] // 2 + 1],
                               rtol=0, atol=1e-12 * np.abs(expected).max())
    check_adjoint(transfer, x, y, decimation)


def test_gaussian_kernel_unit_sum():
    for sigma in (0.3, 0.85, 2.5):
        k = gaussian_kernel(sigma)
        assert k.sum() == pytest.approx(1.0, abs=1e-12)
        assert k.shape[0] == k.shape[1]
        assert k.shape[0] % 2 == 1
    for sigma in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and > 0"):
            gaussian_kernel(sigma)
        with pytest.raises(ValueError, match="finite and > 0"):
            check_gaussian_fits(sigma, (64, 64))


def test_kernel_transfer_dc_gain():
    k = gaussian_kernel(1.0)
    t = kernel_transfer(k, (32, 32))
    assert t[0, 0].real == pytest.approx(1.0)
    assert abs(t[0, 0].imag) < 1e-12


def test_kernel_transfer_rejects_oversized():
    with pytest.raises(ValueError):
        kernel_transfer(np.ones((9, 9)) / 81, (8, 8))


@pytest.mark.parametrize("sigma", [0.3, 1.0, 1.9, 2.0, 40.0, 1e6])
def test_check_gaussian_fits_agrees_with_the_kernel(sigma):
    side = 2 * max(1, int(np.ceil(4.0 * sigma))) + 1
    check_gaussian_fits(sigma, (side, side + 2))
    with pytest.raises(ValueError, match="larger than grid"):
        check_gaussian_fits(sigma, (side + 2, side - 1))
    if side < 400:
        assert gaussian_kernel(sigma).shape == (side, side)


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
