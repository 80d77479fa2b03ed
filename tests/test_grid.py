import functools
import logging
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from srlab.grid import check_image, read_image, read_pgm, write_pgm
from srlab.montecarlo import ParameterDistribution
from srlab.scenario import MonteCarloConfig, Scenario
from srlab.simulator import Observation, SystemParams
from srlab.solver import SolverConfig
from srlab.target import StarSpec


def test_basic_properties():
    g = check_image(np.zeros((4, 6)), "image")
    assert (g.shape[0], g.shape[1]) == (4, 6)
    assert g.shape == (4, 6)


def test_images_are_row_major(tmp_path):
    # every stage image is row-major, whatever the layout it was given or
    # stored in; a row-major float64 array is returned as it is
    data = np.random.default_rng(2).normal(300.0, 50.0, size=(6, 4))
    assert check_image(data, "image") is data
    for given_layout in (np.asfortranarray(data), np.repeat(data, 2, axis=1)[:, ::2]):
        image = check_image(given_layout, "image")
        assert image.flags.c_contiguous and np.array_equal(image, data)
    np.save(tmp_path / "fortran.npy", np.asfortranarray(data))
    image = read_image(tmp_path / "fortran.npy")
    assert image.flags.c_contiguous and np.array_equal(image, data)


@pytest.mark.parametrize("bad", [
    np.zeros(5),                      # 1-D
    np.zeros((1, 5)),                 # too small
    np.full((4, 4), np.nan),          # non-finite
    np.full((4, 4), np.inf),
])
def test_invalid_data_rejected(bad, tmp_path):
    # every image that enters from outside the pipeline is checked once
    with pytest.raises(ValueError, match="^image: "):
        check_image(bad, "image")
    with pytest.raises(ValueError, match="bad.pgm: "):
        write_pgm(tmp_path / "bad.pgm", bad)
    assert not (tmp_path / "bad.pgm").exists()


def test_pgm_roundtrip_integers(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.integers(0, 65536, size=(13, 17)).astype(np.float64)
    path = tmp_path / "img.pgm"
    write_pgm(path, data)
    back = read_pgm(path)
    assert np.array_equal(back, data)


def test_pgm_rounds_half_to_even_and_clamps(tmp_path):
    data = np.array([[0.5, 1.5, 2.5, 65534.5],
                     [-10.0, 70000.0, 3.49, 3.51]])
    write_pgm(tmp_path / "q.pgm", data)
    back = read_pgm(tmp_path / "q.pgm")
    assert back[0].tolist() == [0.0, 2.0, 2.0, 65534.0]
    assert back[1].tolist() == [0.0, 65535.0, 3.0, 4.0]


def test_pgm_warns_once_with_clamped_count(tmp_path, caplog):
    data = np.array([[-10.0, 70000.0, 65535.4, -0.4],
                     [80000.0, 5.0, 6.0, 7.0]])
    with caplog.at_level(logging.WARNING, logger="srlab.grid"):
        write_pgm(tmp_path / "c.pgm", data)
    assert len(caplog.records) == 1
    assert "clamped 3 of 8 pixels" in caplog.records[0].getMessage()
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="srlab.grid"):
        write_pgm(tmp_path / "ok.pgm", data.clip(0, 65535))
    assert not caplog.records


def test_pgm_is_big_endian_binary(tmp_path):
    write_pgm(tmp_path / "be.pgm", np.array([[256.0, 1.0],
                                             [0.0, 65535.0]]))
    raw = (tmp_path / "be.pgm").read_bytes()
    header = b"P5\n2 2\n65535\n"
    assert raw.startswith(header)
    pixels = raw[len(header):]
    # most significant byte first
    assert pixels == bytes([1, 0, 0, 1, 0, 0, 255, 255])


def test_pgm_header_comments(tmp_path):
    body = np.array([[1, 2], [3, 4]], dtype=">u2").tobytes()
    (tmp_path / "c.pgm").write_bytes(b"P5\n# a comment\n2 2\n# more\n65535\n" + body)
    g = read_pgm(tmp_path / "c.pgm")
    assert g.tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_pgm_rejects_wrong_magic(tmp_path):
    (tmp_path / "bad.pgm").write_bytes(b"P2\n2 2\n65535\n")
    with pytest.raises(ValueError, match="magic"):
        read_pgm(tmp_path / "bad.pgm")


def test_pgm_rejects_truncated(tmp_path):
    (tmp_path / "short.pgm").write_bytes(b"P5\n4 4\n65535\n\x00\x01")
    with pytest.raises(ValueError, match="truncated"):
        read_pgm(tmp_path / "short.pgm")


def test_pgm_refuses_long_header_fast(tmp_path):
    # the header parse reads a bounded number of bytes, so a 4 MB token is
    # refused at once, naming the file and the bound
    path = tmp_path / "long-header.pgm"
    path.write_bytes(b"P5\n" + b"1" * (4 << 20))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="long-header.pgm: PGM header longer "
                                         "than 65536 bytes"):
        read_pgm(path)
    assert time.perf_counter() - start < 1.0


def test_pgm_header_errors_name_the_file(tmp_path):
    (tmp_path / "width.pgm").write_bytes(b"P5\n12a 2\n65535\n" + bytes(8))
    with pytest.raises(ValueError, match="width.pgm: invalid literal .*12a"):
        read_pgm(tmp_path / "width.pgm")
    (tmp_path / "cut.pgm").write_bytes(b"P5\n2 2")
    with pytest.raises(ValueError, match="cut.pgm: truncated PGM header"):
        read_pgm(tmp_path / "cut.pgm")


@pytest.mark.parametrize("size", [b"-2 -2", b"-1 8", b"0 4", b"8193 8193"])
def test_pgm_rejects_header_size_before_reading(tmp_path, size):
    # refused from the header alone: a size that is not positive must not
    # reach reshape or size the pixel read
    (tmp_path / "size.pgm").write_bytes(b"P5\n" + size + b"\n65535\n" + bytes(128))
    with pytest.raises(ValueError, match="size.pgm: PGM size .* out of range"):
        read_pgm(tmp_path / "size.pgm")


@given(values=st.lists(st.integers(min_value=0, max_value=65535),
                       min_size=6, max_size=6))
def test_pgm_roundtrip_property(tmp_path_factory, values):
    data = np.array(values, dtype=np.float64).reshape(2, 3)
    path = tmp_path_factory.mktemp("pgm") / "p.pgm"
    write_pgm(path, data)
    assert np.array_equal(read_pgm(path), data)


def test_read_image_chooses_by_suffix(tmp_path):
    # a .npy file is the exact float64 array; any other file is a PGM
    data = np.random.default_rng(1).normal(300.0, 50.0, size=(6, 4))
    np.save(tmp_path / "img.npy", data)
    write_pgm(tmp_path / "img.pgm", data)
    assert np.array_equal(read_image(tmp_path / "img.npy"), data)
    assert np.array_equal(read_image(tmp_path / "img.pgm"), np.rint(data))
    np.save(tmp_path / "fortran.npy", np.asfortranarray(data))
    assert np.array_equal(read_image(tmp_path / "fortran.npy"), data)


@pytest.mark.parametrize("array, message", [
    (np.zeros(6), "2-D float64"), (np.zeros((2, 2, 2)), "2-D float64"),
    (np.zeros((3, 3), dtype=np.float32), "2-D float64"),
    (np.zeros((3, 3), dtype=object), "2-D float64"),
    (np.full((3, 3), np.nan), "non-finite"), (np.zeros((1, 3)), "too small")])
def test_read_image_refuses_bad_npy(tmp_path, array, message):
    np.save(tmp_path / "bad.npy", array, allow_pickle=True)
    with pytest.raises(ValueError, match=f"bad.npy: .*{message}"):
        read_image(tmp_path / "bad.npy")
    (tmp_path / "cut.npy").write_bytes((tmp_path / "bad.npy").read_bytes()[:-4])
    with pytest.raises(ValueError, match="cut.npy: "):
        read_image(tmp_path / "cut.npy")


# every float field of a parameter record: (record, field, the name its
# messages use, a valid value given as ints)
_distribution = functools.partial(ParameterDistribution, name="x", kind="uniform",
                                  nominal=1, low=0, high=2)
_observation = functools.partial(Observation, np.zeros((4, 4)), decimation=(1, 2),
                                 assumed_psf=np.ones((1, 1)))
FLOAT_FIELDS = [
    (SystemParams, "optics_mtf_at_hr_nyq", "optics_mtf_at_hr_nyq", 1),
    (SystemParams, "jitter_sigma", "jitter_sigma", 0),
    (SystemParams, "snr_at_300", "snr_at_300", 60),
    (SystemParams, "subarray_shift_ax", "subarray_shift_ax", 0),
    (SystemParams, "assumed_psf_sigma", "assumed_psf_sigma", 1),
    (StarSpec, "outer_radius", "outer_radius", 104),
    (StarSpec, "inner_radius", "inner_radius", 8),
    (StarSpec, "dark_level", "dark_level", 0),
    (StarSpec, "bright_level", "bright_level", 600),
    (StarSpec, "center", "center", (128, 128)),
    (SolverConfig, "lam", "lambda", 1),
    (SolverConfig, "alpha", "alpha", 1),
    (SolverConfig, "beta0", "beta0", 1),
    (SolverConfig, "rel_tol", "rel_tol", 0),
    (Scenario, "nem_signal", "nem_signal", 300),
    (MonteCarloConfig, "bin_width_m", "bin_width_m", 1),
    (_distribution, "nominal", "nominal", 1),
    (_distribution, "low", "low", 0),
    (_distribution, "high", "high", 2),
    (_observation, "shift_hr", "shift_hr", (1, 2)),
]


def _huge(value):
    """Each way of putting an int past the float range into a field that
    holds value: the value itself, or one coordinate of a pair."""
    if isinstance(value, tuple):
        return [(10**400, 1), (1, -10**400)]
    return [10**400, -10**400]


@pytest.mark.parametrize("record, field, name, value", FLOAT_FIELDS,
                         ids=[f"{getattr(record, 'func', record).__name__}.{field}"
                              for record, field, _, _ in FLOAT_FIELDS])
def test_float_fields_hold_floats_within_the_float_range(record, field, name, value):
    # an int past the float range is refused by name, never with an
    # OverflowError, and an int a float can hold is stored as that float
    for huge in _huge(value):
        with pytest.raises(ValueError, match=f"^{name} must be <= 1.7976931348623157e"
                                             f"\\+308 in magnitude, the float range$"):
            record(**{field: huge})
    stored = getattr(record(**{field: value}), field)
    assert stored == value
    assert all(type(v) is float for v in (stored if isinstance(value, tuple) else [stored]))
