"""The CLI's exit contract under bad input: ``main`` returns 0, 1 or 2 and
never raises, whatever a config section or a stage image holds.  Every
case runs ``cli.main`` in process on the 128² test scenario, starting
from a valid simulate → superresolve output."""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib import format as npy_format

from srlab.cli import main

from test_cli import CONFIG

BAD_VALUES = st.sampled_from([
    "x", "", True, None, [], {}, [1.0], [[]], float("nan"), float("inf"),
    float("-inf"), 1e308, -1e308, -1, 0, -0.5, [float("nan"), 1.0],
    [1e308, 1e308], [-1, -1], [0, 0]])

# every command; the observations {obs1} {obs2} and the {image} are
# valid stage outputs unless the case replaces them
COMMANDS = [
    ["target"],
    ["mtf-curves", "--points", "8"],
    ["simulate", "--seed", "3"],
    ["superresolve", "--observations", "{obs1}", "{obs2}"],
    ["measure", "--image", "{image}"],
    ["measure", "--image", "{image}", "--sector", "3"],
    ["montecarlo", "--trials", "1", "--seed", "3"],
    ["sweep", "--param", "snr", "--values", "30,100", "--seeds-per-value", "1",
     "--seed", "3"],
]
READS_STAGES = [c for c in COMMANDS if c[0] in ("superresolve", "measure")]


def _key_paths(tree, prefix=()):
    """Every key path into a JSON tree, whole sections included."""
    yield prefix
    items = tree.items() if isinstance(tree, dict) else (
        enumerate(tree) if isinstance(tree, list) else ())
    for key, value in items:
        yield from _key_paths(value, (*prefix, key))


BASE = {**CONFIG, "output_dir": "unused"}  # every run passes --out-dir
CONFIG_PATHS = [p for p in _key_paths(BASE) if p]


def _edited(tree, path, value):
    """A copy of a JSON tree with the value at the path of keys set."""
    if not path:
        return value
    copy = dict(tree) if isinstance(tree, dict) else list(tree)
    copy[path[0]] = value if len(path) == 1 else _edited(tree[path[0]], path[1:], value)
    return copy


def _header(shape):
    buf = io.BytesIO()
    npy_format.write_array_header_1_0(
        buf, {"descr": "<f8", "fortran_order": False, "shape": shape})
    return buf.getvalue()


def _npy(array):
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=True)
    return buf.getvalue()


@st.composite
def bad_npy(draw):
    """The bytes of a .npy file a stage must refuse, or may read."""
    kind = draw(st.sampled_from(["header", "object", "1-D", "3-D", "nan",
                                 "truncated", "small", "dtype"]))
    if kind == "header":
        shape = draw(st.lists(st.integers(-3, 2**40) | st.just(131072),
                              max_size=3).map(tuple))
        return _header(shape) + draw(st.binary(max_size=64))
    if kind == "object":
        return _npy(np.array([[None, 1], [2.0, "x"]], dtype=object))
    if kind == "1-D":
        return _npy(np.zeros(draw(st.integers(0, 8))))
    if kind == "3-D":
        return _npy(np.zeros((2, 2, draw(st.integers(1, 3)))))
    if kind == "nan":
        image = np.ones((4, 4))
        image[draw(st.integers(0, 3)), draw(st.integers(0, 3))] = draw(
            st.sampled_from([np.nan, np.inf, -np.inf]))
        return _npy(image)
    if kind == "truncated":
        full = _npy(np.ones((8, 8)))
        return full[:draw(st.integers(0, len(full) - 1))]
    if kind == "small":
        return _npy(np.ones((draw(st.integers(1, 4)), draw(st.integers(1, 4)))))
    dtype = draw(st.sampled_from(["<f4", "<i8", ">f8", "<c16", "|b1"]))
    return _npy(np.ones((4, 4), dtype=dtype))


cases = st.one_of(
    st.tuples(st.just("config"), st.sampled_from(CONFIG_PATHS), BAD_VALUES),
    # ring counts past the test star's 2^26-sample ladder bound (72167)
    st.tuples(st.just("config"), st.just(("n_rings",)), st.integers(2**17, 2**80)),
    # even grid sides past the 2^26-pixel budget beside the other side's 128
    st.tuples(st.just("config"), st.sampled_from([("grid", "height"), ("grid", "width")]),
              st.integers(2**18 + 1, 2**39).map(lambda n: 2 * n)),
    st.tuples(st.just("npy"), st.just(None), bad_npy()))


@pytest.fixture(scope="module")
def stages(tmp_path_factory):
    """A valid config, its two observations and their reconstruction, for
    a case to replace one part of."""
    root = tmp_path_factory.mktemp("stages")
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG))
    sim, sr = root / "sim", root / "sr"
    assert main(["simulate", "--config", str(config), "--seed", "42",
                 "--out-dir", str(sim)]) == 0
    observations = [sim / "obs1.npy", sim / "obs2.npy"]
    assert main(["superresolve", "--config", str(config), "--observations",
                 *map(str, observations), "--out-dir", str(sr)]) == 0
    return config, observations, sr / "sr.npy"


@settings(max_examples=200)
# defects this test found, each kept as the config key that now supplies
# the value, and a case that always runs
@example(case=("config", ("system", "jitter_sigma"), 1e308))  # OverflowError
@example(case=("config", ("system", "assumed_psf_sigma"), 1e308))  # OverflowError
# FloatingPointError in the solver once; refused at config load, by key
@example(case=("config", ("system", "subarray_shift_al_lines"), 10**308))
# ran until killed once; refused at config load, by key
@example(case=("config", ("star", "supersample"), 100000))
@example(case=("config", ("solver", "P"), 10**6))
@example(case=("config", ("n_rings",), 100000000))
@example(case=("config", ("grid",), {"height": 100000, "width": 100000}))
# RuntimeWarnings, then an error that named no key, once; named by key
@example(case=("config", ("solver", "beta0"), 1e308))
# OverflowError on an int past the float range once; refused at config
# load, by key (n_phi and cycles where their records are built)
@example(case=("config", ("system", "n_phi"), 10**400))
@example(case=("config", ("system", "jitter_sigma"), 10**400))
@example(case=("config", ("system", "snr_at_300"), 10**400))
@example(case=("config", ("system", "assumed_psf_sigma"), 10**400))
@example(case=("config", ("star", "outer_radius"), 10**400))
@example(case=("config", ("star", "bright_level"), 10**400))
@example(case=("config", ("star", "cycles"), 10**400))
@example(case=("config", ("montecarlo", "bin_width_m"), 10**400))
@given(case=cases)
def test_main_exits_0_1_or_2_and_never_raises(stages, tmp_path_factory, case):
    part, path, value = case
    config, (obs1, obs2), image = stages
    work = tmp_path_factory.mktemp("case")
    commands = COMMANDS if part == "config" else READS_STAGES
    if part == "config":
        config = work / "config.json"
        config.write_text(json.dumps(_edited(BASE, path, value)))
    else:
        obs2 = image = work / "bad.npy"
        image.write_bytes(value)
    for command in commands:
        argv = [a.format(obs1=obs1, obs2=obs2, image=image) for a in command]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            status = main([*argv, "--config", str(config), "--out-dir", str(work / "out")])
        err = stderr.getvalue()
        assert status in (0, 1, 2), err
        assert "Traceback" not in err
        if status == 2:
            assert err.startswith("error:") or "\nerror:" in err, err
