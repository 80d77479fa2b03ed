import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from srlab import metrology
from srlab.metrology import measure_resolution
from srlab.target import StarSpec, generate_spoke_target, pattern_angle

from test_metrology import sector_mask


def small_star(**kw):
    defaults = dict(cycles=16, outer_radius=24.0, inner_radius=3.0,
                    center=(31.5, 31.5), supersample=2)
    defaults.update(kw)
    return StarSpec(**defaults)


def test_spec_validation():
    with pytest.raises(ValueError):
        StarSpec(cycles=0)
    with pytest.raises(ValueError):
        StarSpec(inner_radius=50.0, outer_radius=40.0)
    with pytest.raises(ValueError):
        StarSpec(dark_level=600.0, bright_level=0.0)
    with pytest.raises(ValueError):
        StarSpec(supersample=0)
    with pytest.raises(ValueError):
        StarSpec(outer_radius=float("nan"))
    with pytest.raises(ValueError, match="cycles"):
        StarSpec(cycles=10**400)  # past the float range the pattern computes in


def test_supersample_is_bounded_by_the_star_box():
    # the default star's box is (2*104 + 3)^2 = 44521 cells: 38^2 sub-points
    # per cell stay within 2**26 in all, 39^2 do not
    assert StarSpec(supersample=38).supersample == 38
    with pytest.raises(ValueError, match="^supersample 39: .*44521-cell box"):
        StarSpec(supersample=39)
    with pytest.raises(ValueError, match="^supersample 100000: "):
        StarSpec(supersample=100000)


def test_supersample_bound_counts_the_box_the_raster_evaluates():
    # a radius-19 star's box is 41 x 41 cells about an integer center and
    # 42 x 42 about a half-integer one: at 196^2 sub-points per cell that
    # is 64,577,296 and 67,765,824 sub-points, under and over 2**26
    star = dict(outer_radius=19.0, supersample=196)
    assert StarSpec(center=(128.0, 128.0), **star).supersample == 196
    with pytest.raises(ValueError, match="^supersample 196: .*1764-cell box"):
        StarSpec(center=(128.5, 128.5), **star)


def test_clipping_rejected():
    spec = small_star(center=(10.0, 31.5))  # radius 24 around row 10 clips
    with pytest.raises(ValueError, match="clipped"):
        generate_spoke_target(spec, (64, 64))


def test_background_is_mean_level():
    spec = StarSpec(cycles=144, outer_radius=20.0, inner_radius=2.0,
                    center=(32.0, 32.0), supersample=1)
    img = generate_spoke_target(spec, (64, 64))
    # far corner is outside the star
    assert img[0, 0] == 300.0
    assert img[63, 63] == 300.0
    # dead zone near the center
    assert img[32, 32] == 300.0


def test_spoke_midline_is_bright():
    # alpha = 0 on the +y axis; cos(0) = 1 >= 0 is bright
    spec = StarSpec(cycles=16, outer_radius=24.0, inner_radius=3.0,
                    center=(32.0, 32.0), supersample=1)
    img = generate_spoke_target(spec, (64, 64))
    assert img[42, 32] == 600.0


def test_ring_mean_balances_bright_and_dark():
    # equal bright/dark area per cycle: ring mean = mean level; a few-
    # pixel-wide annulus averages out the raster moire that a single-
    # pixel ring picks up near the cycle-length limit
    spec = StarSpec(cycles=144, outer_radius=100.0, inner_radius=8.0,
                    center=(128.0, 128.0), supersample=4)
    img = generate_spoke_target(spec, (256, 256))
    yy = np.arange(256.0)[:, None] - 128.0
    xx = np.arange(256.0)[None, :] - 128.0
    rr = np.hypot(xx, yy)
    for radius in (50.0, 70.0, 90.0):
        ring = (rr >= radius - 2.5) & (rr < radius + 2.5)
        assert img[ring].mean() == pytest.approx(300.0, abs=2.0)


def _full_grid_raster(spec: StarSpec, size) -> np.ndarray:
    """Reference rasterization: every sub-point of every cell evaluated."""
    height, width = size
    r0, c0 = spec.center
    s = spec.supersample
    offsets = (np.arange(s) + 0.5) / s - 0.5
    rows = np.arange(height, dtype=np.float64)
    cols = np.arange(width, dtype=np.float64)
    acc = np.zeros((height, width))
    for dy in offsets:
        for dx in offsets:
            y = (rows + dy - r0)[:, None]
            x = (cols + dx - c0)[None, :]
            rr = np.hypot(x, y)
            alpha = np.arctan2(x, y)
            spoke = np.where(np.cos(spec.cycles * alpha) >= 0.0,
                             spec.bright_level, spec.dark_level)
            inside = (rr >= spec.inner_radius) & (rr <= spec.outer_radius)
            acc += np.where(inside, spoke, spec.mean_level)
    acc /= s * s
    return acc


@given(outer=st.floats(2.0, 22.0), inner_frac=st.floats(0.0, 0.9),
       row=st.floats(0.0, 1.0), col=st.floats(0.0, 1.0),
       cycles=st.integers(1, 150), supersample=st.integers(1, 4),
       dark=st.floats(-50.0, 50.0), contrast=st.floats(0.1, 700.0))
def test_star_box_raster_matches_full_grid(outer, inner_frac, row, col, cycles,
                                           supersample, dark, contrast):
    # cells outside the star's box are the mean of mean-level sub-points,
    # whatever the levels; inside it every cell is computed as before
    size = (48, 54)
    center = (outer + row * (size[0] - 1 - 2 * outer),
              outer + col * (size[1] - 1 - 2 * outer))
    spec = StarSpec(cycles=cycles, outer_radius=outer, inner_radius=inner_frac * outer,
                    dark_level=dark, bright_level=dark + contrast, center=center,
                    supersample=supersample)
    try:
        expected = _full_grid_raster(spec, size)
        image = generate_spoke_target(spec, size)
    except ValueError as exc:  # the center's rounding put the star past an edge
        assert "clipped" in str(exc)
        return
    assert np.array_equal(image, expected)


def test_star_box_raster_matches_full_grid_at_default():
    spec = StarSpec()
    assert np.array_equal(generate_spoke_target(spec, (256, 256)),
                          _full_grid_raster(spec, (256, 256)))


def test_determinism():
    spec = small_star()
    a = generate_spoke_target(spec, (64, 64))
    b = generate_spoke_target(spec, (64, 64))
    assert np.array_equal(a, b)


def test_rot90_invariance_four_cycles():
    # a 4-cycle star is invariant under exact 90 degree grid rotation
    spec = StarSpec(cycles=4, outer_radius=40.0, inner_radius=4.0,
                    center=(63.5, 63.5), supersample=4)
    img = generate_spoke_target(spec, (128, 128))
    assert np.array_equal(np.rot90(img), img)


def _rotated_frame_raster(spec: StarSpec, size, angle):
    """Rasterize the star with the sampling frame rotated about its center."""
    height, width = size
    rows = np.arange(height, dtype=float)
    cols = np.arange(width, dtype=float)
    sub = (np.arange(spec.supersample) + 0.5) / spec.supersample - 0.5
    acc = np.zeros(size)
    for dy in sub:
        for dx in sub:
            y = (rows + dy - spec.center[0])[:, None]
            x = (cols + dx - spec.center[1])[None, :]
            yr = np.cos(angle) * y - np.sin(angle) * x
            xr = np.sin(angle) * y + np.cos(angle) * x
            rr = np.hypot(xr, yr)
            alpha = np.arctan2(xr, yr)
            spoke = np.where(np.cos(spec.cycles * alpha) >= 0,
                             spec.bright_level, spec.dark_level)
            inside = (rr >= spec.inner_radius) & (rr <= spec.outer_radius)
            acc += np.where(inside, spoke, spec.mean_level)
    return acc / spec.supersample**2


def test_rotation_by_one_cycle_angle_reproduces():
    spec = StarSpec(cycles=144, outer_radius=104.0, inner_radius=8.0,
                    center=(127.5, 127.5), supersample=4)
    img = generate_spoke_target(spec, (256, 256))
    rotated = _rotated_frame_raster(spec, (256, 256), 2 * np.pi / spec.cycles)
    tol = spec.bright_level / spec.supersample
    assert np.abs(rotated - img).max() <= tol
    # half a cycle angle inverts the spokes: the check has power
    half = _rotated_frame_raster(spec, (256, 256), np.pi / spec.cycles)
    assert np.abs(half - img).max() > 300.0


def test_radial_modulation_band_means_non_increasing():
    # rasterization attenuates finer cycles: modulation trend decays as
    # the radius shrinks toward the 2 px cycle-length limit
    spec = StarSpec(cycles=144, outer_radius=104.0, inner_radius=8.0,
                    center=(128.0, 128.0), supersample=4)
    img = generate_spoke_target(spec, (256, 256))
    report = measure_resolution(img, spec.center, spec.cycles, 300.0, 0.0,
                                spec.outer_radius, n_rings=40)
    mods = np.array([m for _, m in report.curve])
    bands = np.array_split(mods, 4)  # ascending frequency
    means = [b.mean() for b in bands]
    assert all(a >= b for a, b in zip(means, means[1:]))


def test_pattern_angle_truth_table():
    assert pattern_angle(0.0, 1.0) == pytest.approx(0.0)
    assert pattern_angle(1.0, 1.0) == pytest.approx(math.pi / 4)
    assert pattern_angle(1.0, -1.0) == pytest.approx(3 * math.pi / 4)
    assert pattern_angle(0.0, -1.0) == pytest.approx(math.pi)
    assert pattern_angle(-1.0, -1.0) == pytest.approx(5 * math.pi / 4)
    assert pattern_angle(-1.0, 1.0) == pytest.approx(7 * math.pi / 4)


@given(st.floats(-100, 100), st.floats(-100, 100))
def test_pattern_angle_range(x, y):
    assert 0.0 <= pattern_angle(x, y) < 2 * math.pi


def test_sector_mask_full_circle():
    mask = sector_mask((32, 32), (16.0, 16.0), 0, 1)
    # everything except the exact center cell
    assert mask.sum() == 32 * 32 - 1
    assert mask[16, 16] == 0.0


def test_sector_masks_partition():
    masks = [sector_mask((33, 33), (16.0, 16.0), k, 8) for k in range(8)]
    total = sum(m for m in masks)
    expected = np.ones((33, 33))
    expected[16, 16] = 0.0
    assert np.array_equal(total, expected)


def test_sector_membership():
    # alpha = pi/8 is inside sector 0 of 8; 3*pi/8 is inside sector 1
    c = (16.0, 16.0)
    m0 = sector_mask((33, 33), c, 0, 8)
    y, x = 8.0, 8.0 * np.tan(np.pi / 8)
    row, col = int(round(16 + y)), int(round(16 + x))
    assert m0[row, col] == 1.0
    y, x = 8.0 * np.tan(np.pi / 8), 8.0
    row, col = int(round(16 + y)), int(round(16 + x))
    assert m0[row, col] == 0.0


def test_sector_mask_validation():
    # metrology refuses a sector index outside [0, SECTOR_COUNT)
    def lookup(sector):
        return metrology._ring_lookup((32, 32), (16.0, 16.0), [8.0], 4, sector)
    with mock.patch.object(metrology, "SECTOR_COUNT", 0):
        with pytest.raises(ValueError, match="sector_index 0 outside"):
            lookup(0)
    with pytest.raises(ValueError, match="sector_index 8 outside"):
        lookup(8)


@given(st.integers(min_value=1, max_value=12))
def test_sector_partition_property(count):
    masks = [sector_mask((21, 21), (10.0, 10.0), k, count)
             for k in range(count)]
    total = sum(masks)
    expected = np.ones((21, 21))
    expected[10, 10] = 0.0
    assert np.array_equal(total, expected)
