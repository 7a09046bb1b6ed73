import numpy as np
import pytest

from beamsparse import (
    AngleGrid,
    ConfigurationError,
    ContractError,
    DesiredPattern,
    MainlobeSpec,
    build_template,
)


@pytest.fixture
def full_grid():
    return AngleGrid.uniform(-90, 90, 1.0)


def test_single_lobe_counts(full_grid):
    tpl = build_template(full_grid, [MainlobeSpec(22, 28, 1000.0)])
    assert int(tpl.mainlobe_mask.sum()) == 7
    assert np.count_nonzero(tpl.values == 1000.0) == 7
    assert np.count_nonzero(tpl.values == 0.0) == 174


def test_two_lobes_counts(full_grid):
    tpl = build_template(
        full_grid, [MainlobeSpec(-15, -11, 1000.0), MainlobeSpec(11, 15, 1000.0)]
    )
    assert int(tpl.mainlobe_mask.sum()) == 10
    angles = full_grid.angles_deg
    assert int(tpl.mainlobe_mask[(angles >= -15) & (angles <= -11)].sum()) == 5
    assert int(tpl.mainlobe_mask[(angles >= 11) & (angles <= 15)].sum()) == 5


def test_lobe_covering_whole_grid(full_grid):
    tpl = build_template(full_grid, [MainlobeSpec(-90, 90, 3.5)])
    assert tpl.mainlobe_mask.all()
    np.testing.assert_array_equal(tpl.values, 3.5)


def test_endpoints_inclusive():
    grid = AngleGrid.uniform(0, 10, 1.0)
    tpl = build_template(grid, [MainlobeSpec(2, 4, 1.0)])
    np.testing.assert_array_equal(tpl.mainlobe_mask, (grid.angles_deg >= 2) & (grid.angles_deg <= 4))


def test_conflicting_overlap_rejected(full_grid):
    with pytest.raises(ConfigurationError):
        build_template(full_grid, [MainlobeSpec(0, 10, 1000.0), MainlobeSpec(5, 15, 500.0)])


def test_same_level_overlap_is_a_union(full_grid):
    tpl = build_template(full_grid, [MainlobeSpec(0, 10, 7.0), MainlobeSpec(5, 15, 7.0)])
    assert int(tpl.mainlobe_mask.sum()) == 16


def test_order_independent(full_grid):
    lobes = [MainlobeSpec(-40, -30, 5.0), MainlobeSpec(10, 20, 2.0), MainlobeSpec(50, 60, 9.0)]
    forward = build_template(full_grid, lobes)
    backward = build_template(full_grid, lobes[::-1])
    np.testing.assert_array_equal(forward.values, backward.values)
    np.testing.assert_array_equal(forward.mainlobe_mask, backward.mainlobe_mask)


def test_mask_count_matches_pointwise_scan(full_grid):
    rng = np.random.default_rng(17)
    for _ in range(25):
        lobes = []
        for _ in range(int(rng.integers(1, 4))):
            start = float(rng.uniform(-90, 85))
            end = float(rng.uniform(start + 0.5, 90))
            lobes.append(MainlobeSpec(start, end, 10.0))
        tpl = build_template(full_grid, lobes)
        covered = sum(
            1
            for theta in full_grid.angles_deg
            if any(lobe.start_deg <= theta <= lobe.end_deg for lobe in lobes)
        )
        assert int(tpl.mainlobe_mask.sum()) == covered


def test_empty_lobes_rejected(full_grid):
    with pytest.raises(ConfigurationError):
        build_template(full_grid, [])


def test_negative_sidelobe_level_rejected(full_grid):
    with pytest.raises(ConfigurationError):
        build_template(full_grid, [MainlobeSpec(0, 5, 1.0)], sidelobe_level=-1.0)


def test_bad_lobe_interval_rejected():
    with pytest.raises(ConfigurationError):
        MainlobeSpec(10, 5, 1.0)
    with pytest.raises(ConfigurationError):
        MainlobeSpec(-100, 0, 1.0)
    with pytest.raises(ConfigurationError):
        MainlobeSpec(0, 5, 0.0)


@pytest.mark.parametrize("level", [np.inf, np.nan])
def test_non_finite_levels_rejected(full_grid, level):
    with pytest.raises(ConfigurationError):
        MainlobeSpec(0, 5, level)
    with pytest.raises(ConfigurationError, match="sidelobe_level"):
        build_template(full_grid, [MainlobeSpec(0, 5, 1.0)], sidelobe_level=level)


@pytest.mark.parametrize(
    "values,mask,message",
    [
        ([0.0, 1.0], [True], "equally sized"),
        ([0.0, 1.0], [True, False], "positive on the mainlobe"),
        ([0.0, 1e160], [False, True], "template energy"),
        ([1e300, 1.0], [False, True], "template energy"),
    ],
    ids=["mask_shape", "zero_mainlobe", "mainlobe_energy_overflow", "sidelobe_energy_overflow"],
)
def test_malformed_pattern_rejected(values, mask, message):
    with pytest.raises(ContractError, match=message):
        DesiredPattern(values, mask)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", [0, 1])
def test_pattern_with_non_finite_values_rejected(value, where):
    # index 0 is a sidelobe angle, index 1 a mainlobe angle
    values = [0.0, 1.0]
    values[where] = value
    with pytest.raises(ContractError, match="template holds non-finite values"):
        DesiredPattern(values, [False, True])
