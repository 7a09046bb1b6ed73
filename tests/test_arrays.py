import dataclasses
import json

import numpy as np
import pytest

from beamsparse import (
    AngleGrid,
    ArrayGeometry,
    ContractError,
    DegenerateInputError,
    SteeringSet,
    beampattern,
    build_steering_set,
    parse_config,
    project_unit_sphere,
)
from beamsparse.arrays import MAX_GRID_ANGLES, _echo

# scalars that are not real numbers; the scalar rule reads each as NaN
NOT_REAL = ["0.5", None, True, 1 + 2j, [1.0], 10**400]


def one_angle_row(geometry: ArrayGeometry, theta_deg: float) -> np.ndarray:
    """The steering vector toward one direction: the row of a one-angle steering set."""
    return build_steering_set(geometry, AngleGrid([theta_deg])).vectors[0]


def dense_pattern_oracle(a: np.ndarray, w: np.ndarray) -> float:
    """Quadratic form through the explicitly materialized outer product."""
    A = np.outer(a, a.conj())
    return float(np.real(w.conj() @ A @ w))


class TestGeometry:
    def test_rejects_single_element(self):
        with pytest.raises(ContractError):
            ArrayGeometry(1)
        # not an integer, or one too large for a float, which has no steering phase
        for n_elements in (True, 4.0, "4", 10**400):
            with pytest.raises(ContractError, match="n_elements"):
                ArrayGeometry(n_elements)

    def test_rejects_nonpositive_spacing(self):
        with pytest.raises(ContractError):
            ArrayGeometry(4, spacing_ratio=0.0)

    def test_default_is_half_wavelength(self):
        assert ArrayGeometry(4).spacing_ratio == 0.5


class TestAngleGrid:
    def test_uniform_full_span_has_181_points(self):
        grid = AngleGrid.uniform(-90, 90, 1.0)
        assert grid.count == 181
        assert grid.angles_deg[0] == -90.0
        assert grid.angles_deg[-1] == 90.0

    def test_rejects_empty(self):
        with pytest.raises(ContractError):
            AngleGrid(np.array([]))

    def test_rejects_unsorted(self):
        with pytest.raises(ContractError):
            AngleGrid(np.array([0.0, -1.0, 1.0]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ContractError):
            AngleGrid(np.array([-91.0, 0.0]))
        # a non-number is NaN to the scalar rule, outside every range
        for value in NOT_REAL:
            for args in ((value, 90, 1.0), (-90, value, 1.0), (-90, 90, value)):
                with pytest.raises(ContractError, match="grid_"):
                    AngleGrid.uniform(*args)


class TestSteeringVector:
    def test_broadside_is_all_ones(self):
        a = one_angle_row(ArrayGeometry(3), 0.0)
        np.testing.assert_allclose(a, np.ones(3), atol=1e-15)

    def test_endfire_two_elements(self):
        a = one_angle_row(ArrayGeometry(2), 90.0)
        np.testing.assert_allclose(a, [1.0, -1.0], atol=1e-12)

    def test_thirty_degree_phase_ramp(self):
        # phase of element n is 2*pi*0.5*n*sin(30 deg) = n*pi/2
        a = one_angle_row(ArrayGeometry(4), 30.0)
        expected = np.exp(1j * np.pi / 2 * np.arange(4))
        np.testing.assert_allclose(a, expected, atol=1e-12)

    def test_rejects_angle_outside_visible_region(self):
        with pytest.raises(ContractError):
            one_angle_row(ArrayGeometry(4), 90.5)

    def test_unit_modulus_everywhere(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            geo = ArrayGeometry(n, spacing_ratio=float(rng.uniform(0.1, 2.0)))
            theta = float(rng.uniform(-90, 90))
            a = one_angle_row(geo, theta)
            np.testing.assert_allclose(np.abs(a), 1.0, atol=1e-12)
            assert a[0] == 1.0 + 0.0j


class TestSteeringSet:
    def test_full_grid_shape(self):
        steering = build_steering_set(ArrayGeometry(30), AngleGrid.uniform(-90, 90, 1.0))
        assert steering.vectors.shape == (181, 30)

    def test_rows_match_single_angle_evaluation(self):
        geo = ArrayGeometry(6)
        grid = AngleGrid(np.array([-40.0, 0.0, 13.0, 71.0]))
        steering = build_steering_set(geo, grid)
        for k, theta in enumerate(grid.angles_deg):
            np.testing.assert_allclose(steering.vectors[k], one_angle_row(geo, theta), atol=1e-12)

    def test_single_broadside_angle(self):
        steering = build_steering_set(ArrayGeometry(5), AngleGrid(np.array([0.0])))
        np.testing.assert_allclose(steering.vectors, np.ones((1, 5)), atol=1e-15)

    def test_rejects_arguments_of_the_wrong_type(self):
        geometry, grid = ArrayGeometry(4), AngleGrid(np.array([0.0]))
        for args, match in (
            ((None, grid), "geometry must be an ArrayGeometry, got NoneType"),
            ((4, grid), "geometry must be an ArrayGeometry, got int"),
            ((geometry, None), "grid must be an AngleGrid, got NoneType"),
            ((geometry, np.array([0.0])), "grid must be an AngleGrid, got ndarray"),
            ((grid, geometry), "geometry must be an ArrayGeometry, got AngleGrid"),
        ):
            for build in (SteeringSet, build_steering_set):
                with pytest.raises(ContractError, match=match):
                    build(*args)

    def test_vectors_follow_from_geometry_and_grid(self):
        # closed form exp(j 2 pi spacing n sin(theta_k)), one entry at a time
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            spacing = float(rng.uniform(0.1, 2.0))
            angles = np.unique(rng.uniform(-90, 90, int(rng.integers(1, 30))))
            steering = SteeringSet(ArrayGeometry(n, spacing), AngleGrid(angles))
            expected = np.array([
                [np.exp(2j * np.pi * spacing * m * np.sin(np.radians(theta))) for m in range(n)]
                for theta in angles
            ])
            np.testing.assert_allclose(steering.vectors, expected, rtol=0, atol=1e-10)
            assert not steering.vectors.flags.writeable

    @pytest.mark.parametrize("n, step, spacing", [(30, 1.0, 0.5), (256, 0.25, 0.5),
                                                  (30, 1.0, 9.8e305)])
    def test_vectors_equal_the_complex_exponential_of_the_phases(self, n, step, spacing):
        # the build writes each phase's cosine and sine into the real and imaginary parts;
        # they equal np.exp(1j * phase) in value on the reference grids and at phases up to
        # 1.8e308. Only a zero's sign differs: at a negative angle column 0's phase is -0,
        # whose sine is -0, where np.exp gives +0
        grid = AngleGrid.uniform(-90, 90, step)
        steering = build_steering_set(ArrayGeometry(n, spacing), grid)
        sin_theta = np.sin(np.radians(grid.angles_deg))
        phases = 2.0 * np.pi * spacing * np.outer(sin_theta, np.arange(n))
        assert steering.vectors.shape == (grid.count, n)
        assert np.array_equal(steering.vectors, np.exp(1j * phases))

    def test_moments_are_the_per_angle_power_sums(self):
        # q_i = sum_k z_k^i for i = -(N-1) ... 2N-2, z_k = exp(j 2 pi spacing sin(theta_k)),
        # on a non-uniform grid at a spacing other than half a wavelength
        rng = np.random.default_rng(13)
        for n in (2, 3, 7, 30):
            spacing = 0.83
            angles = np.unique(rng.uniform(-90, 90, 4 * n + 3))
            steering = SteeringSet(ArrayGeometry(n, spacing), AngleGrid(angles))
            z = np.exp(2j * np.pi * spacing * np.sin(np.radians(angles)))
            lags = np.arange(-(n - 1), 2 * n - 1)
            expected = np.array([np.sum(z**i) for i in lags])
            assert steering.moments.shape == (3 * n - 2,)
            np.testing.assert_allclose(steering.moments, expected, rtol=0, atol=1e-12 * z.size)

    def test_moments_are_read_only(self):
        steering = build_steering_set(ArrayGeometry(4), AngleGrid.uniform(-90, 90, 10.0))
        assert not steering.moments.flags.writeable
        with pytest.raises(ValueError):
            steering.moments[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            steering.moments = np.zeros_like(steering.moments)

    @pytest.mark.parametrize("n", [30, 256, 512])
    def test_keeps_only_the_vectors_and_the_moments(self, n):
        # K N steering vectors and 3N - 2 moments, each in memory of its own: no array of
        # either moment kernel's operand outlives the build
        grid = AngleGrid.uniform(-90, 90, 1.0)
        steering = build_steering_set(ArrayGeometry(n), grid)
        arrays = [x for x in vars(steering).values() if isinstance(x, np.ndarray)]
        assert all(x.base is None and x.dtype == complex for x in arrays)
        assert sum(x.size for x in arrays) == grid.count * n + 3 * n - 2
        assert sum(x.nbytes for x in arrays) == 16 * (grid.count * n + 3 * n - 2)


class TestBeampattern:
    def test_matched_weights_reach_array_gain(self):
        geo = ArrayGeometry(8)
        grid = AngleGrid(np.array([-30.0, 10.0, 55.0]))
        steering = build_steering_set(geo, grid)
        w = project_unit_sphere(steering.vectors[1])
        pattern = beampattern(steering, w)
        assert pattern[1] == pytest.approx(8.0, abs=1e-10)

    def test_single_element_is_isotropic(self):
        steering = build_steering_set(ArrayGeometry(6), AngleGrid.uniform(-90, 90, 5.0))
        one_hot = np.zeros(6, complex)
        one_hot[0] = 1.0
        pattern = beampattern(steering, one_hot)
        np.testing.assert_allclose(pattern, 1.0, atol=1e-12)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            geo = ArrayGeometry(n)
            theta = float(rng.uniform(-90, 90))
            steering = build_steering_set(geo, AngleGrid(np.array([theta])))
            w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            got = beampattern(steering, w)[0]
            want = dense_pattern_oracle(steering.vectors[0], w)
            assert got == pytest.approx(want, rel=1e-10)

    def test_real_nonnegative(self):
        rng = np.random.default_rng(3)
        steering = build_steering_set(ArrayGeometry(7), AngleGrid.uniform(-90, 90, 2.0))
        w = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        pattern = beampattern(steering, w)
        assert pattern.dtype == np.float64
        assert np.all(pattern >= 0)

    def test_rejects_mismatched_length(self):
        steering = build_steering_set(ArrayGeometry(4), AngleGrid(np.array([0.0])))
        with pytest.raises(ContractError):
            beampattern(steering, np.ones(5, complex))

    @pytest.mark.parametrize("scale", [1e160, 1.7e308])
    def test_overflowing_pattern_rejected(self, scale):
        # finite weights whose pattern overflows once came back as inf (1e160) or with a
        # RuntimeWarning from the steering product (1.7e308)
        steering = build_steering_set(ArrayGeometry(4), AngleGrid.uniform(-90, 90, 10.0))
        with pytest.raises(ContractError, match="overflows"):
            beampattern(steering, np.full(4, scale, complex))

    def test_large_finite_pattern_keeps_its_value(self):
        steering = build_steering_set(ArrayGeometry(4), AngleGrid.uniform(-90, 90, 10.0))
        w = np.full(4, 1e150, complex)
        want = np.abs(np.conj(steering.vectors @ np.conj(w))) ** 2
        assert np.array_equal(beampattern(steering, w), want)


class TestProjection:
    def test_rescales_to_unit_norm(self):
        np.testing.assert_allclose(project_unit_sphere(np.array([2.0, 0.0, 0.0])), [1, 0, 0])

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        once = project_unit_sphere(x)
        np.testing.assert_allclose(project_unit_sphere(once), once, atol=1e-15)
        assert np.linalg.norm(once) == pytest.approx(1.0, abs=1e-12)

    def test_complex_pair(self):
        got = project_unit_sphere(np.array([1 + 1j, 1 - 1j]))
        np.testing.assert_allclose(got, [0.5 + 0.5j, 0.5 - 0.5j], atol=1e-15)
        assert np.linalg.norm(got) == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariant(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        for c in (0.003, 1.0, 250.0):
            np.testing.assert_allclose(
                project_unit_sphere(c * x), project_unit_sphere(x), atol=1e-12
            )

    def test_rejects_zero_vector(self):
        with pytest.raises(DegenerateInputError):
            project_unit_sphere(np.zeros(3))

    def test_leaves_its_argument_as_it_was(self):
        # the kernel scales in place, so the public call scales a copy, of a read-only array too
        x = np.array([3.0 + 4.0j, 0.0, -12.0j])
        kept = x.copy()
        got = project_unit_sphere(x)
        assert np.array_equal(x, kept)
        assert not np.shares_memory(got, x)
        x.setflags(write=False)
        assert np.array_equal(project_unit_sphere(x), got)


@pytest.mark.parametrize(
    "angles",
    # the last row's np.diff would overflow if the grid were not first checked visible
    [[np.nan], [0.0, np.nan, 10.0], [-np.inf, 0.0], ["a"], [0.0, [1.0]], [1j], [10**400],
     [1e308, -1e308], [False, True]],
)
def test_rejects_non_finite_grid(angles):
    with pytest.raises(ContractError):
        AngleGrid(angles)


class NoRepr:
    def __repr__(self):
        raise RuntimeError("no repr")


def test_echo_is_at_most_60_characters_and_never_raises():
    # short values read as their repr, as the rejection messages printed them before
    for x in (-1, 1.5, "x", None, True, np.float64(-1.5), np.int64(-(2**63)), 10**59 - 1,
              -(10**58)):
        assert _echo(x) == repr(x)
    # longer ints by their exact digit count, past the interpreter's 4300-digit repr limit too
    for k in range(59, 400):
        assert _echo(10**k) == f"an integer of {k + 1} digits"
        assert _echo(-(10**k) - 1) == f"a negative integer of {k + 1} digits"
    for k in (400, 4300, 5000, 20000):
        assert _echo(10**k - 1) == f"an integer of {k} digits"
    long = _echo("x" * 1000)
    assert len(long) == 60 and long.startswith("'xxx") and long.endswith("...")
    assert _echo(NoRepr()) == "a NoRepr with no repr"


def test_rejects_non_finite_spacing():
    for spacing_ratio in (np.inf, *NOT_REAL):
        with pytest.raises(ContractError, match="spacing_ratio"):
            ArrayGeometry(4, spacing_ratio=spacing_ratio)


@pytest.mark.parametrize("n_elements", [30, np.int64(30)])
def test_spacing_must_keep_the_steering_phase_finite(n_elements):
    # 2*pi*29*9.8e305 is about 1.79e308, just inside the float range; 1e306 is past it
    steering = build_steering_set(ArrayGeometry(n_elements, 9.8e305), AngleGrid.uniform(-90, 90, 1.0))
    assert np.isfinite(steering.vectors).all()
    with pytest.raises(ContractError, match="steering phase"):
        ArrayGeometry(n_elements, 1e306)


def test_long_wide_array_is_a_phase_ramp():
    geo = ArrayGeometry(1024, spacing_ratio=4.0)
    steering = build_steering_set(geo, AngleGrid.uniform(-90, 90, 1.0))
    assert steering.n_angles == 181
    # a_k[n+1] conj(a_k[n]) = a_k[1], which the solver's Toeplitz Gram build needs
    a = steering.vectors
    np.testing.assert_allclose(a[:, 1:] * np.conj(a[:, :-1]), a[:, 1:2] * np.ones((1, 1023)), atol=1e-9)


def test_grid_angle_count_is_bounded():
    assert AngleGrid.uniform(-90, 90, 180 / (MAX_GRID_ANGLES - 1)).count == MAX_GRID_ANGLES
    with pytest.raises(ContractError, match="grid_step_deg"):
        AngleGrid.uniform(-90, 90, 180 / MAX_GRID_ANGLES)
    with pytest.raises(ContractError, match="grid_step_deg"):
        AngleGrid.uniform(-90, 90, 1e-12)



def test_full_span_grid_ends_at_90_for_every_step_dividing_180():
    # -90 + (180/m) * m rounds to either side of 90 for some m (90.00000000000003 at m = 169)
    for m in range(2, 2001):
        angles = AngleGrid.uniform(-90, 90, 180 / m).angles_deg
        assert angles.size == m + 1 and angles[-1] == 90.0, m
        assert np.all(np.diff(angles) > 0), m
    doc = {"mainlobes": [{"start_deg": 10, "end_deg": 20}], "grid_step_deg": 180 / 169}
    assert parse_config(json.dumps(doc)).grid.count == 170


@pytest.mark.parametrize("n_elements", [10**12, np.int64(10**12)])
def test_oversize_steering_set_is_rejected_before_allocation(n_elements):
    grid = AngleGrid.uniform(-90, 90, 1.0)
    with pytest.raises(ContractError, match="n_elements 1000000000000 with 181 grid angles"):
        SteeringSet(ArrayGeometry(n_elements), grid)
