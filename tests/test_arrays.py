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
    project_unit_sphere,
    steering_vector,
)
from beamsparse.arrays import MAX_GRID_ANGLES


def dense_pattern_oracle(a: np.ndarray, w: np.ndarray) -> float:
    """Quadratic form through the explicitly materialized outer product."""
    A = np.outer(a, a.conj())
    return float(np.real(w.conj() @ A @ w))


class TestGeometry:
    def test_rejects_single_element(self):
        with pytest.raises(ContractError):
            ArrayGeometry(1)

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


class TestSteeringVector:
    def test_broadside_is_all_ones(self):
        a = steering_vector(ArrayGeometry(3), 0.0)
        np.testing.assert_allclose(a, np.ones(3), atol=1e-15)

    def test_endfire_two_elements(self):
        a = steering_vector(ArrayGeometry(2), 90.0)
        np.testing.assert_allclose(a, [1.0, -1.0], atol=1e-12)

    def test_thirty_degree_phase_ramp(self):
        # phase of element n is 2*pi*0.5*n*sin(30 deg) = n*pi/2
        a = steering_vector(ArrayGeometry(4), 30.0)
        expected = np.exp(1j * np.pi / 2 * np.arange(4))
        np.testing.assert_allclose(a, expected, atol=1e-12)

    def test_rejects_angle_outside_visible_region(self):
        with pytest.raises(ContractError):
            steering_vector(ArrayGeometry(4), 90.5)

    def test_unit_modulus_everywhere(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            geo = ArrayGeometry(n, spacing_ratio=float(rng.uniform(0.1, 2.0)))
            theta = float(rng.uniform(-90, 90))
            a = steering_vector(geo, theta)
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
            np.testing.assert_allclose(steering.vectors[k], steering_vector(geo, theta), atol=1e-12)

    def test_single_broadside_angle(self):
        steering = build_steering_set(ArrayGeometry(5), AngleGrid(np.array([0.0])))
        np.testing.assert_allclose(steering.vectors, np.ones((1, 5)), atol=1e-15)

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


@pytest.mark.parametrize("angles", [[np.nan], [0.0, np.nan, 10.0], [-np.inf, 0.0]])
def test_rejects_non_finite_grid(angles):
    with pytest.raises(ContractError):
        AngleGrid(np.array(angles))


def test_rejects_non_finite_spacing():
    with pytest.raises(ContractError):
        ArrayGeometry(4, spacing_ratio=np.inf)


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


@pytest.mark.parametrize("n_elements", [10**12, np.int64(10**12)])
def test_oversize_steering_set_is_rejected_before_allocation(n_elements):
    grid = AngleGrid.uniform(-90, 90, 1.0)
    with pytest.raises(ContractError, match="n_elements 1000000000000 with 181 grid angles"):
        SteeringSet(ArrayGeometry(n_elements), grid)
