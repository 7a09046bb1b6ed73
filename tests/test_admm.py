from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import beamsparse.admm as admm_mod
from beamsparse import (
    AdmmState,
    AngleGrid,
    ArrayGeometry,
    ContractError,
    DegenerateInputError,
    DesiredPattern,
    DivergenceError,
    MainlobeSpec,
    MajorizerDiag,
    NumericalError,
    POWER_FLOOR,
    SolverParams,
    augmented_lagrangian,
    beampattern,
    build_steering_set,
    build_template,
    cardinality,
    converged,
    entropy,
    entropy_gradient,
    inner_products,
    load_config,
    majorizer_diag,
    majorizer_value,
    matching_error_db,
    objective_value,
    peak_sidelobe_db,
    project_unit_sphere,
    solve,
    solve_weight_system,
    update_alpha,
    update_dual,
    update_v,
    update_w,
)
from beamsparse.admm import data_fit_gram


def random_instance(rng, n=5, k=7):
    geo = ArrayGeometry(n)
    angles = np.sort(rng.uniform(-90, 90, k))
    while np.any(np.diff(angles) <= 0):
        angles = np.sort(rng.uniform(-90, 90, k))
    steering = build_steering_set(geo, AngleGrid(angles))
    values = rng.uniform(0.5, 3.0, k)
    values[rng.random(k) < 0.3] = 0.0
    if not values.any():
        values[0] = 1.0
    d = DesiredPattern(values, values > 0)
    return steering, d


def random_complex(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def unit(rng, n):
    z = random_complex(rng, n)
    return z / np.linalg.norm(z)


def dense_outer_products(steering):
    return [np.outer(a, a.conj()) for a in steering.vectors]


def grid_search_alpha(r, d, rounds=40, points=201):
    """Independent 1-D minimizer of sum_k |r_k - alpha d_k|^2."""
    bound = float(np.abs(d) @ np.abs(r)) / float(d @ d) + 1.0
    lo, hi = -bound, bound
    for _ in range(rounds):
        grid = np.linspace(lo, hi, points)
        costs = np.array([np.sum(np.abs(r - a * d) ** 2) for a in grid])
        best = int(np.argmin(costs))
        lo = grid[max(0, best - 1)]
        hi = grid[min(points - 1, best + 1)]
    return 0.5 * (lo + hi)


class TestInnerProducts:
    def test_matched_weights(self):
        rng = np.random.default_rng(0)
        steering, _ = random_instance(rng)
        x = steering.vectors[2] / np.sqrt(5)
        r = inner_products(steering, x, x)
        assert r[2] == pytest.approx(5.0, abs=1e-10)

    def test_zero_auxiliary(self):
        rng = np.random.default_rng(1)
        steering, _ = random_instance(rng)
        r = inner_products(steering, unit(rng, 5), np.zeros(5, complex))
        np.testing.assert_array_equal(r, 0.0)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            steering, _ = random_instance(rng)
            w, v = random_complex(rng, 5), random_complex(rng, 5)
            r = inner_products(steering, w, v)
            dense = np.array([w.conj() @ A @ v for A in dense_outer_products(steering)])
            np.testing.assert_allclose(r, dense, atol=1e-10)

    def test_rejects_wrong_length(self):
        rng = np.random.default_rng(3)
        steering, _ = random_instance(rng)
        with pytest.raises(ContractError):
            inner_products(steering, np.ones(4, complex), np.ones(5, complex))


class TestUpdateAlpha:
    def test_perfect_match_gives_one(self):
        d = DesiredPattern(np.array([1.0, 2.0, 0.0]), np.array([True, True, False]))
        assert update_alpha(d.values.astype(complex), d) == pytest.approx(1.0)

    def test_pure_scaling(self):
        d = DesiredPattern(np.array([1.0, 2.0, 3.0]), np.ones(3, bool))
        assert update_alpha(2.0 * d.values.astype(complex), d) == pytest.approx(2.0)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            _, d = random_instance(rng)
            r = random_complex(rng, 7)
            got = update_alpha(r, d)
            want = grid_search_alpha(r, d.values)
            assert got == pytest.approx(want, abs=1e-6)

    def test_never_improved_by_perturbation(self):
        rng = np.random.default_rng(5)
        _, d = random_instance(rng)
        r = random_complex(rng, 7)
        alpha = update_alpha(r, d)
        cost = lambda a: float(np.sum(np.abs(r - a * d.values) ** 2))
        assert cost(alpha) <= cost(alpha + 1e-3) + 1e-12
        assert cost(alpha) <= cost(alpha - 1e-3) + 1e-12

    def test_rejects_zero_template(self):
        d = DesiredPattern(np.zeros(3), np.zeros(3, bool))
        with pytest.raises(DegenerateInputError):
            update_alpha(np.ones(3, complex), d)


class TestUpdateV:
    def test_zero_lam_returns_consensus_point(self):
        rng = np.random.default_rng(6)
        steering, d = random_instance(rng)
        params = SolverParams(lam=0.0, rho=5.0)
        w, u = unit(rng, 5), random_complex(rng, 5)
        v = update_v(steering, w, u, 1.3, d, params)
        np.testing.assert_allclose(v, w + u, atol=1e-12)

    def test_first_order_optimality_dense(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            steering, d = random_instance(rng)
            params = SolverParams(lam=float(rng.uniform(0.05, 2.0)), rho=float(rng.uniform(2.5, 40)))
            w, u = unit(rng, 5), random_complex(rng, 5)
            alpha = float(rng.uniform(-2, 2))
            v = update_v(steering, w, u, alpha, d, params)
            mats = dense_outer_products(steering)
            gram = params.lam * sum(A.conj().T @ np.outer(w, w.conj()) @ A for A in mats)
            rhs_match = params.lam * alpha * sum(
                dk * (A.conj().T @ w) for dk, A in zip(d.values, mats)
            )
            residual = gram @ v - rhs_match + (params.rho / 2) * (v - (w + u))
            rhs = rhs_match + (params.rho / 2) * (w + u)
            assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(rhs)

    def test_local_optimality_probe(self):
        rng = np.random.default_rng(8)
        steering, d = random_instance(rng)
        params = SolverParams(lam=0.7, rho=6.0)
        w, u = unit(rng, 5), 0.2 * random_complex(rng, 5)
        alpha = 1.1
        v = update_v(steering, w, u, alpha, d, params)

        def cost(x):
            r = inner_products(steering, w, x)
            gap = w - x + u
            return params.lam * float(np.sum(np.abs(r - alpha * d.values) ** 2)) + (
                params.rho / 2
            ) * float(np.real(np.vdot(gap, gap)))

        base = cost(v)
        for _ in range(100):
            assert base <= cost(v + 1e-4 * random_complex(rng, 5)) + 1e-12


class TestUpdateW:
    def test_zero_lam_zero_majorizer_projects_consensus(self):
        rng = np.random.default_rng(9)
        steering, d = random_instance(rng)
        params = SolverParams(lam=0.0, rho=4.0)
        v, u = random_complex(rng, 5), 0.3 * random_complex(rng, 5)
        m = MajorizerDiag(np.zeros(5), 0.0)
        w = update_w(steering, v, u, 0.9, d, m, params)
        np.testing.assert_allclose(w, (v - u) / np.linalg.norm(v - u), atol=1e-12)

    def test_first_order_optimality_dense(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            steering, d = random_instance(rng)
            params = SolverParams(lam=float(rng.uniform(0.05, 2.0)), rho=float(rng.uniform(2.5, 40)))
            anchor = unit(rng, 5)
            m = majorizer_diag(anchor)
            v, u = random_complex(rng, 5), random_complex(rng, 5)
            alpha = float(rng.uniform(-2, 2))
            w_hat = solve_weight_system(steering, v, u, alpha, d, m, params)
            mats = dense_outer_products(steering)
            gram = params.lam * sum(A @ np.outer(v, v.conj()) @ A.conj().T for A in mats)
            rhs_match = params.lam * alpha * sum(dk * (A @ v) for dk, A in zip(d.values, mats))
            residual = (
                gram @ w_hat
                + m.diag * w_hat
                - rhs_match
                + (params.rho / 2) * (w_hat - (v - u))
            )
            rhs = rhs_match + (params.rho / 2) * (v - u)
            assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(rhs)

    def test_projected_solution_quality_probe(self):
        # Projection after the exact solve is a heuristic, so optimality
        # against nearby feasible points is probed at a settled mid-run state
        # (early transients can be beaten by ~1e-3 relative; settled states
        # are not). The update is replayed exactly as the solver performs it:
        # v and the majorizer anchor from the settled state, the dual from
        # the state before it.
        rng = np.random.default_rng(11)
        steering, d = random_instance(rng, n=6, k=9)
        params = SolverParams(lam=0.3, rho=8.0, max_iters=25)
        states = []
        solve(steering, d, params, observer=states.append)
        state, prev = states[20], states[19]
        m = majorizer_diag(prev.w)
        w = update_w(steering, state.v, prev.u, state.alpha, d, m, params)

        def surrogate(x):
            r = inner_products(steering, x, state.v)
            gap = x - state.v + prev.u
            return (
                params.lam * float(np.sum(np.abs(r - state.alpha * d.values) ** 2))
                + float(m.diag @ (np.abs(x) ** 2))
                + (params.rho / 2) * float(np.real(np.vdot(gap, gap)))
            )

        base = surrogate(w)
        for _ in range(100):
            probe = w + 0.01 * random_complex(rng, 6)
            probe /= np.linalg.norm(probe)
            assert base <= surrogate(probe) + 1e-12

    def test_output_is_unit_norm(self):
        rng = np.random.default_rng(12)
        steering, d = random_instance(rng)
        params = SolverParams(lam=0.4, rho=7.0)
        m = majorizer_diag(unit(rng, 5))
        w = update_w(steering, random_complex(rng, 5), random_complex(rng, 5), 1.0, d, m, params)
        assert abs(np.linalg.norm(w) - 1.0) <= 1e-12

    def test_system_matrix_stays_positive_definite(self):
        # majorizer diagonal is bounded below by -1 on the sphere, so the
        # weight system keeps minimum eigenvalue >= rho/2 - 1 for rho > 2
        rng = np.random.default_rng(13)
        for _ in range(20):
            steering, _ = random_instance(rng)
            lam = float(rng.uniform(0.01, 1.0))
            rho = float(rng.uniform(2.1, 50.0))
            m = majorizer_diag(unit(rng, 5))
            matrix = data_fit_gram(steering, random_complex(rng, 5), lam)
            matrix[np.diag_indices(5)] += m.diag + rho / 2
            min_eig = float(np.linalg.eigvalsh(matrix).min())
            assert min_eig >= rho / 2 - 1 - 1e-9
            np.linalg.cholesky(matrix)  # factorization must succeed


class TestUpdateDual:
    def test_consensus_leaves_dual_unchanged(self):
        rng = np.random.default_rng(14)
        u, w = random_complex(rng, 4), random_complex(rng, 4)
        np.testing.assert_allclose(update_dual(u, w, w), u)

    def test_zero_dual_returns_gap(self):
        rng = np.random.default_rng(15)
        w, v = random_complex(rng, 4), random_complex(rng, 4)
        np.testing.assert_allclose(update_dual(np.zeros(4, complex), w, v), w - v)

    def test_linear_growth_under_constant_gap(self):
        rng = np.random.default_rng(16)
        w, v = random_complex(rng, 4), random_complex(rng, 4)
        u = np.zeros(4, complex)
        for k in range(1, 6):
            u = update_dual(u, w, v)
            np.testing.assert_allclose(u, k * (w - v), atol=1e-12)


class TestObjectiveAndLagrangian:
    def test_one_hot_zero_alpha(self):
        rng = np.random.default_rng(17)
        steering, d = random_instance(rng)
        params = SolverParams(lam=0.6, rho=3.0)
        one_hot = np.zeros(5, complex)
        one_hot[0] = 1.0
        w = one_hot
        assert objective_value(steering, w, 0.0, d, params) == pytest.approx(
            params.lam * 7, abs=1e-10
        )

    def test_perfect_match_leaves_entropy(self):
        rng = np.random.default_rng(18)
        steering, _ = random_instance(rng)
        w = project_unit_sphere(np.ones(5, complex))
        pattern = beampattern(steering, w)
        assert np.all(pattern > 0)
        d = DesiredPattern(pattern, pattern > 0)
        params = SolverParams(lam=2.0, rho=3.0)
        assert objective_value(steering, w, 1.0, d, params) == pytest.approx(
            entropy(w), abs=1e-10
        )

    def test_objective_matches_dense_reimplementation(self):
        rng = np.random.default_rng(19)
        steering, d = random_instance(rng)
        params = SolverParams(lam=0.9, rho=3.0)
        w = unit(rng, 5)
        alpha = 1.4
        mats = dense_outer_products(steering)
        total = params.lam * sum(
            (float(np.real(w.conj() @ A @ w)) - alpha * dk) ** 2
            for A, dk in zip(mats, d.values)
        ) + entropy(w)
        assert objective_value(steering, w, alpha, d, params) == pytest.approx(total, rel=1e-12)

    def test_lagrangian_reduces_to_objective_on_consensus(self):
        rng = np.random.default_rng(20)
        steering, d = random_instance(rng)
        params = SolverParams(lam=0.8, rho=5.0)
        w = unit(rng, 5)
        state = AdmmState(alpha=1.2, v=w.copy(), w=w, u=np.zeros(5, complex))
        want = objective_value(steering, w, 1.2, d, params)
        assert augmented_lagrangian(state, steering, d, params) == pytest.approx(want, rel=1e-12)

    def test_penalty_term_added(self):
        rng = np.random.default_rng(21)
        steering, d = random_instance(rng)
        params = SolverParams(lam=0.8, rho=5.0)
        w = unit(rng, 5)
        delta = random_complex(rng, 5)
        consensus = AdmmState(alpha=0.7, v=w.copy(), w=w, u=np.zeros(5, complex))
        shifted = AdmmState(alpha=0.7, v=w - delta, w=w, u=np.zeros(5, complex))
        gap_energy = float(np.real(np.vdot(delta, delta)))
        base_phi = augmented_lagrangian(consensus, steering, d, params)
        got = augmented_lagrangian(shifted, steering, d, params)
        # matching term changes too, so compare against a direct evaluation
        r = inner_products(steering, w, w - delta)
        phi = float(np.sum(np.abs(r - 0.7 * d.values) ** 2))
        want = params.lam * phi + entropy(w) + (params.rho / 2) * gap_energy
        assert got == pytest.approx(want, rel=1e-12)
        assert base_phi != got

    def test_term_by_term_oracle(self):
        rng = np.random.default_rng(22)
        steering, d = random_instance(rng)
        params = SolverParams(lam=1.3, rho=9.0)
        w = unit(rng, 5)
        state = AdmmState(alpha=-0.4, v=random_complex(rng, 5), w=w, u=random_complex(rng, 5))
        mats = dense_outer_products(steering)
        phi = sum(
            abs(w.conj() @ A @ state.v - state.alpha * dk) ** 2
            for A, dk in zip(mats, d.values)
        )
        gap = w - state.v + state.u
        want = params.lam * float(phi) + entropy(w) + (params.rho / 2) * float(
            np.real(np.vdot(gap, gap))
        )
        assert augmented_lagrangian(state, steering, d, params) == pytest.approx(want, rel=1e-12)


class TestSolverParams:
    def test_rejects_rho_at_or_below_two(self):
        with pytest.raises(ContractError):
            SolverParams(rho=2.0)
        with pytest.raises(ContractError):
            SolverParams(rho=-1.0)

    def test_rejects_bad_eta_and_iters(self):
        with pytest.raises(ContractError):
            SolverParams(eta=0.0)
        with pytest.raises(ContractError):
            SolverParams(max_iters=-1)

    def test_infinite_eta_allowed(self):
        assert SolverParams(eta=np.inf).eta == np.inf


class TestSolve:
    def test_infinite_eta_stops_after_one_iteration(self):
        rng = np.random.default_rng(25)
        steering, d = random_instance(rng)
        params = SolverParams(lam=0.2, rho=5.0, eta=np.inf, max_iters=50)
        _, _, trace = solve(steering, d, params)
        assert len(trace) == 2
        assert trace[-1].iter == 1
        assert converged(trace, params.eta)

    def test_zero_iteration_budget_returns_initial_state(self):
        rng = np.random.default_rng(26)
        steering, d = random_instance(rng)
        params = SolverParams(lam=0.2, rho=5.0, max_iters=0)
        w, alpha, trace = solve(steering, d, params)
        assert len(trace) == 1
        assert trace[0].iter == 0
        assert alpha == 1.0
        assert not converged(trace, params.eta)

    def test_trace_iteration_numbering_and_invariants(self):
        rng = np.random.default_rng(27)
        steering, d = random_instance(rng, n=6, k=9)
        params = SolverParams(lam=0.2, rho=5.0, max_iters=30)
        norms = []
        _, _, trace = solve(
            steering, d, params, observer=lambda s: norms.append(np.linalg.norm(s.w))
        )
        assert [rec.iter for rec in trace] == list(range(len(trace)))
        assert all(rec.primal_residual >= 0 and rec.w_change >= 0 for rec in trace)
        assert all(abs(nrm - 1.0) <= 1e-10 for nrm in norms)

    def test_seeded_runs_are_reproducible(self):
        rng = np.random.default_rng(28)
        steering, d = random_instance(rng, n=6, k=9)
        params = SolverParams(lam=0.2, rho=5.0, max_iters=40, seed=123)
        w1, a1, t1 = solve(steering, d, params)
        w2, a2, t2 = solve(steering, d, params)
        np.testing.assert_array_equal(w1, w2)
        assert a1 == a2
        assert t1 == t2

    def test_warm_start_from_given_state(self):
        rng = np.random.default_rng(29)
        steering, d = random_instance(rng)
        params = SolverParams(lam=0.2, rho=5.0, max_iters=3)
        init = AdmmState(
            alpha=1.0, v=unit(rng, 5), w=unit(rng, 5), u=np.zeros(5, complex), iter=10
        )
        _, _, trace = solve(steering, d, params, init=init)
        assert trace[0].iter == 10
        assert trace[-1].iter == 13

    def test_rejects_all_zero_template(self):
        rng = np.random.default_rng(30)
        steering, _ = random_instance(rng)
        d = DesiredPattern(np.zeros(7), np.zeros(7, bool))
        with pytest.raises(DegenerateInputError):
            solve(steering, d, SolverParams(rho=5.0))

    def test_divergence_carries_partial_trace(self, monkeypatch):
        rng = np.random.default_rng(32)
        steering, d = random_instance(rng)
        params = SolverParams(lam=0.2, rho=5.0, max_iters=10)

        calls = {"count": 0}
        real_v_block = admm_mod._v_block

        def poisoned(*args, **kwargs):
            calls["count"] += 1
            out = real_v_block(*args, **kwargs)
            if calls["count"] == 3:
                out = out.copy()
                out[0] = np.nan
            return out

        monkeypatch.setattr(admm_mod, "_v_block", poisoned)
        with pytest.raises(DivergenceError, match="iteration 3") as excinfo:
            solve(steering, d, params)
        # rows: initial state plus the two clean iterations
        assert [row.iter for row in excinfo.value.trace] == [0, 1, 2]


class TestSolverParamsOwnsItsRules:
    @pytest.mark.parametrize("field", ["max_iters", "seed"])
    @pytest.mark.parametrize("value", [2.5, True, -1])
    def test_integer_fields(self, field, value):
        with pytest.raises(ContractError, match=field):
            SolverParams(**{field: value})

    @pytest.mark.parametrize("field", ["lam", "rho"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ContractError, match=field):
            SolverParams(**{field: value})

    def test_nan_eta_rejected(self):
        with pytest.raises(ContractError, match="eta"):
            SolverParams(eta=np.nan)


def dense_data_fit_gram(steering, x, lam):
    """lam * sum_k |a_k^H x|^2 a_k a_k^H, accumulated one explicit outer product at a time."""
    total = np.zeros((steering.n_elements,) * 2, complex)
    for a in steering.vectors:
        total += abs(np.vdot(a, x)) ** 2 * np.outer(a, a.conj())
    return lam * total


class TestToeplitzGram:
    def assert_matches_dense(self, steering, x, lam):
        gram = data_fit_gram(steering, x, lam)
        dense = dense_data_fit_gram(steering, x, lam)
        assert np.linalg.norm(gram - dense) <= 1e-12 * np.linalg.norm(dense)

    def test_uniform_grid(self):
        rng = np.random.default_rng(40)
        steering = build_steering_set(ArrayGeometry(64), AngleGrid.uniform(-90, 90, 0.5))
        assert steering.n_angles == 361
        self.assert_matches_dense(steering, random_complex(rng, 64), 0.1)

    def test_non_uniform_grid_and_spacing(self):
        rng = np.random.default_rng(41)
        angles = np.sort(rng.uniform(-90, 90, 50))
        steering = build_steering_set(ArrayGeometry(12, spacing_ratio=0.83), AngleGrid(angles))
        self.assert_matches_dense(steering, random_complex(rng, 12), 0.7)


def test_trace_rows_match_the_public_evaluators():
    rng = np.random.default_rng(42)
    steering, d = random_instance(rng, n=6, k=9)
    params = SolverParams(lam=0.2, rho=5.0, max_iters=25, seed=3)
    init = admm_mod.initial_state(steering, params)
    states = [init]
    _, _, trace = solve(steering, d, params, init=init, observer=states.append)
    assert len(states) == len(trace)
    for state, row in zip(states, trace):
        pattern = beampattern(steering, state.w)
        assert row.objective == pytest.approx(
            objective_value(steering, state.w, state.alpha, d, params), rel=1e-12
        )
        assert row.lagrangian == pytest.approx(
            augmented_lagrangian(state, steering, d, params), rel=1e-12
        )
        assert row.matching_error_db == pytest.approx(
            matching_error_db(pattern, state.alpha, d), rel=1e-12, abs=1e-12
        )


@pytest.mark.parametrize("field", ["v", "u"])
def test_initial_state_of_wrong_size_rejected(field):
    rng = np.random.default_rng(43)
    steering, d = random_instance(rng)
    init = admm_mod.initial_state(steering, SolverParams(rho=5.0))
    parts = {"alpha": 1.0, "v": init.v, "w": init.w, "u": init.u, field: np.zeros(4, complex)}
    with pytest.raises(ContractError, match="array size"):
        solve(steering, d, SolverParams(rho=5.0), init=AdmmState(**parts))


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_zero_template_scale_carries_partial_trace():
    # with v = 0 every bilinear sample is zero, so the first sweep sets alpha = 0
    # and its trace row (the matching error) is undefined
    cfg = load_config(CONFIGS / "single_mainlobe.json")
    steering = build_steering_set(cfg.geometry, cfg.grid)
    start = admm_mod.initial_state(steering, cfg.params)
    init = AdmmState(alpha=1.0, v=np.zeros_like(start.v), w=start.w, u=start.u)
    with pytest.raises(DivergenceError, match="iteration 1: scaled template has no energy") as exc:
        solve(steering, cfg.template, cfg.params, init=init)
    assert [row.iter for row in exc.value.trace] == [0]


class TestFactorizationFailure:
    def system(self):
        rng = np.random.default_rng(50)
        steering, d = random_instance(rng)
        params = SolverParams(lam=0.2, rho=5.0)
        return steering, d, params, unit(rng, 5), 0.1 * random_complex(rng, 5)

    def test_indefinite_system(self):
        steering, d, params, v, u = self.system()
        m = MajorizerDiag(np.full(5, -1e6), 0.0)
        with pytest.raises(NumericalError, match="not positive definite"):
            solve_weight_system(steering, v, u, 1.0, d, m, params)

    def test_nan_entry(self):
        steering, d, params, v, u = self.system()
        diag = np.zeros(5)
        diag[2] = np.nan
        with pytest.raises(NumericalError):
            solve_weight_system(steering, v, u, 1.0, d, MajorizerDiag(diag, 0.0), params)

    def test_solve_reports_divergence_with_partial_trace(self, monkeypatch):
        steering, d, _, _, _ = self.system()
        calls = {"count": 0}
        real_majorizer_diag = admm_mod._majorizer_diag

        def indefinite(p):
            calls["count"] += 1
            diag = real_majorizer_diag(p)
            return diag if calls["count"] < 3 else np.full(5, -1e6)

        monkeypatch.setattr(admm_mod, "_majorizer_diag", indefinite)
        with pytest.raises(DivergenceError, match="iteration 3") as excinfo:
            solve(steering, d, SolverParams(lam=0.2, rho=5.0, max_iters=10))
        assert isinstance(excinfo.value.__cause__, NumericalError)
        assert [row.iter for row in excinfo.value.trace] == [0, 1, 2]


class TestLevinsonVBlock:
    """The v block solves its Toeplitz system by Levinson recursion, not by a dense factorization."""

    @pytest.mark.parametrize("n,step", [(30, 1.0), (256, 0.25)])
    def test_matches_a_dense_solve(self, n, step):
        # K = 181 and K = 721 angles
        rng = np.random.default_rng(54)
        grid = AngleGrid.uniform(-90, 90, step)
        steering = build_steering_set(ArrayGeometry(n), grid)
        d = build_template(grid, [MainlobeSpec(22, 28)])
        params = SolverParams(lam=0.1, rho=30.0)
        w, u, alpha = unit(rng, n), 0.1 * random_complex(rng, n), 0.8
        v = update_v(steering, w, u, alpha, d, params)
        matrix = data_fit_gram(steering, w, params.lam) + (params.rho / 2) * np.eye(n)
        c = steering.vectors.conj() @ w
        rhs = params.lam * alpha * ((d.values * c) @ steering.vectors) + (params.rho / 2) * (w + u)
        dense = np.linalg.solve(matrix, rhs)
        assert np.linalg.norm(v - dense) <= 1e-12 * np.linalg.norm(dense)

    def test_kernel_is_the_public_toeplitz_solve_bit_for_bit(self):
        # the kernel is private to scipy; a change to it must fail here, not in a solve
        rng = np.random.default_rng(55)
        steering, _ = random_instance(rng, n=9, k=40)
        power = np.abs(steering.vectors.conj() @ unit(rng, 9)) ** 2
        diagonals = admm_mod._toeplitz_diagonals(steering, power, 0.3)
        diagonals[8] += 2.5
        col = diagonals[8:]
        assert np.linalg.eigvalsh(scipy.linalg.toeplitz(col)).min() > 0
        b = random_complex(rng, 9)
        solution, _ = admm_mod._levinson(diagonals, b)
        assert np.array_equal(solution, scipy.linalg.solve_toeplitz(col, b))

    def test_solve_failure_ends_in_divergence_with_partial_trace(self, monkeypatch):
        rng = np.random.default_rng(56)
        steering, d = random_instance(rng)
        calls = {"count": 0}
        real_levinson = admm_mod._levinson

        def singular(*args):
            calls["count"] += 1
            if calls["count"] == 3:
                raise np.linalg.LinAlgError("Singular principal minor")
            return real_levinson(*args)

        monkeypatch.setattr(admm_mod, "_levinson", singular)
        with pytest.raises(DivergenceError, match="iteration 3") as excinfo:
            solve(steering, d, SolverParams(lam=0.2, rho=5.0, max_iters=10))
        assert isinstance(excinfo.value.__cause__, NumericalError)
        assert [row.iter for row in excinfo.value.trace] == [0, 1, 2]


def assert_solve_is_the_public_blocks(steering, d, params, init=None):
    """solve equals a loop written from the public blocks, exactly, in w, alpha and every row."""
    w_solve, alpha_solve, trace = solve(steering, d, params, init=init)
    assert len(trace) == params.max_iters + 1

    state = init if init is not None else admm_mod.initial_state(steering, params)
    rows = []
    for _ in range(len(trace) - 1):
        alpha = update_alpha(inner_products(steering, state.w, state.v), d)
        v = update_v(steering, state.w, state.u, alpha, d, params)
        m = majorizer_diag(state.w)
        w = update_w(steering, v, state.u, alpha, d, m, params)
        u = update_dual(state.u, w, v)
        w_change = float(np.linalg.norm(w - state.w))
        state = AdmmState(alpha=alpha, v=v, w=w, u=u, iter=state.iter + 1)
        rows.append((
            objective_value(steering, w, alpha, d, params),
            augmented_lagrangian(state, steering, d, params),
            float(np.linalg.norm(w - v)),
            alpha,
            matching_error_db(beampattern(steering, w), alpha, d),
            w_change,
        ))

    assert np.array_equal(state.w, w_solve)
    assert state.alpha == alpha_solve
    assert rows == [
        (r.objective, r.lagrangian, r.primal_residual, r.alpha, r.matching_error_db, r.w_change)
        for r in trace[1:]
    ]
    return trace


def test_solve_is_the_public_blocks_in_order():
    rng = np.random.default_rng(51)
    steering, d = random_instance(rng, n=6, k=9)
    params = SolverParams(lam=0.2, rho=5.0, max_iters=30, seed=2)
    assert_solve_is_the_public_blocks(steering, d, params)


def test_solve_is_the_public_blocks_on_the_negative_alpha_branch():
    cfg = load_config(CONFIGS / "two_mainlobes.json").with_overrides(seed=9, max_iters=200)
    steering = build_steering_set(cfg.geometry, cfg.grid)
    trace = assert_solve_is_the_public_blocks(steering, cfg.template, cfg.params)
    assert any(row.alpha < 0 for row in trace)


def test_solve_is_the_public_blocks_from_exact_zero_weights():
    # the first sweep's entropy and majorizer diagonal clamp at POWER_FLOOR
    rng = np.random.default_rng(52)
    steering, d = random_instance(rng, n=6, k=9)
    params = SolverParams(lam=0.2, rho=5.0, max_iters=30, seed=4)
    start = admm_mod.initial_state(steering, params)
    w = start.w.copy()
    w[[0, 3]] = 0.0
    init = AdmmState(alpha=1.0, v=start.v, w=project_unit_sphere(w), u=start.u)
    assert np.count_nonzero(np.abs(init.w) ** 2 < POWER_FLOOR) == 2
    assert_solve_is_the_public_blocks(steering, d, params, init)


def test_each_sweep_takes_two_steering_products(monkeypatch):
    # row 0 takes A^H w_0 and A^H v_0; each sweep then takes A^H v_{k+1} for
    # the w block and A^H w_{k+1} for its row, and shares both with the next sweep
    rng = np.random.default_rng(53)
    steering, d = random_instance(rng, n=6, k=9)
    params = SolverParams(lam=0.2, rho=5.0, max_iters=12, seed=5)
    calls = {"count": 0}
    real_steer_products = admm_mod._steer_products

    def counted(steering, x):
        calls["count"] += 1
        return real_steer_products(steering, x)

    monkeypatch.setattr(admm_mod, "_steer_products", counted)
    _, _, trace = solve(steering, d, params)
    assert len(trace) == 13
    assert calls["count"] == 2 + 2 * 12


def test_each_sweep_gathers_one_toeplitz_matrix(monkeypatch):
    # the w block gathers and factors its matrix; the v block solves from the diagonals
    rng = np.random.default_rng(53)
    steering, d = random_instance(rng, n=6, k=9)
    params = SolverParams(lam=0.2, rho=5.0, max_iters=12, seed=5)
    calls = {"count": 0}
    real_toeplitz_gram = admm_mod._toeplitz_gram

    def counted(*args):
        calls["count"] += 1
        return real_toeplitz_gram(*args)

    monkeypatch.setattr(admm_mod, "_toeplitz_gram", counted)
    _, _, trace = solve(steering, d, params)
    assert len(trace) == 13
    assert calls["count"] == 12


MISSIZED_CALLS = [
    "solve_weight_system-template",
    "solve_weight_system-majorizer",
    "update_w-template",
    "update_w-majorizer",
    "majorizer_value-short_diag",
    "majorizer_value-short_w",
    "update_v-template",
    "objective_value-template",
    "augmented_lagrangian-template",
    "augmented_lagrangian-u",
    "data_fit_gram-x",
]


@pytest.mark.parametrize("call", MISSIZED_CALLS)
def test_missized_input_raises_contract_error(call):
    # N = 5 elements on a 7-angle grid; each call gets one input sized for
    # another array (length 4) or another grid (6 angles)
    rng = np.random.default_rng(70)
    steering, d = random_instance(rng)
    _, other_d = random_instance(rng, k=6)
    params = SolverParams(lam=0.2, rho=5.0)
    v, u = unit(rng, 5), 0.1 * random_complex(rng, 5)
    w = unit(rng, 5)
    m = majorizer_diag(w)
    short_m = MajorizerDiag(np.zeros(4), 0.0)
    calls = {
        "solve_weight_system-template":
            lambda: solve_weight_system(steering, v, u, 1.0, other_d, m, params),
        "solve_weight_system-majorizer":
            lambda: solve_weight_system(steering, v, u, 1.0, d, short_m, params),
        "update_w-template": lambda: update_w(steering, v, u, 1.0, other_d, m, params),
        "update_w-majorizer": lambda: update_w(steering, v, u, 1.0, d, short_m, params),
        "majorizer_value-short_diag": lambda: majorizer_value(w, short_m),
        "majorizer_value-short_w":
            lambda: majorizer_value(unit(rng, 4), m),
        "update_v-template": lambda: update_v(steering, w, u, 1.0, other_d, params),
        "objective_value-template": lambda: objective_value(steering, w, 1.0, other_d, params),
        "augmented_lagrangian-template":
            lambda: augmented_lagrangian(AdmmState(1.0, v, w, u), steering, other_d, params),
        "augmented_lagrangian-u":
            lambda: augmented_lagrangian(AdmmState(1.0, v, w, u[:4]), steering, d, params),
        "data_fit_gram-x": lambda: data_fit_gram(steering, v[:4], 0.2),
    }
    with pytest.raises(ContractError):
        calls[call]()


NON_FINITE_CALLS = [
    "inner_products-w",
    "update_alpha-r",
    "update_dual-u",
    "data_fit_gram-x",
    "beampattern-w",
    "matching_error_db-pattern",
    "peak_sidelobe_db-pattern",
    "entropy_gradient-nan",
    "entropy_gradient-inf",
    "cardinality-w",
    "matching_error_db-alpha",
    "objective_value-alpha",
    "augmented_lagrangian-alpha",
    "majorizer_value-constant",
]


@pytest.mark.parametrize("call", NON_FINITE_CALLS)
def test_non_finite_input_raises_contract_error(call):
    # N = 5 elements on a 7-angle grid; each call gets one input with a NaN
    # (or inf) entry, or one NaN (or inf) scalar, which would otherwise come
    # back as a NaN result
    rng = np.random.default_rng(71)
    steering, d = random_instance(rng)
    params = SolverParams(lam=0.2, rho=5.0)
    v = unit(rng, 5)
    w = unit(rng, 5)
    u = np.zeros(5, complex)
    pattern = beampattern(steering, w)
    r = inner_products(steering, w, v)

    def poisoned(x, value=np.nan):
        x = np.array(x)
        x[2] = value
        return x

    calls = {
        "inner_products-w": lambda: inner_products(steering, poisoned(w), v),
        "update_alpha-r": lambda: update_alpha(poisoned(r), d),
        "update_dual-u": lambda: update_dual(poisoned(v), w, v),
        "data_fit_gram-x": lambda: data_fit_gram(steering, poisoned(v), 0.2),
        "beampattern-w": lambda: beampattern(steering, poisoned(w)),
        "matching_error_db-pattern": lambda: matching_error_db(poisoned(pattern), 1.0, d),
        "peak_sidelobe_db-pattern":
            lambda: peak_sidelobe_db(poisoned(pattern), d.mainlobe_mask),
        "entropy_gradient-nan": lambda: entropy_gradient(poisoned(np.abs(w) ** 2)),
        "entropy_gradient-inf": lambda: entropy_gradient(poisoned(np.abs(w) ** 2, np.inf)),
        "cardinality-w": lambda: cardinality(poisoned(w)),
        "matching_error_db-alpha": lambda: matching_error_db(pattern, np.inf, d),
        "objective_value-alpha": lambda: objective_value(steering, w, np.nan, d, params),
        "augmented_lagrangian-alpha":
            lambda: augmented_lagrangian(AdmmState(np.nan, v, w, u), steering, d, params),
        "majorizer_value-constant":
            lambda: majorizer_value(w, MajorizerDiag(majorizer_diag(w).diag, np.nan)),
    }
    with pytest.raises(ContractError):
        calls[call]()


MISSHAPEN_WEIGHT_CALLS = [
    "beampattern",
    "cardinality",
    "entropy",
    "majorizer_diag",
    "majorizer_value",
    "objective_value",
]


@pytest.mark.parametrize("weights", [[], [[1.0, 0.0]]], ids=["empty", "2-D"])
@pytest.mark.parametrize("call", MISSHAPEN_WEIGHT_CALLS)
def test_empty_or_2d_weights_raise_contract_error(call, weights):
    # N = 2 elements, so the 2-D weights hold as many entries as the array has
    # elements, and unit total power, in the wrong shape
    rng = np.random.default_rng(72)
    steering, d = random_instance(rng, n=2)
    params = SolverParams(lam=0.2, rho=5.0)
    w = np.array(weights, dtype=complex)
    m = majorizer_diag(unit(rng, 2))
    calls = {
        "beampattern": lambda: beampattern(steering, w),
        "cardinality": lambda: cardinality(w),
        "entropy": lambda: entropy(w),
        "majorizer_diag": lambda: majorizer_diag(w),
        "majorizer_value": lambda: majorizer_value(w, m),
        "objective_value": lambda: objective_value(steering, w, 1.0, d, params),
    }
    with pytest.raises(ContractError):
        calls[call]()
