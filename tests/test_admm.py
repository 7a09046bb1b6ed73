import math
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace
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
    NumericalError,
    POWER_FLOOR,
    SolverParams,
    SteeringSet,
    Trace,
    beampattern,
    build_steering_set,
    build_template,
    converged,
    data_fit_gram,
    entropy,
    load_config,
    majorizer_diag,
    matching_error_db,
    project_unit_sphere,
    solve,
    solve_weight_system,
    update_alpha,
    update_v,
)
from test_boundary import NON_REAL, check_bad_call


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


def dense_samples(steering, w, v):
    """The bilinear pattern samples r_k = w^H a_k a_k^H v, from dense outer products."""
    return np.array([w.conj() @ A @ v for A in dense_outer_products(steering)])


def dense_objective(steering, d, params, w, alpha):
    """lam * sum_k (P_k - alpha d_k)^2 + f(w), from the K x N steering matrix."""
    pattern = np.abs(steering.vectors.conj() @ w) ** 2
    residual = pattern - alpha * d.values
    return params.lam * float(residual @ residual) + entropy(w)


def dense_lagrangian(steering, d, params, state):
    """lam * sum_k |r_k - alpha d_k|^2 + f(w) + (rho/2) ||w - v + u||^2, from the K x N
    steering matrix."""
    a = steering.vectors.conj()
    r = np.conj(a @ state.w) * (a @ state.v)
    gap = state.w - state.v + state.u
    phi = float(np.sum(np.abs(r - state.alpha * d.values) ** 2))
    return params.lam * phi + entropy(state.w) + (params.rho / 2) * float(np.vdot(gap, gap).real)


def first_row(steering, d, params, state):
    """Row 0 of the trace of a zero-budget solve from the given state: the trace evaluates
    the objective and the Lagrangian at every state, row 0 at the start state."""
    _, _, trace = solve(steering, d, replace(params, max_iters=0), init=state)
    return trace.objective[0], trace.lagrangian[0]


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


class TestUpdateAlpha:
    """The closed-form template scale against the per-angle least-squares fit to the dense
    bilinear samples r_k = w^H a_k a_k^H v."""

    def test_perfect_match_gives_one(self):
        rng = np.random.default_rng(0)
        steering, _ = random_instance(rng)
        w = unit(rng, 5)
        pattern = beampattern(steering, w)
        d = DesiredPattern(pattern, pattern > 0)
        assert update_alpha(steering, w, w, d) == pytest.approx(1.0, rel=1e-12)

    def test_pure_scaling(self):
        rng = np.random.default_rng(1)
        steering, _ = random_instance(rng)
        w = unit(rng, 5)
        pattern = beampattern(steering, w)
        d = DesiredPattern(pattern, pattern > 0)
        assert update_alpha(steering, w, 2.0 * w, d) == pytest.approx(2.0, rel=1e-12)

    def test_matched_weights(self):
        # x = a_2 / sqrt(N) gives r_2 = 5, and a template on angle 2 alone reads r_2
        rng = np.random.default_rng(2)
        steering, _ = random_instance(rng)
        x = steering.vectors[2] / np.sqrt(5)
        values = np.zeros(7)
        values[2] = 1.0
        d = DesiredPattern(values, values > 0)
        assert update_alpha(steering, x, x, d) == pytest.approx(5.0, abs=1e-10)

    def test_zero_auxiliary(self):
        rng = np.random.default_rng(3)
        steering, d = random_instance(rng)
        assert update_alpha(steering, unit(rng, 5), np.zeros(5, complex), d) == 0.0

    def test_matches_grid_search(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            steering, d = random_instance(rng)
            w, v = random_complex(rng, 5), random_complex(rng, 5)
            got = update_alpha(steering, w, v, d)
            want = grid_search_alpha(dense_samples(steering, w, v), d.values)
            assert got == pytest.approx(want, abs=1e-6)

    def test_never_improved_by_perturbation(self):
        rng = np.random.default_rng(5)
        steering, d = random_instance(rng)
        w, v = random_complex(rng, 5), random_complex(rng, 5)
        r = dense_samples(steering, w, v)
        alpha = update_alpha(steering, w, v, d)
        cost = lambda a: float(np.sum(np.abs(r - a * d.values) ** 2))
        assert cost(alpha) <= cost(alpha + 1e-3) + 1e-12
        assert cost(alpha) <= cost(alpha - 1e-3) + 1e-12

    def test_rejects_zero_template(self):
        rng = np.random.default_rng(6)
        steering, _ = random_instance(rng)
        d = DesiredPattern(np.zeros(7), np.zeros(7, bool))
        with pytest.raises(DegenerateInputError):
            update_alpha(steering, unit(rng, 5), unit(rng, 5), d)

    def test_rejects_wrong_length(self):
        rng = np.random.default_rng(7)
        steering, d = random_instance(rng)
        with pytest.raises(ContractError):
            update_alpha(steering, np.ones(4, complex), np.ones(5, complex), d)


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
            r = dense_samples(steering, w, x)
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
        w = project_unit_sphere(solve_weight_system(steering, v, u, 0.9, d, np.zeros(5), params))
        np.testing.assert_allclose(w, (v - u) / np.linalg.norm(v - u), atol=1e-12)

    def test_first_order_optimality_dense(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            steering, d = random_instance(rng)
            params = SolverParams(lam=float(rng.uniform(0.05, 2.0)), rho=float(rng.uniform(2.5, 40)))
            anchor = unit(rng, 5)
            diag = majorizer_diag(anchor)
            v, u = random_complex(rng, 5), random_complex(rng, 5)
            alpha = float(rng.uniform(-2, 2))
            w_hat = solve_weight_system(steering, v, u, alpha, d, diag, params)
            mats = dense_outer_products(steering)
            gram = params.lam * sum(A @ np.outer(v, v.conj()) @ A.conj().T for A in mats)
            rhs_match = params.lam * alpha * sum(dk * (A @ v) for dk, A in zip(d.values, mats))
            residual = (
                gram @ w_hat
                + diag * w_hat
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
        diag = majorizer_diag(prev.w)
        w = project_unit_sphere(
            solve_weight_system(steering, state.v, prev.u, state.alpha, d, diag, params)
        )

        def surrogate(x):
            r = dense_samples(steering, x, state.v)
            gap = x - state.v + prev.u
            return (
                params.lam * float(np.sum(np.abs(r - state.alpha * d.values) ** 2))
                + float(diag @ (np.abs(x) ** 2))
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
        diag = majorizer_diag(unit(rng, 5))
        v, u = random_complex(rng, 5), random_complex(rng, 5)
        w = project_unit_sphere(solve_weight_system(steering, v, u, 1.0, d, diag, params))
        assert abs(np.linalg.norm(w) - 1.0) <= 1e-12

    def test_system_matrix_stays_positive_definite(self):
        # majorizer diagonal is bounded below by -1 on the sphere, so the
        # weight system keeps minimum eigenvalue >= rho/2 - 1 for rho > 2
        rng = np.random.default_rng(13)
        for _ in range(20):
            steering, _ = random_instance(rng)
            lam = float(rng.uniform(0.01, 1.0))
            rho = float(rng.uniform(2.1, 50.0))
            diag = majorizer_diag(unit(rng, 5))
            matrix = lam * data_fit_gram(steering, random_complex(rng, 5))
            matrix[np.diag_indices(5)] += diag + rho / 2
            min_eig = float(np.linalg.eigvalsh(matrix).min())
            assert min_eig >= rho / 2 - 1 - 1e-9
            np.linalg.cholesky(matrix)  # factorization must succeed


class TestObjectiveAndLagrangian:
    """Row 0 of the trace, the objective and Lagrangian at the start state, against dense
    and per-angle evaluations."""

    def test_perfect_match_leaves_entropy(self):
        rng = np.random.default_rng(18)
        steering, _ = random_instance(rng)
        w = project_unit_sphere(np.ones(5, complex))
        pattern = beampattern(steering, w)
        assert np.all(pattern > 0)
        d = DesiredPattern(pattern, pattern > 0)
        params = SolverParams(lam=2.0, rho=3.0)
        state = AdmmState(alpha=1.0, v=w.copy(), w=w, u=np.zeros(5, complex))
        objective, _ = first_row(steering, d, params, state)
        assert objective == pytest.approx(entropy(w), abs=1e-10)

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
        state = AdmmState(alpha=alpha, v=random_complex(rng, 5), w=w, u=random_complex(rng, 5))
        objective, _ = first_row(steering, d, params, state)
        assert objective == pytest.approx(total, rel=1e-12)

    def test_lagrangian_reduces_to_objective_on_consensus(self):
        rng = np.random.default_rng(20)
        steering, d = random_instance(rng)
        params = SolverParams(lam=0.8, rho=5.0)
        w = unit(rng, 5)
        state = AdmmState(alpha=1.2, v=w.copy(), w=w, u=np.zeros(5, complex))
        want = dense_objective(steering, d, params, w, 1.2)
        objective, lagrangian = first_row(steering, d, params, state)
        assert objective == pytest.approx(want, rel=1e-12)
        assert lagrangian == pytest.approx(want, rel=1e-12)

    def test_penalty_term_added(self):
        rng = np.random.default_rng(21)
        steering, d = random_instance(rng)
        params = SolverParams(lam=0.8, rho=5.0)
        w = unit(rng, 5)
        delta = random_complex(rng, 5)
        consensus = AdmmState(alpha=0.7, v=w.copy(), w=w, u=np.zeros(5, complex))
        shifted = AdmmState(alpha=0.7, v=w - delta, w=w, u=np.zeros(5, complex))
        gap_energy = float(np.real(np.vdot(delta, delta)))
        _, base_phi = first_row(steering, d, params, consensus)
        _, got = first_row(steering, d, params, shifted)
        # matching term changes too, so compare against a direct evaluation
        r = dense_samples(steering, w, w - delta)
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
        _, lagrangian = first_row(steering, d, params, state)
        assert lagrangian == pytest.approx(want, rel=1e-12)


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
        assert trace.iter.size == 2
        assert trace.iter[-1] == 1
        assert converged(trace, params.eta)

    def test_zero_iteration_budget_returns_initial_state(self):
        rng = np.random.default_rng(26)
        steering, d = random_instance(rng)
        params = SolverParams(lam=0.2, rho=5.0, max_iters=0)
        w, alpha, trace = solve(steering, d, params)
        assert trace.iter.size == 1
        assert trace.iter[0] == 0
        assert alpha == 1.0
        assert not converged(trace, params.eta)

    @pytest.mark.parametrize(
        "eta", ["x", None, 0.0, -1.0, np.nan, 1 + 2j, 10**400],
        ids=["str", "none", "zero", "negative", "nan", "complex", "huge_int"],
    )
    def test_converged_takes_the_solver_tolerance_rule(self, eta):
        # eta passes the rule of SolverParams.eta, a real number > 0 and possibly infinite;
        # anything else would escape as a bare error or be compared as if it were a tolerance
        rng = np.random.default_rng(26)
        steering, d = random_instance(rng)
        _, _, trace = solve(steering, d, SolverParams(lam=0.2, rho=5.0, max_iters=2))
        assert converged(trace, np.inf)
        with pytest.raises(ContractError, match="eta"):
            converged(trace, eta)

    def test_trace_iteration_numbering_and_invariants(self):
        rng = np.random.default_rng(27)
        steering, d = random_instance(rng, n=6, k=9)
        params = SolverParams(lam=0.2, rho=5.0, max_iters=30)
        norms = []
        _, _, trace = solve(
            steering, d, params, observer=lambda s: norms.append(np.linalg.norm(s.w))
        )
        assert trace.iter.tolist() == list(range(trace.iter.size))
        assert (trace.primal_residual >= 0).all() and (trace.w_change >= 0).all()
        assert all(abs(nrm - 1.0) <= 1e-10 for nrm in norms)

    def test_seeded_runs_are_reproducible(self):
        rng = np.random.default_rng(28)
        steering, d = random_instance(rng, n=6, k=9)
        params = SolverParams(lam=0.2, rho=5.0, max_iters=40, seed=123)
        w1, a1, t1 = solve(steering, d, params)
        w2, a2, t2 = solve(steering, d, params)
        np.testing.assert_array_equal(w1, w2)
        assert a1 == a2
        assert all(np.array_equal(getattr(t1, f.name), getattr(t2, f.name)) for f in fields(t1))

    def test_warm_start_from_given_state(self):
        # row 0 of the trace is the given state, numbered 0 like any start
        rng = np.random.default_rng(29)
        steering, d = random_instance(rng)
        params = SolverParams(lam=0.2, rho=5.0, max_iters=3)
        init = AdmmState(alpha=2.5, v=unit(rng, 5), w=unit(rng, 5), u=np.zeros(5, complex))
        _, _, trace = solve(steering, d, params, init=init)
        assert trace.iter.tolist() == [0, 1, 2, 3]
        assert trace.alpha[0] == init.alpha

    def test_trace_is_one_read_only_column_per_csv_field(self):
        rng = np.random.default_rng(29)
        steering, d = random_instance(rng)
        params = SolverParams(lam=0.2, rho=5.0, max_iters=3)
        init = AdmmState(alpha=1.0, v=unit(rng, 5), w=unit(rng, 5), u=np.zeros(5, complex))
        _, _, trace = solve(steering, d, params, init=init)
        names = [f.name for f in fields(Trace)]
        assert names == [
            "iter", "objective", "lagrangian", "primal_residual",
            "alpha", "matching_error_db", "w_change",
        ]
        for name in names:
            column = getattr(trace, name)
            assert column.shape == (4,)
            assert not column.flags.writeable
        assert np.issubdtype(trace.iter.dtype, np.integer)
        assert trace.iter.tolist() == [0, 1, 2, 3]
        # no row view: a caller that still reads rows fails instead of reading columns
        with pytest.raises(TypeError):
            len(trace)
        with pytest.raises(TypeError):
            trace[0]

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
        assert excinfo.value.trace.iter.tolist() == [0, 1, 2]


# The bad-input tests below keep their ids; each makes the call that tests/test_boundary.py's
# registry generates for the same bad input, and checks the error's type and message.
TRACE_FIELDS = [f.name for f in fields(Trace)]


def trace_columns(rows=4):
    return dict(
        iter=np.arange(rows), objective=np.ones(rows), lagrangian=np.ones(rows),
        primal_residual=np.zeros(rows), alpha=np.ones(rows), matching_error_db=np.zeros(rows),
        w_change=np.zeros(rows),
    )


class TestTraceOwnsItsColumnRule:
    """Every Trace, the solver's or a caller's, holds seven real columns of one length >= 1
    and a finite alpha, so no writer or reader of a trace meets a ragged or empty one."""

    @pytest.mark.parametrize("name", TRACE_FIELDS)
    @pytest.mark.parametrize("case", ["none", "list", "2-D", "complex", "bool", "str"])
    def test_each_column_is_a_1d_real_array(self, name, case):
        check_bad_call(f"Trace-{name}-{case}", ContractError, f"column {name} ")

    @pytest.mark.parametrize("name", TRACE_FIELDS)
    def test_columns_share_one_length(self, name):
        # a three-row trace with a one-entry column would write a two-line trace.csv
        check_bad_call(f"Trace-{name}-short", ContractError, "one length")

    def test_has_a_row(self):
        with pytest.raises(ContractError, match="one length"):
            Trace(**trace_columns(0))

    @pytest.mark.parametrize("case", ["nan", "inf", "-inf"])
    def test_alpha_is_finite(self, case):
        check_bad_call(f"Trace-alpha-{case}", ContractError, "alpha")

    def test_objective_and_lagrangian_may_overflow(self):
        # both read inf on some rows at the largest accepted lam
        inf = np.full(4, np.inf)
        trace = Trace(**trace_columns() | {"objective": inf, "lagrangian": inf})
        assert np.isinf(trace.objective).all() and np.isinf(trace.lagrangian).all()


class TestSolverParamsOwnsItsRules:
    @pytest.mark.parametrize("field", ["max_iters", "seed"])
    @pytest.mark.parametrize("case", ["float", "bool", "negative"], ids=["2.5", "True", "-1"])
    def test_integer_fields(self, field, case):
        check_bad_call(f"SolverParams-{field}-{case}", ContractError, field)

    @pytest.mark.parametrize("field", ["lam", "rho"])
    @pytest.mark.parametrize(
        "case",
        ["inf", "nan", "str", "none", "complex", "bool", "numeric_str", "list", "huge_int"],
        ids=["inf", "nan", "x", "None", "(1+2j)", "True", "0.5", "list", "huge_int"],
    )
    def test_non_finite_rejected(self, field, case):
        check_bad_call(f"SolverParams-{field}-{case}", ContractError, field)

    def test_nan_eta_rejected(self):
        for case in ("nan", *NON_REAL):
            check_bad_call(f"SolverParams-eta-{case}", ContractError, "eta")


def dense_data_fit_gram(steering, x):
    """sum_k |a_k^H x|^2 a_k a_k^H, accumulated one explicit outer product at a time."""
    total = np.zeros((steering.n_elements,) * 2, complex)
    for a in steering.vectors:
        total += abs(np.vdot(a, x)) ** 2 * np.outer(a, a.conj())
    return total


class TestToeplitzGram:
    def assert_matches_dense(self, steering, x):
        gram = data_fit_gram(steering, x)
        dense = dense_data_fit_gram(steering, x)
        assert np.linalg.norm(gram - dense) <= 1e-12 * np.linalg.norm(dense)

    def test_uniform_grid(self):
        rng = np.random.default_rng(40)
        steering = build_steering_set(ArrayGeometry(64), AngleGrid.uniform(-90, 90, 0.5))
        assert steering.n_angles == 361
        self.assert_matches_dense(steering, random_complex(rng, 64))

    def test_non_uniform_grid_and_spacing(self):
        rng = np.random.default_rng(41)
        angles = np.sort(rng.uniform(-90, 90, 50))
        steering = build_steering_set(ArrayGeometry(12, spacing_ratio=0.83), AngleGrid(angles))
        self.assert_matches_dense(steering, random_complex(rng, 12))

    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.7, 3.0])
    def test_lam_times_it_is_the_w_blocks_matrix(self, lam):
        # lam scales each entry, so lam G equals the w block's Gram, which scales the
        # moments' diagonals before it copies them, bit for bit
        rng = np.random.default_rng(43)
        steering, _ = random_instance(rng, n=7, k=30)
        x = random_complex(rng, 7)
        gram = admm_mod._moments(steering.moments, np.eye(7), x).gram
        expected = admm_mod._toeplitz_gram(lam * gram)
        assert np.array_equal(lam * data_fit_gram(steering, x), expected)


def test_trace_rows_match_the_public_evaluators():
    rng = np.random.default_rng(42)
    steering, d = random_instance(rng, n=6, k=9)
    params = SolverParams(lam=0.2, rho=5.0, max_iters=25, seed=3)
    init = admm_mod.initial_state(steering, params)
    states = [init]
    _, _, trace = solve(steering, d, params, init=init, observer=states.append)
    assert len(states) == trace.iter.size
    for k, state in enumerate(states):
        pattern = beampattern(steering, state.w)
        assert trace.objective[k] == pytest.approx(
            dense_objective(steering, d, params, state.w, state.alpha), rel=1e-12
        )
        assert trace.lagrangian[k] == pytest.approx(
            dense_lagrangian(steering, d, params, state), rel=1e-12
        )
        assert trace.matching_error_db[k] == pytest.approx(
            matching_error_db(pattern, state.alpha, d), rel=1e-12, abs=1e-12
        )


MOMENT_SIZES = [2, 3, 4, 5, 6, 7, 8, 64]


def moment_instance(n):
    """A random non-uniform grid of 3n + 2 angles, a random spacing, a template with zeros,
    and unit w and random v (criterion 5's draw, at more sizes)."""
    rng = np.random.default_rng(1000 + n)
    k = 3 * n + 2
    angles = np.sort(rng.uniform(-90, 90, k))
    geometry = ArrayGeometry(n, spacing_ratio=float(rng.uniform(0.2, 1.0)))
    steering = build_steering_set(geometry, AngleGrid(angles))
    values = rng.uniform(0.5, 3.0, k)
    values[rng.random(k) < 0.3] = 0.0
    values[0] = 1.0
    return steering, DesiredPattern(values, values > 0), unit(rng, n), random_complex(rng, n)


def moments_of(steering, d, *xs):
    q, td = steering.moments, admm_mod._template_toeplitz(steering, d)
    return [admm_mod._moments(q, td, x) for x in xs]


class TestMomentKernels:
    """The sweep's moment kernels against their per-angle definitions, summed angle by angle."""

    @pytest.mark.parametrize("n", MOMENT_SIZES)
    def test_gram_diagonals(self, n):
        steering, d, w, _ = moment_instance(n)
        (mw,) = moments_of(steering, d, w)
        # lags -(n-1) ... n-1 of a_k[l] = z_k^l, with z_k^-l = conj(z_k^l)
        dense = sum(
            abs(np.vdot(a, w)) ** 2 * np.concatenate((np.conj(a[:0:-1]), a))
            for a in steering.vectors
        )
        assert np.linalg.norm(mw.gram - dense) <= 1e-12 * np.linalg.norm(dense)

    @pytest.mark.parametrize("n", MOMENT_SIZES)
    def test_template_toeplitz_product(self, n):
        steering, d, _, v = moment_instance(n)
        (mv,) = moments_of(steering, d, v)
        dense = sum(dk * np.vdot(a, v) * a for dk, a in zip(d.values, steering.vectors))
        assert np.linalg.norm(mv.td_x - dense) <= 1e-12 * np.linalg.norm(dense)

    @pytest.mark.parametrize("n", MOMENT_SIZES)
    def test_moment_alpha_is_update_alpha(self, n):
        # update_alpha, solve's Re(w^H T_d v) / d^T d, is the per-angle least-squares fit
        # d^T Re(r) / d^T d, to 1e-12 of the sum's scale sum_k d_k |r_k| / d^T d
        steering, d, w, v = moment_instance(n)
        r = dense_samples(steering, w, v)
        dd = float(d.values @ d.values)
        fit, scale = float(d.values @ r.real) / dd, float(d.values @ np.abs(r)) / dd
        assert abs(update_alpha(steering, w, v, d) - fit) <= 1e-12 * scale

    @pytest.mark.parametrize("n", MOMENT_SIZES)
    def test_square_sums(self, n):
        steering, d, w, v = moment_instance(n)
        mw, mv = moments_of(steering, d, w, v)
        pattern = beampattern(steering, w)
        r = dense_samples(steering, w, v)
        assert admm_mod._pattern_dot(mw, mw) == pytest.approx(float(pattern @ pattern), rel=1e-12)
        assert admm_mod._pattern_dot(mw, mv) == pytest.approx(float(np.vdot(r, r).real), rel=1e-12)

    def test_zero_lam_keeps_the_pattern_square_sum(self):
        # the blocks scale the Gram diagonals by lam; the trace row's sum of P_k^2 must not be
        rng = np.random.default_rng(44)
        steering, d = random_instance(rng, n=6, k=9)
        params = SolverParams(lam=0.0, rho=5.0, max_iters=5, seed=1)
        states = [admm_mod.initial_state(steering, params)]
        _, _, trace = solve(steering, d, params, init=states[0], observer=states.append)
        for state, error_db in zip(states, trace.matching_error_db):
            want = matching_error_db(beampattern(steering, state.w), state.alpha, d)
            assert error_db == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_fit_is_clamped_at_zero(self):
        # an exact match cancels to rounding, which may fall either side of 0
        assert admm_mod._residual_energy(1.0, 1.0, 1.0, 1.0 - 2.0**-52) == 0.0
        for n in MOMENT_SIZES:
            steering, _, w, _ = moment_instance(n)
            pattern = beampattern(steering, w)
            d = DesiredPattern(pattern, pattern > 0)
            (mw,) = moments_of(steering, d, w)
            dd = float(pattern @ pattern)
            square_sum, pattern_td = admm_mod._pattern_dot(mw, mw), admm_mod._real_dot(w, mw.td_x)
            fit = admm_mod._residual_energy(square_sum, pattern_td, 1.0, dd)
            assert 0.0 <= fit <= 1e-12 * dd


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
    assert exc.value.trace.iter.tolist() == [0]


class TestFactorizationFailure:
    def system(self):
        rng = np.random.default_rng(50)
        steering, d = random_instance(rng)
        params = SolverParams(lam=0.2, rho=5.0)
        return steering, d, params, unit(rng, 5), 0.1 * random_complex(rng, 5)

    def test_indefinite_system(self):
        steering, d, params, v, u = self.system()
        with pytest.raises(NumericalError, match="not positive definite"):
            solve_weight_system(steering, v, u, 1.0, d, np.full(5, -1e6), params)

    def test_nan_entry(self):
        # finite inputs whose Gram matrix overflows, so the solve meets inf and NaN entries
        steering, d, params, _, u = self.system()
        with pytest.raises(NumericalError, match="non-finite entries"):
            solve_weight_system(steering, np.full(5, 1e300), u, 1.0, d, np.zeros(5), params)

    def test_non_finite_weight_solution_ends_in_divergence(self, monkeypatch):
        # solve checks the w block's solution once, where it projects it onto the sphere
        steering, d, _, _, _ = self.system()
        calls = {"count": 0}
        real_w_system = admm_mod._w_system

        def poisoned(*args):
            calls["count"] += 1
            solution = real_w_system(*args)
            return np.full_like(solution, np.nan) if calls["count"] == 3 else solution

        monkeypatch.setattr(admm_mod, "_w_system", poisoned)
        with pytest.raises(DivergenceError, match="iteration 3") as excinfo:
            solve(steering, d, SolverParams(lam=0.2, rho=5.0, max_iters=10))
        assert excinfo.value.trace.iter.tolist() == [0, 1, 2]

    def test_solve_reports_divergence_with_partial_trace(self, monkeypatch):
        steering, d, _, _, _ = self.system()
        calls = {"count": 0}
        real_penalty = admm_mod._penalty

        # call 1 is the initial w's, so call 3 gives sweep 3 its majorizer diagonal
        def indefinite(p):
            calls["count"] += 1
            value, diag = real_penalty(p)
            return value, (diag if calls["count"] < 3 else np.full(5, -1e6))

        monkeypatch.setattr(admm_mod, "_penalty", indefinite)
        with pytest.raises(DivergenceError, match="iteration 3") as excinfo:
            solve(steering, d, SolverParams(lam=0.2, rho=5.0, max_iters=10))
        assert isinstance(excinfo.value.__cause__, NumericalError)
        assert excinfo.value.trace.iter.tolist() == [0, 1, 2]


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
        matrix = params.lam * data_fit_gram(steering, w) + (params.rho / 2) * np.eye(n)
        c = steering.vectors.conj() @ w
        rhs = params.lam * alpha * ((d.values * c) @ steering.vectors) + (params.rho / 2) * (w + u)
        dense = np.linalg.solve(matrix, rhs)
        assert np.linalg.norm(v - dense) <= 1e-12 * np.linalg.norm(dense)

    def test_kernel_is_the_public_toeplitz_solve_bit_for_bit(self):
        # the kernel is private to scipy; a change to it must fail here, not in a solve
        rng = np.random.default_rng(55)
        steering, _ = random_instance(rng, n=9, k=40)
        x = unit(rng, 9)
        diagonals = 0.3 * admm_mod._gram_diagonals(steering.moments, np.correlate(x, x, "full"))
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
        assert excinfo.value.trace.iter.tolist() == [0, 1, 2]


def assert_solve_is_the_public_blocks(steering, d, params, init=None):
    """solve equals a loop written from the public blocks, exactly, in w, alpha and the
    primal residual and weight change of every row; each row's objective and Lagrangian
    equal their dense evaluation, and its matching error the per-angle one, to rounding."""
    w_solve, alpha_solve, trace = solve(steering, d, params, init=init)
    assert trace.iter.size == params.max_iters + 1

    state = init if init is not None else admm_mod.initial_state(steering, params)
    rows, values, matching = [], [], []
    for _ in range(trace.iter.size - 1):
        alpha = update_alpha(steering, state.w, state.v, d)
        v = update_v(steering, state.w, state.u, alpha, d, params)
        diag = majorizer_diag(state.w)
        w = project_unit_sphere(solve_weight_system(steering, v, state.u, alpha, d, diag, params))
        u = state.u + (w - v)
        w_change = float(np.linalg.norm(w - state.w))
        state = AdmmState(alpha=alpha, v=v, w=w, u=u)
        rows.append((float(np.linalg.norm(w - v)), alpha, w_change))
        # at the largest lam, lam times the squared residual overflows to inf on some rows, in
        # these Python floats as in the trace's columns, and inf is approximately only inf
        values.append((dense_objective(steering, d, params, w, alpha),
                       dense_lagrangian(steering, d, params, state)))
        matching.append(matching_error_db(beampattern(steering, w), alpha, d))

    assert np.array_equal(state.w, w_solve)
    assert state.alpha == alpha_solve
    names = ("primal_residual", "alpha", "w_change")
    assert rows == list(zip(*(getattr(trace, name)[1:].tolist() for name in names)))
    for name, column in zip(("objective", "lagrangian"), zip(*values)):
        assert getattr(trace, name)[1:].tolist() == pytest.approx(list(column), rel=1e-12)
    # the per-angle matching error; solve's rows take it from the grid moments
    assert trace.matching_error_db[1:].tolist() == pytest.approx(matching, rel=1e-12, abs=1e-12)
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
    assert (trace.alpha < 0).any()


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


def config_problem(name, **overrides):
    cfg = load_config(CONFIGS / f"{name}.json").with_overrides(**overrides)
    return build_steering_set(cfg.geometry, cfg.grid), cfg.template, cfg.params


def largest_accepted_lam(steering):
    """The largest lam with lam * K * N finite, the bound solve and the public blocks hold."""
    kn = steering.n_angles * steering.n_elements
    lam = sys.float_info.max / kn
    while not math.isfinite(lam * kn):
        lam = math.nextafter(lam, 0.0)
    while math.isfinite(math.nextafter(lam, math.inf) * kn):
        lam = math.nextafter(lam, math.inf)
    return lam


def test_lam_that_overflows_the_data_fit_is_rejected():
    # at lam = 1e306, lam * G overflows in the v block on single_mainlobe (N = 30, K = 181)
    steering, d, params = config_problem("single_mainlobe", max_iters=5)
    past = math.nextafter(largest_accepted_lam(steering), math.inf)
    state = admm_mod.initial_state(steering, params)
    for lam in (1e306, 1e308, past, 10**308):
        params = replace(params, lam=lam)
        with pytest.raises(ContractError, match="lam"):
            solve(steering, d, params)
        with pytest.raises(ContractError, match="lam"):
            update_v(steering, state.w, state.u, 1.0, d, params)


@pytest.mark.parametrize("name", ["single_mainlobe", "two_mainlobes"])
def test_largest_accepted_lam_runs_without_warnings(name):
    steering, d, params = config_problem(name, max_iters=200)
    params = replace(params, lam=largest_accepted_lam(steering))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, _, trace = solve(steering, d, params)
    assert trace.iter.size > 40


@pytest.mark.parametrize("name,sweeps", [("single_mainlobe", 40), ("two_mainlobes", 200)])
def test_solve_is_the_public_blocks_at_the_largest_accepted_lam(name, sweeps):
    # the objective overflows to inf on some rows, as a Python float does, and the
    # derived trace columns must follow it without a warning
    steering, d, params = config_problem(name, max_iters=sweeps)
    params = replace(params, lam=largest_accepted_lam(steering))
    trace = assert_solve_is_the_public_blocks(steering, d, params)
    assert np.isinf(trace.objective).any()


def test_no_allocation_grows_with_the_iteration_budget():
    steering, d, _ = config_problem("single_mainlobe")
    params = SolverParams(max_iters=10**12, eta=math.inf)
    tracemalloc.start()
    try:
        _, _, trace = solve(steering, d, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert trace.iter.size == 2
    assert peak < 2**20


class ReadCountingSteering(SteeringSet):
    """A steering set that counts the reads of its K x N matrix."""

    reads = 0

    def __getattribute__(self, name):
        if name == "vectors":
            type(self).reads += 1
        return super().__getattribute__(name)


def test_solve_makes_no_steering_products():
    # the sweep works on the grid moments and T_d, which solve takes from the
    # steering matrix once, before the first sweep
    rng = np.random.default_rng(53)
    steering, d = random_instance(rng, n=6, k=9)
    steering = ReadCountingSteering(steering.geometry, steering.grid)
    reads = []
    for max_iters in (1, 12):
        ReadCountingSteering.reads = 0
        params = SolverParams(lam=0.2, rho=5.0, max_iters=max_iters, seed=5)
        _, _, trace = solve(steering, d, params)
        assert trace.iter.size == max_iters + 1
        reads.append(ReadCountingSteering.reads)
    assert reads[0] == reads[1] > 0


@pytest.mark.parametrize("n", [1, *MOMENT_SIZES])
def test_toeplitz_gram_is_a_fresh_fortran_copy_of_its_diagonals(n):
    # posv factors the result in place, so it must be Fortran-ordered, writable and
    # its own memory, and it must read each entry from the diagonals unchanged
    rng = np.random.default_rng(54)
    diagonals = rng.standard_normal(2 * n - 1) + 1j * rng.standard_normal(2 * n - 1)
    matrix = admm_mod._toeplitz_gram(diagonals)
    assert matrix.shape == (n, n)
    assert matrix.flags.f_contiguous and matrix.flags.writeable
    assert not np.shares_memory(matrix, diagonals)
    for i in range(n):
        for j in range(n):
            assert matrix[i, j] == diagonals[n - 1 + i - j]


def test_each_sweep_gathers_one_toeplitz_matrix(monkeypatch):
    # T_d is gathered once per solve; then the w block gathers and factors its
    # matrix, and the v block solves from the diagonals
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
    assert trace.iter.size == 13
    assert calls["count"] == 1 + 12


def test_each_weight_vector_takes_one_penalty(monkeypatch):
    # the initial w and each sweep's projected w pass once through the entropy
    # kernel, whose value feeds the trace row and whose diagonal the next w block
    rng = np.random.default_rng(53)
    steering, d = random_instance(rng, n=6, k=9)
    params = SolverParams(lam=0.2, rho=5.0, max_iters=12, seed=5)
    calls = {"count": 0}
    real_penalty = admm_mod._penalty

    def counted(p):
        calls["count"] += 1
        return real_penalty(p)

    monkeypatch.setattr(admm_mod, "_penalty", counted)
    _, _, trace = solve(steering, d, params)
    assert trace.iter.size == 13
    assert calls["count"] == 1 + 12


# old id -> the registry's case id
MISSIZED_CALLS = {
    "solve_weight_system-template": "solve_weight_system-d-short",
    "solve_weight_system-majorizer": "solve_weight_system-diag-short",
    # the anchor, and so its diagonal, is sized for another array than w
    "majorizer_value-short_diag": "majorizer_value-w_anchor-short",
    "majorizer_value-short_w": "majorizer_value-w_anchor-short",
    "update_v-template": "update_v-d-short",
    "data_fit_gram-x": "data_fit_gram-x-short",
}


@pytest.mark.parametrize("call", MISSIZED_CALLS)
def test_missized_input_raises_contract_error(call):
    check_bad_call(MISSIZED_CALLS[call], ContractError)


NON_FINITE_CALLS = {
    "update_alpha-w": "update_alpha-w-nan",
    "update_alpha-v": "update_alpha-v-inf",
    "update_v-u": "update_v-u-nan",
    "data_fit_gram-x": "data_fit_gram-x-nan",
    "beampattern-w": "beampattern-w-nan",
    "matching_error_db-pattern": "matching_error_db-pattern-nan",
    "peak_sidelobe_db-pattern": "peak_sidelobe_db-pattern-nan",
    "entropy_gradient-nan": "entropy_gradient-p-nan",
    "entropy_gradient-inf": "entropy_gradient-p-inf",
    "cardinality-w": "cardinality-w-nan",
    "matching_error_db-alpha": "matching_error_db-alpha-inf",
    "update_v-alpha": "update_v-alpha-nan",
    "solve_weight_system-alpha": "solve_weight_system-alpha-inf",
    "solve_weight_system-diag": "solve_weight_system-diag-nan",
    "update_alpha-str": "update_alpha-v-str",
    "beampattern-str": "beampattern-w-str",
    "project_unit_sphere-str": "project_unit_sphere-x-str",
    "project_unit_sphere-ragged": "project_unit_sphere-x-ragged",
    "peak_sidelobe_db-ragged": "peak_sidelobe_db-pattern-ragged",
    "cardinality-huge_int": "cardinality-w-huge_int",
    "matching_error_db-complex": "matching_error_db-pattern-complex",
    "entropy_gradient-complex": "entropy_gradient-p-complex",
    "peak_sidelobe_db-float_mask": "peak_sidelobe_db-mask-float",
    "peak_sidelobe_db-int_mask": "peak_sidelobe_db-mask-int",
    "peak_sidelobe_db-bool_pattern": "peak_sidelobe_db-pattern-bool",
    "cardinality-bool": "cardinality-w-bool",
    "entropy-bool": "entropy-w-bool",
    "entropy_gradient-bool": "entropy_gradient-p-bool",
    "project_unit_sphere-bool": "project_unit_sphere-x-bool",
    "peak_sidelobe_db-negative": "peak_sidelobe_db-pattern-negative",
    "matching_error_db-negative": "matching_error_db-pattern-negative",
}
# alpha that is not a real number, passed to each function that takes one (solve, in init)
NON_FINITE_CALLS |= {
    f"{call}-alpha-{case}": f"{call}{'-init' if call == 'solve' else ''}-alpha-{case}"
    for call in ["matching_error_db", "update_v", "solve_weight_system", "solve"]
    for case in NON_REAL
}


@pytest.mark.parametrize("call", NON_FINITE_CALLS)
def test_non_finite_input_raises_contract_error(call):
    check_bad_call(NON_FINITE_CALLS[call], ContractError)


WRONG_TYPE_CALLS = {
    "solve-steering": "solve-steering-none",
    "solve-template": "solve-d-none",
    "solve-params": "solve-params-none",
    "solve-init": "solve-init-object",
    "solve-observer": "solve-observer-object",
    "update_v-steering": "update_v-steering-none",
    "solve_weight_system-params": "solve_weight_system-params-none",
    "solve_weight_system-template": "solve_weight_system-d-none",
    "initial_state-steering": "initial_state-steering-none",
    "update_alpha-steering": "update_alpha-steering-none",
    "data_fit_gram-steering": "data_fit_gram-steering-none",
    "beampattern-steering": "beampattern-steering-none",
    "update_alpha-template": "update_alpha-d-none",
    "matching_error_db-template": "matching_error_db-d-none",
    "build_template-grid": "build_template-grid-none",
    "run_experiment-config": "run_experiment-cfg-none",
    "write_outputs-report": "write_outputs-report-none",
    "write_outputs-config": "write_outputs-cfg-none",
    "write_outputs-trace": "RunReport-trace-none",
}


@pytest.mark.parametrize("call", WRONG_TYPE_CALLS)
def test_wrong_type_object_raises_contract_error(call):
    # None, or an object of another type, for one package object would otherwise end in a
    # bare AttributeError or TypeError; the error names the type
    check_bad_call(WRONG_TYPE_CALLS[call], ContractError,
                   r"must be an? [A-Z]\w+, got (NoneType|object|int)$")


# the weights argument of each function that takes one
WEIGHTS = {"beampattern": "w", "cardinality": "w", "entropy": "w", "entropy_gradient": "p",
           "majorizer_diag": "w_anchor", "majorizer_value": "w", "project_unit_sphere": "x"}


@pytest.mark.parametrize("shape", ["empty", "2-D"])
@pytest.mark.parametrize("call", WEIGHTS)
def test_empty_or_2d_weights_raise_contract_error(call, shape):
    check_bad_call(f"{call}-{WEIGHTS[call]}-{shape}", ContractError)
