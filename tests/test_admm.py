import itertools
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
import scipy.linalg

import beamsparse.admm as admm_mod
import beamsparse.arrays as arrays_mod
import beamsparse.kernels as kernels_mod
from beamsparse import (
    AdmmState,
    AngleGrid,
    ArrayGeometry,
    ConfigurationError,
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
    cardinality,
    converged,
    data_fit_gram,
    entropy,
    load_config,
    majorizer_diag,
    matching_error_db,
    parse_config,
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
        real_data_block = admm_mod._data_block

        def poisoned(*args, **kwargs):
            calls["count"] += 1
            out = real_data_block(*args, **kwargs)
            if calls["count"] == 3:
                out = out.copy()
                out[0] = np.nan
            return out

        monkeypatch.setattr(admm_mod, "_data_block", poisoned)
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
        # moments' diagonals before it copies them, bit for bit, by either moment kernel: the
        # FFT's Gram diagonals do not depend on the template, which data_fit_gram lacks
        rng = np.random.default_rng(43)
        for n in (7, CROSSOVER):
            steering, d = random_instance(rng, n=n, k=30)
            x = random_complex(rng, n)
            (mx,) = moments_of(steering, d, x)
            expected = admm_mod._toeplitz_gram(lam * mx.gram)
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

CROSSOVER = admm_mod._SPECTRAL_CROSSOVER

#: Each path's moment kernel at MOMENT_SIZES and at the crossover's edge and N = 256, with the
#: ids of the kernels: the dense path's zgemv cases at MOMENT_SIZES keep the ids of the sizes
#: alone, which they had before the FFT kernel.
KERNEL_CASES = [
    *(pytest.param("dense", n, id=str(n)) for n in MOMENT_SIZES),
    *(pytest.param("spectral", n, id=f"fft-{n}") for n in MOMENT_SIZES),
    *(pytest.param(path, n, id=f"{kernel}-{n}")
      for n in (CROSSOVER - 1, CROSSOVER, 256)
      for path, kernel in (("dense", "zgemv"), ("spectral", "fft"))),
]


def force_path(monkeypatch, path):
    """Make every solve and public block take the named path, "dense" (zgemv moments and the
    Cholesky w block) or "spectral" (FFT moments and the conjugate gradients), at any N."""
    monkeypatch.setattr(admm_mod, "_SPECTRAL_CROSSOVER", 2**63 if path == "dense" else 0)


def bound(name):
    """admm's kernel global name, "_posv" or "_c2c", bound as the first selection of a path
    that calls it binds it (``kernels._bind``), so that a test can wrap the kernel itself in
    any order of the tests."""
    kernels_mod._bind(vars(admm_mod), name)
    return getattr(admm_mod, name)


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


def zgemv_operand(steering):
    """The N x (2N-1) moment matrix that ``_moment_kernel`` gathers below the crossover, at any
    N."""
    with pytest.MonkeyPatch.context() as patch:
        force_path(patch, "dense")
        kernel, t, _ = admm_mod._moment_kernel(steering)
    assert kernel is admm_mod._moments
    return t


def moments_of(steering, d, *xs):
    """The moments of each x by the kernel a solve on this steering set and template takes."""
    kernel, grid, template = admm_mod._moment_kernel(steering, d)
    return [kernel(grid, template, x) for x in xs]


class TestMomentKernels:
    """The sweep's moment kernels, zgemv's and the FFT's, against their per-angle definitions,
    summed angle by angle."""

    @pytest.mark.parametrize("path, n", KERNEL_CASES)
    def test_gram_diagonals(self, monkeypatch, path, n):
        force_path(monkeypatch, path)
        steering, d, w, _ = moment_instance(n)
        (mw,) = moments_of(steering, d, w)
        # lags -(n-1) ... n-1 of a_k[l] = z_k^l, with z_k^-l = conj(z_k^l)
        dense = sum(
            abs(np.vdot(a, w)) ** 2 * np.concatenate((np.conj(a[:0:-1]), a))
            for a in steering.vectors
        )
        assert np.linalg.norm(mw.gram - dense) <= 1e-12 * np.linalg.norm(dense)

    @pytest.mark.parametrize("n", [2, 3, 30, 256])
    def test_zgemv_operand_is_a_fortran_toeplitz_gather_of_the_moments(self, n):
        # T[i, j] = q_(i-j+N-1), entry i - j + 2N-2 of the steering set's moments, in memory of
        # its own and Fortran-ordered, so the sweep's zgemv reads it as it stands
        steering = build_steering_set(ArrayGeometry(n), AngleGrid.uniform(-90, 90, 1.0))
        t = zgemv_operand(steering)
        assert t.shape == (n, 2 * n - 1)
        assert t.flags.f_contiguous and t.flags.owndata
        assert not np.shares_memory(t, steering.moments)
        i, j = np.indices(t.shape)
        assert np.array_equal(t, steering.moments[i - j + 2 * n - 2])

    @pytest.mark.parametrize("n", [2, 3, 30, 256])
    def test_gram_diagonals_are_the_correlation_of_the_moments(self, n):
        # one zgemv against the moment matrix, against numpy's correlation of the moment vector
        # with the autocorrelation, lag by lag
        rng = np.random.default_rng(62)
        steering = build_steering_set(ArrayGeometry(n), AngleGrid(np.linspace(-90.0, 90.0, 181)))
        # q_-(N-1) ... q_(2N-2): the column sums of the steering vectors, the products of its
        # last column with the others, and the conjugates of the negative lags
        a = steering.vectors
        q = arrays_mod._with_negative_lags(
            np.concatenate((a.sum(axis=0), (a.T @ a[:, n - 1])[1:])), n)
        for _ in range(10):
            auto = np.correlate(*(2 * [unit(rng, n)]), "full")
            gram = admm_mod._gram_diagonals(zgemv_operand(steering), auto)
            want = arrays_mod._with_negative_lags(np.correlate(q, auto, "valid"), n)
            assert np.linalg.norm(gram - want) <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("n", [6, CROSSOVER])
    def test_moment_operand_is_gathered_once_per_call_below_the_crossover(self, monkeypatch, n):
        # below the crossover each solve and each public call gathers the N x (2N-1) matrix of
        # the steering set's moments once, and from the crossover on nothing gathers it
        rng = np.random.default_rng(63)
        steering, d = random_instance(rng, n=n, k=9)
        params = SolverParams(lam=0.2, rho=5.0, max_iters=12, seed=5)
        state = admm_mod.initial_state(steering, params)
        gathers = []
        real_copy = admm_mod._toeplitz_copy

        def copy(lags, rows, cols):
            if lags is steering.moments:
                gathers.append((rows, cols))
            return real_copy(lags, rows, cols)

        monkeypatch.setattr(admm_mod, "_toeplitz_copy", copy)
        calls = (
            lambda: solve(steering, d, params),
            lambda: data_fit_gram(steering, state.w),
            lambda: update_alpha(steering, state.w, state.v, d),
            lambda: update_v(steering, state.w, state.u, 1.0, d, params),
            lambda: solve_weight_system(steering, state.v, state.u, 1.0, d, np.zeros(n), params),
        )
        for call in calls:
            gathers.clear()
            call()
            assert gathers == ([(n, 2 * n - 1)] if n < CROSSOVER else [])

    @pytest.mark.parametrize("path, n", KERNEL_CASES)
    def test_template_toeplitz_product(self, monkeypatch, path, n):
        force_path(monkeypatch, path)
        steering, d, _, v = moment_instance(n)
        (mv,) = moments_of(steering, d, v)
        dense = sum(dk * np.vdot(a, v) * a for dk, a in zip(d.values, steering.vectors))
        assert np.linalg.norm(mv.td_x - dense) <= 1e-12 * np.linalg.norm(dense)

    @pytest.mark.parametrize("path, n", KERNEL_CASES)
    def test_moment_alpha_is_update_alpha(self, monkeypatch, path, n):
        force_path(monkeypatch, path)
        # update_alpha, solve's Re(w^H T_d v) / d^T d, is the per-angle least-squares fit
        # d^T Re(r) / d^T d, to 1e-12 of the sum's scale sum_k d_k |r_k| / d^T d
        steering, d, w, v = moment_instance(n)
        r = dense_samples(steering, w, v)
        dd = float(d.values @ d.values)
        fit, scale = float(d.values @ r.real) / dd, float(d.values @ np.abs(r)) / dd
        assert abs(update_alpha(steering, w, v, d) - fit) <= 1e-12 * scale

    @pytest.mark.parametrize("path, n", KERNEL_CASES)
    def test_square_sums(self, monkeypatch, path, n):
        force_path(monkeypatch, path)
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

    def test_fit_is_clamped_at_zero(self, monkeypatch):
        # an exact match cancels to rounding, which may fall either side of 0
        assert admm_mod._residual_energy(1.0, 1.0, 1.0, 1.0 - 2.0**-52) == 0.0
        for case in KERNEL_CASES:
            path, n = case.values
            force_path(monkeypatch, path)
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
        # solve checks the w block's solution once, where _w_block projects it onto the
        # sphere: posv reports success (info = 0) with a NaN solution on sweep 3
        steering, d, _, _, _ = self.system()
        calls = {"count": 0}
        real_posv = bound("_posv")

        def poisoned(*args):
            calls["count"] += 1
            a, solution, info = real_posv(*args)
            if calls["count"] == 3:
                solution = np.full_like(solution, np.nan)
            return a, solution, info

        monkeypatch.setattr(admm_mod, "_posv", poisoned)
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
    """The data block solves its Toeplitz system by Levinson recursion, not by a dense
    factorization."""

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
        auto = np.correlate(x, x, "full")
        diagonals = 0.3 * admm_mod._gram_diagonals(zgemv_operand(steering), auto)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_solution_ends_in_divergence_with_partial_trace(self, monkeypatch, bad):
        # the sweep does not check v itself: its non-finite moments make the w block's system
        # non-finite, which posv or the projection onto the sphere rejects in the same sweep
        rng = np.random.default_rng(57)
        steering, d = random_instance(rng)
        calls = {"count": 0}
        real_levinson = admm_mod._levinson

        def poisoned(*args):
            calls["count"] += 1
            solution, reflection = real_levinson(*args)
            if calls["count"] == 3:
                solution = np.full_like(solution, bad)
            return solution, reflection

        monkeypatch.setattr(admm_mod, "_levinson", poisoned)
        with pytest.raises(DivergenceError, match="iteration 3") as excinfo:
            solve(steering, d, SolverParams(lam=0.2, rho=5.0, max_iters=10))
        assert isinstance(excinfo.value.__cause__, (NumericalError, DegenerateInputError))
        assert excinfo.value.trace.iter.tolist() == [0, 1, 2]


# a cold start of the command line, then scipy.linalg imported after the package
COLD_START = """
import sys
import beamsparse.cli
from beamsparse import kernels
import numpy as np
product = kernels._gemv(1.0, [[1.0, 2.0], [3.0, 4.0]], [1.0, 1.0]).tolist()
print(sorted(name for name in ("scipy.linalg", "numpy.f2py") if name in sys.modules), product)
# the positional arguments the sweep passes, in its order, so that a reordered f2py signature
# fails here: zdscal(a, x, n, offx, incx, overwrite_x) and zaxpy(x, y, n, a), in place
y = np.array([1.0, 2.0 + 1.0j])
scaled = kernels._dscal(2.0, y, 2, 0, 1, 1)
summed = kernels._axpy(np.array([1.0j, 1.0]), y, 2, 3.0)
print(scaled is y, summed is y, summed.tolist(), kernels._dotc(y, y))
# zgemv(alpha, a, x, beta, y, offx, incx, offy, incy, trans, overwrite_y): the product written
# into a lag buffer from entry 1 on, in place, where beta = 0 does not read the NaN it held
lags = np.full(3, np.nan, complex)
a = np.array([[1.0, 2.0], [3.0, 4.0]], complex, order="F")
written = kernels._gemv(1.0, a, np.array([1.0, 1.0j]), 0.0, lags, 0, 1, 1, 1, 0, 1)
print(written is lags, lags[1:].tolist())
# zposv, bound as the first w block below the conjugate gradients' crossover binds it,
# loaded by path before scipy.linalg is imported
from beamsparse import admm
kernels._bind(vars(admm), "_posv")
import scipy.linalg
print(admm._posv is scipy.linalg.get_lapack_funcs("posv", dtype=complex),
      kernels._levinson is scipy.linalg._solve_toeplitz.levinson,
      *(getattr(kernels, "_" + name) is scipy.linalg.get_blas_funcs(name, dtype=complex)
        for name in ("gemv", "dotc", "axpy", "dscal")))
"""


# the loader's record of the scipy modules a fresh process has loaded, after the import and
# after each step (a public block or solve at a size, or the run of a reference config),
# beside the modules of numpy's random package and of OpenSSL's hashes that the package's
# import and steps added to sys.modules: numpy 1 imports numpy.random with numpy itself,
# numpy 2 on first use
LOADED_BY_PATH = """
import sys
import numpy as np

RANDOM = ("numpy.random", "secrets", "hmac", "hashlib", "_hashlib")
before = set(sys.modules)
import beamsparse as b
from beamsparse import kernels


def problem(n):
    grid = b.AngleGrid.uniform(-90, 90, 1.0)
    steering = b.build_steering_set(b.ArrayGeometry(n), grid)
    x = np.full(n, n ** -0.5, complex)
    return steering, b.build_template(grid, [b.MainlobeSpec(22, 28)]), x


def update_v(n):
    steering, d, x = problem(n)
    b.update_v(steering, x, 0.1 * x, 0.5, d, b.SolverParams())


def update_alpha(n):
    steering, d, x = problem(n)
    b.update_alpha(steering, x, x, d)


def data_fit_gram(n):
    steering, _, x = problem(n)
    b.data_fit_gram(steering, x)


def solve_weight_system(n):
    steering, d, x = problem(n)
    b.solve_weight_system(steering, x, 0.1 * x, 0.5, d, np.zeros(n), b.SolverParams())


def solve(n, lam=0.1):
    steering, d, _ = problem(n)
    b.solve(steering, d, b.SolverParams(lam=lam, max_iters=3))


def run(name):
    cfg = b.load_config({configs!r} + "/" + name + ".json")
    b.run_experiment(cfg.with_overrides(output_dir={out!r}))


def loaded():
    print(sorted(name.rsplit(".", 1)[1] for name in kernels._loaded),
          sorted(name for name in RANDOM if name in sys.modules and name not in before))


loaded()
for step in {steps!r}:
    eval(step)
    loaded()
"""

# two threads' first solves in a fresh process, whose loader sleeps in each load so that the
# other thread reaches the binding meanwhile: whether a thread is left running and the loads
# made, then whether the two w are bit-identical and both threads saw scipy's own zposv
TWO_FIRST_SOLVES = """
import threading
import time
import beamsparse as b
from beamsparse import admm, kernels

load = kernels._scipy_extension
loads = []


def slow_load(name):
    loads.append(name)
    time.sleep(0.2)
    return load(name)


kernels._scipy_extension = slow_load
grid = b.AngleGrid.uniform(-90, 90, 1.0)
steering = b.build_steering_set(b.ArrayGeometry(30), grid)
d = b.build_template(grid, [b.MainlobeSpec(22, 28)])
params = b.SolverParams(max_iters=20)
start = threading.Barrier(2, timeout=60)
results = [None, None]


def first_solve(i):
    start.wait()
    w, _, _ = b.solve(steering, d, params)
    results[i] = w.tobytes(), admm._posv


threads = [threading.Thread(target=first_solve, args=(i,)) for i in range(2)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=120)
print([thread.is_alive() for thread in threads], loads)
(w0, posv0), (w1, posv1) = results
import scipy.linalg
print(w0 == w1, posv0 is posv1, posv0 is scipy.linalg.get_lapack_funcs("posv", dtype=complex))
"""


class TestScipyKernels:
    def test_cold_start_imports_no_scipy_linalg_and_shares_its_kernels(self):
        # scipy.linalg's __init__ imports numpy.f2py and was most of a cold import
        src = str(Path(admm_mod.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-c", COLD_START], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == [
            "[] [(3+0j), (7+0j)]",
            "True True [(2+3j), (7+2j)] (66+0j)",
            "True [(1+2j), (3+4j)]",
            "True True True True True True",
        ]

    def test_import_adds_no_numpy_fft_module(self):
        # numpy 2 loads numpy.fft on first use and numpy 1.24 loads it itself; either way the
        # package adds none of it, at import or in a solve at N = 256, whose moments and w
        # block take every FFT from pocketfft's c2c
        src = str(Path(admm_mod.__file__).resolve().parents[1])
        code = ("import sys, numpy, scipy\n"
                "fft = lambda: {m for m in sys.modules if m.startswith('numpy.fft')}\n"
                "before = fft()\n"
                "import beamsparse as b\n"
                "print(sorted(fft() - before))\n"
                "grid = b.AngleGrid.uniform(-90, 90, 0.25)\n"
                "steering = b.build_steering_set(b.ArrayGeometry(256), grid)\n"
                "d = b.build_template(grid, [b.MainlobeSpec(22, 28)])\n"
                "b.solve(steering, d, b.SolverParams(max_iters=3))\n"
                "print(sorted(fft() - before))")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == ["[]", "[]"]

    @pytest.mark.parametrize("steps, want", [
        pytest.param(
            ["update_v(30)", "update_alpha(30)", "data_fit_gram(30)", "run('single_mainlobe')"],
            [[], [], [], [], ["_flapack"]], id="small"),
        pytest.param(["solve(256)"], [[], ["pypocketfft"]], id="large"),
        # at lam = 1e6 the first sweep's w system is one the conjugate gradients hand to Cholesky
        pytest.param(["solve(160)", "solve(160, lam=1e6)"],
                     [[], ["pypocketfft"], ["_flapack", "pypocketfft"]], id="spectral"),
        pytest.param(["solve_weight_system(256)", "solve_weight_system(30)"],
                     [[], ["pypocketfft"], ["_flapack", "pypocketfft"]], id="w-block"),
    ])
    def test_each_path_loads_only_the_kernels_it_calls(self, tmp_path, steps, want):
        # a fresh process maps Levinson's and BLAS's modules at import, LAPACK's only where a w
        # block takes the dense path or falls back to it, pocketfft's only where the spectral
        # path runs: the loader's own record after the import and after each step. No step
        # imports numpy's random package, whose secrets imports hashlib and maps OpenSSL: the
        # solve's start is drawn by the package's own generator
        src = str(Path(admm_mod.__file__).resolve().parents[1])
        code = LOADED_BY_PATH.format(configs=str(CONFIGS), out=str(tmp_path), steps=steps)
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == 0, run.stderr
        always = ["_fblas", "_solve_toeplitz"]
        assert run.stdout.splitlines() == [f"{sorted(always + names)} []" for names in want]

    def test_first_solves_on_two_threads_load_and_bind_zposv_once(self):
        # in a fresh process two threads make their first N = 30 solves at once; the loader
        # sleeps in its first load, so both reach the binding while LAPACK's module loads,
        # which the lock then loads once, and both solves see that one zposv
        src = str(Path(admm_mod.__file__).resolve().parents[1])
        run = subprocess.run([sys.executable, "-c", TWO_FIRST_SOLVES], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": src}, timeout=240)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == ["[False, False] ['scipy.linalg._flapack']",
                                           "True True True"]

    def test_kernels_are_scipys_own_objects(self):
        assert bound("_posv") is scipy.linalg.get_lapack_funcs("posv", dtype=complex)
        assert admm_mod._levinson is scipy.linalg._solve_toeplitz.levinson
        assert bound("_c2c") is scipy.fft._pocketfft.pypocketfft.c2c
        for name in ("gemv", "dotc", "axpy", "dscal"):
            want = scipy.linalg.get_blas_funcs(name, dtype=complex)
            assert getattr(kernels_mod, "_" + name) is want
        for name in ("_gemv", "_axpy", "_dscal", "_real_dot"):
            assert getattr(admm_mod, name) is getattr(kernels_mod, name)
        assert arrays_mod._gemv is admm_mod._gemv
        assert arrays_mod._real_dot is admm_mod._real_dot

    @pytest.mark.parametrize("shape", [(223,), (512,), (768,), (3, 768), (2, 486)])
    def test_c2c_is_scipys_fft_bit_for_bit_in_place(self, shape):
        # _c2c(a, _LAST, forward, inorm, out, 1), as the package calls it with out = a: along
        # the last axis, forward unscaled and backward scaled by 1 / L, written into a and
        # returned, with the bits of scipy.fft's fft and ifft, which call the same kernel
        rng = np.random.default_rng(66)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for forward, inorm, want in ((True, 0, scipy.fft.fft(a)), (False, 2, scipy.fft.ifft(a))):
            out = a.copy()
            assert bound("_c2c")(out, kernels_mod._LAST, forward, inorm, out, 1) is out
            assert out.tobytes() == want.tobytes()

    def test_missing_module_raises_import_error_naming_it(self):
        with pytest.raises(ImportError, match="scipy.linalg._no_such_kernel") as excinfo:
            kernels_mod._scipy_extension("scipy.linalg._no_such_kernel")
        assert excinfo.value.name == "scipy.linalg._no_such_kernel"

    @pytest.mark.parametrize("n, k", [(2, 181), (3, 181), (30, 181), (256, 721)])
    def test_gemv_is_numpys_matmul_bit_for_bit_at_each_call_site(self, n, k):
        # each product the package takes through zgemv, against numpy's @ on the same arrays:
        # T_d's first column, the beampattern and the steering set's moment product at every
        # N, and below the crossover the moments' T_d x and Gram diagonals and update_alpha's
        # T_d v (from the crossover on, the FFT takes those)
        rng = np.random.default_rng(60)
        steering = build_steering_set(ArrayGeometry(n), AngleGrid(np.linspace(-90.0, 90.0, k)))
        values = rng.uniform(0.0, 3.0, k)
        d = DesiredPattern(values, values > 1.0)
        a = steering.vectors
        x, w, v = (random_complex(rng, n) for _ in range(3))
        lags = admm_mod._template_lags(steering, d)
        assert np.array_equal(lags[n - 1 :], a.T @ d.values)
        with np.errstate(over="ignore"):
            assert np.array_equal(beampattern(steering, w), np.abs(a @ np.conj(w)) ** 2)
        # q_N ... q_(2N-2), entries 2N-1 ... 3N-3 of the moments
        assert np.array_equal(steering.moments[2 * n - 1 :], (a.T @ a[:, n - 1])[1:])
        kernel, t, td = admm_mod._moment_kernel(steering, d)
        if n >= CROSSOVER:
            assert kernel is admm_mod._fft_moments
            return
        assert kernel is admm_mod._moments
        assert td.flags.f_contiguous
        assert np.array_equal(td, admm_mod._toeplitz_gram(lags))
        assert np.array_equal(admm_mod._moments(t, td, x).td_x, td @ x)
        assert update_alpha(steering, w, v, d) == np.vdot(w, td @ v).real / d.energy
        auto = np.correlate(x, x, "full")
        assert np.array_equal(admm_mod._gram_diagonals(t, auto)[n - 1 :], t @ auto)

    @pytest.mark.parametrize("fill", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("n", [2, 3, 30, 256])
    def test_gram_diagonals_over_a_non_finite_buffer_are_the_fresh_product(self, n, fill):
        # the moments write zgemv's product with beta = 0 into a lag buffer, from entry N - 1
        # on, without reading what it held, and mirror its conjugates below, bit for bit
        rng = np.random.default_rng(64)
        steering = build_steering_set(ArrayGeometry(n), AngleGrid(np.linspace(-90.0, 90.0, 181)))
        t = zgemv_operand(steering)
        lags = admm_mod._lags(n)
        for _ in range(5):
            lags.buffer[:] = fill
            x = random_complex(rng, n)
            auto = np.correlate(x, x, "full")
            gram = admm_mod._gram_diagonals(t, auto, lags)
            assert gram is lags.buffer
            want = arrays_mod._with_negative_lags(t @ auto, n)
            assert gram.tobytes() == want.tobytes()
            assert admm_mod._gram_diagonals(t, auto).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 30, 256])
    def test_sphere_scale_is_numpys_division_bit_for_bit(self, n):
        # the projection scales by zdscal with 1 / ||x||, the product numpy's complex-by-real
        # division takes, so every nonzero part is x / ||x|| bit for bit, at norms near 1e-200
        # and 1e200 too (by the kernel itself, since the package's norm squares those out of
        # range). A zero part stays zero, but its sign is the BLAS kernel's: OpenBLAS's keeps
        # it at N < 8 and not always beyond, and the division turns some -0 into 0
        rng = np.random.default_rng(65)
        for scale in (1e-200, 1e-150, 1.0, 1e150, 1e200):
            for _ in range(40):
                x = random_complex(rng, n) * scale
                parts = x.view(float)
                zeros = rng.random(2 * n) < 0.25
                zeros[rng.integers(2 * n)] = False
                parts[zeros] = np.copysign(0.0, parts[zeros])
                nrm = math.hypot(*np.abs(x))
                got = kernels_mod._dscal(1.0 / nrm, x.copy(), n, 0, 1, 1).view(float)
                want = (x / nrm).view(float)
                assert got[~zeros].tobytes() == want[~zeros].tobytes()
                assert np.array_equal(got, want)
                if 1e-150 <= scale <= 1e150:
                    y = x.copy()
                    projected = arrays_mod._project_unit_sphere(y)
                    assert projected is y
                    want = (x / package_norm(x)).view(float)
                    assert projected.view(float)[~zeros].tobytes() == want[~zeros].tobytes()

    def test_penalty_sum_is_the_where_sum_bit_for_bit(self):
        # the entropy zeroes the terms below POWER_FLOOR in place and sums them by
        # np.add.reduce: the pairwise sum of np.where's, with +-0 where that held 0
        rng = np.random.default_rng(66)
        below = [0.0, 5e-324, POWER_FLOOR / 2, np.nextafter(POWER_FLOOR, 0.0)]
        above = [POWER_FLOOR, np.nextafter(POWER_FLOOR, 1.0), 2 * POWER_FLOOR, 0.5, 1.0]
        for n in (1, 2, 3, 8, 9, 30, 129, 256, 1000):
            for _ in range(20):
                p = rng.uniform(0.0, 1.0, n) ** rng.uniform(1.0, 40.0)
                picked = rng.random(n) < 0.3
                p[picked] = rng.choice(below + above, picked.sum())
                value, diag = admm_mod._penalty(p)
                log_p = np.log(np.maximum(p, POWER_FLOOR))
                want = 0.0 - np.where(p >= POWER_FLOOR, p * log_p, 0.0).sum()
                assert np.float64(value).tobytes() == want.tobytes()
                assert diag.tobytes() == (-1.0 - log_p).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 30, 256])
    def test_dotc_is_numpys_vdot_bit_for_bit_at_each_call_site(self, n):
        # the inner products of a sweep on vectors of its lengths N and 2N - 1: a pattern
        # dot of an autocorrelation with Gram diagonals, the alpha numerator, and the
        # squared norms of the dual gap, the residual, the weight change and the projection
        rng = np.random.default_rng(61)
        steering = build_steering_set(ArrayGeometry(n), AngleGrid(np.linspace(-90.0, 90.0, 181)))
        t = zgemv_operand(steering)
        for _ in range(20):
            w, v, x = unit(rng, n), unit(rng, n), random_complex(rng, n)
            u = 0.1 * random_complex(rng, n)
            mw, mv = (admm_mod._moments(t, np.eye(n), y) for y in (w, v))
            pairs = [(mw.auto, mv.gram), (mw.auto, mw.gram), (w, mv.td_x)]
            for a, b in pairs:
                assert admm_mod._real_dot(a, b) == np.vdot(a, b).real
            for y in (w - v + u, w - v, w - x, x):
                assert arrays_mod._real_dot(y, y) == np.vdot(y, y).real


def package_norm(x):
    """||x|| by the package's norm kernel, the sqrt of zdotc's x^H x, which solve's rows take."""
    return math.sqrt(kernels_mod._real_dot(x, x))


def assert_within_ulps(got, want, ulps):
    assert abs(got - want) <= ulps * math.ulp(want), (got, want)


def assert_solve_is_the_public_blocks(steering, d, params, init=None):
    """solve equals a loop written from the public blocks, exactly, in w, alpha and the
    primal residual and weight change of every row, taken by the package's norm kernel (and
    within 4 ulp of numpy's norm); each row's objective and Lagrangian equal their dense
    evaluation, and its matching error the per-angle one, to rounding."""
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
        w_change = package_norm(w - state.w)
        assert_within_ulps(w_change, float(np.linalg.norm(w - state.w)), 4)
        residual = package_norm(w - v)
        assert_within_ulps(residual, float(np.linalg.norm(w - v)), 4)
        state = AdmmState(alpha=alpha, v=v, w=w, u=u)
        rows.append((residual, alpha, w_change))
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


@pytest.mark.parametrize("n", [2, 3])
def test_solve_is_the_public_blocks_at_the_smallest_arrays(n):
    # the workspace's strided views over 3 and 5 lags; a tiny eta runs the whole budget
    rng = np.random.default_rng(57 + n)
    steering, d = random_instance(rng, n=n, k=9)
    params = SolverParams(lam=0.2, rho=5.0, eta=1e-300, max_iters=30, seed=n)
    assert_solve_is_the_public_blocks(steering, d, params)


def test_solve_is_the_public_blocks_on_the_large_array():
    # N = 256, where OpenBLAS factors the w block's matrix by its blocked Cholesky
    cfg = load_config(CONFIGS.parent / "benchmarks" / "large_array.json")
    cfg = cfg.with_overrides(seed=0, max_iters=5)
    steering = build_steering_set(cfg.geometry, cfg.grid)
    assert steering.n_elements == 256
    assert_solve_is_the_public_blocks(steering, cfg.template, cfg.params)


def config_problem(name, **overrides):
    cfg = load_config(CONFIGS / f"{name}.json").with_overrides(**overrides)
    return build_steering_set(cfg.geometry, cfg.grid), cfg.template, cfg.params


# sweeps to eta of single_mainlobe seeds 0-9; each ends at 28 elements
SINGLE_MAINLOBE_SWEEPS = (175, 181, 171, 169, 168, 166, 170, 167, 167, 166)


@pytest.mark.parametrize("seed, sweeps", enumerate(SINGLE_MAINLOBE_SWEEPS))
def test_a_rounding_level_kernel_change_keeps_the_reference_iterations(seed, sweeps):
    # a kernel swap that moves the iterates at rounding level must not move the sweep count
    # by more than one or the selected elements unseen
    cfg = load_config(CONFIGS / "single_mainlobe.json").with_overrides(seed=seed)
    steering = build_steering_set(cfg.geometry, cfg.grid)
    w, _, trace = solve(steering, cfg.template, cfg.params)
    assert abs((trace.iter.size - 1) - sweeps) <= 1
    assert cardinality(w, cfg.cardinality_threshold) == 28


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
    # at lam = 1e306, lam * G overflows in the data block on single_mainlobe (N = 30, K = 181)
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
def test_config_applies_the_data_fit_bound_at_load(name):
    # the largest accepted lam loads; the next float fails at load, before any solve
    steering, _, _ = config_problem(name)
    doc = json.loads((CONFIGS / f"{name}.json").read_text())
    lam = largest_accepted_lam(steering)
    assert parse_config(json.dumps({**doc, "lambda": lam})).params.lam == lam
    past = math.nextafter(lam, math.inf)
    with pytest.raises(ConfigurationError, match=r"lam \(lambda\)"):
        parse_config(json.dumps({**doc, "lambda": past}))


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


def counting(monkeypatch, owner, names, calls):
    """Patch each named callable of owner to count its calls in calls[name]."""
    def counted(name):
        real = getattr(owner, name)

        def call(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return call

    for name in names:
        monkeypatch.setattr(owner, name, counted(name))


def test_each_solve_gathers_t_d_once_and_each_sweep_factors_once(monkeypatch):
    # T_d is the one Toeplitz matrix a solve gathers; each sweep's w block writes its
    # matrix into the solve's workspace and factors it in one posv call, and the data block
    # solves from the diagonals. The matrix-vector products are the moments' two, T_d x and
    # the moment matrix times x's autocorrelation, for v and for w in each sweep, and in the
    # set-up T_d's first column and the moments' two for the start state's w and v
    rng = np.random.default_rng(53)
    steering, d = random_instance(rng, n=6, k=9)
    params = SolverParams(lam=0.2, rho=5.0, max_iters=12, seed=5)
    calls = {"_toeplitz_gram": 0, "_posv": 0, "_gemv": 0}
    bound("_posv")
    counting(monkeypatch, admm_mod, calls, calls)
    _, _, trace = solve(steering, d, params)
    assert trace.iter.size == 13
    assert calls == {"_toeplitz_gram": 1, "_posv": 12, "_gemv": 5 + 4 * 12}


def test_a_large_solve_gathers_no_matrix_and_factors_none(monkeypatch):
    # at N = 256 the moments come by FFT and the w block by conjugate gradients: no Toeplitz
    # matrix is gathered and posv is never called; the only zgemv is T_d's first column
    rng = np.random.default_rng(53)
    steering, d = random_instance(rng, n=256, k=40)
    params = SolverParams(lam=0.2, rho=5.0, eta=1e-300, max_iters=12, seed=5)
    calls = {"_toeplitz_copy": 0, "_posv": 0, "_gemv": 0}
    bound("_posv")
    counting(monkeypatch, admm_mod, calls, calls)
    _, _, trace = solve(steering, d, params)
    assert trace.iter.size == 13
    assert calls == {"_toeplitz_copy": 0, "_posv": 0, "_gemv": 1}


def seam_calls(call):
    """call()'s result and the calls of _data_block, _w_block and _w_system made while it
    runs, counted by (callee, caller) through a profile hook, so that no block is replaced."""
    codes = {admm_mod._data_block.__code__, admm_mod._w_block.__code__,
             admm_mod._w_system.__code__}
    calls = {}

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            pair = (frame.f_code.co_name, frame.f_back.f_code.co_name)
            calls[pair] = calls.get(pair, 0) + 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = call()
    finally:
        sys.setprofile(previous)
    return result, calls


def test_each_sweep_calls_each_block_once():
    # the sweep's seam: a solve of k sweeps calls the data block and the w block k times
    # each and forms the w system only inside the w block; update_v calls the data block
    # once and solve_weight_system the w system once
    rng = np.random.default_rng(53)
    steering, d = random_instance(rng, n=6, k=9)
    params = SolverParams(lam=0.2, rho=5.0, eta=1e-300, max_iters=12, seed=5)
    (_, _, trace), calls = seam_calls(lambda: solve(steering, d, params))
    assert trace.iter.size == 13
    assert calls == {("_data_block", "solve"): 12, ("_w_block", "solve"): 12,
                     ("_w_system", "_w_block"): 12}
    state = admm_mod.initial_state(steering, params)
    _, calls = seam_calls(lambda: update_v(steering, state.w, state.u, 1.0, d, params))
    assert calls == {("_data_block", "update_v"): 1}
    diag = majorizer_diag(state.w)
    _, calls = seam_calls(
        lambda: solve_weight_system(steering, state.v, state.u, 1.0, d, diag, params))
    assert calls == {("_w_system", "solve_weight_system"): 1}


def test_the_moment_kernel_changes_at_the_crossover(monkeypatch):
    # one size below the crossover a solve takes the dense path: its moments by zgemv, as
    # counted above (T_d's first column and matrix, then two products for each iterate's
    # moments, the start state's w and v and two a sweep), two gathered Toeplitz matrices, T_d's
    # and the moments', one posv a sweep and no FFT. At the crossover it takes the spectral
    # path: the only zgemv is T_d's first column, no matrix is gathered, no posv runs, and each
    # iterate's moments take one batched inverse c2c call, beside the conjugate gradients' own
    sweeps = 3
    for n, want in ((CROSSOVER - 1, (1, 2, 5 + 4 * sweeps, sweeps, 0)),
                    (CROSSOVER, (0, 0, 1, 0, 2 + 2 * sweeps))):
        rng = np.random.default_rng(n)
        steering, d = random_instance(rng, n=n, k=9)
        params = SolverParams(lam=0.2, rho=5.0, eta=1e-300, max_iters=sweeps, seed=5)
        calls = {"_toeplitz_gram": 0, "_toeplitz_copy": 0, "_gemv": 0, "_posv": 0,
                 "batched inverse _c2c": 0, "_c2c": 0}
        c2c = bound("_c2c")
        bound("_posv")

        def counted_c2c(a, axes, forward, *args):
            calls["_c2c"] += 1
            calls["batched inverse _c2c"] += not forward and a.ndim == 2
            return c2c(a, axes, forward, *args)

        with monkeypatch.context() as patch:
            counting(patch, admm_mod, ("_toeplitz_gram", "_toeplitz_copy", "_gemv", "_posv"),
                     calls)
            patch.setattr(admm_mod, "_c2c", counted_c2c)
            _, _, trace = solve(steering, d, params)
        assert trace.iter.size == sweeps + 1
        *counts, total = calls.values()
        assert tuple(counts) == want, n
        assert total > 0 if n == CROSSOVER else total == 0


def smallest_11_smooth(n):
    """The smallest 2^a 3^b 5^c 7^d 11^e >= n, by trial division."""
    for m in itertools.count(n):
        rest = m
        for p in (2, 3, 5, 7, 11):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return m


@pytest.mark.parametrize("n", [256, 331])
def test_every_transform_takes_pocketfft_s_good_size(monkeypatch, n):
    # the moments (>= 3N - 2 points), the products with lam G (>= 2N - 1) and the conjugate
    # gradients' preconditioner (>= N) each transform at the smallest 11-smooth length, and so
    # at N = 331, a prime, never at 331 points; N = 256 keeps 256, 512 and 768
    grid = AngleGrid.uniform(-90, 90, 0.25)
    steering = build_steering_set(ArrayGeometry(n), grid)
    d = build_template(grid, [MainlobeSpec(22, 28, 1000.0)])
    c2c = bound("_c2c")
    lengths = set()

    def recorded(a, *args):
        lengths.add(a.shape[-1])
        return c2c(a, *args)

    monkeypatch.setattr(admm_mod, "_c2c", recorded)
    _, _, trace = solve(steering, d, SolverParams(max_iters=3))
    assert trace.iter.size == 4
    assert lengths == {smallest_11_smooth(points) for points in (n, 2 * n - 1, 3 * n - 2)}
    assert all(scipy.fft.next_fast_len(length) == length for length in lengths)
    if n == 256:
        assert lengths == {256, 512, 768}
    else:
        assert n not in lengths


def test_each_path_reaches_the_same_solution_at_the_crossover(monkeypatch):
    # the FFT moments agree with zgemv's to rounding and the conjugate gradients stop at a
    # relative residual of 1e-13, so forcing the dense path at the crossover keeps the sweep
    # count and the selected elements, and moves w by far less than 1e-10; single_mainlobe at
    # N = CROSSOVER and lam = 0.01 converges in about 170 sweeps
    doc = json.loads((CONFIGS / "single_mainlobe.json").read_text())
    cfg = parse_config(json.dumps({**doc, "n_elements": CROSSOVER, "lambda": 0.01}))
    steering, d, params = build_steering_set(cfg.geometry, cfg.grid), cfg.template, cfg.params
    w_spectral, _, trace_spectral = solve(steering, d, params)
    force_path(monkeypatch, "dense")
    w_dense, _, trace_dense = solve(steering, d, params)
    assert trace_spectral.iter.size == trace_dense.iter.size < params.max_iters + 1
    threshold = cfg.cardinality_threshold
    assert cardinality(w_spectral, threshold) == cardinality(w_dense, threshold)
    assert np.abs(w_spectral - w_dense).max() <= 1e-10


def crossover_instance():
    """single_mainlobe at N = CROSSOVER and lam = 0.01, with its cardinality threshold."""
    doc = json.loads((CONFIGS / "single_mainlobe.json").read_text())
    cfg = parse_config(json.dumps({**doc, "n_elements": CROSSOVER, "lambda": 0.01}))
    steering = build_steering_set(cfg.geometry, cfg.grid)
    return steering, cfg.template, cfg.params, cfg.cardinality_threshold


def test_each_moment_kernel_reaches_the_same_solution_at_the_crossover(monkeypatch):
    # the FFT moments agree with zgemv's to rounding, so with the w block held to Cholesky
    # forcing zgemv at the crossover keeps the sweep count and the selected elements, and moves
    # w by rounding only
    steering, d, params, threshold = crossover_instance()
    monkeypatch.setattr(admm_mod, "_w_solver", lambda n: admm_mod._Cholesky(n).solve)
    w_fft, _, trace_fft = solve(steering, d, params)
    force_path(monkeypatch, "dense")
    w_gemv, _, trace_gemv = solve(steering, d, params)
    assert trace_fft.iter.size == trace_gemv.iter.size < params.max_iters + 1
    assert cardinality(w_fft, threshold) == cardinality(w_gemv, threshold)
    assert np.abs(w_fft - w_gemv).max() <= 1e-12


def test_each_w_solver_reaches_the_same_solution_at_the_crossover(monkeypatch):
    # the conjugate gradients stop at a relative residual of 1e-13, so with the FFT moments of
    # the crossover kept, forcing the Cholesky solver keeps the sweep count and the selected
    # elements, and moves w by far less than 1e-10
    steering, d, params, threshold = crossover_instance()
    w_cg, _, trace_cg = solve(steering, d, params)
    monkeypatch.setattr(admm_mod, "_w_solver", lambda n: admm_mod._Cholesky(n).solve)
    w_cholesky, _, trace_cholesky = solve(steering, d, params)
    assert trace_cg.iter.size == trace_cholesky.iter.size < params.max_iters + 1
    assert cardinality(w_cg, threshold) == cardinality(w_cholesky, threshold)
    assert np.abs(w_cg - w_cholesky).max() <= 1e-10


class CountedCholesky(admm_mod._Cholesky):
    """The Cholesky solver, counting the solvers built in ``built``."""

    __slots__ = ()
    built = []

    def __init__(self, n):
        self.built.append(n)
        super().__init__(n)


#: Solves whose w systems the conjugate gradients cannot all bring to their tolerance within N
#: iterations, since lam ||G|| dwarfs rho/2: large_array at lam = 1e6, which stopped at sweep 8
#: without the Cholesky fallback, and two_mainlobes on its 1-degree grid at lam = 1e3 and
#: N = 224, which stopped at sweep 4, and at N = CROSSOVER, the first size on the spectral
#: path, at sweep 5 with the conjugate gradients forced. Each runs its 40 sweeps from seed 0.
ILL_CONDITIONED = {
    "large_array-lam-1e6": ("benchmarks/large_array.json", {"lam": 1e6}),
    "two_mainlobes-224-lam-1e3": ("configs/two_mainlobes.json",
                                  {"n_elements": 224, "lam": 1e3, "max_iters": 40}),
    f"two_mainlobes-{CROSSOVER}-lam-1e3": ("configs/two_mainlobes.json",
                                           {"n_elements": CROSSOVER, "lam": 1e3,
                                            "max_iters": 40}),
}


@pytest.mark.parametrize("case", ILL_CONDITIONED)
def test_the_spectral_path_completes_what_the_dense_path_completes(monkeypatch, case):
    # the spectral path takes every w system the conjugate gradients leave short of their
    # tolerance to one Cholesky solver, built on the first such system, and runs the 40 sweeps
    # that the dense path runs. The trajectory is ill-conditioned, so rounding-level differences
    # grow: it ends within 1% of N selected elements and 0.1 dB of the dense path's
    path, overrides = ILL_CONDITIONED[case]
    cfg = load_config(CONFIGS.parent / path).with_overrides(**overrides)
    steering, d, params = build_steering_set(cfg.geometry, cfg.grid), cfg.template, cfg.params
    n = steering.n_elements
    assert params.max_iters == 40 and params.seed == 0
    assert isinstance(admm_mod._w_solver(n).__self__, admm_mod._ConjugateGradients)
    monkeypatch.setattr(admm_mod, "_Cholesky", CountedCholesky)
    monkeypatch.setattr(CountedCholesky, "built", [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w_spectral, _, trace_spectral = solve(steering, d, params)
    assert CountedCholesky.built == [n]
    force_path(monkeypatch, "dense")
    w_dense, _, trace_dense = solve(steering, d, params)
    assert trace_spectral.iter.size == trace_dense.iter.size == params.max_iters + 1
    threshold = cfg.cardinality_threshold
    selected = cardinality(w_spectral, threshold), cardinality(w_dense, threshold)
    assert abs(selected[0] - selected[1]) <= 0.01 * n, selected
    errors = trace_spectral.matching_error_db[-1], trace_dense.matching_error_db[-1]
    assert abs(errors[0] - errors[1]) <= 0.1, errors


def no_posv(*args):
    """A zposv that fails the test that calls it; None would leave it to be bound."""
    raise AssertionError("zposv was called")


class TestConjugateGradientWBlock:
    """The w block's conjugate gradients, on the spectral path."""

    @pytest.mark.parametrize("n", [223, 224, 256, 331, 509, 512])
    def test_matches_a_dense_solve_and_is_first_order_optimal(self, monkeypatch, n):
        # the conjugate gradients converge on each of these systems, so no case falls back to
        # posv; at N = 331 and 509 the preconditioner's circulant has more points than N. The
        # dense system is formed from data_fit_gram and T_d's per-angle sum, on the 721-angle
        # grid of large_array
        monkeypatch.setattr(admm_mod, "_posv", no_posv)
        rng = np.random.default_rng(80 + n)
        grid = AngleGrid.uniform(-90, 90, 0.25)
        steering = build_steering_set(ArrayGeometry(n), grid)
        d = build_template(grid, [MainlobeSpec(22, 28, 1000.0)])
        params = SolverParams(lam=0.1, rho=30.0)
        v, u, alpha = unit(rng, n), 0.1 * random_complex(rng, n), 0.03
        diag = majorizer_diag(unit(rng, n))
        w_hat = solve_weight_system(steering, v, u, alpha, d, diag, params)
        gram = params.lam * data_fit_gram(steering, v)
        c = steering.vectors.conj() @ v
        rhs_match = params.lam * alpha * ((d.values * c) @ steering.vectors)
        rhs = rhs_match + (params.rho / 2) * (v - u)
        matrix = gram + np.diag(diag + params.rho / 2)
        dense = np.linalg.solve(matrix, rhs)
        assert np.linalg.norm(w_hat - dense) <= 1e-10 * np.linalg.norm(dense)
        # criterion 5's first-order residual of the w block
        residual = gram @ w_hat + diag * w_hat - rhs_match + (params.rho / 2) * (w_hat - (v - u))
        assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("step", [1.0, 0.25])
    @pytest.mark.parametrize("n", [223, 256, 331, 509])
    def test_the_preconditioner_samples_the_fejer_mean_of_the_symbol(self, n, step):
        # before mean(shift), the eigenvalues of the preconditioner's circulant on
        # M = good size(N) points are e^H (lam G) e / N at e_n = exp(2 pi i n k / M), the
        # Fejer mean of lam G's symbol, which is >= 0 to rounding since lam G is positive
        # semidefinite. The solver leaves them in its buffer, transformed in place, where the
        # second of two systems must not read the first's. At N = 256 = M the circulant is
        # T. Chan's, with the weights and the bits it had when it took N points alone
        rng = np.random.default_rng(90 + n)
        steering = build_steering_set(ArrayGeometry(n), AngleGrid.uniform(-90, 90, step))
        lam, v = 0.1, unit(rng, n)
        first, mv = moments_of(steering, None, unit(rng, n), v)
        solver = admm_mod._ConjugateGradients(n)
        shift = majorizer_diag(unit(rng, n)) + 15.0
        for moments in (first, mv):
            solver.solve(lam, moments.gram, random_complex(rng, n), shift)
        points = smallest_11_smooth(n)
        eigenvalues = solver.chan
        assert eigenvalues.size == points
        phases = np.exp(2j * np.pi * np.outer(np.arange(n), np.arange(points)) / points)
        gram = lam * data_fit_gram(steering, v)
        fejer = np.sum(phases.conj() * (gram @ phases), axis=0) / n
        scale = np.abs(fejer).max()
        assert np.abs(eigenvalues - fejer).max() <= 1e-12 * scale
        assert eigenvalues.real.min() >= -1e-12 * scale
        if n == 256:
            j = np.arange(n)
            t = lam * mv.gram
            chan = (n - j) / n * t[n - 1 :]
            chan[1:] += j[1:] / n * t[: n - 1]
            assert eigenvalues.tobytes() == scipy.fft.fft(chan).tobytes()

    def test_zero_right_hand_side_gives_zero(self):
        # v = u and alpha = 0 make b = 0, whose solution is 0 by either solver; the conjugate
        # gradients return it before they scale b by 1 / ||b||
        rng = np.random.default_rng(82)
        steering, d = random_instance(rng, n=CROSSOVER, k=40)
        v = unit(rng, CROSSOVER)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w_hat = solve_weight_system(steering, v, v, 0.0, d, majorizer_diag(v),
                                        SolverParams(lam=0.2, rho=5.0))
        assert np.array_equal(w_hat, np.zeros(CROSSOVER))

    def problem(self):
        rng = np.random.default_rng(81)
        steering, d = random_instance(rng, n=CROSSOVER, k=40)
        return steering, d, SolverParams(lam=0.2, rho=5.0, eta=1e-300, max_iters=10)

    def assert_ends_sweep_3(self, steering, d, params, match, observer=None):
        # no numpy warning and no bare exception: the sweep's NumericalError becomes a
        # DivergenceError with the rows of sweeps 0-2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="iteration 3") as excinfo:
                solve(steering, d, params, observer=observer)
        assert isinstance(excinfo.value.__cause__, NumericalError)
        assert match in str(excinfo.value.__cause__)
        assert excinfo.value.trace.iter.tolist() == [0, 1, 2]

    def test_no_convergence_within_n_iterations_falls_back_to_cholesky(self, monkeypatch):
        # from sweep 3 on the tolerance is 0, which no residual meets in the N iterations: each
        # of those systems is then solved by the one Cholesky solver built on the first of
        # them, with the bits of the dense path's solve of the same system, and the solve runs
        # its whole budget without a numpy warning
        steering, d, params = self.problem()
        n = steering.n_elements
        states, systems = [], []
        real_solve = admm_mod._ConjugateGradients.solve

        def recorded(self, lam, gram, rhs, shift):
            system = (lam, gram.copy(), rhs.copy(), shift.copy())
            solution = real_solve(self, lam, gram, rhs, shift)
            systems.append((system, solution.copy()))  # the sweep projects it in place
            return solution

        def observer(state):
            states.append(state)
            if len(states) == 2:
                monkeypatch.setattr(admm_mod, "_CG_TOLERANCE", 0.0)

        monkeypatch.setattr(admm_mod._ConjugateGradients, "solve", recorded)
        monkeypatch.setattr(admm_mod, "_Cholesky", CountedCholesky)
        monkeypatch.setattr(CountedCholesky, "built", [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, _, trace = solve(steering, d, params, observer=observer)
        assert trace.iter.size == params.max_iters + 1
        assert len(systems) == params.max_iters
        assert CountedCholesky.built == [n]
        for system, solution in systems[2:]:
            lam, gram, rhs, shift = system
            dense = admm_mod._Cholesky(n).solve(lam, gram, rhs, shift)
            assert solution.tobytes() == dense.tobytes()

    def test_nan_right_hand_side_ends_in_divergence(self, monkeypatch):
        # the blocks' right-hand sides alternate, data block first: call 6 is sweep 3's w block
        steering, d, params = self.problem()
        calls = {"count": 0}
        real_rhs = admm_mod._rhs

        def poisoned(*args):
            calls["count"] += 1
            rhs = real_rhs(*args)
            if calls["count"] == 6:
                rhs[CROSSOVER // 2] = np.nan
            return rhs

        monkeypatch.setattr(admm_mod, "_rhs", poisoned)
        self.assert_ends_sweep_3(steering, d, params, "non-finite residual")

    def test_a_solve_holds_no_n_by_n_matrix(self):
        # at N = 512 the Cholesky solver's matrix alone would be N^2 * 16 bytes = 4 MiB
        n = 512
        grid = AngleGrid.uniform(-90, 90, 1.0)
        steering = build_steering_set(ArrayGeometry(n), grid)
        d = build_template(grid, [MainlobeSpec(22, 28)])
        params = SolverParams(max_iters=3)
        tracemalloc.start()
        try:
            _, _, trace = solve(steering, d, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.iter.size == 4
        assert peak < n * n * 16


def assert_same_bytes(got, want):
    """Two solves' w, alpha and every trace column, byte for byte."""
    (w_got, alpha_got, trace_got), (w_want, alpha_want, trace_want) = got, want
    assert w_got.tobytes() == w_want.tobytes()
    assert np.float64(alpha_got).tobytes() == np.float64(alpha_want).tobytes()
    for name in TRACE_FIELDS:
        assert getattr(trace_got, name).tobytes() == getattr(trace_want, name).tobytes(), name


@pytest.mark.parametrize("n", [6, 30, 256])
def test_the_w_block_reads_only_its_lower_triangle(monkeypatch, n):
    # posv factors the lower triangle (lower = 1), so NaN in the strict upper triangle of the
    # matrix it is handed changes no bit of the solve; at N = 256, where the dense path is
    # forced past the crossover, OpenBLAS factors by blocks
    force_path(monkeypatch, "dense")
    if n == 6:
        steering, d = random_instance(np.random.default_rng(55), n=6, k=9)
        params = SolverParams(lam=0.2, rho=5.0, eta=1e-300, max_iters=30, seed=3)
    elif n == 30:
        steering, d, params = config_problem("single_mainlobe", max_iters=40)
    else:
        cfg = load_config(CONFIGS.parent / "benchmarks" / "large_array.json")
        cfg = cfg.with_overrides(max_iters=5)
        steering, d, params = build_steering_set(cfg.geometry, cfg.grid), cfg.template, cfg.params
    assert steering.n_elements == n
    lone = solve(steering, d, params)
    posv = bound("_posv")
    calls = []

    def upper_poisoned(a, *args):
        calls.append(a.shape)
        a[np.triu_indices(a.shape[0], 1)] = np.nan
        return posv(a, *args)

    monkeypatch.setattr(admm_mod, "_posv", upper_poisoned)
    assert_same_bytes(solve(steering, d, params), lone)
    assert calls == [(n, n)] * params.max_iters


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


def assert_same_solve(got, want):
    (w_got, alpha_got, trace_got), (w_want, alpha_want, trace_want) = got, want
    assert np.array_equal(w_got, w_want)
    assert alpha_got == alpha_want
    for name in TRACE_FIELDS:
        assert np.array_equal(getattr(trace_got, name), getattr(trace_want, name))


class TestNoWorkspaceOutlivesItsCall:
    """Each solve and each public block call allocates its own workspace, so concurrent solves
    share no mutable state, and a block's result is not a view of a reused buffer."""

    def problem(self, seed, n=6, sweeps=40):
        # a tiny eta runs the whole budget, so two solves make the same kernel calls; at
        # N = CROSSOVER each solve and block call takes its moments by FFT from its own spectra
        rng = np.random.default_rng(58)
        steering, d = random_instance(rng, n=n, k=9)
        return steering, d, SolverParams(lam=0.2, rho=5.0, eta=1e-300, max_iters=sweeps,
                                         seed=seed)

    def test_solve_inside_an_observer_equals_a_lone_solve(self):
        self.check_nested(self.problem(6))

    def test_solve_inside_an_observer_equals_a_lone_solve_at_the_crossover(self):
        self.check_nested(self.problem(6, n=CROSSOVER, sweeps=8))

    def check_nested(self, outer):
        # the inner solve has the outer's size but its own lam and rho
        steering, d, params = outer
        inner = (steering, d, replace(params, lam=0.7, rho=9.0, seed=7))
        lone_outer, lone_inner = solve(*outer), solve(*inner)
        nested = []
        assert_same_solve(solve(*outer, observer=lambda _: nested.append(solve(*inner))),
                          lone_outer)
        assert len(nested) == params.max_iters
        for result in nested:
            assert_same_solve(result, lone_inner)

    def test_solves_on_two_threads_equal_lone_solves(self, monkeypatch):
        self.check_threads(monkeypatch, [self.problem(seed) for seed in (6, 7)])

    def test_solves_on_two_threads_equal_lone_solves_at_the_crossover(self, monkeypatch):
        self.check_threads(monkeypatch, [self.problem(seed, CROSSOVER, 8) for seed in (6, 7)])

    def check_threads(self, monkeypatch, problems):
        lone = [solve(*problem) for problem in problems]
        # each block's kernel call waits for the other thread's, so both threads have formed
        # that block's system before either solves it: a shared buffer would hold only one
        both = threading.Barrier(2, timeout=60)

        def in_step(kernel):
            def call(*args, **kwargs):
                both.wait()
                return kernel(*args, **kwargs)

            return call

        for name in ("_levinson", "_posv"):
            monkeypatch.setattr(admm_mod, name, in_step(getattr(admm_mod, name)))
        results = [None, None]

        def run(i):
            try:
                results[i] = solve(*problems[i])
            except BaseException:  # release the other thread from its wait
                both.abort()
                raise

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        for got, want in zip(results, lone):
            assert_same_solve(got, want)

    def test_block_solutions_share_no_memory(self):
        rng = np.random.default_rng(59)
        steering, d, params = self.problem(0)
        v, u, diag = unit(rng, 6), 0.1 * random_complex(rng, 6), majorizer_diag(unit(rng, 6))
        for block in (lambda: solve_weight_system(steering, v, u, 0.8, d, diag, params),
                      lambda: update_v(steering, v, u, 0.8, d, params)):
            first, second = block(), block()
            assert np.array_equal(first, second)
            assert not np.shares_memory(first, second)


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
