"""Acceptance suite.

Each test exercises one release criterion at its stated tolerance and prints
one visible ``[acceptance] ... PASS/FAIL`` line. Criteria 1 and 2 encode
target selection-cardinality windows for the two reference experiments; with
the shipped default trade-off settings the solver reproduces the expected
pattern shapes and convergence behaviour but selects more elements than the
windows allow, so those two tests currently fail and are kept failing on
purpose (see the README section on reproduction status).
"""

import time

import numpy as np

from beamsparse import (
    AngleGrid,
    ArrayGeometry,
    DesiredPattern,
    MainlobeSpec,
    SolverParams,
    beampattern,
    build_steering_set,
    build_template,
    cardinality,
    entropy,
    entropy_gradient,
    inner_products,
    majorizer_diag,
    majorizer_value,
    solve,
    solve_weight_system,
    update_alpha,
    update_v,
)
from beamsparse.admm import data_fit_gram
from beamsparse.cli import main as cli_main

SEEDS = list(range(10))
CARDINALITY_THRESHOLD = 1e-3


def reference_params(seed=0, max_iters=1000):
    return SolverParams(lam=0.1, rho=30.0, eta=1e-8, max_iters=max_iters, seed=seed)


def reference_problem(lobes):
    geometry = ArrayGeometry(30, 0.5)
    grid = AngleGrid.uniform(-90.0, 90.0, 1.0)
    steering = build_steering_set(geometry, grid)
    template = build_template(grid, lobes, sidelobe_level=0.0)
    return steering, template


SINGLE_LOBE = [MainlobeSpec(22.0, 28.0, 1000.0)]
TWO_LOBES = [MainlobeSpec(-15.0, -11.0, 1000.0), MainlobeSpec(11.0, 15.0, 1000.0)]


def criterion(capfd, label, body):
    try:
        body()
    except BaseException:
        with capfd.disabled():
            print(f"\n[acceptance] {label}: FAIL", flush=True)
        raise
    with capfd.disabled():
        print(f"\n[acceptance] {label}: PASS", flush=True)


def local_maximum_angles(pattern, angles):
    """Grid angles whose pattern value is no smaller than both neighbours."""
    out = []
    for k in range(len(pattern)):
        left = pattern[k - 1] if k > 0 else -np.inf
        right = pattern[k + 1] if k < len(pattern) - 1 else -np.inf
        if pattern[k] >= left and pattern[k] >= right:
            out.append(angles[k])
    return out


def test_criterion_1_single_mainlobe_selection(capfd):
    def body():
        steering, template = reference_problem(SINGLE_LOBE)
        angles = steering.grid.angles_deg
        cards, peaks = [], []
        for seed in SEEDS:
            started = time.perf_counter()
            w, _, _ = solve(steering, template, reference_params(seed=seed))
            elapsed = time.perf_counter() - started
            assert elapsed <= 30.0, f"seed {seed} took {elapsed:.1f} s (limit 30 s)"
            cards.append(cardinality(w, CARDINALITY_THRESHOLD))
            peaks.append(float(angles[int(np.argmax(beampattern(steering, w)))]))
        for seed, peak in zip(SEEDS, peaks):
            assert 22.0 <= peak <= 28.0, f"seed {seed}: pattern peak at {peak} deg"
        median = float(np.median(cards))
        assert 14 <= median <= 24, (
            f"median cardinality {median} outside [14, 24] (per-seed {cards})"
        )

    criterion(capfd, "criterion 1 (single-mainlobe selection)", body)


def test_criterion_2_two_mainlobe_selection(capfd):
    def body():
        steering, template = reference_problem(TWO_LOBES)
        angles = steering.grid.angles_deg
        cards, lobes_ok = [], 0
        for seed in SEEDS:
            w, _, _ = solve(steering, template, reference_params(seed=seed))
            cards.append(cardinality(w, CARDINALITY_THRESHOLD))
            maxima = local_maximum_angles(beampattern(steering, w), angles)
            first = any(-16.0 <= a <= -10.0 for a in maxima)
            second = any(10.0 <= a <= 16.0 for a in maxima)
            lobes_ok += first and second
        # nonconvex problem with random restarts: the location check must
        # hold for the majority of the seeds
        assert lobes_ok > len(SEEDS) // 2, (
            f"local maxima found in both lobes for only {lobes_ok}/{len(SEEDS)} seeds"
        )
        median = float(np.median(cards))
        assert 15 <= median <= 25, (
            f"median cardinality {median} outside [15, 25] (per-seed {cards})"
        )

    criterion(capfd, "criterion 2 (two-mainlobe selection)", body)


def test_criterion_3_convergence_shape(capfd):
    def body():
        steering, template = reference_problem(SINGLE_LOBE)
        _, _, trace = solve(steering, template, reference_params(seed=0))
        probe = min(100, len(trace) - 1)
        first_step = trace[1].w_change
        assert trace[probe].w_change <= 1e-3 * first_step, (
            f"w change at iteration {probe} is {trace[probe].w_change:.3e}, "
            f"more than 1e-3 of the first step {first_step:.3e}"
        )
        final_error = trace[-1].matching_error_db
        assert abs(trace[probe].matching_error_db - final_error) <= 0.5, (
            "matching error at iteration 100 drifts more than 0.5 dB from its final value"
        )

    criterion(capfd, "criterion 3 (convergence shape)", body)


def test_criterion_4_entropy_bound_suite(capfd):
    def body():
        started = time.perf_counter()
        rng = np.random.default_rng(2024)

        def unit_weights(n, min_power):
            p = rng.standard_normal(n) ** 2 + min_power
            p /= p.sum()
            return np.sqrt(p) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))

        for _ in range(1000):
            n = int(rng.integers(2, 16))
            anchor = unit_weights(n, 1e-6)
            w = unit_weights(n, 1e-6)
            m = majorizer_diag(anchor)
            assert majorizer_value(w, m) >= entropy(w) - 1e-9
            assert abs(majorizer_value(anchor, m) - entropy(anchor)) <= 1e-10

        def reference_value(p):
            mask = p > 0
            return float(-(p[mask] * np.log(p[mask])).sum())

        for _ in range(100):
            n = 8
            p = rng.uniform(1e-6, 1.0, n)
            grad = entropy_gradient(p)
            for i in range(n):
                h = 1e-3 * p[i]
                hi, lo = p.copy(), p.copy()
                hi[i] += h
                lo[i] -= h
                fd = (reference_value(hi) - reference_value(lo)) / (2 * h)
                assert abs(fd - grad[i]) <= 1e-6 * max(1.0, abs(grad[i]))

        elapsed = time.perf_counter() - started
        assert elapsed <= 5.0, f"entropy bound suite took {elapsed:.1f} s (limit 5 s)"

    criterion(capfd, "criterion 4 (entropy bound and gradient suite)", body)


def test_criterion_5_block_optimality_oracles(capfd):
    def body():
        started = time.perf_counter()
        rng = np.random.default_rng(777)

        def grid_search_alpha(r, d):
            bound = float(np.abs(d) @ np.abs(r)) / float(d @ d) + 1.0
            lo, hi = -bound, bound
            for _ in range(40):
                grid = np.linspace(lo, hi, 201)
                costs = np.array([np.sum(np.abs(r - a * d) ** 2) for a in grid])
                best = int(np.argmin(costs))
                lo, hi = grid[max(0, best - 1)], grid[min(200, best + 1)]
            return 0.5 * (lo + hi)

        for _ in range(50):
            n, k = 5, 7
            angles = np.sort(rng.uniform(-90, 90, k))
            steering = build_steering_set(ArrayGeometry(n), AngleGrid(angles))
            values = rng.uniform(0.5, 3.0, k)
            d = DesiredPattern(values, values > 0)
            params = SolverParams(
                lam=float(rng.uniform(0.05, 1.0)), rho=float(rng.uniform(2.5, 40.0))
            )
            w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            w /= np.linalg.norm(w)
            v_in = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            alpha_in = float(rng.uniform(-2, 2))
            mats = [np.outer(a, a.conj()) for a in steering.vectors]

            # template scale: closed form against the 1-D search oracle
            r = inner_products(steering, w, v_in)
            assert abs(update_alpha(r, d) - grid_search_alpha(r, d.values)) <= 1e-6

            # bilinear samples and pattern against dense quadratic forms
            dense_r = np.array([w.conj() @ A @ v_in for A in mats])
            np.testing.assert_allclose(r, dense_r, atol=1e-10, rtol=0)
            pattern = beampattern(steering, w)
            dense_p = np.array([float(np.real(w.conj() @ A @ w)) for A in mats])
            np.testing.assert_allclose(pattern, dense_p, atol=1e-10, rtol=0)

            # auxiliary block: first-order optimality with dense matrices
            v = update_v(steering, w, u, alpha_in, d, params)
            gram_v = params.lam * sum(A.conj().T @ np.outer(w, w.conj()) @ A for A in mats)
            rhs_v = params.lam * alpha_in * sum(
                dk * (A.conj().T @ w) for dk, A in zip(d.values, mats)
            )
            residual = gram_v @ v - rhs_v + (params.rho / 2) * (v - (w + u))
            assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(
                rhs_v + (params.rho / 2) * (w + u)
            )

            # weight block before projection: first-order optimality
            m = majorizer_diag(w)
            w_hat = solve_weight_system(steering, v_in, u, alpha_in, d, m, params)
            gram_w = params.lam * sum(A @ np.outer(v_in, v_in.conj()) @ A.conj().T for A in mats)
            rhs_w = params.lam * alpha_in * sum(dk * (A @ v_in) for dk, A in zip(d.values, mats))
            residual = (
                gram_w @ w_hat + m.diag * w_hat - rhs_w + (params.rho / 2) * (w_hat - (v_in - u))
            )
            assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(
                rhs_w + (params.rho / 2) * (v_in - u)
            )

        elapsed = time.perf_counter() - started
        assert elapsed <= 10.0, f"block-optimality suite took {elapsed:.1f} s (limit 10 s)"

    criterion(capfd, "criterion 5 (block-optimality oracles)", body)


def test_criterion_6_feasibility_and_conditioning(capfd):
    def body():
        for lobes in (SINGLE_LOBE, TWO_LOBES):
            steering, template = reference_problem(lobes)
            params = reference_params(seed=0)
            states = []
            solve(steering, template, params, observer=states.append)

            for state in states:
                assert abs(np.linalg.norm(state.w) - 1.0) <= 1e-10

            # consensus violation must not grow over the run
            first_gap = float(np.linalg.norm(states[0].w - states[0].v))
            last_gap = float(np.linalg.norm(states[-1].w - states[-1].v))
            assert last_gap <= first_gap

            n = steering.n_elements
            for t in range(25, len(states), 25):
                prev, cur = states[t - 1], states[t]
                aux_system = data_fit_gram(steering, prev.w, params.lam)
                aux_system[np.diag_indices(n)] += params.rho / 2
                weight_system = data_fit_gram(steering, cur.v, params.lam)
                weight_system[np.diag_indices(n)] += (
                    majorizer_diag(prev.w).diag + params.rho / 2
                )
                assert float(np.linalg.eigvalsh(aux_system).min()) >= params.rho / 2 - 1e-9
                assert float(np.linalg.eigvalsh(weight_system).min()) >= (
                    params.rho / 2 - 1 - 1e-9
                )
                np.linalg.cholesky(aux_system)
                np.linalg.cholesky(weight_system)

    criterion(capfd, "criterion 6 (feasibility and conditioning)", body)


def test_criterion_7_determinism(capfd, tmp_path):
    def body():
        import json

        doc = {
            "mainlobes": [{"start_deg": 22.0, "end_deg": 28.0, "level": 1000.0}],
            "seed": 42,
        }
        config_path = tmp_path / "reference.json"
        config_path.write_text(json.dumps(doc))
        outputs = []
        for name in ("first", "second"):
            out_dir = tmp_path / name
            code = cli_main([
                "run", "--config", str(config_path),
                "--output-dir", str(out_dir), "--quiet",
            ])
            assert code == 0
            outputs.append(out_dir)
        for artifact in ("weights.csv", "trace.csv"):
            first = (outputs[0] / artifact).read_bytes()
            second = (outputs[1] / artifact).read_bytes()
            assert first == second, f"{artifact} differs between identical runs"

    criterion(capfd, "criterion 7 (determinism)", body)
