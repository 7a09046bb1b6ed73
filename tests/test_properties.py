"""Property and fault-injection tests at the solver's public boundary.

Whatever the drawn array, grid, template and parameters, ``solve`` either
returns finite unit-norm weights with a finite template scale, or raises a
typed ``BeamsparseError``; it never lets a bare numpy or LAPACK error out.
The same holds one boundary further out, for arbitrary JSON config documents,
and for every public numeric function given valid inputs scaled toward the ends
of the float range: a finite result or a typed error, with no numpy warning.
"""

import json
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamsparse import (
    POWER_FLOOR,
    AdmmState,
    AngleGrid,
    ArrayGeometry,
    BeamsparseError,
    ContractError,
    DesiredPattern,
    MainlobeSpec,
    NumericalError,
    SolverParams,
    beampattern,
    build_steering_set,
    build_template,
    cardinality,
    data_fit_gram,
    entropy,
    entropy_gradient,
    initial_state,
    load_config,
    majorizer_diag,
    majorizer_value,
    matching_error_db,
    parse_config,
    peak_sidelobe_db,
    project_unit_sphere,
    solve,
    solve_weight_system,
    update_alpha,
    update_v,
)

finite = {"allow_nan": False, "allow_infinity": False}


@st.composite
def mainlobes(draw):
    start = draw(st.floats(-90.0, 80.0, **finite))
    end = draw(st.floats(start + 0.5, min(start + 60.0, 90.0), **finite))
    return MainlobeSpec(start, end, draw(st.floats(1e-3, 1e4, **finite)))


@st.composite
def problems(draw):
    geometry = ArrayGeometry(draw(st.integers(2, 64)), draw(st.floats(0.1, 2.0, **finite)))
    grid = AngleGrid.uniform(-90.0, 90.0, draw(st.floats(0.5, 10.0, **finite)))
    # overlapping lobes with different levels end in a ConfigurationError
    lobes = tuple(draw(st.lists(mainlobes(), min_size=1, max_size=3)))
    sidelobe_level = draw(st.floats(0.0, 1.0, **finite))
    rho = draw(st.one_of(st.just(2.0 + 1e-12), st.floats(2.0, 80.0, exclude_min=True, **finite)))
    params = SolverParams(
        lam=draw(st.floats(0.0, 2.0, **finite)),
        rho=rho,
        max_iters=draw(st.integers(1, 20)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return geometry, grid, lobes, sidelobe_level, params


@settings(max_examples=50, derandomize=True, deadline=None)
@given(problems())
def test_solve_returns_unit_weights_or_a_typed_error(problem):
    geometry, grid, lobes, sidelobe_level, params = problem
    try:
        template = build_template(grid, lobes, sidelobe_level)
        w, alpha, trace = solve(build_steering_set(geometry, grid), template, params)
    except BeamsparseError:
        return
    assert np.isfinite(w).all()
    assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)
    assert np.isfinite(alpha)
    assert 1 <= trace.iter.size <= params.max_iters + 1


def reference_problem(n=12):
    grid = AngleGrid.uniform(-90.0, 90.0, 2.0)
    steering = build_steering_set(ArrayGeometry(n), grid)
    template = build_template(grid, [MainlobeSpec(20.0, 30.0, 1000.0)])
    params = SolverParams(lam=0.1, rho=30.0, max_iters=25, seed=4)
    return steering, template, params


@pytest.mark.parametrize("field", ["alpha", "v", "u", "w"])
def test_nan_in_the_initial_state_is_rejected(field):
    steering, template, params = reference_problem()
    start = initial_state(steering, params)
    parts = {"alpha": start.alpha, "v": start.v.copy(), "w": start.w.copy(), "u": start.u.copy()}
    if field == "alpha":
        parts["alpha"] = np.nan
    else:
        parts[field][3] = np.nan
    with pytest.raises(ContractError, match="non-finite"):
        solve(steering, template, params, init=AdmmState(**parts))


def test_weights_with_zero_elements_give_a_finite_trace():
    # the zero elements' powers sit below POWER_FLOOR, where the entropy
    # majorizer clamps its log
    steering, template, params = reference_problem()
    start = initial_state(steering, params)
    values = start.w.copy()
    values[::2] = 0.0
    w0 = project_unit_sphere(values)
    assert ((np.abs(w0) ** 2)[::2] < POWER_FLOOR).all()
    init = AdmmState(alpha=start.alpha, v=start.v, w=w0, u=start.u)
    w, alpha, trace = solve(steering, template, params, init=init)
    assert np.isfinite(w).all() and np.isfinite(alpha)
    assert trace.iter.size == params.max_iters + 1
    for k in range(trace.iter.size):
        assert np.isfinite(
            [trace.objective[k], trace.lagrangian[k], trace.primal_residual[k], trace.alpha[k],
             trace.matching_error_db[k], trace.w_change[k]]
        ).all()


REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "configs" / "single_mainlobe.json").read_text()
)
LOBE_KEYS = ["start_deg", "end_deg", "level"]
json_values = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.integers(-(10**400), 10**400),
    st.integers(-3, 100),
    st.floats(),
    st.lists(st.floats(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
edits = st.lists(st.tuples(st.sampled_from(sorted(REFERENCE) + LOBE_KEYS), json_values),
                 min_size=1, max_size=3)


@settings(max_examples=600, derandomize=True, deadline=None)
@given(edits)
def test_config_documents_solve_or_raise_a_typed_error(changes):
    # the reference document with 1-3 top-level or lobe keys set to arbitrary JSON values,
    # the lobe's first: a new "mainlobes" value replaces the lobe
    doc = json.loads(json.dumps(REFERENCE))
    for key, value in sorted(changes, key=lambda change: change[0] not in LOBE_KEYS):
        (doc["mainlobes"][0] if key in LOBE_KEYS else doc)[key] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cfg = parse_config(json.dumps(doc))
            params = replace(cfg.params, max_iters=min(cfg.max_iters, 3))
            solve(build_steering_set(cfg.geometry, cfg.grid), cfg.template, params)
        except BeamsparseError:
            pass


def scaled_problem():
    """A 6-element, 10-angle problem and one valid value of each numeric argument."""
    grid = AngleGrid.uniform(-90.0, 90.0, 20.0)
    steering = build_steering_set(ArrayGeometry(6), grid)
    template = build_template(grid, [MainlobeSpec(-10.0, 30.0, 1000.0)], 1.0)
    start = initial_state(steering, SolverParams(seed=3))
    rng = np.random.default_rng(81)
    base = {
        "w": start.w,
        "v": start.v,
        "anchor": project_unit_sphere(start.v + start.w),
        "u": 0.1 * (rng.standard_normal(6) + 1j * rng.standard_normal(6)),
        "x": rng.standard_normal(6) + 1j * rng.standard_normal(6),
        "p": np.abs(start.w) ** 2,
        "diag": majorizer_diag(start.w),
        "pattern": beampattern(steering, start.w),
        "alpha": 0.8,
        "d": template.values,
        "lam": 0.1,
    }
    return steering, template.mainlobe_mask, base


STEERING, MASK, BASE = scaled_problem()
# each public numeric function, the arguments it takes of BASE, and the call; "d" is the
# template's values and "lam" the solver's weight, from which the call's objects are built
NUMERIC_CALLS = {
    "update_alpha": ("w v d", lambda a: update_alpha(STEERING, a["w"], a["v"], a["d"])),
    "update_v": ("w u alpha d lam",
                 lambda a: update_v(STEERING, a["w"], a["u"], a["alpha"], a["d"], a["params"])),
    "solve_weight_system": ("v u alpha d diag lam", lambda a: solve_weight_system(
        STEERING, a["v"], a["u"], a["alpha"], a["d"], a["diag"], a["params"])),
    "data_fit_gram": ("x", lambda a: data_fit_gram(STEERING, a["x"])),
    "beampattern": ("w", lambda a: beampattern(STEERING, a["w"])),
    "project_unit_sphere": ("x", lambda a: project_unit_sphere(a["x"])),
    "entropy": ("w", lambda a: entropy(a["w"])),
    "entropy_gradient": ("p", lambda a: entropy_gradient(a["p"])),
    "majorizer_diag": ("w", lambda a: majorizer_diag(a["w"])),
    "majorizer_value": ("w anchor", lambda a: majorizer_value(a["w"], a["anchor"])),
    "cardinality": ("w", lambda a: cardinality(a["w"])),
    "matching_error_db": ("pattern alpha d",
                          lambda a: matching_error_db(a["pattern"], a["alpha"], a["d"])),
    "peak_sidelobe_db": ("pattern", lambda a: peak_sidelobe_db(a["pattern"], MASK)),
}
# an argument keeps its value (k = 0) or is scaled by 10^k
exponents = st.one_of(st.just(0), st.integers(-300, 308))
scaled_calls = st.sampled_from(sorted(NUMERIC_CALLS)).flatmap(
    lambda name: st.tuples(st.just(name), st.fixed_dictionaries(
        {arg: exponents for arg in NUMERIC_CALLS[name][0].split()})))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(scaled_calls)
def test_scaled_inputs_give_a_finite_result_or_a_typed_error(call):
    name, powers = call
    with np.errstate(over="ignore"):  # a scaled input may itself overflow to inf
        args = {arg: BASE[arg] * 10.0 ** k for arg, k in powers.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            if "d" in args:
                args["d"] = DesiredPattern(args["d"], MASK)
            if "lam" in args:
                args["params"] = SolverParams(lam=args["lam"], rho=5.0)
            result = NUMERIC_CALLS[name][1](args)
        except BeamsparseError:
            return
    assert np.isfinite(result).all()


def single_mainlobe():
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "single_mainlobe.json")
    steering = build_steering_set(cfg.geometry, cfg.grid)
    return steering, cfg.template, cfg.params, initial_state(steering, cfg.params)


HUGE = np.full(30, 1e200 + 0j)
# finite inputs at N = 30, K = 181 whose intermediates overflow: each must end in its typed
# error, not in a numpy warning or a non-finite result
OVERFLOWING_CALLS = {
    "entropy": (ContractError, "unit total power", lambda s, d, p, x: entropy(HUGE)),
    "majorizer_diag": (ContractError, "unit total power", lambda s, d, p, x: majorizer_diag(HUGE)),
    "majorizer_value":
        (ContractError, "unit total power", lambda s, d, p, x: majorizer_value(HUGE, x.w)),
    "solve-initial_w": (ContractError, "unit total power",
                        lambda s, d, p, x: solve(s, d, p, AdmmState(1.0, x.v, HUGE, x.u))),
    "project_unit_sphere":
        (ContractError, "overflows", lambda s, d, p, x: project_unit_sphere(np.full(30, 1e155))),
    "update_alpha": (ContractError, "overflows", lambda s, d, p, x: update_alpha(s, HUGE, HUGE, d)),
    "update_v": (NumericalError, "non-finite entries",
                 lambda s, d, p, x: update_v(s, x.w, x.u, 1e307, d, p)),
    "solve_weight_system": (NumericalError, "non-finite entries", lambda s, d, p, x:
                            solve_weight_system(s, x.v, x.u, 1e307, d, majorizer_diag(x.w), p)),
    "data_fit_gram": (ContractError, "overflows", lambda s, d, p, x: data_fit_gram(s, 1e160 * x.w)),
    # the initial state's first trace row: the gap ||w - v + u||^2 overflows
    "solve-initial_u": (NumericalError, "iterates turned non-finite",
                        lambda s, d, p, x: solve(s, d, p, AdmmState(1.0, x.v, x.w, HUGE))),
}


@pytest.mark.parametrize("call", sorted(OVERFLOWING_CALLS))
def test_finite_inputs_that_overflow_raise_a_typed_error(call):
    error, match, run = OVERFLOWING_CALLS[call]
    problem = single_mainlobe()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            run(*problem)
