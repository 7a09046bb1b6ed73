"""Property and fault-injection tests at the solver's public boundary.

Whatever the drawn array, grid, template and parameters, ``solve`` either
returns finite unit-norm weights with a finite template scale, or raises a
typed ``BeamsparseError``; it never lets a bare numpy or LAPACK error out.
The same holds one boundary further out, for arbitrary JSON config documents.
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
    MainlobeSpec,
    SolverParams,
    build_steering_set,
    build_template,
    initial_state,
    parse_config,
    project_unit_sphere,
    solve,
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
