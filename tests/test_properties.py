"""Property and fault-injection tests at the solver's public boundary.

Whatever the drawn array, grid, template and parameters, ``solve`` either
returns finite unit-norm weights with a finite template scale, or raises a
typed ``BeamsparseError``; it never lets a bare numpy or LAPACK error out.
The same holds one boundary further out, for arbitrary JSON config documents,
and for every numeric argument of every public callable in ``test_boundary``'s
registry given its valid value scaled toward the ends of the float range: a
finite result or a typed error, with no numpy warning.
"""

import json
import subprocess
import sys
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
    NumericalError,
    SolverParams,
    Trace,
    build_steering_set,
    build_template,
    initial_state,
    parse_config,
    project_unit_sphere,
    solve,
)
from beamsparse.arrays import _project_unit_sphere
from beamsparse.entropy import UNIT_NORM_TOL
from test_boundary import HELD, REGISTRY, STATE, call_with, valid_args

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


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(1, 512), st.floats(-150.0, 150.0, **finite), st.floats(0.0, 100.0, **finite),
       st.floats(0.0, 0.9, **finite), st.integers(0, 2**32 - 1))
def test_projection_has_unit_power_within_the_entropys_tolerance(n, log_norm, spread, zeros,
                                                                 seed):
    # solve checks the unit power of its initial w only; every later w is a projection,
    # whose powers the sweep takes as they are. Entries span up to 10^spread in modulus,
    # some are exactly zero, and the whole vector has a norm of 10^log_norm
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.uniform(0, spread, n)
    x[rng.random(n) < zeros] = 0.0
    x[rng.integers(n)] = 1.0
    x *= 10.0**log_norm / np.linalg.norm(x)
    w = _project_unit_sphere(x)
    assert abs(float((np.abs(w) ** 2).sum()) - 1.0) <= UNIT_NORM_TOL


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


def leaves(name):
    """The numeric arguments of a registry entry, and "arg.field" for each numeric field of a
    held type that an argument takes."""
    found = []
    for arg, (kind, _) in REGISTRY[name][1].items():
        if kind.held:
            found += [f"{arg}.{field}" for field in leaves(kind.held)]
        elif kind.numeric:
            found.append(arg)
    return found


def scaled_args(name, powers):
    """The entry's valid arguments with each drawn leaf scaled by its 10^k."""
    args = valid_args(name)
    for leaf, k in powers.items():
        arg, _, field = leaf.partition(".")
        if field:
            args[arg] = replace(args[arg], **{field: getattr(args[arg], field) * 10.0 ** k})
        else:
            args[arg] = args[arg] * 10.0 ** k
    return args


def numbers(result):
    """The numbers a call returns; +inf in a trace's objective and lagrangian reads as 0."""
    for part in result if isinstance(result, tuple) else (result,):
        if isinstance(part, Trace):
            yield from (np.where(column == np.inf, 0.0, column)
                        if name in ("objective", "lagrangian") else column
                        for name, column in vars(part).items())
        elif isinstance(part, (float, np.ndarray)):
            yield part


SCALED = sorted(name for name in REGISTRY if name not in HELD and leaves(name))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A scratch working directory, for the artifacts of ``write_outputs``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(tmp_path_factory.mktemp("scaled"))
        yield


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(st.sampled_from(SCALED).flatmap(lambda name: st.tuples(st.just(name), st.dictionaries(
    st.sampled_from(leaves(name)), st.integers(-300, 308), min_size=1))))
def test_scaled_inputs_give_a_finite_result_or_a_typed_error(workdir, call):
    # one or more numeric arguments of a registry entry, solve's start state by its fields,
    # scaled by 10^k
    name, powers = call
    with np.errstate(over="ignore"):  # a scaled input may itself overflow to inf
        args = scaled_args(name, powers)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = REGISTRY[name][0](**args)
        except BeamsparseError:
            return
    assert all(np.isfinite(number).all() for number in numbers(result))


HUGE = np.full(6, 1e200 + 0j)
# a registry call and the finite arguments that overflow its intermediates: each must end in
# its typed error, not in a numpy warning or a non-finite result
OVERFLOWING_CALLS = {
    "entropy": ("entropy", {"w": HUGE}, ContractError, "unit total power"),
    "majorizer_diag": ("majorizer_diag", {"w_anchor": HUGE}, ContractError, "unit total power"),
    "majorizer_value": ("majorizer_value", {"w": HUGE}, ContractError, "unit total power"),
    "solve-initial_w":
        ("solve", {"init": replace(STATE, w=HUGE)}, ContractError, "unit total power"),
    "solve-initial_w_max": ("solve", {"init": replace(STATE, w=1e308 * STATE.w)}, ContractError,
                            "unit total power"),
    "project_unit_sphere":
        ("project_unit_sphere", {"x": np.full(6, 1e155)}, ContractError, "overflows"),
    "update_alpha": ("update_alpha", {"w": HUGE, "v": HUGE}, ContractError, "overflows"),
    "update_v": ("update_v", {"alpha": 1e307}, NumericalError, "non-finite entries"),
    "solve_weight_system":
        ("solve_weight_system", {"alpha": 1e307}, NumericalError, "non-finite entries"),
    "data_fit_gram": ("data_fit_gram", {"x": 1e160 * STATE.w}, ContractError, "overflows"),
    "write_outputs": ("write_outputs", {"w": HUGE}, ContractError, "overflow"),
    # the start state's first trace row: the gap ||w - v + u||^2 overflows
    "solve-initial_u": ("solve", {"init": replace(STATE, u=HUGE)}, NumericalError,
                        "iterates turned non-finite"),
    "solve-initial_v": ("solve", {"init": replace(STATE, v=1e308 * STATE.v)}, NumericalError,
                        "iterates turned non-finite"),
    # or breaks the Trace rule: alpha^2 d^T d overflows, the matching error is inf, or
    # sum_k |r_k|^2 is NaN
    "solve-initial_alpha": ("solve", {"init": replace(STATE, alpha=1e154)}, ContractError,
                            "matching_error_db must be finite"),
    "solve-initial_tiny_alpha": ("solve", {"init": replace(STATE, alpha=1e-160)}, ContractError,
                                 "matching_error_db must be finite"),
    "solve-initial_v_lagrangian": ("solve", {"init": replace(STATE, v=1e154 * STATE.v)},
                                   ContractError, "lagrangian must not hold NaN"),
}


@pytest.mark.parametrize("call", sorted(OVERFLOWING_CALLS))
def test_finite_inputs_that_overflow_raise_a_typed_error(call, tmp_path, monkeypatch):
    name, changes, error, match = OVERFLOWING_CALLS[call]
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            call_with(name, **changes)
    assert not any(tmp_path.iterdir())


# a failing property, then a passing test, run under the repository's pytest settings
FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
"""


def test_a_failing_property_is_reported_and_the_session_goes_on(tmp_path):
    # on a failure Hypothesis imports libcst, which warns with a DeprecationWarning that the
    # settings' error::DeprecationWarning would turn into an INTERNALERROR ending the session
    (tmp_path / "test_probe.py").write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c",
         str(Path(__file__).resolve().parents[1] / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_probe.py"], cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
