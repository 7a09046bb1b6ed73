"""The package's public boundary, declared once: every public function, each public type's
constructor and ``AngleGrid.uniform``, with one valid call and the kind of each argument.

Every bad input is generated from the kinds, and each must end in a typed
``BeamsparseError`` with all warnings as errors and with nothing written. A public name
with no entry, or an entry whose arguments are not its parameters, fails the suite. Range
rules that are not a kind (rho > 2, a threshold in (0, 1), visible angles, lobe order, unit
power) are tested by their owners' test files.
"""

import inspect
import math
import os
import tempfile
import warnings
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple, Optional

import numpy as np
import pytest

import beamsparse
from beamsparse import (
    AdmmState,
    AngleGrid,
    ArrayGeometry,
    BeamsparseError,
    DesiredPattern,
    ExperimentConfig,
    MainlobeSpec,
    RunReport,
    SolverParams,
    SteeringSet,
    Trace,
    beampattern,
    build_steering_set,
    build_template,
    cardinality,
    config_to_dict,
    converged,
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
    run_experiment,
    serialize_config,
    solve,
    solve_weight_system,
    update_alpha,
    update_v,
    write_outputs,
)

nan, inf = math.nan, math.inf
# every scalar that is not a real number, rejected wherever a real scalar is due
NON_REAL = {"str": "x", "numeric_str": "0.5", "none": None, "bool": True, "complex": 1 + 2j,
            "array": np.ones(2), "list": [1.0], "huge_int": 10**400}


class Kind(NamedTuple):
    """What an argument may be: ``bad`` maps its valid value to every bad one, by case id."""

    bad: Callable[[object], dict]
    numeric: bool = False  # scaled by tests/test_properties.py's 10^k property
    held: Optional[str] = None  # the entry of a type whose fields the taker checks


def with_entry(x, value):
    """A float (or complex) copy of x whose entry 1 is value."""
    x = np.array(x, np.result_type(x, 1.0))
    x[1] = value
    return x


def vector(sized=True, real=False, powers=False):
    """A non-empty 1-D array of finite numbers, of the array's or grid's length (or another
    vector's) if sized, complex unless real, nonnegative if powers."""
    def bad(x):
        cases = {"none": None, "empty": x[:0], "2-D": x[None], "nan": with_entry(x, nan),
                 "inf": with_entry(x, inf), "-inf": with_entry(x, -inf), "str": ["1"] * x.size,
                 "ragged": [x[0], list(x[1:])], "huge_int": [10**400] * x.size,
                 "bool": [True] * x.size}
        if sized:
            cases["short"] = x[:-1]
        if real:
            cases["complex"] = x + 0j
        if powers:
            cases["negative"] = -x
        return cases
    return Kind(bad, numeric=True)


def column(*values):
    """A 1-D real numpy array with one entry per trace row; it rejects the named values."""
    def bad(x):
        named = {"nan": nan, "inf": inf, "-inf": -inf, "negative": -1.0}
        cases = {"none": None, "list": x.tolist(), "2-D": x[None], "complex": x + 0j,
                 "bool": x > 0, "str": x.astype(str), "short": x[:1], "empty": x[:0]}
        cases |= {case: with_entry(x, named[case]) for case in values if case in named}
        if "shifted" in values:
            cases["shifted"] = x + 1
        return cases
    return Kind(bad, numeric=True)


def typed(optional=False, held=None):
    """An object of one type (a package type, str, path or callable), or None if optional; a
    held type's fields take the bad values of their kinds."""
    def bad(x):
        cases = {"object": object(), **({} if optional else {"none": None})}
        if held:
            cases |= {f"{field}-{case}": call_with(held, **{field: value})
                      for field, (kind, valid) in REGISTRY[held][1].items()
                      for case, value in kind.bad(valid).items()}
        return cases
    return Kind(bad, held=held)


N = vector()  # complex
N_REAL = vector(real=True)
K_POWERS = vector(real=True, powers=True)
ANY = vector(sized=False)
ANY_REAL = vector(sized=False, real=True)
ANY_POWERS = vector(sized=False, real=True, powers=True)
MASK = Kind(lambda m: {"none": None, "empty": m[:0], "2-D": m[None], "short": m[:-1],
                       "str": ["1"] * m.size, "ragged": [m[0], list(m[1:])],
                       "float": m.astype(float), "int": m.astype(int)})
REAL = Kind(lambda x: NON_REAL | {"nan": nan, "inf": inf, "-inf": -inf}, numeric=True)
TOLERANCE = Kind(lambda x: NON_REAL | {"nan": nan, "-inf": -inf}, numeric=True)  # +inf: 1 sweep
COUNT = Kind(lambda x: {"none": None, "str": "1", "bool": True, "float": 2.5, "negative": -1})
LOBES = Kind(lambda lobes: {"none": None, "empty": (), "object": (object(),)})
TYPED = typed()
# a template on the steering set's grid
TEMPLATE_KIND = Kind(lambda d: TYPED.bad(d) | {
    "short": DesiredPattern(d.values[:-1], d.mainlobe_mask[:-1])})

# a 6-element array on a 10-angle grid, with a solve of at most 3 sweeps, written to ./out
CFG = ExperimentConfig(n_elements=6, grid_step_deg=20.0, mainlobes=(MainlobeSpec(-10.0, 30.0),),
                       sidelobe_level=1.0, rho=5.0, max_iters=3, seed=3, output_dir="out")
STEERING = build_steering_set(CFG.geometry, CFG.grid)
START = initial_state(STEERING, CFG.params)
RNG = np.random.default_rng(81)
U, X = (0.1 * (RNG.standard_normal(6) + 1j * RNG.standard_normal(6)) for _ in range(2))
STATE = AdmmState(0.8, START.v, START.w, U)
PATTERN = beampattern(STEERING, STATE.w)
# objective and lagrangian may read inf, and the entropy of one-hot weights rounds below 0
TRACE = Trace(np.arange(3), np.array([2.0, inf, 1.5]), np.array([2.5, -4e-16, 1.5]),
              np.array([0.3, 0.1, 0.0]), np.array([0.8, -0.2, 0.5]),
              np.array([-3.0, -300.0, 2.0]), np.array([0.0, 0.5, 1e-9]))
REPORT = RunReport(2, -3.0, -5.0, 0.01, TRACE)
STEER, D, PARAMS = (TYPED, STEERING), (TEMPLATE_KIND, CFG.template), (TYPED, CFG.params)
V, W, ALPHA = (N, STATE.v), (N, STATE.w), (REAL, STATE.alpha)


def of(obj, **kinds):
    """An entry's arguments: each named field of obj, of its kind, with obj's value."""
    return {name: (kind, getattr(obj, name)) for name, kind in kinds.items()}


# name -> (the callable, {argument: (its kind, a valid value)}), arguments in signature order
REGISTRY = {
    "AdmmState": (AdmmState, of(STATE, alpha=REAL, v=N, w=N, u=N)),
    "AngleGrid": (AngleGrid, of(CFG.grid, angles_deg=ANY_REAL)),
    "AngleGrid.uniform": (AngleGrid.uniform, dict(
        start_deg=(REAL, -90.0), stop_deg=(REAL, 90.0), step_deg=(REAL, 20.0))),
    "ArrayGeometry": (ArrayGeometry, of(CFG.geometry, n_elements=COUNT, spacing_ratio=REAL)),
    "DesiredPattern": (DesiredPattern, of(CFG.template, values=ANY_POWERS, mainlobe_mask=MASK)),
    "ExperimentConfig": (ExperimentConfig, of(
        CFG, n_elements=COUNT, spacing_ratio=REAL, grid_start_deg=REAL, grid_stop_deg=REAL,
        grid_step_deg=REAL, mainlobes=LOBES, sidelobe_level=REAL, lam=REAL, rho=REAL,
        eta=TOLERANCE, max_iters=COUNT, seed=COUNT, cardinality_threshold=REAL,
        output_dir=TYPED)),
    "MainlobeSpec": (MainlobeSpec, of(CFG.mainlobes[0], start_deg=REAL, end_deg=REAL,
                                      level=REAL)),
    "RunReport": (RunReport, of(REPORT, cardinality=COUNT, matching_error_db=REAL,
                                peak_sidelobe_db=REAL, runtime_seconds=REAL, trace=TYPED)),
    "SolverParams": (SolverParams, of(CFG.params, lam=REAL, rho=REAL, eta=TOLERANCE,
                                      max_iters=COUNT, seed=COUNT)),
    "SteeringSet": (SteeringSet, of(STEERING, geometry=TYPED, grid=TYPED)),
    "Trace": (Trace, of(TRACE, iter=column("nan", "inf", "shifted"),
                        objective=column("nan", "-inf"), lagrangian=column("nan", "-inf"),
                        primal_residual=column("nan", "inf", "-inf", "negative"),
                        alpha=column("nan", "inf", "-inf"),
                        matching_error_db=column("nan", "inf", "-inf"),
                        w_change=column("nan", "inf", "-inf", "negative"))),
    "beampattern": (beampattern, dict(steering=STEER, w=W)),
    "build_steering_set": (build_steering_set, dict(geometry=(TYPED, CFG.geometry),
                                                    grid=(TYPED, CFG.grid))),
    "build_template": (build_template, dict(grid=(TYPED, CFG.grid), lobes=(LOBES, CFG.mainlobes),
                                            sidelobe_level=(REAL, 1.0))),
    "cardinality": (cardinality, dict(w=(ANY, STATE.w), rel_threshold=(REAL, 1e-3))),
    "config_to_dict": (config_to_dict, dict(cfg=(TYPED, CFG))),
    "converged": (converged, dict(trace=(TYPED, TRACE), eta=(TOLERANCE, 1e-8))),
    "data_fit_gram": (data_fit_gram, dict(steering=STEER, x=(N, X))),
    "entropy": (entropy, dict(w=(ANY, STATE.w))),
    "entropy_gradient": (entropy_gradient, dict(p=(ANY_POWERS, np.abs(STATE.w) ** 2))),
    "initial_state": (initial_state, dict(steering=STEER, params=PARAMS)),
    "load_config": (load_config, dict(path=(
        TYPED, Path(__file__).resolve().parents[1] / "configs" / "single_mainlobe.json"))),
    "majorizer_diag": (majorizer_diag, dict(w_anchor=(ANY, STATE.w))),
    "majorizer_value": (majorizer_value, dict(
        w=(ANY, STATE.w), w_anchor=(N, project_unit_sphere(STATE.v + STATE.w)))),
    "matching_error_db": (matching_error_db, dict(pattern=(K_POWERS, PATTERN), alpha=ALPHA, d=D)),
    "parse_config": (parse_config, dict(text=(TYPED, serialize_config(CFG)))),
    "peak_sidelobe_db": (peak_sidelobe_db, dict(
        pattern=(ANY_POWERS, PATTERN), mask=(MASK, CFG.template.mainlobe_mask))),
    "project_unit_sphere": (project_unit_sphere, dict(x=(ANY, X))),
    "run_experiment": (run_experiment, dict(cfg=(TYPED, CFG))),
    "serialize_config": (serialize_config, dict(cfg=(TYPED, CFG))),
    "solve": (solve, dict(steering=STEER, d=D, params=PARAMS,
                          init=(typed(optional=True, held="AdmmState"), STATE),
                          observer=(typed(optional=True), lambda state: None))),
    "solve_weight_system": (solve_weight_system, dict(
        steering=STEER, v=V, u=(N, U), alpha=ALPHA, d=D,
        diag=(N_REAL, majorizer_diag(STATE.w)), params=PARAMS)),
    "update_alpha": (update_alpha, dict(steering=STEER, w=W, v=V, d=D)),
    "update_v": (update_v, dict(steering=STEER, w=W, u=(N, U), alpha=ALPHA, d=D, params=PARAMS)),
    "write_outputs": (write_outputs, dict(report=(TYPED, REPORT), cfg=(TYPED, CFG), w=W,
                                          pattern=(K_POWERS, PATTERN))),
}
# the types that check nothing themselves: the argument that takes one checks its fields
HELD = {kind.held for _, args in REGISTRY.values() for kind, _ in args.values()} - {None}
# the public names that are not called: the error types the calls raise, and a constant
NOT_CALLED = {"BeamsparseError", "ConfigurationError", "ContractError", "DegenerateInputError",
              "DivergenceError", "NumericalError", "POWER_FLOOR"}


def valid_args(name):
    return {arg: value for arg, (_, value) in REGISTRY[name][1].items()}


def call_with(name, **changes):
    """The entry's valid call with the named arguments changed."""
    return REGISTRY[name][0](**valid_args(name) | changes)


# case id -> (entry, argument, bad value), for every bad value of every argument's kind
BAD = {
    f"{name}-{arg}-{case}": (name, arg, value)
    for name, (_, args) in REGISTRY.items() if name not in HELD
    for arg, (kind, valid) in args.items()
    for case, value in kind.bad(valid).items()
}


def check_bad_call(case, error=BeamsparseError, match=None):
    """Make the bad call named case in an empty directory with all warnings as errors: it
    must raise error, with a message that matches match, and write nothing."""
    name, arg, value = BAD[case]
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as directory:
        os.chdir(directory)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(error, match=match):
                    call_with(name, **{arg: value})
        finally:
            os.chdir(cwd)
        assert not os.listdir(directory)


def test_every_public_name_has_an_entry_whose_arguments_are_its_parameters():
    public = {*beamsparse.__all__, "AngleGrid.uniform"} - NOT_CALLED
    assert sorted(public ^ REGISTRY.keys()) == []
    for name, (call, args) in REGISTRY.items():
        assert call.__qualname__ == name
        assert list(inspect.signature(call).parameters) == list(args)


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_valid_call_succeeds(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call_with(name)


@pytest.mark.parametrize("case", list(BAD))
def test_bad_input_raises_a_package_error(case):
    check_bad_call(case)
