"""Joint beampattern matching and sparse element selection solver.

The problem is

    minimize  lam * sum_k (P_k(w) - alpha * d_k)^2 + f(w)
    over      unit-norm complex weights w and real template scale alpha,

where P_k(w) = |a_k^H w|^2 is the transmit pattern on the angle grid, d is
the desired template and f is the Shannon-entropy sparsity measure. The
quartic coupling in w is split with an auxiliary copy v of w (constraint
w = v, scaled dual u), and each sweep performs, in order:

1. closed-form least-squares refresh of the template scale alpha;
2. an exact solve of the v block (unconstrained complex least squares);
3. the diagonal entropy majorizer at the current weights, which came with
   their entropy when they were formed;
4. an exact solve of the majorized w block followed by projection back
   onto the unit sphere;
5. dual ascent on u.

The sweep repeats until the weight change drops below ``eta`` or the
iteration budget runs out. Both blocks solve a Hermitian positive definite
system whose data-fit matrix is lam * G, with G = sum_k |a_k^H x|^2 a_k a_k^H
(``data_fit_gram``), and lam is set only in ``SolverParams``. G is Hermitian
Toeplitz, since ``SteeringSet`` derives every steering vector from a uniform
linear array as a phase ramp a_k[n] = z_k^n. The v block adds
rho/2 to lam G's diagonal, which keeps it Toeplitz, and solves it by one
Levinson recursion on the diagonals in O(N^2) without forming the matrix.
The w block adds rho/2 plus the entropy majorizer's diagonal, which varies
along the diagonal, so its matrix is not Toeplitz: it is copied from its
diagonals in Fortran order and solved in place by Cholesky, in one LAPACK
posv call (it is positive definite only for rho > 2, because the majorizer
diagonal is bounded below by -1 on the sphere).

Every sum over the K grid angles that a sweep needs is a trigonometric
moment of the grid (the autocorrelation form of |A^H x|^2; Lebret & Boyd,
IEEE TSP 1997), so the sweep never touches the K x N steering matrix: from
``SteeringSet.moments`` and T_d = sum_k d_k a_k a_k^H, for which ``solve``
reads it once, it forms per iterate, in O(N^2), what ``_Moments`` lists.
Both blocks' matrices and right-hand sides, alpha = Re(w^H T_d v) / d^T d
(d^T d being ``DesiredPattern.energy``) and every raw trace scalar come
from these.

Weights, like v and u, are plain 1-D complex arrays, and the majorizer is
its real diagonal (``entropy.majorizer_diag``). ``solve`` checks its inputs
once, on entry, and then computes each intermediate once per iterate, on
private kernels that take it as an argument. Unit power of w is the
entropy's rule, so ``solve`` rejects a non-unit initial w at entry, where it
takes that w's entropy before forming any moment, then a start state whose row 0
breaks the ``Trace`` rule, and checks each projected w once, where it takes its
entropy. The moments of w_k feed the v block and row k of the trace; those
of v_{k+1} feed the w block and row k + 1, and Re(w^H T_d v) of a row is
the next sweep's alpha numerator. Each w's powers pass once through the
entropy's penalty kernel, whose one clamped log gives both the entropy of its
trace row and the majorizer diagonal of the next w block, and one w - v serves
the dual step, the primal residual and the Lagrangian. A row appends nine raw
scalars (sum_k P_k^2, d^T P, sum_k |r_k|^2, Re d^T r, the entropy,
||w - v + u||^2, ||w - v||^2, alpha, the weight change) to one growing buffer;
once the loop ends or a sweep fails, one vectorized pass derives the ``Trace``,
one column per field, with no per-row object. That pass is the package's one
evaluator of the objective and the augmented Lagrangian: row 0 of ``solve``
with ``max_iters=0`` and ``init`` evaluates them at any state with alpha != 0.
The public blocks (``update_alpha``, ``update_v``, ``solve_weight_system``)
check their inputs and call the same kernels, so composing them, with
``project_unit_sphere`` and the dual step u + (w - v), reproduces ``solve``'s
w, alpha, primal residual and weight change bit for bit. They run the kernels with
numpy's overflow warnings off and check the result, so finite inputs that overflow end in
a typed error; the sweep, whose iterates are bounded, pays for no such check.

A single solve is a sequential state machine; concurrent solves share no
mutable state.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from collections.abc import Callable
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg

# Levinson solve of a Toeplitz system: the kernel of scipy.linalg.solve_toeplitz, without
# its argument checks and batching. It is private to scipy, so a test pins it to that function.
from scipy.linalg._solve_toeplitz import levinson as _levinson

from .arrays import (
    SteeringSet,
    _as_real,
    _as_vector,
    _is_integer,
    _project_unit_sphere,
    _readonly,
    _require_finite,
    _require_type,
    _sq_norm,
    _with_negative_lags,
)
from .entropy import _penalty, _unit_powers, _weight_powers
from .errors import ContractError, DegenerateInputError, DivergenceError, NumericalError
from .metrics import _db
from .templates import DesiredPattern

# Cholesky factorization and solve of a Hermitian system, without scipy.linalg's wrappers.
_posv = scipy.linalg.get_lapack_funcs("posv", dtype=complex)


@dataclass(frozen=True)
class SolverParams:
    """Solver hyperparameters.

    lam weighs the matching term against the entropy term; rho is the
    consensus penalty and must exceed 2 so the w-block system stays positive
    definite; eta is the stop tolerance on the weight change (the only value
    that may be infinite); seed drives the random initialization.
    """

    lam: float = 0.1
    rho: float = 30.0
    eta: float = 1e-8
    max_iters: int = 1000
    seed: int = 0

    def __post_init__(self):
        if not 0 <= _as_real(self.lam) < np.inf:
            raise ContractError(f"lam (lambda) must be finite and >= 0, got {self.lam!r}")
        if not 2.0 < _as_real(self.rho) < np.inf:
            raise ContractError(f"rho must exceed 2 and be finite, got {self.rho!r}")
        _require_tolerance(self.eta)
        if not _is_integer(self.max_iters) or self.max_iters < 0:
            raise ContractError(f"max_iters must be an integer >= 0, got {self.max_iters!r}")
        if not _is_integer(self.seed) or self.seed < 0:
            raise ContractError(f"seed must be an integer >= 0, got {self.seed!r}")


def _require_tolerance(eta: float):
    """The stop tolerance on the weight change: a positive real number, possibly infinite."""
    if not _as_real(eta) > 0:
        raise ContractError(f"eta must be positive, got {eta!r}")


@dataclass(frozen=True, eq=False)
class AdmmState:
    """One iterate: scale alpha, auxiliary v, unit-norm weights w, scaled dual u."""

    alpha: float
    v: np.ndarray
    w: np.ndarray
    u: np.ndarray


@dataclass(frozen=True, eq=False)
class Trace:
    """The iteration trace: one read-only 1-D array per ``trace.csv`` column, in this order.

    The columns are real arrays of one length n >= 1. iter counts 0 ... n - 1; alpha and
    matching_error_db are finite; primal_residual and w_change are finite and >= 0; objective
    and lagrangian are never NaN or -inf and may hold inf, where lam times the squared
    residual overflows. They have no bound of 0: the entropy of one-hot weights rounds to
    about -4e-16.
    """

    iter: np.ndarray
    objective: np.ndarray
    lagrangian: np.ndarray
    primal_residual: np.ndarray
    alpha: np.ndarray
    matching_error_db: np.ndarray
    w_change: np.ndarray

    def __post_init__(self):
        for name, column in vars(self).items():
            if not (isinstance(column, np.ndarray) and column.ndim == 1
                    and column.dtype.kind in "iuf"):
                raise ContractError(f"trace column {name} must be a 1-D real array")
        sizes = {column.size for column in vars(self).values()}
        if len(sizes) != 1 or 0 in sizes:
            raise ContractError(f"trace columns must share one length >= 1, got sizes {sizes}")
        if not np.array_equal(self.iter, np.arange(self.iter.size)):
            raise ContractError("trace column iter must count the rows from 0")
        for name in ("primal_residual", "alpha", "matching_error_db", "w_change"):
            if not np.isfinite(getattr(self, name)).all():
                raise ContractError(f"trace column {name} must be finite")
        for name in ("primal_residual", "w_change"):
            if not (getattr(self, name) >= 0.0).all():
                raise ContractError(f"trace column {name} must be >= 0")
        for name in ("objective", "lagrangian"):
            if not (getattr(self, name) > -np.inf).all():  # NaN fails too
                raise ContractError(f"trace column {name} must not hold NaN or -inf")


def _require_template(steering: SteeringSet, d: DesiredPattern):
    """Types and the template's length (DesiredPattern checks its values)."""
    _require_type(steering, SteeringSet, "steering")
    _require_type(d, DesiredPattern, "template")
    k = steering.n_angles
    if d.count != k:
        raise ContractError(
            f"template must be a vector of length {k}, got array size {d.values.shape}"
        )


def _require_problem(steering: SteeringSet, d: DesiredPattern, params: SolverParams):
    """The template's rule, and a finite lam K N, which bounds lam times the Gram
    diagonals: |G_l| <= sum_k P_k <= K N for unit w."""
    _require_template(steering, d)
    _require_type(params, SolverParams, "params")
    k, n = steering.n_angles, steering.n_elements
    if not math.isfinite(float(params.lam) * (k * n)):
        raise ContractError(f"lam (lambda) {params.lam} times K = {k} and N = {n} overflows")


def _template_energy(d: DesiredPattern) -> float:
    """d^T d, the denominator of the alpha refresh; an all-zero template has none."""
    if not d.energy > 0.0:
        raise DegenerateInputError("template is all zero; alpha is undefined")
    return d.energy


def _real_dot(a: np.ndarray, b: np.ndarray) -> float:
    """Re a^H b."""
    return float(np.vdot(a, b).real)


def _residual_energy(square_sum, cross, alpha, dd: float):
    """sum_k |y_k - alpha d_k|^2 from sum_k |y_k|^2, cross = Re d^T y and dd = d^T d.

    The expansion cancels where the residual is small, so rounding could take
    it below zero; it is clamped at 0, elementwise for arrays.
    """
    return np.maximum(square_sum - 2.0 * alpha * cross + alpha * alpha * dd, 0.0)


def _toeplitz_gram(diagonals: np.ndarray) -> np.ndarray:
    """The Hermitian Toeplitz matrix with these diagonals, in Fortran order, which LAPACK
    factors in place; entry n - 1 + i - j of diagonals is entry (i, j). Row i of its
    transpose is diagonals[n-1-i : 2n-1-i], a view with strides (-itemsize, itemsize)."""
    n = (diagonals.size + 1) // 2
    step = diagonals.itemsize
    return np.ndarray((n, n), diagonals.dtype, diagonals, (n - 1) * step, (-step, step)).copy().T


def _template_toeplitz(steering: SteeringSet, d: DesiredPattern) -> np.ndarray:
    """T_d = sum_k d_k a_k a_k^H: entry (m, n) is sum_k d_k z_k^(m-n), a Hermitian
    Toeplitz matrix whose first column is A^T d."""
    return _toeplitz_gram(_with_negative_lags(steering.vectors.T @ d.values, steering.n_elements))


class _Moments(NamedTuple):
    """What a sweep needs of an iterate x, from the grid moments q and T_d.

    With the autocorrelation rho_l = sum_n x_n conj(x_(n+l)), the pattern is
    |a_k^H x|^2 = sum_l rho_l z_k^l, so diagonal l of the data-fit Gram matrix,
    sum_k |a_k^H x|^2 z_k^l, is sum_j rho_j q_(l+j) (Lebret & Boyd, IEEE TSP
    1997), and sum_k |a_k^H x|^2 |a_k^H y|^2 pairs rho of x with the Gram
    diagonals of y. Arrays over lags run from -(N-1) to N-1.
    """

    auto: np.ndarray  # conj(rho) = np.correlate(x, x, "full")
    gram: np.ndarray  # Gram diagonals at lam = 1, sum_k |a_k^H x|^2 z_k^l
    td_x: np.ndarray  # T_d x = sum_k d_k (a_k^H x) a_k


def _gram_diagonals(q: np.ndarray, auto: np.ndarray) -> np.ndarray:
    """Gram diagonals at lam = 1 from the grid moments and auto = np.correlate(x, x, "full")."""
    return _with_negative_lags(np.correlate(q, auto, "valid"), (auto.size + 1) // 2)


def _moments(q: np.ndarray, td: np.ndarray, x: np.ndarray) -> _Moments:
    """The moments of x, from the grid moments q and T_d: O(N^2), independent of K."""
    auto = np.correlate(x, x, "full")
    return _Moments(auto, _gram_diagonals(q, auto), td @ x)


def _pattern_dot(mx: _Moments, my: _Moments) -> float:
    """sum_k |a_k^H x|^2 |a_k^H y|^2 from the moments of x and y."""
    return _real_dot(mx.auto, my.gram)


def data_fit_gram(steering: SteeringSet, x: np.ndarray) -> np.ndarray:
    """G = sum_k |a_k^H x|^2 a_k a_k^H, whose diagonals are ``_Moments.gram``: lam * G is the
    data-fit Hessian of both blocks, from which acceptance criterion 6 builds their systems.
    A finite x whose G overflows raises ``ContractError``."""
    _require_type(steering, SteeringSet, "steering")
    x = _as_vector(x, steering.n_elements, "x")
    diagonals = _gram_diagonals(steering.moments, np.correlate(x, x, "full"))
    if not np.isfinite(diagonals).all():
        raise ContractError("the data-fit Gram matrix of x overflows")
    return _toeplitz_gram(diagonals)


def _require_finite_solution(solution: np.ndarray) -> np.ndarray:
    if not np.isfinite(solution).all():
        raise NumericalError("linear solve produced non-finite entries")
    return solution


def _v_block(
    mw: _Moments, w: np.ndarray, u: np.ndarray, alpha: float, params: SolverParams
) -> np.ndarray:
    """update_v without its checks, from the moments of w.

    Solves (G + (rho/2) I) v = lam * alpha * T_d w + (rho/2)(w + u) by one
    Levinson recursion on the Toeplitz diagonals of the matrix.
    """
    half_rho = params.rho / 2.0
    diagonals = params.lam * mw.gram
    diagonals[w.size - 1] += half_rho
    rhs = params.lam * alpha * mw.td_x + half_rho * (w + u)
    # No positive definiteness check: G is positive semidefinite, rho > 2 (SolverParams)
    # and the inputs are checked finite where they enter, so the system is Hermitian
    # positive definite by construction. Levinson's reflection coefficients could not
    # serve as the check, since an indefinite system can keep them all within the unit disk.
    try:
        solution, _ = _levinson(diagonals, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Levinson solve failed: {exc}") from exc
    return _require_finite_solution(solution)


def _w_system(
    mv: _Moments,
    v: np.ndarray,
    u: np.ndarray,
    alpha: float,
    diag: np.ndarray,
    params: SolverParams,
) -> np.ndarray:
    """solve_weight_system without its checks, from the moments of v.

    Solves (G + diag(diag) + (rho/2) I) w = lam * alpha * T_d v + (rho/2)(v - u).
    The majorizer diagonal makes the matrix non-Toeplitz, so the Hermitian
    positive definite system is copied from its diagonals and solved in place
    by Cholesky, in one LAPACK posv call.
    """
    half_rho = params.rho / 2.0
    matrix = _toeplitz_gram(params.lam * mv.gram)
    matrix.flat[:: v.size + 1] += diag + half_rho
    rhs = params.lam * alpha * mv.td_x + half_rho * (v - u)
    _, solution, info = _posv(matrix, rhs, overwrite_a=True, overwrite_b=True)
    if info != 0:
        raise NumericalError(f"matrix is not positive definite: leading minor {info} fails")
    return solution


def update_alpha(steering: SteeringSet, w, v, d: DesiredPattern) -> float:
    """Least-squares template scale, argmin over real alpha of sum_k |r_k - alpha d_k|^2 with
    r_k = w^H a_k a_k^H v, in the sweep's moment form Re(w^H T_d v) / d^T d."""
    _require_template(steering, d)
    n = steering.n_elements
    w = _as_vector(w, n, "w")
    v = _as_vector(v, n, "v")
    dd = _template_energy(d)
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = _real_dot(w, _template_toeplitz(steering, d) @ v) / dd
    if not math.isfinite(alpha):
        raise ContractError("the template scale Re(w^H T_d v) / d^T d overflows")
    return alpha


def update_v(
    steering: SteeringSet,
    w,
    u,
    alpha: float,
    d: DesiredPattern,
    params: SolverParams,
) -> np.ndarray:
    """Exact minimizer of the v block (matching term plus consensus penalty)."""
    _require_problem(steering, d, params)
    _require_finite(alpha, "alpha")
    n = steering.n_elements
    w = _as_vector(w, n, "w")
    u = _as_vector(u, n, "u")
    with np.errstate(over="ignore", invalid="ignore"):
        mw = _moments(steering.moments, _template_toeplitz(steering, d), w)
        return _v_block(mw, w, u, alpha, params)


def solve_weight_system(
    steering: SteeringSet,
    v,
    u,
    alpha: float,
    d: DesiredPattern,
    diag,
    params: SolverParams,
) -> np.ndarray:
    """Pre-projection solution of the majorized w block, with diag = ``majorizer_diag``."""
    _require_problem(steering, d, params)
    _require_finite(alpha, "alpha")
    n = steering.n_elements
    v = _as_vector(v, n, "v")
    u = _as_vector(u, n, "u")
    diag = _as_vector(diag, n, "majorizer diagonal", float)
    with np.errstate(over="ignore", invalid="ignore"):
        mv = _moments(steering.moments, _template_toeplitz(steering, d), v)
        return _require_finite_solution(_w_system(mv, v, u, alpha, diag, params))


def initial_state(steering: SteeringSet, params: SolverParams) -> AdmmState:
    """Random start: v and w drawn i.i.d. complex Gaussian then unit-normalized."""
    _require_type(steering, SteeringSet, "steering")
    _require_type(params, SolverParams, "params")
    rng = np.random.default_rng(params.seed)
    n = steering.n_elements

    def draw() -> np.ndarray:
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return _project_unit_sphere(z)

    v0 = draw()
    w0 = draw()
    return AdmmState(alpha=1.0, v=v0, w=w0, u=np.zeros(n, complex))


def _append_row(raw: array, mw: _Moments, mv: _Moments, w: np.ndarray, cross: float,
                sparsity: float, wv: np.ndarray, u: np.ndarray, alpha: float, dd: float,
                w_change: float):
    """Append a state's raw trace scalars from what its sweep computed: the moments of w and
    v, cross = Re w^H T_d v = Re d^T r, the entropy of w and wv = w - v. The blocks check v and
    w finite; this checks alpha and u, and a zero template scale, which leaves the row's
    matching error undefined."""
    gap = wv + u
    gap_sq = _real_dot(gap, gap)
    if not math.isfinite(alpha + gap_sq):
        raise NumericalError("iterates turned non-finite")
    if not alpha * alpha * dd > 0.0:
        raise DegenerateInputError("scaled template has no energy")
    raw.extend((_pattern_dot(mw, mw), _real_dot(w, mw.td_x), _pattern_dot(mw, mv), cross,
                sparsity, gap_sq, _sq_norm(wv), alpha, w_change))


def _derive_trace(raw: array, dd: float, params: SolverParams) -> Trace:
    """The trace of the scalars ``_append_row`` appended, numbered from 0: one vectorized
    pass, silent on overflow, through the objective lam * sum_k (P_k - alpha d_k)^2 + f(w),
    the scaled-dual augmented Lagrangian lam * sum_k |r_k - alpha d_k|^2 + f(w)
    + (rho/2) ||w - v + u||^2 and ``matching_error_db``'s formula, to which it agrees to
    rounding."""
    scalars = np.frombuffer(raw).reshape(-1, 9).T
    square_sum, pattern_td, sample_sq, cross, sparsity, gap_sq, wv_sq, alpha, w_change = scalars
    with np.errstate(over="ignore", invalid="ignore"):
        fit = _residual_energy(square_sum, pattern_td, alpha, dd)
        phi = _residual_energy(sample_sq, cross, alpha, dd)
        lagrangian = params.lam * phi + sparsity + (params.rho / 2.0) * gap_sq
        columns = (params.lam * fit + sparsity, lagrangian, np.sqrt(wv_sq), alpha,
                   _db(fit / (alpha * alpha * dd)), w_change)
    return Trace(*map(_readonly, (np.arange(alpha.size), *columns)))


def solve(
    steering: SteeringSet,
    d: DesiredPattern,
    params: SolverParams,
    init: Optional[AdmmState] = None,
    observer: Optional[Callable[[AdmmState], None]] = None,
) -> tuple[np.ndarray, float, Trace]:
    """Run the full solver loop.

    Returns the final unit-norm weights, the final template scale and the
    ``Trace``, one column per field from the initial state (row 0) on,
    derived with no per-row object once the loop ends.
    ``observer``, when given, is called with every newly accepted state.

    Raises
    ------
    DivergenceError
        If a sweep fails: a block solve fails, an iterate turns non-finite,
        or the template scale drops to zero so the trace row is undefined.
        The exception carries the trace of the sweeps done before.
    """
    _require_problem(steering, d, params)
    dd = _template_energy(d)

    state = init if init is not None else initial_state(steering, params)
    _require_type(state, AdmmState, "init")
    if observer is not None:
        _require_type(observer, Callable, "observer")
    n = steering.n_elements
    v = _as_vector(state.v, n, "initial v")
    w = _as_vector(state.w, n, "initial w")
    u = _as_vector(state.u, n, "initial u")
    alpha = state.alpha
    _require_finite(alpha, "initial alpha")
    sparsity, diag = _penalty(_weight_powers(w, n, "initial w"))

    # The steering matrix is read here only, for T_d; each iterate's moments and penalty serve
    # both blocks and the rows, as the module docstring lists.
    q = steering.moments
    td = _template_toeplitz(steering, d)
    raw = array("d")
    # finite start vectors can overflow where the sweep's bounded iterates cannot: row 0 is
    # formed with overflow silenced and must meet the Trace rule
    with np.errstate(over="ignore", invalid="ignore"):
        mw = _moments(q, td, w)
        mv = _moments(q, td, v)
        cross = _real_dot(w, mv.td_x)
        _append_row(raw, mw, mv, w, cross, sparsity, w - v, u, alpha, dd, 0.0)
    try:
        _derive_trace(raw, dd, params)
    except ContractError as exc:
        raise ContractError(f"the start state's trace row is invalid: {exc}") from exc
    for it in range(1, params.max_iters + 1):
        try:
            alpha = cross / dd
            v = _v_block(mw, w, u, alpha, params)
            mv = _moments(q, td, v)
            swept = _project_unit_sphere(_w_system(mv, v, u, alpha, diag, params))
            wv = swept - v
            u = u + wv
            w_change = math.sqrt(_sq_norm(swept - w))
            w = swept
            mw = _moments(q, td, w)
            sparsity, diag = _penalty(_unit_powers(w))
            cross = _real_dot(w, mv.td_x)
            _append_row(raw, mw, mv, w, cross, sparsity, wv, u, alpha, dd, w_change)
        except (NumericalError, DegenerateInputError) as exc:
            trace = _derive_trace(raw, dd, params)
            raise DivergenceError(f"solver diverged at iteration {it}: {exc}", trace) from exc
        if observer is not None:
            observer(AdmmState(alpha=alpha, v=v, w=w, u=u))
        if w_change <= params.eta:
            break
    return w, float(alpha), _derive_trace(raw, dd, params)


def converged(trace: Trace, eta: float) -> bool:
    """Whether the trace ends because the weight change dropped below eta."""
    _require_type(trace, Trace, "trace")
    _require_tolerance(eta)
    return trace.w_change.size >= 2 and bool(trace.w_change[-1] <= eta)
