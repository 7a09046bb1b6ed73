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
3. a refresh of the diagonal entropy majorizer at the current weights;
4. an exact solve of the majorized w block followed by projection back
   onto the unit sphere;
5. dual ascent on u.

The sweep repeats until the weight change drops below ``eta`` or the
iteration budget runs out. Both blocks solve a Hermitian positive definite
system whose data-fit matrix G = lam * sum_k |a_k^H x|^2 a_k a_k^H is
Hermitian Toeplitz, since ``SteeringSet`` derives every steering vector from
a uniform linear array as a phase ramp; its first column, and the
right-hand side, come from one K x N steering product c = A^H x. The v
block adds rho/2 to G's diagonal, which keeps it Toeplitz, and solves it by
one Levinson recursion on the column in O(N^2) without forming the matrix.
The w block adds rho/2 plus the entropy majorizer's diagonal, which varies
along the diagonal, so its matrix is not Toeplitz: it is gathered in
Fortran order and solved in place by Cholesky, in one LAPACK posv call (it
is positive definite only for rho > 2, because the majorizer diagonal is
bounded below by -1 on the sphere).

Weights, like v and u, are plain 1-D complex arrays, and the majorizer is
its real diagonal (``entropy.majorizer_diag``). ``solve`` checks its inputs
once, on entry, and then computes each intermediate once per iterate, on
private kernels that take it as an argument. Unit power of w is the
entropy's rule, so ``solve`` rejects a non-unit initial w at entry, where it
takes that w's entropy, and checks each projected w once, where it takes its
entropy. A sweep takes two K x N steering products: c_w = A^H w_k feeds the
alpha refresh (through r = conj(c_w) * c_v), the v block and row k of the
trace; c_v = A^H v_{k+1} feeds the w block and row k + 1. Each w has one
power vector and one entropy, shared by the majorizer and its trace row;
each row forms one pattern residual for the objective and the matching
error, and one w - v serves the dual step, the primal residual and the
Lagrangian. The public blocks (``update_alpha``, ``update_v``, ``update_w``
and the rest) check their inputs and call the same kernels, so composing
them reproduces ``solve`` bit for bit.

A single solve is a sequential state machine; concurrent solves share no
mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
import scipy.linalg

# Levinson solve of a Toeplitz system: the kernel of scipy.linalg.solve_toeplitz, without
# its argument checks and batching. It is private to scipy, so a test pins it to that function.
from scipy.linalg._solve_toeplitz import levinson as _levinson

from .arrays import (
    SteeringSet,
    _as_vector,
    _is_integer,
    _readonly,
    _require_finite,
    _steer_products,
    beampattern,
    project_unit_sphere,
)
from .entropy import _majorizer_diag, _powers_and_entropy, entropy
from .errors import ContractError, DegenerateInputError, DivergenceError, NumericalError
from .metrics import _matching_db, _scaled_fit
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
        if not 0 <= self.lam < np.inf:
            raise ContractError(f"lam (lambda) must be finite and >= 0, got {self.lam}")
        if not 2.0 < self.rho < np.inf:
            raise ContractError(f"rho must exceed 2 and be finite, got {self.rho}")
        if not self.eta > 0:
            raise ContractError(f"eta must be positive, got {self.eta}")
        if not _is_integer(self.max_iters) or self.max_iters < 0:
            raise ContractError(f"max_iters must be an integer >= 0, got {self.max_iters!r}")
        if not _is_integer(self.seed) or self.seed < 0:
            raise ContractError(f"seed must be an integer >= 0, got {self.seed!r}")


@dataclass(frozen=True, eq=False)
class AdmmState:
    """One iterate: scale alpha, auxiliary v, unit-norm weights w, scaled dual u."""

    alpha: float
    v: np.ndarray
    w: np.ndarray
    u: np.ndarray
    iter: int = 0


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration trace row; ``trace.csv`` has one column per field, in this order."""

    iter: int
    objective: float
    lagrangian: float
    primal_residual: float
    alpha: float
    matching_error_db: float
    w_change: float


def _require_template(steering: SteeringSet, d: DesiredPattern):
    # the length only: DesiredPattern itself rejects non-finite values
    _as_vector(d.values, steering.n_angles, "template", float, finite=False)


def _template_energy(d: DesiredPattern) -> float:
    """d^T d, the denominator of the alpha refresh; an all-zero template has none."""
    dd = float(d.values @ d.values)
    if not dd > 0.0:
        raise DegenerateInputError("template is all zero; alpha is undefined")
    return dd


def inner_products(steering: SteeringSet, w, v) -> np.ndarray:
    """Bilinear pattern samples r_k = w^H a_k a_k^H v for every grid angle."""
    n = steering.n_elements
    w = _as_vector(w, n, "w")
    v = _as_vector(v, n, "v")
    return np.conj(_steer_products(steering, w)) * _steer_products(steering, v)


def update_alpha(r: np.ndarray, d: DesiredPattern) -> float:
    """Least-squares template scale: argmin over real alpha of sum |r_k - alpha d_k|^2."""
    r = _as_vector(r, d.count, "inner products")
    return _alpha(r, d, _template_energy(d))


def _alpha(r: np.ndarray, d: DesiredPattern, denom: float) -> float:
    """update_alpha without its checks; denom is d^T d > 0."""
    return float(d.values @ np.real(r)) / denom


@lru_cache(maxsize=8)
def _toeplitz_index(n: int) -> np.ndarray:
    """Read-only gather index: entry (j, i) is n - 1 + i - j.

    Entry (i, j) of the Hermitian Toeplitz matrix with first column col is
    entry n - 1 + i - j of [conj(col[n-1:0:-1]), col], so gathering with this
    index yields the matrix's transpose in C order, which is the matrix itself
    in Fortran order.
    """
    k = np.arange(n)
    return _readonly((n - 1) + k[None, :] - k[:, None])


def _toeplitz_diagonals(steering: SteeringSet, power: np.ndarray, lam: float) -> np.ndarray:
    """[conj(col[n-1:0:-1]), col] for G = lam * sum_k power_k a_k a_k^H, power = |A^H x|^2.

    Every steering vector is a phase ramp a_k[n] = z_k^n, so entry (m, n) of G
    is lam * sum_k power_k z_k^(m - n): a Hermitian Toeplitz matrix whose first
    column is col = lam * A^T power (Golub & Van Loan, Matrix Computations,
    4.7). Entry n - 1 + i - j of the result is entry (i, j) of G, and entry
    n - 1 is its diagonal.
    """
    col = lam * (steering.vectors.T @ power)
    n = col.shape[0]
    return np.concatenate((np.conj(col[n - 1 : 0 : -1]), col))


def _toeplitz_gram(steering: SteeringSet, power: np.ndarray, lam: float) -> np.ndarray:
    """G = lam * sum_k power_k a_k a_k^H in Fortran order, which LAPACK factors in place."""
    return _toeplitz_diagonals(steering, power, lam)[_toeplitz_index(steering.n_elements)].T


def data_fit_gram(steering: SteeringSet, x: np.ndarray, lam: float) -> np.ndarray:
    """lam * sum_k |a_k^H x|^2 a_k a_k^H, the data-fit Hessian of both blocks."""
    x = _as_vector(x, steering.n_elements, "x")
    return _toeplitz_gram(steering, np.abs(_steer_products(steering, x)) ** 2, lam)


def _block_rhs(
    steering: SteeringSet, c: np.ndarray, alpha: float, d: DesiredPattern, lam: float,
    target: np.ndarray,
) -> np.ndarray:
    """lam * alpha * sum_k d_k (a_k^H x) a_k + target, from c = A^H x."""
    return lam * alpha * (steering.vectors.T @ (d.values * c)) + target


def _require_finite_solution(solution: np.ndarray) -> np.ndarray:
    if not np.isfinite(solution).all():
        raise NumericalError("linear solve produced non-finite entries")
    return solution


def _v_block(
    steering: SteeringSet,
    c: np.ndarray,
    power: np.ndarray,
    w: np.ndarray,
    u: np.ndarray,
    alpha: float,
    d: DesiredPattern,
    params: SolverParams,
) -> np.ndarray:
    """update_v without its checks, from c = A^H w and power = |c|^2.

    Solves (G + (rho/2) I) v = lam * alpha * sum_k d_k (a_k^H w) a_k + (rho/2)(w + u)
    by one Levinson recursion on the Toeplitz diagonals of the matrix.
    """
    half_rho = params.rho / 2.0
    diagonals = _toeplitz_diagonals(steering, power, params.lam)
    diagonals[steering.n_elements - 1] += half_rho
    rhs = _block_rhs(steering, c, alpha, d, params.lam, half_rho * (w + u))
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
    steering: SteeringSet,
    c: np.ndarray,
    power: np.ndarray,
    v: np.ndarray,
    u: np.ndarray,
    alpha: float,
    d: DesiredPattern,
    diag: np.ndarray,
    params: SolverParams,
) -> np.ndarray:
    """solve_weight_system without its checks, from c = A^H v and power = |c|^2.

    Solves (G + diag(diag) + (rho/2) I) w = lam * alpha * sum_k d_k (a_k^H v) a_k
    + (rho/2)(v - u). The majorizer diagonal makes the matrix non-Toeplitz, so
    the Hermitian positive definite system is gathered and solved in place by
    Cholesky, in one LAPACK posv call.
    """
    half_rho = params.rho / 2.0
    matrix = _toeplitz_gram(steering, power, params.lam)
    matrix.flat[:: steering.n_elements + 1] += diag + half_rho
    rhs = _block_rhs(steering, c, alpha, d, params.lam, half_rho * (v - u))
    _, solution, info = _posv(matrix, rhs, overwrite_a=True, overwrite_b=True)
    if info != 0:
        raise NumericalError(
            f"matrix is not positive definite: leading minor {info} fails" if info > 0
            else f"Cholesky solve rejected argument {-info} (posv)"
        )
    return _require_finite_solution(solution)


def update_v(
    steering: SteeringSet,
    w,
    u,
    alpha: float,
    d: DesiredPattern,
    params: SolverParams,
) -> np.ndarray:
    """Exact minimizer of the v block (matching term plus consensus penalty)."""
    _require_template(steering, d)
    _require_finite(alpha, "alpha")
    n = steering.n_elements
    w = _as_vector(w, n, "w")
    u = _as_vector(u, n, "u")
    c = _steer_products(steering, w)
    return _v_block(steering, c, np.abs(c) ** 2, w, u, alpha, d, params)


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
    _require_template(steering, d)
    _require_finite(alpha, "alpha")
    n = steering.n_elements
    v = _as_vector(v, n, "v")
    u = _as_vector(u, n, "u")
    # a non-finite diagonal is left to the block solve, which reports it as a NumericalError
    diag = _as_vector(diag, n, "majorizer diagonal", float, finite=False)
    c = _steer_products(steering, v)
    return _w_system(steering, c, np.abs(c) ** 2, v, u, alpha, d, diag, params)


def update_w(
    steering: SteeringSet,
    v,
    u,
    alpha: float,
    d: DesiredPattern,
    diag,
    params: SolverParams,
) -> np.ndarray:
    """Majorized w block: exact unconstrained solve, then sphere projection."""
    return project_unit_sphere(solve_weight_system(steering, v, u, alpha, d, diag, params))


def update_dual(u, w, v) -> np.ndarray:
    """Dual ascent on the consensus constraint: u + (w - v)."""
    n = np.size(u)
    return _as_vector(u, n, "u") + (_as_vector(w, n, "w") - _as_vector(v, n, "v"))


def objective_value(
    steering: SteeringSet,
    w: np.ndarray,
    alpha: float,
    d: DesiredPattern,
    params: SolverParams,
) -> float:
    """Value of the joint objective at (w, alpha)."""
    _require_template(steering, d)
    _require_finite(alpha, "alpha")
    _, fit = _scaled_fit(beampattern(steering, w), alpha, d)
    return params.lam * fit + entropy(w)


def augmented_lagrangian(
    state: AdmmState,
    steering: SteeringSet,
    d: DesiredPattern,
    params: SolverParams,
) -> float:
    """Scaled-dual augmented Lagrangian at the given state, with the exact entropy term."""
    _require_template(steering, d)
    w = _as_vector(state.w, steering.n_elements, "w")
    u = _as_vector(state.u, steering.n_elements, "u")
    _require_finite(state.alpha, "alpha")
    r = inner_products(steering, w, state.v)
    gap = w - state.v + u
    return _lagrangian(r - state.alpha * d.values, gap, entropy(w), params)


def _lagrangian(
    residual: np.ndarray, gap: np.ndarray, sparsity: float, params: SolverParams
) -> float:
    """Lagrangian from the residual r - alpha * d and the gap w - v + u."""
    phi = float(np.real(np.vdot(residual, residual)))
    penalty = (params.rho / 2.0) * float(np.real(np.vdot(gap, gap)))
    return params.lam * phi + sparsity + penalty


def initial_state(steering: SteeringSet, params: SolverParams) -> AdmmState:
    """Random start: v and w drawn i.i.d. complex Gaussian then unit-normalized."""
    rng = np.random.default_rng(params.seed)
    n = steering.n_elements

    def draw() -> np.ndarray:
        z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        return project_unit_sphere(z)

    v0 = draw()
    w0 = draw()
    return AdmmState(alpha=1.0, v=v0, w=w0, u=np.zeros(n, complex))


def _trace_row(
    state: AdmmState,
    pattern: np.ndarray,
    r: np.ndarray,
    wv: np.ndarray,
    sparsity: float,
    d: DesiredPattern,
    params: SolverParams,
    w_change: float,
) -> IterationRecord:
    """Trace row of a state from what its sweep already computed.

    pattern = |A^H w|^2, r = conj(A^H w) * (A^H v), wv = w - v and the
    entropy of w. The row agrees with ``objective_value``,
    ``augmented_lagrangian`` and ``matching_error_db`` at the state.
    """
    scaled, fit = _scaled_fit(pattern, state.alpha, d)
    return IterationRecord(
        iter=state.iter,
        objective=params.lam * fit + sparsity,
        lagrangian=_lagrangian(r - scaled, wv + state.u, sparsity, params),
        primal_residual=float(np.linalg.norm(wv)),
        alpha=float(state.alpha),
        matching_error_db=_matching_db(scaled, fit),
        w_change=float(w_change),
    )


def _state_is_finite(state: AdmmState) -> bool:
    return math.isfinite(state.alpha) and bool(
        np.isfinite(np.concatenate((state.v, state.w, state.u))).all()
    )


def solve(
    steering: SteeringSet,
    d: DesiredPattern,
    params: SolverParams,
    init: Optional[AdmmState] = None,
    observer: Optional[Callable[[AdmmState], None]] = None,
) -> tuple[np.ndarray, float, list[IterationRecord]]:
    """Run the full solver loop.

    Returns the final unit-norm weights, the final template scale, and the
    iteration trace (row 0 is the initial state). ``observer``, when given,
    is called with every newly accepted state.

    Raises
    ------
    DivergenceError
        If a sweep fails: a block solve fails, an iterate turns non-finite,
        or the template scale drops to zero so the trace row is undefined.
        The exception carries the trace collected so far.
    """
    _require_template(steering, d)
    dd = _template_energy(d)

    state = init if init is not None else initial_state(steering, params)
    n = steering.n_elements
    state = replace(
        state,
        v=_as_vector(state.v, n, "initial v"),
        w=_as_vector(state.w, n, "initial w"),
        u=_as_vector(state.u, n, "initial u"),
    )
    _require_finite(state.alpha, "initial alpha")

    # One pass per iterate: c_w = A^H w and the powers of w serve its trace row
    # and the next sweep's alpha, v block and majorizer; c_v = A^H v, taken for
    # the w block, serves the trace row of the state that block produces.
    c_w = _steer_products(steering, state.w)
    c_v = _steer_products(steering, state.v)
    pattern = np.abs(c_w) ** 2
    powers, sparsity = _powers_and_entropy(state.w)
    r = np.conj(c_w) * c_v
    trace = [_trace_row(state, pattern, r, state.w - state.v, sparsity, d, params, 0.0)]
    for _ in range(params.max_iters):
        try:
            alpha = _alpha(r, d, dd)
            v = _v_block(steering, c_w, pattern, state.w, state.u, alpha, d, params)
            c_v = _steer_products(steering, v)
            diag = _majorizer_diag(powers)
            w_hat = _w_system(steering, c_v, np.abs(c_v) ** 2, v, state.u, alpha, d, diag, params)
            w = project_unit_sphere(w_hat)
            wv = w - v
            swept = AdmmState(alpha=alpha, v=v, w=w, u=state.u + wv, iter=state.iter + 1)
            if not _state_is_finite(swept):
                raise NumericalError("iterates turned non-finite")
            w_change = float(np.linalg.norm(w - state.w))
            c_w = _steer_products(steering, w)
            pattern = np.abs(c_w) ** 2
            powers, sparsity = _powers_and_entropy(w)
            r = np.conj(c_w) * c_v
            # a zero template scale fails here, in the matching error
            row = _trace_row(swept, pattern, r, wv, sparsity, d, params, w_change)
        except (NumericalError, DegenerateInputError) as exc:
            raise DivergenceError(
                f"solver diverged at iteration {state.iter + 1}: {exc}", trace=trace
            ) from exc
        state = swept
        trace.append(row)
        if observer is not None:
            observer(state)
        if w_change <= params.eta:
            break
    return state.w, float(state.alpha), trace


def converged(trace: list[IterationRecord], eta: float) -> bool:
    """Whether the trace ends because the weight change dropped below eta."""
    return len(trace) >= 2 and trace[-1].w_change <= eta
