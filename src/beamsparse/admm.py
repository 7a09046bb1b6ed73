"""Joint beampattern matching and sparse element selection solver.

The problem is

    minimize  lam * sum_k (P_k(w) - alpha * d_k)^2 + f(w)
    over      unit-norm complex weights w and real template scale alpha,

where P_k(w) = |a_k^H w|^2 is the transmit pattern on the angle grid, d is
the desired template and f is the Shannon-entropy sparsity measure. The
quartic coupling in w is split with an auxiliary copy v of w (constraint
w = v, scaled dual u), and each sweep performs, in order:

1. closed-form least-squares refresh of the template scale alpha;
2. the data block (``_data_block``): an exact solve for v, unconstrained
   complex least squares with w as its partner and w + u as its target;
3. the moments of v;
4. the w block (``_w_block``): a solve of the w block, majorized by the
   diagonal entropy majorizer at the current weights (which came with their
   entropy when they were formed), exact or to a relative residual of
   ``_CG_TOLERANCE``, projected back onto the unit sphere;
5. dual ascent on u;
6. the moments and the entropy's penalty of the new weights, and their
   trace row.

The sweep repeats until the weight change drops below ``eta`` or the
iteration budget runs out. Both blocks solve a Hermitian positive definite
system whose data-fit matrix is lam * G, with G = sum_k |a_k^H x|^2 a_k a_k^H
(``data_fit_gram``), and lam is set only in ``SolverParams``. G is Hermitian
Toeplitz, since ``SteeringSet`` derives every steering vector from a uniform
linear array as a phase ramp a_k[n] = z_k^n. The data block adds rho/2 to lam
G's diagonal, which keeps it Toeplitz, and solves it by one Levinson recursion
on the diagonals in O(N^2) without forming the matrix. The w block adds rho/2
plus the entropy majorizer's diagonal, which varies along the diagonal, so its
matrix is not Toeplitz; it is positive definite only for rho > 2, because the
majorizer diagonal is bounded below by -1 on the sphere. One size constant,
``_SPECTRAL_CROSSOVER``, picks the sweep's path once per solve and once per
public call, so the loop holds no branch. Below it the dense path takes zgemv
moments (``_moments``) and factors the w block's N x N matrix by LAPACK's posv
on its lower triangle, which OpenBLAS does faster than the upper one
(``_Cholesky``). From it on the spectral path takes FFT moments
(``_fft_moments``) and solves the w block by conjugate gradients with a circulant
preconditioner in T. Chan's sense, by FFT products with lam G in O(N log N) an
iteration and without the matrix (``_ConjugateGradients``); a system they leave
short of their tolerance after N iterations, where lam ||G|| dwarfs rho/2, goes
to a ``_Cholesky`` built on first need. Each solve and ``solve_weight_system`` call
holds its w solver (``_w_solver``) in the workspace it allocates (``_Workspace``).

The kernels are scipy's compiled ones, the Levinson recursion behind
``scipy.linalg.solve_toeplitz``, LAPACK's zposv, four BLAS routines (zgemv, zdotc,
zdscal, zaxpy) and pocketfft's complex FFT (c2c), loaded without importing
``scipy.linalg`` or ``scipy.fft`` (``kernels``), so the package reaches no
``numpy.fft``; every transform, of 3N - 2 points or more for the moments, 2N - 1 for
lam G's products and N for the preconditioner, takes pocketfft's good size for its
points (``kernels._good_size``). The sweep passes their arguments positionally, since
f2py takes about twice as long to parse a keyword call, and calls them through this
module's globals, where tests can substitute them. Levinson's and BLAS's modules are
loaded at import. ``_posv`` and ``_c2c`` are None until the first selection of a path
that calls them binds them (``kernels._bind``), so a process loads LAPACK's module
only if it takes the dense path or its conjugate gradients hand a system to Cholesky
(``_Cholesky``), and pocketfft's only if it takes the spectral path
(``_moment_kernel``, ``_ConjugateGradients``).

Every sum over the K grid angles that a sweep needs is a trigonometric
moment of the grid (the autocorrelation form of |A^H x|^2; Lebret & Boyd,
IEEE TSP 1997), so the sweep never touches the K x N steering matrix: it reads
the grid through ``SteeringSet.moments`` and the template through the lags of
T_d = sum_k d_k a_k a_k^H, for which ``solve`` reads the steering matrix once.
Per iterate it forms what ``_Moments`` lists, by the kernel of its path, which
``_moment_kernel`` picks. ``_moment_kernel`` is the one place that turns the
moments and T_d's lags into a kernel's operands: below ``_SPECTRAL_CROSSOVER``
``_moments`` (O(N^2), two zgemv products) reads the N x (2N-1) Toeplitz matrix
of the moments and T_d's N x N matrix, gathered there; from it on
``_fft_moments`` (O(N log N); Chan & Ng, SIAM Review 1996) reads their spectra.
Both blocks' matrices and right-hand sides, alpha = Re(w^H T_d v) / d^T d and
every raw trace scalar come from these.

``solve`` checks its inputs once, on entry, and then computes each intermediate
once per iterate, on private kernels that take it as an argument. Unit power of
w is the entropy's rule, so ``solve`` rejects a non-unit initial w at entry,
then a start state whose row 0 breaks the ``Trace`` rule; each later w is a
projection onto the sphere, within the entropy's tolerance by construction, so
the sweep takes its powers unchecked. The moments of w_k feed the data block
and row k of the trace; those of v_{k+1} feed the w block and row k + 1. Each w's
powers pass once through the entropy's penalty kernel, whose one clamped log
gives both the entropy of its trace row and the majorizer diagonal of the next
w block. Once the loop ends or a sweep fails, one vectorized pass derives the
``Trace`` from the rows' raw scalars (``_derive_trace``); it is the package's
one evaluator of the objective and the augmented Lagrangian, so ``solve`` with
``max_iters=0`` and ``init`` evaluates them at any state with alpha != 0.

The public blocks (``update_alpha``, ``update_v``, ``solve_weight_system``,
and ``data_fit_gram``) check their inputs and call the same kernels, the
moment kernel that ``_moment_kernel`` picks at their size among them (an
inverse transform of one row alone need not give the bits of the batched one),
so composing them, with ``project_unit_sphere`` and the dual step u + (w - v),
reproduces ``solve``'s w, alpha, primal residual and weight change bit for bit,
the norms taken by the package's inner product (``kernels._real_dot``). They
run the kernels with numpy's overflow warnings off and check the result, so
finite inputs that overflow end in a typed error; the sweep, whose iterates are
bounded, pays for no such check. ``update_v`` and ``solve_weight_system`` check
their solution finite and the sweep does not: a non-finite v makes the w block's
system non-finite, which its solver or the projection onto the sphere rejects,
so that sweep still ends in ``DivergenceError``.

A single solve is a sequential state machine. Concurrent solves share one
write-once binding per kernel, ``_posv`` and ``_c2c``, made under the loader's
lock by whichever selects its path first, and nothing else mutable, since no
workspace outlives the call that allocated it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from collections.abc import Callable
from typing import NamedTuple, Optional

import numpy as np

from .arrays import (
    SteeringSet,
    _as_vector,
    _project_unit_sphere,
    _readonly,
    _require_count,
    _require_scalar,
    _require_type,
    _toeplitz_view,
    _with_negative_lags,
)
from .entropy import _penalty, _weight_powers
from .errors import ContractError, DegenerateInputError, DivergenceError, NumericalError
from .kernels import _LAST, _axpy, _bind, _dscal, _gemv, _good_size, _levinson, _real_dot
from .metrics import _db
from .templates import DesiredPattern

# LAPACK's zposv and pocketfft's c2c (``kernels``), each None until the first selection of a
# path that calls it binds it here (``kernels._bind``)
_posv = None
_c2c = None


@dataclass(frozen=True)
class SolverParams:
    """Solver hyperparameters.

    lam weighs the matching term against the entropy term; rho is the
    consensus penalty and must exceed 2 so the w-block system stays positive
    definite; eta is the stop tolerance on the weight change (the only value
    that may be infinite); seed drives the random initialization: numpy's
    ``default_rng(seed).standard_normal`` stream, bit for bit, from the
    package's own port of it (``normals``), so a seed gives the same start
    under every numpy version.
    """

    lam: float = 0.1
    rho: float = 30.0
    eta: float = 1e-8
    max_iters: int = 1000
    seed: int = 0

    def __post_init__(self):
        _require_scalar(self.lam, "lam (lambda)", "must be finite and >= 0",
                        lambda x: 0 <= x < math.inf)
        _require_scalar(self.rho, "rho", "must exceed 2 and be finite", lambda x: 2 < x < math.inf)
        _require_scalar(self.eta, "eta", "must be positive", lambda x: x > 0)
        _require_count(self.max_iters, "max_iters", 0)
        _require_count(self.seed, "seed", 0)


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


def _require_data_fit_bound(lam: float, k: int, n: int):
    """A finite lam K N for K grid angles and N elements, which bounds lam times the Gram
    diagonals: |G_l| <= sum_k P_k <= K N for unit w."""
    if not math.isfinite(float(lam) * (k * n)):
        raise ContractError(f"lam (lambda) {lam} times K = {k} and N = {n} overflows")


def _require_problem(steering: SteeringSet, d: DesiredPattern, params: SolverParams):
    """The template's rule and the data-fit bound."""
    _require_template(steering, d)
    _require_type(params, SolverParams, "params")
    _require_data_fit_bound(params.lam, steering.n_angles, steering.n_elements)


def _template_energy(d: DesiredPattern) -> float:
    """d^T d, the denominator of the alpha refresh; an all-zero template has none."""
    if not d.energy > 0.0:
        raise DegenerateInputError("template is all zero; alpha is undefined")
    return d.energy


def _residual_energy(square_sum, cross, alpha, dd: float):
    """sum_k |y_k - alpha d_k|^2 from sum_k |y_k|^2, cross = Re d^T y and dd = d^T d.

    The expansion cancels where the residual is small, so rounding could take
    it below zero; it is clamped at 0, elementwise for arrays.
    """
    return np.maximum(square_sum - 2.0 * alpha * cross + alpha * alpha * dd, 0.0)


def _toeplitz_copy(lags: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The rows x cols Toeplitz matrix of a lag sequence (``arrays._toeplitz_view``) as a fresh
    Fortran-ordered copy, which LAPACK factors in place and zgemv reads as it stands."""
    return np.array(_toeplitz_view(lags, rows, cols), order="F")


def _toeplitz_gram(diagonals: np.ndarray) -> np.ndarray:
    """The Hermitian Toeplitz matrix with these diagonals (``_toeplitz_copy``); entry
    n - 1 + i - j of diagonals is entry (i, j)."""
    n = (diagonals.size + 1) // 2
    return _toeplitz_copy(diagonals, n, n)


def _template_lags(steering: SteeringSet, d: DesiredPattern) -> np.ndarray:
    """The lags -(N-1) ... N-1 of T_d = sum_k d_k a_k a_k^H, whose entry (m, n) is
    sum_k d_k z_k^(m-n): a Hermitian Toeplitz matrix whose first column is A^T d."""
    return _with_negative_lags(_gemv(1.0, steering.vectors.T, d.values), steering.n_elements)


class _Moments(NamedTuple):
    """What a sweep needs of an iterate x, from the grid moments and T_d, by either moment
    kernel (``_moments`` or ``_fft_moments``), which agree to rounding.

    With the autocorrelation rho_l = sum_n x_n conj(x_(n+l)), the pattern is
    |a_k^H x|^2 = sum_l rho_l z_k^l, so diagonal l of the data-fit Gram matrix,
    sum_k |a_k^H x|^2 z_k^l, is sum_j rho_j q_(l+j) (Lebret & Boyd, IEEE TSP
    1997), and sum_k |a_k^H x|^2 |a_k^H y|^2 pairs rho of x with the Gram
    diagonals of y. Arrays over lags run from -(N-1) to N-1; by either kernel the Gram
    diagonals' negative lags are the conjugates of their positive ones.
    """

    auto: np.ndarray  # conj(rho) = np.correlate(x, x, "full")
    gram: np.ndarray  # Gram diagonals at lam = 1, sum_k |a_k^H x|^2 z_k^l
    td_x: np.ndarray  # T_d x = sum_k d_k (a_k^H x) a_k


class _Lags(NamedTuple):
    """A buffer of a Hermitian sequence's 2N - 1 lags -(N-1) ... N-1, entry N - 1 + l holding
    lag l, with the two views that fill its negative lags from its positive ones."""

    buffer: np.ndarray
    positive: np.ndarray  # lags N-1 down to 1
    negative: np.ndarray  # the slots of lags -(N-1) up to -1


def _lags(n: int) -> _Lags:
    """A zeroed lag buffer for N elements and its views."""
    buffer = np.zeros(2 * n - 1, complex)
    return _Lags(buffer, buffer[: n - 1 : -1], buffer[: n - 1])


def _gram_diagonals(t: np.ndarray, auto: np.ndarray, lags: Optional[_Lags] = None) -> np.ndarray:
    """Gram diagonals at lam = 1 from the moment matrix t, the N x (2N-1) Toeplitz matrix
    t[i, j] = q_(i-j+N-1) of the grid moments (``_moment_kernel``), and
    auto = np.correlate(x, x, "full"): lag l >= 0 is sum_j q_(l-j) auto_j, one zgemv, which
    writes them into the lag buffer (a fresh one when None) from entry N - 1 up; the negative
    lags are their conjugates. Returns the buffer."""
    buffer, positive, negative = _lags(t.shape[0]) if lags is None else lags
    # alpha, a, x, beta, y, offx, incx, offy, incy, trans, overwrite_y
    _gemv(1.0, t, auto, 0.0, buffer, 0, 1, negative.size, 1, 0, 1)
    np.conjugate(positive, out=negative)
    return buffer


def _moments(t: np.ndarray, td: np.ndarray, x: np.ndarray,
             lags: Optional[_Lags] = None) -> _Moments:
    """The moments of x, from the moment matrix t and T_d: O(N^2), independent of K. The Gram
    diagonals are written into lags (a fresh buffer when None)."""
    auto = np.correlate(x, x, "full")
    return _Moments(auto, _gram_diagonals(t, auto, lags), _gemv(1.0, td, x))


#: Fewest elements at which a solve and the public blocks take the spectral path (FFT moments,
#: the w block by conjugate gradients) instead of the dense one (zgemv moments, Cholesky): the
#: smallest measured N at which the spectral sweep won 13 or more of 15 runs on each grid.
#: Median us per sweep of 40-sweep solves of seeds 0-2, dense / spectral, 15 runs alternated on
#: one pinned core of a 2-core Xeon virtual machine, on the 181- and 721-angle grids: N = 112:
#: 338 / 420, 321 / 377; 128: 415 / 425, 396 / 448; 136: 494 / 516, 487 / 466; 144: 565 / 523,
#: 554 / 494; 160: 641 / 524, 706 / 578; 192: 1,020 / 609, 991 / 663; 256: 1,878 / 772,
#: 1,844 / 903.
_SPECTRAL_CROSSOVER = 144


def _circular(lags: np.ndarray, n: int, length: int) -> np.ndarray:
    """A sequence from lag -(N-1) up (entry N - 1 + l holds lag l) laid out over one period of
    the given length, lag l at l mod length and zeros elsewhere."""
    out = np.zeros(length, complex)
    out[: lags.size - n + 1] = lags[n - 1 :]
    out[length - n + 1 :] = lags[: n - 1]
    return out


def _moment_kernel(steering: SteeringSet, d: Optional[DesiredPattern] = None):
    """The moment kernel of one solve or public call and its two operands, chosen once by N,
    for the template d (none for ``data_fit_gram``, which gives T_d = 0).

    Both come from the grid moments q_-(N-1) ... q_(2N-2) (``SteeringSet.moments``) and T_d's
    lags. Below ``_SPECTRAL_CROSSOVER`` it is ``_moments``, with the N x (2N-1) moment matrix
    T[i, j] = q_(i-j+N-1) and T_d's N x N matrix, each gathered here (``_toeplitz_copy``).
    From there on it is ``_fft_moments``, with the spectra of the moments and of T_d's lags
    over L = ``kernels._good_size``(3N - 2) points, from one batched transform; no matrix."""
    n = steering.n_elements
    q = steering.moments
    td_lags = np.zeros(2 * n - 1, complex) if d is None else _template_lags(steering, d)
    if n < _SPECTRAL_CROSSOVER:
        return _moments, _toeplitz_copy(q, n, 2 * n - 1), _toeplitz_gram(td_lags)
    _bind(globals(), "_c2c")
    length = _good_size(3 * n - 2)
    spectra = np.array([_circular(q, n, length), _circular(td_lags, n, length)])
    _c2c(spectra, _LAST, True, 0, spectra, 1)
    return _fft_moments, spectra[0], spectra[1]


def _fft_moments(grid: np.ndarray, template: np.ndarray, x: np.ndarray,
                 lags: Optional[_Lags] = None) -> _Moments:
    """The moments of x from the spectra of the grid moments and of T_d's lags over one FFT
    length L >= 3N - 2 (``_moment_kernel``): O(N log N). With X = fft(x, L), the circular
    correlations ifft(|X|^2), ifft(grid * |X|^2) and ifft(template * X) hold, unaliased, the
    autocorrelation, the Gram diagonals' lags 0 ... N-1 and T_d x; the three inverse
    transforms are one batched call, and the Gram diagonals are written into lags (a fresh
    buffer when None), the negative lags as the conjugates of the positive ones."""
    n = x.size
    length = grid.size
    spectrum = np.zeros(length, complex)
    spectrum[:n] = x
    _c2c(spectrum, _LAST, True, 0, spectrum, 1)
    out = np.empty((3, length), complex)
    power = np.multiply(spectrum, spectrum.conj(), out=out[0])
    np.multiply(grid, power, out=out[1])
    np.multiply(template, spectrum, out=out[2])
    _c2c(out, _LAST, False, 2, out, 1)
    buffer, positive, negative = _lags(n) if lags is None else lags
    buffer[n - 1 :] = out[1, :n]
    np.conjugate(positive, out=negative)
    auto = np.concatenate((out[0, length - n + 1 :], out[0, :n]))
    return _Moments(auto, buffer, out[2, :n])


def _rhs(lam_alpha: float, td_x: np.ndarray, half_rho: float, s: np.ndarray) -> np.ndarray:
    """A block's right-hand side lam_alpha * td_x + half_rho * s, by BLAS's zdscal and zaxpy,
    written into s, which the caller forms for it."""
    n = s.size
    # zdscal(a, x, n, offx, incx, overwrite_x), then zaxpy(x, y, n, a)
    return _axpy(td_x, _dscal(half_rho, s, n, 0, 1, 1), n, lam_alpha)


def _pattern_dot(mx: _Moments, my: _Moments) -> float:
    """sum_k |a_k^H x|^2 |a_k^H y|^2 from the moments of x and y."""
    return _real_dot(mx.auto, my.gram)


def data_fit_gram(steering: SteeringSet, x: np.ndarray) -> np.ndarray:
    """G = sum_k |a_k^H x|^2 a_k a_k^H, whose diagonals are ``_Moments.gram``: lam * G is the
    data-fit Hessian of both blocks, from which acceptance criterion 6 builds their systems.
    A finite x whose G overflows raises ``ContractError``."""
    _require_type(steering, SteeringSet, "steering")
    x = _as_vector(x, steering.n_elements, "x")
    with np.errstate(over="ignore", invalid="ignore"):
        kernel, grid, template = _moment_kernel(steering)
        diagonals = kernel(grid, template, x).gram
    if not np.isfinite(diagonals).all():
        raise ContractError("the data-fit Gram matrix of x overflows")
    return _toeplitz_gram(diagonals)


def _require_finite_solution(solution: np.ndarray) -> np.ndarray:
    if not np.isfinite(solution).all():
        raise NumericalError("linear solve produced non-finite entries")
    return solution


#: The conjugate gradients' stop, ||b - A x|| <= _CG_TOLERANCE ||b|| for the w block's system
#: A x = b. Over the 120 w-block systems of ``large_array`` seeds 0-2 (40 sweeps each; one
#: pinned core of a 2-core Xeon virtual machine), by tolerance: median and largest iteration
#: count, largest relative distance from zposv's solution, and the largest |w - w_zposv| of
#: the 40-sweep solves: 1e-12: 18, 24, 2.5e-11, 8.0e-11; 1e-13: 19, 26, 2.2e-12, 6.2e-12;
#: 1e-14: 20.5, 27, 3.9e-13, 1.7e-13. At 1e-13 seeds 3-4 (the negative-alpha branch) took at
#: most 15 iterations, and N = 512 on a 1,801-angle grid at most 15.
_CG_TOLERANCE = 1e-13


class _Cholesky:
    """The w block's solver on the dense path, and the conjugate gradients' fallback: lam G's
    diagonals are written to its buffer, whose Toeplitz lag view (``arrays._toeplitz_view``) is
    copied into its Fortran-ordered N x N matrix, the shift is added through a view of the
    matrix's diagonal, and one LAPACK posv call factors the matrix's lower triangle in place by
    Cholesky and solves; it reads nothing above the diagonal."""

    __slots__ = ("diagonals", "system", "matrix", "diagonal")

    def __init__(self, n: int):
        _bind(globals(), "_posv")
        self.diagonals = np.empty(2 * n - 1, complex)
        self.system = _toeplitz_view(self.diagonals, n, n)
        self.matrix = np.empty((n, n), complex, order="F")
        self.diagonal = self.matrix.reshape(-1, order="F")[:: n + 1]

    def solve(self, lam: float, gram: np.ndarray, rhs: np.ndarray,
              shift: np.ndarray) -> np.ndarray:
        np.multiply(lam, gram, out=self.diagonals)
        self.matrix[...] = self.system
        self.diagonal += shift
        _, solution, info = _posv(self.matrix, rhs, 1, 1, 1)  # lower, overwrite_a, overwrite_b
        if info != 0:
            raise NumericalError(f"matrix is not positive definite: leading minor {info} fails")
        return solution


class _ConjugateGradients:
    """The w block's solver on the spectral path: conjugate gradients from x = 0 on
    (lam G + diag(shift)) x = b, preconditioned by a circulant in T. Chan's sense (Chan & Ng,
    SIAM Review 1996), in O(N log N) an iteration with no N x N matrix.

    Its transforms take ``kernels._good_size``'s lengths. A product with lam G is one forward
    and one inverse transform of length L >= 2N - 1, against the spectrum of lam G's lags laid
    out over one period (lag l at l mod L): circulant, it holds lam G unaliased in its leading
    N x N block. The preconditioner C is the circulant on M >= N points whose first column
    sums lam G's lags t_l, l = -(N-1) ... N-1, at l mod M, under Fejer's weights (N - |l|) / N
    (T. Chan's circulant at M = N), plus mean(shift) I. Its spectrum samples the Fejer mean
    e^H (lam G) e / N, e_n = exp(2 pi i n k / M), >= 0 as lam G is positive semidefinite, so
    C, and the leading N x N block of C^-1 that one transform pair applies to r zero-padded
    to M, are Hermitian positive definite. The iteration stops at the relative residual
    ``_CG_TOLERANCE``; a system still short of it after N iterations is solved again from a
    copy of b, with the dense path's bits, by a ``_Cholesky`` built on the first such system.
    It raises ``NumericalError`` on a non-finite residual, and where C has an eigenvalue <= 0
    or a direction a curvature <= 0, so the matrix is not positive definite. The residual
    iterates on b / ||b||, so that no inner product underflows on a small b.
    """

    __slots__ = ("lags", "nonnegative", "negative", "lag_spectrum", "down", "up", "chan",
                 "chan_head", "chan_rest", "chan_tail", "inverse", "padded", "padded_head",
                 "product", "product_head", "spectrum", "r_points", "p_points", "z_points", "r",
                 "p", "z", "q", "b", "cholesky")

    def __init__(self, n: int):
        _bind(globals(), "_c2c")
        length = _good_size(2 * n - 1)
        points = _good_size(n)
        self.lags = np.zeros(length, complex)
        self.nonnegative = self.lags[:n]  # lags 0 ... N-1
        self.negative = self.lags[length - n + 1 :]  # lags -(N-1) ... -1
        self.lag_spectrum = np.empty(length, complex)
        j = np.arange(n)
        self.down = (n - j) / n  # Fejer's weights of lags 0 ... N-1
        self.up = j[1:] / n  # and of lags -(N-1) ... -1
        self.chan = chan = np.empty(points, complex)  # lags -(N-1) ... -1 in its tail
        self.chan_head, self.chan_rest, self.chan_tail = chan[:n], chan[n:], chan[points - n + 1 :]
        self.inverse = np.empty(points)
        self.padded = np.zeros(length, complex)
        self.padded_head = self.padded[:n]
        self.product = np.empty(length, complex)
        self.product_head = self.product[:n]
        self.spectrum = np.empty(points, complex)
        self.r_points, self.p_points, self.z_points = (np.zeros(points, complex) for _ in range(3))
        self.r, self.p, self.z = self.r_points[:n], self.p_points[:n], self.z_points[:n]
        self.q, self.b = np.empty(n, complex), np.empty(n, complex)
        self.cholesky = None

    def solve(self, lam: float, gram: np.ndarray, rhs: np.ndarray,
              shift: np.ndarray) -> np.ndarray:
        n = rhs.size
        np.multiply(lam, gram[n - 1 :], out=self.nonnegative)
        np.multiply(lam, gram[: n - 1], out=self.negative)
        _c2c(self.lags, _LAST, True, 0, self.lag_spectrum, 1)
        np.multiply(self.down, self.nonnegative, out=self.chan_head)
        self.chan_rest.fill(0.0)
        self.chan_tail += self.up * self.negative
        chan = self.chan
        # shift.mean()'s reduction and division, without numpy's Python-level _mean
        eigenvalues = _c2c(chan, _LAST, True, 0, chan, 1).real + float(np.add.reduce(shift)) / n
        if not eigenvalues.min() > 0.0:
            raise NumericalError("matrix is not positive definite: its circulant preconditioner "
                                 "has an eigenvalue <= 0")
        inverse = np.divide(1.0, eigenvalues, out=self.inverse)
        rr = _real_dot(rhs, rhs)
        if not rr < math.inf:
            raise NumericalError("conjugate gradients met a non-finite residual")
        scale = math.sqrt(rr)
        x = rhs  # the solution overwrites b, which r takes over as b / ||b||
        if scale == 0.0:  # ||b||^2 is 0, or underflows
            x.fill(0.0)
            return x
        r = np.multiply(rhs, 1.0 / scale, out=self.r)
        np.copyto(self.b, rhs)
        x.fill(0.0)
        stop = _CG_TOLERANCE * _CG_TOLERANCE
        p, z, q = self.p, self.z, self.q
        p.fill(0.0)
        rz = math.inf  # so that the first direction is the preconditioned residual
        spectrum, padded, product = self.spectrum, self.padded, self.product
        padded_head, product_head, lag_spectrum = (self.padded_head, self.product_head,
                                                   self.lag_spectrum)
        r_points, p_points, z_points = self.r_points, self.p_points, self.z_points
        for _ in range(n):
            # z = C^-1 r cut to N, then p = z + (r^H z / previous r^H z) p, into z's buffer
            _c2c(r_points, _LAST, True, 0, spectrum, 1)
            np.multiply(spectrum, inverse, out=spectrum)
            _c2c(spectrum, _LAST, False, 2, z_points, 1)
            rz, previous = _real_dot(r, z), rz
            p, z = _axpy(p, z, n, rz / previous), p
            p_points, z_points = z_points, p_points
            # q = A p: lam G p by the circulant embedding, plus shift * p
            padded_head[...] = p
            _c2c(padded, _LAST, True, 0, product, 1)
            np.multiply(product, lag_spectrum, out=product)
            _c2c(product, _LAST, False, 2, product, 1)
            np.add(np.multiply(shift, p, out=q), product_head, out=q)
            curvature = _real_dot(p, q)
            if not curvature > 0.0:
                raise NumericalError("matrix is not positive definite: conjugate gradients met "
                                     "a direction of curvature <= 0")
            step = rz / curvature
            _axpy(p, x, n, step)
            _axpy(q, r, n, -step)
            rr = _real_dot(r, r)
            if rr <= stop:
                return _dscal(scale, x, n, 0, 1, 1)
            if not rr < math.inf:
                raise NumericalError("conjugate gradients met a non-finite residual")
        if self.cholesky is None:
            self.cholesky = _Cholesky(n)
        np.copyto(x, self.b)
        return self.cholesky.solve(lam, gram, x, shift)


def _w_solver(n: int) -> Callable:
    """The w block's solve for N elements, picked by N: ``_Cholesky``'s below
    ``_SPECTRAL_CROSSOVER``, which holds the N x N matrix, and ``_ConjugateGradients``' from it
    on, which holds vectors of length N and L alone until a system falls back to Cholesky."""
    return (_Cholesky if n < _SPECTRAL_CROSSOVER else _ConjugateGradients)(n).solve


class _Workspace:
    """The block systems' buffers and constants, allocated once per ``solve`` (and once per
    public block call) and overwritten by every sweep; no workspace outlives its call.

    ``gram_w`` and ``gram_v`` are the lag buffers (``_Lags``) that the moments of w and of v
    write their Gram diagonals into. The next iterate's moments overwrite each only after its
    last reader: the data block and w's trace row for w, the w block and the next trace row
    for v. ``diagonals`` holds the data block's Toeplitz diagonals (``_data_block``), which
    Levinson reads and does not keep. ``solve_w`` is the w block's solver (``_w_solver``),
    which ``solve`` and ``solve_weight_system`` hand in; ``update_v``, which solves the data
    block alone, builds none.
    """

    __slots__ = ("lam", "half_rho", "gram_w", "gram_v", "diagonals", "solve_w")

    def __init__(self, n: int, params: SolverParams, solve_w: Optional[Callable] = None):
        self.lam = params.lam
        self.half_rho = params.rho / 2.0
        self.gram_w = _lags(n)
        self.gram_v = _lags(n)
        self.diagonals = np.empty(2 * n - 1, complex)
        self.solve_w = solve_w


def _data_block(ws: _Workspace, partner: _Moments, target: np.ndarray,
                lam_alpha: float) -> np.ndarray:
    """update_v without its checks, from the moments of its partner iterate, the target the
    caller forms and lam_alpha = lam * alpha.

    Solves (lam G(partner) + (rho/2) I) y = lam * alpha * T_d partner + (rho/2) target by
    one Levinson recursion on the Toeplitz diagonals of the matrix, formed in ws; the
    right-hand side overwrites target. For v, the partner is w and the target w + u.
    """
    diagonals = np.multiply(ws.lam, partner.gram, out=ws.diagonals)
    diagonals[target.size - 1] += ws.half_rho
    rhs = _rhs(lam_alpha, partner.td_x, ws.half_rho, target)
    # No positive definiteness check: G is positive semidefinite, rho > 2 (SolverParams)
    # and the inputs are checked finite where they enter, so the system is Hermitian
    # positive definite by construction. Levinson's reflection coefficients could not
    # serve as the check, since an indefinite system can keep them all within the unit disk.
    try:
        solution, _ = _levinson(diagonals, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Levinson solve failed: {exc}") from exc
    return solution


def _w_system(ws: _Workspace, mv: _Moments, target: np.ndarray, lam_alpha: float,
              shift: np.ndarray) -> np.ndarray:
    """solve_weight_system without its checks, from the moments of v, the target v - u the
    caller forms, lam_alpha = lam * alpha and shift = diag + rho/2, what the w block adds to
    lam G's diagonal.

    Solves (lam G + diag(diag) + (rho/2) I) w = lam * alpha * T_d v + (rho/2) target, a
    Hermitian positive definite system whose majorizer diagonal makes it non-Toeplitz, by
    the workspace's solver (``_Cholesky`` or ``_ConjugateGradients``, picked by N). The
    right-hand side overwrites target.
    """
    rhs = _rhs(lam_alpha, mv.td_x, ws.half_rho, target)
    return ws.solve_w(ws.lam, mv.gram, rhs, shift)


def _w_block(ws: _Workspace, mv: _Moments, target: np.ndarray, lam_alpha: float,
             shift: np.ndarray) -> np.ndarray:
    """The next w: the w block's solution (``_w_system``) projected onto the unit sphere,
    which rejects a non-finite solution."""
    return _project_unit_sphere(_w_system(ws, mv, target, lam_alpha, shift))


def update_alpha(steering: SteeringSet, w, v, d: DesiredPattern) -> float:
    """Least-squares template scale, argmin over real alpha of sum_k |r_k - alpha d_k|^2 with
    r_k = w^H a_k a_k^H v, in the sweep's moment form Re(w^H T_d v) / d^T d."""
    _require_template(steering, d)
    n = steering.n_elements
    w = _as_vector(w, n, "w")
    v = _as_vector(v, n, "v")
    dd = _template_energy(d)
    with np.errstate(over="ignore", invalid="ignore"):
        kernel, grid, template = _moment_kernel(steering, d)
        alpha = _real_dot(w, kernel(grid, template, v).td_x) / dd
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
    """Exact minimizer of the data block for v (matching term plus consensus penalty)."""
    _require_problem(steering, d, params)
    _require_scalar(alpha, "alpha")
    n = steering.n_elements
    w = _as_vector(w, n, "w")
    u = _as_vector(u, n, "u")
    with np.errstate(over="ignore", invalid="ignore"):
        ws = _Workspace(n, params)
        kernel, grid, template = _moment_kernel(steering, d)
        mw = kernel(grid, template, w, ws.gram_w)
        return _require_finite_solution(_data_block(ws, mw, w + u, ws.lam * alpha))


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
    _require_scalar(alpha, "alpha")
    n = steering.n_elements
    v = _as_vector(v, n, "v")
    u = _as_vector(u, n, "u")
    diag = _as_vector(diag, n, "majorizer diagonal", float)
    with np.errstate(over="ignore", invalid="ignore"):
        ws = _Workspace(n, params, _w_solver(n))
        kernel, grid, template = _moment_kernel(steering, d)
        mv = kernel(grid, template, v, ws.gram_v)
        shift = diag + ws.half_rho
        return _require_finite_solution(_w_system(ws, mv, v - u, ws.lam * alpha, shift))


def initial_state(steering: SteeringSet, params: SolverParams) -> AdmmState:
    """Random start: v and w drawn i.i.d. complex Gaussian then unit-normalized.

    The 4N standard normals are numpy's ``default_rng(params.seed).standard_normal`` bit for
    bit, drawn by the package's own port of it (``normals._standard_normals``): the real parts
    of v, its imaginary parts, then w's. So the start no longer depends on the numpy
    installed, and a solve imports none of numpy's random package."""
    _require_type(steering, SteeringSet, "steering")
    _require_type(params, SolverParams, "params")
    # loaded by the first draw, not by import beamsparse: where no bytecode is cached its
    # compile takes about 2 ms
    from .normals import _standard_normals

    n = steering.n_elements
    z = _standard_normals(params.seed, 4 * n)
    v0 = _project_unit_sphere(z[:n] + 1j * z[n:2 * n])
    w0 = _project_unit_sphere(z[2 * n:3 * n] + 1j * z[3 * n:])
    return AdmmState(alpha=1.0, v=v0, w=w0, u=np.zeros(n, complex))


def _append_row(raw: array, mw: _Moments, mv: _Moments, w: np.ndarray, cross: float,
                sparsity: float, wv: np.ndarray, u: np.ndarray, alpha: float, dd: float,
                w_change: float):
    """Append a state's raw trace scalars from what its sweep computed: the moments of w and
    v, cross = Re w^H T_d v = Re d^T r, the entropy of w and wv = w - v. The w block's solve
    and projection check w finite, and v through its system; this checks alpha and u, and a
    zero template scale, which leaves the row's matching error undefined."""
    gap = wv + u
    gap_sq = _real_dot(gap, gap)
    if not math.isfinite(alpha + gap_sq):
        raise NumericalError("iterates turned non-finite")
    if not alpha * alpha * dd > 0.0:
        raise DegenerateInputError("scaled template has no energy")
    raw.extend((_pattern_dot(mw, mw), _real_dot(w, mw.td_x), _pattern_dot(mw, mv), cross,
                sparsity, gap_sq, _real_dot(wv, wv), alpha, w_change))


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
    _require_scalar(alpha, "initial alpha")
    ws = _Workspace(n, params, _w_solver(n))
    sparsity, diag = _penalty(_weight_powers(w, n, "initial w"))
    shift = diag + ws.half_rho

    # The steering matrix is read here only, for T_d's lags, where the moment kernel is picked
    # here once; each iterate's moments and penalty serve both blocks and the rows, as the
    # module docstring lists.
    kernel, grid, template = _moment_kernel(steering, d)
    raw = array("d")
    # finite start vectors can overflow where the sweep's bounded iterates cannot: row 0 is
    # formed with overflow silenced and must meet the Trace rule
    with np.errstate(over="ignore", invalid="ignore"):
        mw = kernel(grid, template, w, ws.gram_w)
        mv = kernel(grid, template, v, ws.gram_v)
        cross = _real_dot(w, mv.td_x)
        _append_row(raw, mw, mv, w, cross, sparsity, w - v, u, alpha, dd, 0.0)
    try:
        _derive_trace(raw, dd, params)
    except ContractError as exc:
        raise ContractError(f"the start state's trace row is invalid: {exc}") from exc
    for it in range(1, params.max_iters + 1):
        try:
            alpha = cross / dd
            lam_alpha = ws.lam * alpha
            v = _data_block(ws, mw, w + u, lam_alpha)
            mv = kernel(grid, template, v, ws.gram_v)
            swept = _w_block(ws, mv, v - u, lam_alpha, shift)
            wv = swept - v
            u = u + wv
            step = swept - w
            w_change = math.sqrt(_real_dot(step, step))
            w = swept
            mw = kernel(grid, template, w, ws.gram_w)
            sparsity, diag = _penalty(np.abs(w) ** 2)
            shift = diag + ws.half_rho
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
    _require_scalar(eta, "eta", "must be positive", lambda x: x > 0)
    return trace.w_change.size >= 2 and bool(trace.w_change[-1] <= eta)
