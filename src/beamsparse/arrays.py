"""Uniform linear array model: steering vectors, grid moments, beampatterns, sphere projection.

Angles cross the public API in degrees and are converted to radians exactly
once, internally. All container types are immutable after construction and
safe to share between threads; beampattern evaluation is an independent
per-angle map with no cross-angle reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DegenerateInputError
from .kernels import _dscal, _gemv, _real_dot

#: Most angles a uniform grid may have (480 MB of steering vectors at 30 elements).
MAX_GRID_ANGLES = 1_000_000

#: Bound on every integer a package type accepts (``n_elements``, ``max_iters``, ``seed``,
#: ``RunReport.cardinality``), so every writer prints it: ``json.dumps`` refuses an int of
#: more than 4,300 digits.
MAX_COUNT = 2**63

#: The size budget of a solve, max(K*N, N*N) entries, 480 MB of complex values: K*N counts
#: the K x N steering vectors, the largest matrix a solve holds, and N*N caps the array at
#: 5,477 elements. The solver's other matrices are smaller: the w block's N x N one exists
#: below ``admm._SPECTRAL_CROSSOVER`` elements, and from there on only where the conjugate
#: gradients fall back to Cholesky; the N x (2N-1) moment operand of the small-N moment kernel
#: holds at most 40,755 entries.
MAX_MATRIX_ENTRIES = 30_000_000


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _is_integer(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _as_real(x) -> float:
    """A Python or numpy int or float, not a bool, as a float. Anything else, or an int too
    large for a float, is NaN, which fails every range check."""
    if isinstance(x, bool) or not isinstance(x, (int, float, np.integer, np.floating)):
        return math.nan
    try:
        return float(x)
    except OverflowError:
        return math.nan


def _echo(x) -> str:
    """A value as an error message shows it, in at most 60 characters: its repr when that is
    short, an integer too long for that by its digit count, an object whose repr fails by its
    type, and anything longer cut short. Never raises: repr raises for an int past the
    interpreter's digit limit, and this never calls it on one."""
    n = abs(int(x)) if _is_integer(x) else 0
    if n >= 10**59:
        digits = int(n.bit_length() * 0.3010299956639812)  # times log10(2): one short or exact
        digits += n >= 10**digits
        text = f"{'a negative' if x < 0 else 'an'} integer of {digits} digits"
    else:
        try:
            text = repr(x)
        except Exception:  # any object's __repr__ may raise
            text = f"a {type(x).__name__} with no repr"
    return text if len(text) <= 60 else text[:57] + "..."


def _require_scalar(x, name: str, rule: str = "is non-finite or not a real number",
                    test=math.isfinite, error: type = ContractError) -> float:
    """The scalar rule of every public number. x is read by ``_as_real`` and must pass the
    owner's range test; else it raises the owner's error, "<name> <rule>, got <x>" with x as
    ``_echo`` shows it. Returns the value read."""
    value = _as_real(x)
    if not test(value):
        raise error(f"{name} {rule}, got {_echo(x)}")
    return value


def _require_count(x, name: str, least: int) -> int:
    """The scalar rule for an integer field: a Python or numpy int, not a bool, from least up
    to below ``MAX_COUNT``, compared exactly. Returns it as a Python int."""
    _require_scalar(x, name, f"must be an integer >= {least} and < 2**63",
                    lambda _: _is_integer(x) and least <= int(x) < MAX_COUNT)
    return int(x)


def _as_vector(x, n: int | None, name: str, dtype=complex) -> np.ndarray:
    """The vector rule of every public argument: a non-empty 1-D array of finite numbers, of
    length n (any length for n=None). Strings, objects (huge ints among them), ragged nesting,
    complex values for a real dtype, bools for a numeric dtype and numbers for a bool dtype
    are rejected, not cast."""
    try:
        raw = np.asarray(x)
    except ValueError:  # ragged nesting, rejected below as objects
        raw = np.asarray(None)
    kind = np.dtype(dtype).kind
    if raw.dtype.kind not in ("b" if kind == "b" else "iuf" + kind):
        raise ContractError(f"{name} must hold numbers of dtype {np.dtype(dtype)}, got {raw.dtype}")
    x = raw.astype(dtype, copy=False)
    if x.size == 0:
        raise ContractError(f"{name} is empty")
    n = x.size if n is None else n
    if x.shape != (n,):
        raise ContractError(f"{name} must be a vector of length {n}, got array size {x.shape}")
    if not np.isfinite(x).all():
        raise ContractError(f"{name} holds non-finite values")
    return x


def _as_powers(x, n: int | None, name: str) -> np.ndarray:
    """The power rule of every pattern, template and power vector: the vector rule, real,
    with no entry below zero."""
    x = _as_vector(x, n, name, float)
    if not (x >= 0.0).all():
        raise ContractError(f"{name} must be nonnegative")
    return x


def _require_type(x, cls: type, name: str):
    """The type rule of every package object a public call takes, checked where it enters."""
    if not isinstance(x, cls):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        raise ContractError(f"{name} must be {article} {cls.__name__}, got {type(x).__name__}")


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array of isotropic elements.

    Parameters
    ----------
    n_elements : int
        Number of antenna elements, at least 2.
    spacing_ratio : float
        Inter-element spacing divided by wavelength. The half-wavelength
        default avoids grating lobes over the full visible region.
    """

    n_elements: int
    spacing_ratio: float = 0.5

    def __post_init__(self):
        n = _require_count(self.n_elements, "n_elements", 2)
        # plain Python numbers: an overflowing phase is inf, with no numpy warning
        _require_scalar(self.spacing_ratio, "spacing_ratio", "must be > 0 with a finite "
                        "steering phase 2*pi*spacing_ratio*(n_elements - 1)",
                        lambda s: s > 0 and math.isfinite(2.0 * math.pi * s * (n - 1)))


@dataclass(frozen=True, eq=False)
class AngleGrid:
    """Strictly increasing sample angles in degrees, restricted to [-90, +90]."""

    angles_deg: np.ndarray

    def __post_init__(self):
        angles = _as_vector(self.angles_deg, None, "grid angles", float)
        # visible first: np.diff of far-apart finite angles could overflow
        _require_visible(angles.min(), angles.max())
        if not np.all(np.diff(angles) > 0):
            raise ContractError("grid angles must be strictly increasing")
        object.__setattr__(self, "angles_deg", _readonly(angles))

    @property
    def count(self) -> int:
        return self.angles_deg.size

    @classmethod
    def uniform(cls, start_deg: float, stop_deg: float, step_deg: float) -> "AngleGrid":
        """Regular grid from start to stop inclusive (when step divides the span)."""
        start = _require_scalar(start_deg, "grid_start_deg")
        stop = _require_scalar(stop_deg, "grid_stop_deg")
        step = _require_scalar(step_deg, "grid_step_deg", "must be finite and > 0",
                               lambda x: 0 < x < math.inf)
        if not start < stop:
            raise ContractError("grid_start_deg must be below grid_stop_deg")
        steps = float(np.floor((stop - start) / step + 1e-9))
        last = start + step * steps
        # start + step * steps rounds to either side of stop when step divides the span
        # (to the floor's tolerance), and that last angle is stop itself
        if steps > 0 and stop - last <= 1e-9 * step:
            last = stop
        # check the last angle before allocating them all: a far-off stop would ask for
        # an unbounded number of angles only to reject them
        _require_visible(start, last)
        if not steps < MAX_GRID_ANGLES:
            raise ContractError(
                f"grid_step_deg {step} gives more than {MAX_GRID_ANGLES} grid angles"
            )
        angles = start + step * np.arange(int(steps) + 1)
        angles[-1] = last
        return cls(angles)


def _require_solve_size(geometry: ArrayGeometry, grid: AngleGrid):
    """Reject an array and grid whose size, max(K*N, N*N), exceeds the budget
    ``MAX_MATRIX_ENTRIES``. Checked before the K x N steering vectors are allocated."""
    n, k = int(geometry.n_elements), grid.count
    entries = max(k * n, n * n)
    if entries > MAX_MATRIX_ENTRIES:
        raise ContractError(
            f"n_elements {_echo(n)} with {k} grid angles has a size of {_echo(entries)} "
            f"entries (max(K*N, N*N)), more than the solve size budget of {MAX_MATRIX_ENTRIES}"
        )


def _require_visible(first_deg: float, last_deg: float):
    """Every angle of an increasing grid lies in [-90, 90] (NaN fails)."""
    if not (-90.0 <= first_deg and last_deg <= 90.0):
        raise ContractError("grid angles must lie within [-90, 90] degrees")


def _with_negative_lags(col: np.ndarray, n: int) -> np.ndarray:
    """[conj(col[n-1:0:-1]), col]: a Hermitian sequence c_j = conj(c_-j) from j = 0 up,
    extended down to j = -(n - 1). Entry n - 1 + j of the result is c_j."""
    return np.concatenate((np.conj(col[n - 1 : 0 : -1]), col))


def _toeplitz_view(lags: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """The rows x cols Toeplitz matrix T[i, j] = lags[i - j + cols - 1], as a view of lags with
    strides (itemsize, -itemsize). This is the package's one lag layout: entry n - 1 + l of a
    ``_with_negative_lags`` sequence is lag l, so its n x n view has lag i - j at (i, j), and
    the n x (2n - 1) view of the grid moments (``SteeringSet.moments``) has q_(i-j+n-1). A
    matrix that must own its memory is copied from the view by np.array(view, order="F"), not
    by np.asfortranarray, which hands back a view that is already Fortran-contiguous (1 x 1)."""
    step = lags.itemsize
    return np.ndarray((rows, cols), lags.dtype, lags, (cols - 1) * step, (step, -step))


@dataclass(frozen=True, eq=False)
class SteeringSet:
    """Steering vectors of an array for every angle of a grid.

    ``vectors`` has shape (K, N) and is computed from ``geometry`` and
    ``grid``: element n of row k carries phase
    2*pi*spacing_ratio*n*sin(theta_k), with the first element as phase
    reference. Each row is thus a geometric phase ramp a_k[n] = a_k[1]^n of
    unit modulus, the structure the solver's Toeplitz Gram build relies on.

    ``moments`` holds the grid's trigonometric moments q_i = sum_k z_k^i of z_k = a_k[1] for
    i = -(N-1) ... 2N-2, entry N - 1 + i holding q_i (the ``_with_negative_lags`` layout): the
    column sums of ``vectors`` (q_0 ... q_(N-1)), its last column's products with all columns
    (q_(N-1) ... q_(2N-2), of which the first is dropped) and q_-i = conj(q_i). Each data-fit
    Gram diagonal of an iterate is a sum of these moments (``admm._Moments``), so the solver's
    sweep needs no more of the grid than them and the template's T_d; each of its moment
    kernels derives its own operand from them.
    """

    geometry: ArrayGeometry
    grid: AngleGrid
    vectors: np.ndarray = field(init=False, repr=False)
    moments: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _require_type(self.geometry, ArrayGeometry, "geometry")
        _require_type(self.grid, AngleGrid, "grid")
        _require_solve_size(self.geometry, self.grid)
        n = self.geometry.n_elements
        sin_theta = np.sin(np.radians(self.grid.angles_deg))
        phases = 2.0 * np.pi * self.geometry.spacing_ratio * np.outer(sin_theta, np.arange(n))
        # exp(i phase) as cos + i sin, written into a's parts: no K x N temporary 1j * phases
        a = np.empty(phases.shape, complex)
        np.cos(phases, out=a.real)
        np.sin(phases, out=a.imag)
        # q_0 ... q_(2N-2), the products from a.T, which is Fortran-ordered as it stands
        col = np.concatenate((a.sum(axis=0), _gemv(1.0, a.T, a[:, n - 1])[1:]))
        object.__setattr__(self, "vectors", _readonly(a))
        object.__setattr__(self, "moments", _readonly(_with_negative_lags(col, n)))

    @property
    def n_angles(self) -> int:
        return self.grid.count

    @property
    def n_elements(self) -> int:
        return self.geometry.n_elements


def build_steering_set(geometry: ArrayGeometry, grid: AngleGrid) -> SteeringSet:
    """Precompute steering vectors for all grid angles (see ``SteeringSet``)."""
    return SteeringSet(geometry, grid)


def beampattern(steering: SteeringSet, w: np.ndarray) -> np.ndarray:
    """Radiated power versus angle, |a(theta_k)^H w|^2 for every grid angle.

    Uses the rank-1 structure of the angle quadratic form, so the cost is
    O(N) per angle and the result is exactly real and nonnegative. Finite weights whose
    pattern overflows raise ``ContractError``.
    """
    _require_type(steering, SteeringSet, "steering")
    w = _as_vector(w, steering.n_elements, "w")
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf is NaN inside the product
        pattern = np.abs(_gemv(1.0, steering.vectors.T, np.conj(w), trans=1)) ** 2
    if not np.isfinite(pattern).all():
        raise ContractError("the pattern |a_k^H w|^2 of w overflows")
    return pattern


def project_unit_sphere(x: np.ndarray) -> np.ndarray:
    """Scale a nonzero vector to unit l2 norm, in a new array."""
    x = _as_vector(x, None, "x")
    with np.errstate(over="ignore"):
        if _real_dot(x, x) == math.inf:
            raise ContractError("the squared norm of x overflows")
    return _project_unit_sphere(x.copy())


def _project_unit_sphere(x: np.ndarray) -> np.ndarray:
    """project_unit_sphere without the vector rule, for a contiguous complex vector the caller
    owns: x is scaled in place by BLAS's zdscal with 1 / ||x|| and returned. numpy divides a
    complex array by a real as a product with its reciprocal, so each nonzero part is that of
    x / ||x|| bit for bit; a zero part stays zero, with the sign the BLAS kernel gives it."""
    nrm = math.sqrt(_real_dot(x, x))
    if not 0.0 < nrm < math.inf:
        raise DegenerateInputError("cannot project a zero or non-finite vector onto the sphere")
    return _dscal(1.0 / nrm, x, x.size, 0, 1, 1)  # a, x, n, offx, incx, overwrite_x
