"""Uniform linear array model: steering vectors, beampatterns, sphere projection.

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

#: Most angles a uniform grid may have (480 MB of steering vectors at 30 elements).
MAX_GRID_ANGLES = 1_000_000

#: Most entries of the largest matrix a solve allocates, max(K*N, N^2): the K x N
#: steering vectors or an N x N block system, 480 MB of complex values.
MAX_MATRIX_ENTRIES = 30_000_000


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _is_integer(x) -> bool:
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _as_vector(x, n: int, name: str, dtype=complex, finite: bool = True) -> np.ndarray:
    """The vector rule of every public argument: non-empty, length n and, unless told
    not to, finite. A caller with no length to hold x to passes np.size(x)."""
    x = np.asarray(x, dtype=dtype)
    if x.size == 0:
        raise ContractError(f"{name} is empty")
    if x.shape != (n,):
        raise ContractError(f"{name} must be a vector of length {n}, got array size {x.shape}")
    if finite and not np.isfinite(x).all():
        raise ContractError(f"{name} holds non-finite values")
    return x


def _require_finite(x: float, name: str):
    """The scalar rule of every public argument that the vector rule does not cover."""
    if not math.isfinite(x):
        raise ContractError(f"{name} is non-finite, got {x}")


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
        if not _is_integer(self.n_elements):
            raise ContractError("n_elements must be an integer")
        if self.n_elements < 2:
            raise ContractError(f"n_elements must be >= 2, got {self.n_elements}")
        # plain floats: an overflowing phase is inf, with no numpy warning
        phase = 2.0 * math.pi * float(self.spacing_ratio) * (int(self.n_elements) - 1)
        if not (self.spacing_ratio > 0 and math.isfinite(phase)):
            raise ContractError(
                "spacing_ratio must be > 0 with a finite steering phase "
                f"2*pi*spacing_ratio*(n_elements - 1), got {self.spacing_ratio}"
            )


@dataclass(frozen=True, eq=False)
class AngleGrid:
    """Strictly increasing sample angles in degrees, restricted to [-90, +90]."""

    angles_deg: np.ndarray

    def __post_init__(self):
        angles = np.asarray(self.angles_deg, dtype=float)
        if angles.ndim != 1 or angles.size == 0:
            raise ContractError("angle grid must be a non-empty 1-D sequence")
        if not np.all(np.diff(angles) > 0):
            raise ContractError("grid angles must be strictly increasing")
        _require_visible(angles[0], angles[-1])
        object.__setattr__(self, "angles_deg", _readonly(angles))

    @property
    def count(self) -> int:
        return self.angles_deg.size

    @classmethod
    def uniform(cls, start_deg: float, stop_deg: float, step_deg: float) -> "AngleGrid":
        """Regular grid from start to stop inclusive (when step divides the span)."""
        if not 0 < step_deg < np.inf:
            raise ContractError(f"grid_step_deg must be finite and > 0, got {step_deg}")
        if not start_deg < stop_deg:
            raise ContractError("grid_start_deg must be below grid_stop_deg")
        steps = float(np.floor((stop_deg - start_deg) / step_deg + 1e-9))
        # check the last angle before allocating them all: a far-off stop would ask for
        # an unbounded number of angles only to reject them
        _require_visible(start_deg, start_deg + step_deg * steps)
        if not steps < MAX_GRID_ANGLES:
            raise ContractError(
                f"grid_step_deg {step_deg} gives more than {MAX_GRID_ANGLES} grid angles"
            )
        return cls(start_deg + step_deg * np.arange(int(steps) + 1))


def _require_solve_size(geometry: ArrayGeometry, grid: AngleGrid):
    """Reject an array and grid whose largest solve matrix exceeds ``MAX_MATRIX_ENTRIES``.

    Checked before anything of that size is allocated.
    """
    n, k = int(geometry.n_elements), grid.count
    entries = max(k * n, n * n)
    if entries > MAX_MATRIX_ENTRIES:
        raise ContractError(
            f"n_elements {n} with {k} grid angles needs a matrix of {entries} entries, "
            f"more than the {MAX_MATRIX_ENTRIES} a solve may allocate"
        )


def _require_visible(first_deg: float, last_deg: float):
    """Every angle of an increasing grid lies in [-90, 90] (NaN fails)."""
    if not (-90.0 <= first_deg and last_deg <= 90.0):
        raise ContractError("grid angles must lie within [-90, 90] degrees")


@dataclass(frozen=True, eq=False)
class SteeringSet:
    """Steering vectors of an array for every angle of a grid.

    ``vectors`` has shape (K, N) and is computed from ``geometry`` and
    ``grid``: element n of row k carries phase
    2*pi*spacing_ratio*n*sin(theta_k), with the first element as phase
    reference. Each row is thus a geometric phase ramp a_k[n] = a_k[1]^n of
    unit modulus, the structure the solver's Toeplitz Gram build relies on.
    """

    geometry: ArrayGeometry
    grid: AngleGrid
    vectors: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _require_solve_size(self.geometry, self.grid)
        sin_theta = np.sin(np.radians(self.grid.angles_deg))
        n = np.arange(self.geometry.n_elements)
        phases = 2.0 * np.pi * self.geometry.spacing_ratio * np.outer(sin_theta, n)
        object.__setattr__(self, "vectors", _readonly(np.exp(1j * phases)))

    @property
    def n_angles(self) -> int:
        return self.grid.count

    @property
    def n_elements(self) -> int:
        return self.geometry.n_elements


def steering_vector(geometry: ArrayGeometry, theta_deg: float) -> np.ndarray:
    """Steering vector of the array toward a single direction.

    The one-angle row of ``build_steering_set``.

    Parameters
    ----------
    geometry : ArrayGeometry
    theta_deg : float
        Direction in degrees, within [-90, +90].

    Returns
    -------
    ndarray
        Complex vector of length ``geometry.n_elements``.
    """
    return build_steering_set(geometry, AngleGrid([theta_deg])).vectors[0]


def build_steering_set(geometry: ArrayGeometry, grid: AngleGrid) -> SteeringSet:
    """Precompute steering vectors for all grid angles (see ``SteeringSet``)."""
    return SteeringSet(geometry, grid)


def _steer_products(steering: SteeringSet, x: np.ndarray) -> np.ndarray:
    """a_k^H x for every grid angle, without forming the conjugate steering matrix."""
    return np.conj(steering.vectors @ np.conj(x))


def beampattern(steering: SteeringSet, w: np.ndarray) -> np.ndarray:
    """Radiated power versus angle, |a(theta_k)^H w|^2 for every grid angle.

    Uses the rank-1 structure of the angle quadratic form, so the cost is
    O(N) per angle and the result is exactly real and nonnegative.
    """
    w = _as_vector(w, steering.n_elements, "w")
    return np.abs(_steer_products(steering, w)) ** 2


def project_unit_sphere(x: np.ndarray) -> np.ndarray:
    """Scale a nonzero vector to unit l2 norm."""
    x = np.asarray(x)
    nrm = float(np.linalg.norm(x))
    if not nrm > 0.0 or not np.isfinite(nrm):
        raise DegenerateInputError("cannot project a zero or non-finite vector onto the sphere")
    return x / nrm
