"""Shannon-entropy sparsity measure and its diagonal quadratic majorizer.

For a unit-power weight vector the per-element powers p_n = |w_n|^2 form a
probability vector, and the regularizer is the Shannon entropy

    f(w) = -sum_n p_n log p_n        (natural log)

which is 0 when all power sits on one element and log N when power is
uniform, so minimizing it concentrates power on few elements. Computed, it lies in
[0, log N] to rounding: one-hot weights whose power rounds to 1 + 4.4e-16 give
about -4.4e-16, since p log p > 0 there and nothing clamps the sum. Since f is
concave in p, it is bounded above by its tangent plane at any anchor point
with powers q; in w the tangent takes the quadratic form

    f(w) <= f(anchor) + sum_n grad_n (|w_n|^2 - q_n) = w^H diag(grad) w + const,

with grad_n = -log q_n - 1, so the bound is its diagonal: ``majorizer_diag``
returns grad as a plain array and ``majorizer_value`` evaluates the bound
from its anchor. The solver refreshes this diagonal once per iteration and
minimizes the bound in place of f.
The entropy and its tangent diagonal come from one kernel over the powers,
which clamps them at ``POWER_FLOOR`` and takes one log, L = log max(p, floor):
the value is -sum p L over the powers at or above the floor (powers below it
contribute nothing, the 0 log 0 convention) and the diagonal is -1 - L, which
stays finite when elements are driven to exact zero. Every function here, and
the solver for each weight vector, reads that kernel.

This module owns the unit-power rule: every function here that takes weights
rejects a total power farther than ``UNIT_NORM_TOL`` from 1 with
``ContractError``, in the one place that forms the powers (overflowing powers total inf).
"""

from __future__ import annotations

import numpy as np

from .arrays import _as_powers, _as_vector
from .errors import ContractError

#: Clamp floor for log arguments; keeps gradients finite at zero power.
POWER_FLOOR = 1e-12

#: Bound on | ||w||^2 - 1 | for the weights the entropy functions accept.
UNIT_NORM_TOL = 1e-12


def _weight_powers(w, n: int | None, name: str) -> np.ndarray:
    """Powers |w_n|^2 of public weights, after the vector rule, rejecting a total farther than
    ``UNIT_NORM_TOL`` from 1 (NaN fails); powers that overflow total inf with no warning."""
    w = _as_vector(w, n, name)
    with np.errstate(over="ignore"):
        p = np.abs(w) ** 2
        power = float(p.sum())
    if not abs(power - 1.0) <= UNIT_NORM_TOL:
        raise ContractError(f"weights must have unit total power, got {power}")
    return p


def _penalty(p: np.ndarray) -> tuple[float, np.ndarray]:
    """The entropy of powers p and its tangent diagonal there, from one clamped log."""
    log_p = np.log(np.maximum(p, POWER_FLOOR))
    terms = p * log_p
    terms *= p >= POWER_FLOOR  # below the floor, +-0: the same pairwise sum as 0 there
    return 0.0 - float(np.add.reduce(terms)), -1.0 - log_p


def entropy(w: np.ndarray) -> float:
    """Shannon entropy of the element-power distribution, in [0, log N] to rounding (about
    -4.4e-16 for one-hot weights whose power rounds above 1)."""
    return _penalty(_weight_powers(w, None, "w"))[0]


def entropy_gradient(p: np.ndarray) -> np.ndarray:
    """Gradient of -sum p log p, elementwise -log(max(p, floor)) - 1."""
    p = _as_powers(p, None, "powers")
    with np.errstate(over="ignore"):  # the discarded value may overflow; -1 - log p cannot
        return _penalty(p)[1]


def majorizer_diag(w_anchor: np.ndarray) -> np.ndarray:
    """Diagonal of the entropy's tangent bound at the anchor weights."""
    return _penalty(_weight_powers(w_anchor, None, "w"))[1]


def majorizer_value(w: np.ndarray, w_anchor: np.ndarray) -> float:
    """Tangent bound of the entropy at the anchor, evaluated at unit-power weights w.

    With anchor powers q and diag = ``majorizer_diag(w_anchor)``, the bound is
    entropy(w_anchor) + sum_n diag[n] * (|w_n|^2 - q_n): it touches the entropy
    at the anchor and lies above it everywhere else on the sphere.
    """
    p = _weight_powers(w, None, "w")
    q = _weight_powers(w_anchor, p.size, "anchor weights")
    value, diag = _penalty(q)
    return value + float(diag @ (p - q))
