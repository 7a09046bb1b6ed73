"""Shannon-entropy sparsity measure and its diagonal quadratic majorizer.

For a unit-power weight vector the per-element powers p_n = |w_n|^2 form a
probability vector, and the regularizer is the Shannon entropy

    f(w) = -sum_n p_n log p_n        (natural log)

which is 0 when all power sits on one element and log N when power is
uniform, so minimizing it concentrates power on few elements. Since f is
concave in p, it is bounded above by its tangent plane at any anchor point;
on the sphere the tangent takes the quadratic form

    f(w) <= w^H diag(grad) w + const,

with grad_n = -log p_n - 1 evaluated at the anchor powers. The solver
refreshes this bound once per iteration and minimizes it in place of f.
Powers below ``POWER_FLOOR`` are clamped inside the log so the bound stays
finite when elements are driven to exact zero; such entries contribute
nothing to the entropy value itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import (
    WeightVector,
    _as_vector,
    _readonly,
    _require_finite,
    _require_unit_power,
)
from .errors import ContractError

#: Clamp floor for log arguments; keeps gradients finite at zero power.
POWER_FLOOR = 1e-12


def _unit_powers(w: WeightVector) -> np.ndarray:
    p = w.powers()
    _require_unit_power(float(p.sum()))
    return p


def _powers_and_entropy(w: WeightVector) -> tuple[np.ndarray, float]:
    """Powers of unit-power weights and their entropy, from one power vector."""
    p = _unit_powers(w)
    # entries below the floor contribute zero (the 0*log 0 convention)
    safe = np.where(p >= POWER_FLOOR, p, 1.0)
    return p, -float((safe * np.log(safe)).sum())


def _majorizer_diag(p: np.ndarray) -> np.ndarray:
    """Diagonal of the tangent bound at anchor powers p: the entropy gradient."""
    return -np.log(np.maximum(p, POWER_FLOOR)) - 1.0


def entropy(w: WeightVector) -> float:
    """Shannon entropy of the element-power distribution, in [0, log N]."""
    return _powers_and_entropy(w)[1]


def entropy_gradient(p: np.ndarray) -> np.ndarray:
    """Gradient of -sum p log p, elementwise -log(max(p, floor)) - 1."""
    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0) & (p < np.inf)):
        raise ContractError("powers must be finite and nonnegative")
    return _majorizer_diag(p)


@dataclass(frozen=True, eq=False)
class MajorizerDiag:
    """Tangent upper bound of the entropy at an anchor point.

    The bound evaluates as sum_n diag[n] * |w_n|^2 + constant; it touches the
    entropy at the anchor and lies above it everywhere else on the sphere.
    """

    diag: np.ndarray
    constant: float

    def __post_init__(self):
        object.__setattr__(self, "diag", _readonly(np.asarray(self.diag, dtype=float)))


def majorizer_diag(w_anchor: WeightVector) -> MajorizerDiag:
    """Build the tangent bound of the entropy at the anchor weights."""
    p, value = _powers_and_entropy(w_anchor)
    grad = _majorizer_diag(p)
    return MajorizerDiag(grad, value - float(grad @ p))


def majorizer_value(w: WeightVector, m: MajorizerDiag) -> float:
    """Evaluate the tangent bound at unit-power weights w."""
    _as_vector(m.diag, w.n_elements, "majorizer diagonal", float)
    _require_finite(m.constant, "majorizer constant")
    return float(m.diag @ _unit_powers(w)) + m.constant
