"""Run-level quality metrics.

Two conventions here are deliberate reconstructions (the counting rule for
selected elements and the normalization of the matching error are design
choices of this tool, documented in the README):

* an element counts as selected when its power exceeds ``rel_threshold``
  times the strongest element's power (default threshold 1e-3, i.e. within
  30 dB of the strongest element);
* the matching error is total squared pattern residual over total squared
  scaled-template energy, reported in dB.
"""

from __future__ import annotations

import math

import numpy as np

from .arrays import _as_real, _as_vector, _require_finite, _require_type
from .errors import ContractError, DegenerateInputError
from .templates import DesiredPattern

#: Serialized stand-in for -inf dB (exact ratios of zero).
DB_FLOOR = -300.0
# DB_FLOOR as a power ratio: _db raises smaller ratios to it, runner smaller pattern peaks.
_RATIO_FLOOR = 1e-30
# Default selection threshold of ``cardinality`` and of the experiment config.
_SELECTION_THRESHOLD = 1e-3


def _db(ratio):
    """10 log10 of power ratios, floored at ``DB_FLOOR``; a float for scalar input."""
    db = np.maximum(10.0 * np.log10(np.maximum(ratio, _RATIO_FLOOR)), DB_FLOOR)
    return float(db) if np.ndim(db) == 0 else db


def _require_threshold(rel_threshold: float):
    """The selection threshold is a fraction of the strongest power, inside (0, 1)."""
    if not 0.0 < _as_real(rel_threshold) < 1.0:
        raise ContractError(f"cardinality_threshold must lie in (0, 1), got {rel_threshold!r}")


def _require_both_regions(mask: np.ndarray):
    """The peak-sidelobe ratio needs mainlobe and sidelobe angles on the grid."""
    if not mask.any() or mask.all():
        raise ContractError("mainlobes must cover some grid angles but not all of them")


def cardinality(w: np.ndarray, rel_threshold: float = _SELECTION_THRESHOLD) -> int:
    """Number of selected elements: powers above rel_threshold * max power."""
    _require_threshold(rel_threshold)
    with np.errstate(over="ignore"):
        p = np.abs(_as_vector(w, None, "w")) ** 2
    top = p.max()
    if not np.isfinite(top):  # every power would fall below an infinite threshold
        raise ContractError("the powers |w_n|^2 of w overflow")
    return int(np.count_nonzero(p > rel_threshold * top))


def matching_error_db(pattern: np.ndarray, alpha: float, d: DesiredPattern) -> float:
    """Normalized pattern matching error in dB.

    10*log10( sum (P_k - alpha*d_k)^2 / sum (alpha*d_k)^2 ), floored at
    ``DB_FLOOR`` for an exact match.
    """
    _require_type(d, DesiredPattern, "template")
    pattern = _as_vector(pattern, d.count, "pattern", float)
    _require_finite(alpha, "alpha")
    # finite inputs can still overflow a sum of squares. The solver's trace rows skip
    # this check: there w has unit norm, so P_k <= N, and alpha * d is the projection
    # of Re r onto d, so neither sum can overflow.
    with np.errstate(over="ignore"):
        scaled = alpha * d.values
        residual = pattern - scaled
        fit = float(residual @ residual)
        energy = float(scaled @ scaled)
    if not (math.isfinite(fit) and math.isfinite(energy)):
        raise ContractError("the squared pattern residual or scaled template energy overflows")
    if not energy > 0.0:
        raise DegenerateInputError("scaled template has no energy")
    return _db(fit / energy)


def peak_sidelobe_db(pattern: np.ndarray, mask: np.ndarray) -> float:
    """Highest sidelobe power relative to the mainlobe peak, in dB."""
    pattern = _as_vector(pattern, None, "pattern", float)
    mask = _as_vector(mask, pattern.size, "mask", bool)
    _require_both_regions(mask)
    main_peak = float(pattern[mask].max())
    side_peak = float(pattern[~mask].max())
    if not main_peak > 0.0:
        raise DegenerateInputError("mainlobe region carries no power")
    return _db(side_peak / main_peak)

