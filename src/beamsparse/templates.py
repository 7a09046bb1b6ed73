"""Desired-beampattern templates built from declarative mainlobe intervals."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .arrays import AngleGrid, _as_powers, _as_vector, _readonly, _require_scalar, _require_type
from .errors import ConfigurationError, ContractError


@dataclass(frozen=True)
class MainlobeSpec:
    """One mainlobe interval [start_deg, end_deg] with its desired level."""

    start_deg: float
    end_deg: float
    level: float = 1000.0

    def __post_init__(self):
        start = _require_scalar(self.start_deg, "mainlobe interval start_deg",
                                "must lie in [-90, 90]", lambda x: -90 <= x <= 90,
                                ConfigurationError)
        _require_scalar(self.end_deg, "mainlobe interval end_deg",
                        "must exceed start_deg and be <= 90", lambda x: start < x <= 90,
                        ConfigurationError)
        _require_scalar(self.level, "mainlobe level", "must be finite and > 0",
                        lambda x: 0 < x < np.inf, ConfigurationError)


@dataclass(frozen=True, eq=False)
class DesiredPattern:
    """Template values d >= 0 per grid angle, the mainlobe membership mask and the energy d^T d."""

    values: np.ndarray
    mainlobe_mask: np.ndarray
    energy: float = field(init=False, repr=False)

    def __post_init__(self):
        values = _as_powers(self.values, None, "template")
        mask = _as_vector(self.mainlobe_mask, values.size, "mainlobe mask", bool)
        with np.errstate(over="ignore"):
            energy = float(values @ values)
        if not energy < np.inf:
            raise ContractError("template energy d^T d overflows a float")
        if np.any(values[mask] <= 0):
            raise ContractError("template values must be positive on the mainlobe mask")
        object.__setattr__(self, "values", _readonly(values))
        object.__setattr__(self, "mainlobe_mask", _readonly(mask))
        object.__setattr__(self, "energy", energy)

    @property
    def count(self) -> int:
        return self.values.size


def build_template(
    grid: AngleGrid,
    lobes: Sequence[MainlobeSpec],
    sidelobe_level: float = 0.0,
) -> DesiredPattern:
    """Assemble the desired pattern from a union of mainlobe intervals.

    Grid angles inside any lobe interval (endpoints inclusive) take that
    lobe's level; all other angles take ``sidelobe_level``. Overlapping lobes
    are allowed only when they agree on the level, otherwise the template is
    ambiguous and rejected.
    """
    _require_type(grid, AngleGrid, "grid")
    if not (isinstance(lobes, Sequence) and lobes
            and all(isinstance(lobe, MainlobeSpec) for lobe in lobes)):
        raise ConfigurationError("mainlobes must be a non-empty sequence of MainlobeSpec entries")
    level = _require_scalar(sidelobe_level, "sidelobe_level", "must be finite and >= 0",
                            lambda x: 0 <= x < np.inf, ConfigurationError)

    angles = grid.angles_deg
    values = np.full(grid.count, level)
    mask = np.zeros(grid.count, dtype=bool)
    for lobe in lobes:
        covered = (angles >= lobe.start_deg) & (angles <= lobe.end_deg)
        conflict = covered & mask & (values != lobe.level)
        if np.any(conflict):
            theta = angles[conflict][0]
            raise ConfigurationError(
                f"overlapping mainlobes assign conflicting levels at {theta} degrees"
            )
        values[covered] = lobe.level
        mask |= covered
    return DesiredPattern(values, mask)
