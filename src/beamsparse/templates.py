"""Desired-beampattern templates built from declarative mainlobe intervals."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .arrays import AngleGrid, _readonly
from .errors import ConfigurationError, ContractError


@dataclass(frozen=True)
class MainlobeSpec:
    """One mainlobe interval [start_deg, end_deg] with its desired level."""

    start_deg: float
    end_deg: float
    level: float = 1000.0

    def __post_init__(self):
        if not (-90.0 <= self.start_deg < self.end_deg <= 90.0):
            raise ConfigurationError(
                f"mainlobe interval [{self.start_deg}, {self.end_deg}] must satisfy "
                "-90 <= start < end <= 90"
            )
        if not 0 < self.level < np.inf:
            raise ConfigurationError(f"mainlobe level must be finite and > 0, got {self.level}")


@dataclass(frozen=True, eq=False)
class DesiredPattern:
    """Template values per grid angle plus the mainlobe membership mask."""

    values: np.ndarray
    mainlobe_mask: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        mask = np.asarray(self.mainlobe_mask, dtype=bool)
        if values.ndim != 1 or values.shape != mask.shape:
            raise ContractError("template values and mask must be 1-D and equally sized")
        if not np.isfinite(values).all():
            raise ContractError("template holds non-finite values")
        if np.any(values[mask] <= 0):
            raise ContractError("template values must be positive on the mainlobe mask")
        object.__setattr__(self, "values", _readonly(values))
        object.__setattr__(self, "mainlobe_mask", _readonly(mask))

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
    if len(lobes) == 0:
        raise ConfigurationError("mainlobes must contain at least one lobe")
    if not 0 <= sidelobe_level < np.inf:
        raise ConfigurationError(f"sidelobe_level must be finite and >= 0, got {sidelobe_level}")

    angles = grid.angles_deg
    values = np.full(grid.count, float(sidelobe_level))
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
