"""Experiment configuration: JSON schema, validation, defaults.

One JSON document describes one experiment. Unset fields fall back to the
defaults below, most taken from the types that check them (30 elements at
half a wavelength, 1-degree grid, lam 0.1, rho 30, eta 1e-8). The JSON key
for the trade-off weight is "lambda"; it maps to the ``lam`` attribute
because ``lambda`` is reserved in Python.

A config checks its values by building, and keeping, the objects that use
them, so each rule is written once, by the type that owns it. The parser
checks only the document's shape (an object, known keys, each given once,
mainlobe objects) and passes every value through as given: a value that
is not a number is rejected by the object that uses it, and the config
echoes numbers as the document gave them.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .admm import SolverParams, _require_data_fit_bound
from .arrays import AngleGrid, ArrayGeometry, _echo, _require_solve_size, _require_type
from .errors import ConfigurationError, ContractError
from .metrics import _SELECTION_THRESHOLD, _require_both_regions, _require_threshold
from .templates import DesiredPattern, MainlobeSpec, build_template

_LOBE_KEYS = {f.name for f in fields(MainlobeSpec)}

# JSON key -> attribute name (identity except for the reserved word).
_KEY_TO_ATTR = {"lambda": "lam"}
_ATTR_TO_KEY = {v: k for k, v in _KEY_TO_ATTR.items()}


@dataclass(frozen=True)
class ExperimentConfig:
    n_elements: int = 30
    spacing_ratio: float = ArrayGeometry.spacing_ratio
    grid_start_deg: float = -90.0
    grid_stop_deg: float = 90.0
    grid_step_deg: float = 1.0
    mainlobes: tuple[MainlobeSpec, ...] = ()
    sidelobe_level: float = 0.0
    lam: float = SolverParams.lam
    rho: float = SolverParams.rho
    eta: float = SolverParams.eta
    max_iters: int = SolverParams.max_iters
    seed: int = SolverParams.seed
    cardinality_threshold: float = _SELECTION_THRESHOLD
    output_dir: str = "."

    # Built from the fields above by __post_init__; not part of the document.
    geometry: ArrayGeometry = field(init=False, repr=False, compare=False)
    grid: AngleGrid = field(init=False, repr=False, compare=False)
    template: DesiredPattern = field(init=False, repr=False, compare=False)
    params: SolverParams = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (isinstance(self.output_dir, str) and self.output_dir):
            raise ConfigurationError("output_dir must be a non-empty string")
        if not isinstance(self.mainlobes, tuple):  # a frozen config must hash
            raise ConfigurationError("mainlobes must be a tuple")
        keep = object.__setattr__
        try:
            keep(self, "geometry", ArrayGeometry(self.n_elements, self.spacing_ratio))
            keep(self, "grid", AngleGrid.uniform(
                self.grid_start_deg, self.grid_stop_deg, self.grid_step_deg))
            _require_solve_size(self.geometry, self.grid)
            keep(self, "template", build_template(self.grid, self.mainlobes, self.sidelobe_level))
            # the metrics check these only after the solve; a bad value must fail before
            _require_threshold(self.cardinality_threshold)
            _require_both_regions(self.template.mainlobe_mask)
            keep(self, "params", SolverParams(
                lam=self.lam, rho=self.rho, eta=self.eta, max_iters=self.max_iters, seed=self.seed))
            _require_data_fit_bound(self.lam, self.grid.count, self.geometry.n_elements)
        except ContractError as exc:
            raise ConfigurationError(str(exc)) from exc

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """Copy with selected fields replaced (revalidates)."""
        return replace(self, **kwargs)


def _parse_lobe(index: int, raw) -> MainlobeSpec:
    if not isinstance(raw, dict):
        raise ConfigurationError(f"mainlobes[{index}] must be an object")
    unknown = set(raw) - _LOBE_KEYS
    if unknown:
        raise ConfigurationError(f"mainlobes[{index}] has unknown field {_echo(min(unknown))}")
    for key in ("start_deg", "end_deg"):
        if key not in raw:
            raise ConfigurationError(f"mainlobes[{index}] is missing '{key}'")
    return MainlobeSpec(**raw)


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members as a dict, where a repeated key is an error rather than a
    silent overwrite by its last value."""
    members = {}
    for key, value in pairs:
        if key in members:
            raise ConfigurationError(f"config key {_echo(key)} is repeated")
        members[key] = value
    return members


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate one JSON experiment document."""
    _require_type(text, str, "config text")
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except ConfigurationError:  # a repeated key, a ValueError the clauses below would take
        raise
    except json.JSONDecodeError as exc:
        raise ConfigurationError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise ConfigurationError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:  # arrays or objects nested past the parser's depth
        raise ConfigurationError("invalid JSON: nested too deeply") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError("config document must be a JSON object")

    known = {_ATTR_TO_KEY.get(f.name, f.name) for f in fields(ExperimentConfig) if f.init}
    unknown = set(doc) - known
    if unknown:
        raise ConfigurationError(f"unknown config field {_echo(min(unknown))}")

    kwargs = {_KEY_TO_ATTR.get(key, key): value for key, value in doc.items()}
    lobes = kwargs.get("mainlobes", [])
    if not isinstance(lobes, list):
        raise ConfigurationError("mainlobes must be a list")
    kwargs["mainlobes"] = tuple(_parse_lobe(i, lobe) for i, lobe in enumerate(lobes))
    return ExperimentConfig(**kwargs)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """Resolved config as a JSON-ready dict (uses the \"lambda\" key)."""
    _require_type(cfg, ExperimentConfig, "config")
    out = {}
    for f in fields(ExperimentConfig):
        if not f.init:
            continue
        key = _ATTR_TO_KEY.get(f.name, f.name)
        value = getattr(cfg, f.name)
        if f.name == "mainlobes":
            value = [asdict(lobe) for lobe in value]
        elif isinstance(value, np.generic):  # the owners accept numpy scalars; JSON does not
            value = value.item()
        out[key] = value
    return out


def serialize_config(cfg: ExperimentConfig) -> str:
    """Inverse of parse_config: parse_config(serialize_config(cfg)) == cfg."""
    return json.dumps(config_to_dict(cfg), indent=2) + "\n"


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and parse a config file."""
    if not isinstance(path, (str, os.PathLike)):
        raise ContractError(f"config path must be a str or os.PathLike, got {type(path).__name__}")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(
            f"config file {_echo(Path(path).name)} is not UTF-8 text: {exc}"
        ) from exc
    return parse_config(text)
