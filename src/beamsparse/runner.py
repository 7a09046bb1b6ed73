"""End-to-end experiment execution and artifact serialization.

Each run writes four artifacts into the configured output directory:

* ``weights.csv``      n,re,im,mag,power_db                 (N rows)
* ``beampattern.csv``  theta_deg,power,power_db,desired_scaled  (K rows,
  power_db normalized so the pattern peak is 0 dB)
* ``trace.csv``        one column per ``Trace`` field  (iterations+1 rows)
* ``summary.json``     ``schema_version``, one key per ``RunReport`` field
  except the trace, ``iterations`` and ``final_alpha`` (read from the trace),
  and the resolved ``config``

A run replaces each artifact with a new file: it unlinks the old one and
creates the file afresh, never truncating or renaming over it. A hard link,
an open reader or a symlink at an artifact's path keeps the old file; a
symlink is replaced, not followed. Nothing is synced to disk: a crash soon
after a run can leave an artifact empty or missing.

Numbers are rendered with ``repr`` so identical runs produce byte-identical
CSV files on the same platform. The reported runtime covers the whole
``solve`` call, including its once-per-solve set-up of T_d, but not the
steering set's precomputation (its vectors and grid moments) or file output.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .admm import Trace, solve
from .arrays import (
    _as_powers,
    _as_real,
    _as_vector,
    _is_integer,
    _require_finite,
    _require_type,
    beampattern,
    build_steering_set,
)
from .config import ExperimentConfig, config_to_dict
from .errors import ContractError, DivergenceError
from .metrics import _RATIO_FLOOR, _db, cardinality, matching_error_db, peak_sidelobe_db

SCHEMA_VERSION = "1"

WEIGHTS_FILE = "weights.csv"
BEAMPATTERN_FILE = "beampattern.csv"
TRACE_FILE = "trace.csv"
SUMMARY_FILE = "summary.json"


@dataclass(frozen=True, eq=False)
class RunReport:
    """Final metrics of a solver run plus its trace, from which the iteration count and the
    final template scale are read.

    ``summary.json`` has one key per field except ``trace``, plus ``iterations`` and
    ``final_alpha``.
    """

    cardinality: int
    matching_error_db: float
    peak_sidelobe_db: float
    runtime_seconds: float
    trace: Trace

    def __post_init__(self):
        if not _is_integer(self.cardinality) or self.cardinality < 0:
            raise ContractError(f"cardinality must be an integer >= 0, got {self.cardinality!r}")
        _require_finite(self.matching_error_db, "matching_error_db")
        _require_finite(self.peak_sidelobe_db, "peak_sidelobe_db")
        if not 0 <= _as_real(self.runtime_seconds) < np.inf:
            raise ContractError(
                f"runtime_seconds must be finite and >= 0, got {self.runtime_seconds!r}"
            )
        _require_type(self.trace, Trace, "trace")

    @property
    def iterations(self) -> int:
        """The sweeps run: the trace rows after row 0, the initial state."""
        return self.trace.iter.size - 1

    @property
    def final_alpha(self) -> float:
        """The template scale of the last trace row, the one ``solve`` returns."""
        return float(self.trace.alpha[-1])


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Build the steering set, run the solver, compute metrics, write artifacts.

    On solver divergence the partial trace is still written to
    ``trace.csv`` before the error propagates, and an earlier run's other
    artifacts are removed, so the directory holds only this run's output.
    """
    _require_type(cfg, ExperimentConfig, "config")
    steering = build_steering_set(cfg.geometry, cfg.grid)
    started = time.perf_counter()
    try:
        w, alpha, trace = solve(steering, cfg.template, cfg.params)
    except DivergenceError as exc:
        out_dir = _ensure_dir(cfg.output_dir)
        for name in (WEIGHTS_FILE, BEAMPATTERN_FILE, SUMMARY_FILE):
            (out_dir / name).unlink(missing_ok=True)
        _write_csv(out_dir / TRACE_FILE, vars(exc.trace))
        raise
    runtime = time.perf_counter() - started

    pattern = beampattern(steering, w)
    report = RunReport(
        cardinality=cardinality(w, cfg.cardinality_threshold),
        matching_error_db=matching_error_db(pattern, alpha, cfg.template),
        peak_sidelobe_db=peak_sidelobe_db(pattern, cfg.template.mainlobe_mask),
        runtime_seconds=runtime,
        trace=trace,
    )
    write_outputs(report, cfg, w, pattern)
    return report


def _ensure_dir(path: str | Path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, columns: dict[str, np.ndarray]):
    """A header of column names, then one row per entry.

    ``tolist`` turns each column into Python numbers, which ``repr`` writes:
    ints as is and floats exactly.
    """
    cells = [map(repr, col.tolist()) for col in columns.values()]
    rows = [",".join(columns), *map(",".join, zip(*cells))]
    _write_text(path, "\n".join(rows) + "\n")


def _write_text(path: Path, text: str):
    """Write ``text`` to ``path`` as a new file, unlinking any old one first.

    On ext4, truncating or unlinking a file whose data is already on disk was
    measured to wait 40-70 ms. A file truncated and rewritten has its new
    data written out when it is closed (``auto_da_alloc``), so rewriting in
    place waited on every write of a file from the third on. A new file's data
    stays in memory until periodic writeback (about 30 s), so a rerun within
    that time unlinks it without waiting. The price is durability: nothing here
    syncs, and a crash before writeback can leave an artifact empty or missing.
    """
    path.unlink(missing_ok=True)
    path.write_text(text, encoding="utf-8")


def write_outputs(
    report: RunReport,
    cfg: ExperimentConfig,
    w: np.ndarray,
    pattern: np.ndarray,
) -> None:
    """Write the four run artifacts into ``cfg.output_dir``."""
    _require_type(report, RunReport, "report")
    _require_type(cfg, ExperimentConfig, "config")
    w = _as_vector(w, cfg.n_elements, "w")
    pattern = _as_powers(pattern, cfg.grid.count, "pattern")
    with np.errstate(over="ignore"):
        power = np.abs(w) ** 2
    if not np.isfinite(power).all():
        raise ContractError("the powers |w_n|^2 of w overflow")
    out = _ensure_dir(cfg.output_dir)
    _write_csv(out / WEIGHTS_FILE, {
        "n": np.arange(w.size),
        "re": w.real,
        "im": w.imag,
        "mag": np.abs(w),
        "power_db": _db(power),
    })
    _write_csv(out / BEAMPATTERN_FILE, {
        "theta_deg": cfg.grid.angles_deg,
        "power": pattern,
        "power_db": _db(pattern / max(float(pattern.max()), _RATIO_FLOOR)),
        "desired_scaled": report.final_alpha * cfg.template.values,
    })
    _write_csv(out / TRACE_FILE, vars(report.trace))

    metrics = {f.name: getattr(report, f.name) for f in fields(RunReport) if f.name != "trace"}
    summary = {"schema_version": SCHEMA_VERSION, **metrics, "iterations": report.iterations,
               "final_alpha": report.final_alpha, "config": config_to_dict(cfg)}
    _write_text(out / SUMMARY_FILE, json.dumps(summary, indent=2, sort_keys=True) + "\n")
