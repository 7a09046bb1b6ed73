"""End-to-end experiment execution and artifact serialization.

Each run writes four artifacts into the configured output directory:

* ``weights.csv``      n,re,im,mag,power_db                 (N rows)
* ``beampattern.csv``  theta_deg,power,power_db,desired_scaled  (K rows,
  power_db normalized so the pattern peak is 0 dB)
* ``trace.csv``        one column per ``IterationRecord`` field  (iterations+1 rows)
* ``summary.json``     ``schema_version``, one key per ``RunReport`` field
  except the trace, and the resolved ``config``

Numbers are rendered with ``repr`` so identical runs produce byte-identical
CSV files on the same platform. The reported runtime covers the solver loop
only, not steering-set precomputation or file output.
"""

from __future__ import annotations

import json
import time
from dataclasses import fields
from operator import attrgetter
from pathlib import Path

import numpy as np

from .admm import IterationRecord, solve
from .arrays import _as_vector, beampattern, build_steering_set
from .config import ExperimentConfig, config_to_dict
from .errors import DivergenceError
from .metrics import _RATIO_FLOOR, RunReport, _db, cardinality, matching_error_db, peak_sidelobe_db

SCHEMA_VERSION = "1"

WEIGHTS_FILE = "weights.csv"
BEAMPATTERN_FILE = "beampattern.csv"
TRACE_FILE = "trace.csv"
SUMMARY_FILE = "summary.json"


def run_experiment(cfg: ExperimentConfig) -> RunReport:
    """Build the steering set, run the solver, compute metrics, write artifacts.

    On solver divergence the partial trace is still written to
    ``trace.csv`` before the error propagates.
    """
    steering = build_steering_set(cfg.geometry, cfg.grid)
    started = time.perf_counter()
    try:
        w, alpha, trace = solve(steering, cfg.template, cfg.params)
    except DivergenceError as exc:
        out_dir = _ensure_dir(cfg.output_dir)
        _write_trace(out_dir / TRACE_FILE, exc.trace)
        raise
    runtime = time.perf_counter() - started

    pattern = beampattern(steering, w)
    report = RunReport(
        cardinality=cardinality(w, cfg.cardinality_threshold),
        matching_error_db=matching_error_db(pattern, alpha, cfg.template),
        peak_sidelobe_db=peak_sidelobe_db(pattern, cfg.template.mainlobe_mask),
        runtime_seconds=runtime,
        iterations=len(trace) - 1,
        final_alpha=alpha,
        trace=trace,
    )
    write_outputs(report, cfg, w, pattern)
    return report


def _ensure_dir(path: str | Path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_csv(path: Path, columns: dict[str, list | np.ndarray]):
    """A header of column names, then one row per entry.

    A column is a list of Python numbers or an array, which ``tolist`` turns
    into one; ``repr`` then writes ints as is and floats exactly.
    """
    cells = [
        map(repr, col.tolist() if isinstance(col, np.ndarray) else col)
        for col in columns.values()
    ]
    rows = [",".join(columns), *map(",".join, zip(*cells))]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _write_trace(path: Path, trace: list[IterationRecord]):
    names = [f.name for f in fields(IterationRecord)]
    _write_csv(path, {name: list(map(attrgetter(name), trace)) for name in names})


def write_outputs(
    report: RunReport,
    cfg: ExperimentConfig,
    w: np.ndarray,
    pattern: np.ndarray,
) -> None:
    """Write the four run artifacts into ``cfg.output_dir``."""
    w = _as_vector(w, np.size(w), "w", finite=False)
    out = _ensure_dir(cfg.output_dir)
    _write_csv(out / WEIGHTS_FILE, {
        "n": np.arange(w.size),
        "re": w.real,
        "im": w.imag,
        "mag": np.abs(w),
        "power_db": _db(np.abs(w) ** 2),
    })
    pattern = np.asarray(pattern, dtype=float)
    _write_csv(out / BEAMPATTERN_FILE, {
        "theta_deg": cfg.grid.angles_deg,
        "power": pattern,
        "power_db": _db(pattern / max(float(pattern.max()), _RATIO_FLOOR)),
        "desired_scaled": report.final_alpha * cfg.template.values,
    })
    _write_trace(out / TRACE_FILE, report.trace)

    metrics = {f.name: getattr(report, f.name) for f in fields(RunReport) if f.name != "trace"}
    summary = {"schema_version": SCHEMA_VERSION, **metrics, "config": config_to_dict(cfg)}
    (out / SUMMARY_FILE).write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
