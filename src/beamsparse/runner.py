"""End-to-end experiment execution and artifact serialization.

Each run writes four artifacts into the configured output directory:

* ``weights.csv``      n,re,im,mag,power_db                 (N rows)
* ``beampattern.csv``  theta_deg,power,power_db,desired_scaled  (K rows,
  power_db normalized so the pattern peak is 0 dB)
* ``trace.csv``        iter,objective,lagrangian,primal_residual,alpha,
  matching_error_db,w_change                                (iterations+1 rows)
* ``summary.json``     final metrics plus the resolved config

Numbers are rendered with ``repr`` so identical runs produce byte-identical
CSV files on the same platform. The reported runtime covers the solver loop
only, not steering-set precomputation or file output.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from .admm import IterationRecord, solve
from .arrays import WeightVector, beampattern, build_steering_set
from .config import ExperimentConfig, config_to_dict
from .errors import DivergenceError
from .metrics import _RATIO_FLOOR, RunReport, _db, cardinality, matching_error_db, peak_sidelobe_db

SCHEMA_VERSION = "1"

WEIGHTS_FILE = "weights.csv"
BEAMPATTERN_FILE = "beampattern.csv"
TRACE_FILE = "trace.csv"
SUMMARY_FILE = "summary.json"


def _fmt(x) -> str:
    return repr(float(x))


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


def _write_trace(path: Path, trace: list[IterationRecord]):
    rows = ["iter,objective,lagrangian,primal_residual,alpha,matching_error_db,w_change"]
    for rec in trace:
        rows.append(
            f"{rec.iter},{_fmt(rec.objective)},{_fmt(rec.lagrangian)},"
            f"{_fmt(rec.primal_residual)},{_fmt(rec.alpha)},"
            f"{_fmt(rec.matching_error_db)},{_fmt(rec.w_change)}"
        )
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def write_outputs(
    report: RunReport,
    cfg: ExperimentConfig,
    w: WeightVector,
    pattern: np.ndarray,
) -> None:
    """Write the four run artifacts into ``cfg.output_dir``."""
    out = _ensure_dir(cfg.output_dir)
    grid = cfg.grid

    values = w.values
    powers_db = _db(w.powers())
    rows = ["n,re,im,mag,power_db"]
    for n in range(values.size):
        rows.append(
            f"{n},{_fmt(values[n].real)},{_fmt(values[n].imag)},"
            f"{_fmt(np.abs(values[n]))},{_fmt(powers_db[n])}"
        )
    (out / WEIGHTS_FILE).write_text("\n".join(rows) + "\n", encoding="utf-8")

    pattern = np.asarray(pattern, dtype=float)
    pattern_db = _db(pattern / max(float(pattern.max()), _RATIO_FLOOR))
    scaled = report.final_alpha * cfg.template.values
    rows = ["theta_deg,power,power_db,desired_scaled"]
    for k in range(grid.count):
        rows.append(
            f"{_fmt(grid.angles_deg[k])},{_fmt(pattern[k])},"
            f"{_fmt(pattern_db[k])},{_fmt(scaled[k])}"
        )
    (out / BEAMPATTERN_FILE).write_text("\n".join(rows) + "\n", encoding="utf-8")

    _write_trace(out / TRACE_FILE, report.trace)

    summary = {
        "schema_version": SCHEMA_VERSION,
        "cardinality": report.cardinality,
        "matching_error_db": report.matching_error_db,
        "peak_sidelobe_db": report.peak_sidelobe_db,
        "runtime_seconds": report.runtime_seconds,
        "iterations": report.iterations,
        "final_alpha": report.final_alpha,
        "config": config_to_dict(cfg),
    }
    (out / SUMMARY_FILE).write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
