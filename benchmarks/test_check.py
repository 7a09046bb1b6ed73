"""Tests of the benchmark's artifact checker.

    python3 -m pytest benchmarks/test_check.py

The checker must accept the artifacts of a fresh single-lobe seed-0 run, and
each of its checks must reject a copy of them corrupted in that check's way.
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import beamsparse as bs  # noqa: E402
from check import CHECKS, check_run  # noqa: E402


@pytest.fixture(scope="module")
def fresh_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("single_lobe_seed0")
    cfg = bs.load_config(HERE.parent / "configs" / "single_mainlobe.json")
    cfg = cfg.with_overrides(seed=0, output_dir=str(out))
    report = bs.run_experiment(cfg)
    return out, bs.converged(report.trace, cfg.eta)


def _edit_csv(path: Path, row: int, column: int, change):
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[row].split(",")
    cells[column] = repr(change(float(cells[column])))
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _edit_summary(path: Path, key: str, change):
    summary = json.loads(path.read_text(encoding="utf-8"))
    summary[key] = change(summary[key])
    path.write_text(json.dumps(summary), encoding="utf-8")


def perturb_weight(run: Path):
    _edit_csv(run / "weights.csv", 6, 1, lambda x: x + 1e-6)


def perturb_weight_on_sphere(run: Path):
    lines = (run / "weights.csv").read_text(encoding="utf-8").splitlines()
    w = np.array([complex(float(r.split(",")[1]), float(r.split(",")[2])) for r in lines[1:]])
    w[5] += 1e-4
    w /= np.linalg.norm(w)
    rows = [f"{n},{float(x.real)!r},{float(x.imag)!r},{float(abs(x))!r},0.0" for n, x in enumerate(w)]
    (run / "weights.csv").write_text("\n".join(lines[:1] + rows) + "\n", encoding="utf-8")


def shift_pattern_row(run: Path):
    lines = (run / "beampattern.csv").read_text(encoding="utf-8").splitlines()
    cells = [line.split(",") for line in lines[1:]]
    powers = [c[1] for c in cells]
    for c, p in zip(cells, powers[1:] + powers[:1]):
        c[1] = p
    (run / "beampattern.csv").write_text("\n".join(lines[:1] + [",".join(c) for c in cells]) + "\n")


def shift_objective(run: Path):
    rows = len((run / "trace.csv").read_text(encoding="utf-8").splitlines())
    _edit_csv(run / "trace.csv", rows - 1, 1, lambda x: x * (1 + 1e-6))


CORRUPTIONS = {
    "weights_unit_norm": (perturb_weight, True),
    "trace_consistency": (lambda run: _edit_summary(run / "summary.json", "iterations", lambda n: n + 1), True),
    "beampattern": (shift_pattern_row, True),
    "objective": (shift_objective, True),
    "cardinality": (lambda run: _edit_summary(run / "summary.json", "cardinality", lambda n: n - 1), True),
    "matching_error": (lambda run: _edit_summary(run / "summary.json", "matching_error_db", lambda x: x + 0.01), True),
    "alpha_nonneg": (lambda run: _edit_summary(run / "summary.json", "final_alpha", lambda a: -a), True),
    "converged_status": (lambda run: None, False),
    "fixed_point": (perturb_weight_on_sphere, True),
}


def test_accepts_fresh_single_lobe_run(fresh_run):
    out, converged = fresh_run
    assert converged
    assert check_run(out, converged) == {}


def test_every_check_has_a_corruption():
    assert set(CORRUPTIONS) == set(CHECKS)


@pytest.mark.parametrize("check", CHECKS)
def test_check_rejects_its_corruption(fresh_run, tmp_path, check):
    source, _ = fresh_run
    run = tmp_path / "run"
    shutil.copytree(source, run)
    corrupt, reported_converged = CORRUPTIONS[check]
    corrupt(run)
    assert check in check_run(run, reported_converged)
