import json
from dataclasses import fields

import numpy as np
import pytest

import beamsparse.runner as runner_mod
from beamsparse import (
    DivergenceError,
    IterationRecord,
    RunReport,
    converged,
    load_config,
    run_experiment,
)
from beamsparse.cli import main as cli_main
from beamsparse.metrics import _db

FAST_DOC = {
    "n_elements": 8,
    "grid_start_deg": -90.0,
    "grid_stop_deg": 90.0,
    "grid_step_deg": 3.0,
    "mainlobes": [{"start_deg": 9.0, "end_deg": 27.0, "level": 100.0}],
    "lambda": 0.1,
    "rho": 10.0,
    "eta": 1e-7,
    "max_iters": 400,
    "seed": 3,
}


@pytest.fixture
def fast_config_path(tmp_path):
    doc = dict(FAST_DOC)
    doc["output_dir"] = str(tmp_path / "out")
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(doc))
    return path


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestRunExperiment:
    def test_report_and_artifacts(self, fast_config_path, tmp_path):
        cfg = load_config(fast_config_path)
        report = run_experiment(cfg)
        out = tmp_path / "out"

        assert 0 <= report.cardinality <= cfg.n_elements
        assert report.iterations == len(report.trace) - 1
        assert report.runtime_seconds >= 0

        header, rows = read_csv(out / "weights.csv")
        assert header == ["n", "re", "im", "mag", "power_db"]
        assert len(rows) == cfg.n_elements
        total_power = sum(float(r[3]) ** 2 for r in rows)
        assert total_power == pytest.approx(1.0, abs=1e-9)

        header, rows = read_csv(out / "beampattern.csv")
        assert header == ["theta_deg", "power", "power_db", "desired_scaled"]
        assert len(rows) == 61  # -90:3:90 inclusive
        db_values = [float(r[2]) for r in rows]
        assert max(db_values) == pytest.approx(0.0, abs=1e-12)

        header, rows = read_csv(out / "trace.csv")
        assert header == [
            "iter", "objective", "lagrangian", "primal_residual",
            "alpha", "matching_error_db", "w_change",
        ]
        assert len(rows) == report.iterations + 1
        assert rows[0][0] == "0"

        summary = json.loads((out / "summary.json").read_text())
        assert summary["schema_version"] == "1"
        assert summary["cardinality"] == report.cardinality
        assert summary["iterations"] == report.iterations
        assert summary["config"]["lambda"] == 0.1
        assert "trace" not in summary

    def test_zero_iteration_budget(self, tmp_path):
        doc = dict(FAST_DOC)
        doc["max_iters"] = 0
        doc["output_dir"] = str(tmp_path / "out0")
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        report = run_experiment(load_config(path))
        assert report.iterations == 0
        assert len(report.trace) == 1
        _, rows = read_csv(tmp_path / "out0" / "trace.csv")
        assert len(rows) == 1

    def test_deterministic_artifacts(self, tmp_path):
        outputs = []
        for name in ("a", "b"):
            doc = dict(FAST_DOC)
            doc["output_dir"] = str(tmp_path / name)
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(doc))
            run_experiment(load_config(path))
            outputs.append(tmp_path / name)
        for artifact in ("weights.csv", "trace.csv", "beampattern.csv"):
            assert (outputs[0] / artifact).read_bytes() == (outputs[1] / artifact).read_bytes()

    def test_divergence_writes_partial_trace(self, fast_config_path, tmp_path, monkeypatch):
        record = IterationRecord(
            iter=0, objective=1.0, lagrangian=1.0, primal_residual=0.5,
            alpha=1.0, matching_error_db=3.0, w_change=0.0,
        )

        def exploding(*args, **kwargs):
            raise DivergenceError("boom", trace=[record])

        monkeypatch.setattr(runner_mod, "solve", exploding)
        with pytest.raises(DivergenceError):
            run_experiment(load_config(fast_config_path))
        _, rows = read_csv(tmp_path / "out" / "trace.csv")
        assert len(rows) == 1


class TestCli:
    def test_convergence_exit_code_and_output(self, fast_config_path, tmp_path, capsys):
        code = cli_main(["run", "--config", str(fast_config_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "converged" in captured.out
        assert (tmp_path / "out" / "summary.json").exists()

    def test_quiet_suppresses_output(self, fast_config_path, capsys):
        code = cli_main(["run", "--config", str(fast_config_path), "--quiet"])
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_output_dir_and_seed_overrides(self, fast_config_path, tmp_path):
        override = tmp_path / "elsewhere"
        code = cli_main([
            "run", "--config", str(fast_config_path),
            "--output-dir", str(override), "--seed", "99", "--quiet",
        ])
        assert code == 0
        summary = json.loads((override / "summary.json").read_text())
        assert summary["config"]["seed"] == 99
        assert summary["config"]["output_dir"] == str(override)

    def test_budget_exhaustion_exit_code(self, tmp_path):
        doc = dict(FAST_DOC)
        doc["max_iters"] = 2  # far too few to reach eta
        doc["output_dir"] = str(tmp_path / "short")
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["run", "--config", str(path), "--quiet"]) == 2

    def test_missing_config_exits_one(self, tmp_path, capsys):
        assert cli_main(["run", "--config", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"mainlobes": [], "rho": 1}')
        assert cli_main(["run", "--config", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


def test_seed_changes_solution(fast_config_path, tmp_path):
    cfg = load_config(fast_config_path)
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg.with_overrides(seed=11, output_dir=str(tmp_path / "other")))
    t1 = np.array([rec.w_change for rec in r1.trace[1:4]])
    t2 = np.array([rec.w_change for rec in r2.trace[1:4]])
    assert not np.allclose(t1, t2)


def test_converged_helper_reflects_budget(fast_config_path):
    cfg = load_config(fast_config_path)
    report = run_experiment(cfg)
    assert converged(report.trace, cfg.eta)


def test_run_builds_steering_set_once(fast_config_path, monkeypatch):
    calls = []
    real = runner_mod.build_steering_set

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "build_steering_set", counting)
    run_experiment(load_config(fast_config_path))
    assert len(calls) == 1


def test_artifacts_render_their_record_types(fast_config_path, tmp_path, monkeypatch):
    # each CSV cell parses back to exactly the value it was written from, the
    # trace columns are the IterationRecord fields and the summary's metric
    # keys are the RunReport fields
    written = {}
    real = runner_mod.write_outputs

    def capturing(report, cfg, w, pattern):
        written.update(cfg=cfg, w=w, pattern=pattern)
        real(report, cfg, w, pattern)

    monkeypatch.setattr(runner_mod, "write_outputs", capturing)
    report = run_experiment(load_config(fast_config_path))
    cfg, values, pattern = written["cfg"], written["w"], written["pattern"]
    out = tmp_path / "out"

    def assert_exact(rows, columns):
        assert len(rows) == len(columns[0])
        for row in rows:
            assert len(row) == len(columns)
        for j, column in enumerate(columns):
            assert [float(row[j]) for row in rows] == list(column)

    def assert_integers(rows, expected):
        assert [row[0] for row in rows] == [str(int(x)) for x in expected]

    header, rows = read_csv(out / "trace.csv")
    names = [f.name for f in fields(IterationRecord)]
    assert header == names
    assert_integers(rows, [rec.iter for rec in report.trace])
    assert_exact(rows, [[getattr(rec, name) for rec in report.trace] for name in names])

    _, rows = read_csv(out / "weights.csv")
    assert_integers(rows, range(cfg.n_elements))
    assert_exact(rows, [
        range(cfg.n_elements), values.real, values.imag, np.abs(values),
        _db(np.abs(values) ** 2),
    ])

    _, rows = read_csv(out / "beampattern.csv")
    assert_exact(rows, [
        cfg.grid.angles_deg, pattern, _db(pattern / pattern.max()),
        report.final_alpha * cfg.template.values,
    ])

    summary = json.loads((out / "summary.json").read_text())
    metrics = {f.name for f in fields(RunReport)} - {"trace"}
    assert set(summary) == metrics | {"schema_version", "config"}
    for name in metrics:
        assert summary[name] == getattr(report, name)
