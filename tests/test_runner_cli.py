import json
import os
from dataclasses import fields

import numpy as np
import pytest

import beamsparse.runner as runner_mod
from beamsparse import (
    ContractError,
    DivergenceError,
    RunReport,
    Trace,
    converged,
    load_config,
    run_experiment,
)
from beamsparse.cli import main as cli_main
from beamsparse.metrics import _db

ARTIFACTS = ("weights.csv", "beampattern.csv", "trace.csv", "summary.json")

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


def _make_solve_diverge(monkeypatch):
    """Make ``run_experiment``'s solve raise ``DivergenceError`` with a one-row trace."""
    record = Trace(
        iter=np.array([0]), objective=np.array([1.0]), lagrangian=np.array([1.0]),
        primal_residual=np.array([0.5]), alpha=np.array([1.0]),
        matching_error_db=np.array([3.0]), w_change=np.array([0.0]),
    )

    def exploding(*args, **kwargs):
        raise DivergenceError("boom", trace=record)

    monkeypatch.setattr(runner_mod, "solve", exploding)


class TestRunExperiment:
    def test_report_and_artifacts(self, fast_config_path, tmp_path):
        cfg = load_config(fast_config_path)
        report = run_experiment(cfg)
        out = tmp_path / "out"

        assert 0 <= report.cardinality <= cfg.n_elements
        assert report.iterations == report.trace.iter.size - 1
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
        assert report.trace.iter.size == 1
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
        _make_solve_diverge(monkeypatch)
        with pytest.raises(DivergenceError):
            run_experiment(load_config(fast_config_path))
        _, rows = read_csv(tmp_path / "out" / "trace.csv")
        assert len(rows) == 1

    def test_divergence_replaces_an_earlier_trace_with_a_new_file(
        self, fast_config_path, tmp_path, monkeypatch
    ):
        # a hard link to the earlier run's trace keeps its bytes
        cfg = load_config(fast_config_path)
        trace = tmp_path / "out" / "trace.csv"
        run_experiment(cfg)
        first = trace.read_bytes()
        os.link(trace, tmp_path / "kept.csv")
        _make_solve_diverge(monkeypatch)
        with pytest.raises(DivergenceError):
            run_experiment(cfg)
        assert (tmp_path / "kept.csv").read_bytes() == first
        _, rows = read_csv(trace)
        assert len(rows) == 1

    def test_divergence_leaves_only_the_partial_trace(
        self, fast_config_path, tmp_path, monkeypatch
    ):
        # an earlier converged run's weights, pattern and summary do not outlive the failed run
        cfg = load_config(fast_config_path)
        out = tmp_path / "out"
        run_experiment(cfg)
        assert sorted(os.listdir(out)) == sorted(ARTIFACTS)
        _make_solve_diverge(monkeypatch)
        with pytest.raises(DivergenceError):
            run_experiment(cfg)
        assert os.listdir(out) == ["trace.csv"]
        _, rows = read_csv(out / "trace.csv")
        assert len(rows) == 1

    def test_rerun_replaces_each_artifact_with_a_new_file(self, fast_config_path, tmp_path):
        # a hard link made after the first run must keep that run's bytes: a rerun
        # into the same directory creates new files and rewrites none in place
        cfg = load_config(fast_config_path)
        out, kept, fresh = tmp_path / "out", tmp_path / "kept", tmp_path / "fresh"
        run_experiment(cfg)
        first = {name: (out / name).read_bytes() for name in ARTIFACTS}
        kept.mkdir()
        for name in ARTIFACTS:
            os.link(out / name, kept / name)

        second = cfg.with_overrides(seed=cfg.seed + 1)
        run_experiment(second)
        run_experiment(second.with_overrides(output_dir=str(fresh)))
        assert (out / "weights.csv").read_bytes() != first["weights.csv"]
        for name in ARTIFACTS:
            assert (kept / name).read_bytes() == first[name], name
        for name in ARTIFACTS[:3]:
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name
        assert json.loads((out / "summary.json").read_text())["config"]["seed"] == second.seed

    def test_symlinked_artifact_is_replaced_not_followed(self, fast_config_path, tmp_path):
        target = tmp_path / "elsewhere.csv"
        target.write_text("keep me\n")
        out = tmp_path / "out"
        out.mkdir()
        (out / "weights.csv").symlink_to(target)
        run_experiment(load_config(fast_config_path))
        assert target.read_text() == "keep me\n"
        assert not (out / "weights.csv").is_symlink()
        header, _ = read_csv(out / "weights.csv")
        assert header == ["n", "re", "im", "mag", "power_db"]

    @pytest.mark.parametrize("column,fault", [
        pytest.param("w", "short", id="w"),
        pytest.param("pattern", "short", id="pattern"),
        pytest.param("w", "nan", id="w-nan"),
        pytest.param("pattern", "nan", id="pattern-nan"),
    ])
    def test_mis_sized_outputs_are_rejected_before_writing(
        self, fast_config_path, tmp_path, monkeypatch, column, fault
    ):
        # a short column would drop rows from its CSV, and a NaN entry would write a nan
        # cell, without an error
        written = {}
        real = runner_mod.write_outputs

        def capturing(report, cfg, w, pattern):
            written.update(report=report, cfg=cfg, w=w, pattern=pattern)
            real(report, cfg, w, pattern)

        monkeypatch.setattr(runner_mod, "write_outputs", capturing)
        run_experiment(load_config(fast_config_path))
        cfg = written["cfg"].with_overrides(output_dir=str(tmp_path / "rejected"))
        args = {"w": written["w"], "pattern": written["pattern"]}
        if fault == "short":
            args[column] = args[column][:-1]
        else:
            args[column] = args[column].copy()
            args[column][1] = np.nan
        with pytest.raises(ContractError, match=column):
            real(written["report"], cfg, **args)
        assert not (tmp_path / "rejected").exists()


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
        doc["output_dir"] = str(tmp_path / "rejected")
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["run", "--config", str(path), "--quiet"]) == 2

    def test_missing_config_exits_one(self, tmp_path, capsys):
        assert cli_main(["run", "--config", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_non_utf8_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(FAST_DOC).encode("utf-16-le"))
        assert cli_main(["run", "--config", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_deeply_nested_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        assert cli_main(["run", "--config", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_lambda_that_overflows_the_data_fit_exits_one(self, tmp_path, capsys):
        # lam * K * N overflows at K = 61 angles and N = 8 elements, so the solve
        # rejects lam on entry, before any sweep
        path = tmp_path / "huge_lambda.json"
        path.write_text(json.dumps({**FAST_DOC, "lambda": 1e306, "output_dir": str(tmp_path)}))
        assert cli_main(["run", "--config", str(path)]) == 1
        assert "lam (lambda)" in capsys.readouterr().err

    def test_invalid_config_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"mainlobes": [], "rho": 1}')
        assert cli_main(["run", "--config", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


def test_seed_changes_solution(fast_config_path, tmp_path):
    cfg = load_config(fast_config_path)
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg.with_overrides(seed=11, output_dir=str(tmp_path / "other")))
    t1 = r1.trace.w_change[1:4]
    t2 = r2.trace.w_change[1:4]
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
    # trace columns are the Trace fields and the summary's metric keys are the
    # RunReport fields other than the trace, plus the two read from the trace
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
    names = [f.name for f in fields(Trace)]
    assert header == names
    assert_integers(rows, report.trace.iter)
    assert_exact(rows, [getattr(report.trace, name) for name in names])

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
    metrics = {f.name for f in fields(RunReport)} - {"trace"} | {"iterations", "final_alpha"}
    assert set(summary) == metrics | {"schema_version", "config"}
    for name in metrics:
        assert summary[name] == getattr(report, name)
    _, rows = read_csv(out / "trace.csv")
    assert summary["iterations"] == len(rows) - 1
    assert summary["final_alpha"] == float(rows[-1][names.index("alpha")])
