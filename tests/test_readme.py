"""The README's library example runs against the package as it is, and every name it gives
in backticks exists."""

import dataclasses
import importlib
import inspect
import json
import pkgutil
import re
from pathlib import Path

import beamsparse
from beamsparse import load_config, run_experiment

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
# T_d = sum_k d_k a_k a_k^H is a formula's symbol, not a name of the package
SYMBOLS = {"T_d"}


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
    assert printed[0].endswith("active elements") and printed[1].endswith("dB")


def known_names(tmp_path):
    """The module attributes and dataclass fields of the package, the config keys, the columns
    and keys of the artifacts a run writes, and the benchmark's workload and metric names."""
    modules = [beamsparse, *(importlib.import_module(f"beamsparse.{info.name}")
                             for info in pkgutil.iter_modules(beamsparse.__path__))]
    names = {name for module in modules for name in dir(module)}
    for module in modules:
        for _, cls in inspect.getmembers(module, dataclasses.is_dataclass):
            names |= {f.name for f in dataclasses.fields(cls)}
    cfg = load_config(ROOT / "configs" / "single_mainlobe.json")
    run_experiment(cfg.with_overrides(max_iters=2, output_dir=str(tmp_path)))
    for csv in tmp_path.glob("*.csv"):
        names |= set(csv.read_text(encoding="utf-8").partition("\n")[0].split(","))
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    names |= set(summary) | set(summary["config"])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for group in ("workloads", "end_to_end", "per_layer"):
        names |= {entry["name"] for entry in bench[group]}
    return names


def test_readme_names_only_what_exists(tmp_path):
    # a backticked snake_case name with no dot, outside the fenced blocks, must be one of
    # the package's own names; a deleted function's name left in the prose fails here
    text = re.sub(r"^```.*?^```", "", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    named = set(re.findall(r"`([A-Za-z][A-Za-z0-9]*(?:_[A-Za-z0-9]+)+)`", text))
    assert named
    assert sorted(named - known_names(tmp_path) - SYMBOLS) == []
