"""Command-line front end.

    beamsparse run --config experiment.json [--output-dir DIR] [--seed S] [--quiet]

Exit codes: 0 when the solver converged, 2 when it hit the iteration budget
without converging, 1 on any error, a usage error among them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from .admm import converged
from .arrays import _echo
from .config import load_config
from .errors import BeamsparseError
from .runner import run_experiment


class _Parser(argparse.ArgumentParser):
    """argparse's parser, but a usage error exits 1, since 2 means the iteration budget ran out.
    Its subcommands' parsers are of this class too."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    """``--seed`` as an int; the config checks its range. Unlike ``type=int``, a rejected
    value is echoed by ``arrays._echo``, so a huge one gives a short usage error."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_echo(text)}")


def _os_error(exc: OSError) -> str:
    """An OSError as the error line shows it: its text and the name of its file, not the
    whole path, each cut short by ``arrays._echo``."""
    text = _echo(exc.strerror if exc.strerror is not None else str(exc))
    name = exc.filename
    if name is None:
        return text
    return f"{text}: {_echo(Path(name).name if isinstance(name, str) else name)}"


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="beamsparse",
        description="Joint beampattern matching and sparse antenna selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one experiment from a JSON config")
    run.add_argument("--config", required=True, help="path to the experiment JSON")
    run.add_argument("--output-dir", default=None, help="override the config's output directory")
    run.add_argument("--seed", type=_seed, default=None, help="override the config's RNG seed")
    run.add_argument("--quiet", action="store_true", help="suppress the summary printout")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = load_config(args.config)
        overrides = {}
        if args.output_dir is not None:
            overrides["output_dir"] = args.output_dir
        if args.seed is not None:
            overrides["seed"] = args.seed
        if overrides:
            cfg = cfg.with_overrides(**overrides)
        report = run_experiment(cfg)
    except (BeamsparseError, OSError) as exc:
        print(f"error: {_os_error(exc) if isinstance(exc, OSError) else exc}", file=sys.stderr)
        return 1

    done = converged(report.trace, cfg.eta)
    if not args.quiet:
        status = "converged" if done else "stopped at iteration budget"
        print(f"{status} after {report.iterations} iterations ({report.runtime_seconds:.2f} s)")
        print(f"selected elements: {report.cardinality} / {cfg.n_elements}")
        print(f"matching error:    {report.matching_error_db:.3f} dB")
        print(f"peak sidelobe:     {report.peak_sidelobe_db:.3f} dB")
        print(f"artifacts written to {cfg.output_dir}")
    return 0 if done else 2


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
