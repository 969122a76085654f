"""Command line interface: run scenarios, validate configs, diff reports.

Exit codes: 0 success, 1 usage error, 2 config error, 3 run failure.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.resources
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Optional

from . import __version__
from .config import ScenarioConfig, parse_config_text
from .errors import (
    ConfigFileError,
    ConfigurationError,
    ReportMismatchError,
    SimulatorError,
)
from .report import build_report, diff_reports, render_text, report_to_json
from .simulation import run_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_RUN = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for config errors
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _load_config_text(name: str) -> tuple[str, str]:
    """Config text, read as UTF-8, from a filesystem path or a bundled config name."""
    path = Path(name)
    bundled = importlib.resources.files("hfsim").joinpath("configs", name)
    for source, display in ((path, str(path)), (bundled, f"builtin:{name}")):
        if source.is_file():
            try:
                return source.read_text(encoding="utf-8"), display
            except UnicodeDecodeError as exc:
                raise ConfigFileError([(name, f"not UTF-8 text: {exc}")]) from None
    raise ConfigFileError([(name, "config file not found (and no bundled config matches)")])


def _print_config_problems(exc: ConfigFileError) -> None:
    print("config error:", file=sys.stderr)
    for key, reason in exc.problems:
        print(f"  {key}: {reason}", file=sys.stderr)


def execute_config(config: ScenarioConfig, trace_dir: Optional[Path] = None) -> dict:
    """Run all (strategy x repeat) combinations of a config, after planning its attacks.

    With `trace_dir`, each run writes its trace entries, one JSON object a
    line, to `trace-<strategy>-<seed>.jsonl` there as it produces them.
    """
    attacks = config.expanded_attacks()
    encode = json.JSONEncoder(sort_keys=True).encode  # the bytes of json.dumps(sort_keys=True)
    results = {}
    for name, strategy in config.strategies.items():
        runs = results[name] = []
        for r in range(config.repeats):
            seed = config.seed + r
            inputs = (config.setup(), strategy, config.workload, attacks, config.costs, seed)
            if trace_dir is None:
                runs.append(run_scenario(*inputs))
                continue
            with (trace_dir / f"trace-{name}-{seed}.jsonl").open("w") as fh:
                def write(entry: dict) -> None:
                    fh.write(encode(entry) + "\n")

                runs.append(run_scenario(*inputs, trace=write))
    return results


def _cmd_run(args) -> int:
    try:
        text, display = _load_config_text(args.config)
        config = parse_config_text(text)
        if args.repeats is not None:
            if problem := ScenarioConfig.bounds["repeats"](args.repeats):
                raise ConfigFileError([("--repeats", problem)])
            config.repeats = args.repeats
        if args.seed is not None:
            config.seed = args.seed
    except ConfigFileError as exc:
        _print_config_problems(exc)
        return EXIT_CONFIG

    # everything is written into a staging directory beside --out and
    # moved into place only after every run and write has succeeded
    out_dir = Path(args.out)
    staging = None
    created = []  # missing ancestors of --out made here, outermost first
    try:
        for parent in reversed(out_dir.parents):
            if not parent.is_dir():
                parent.mkdir()
                created.append(parent)
        staging = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.", dir=out_dir.parent))
        results = execute_config(config, trace_dir=staging if args.trace else None)
        report = build_report(config, results)
        (staging / "report.json").write_text(report_to_json(report))
        (staging / "report.txt").write_text(render_text(report))
        out_dir.mkdir(exist_ok=True)
        for path in sorted(staging.iterdir()):
            os.replace(path, out_dir / path.name)
    except ConfigFileError as exc:
        _print_config_problems(exc)
        return EXIT_CONFIG
    except ConfigurationError as exc:
        # scenario inconsistency surfaced while wiring a run, before t=0
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SimulatorError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUN
    except OSError as exc:
        print(f"run failed: cannot write reports to {out_dir}: {exc}", file=sys.stderr)
        return EXIT_RUN
    except MemoryError:
        print("run failed: out of memory", file=sys.stderr)
        return EXIT_RUN
    finally:
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)
        # drop the ancestors made here that are still empty; after a
        # successful run each of them holds --out
        for parent in reversed(created):
            with contextlib.suppress(OSError):
                parent.rmdir()
    print(f"ran {display}: {sum(len(r) for r in results.values())} run(s)")
    print(render_text(report, include_attacks=False))
    print(f"report written to {out_dir / 'report.json'}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        text, display = _load_config_text(args.config)
        parse_config_text(text).expanded_attacks()
    except ConfigFileError as exc:
        _print_config_problems(exc)
        return EXIT_CONFIG
    print(f"OK {display}")
    return EXIT_OK


def _cmd_diff(args) -> int:
    try:
        a = json.loads(Path(args.report_a).read_text(encoding="utf-8"))
        b = json.loads(Path(args.report_b).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"cannot load reports: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        lines, flagged = diff_reports(a, b, tol_pct=args.tol)
    except ReportMismatchError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    for line in lines:
        print(line)
    if flagged:
        print("regressions beyond tolerance detected", file=sys.stderr)
    return EXIT_OK


def _tolerance(raw: str) -> float:
    with contextlib.suppress(ValueError):
        if 0 <= float(raw) < math.inf:  # false for NaN
            return float(raw)
    raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {raw!r}")


def build_parser() -> _Parser:
    parser = _Parser(prog="hfsim", description=__doc__)
    parser.add_argument("--version", action="version", version=f"hfsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config and write reports")
    p_run.add_argument("config", help="config path or bundled config name")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--repeats", type=int, default=None, help="override repeats")
    p_run.add_argument("--seed", type=int, default=None, help="override base seed")
    p_run.add_argument("--trace", action="store_true", help="dump event traces (JSONL)")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="validate a config without running it")
    p_val.add_argument("config", help="config path or bundled config name")
    p_val.set_defaults(func=_cmd_validate)

    p_diff = sub.add_parser("diff", help="diff two report.json files")
    p_diff.add_argument("report_a")
    p_diff.add_argument("report_b")
    p_diff.add_argument("--tol", type=_tolerance, default=1.0,
                        help="tolerance in percent (default 1.0)")
    p_diff.set_defaults(func=_cmd_diff)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
