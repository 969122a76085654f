#!/usr/bin/env python3
"""Check every recorded report and trace digest under the running Python.

    python3 tests/replay_pins.py [SEED]

Runs each bundled config and the packed config of
`tests/test_bundled_reports.py`, untraced and traced, and compares
report.json and every pinned trace with the digests that file records.
Then runs one pass of each perfbench workload at SEED (default 0) and
compares its report with `perfbench/references.json`, which it only reads.
The script needs only the standard library, so every supported Python
can run it; the pins are read from the test file's source, not copied.
It prints one line per digest and exits 1 if any differs.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run as perfbench  # noqa: E402
from hfsim.cli import main  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PINNED = ("REPORT_SHA256", "TRACE_SHA256", "PACKED_CFG", "PACKED_SHA256", "PACKED_TRACE_SHA256")


def recorded_pins() -> dict:
    """The module-level pins of test_bundled_reports.py, by name."""
    tree = ast.parse((ROOT / "tests" / "test_bundled_reports.py").read_text())
    return {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
            if isinstance(node, ast.Assign) and node.targets[0].id in PINNED}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_config(config: str, out: Path, traced: bool) -> None:
    args = ["run", config, "--out", str(out)] + (["--trace"] if traced else [])
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(args)
    if code != 0:
        raise SystemExit(f"hfsim {' '.join(args)} exited {code}")


def check_pins(seed: int) -> int:
    pins = recorded_pins()
    traces: dict = {}
    for (config, trace), digest in pins["TRACE_SHA256"].items():
        traces.setdefault(config, {})[trace] = digest
    configs = [(name, name, digest, traces.get(name, {}))
               for name, digest in sorted(pins["REPORT_SHA256"].items())]
    mismatches = checked = 0

    def check(what: str, got: str, expected: str) -> None:
        nonlocal mismatches, checked
        checked += 1
        mismatches += got != expected
        print(f"{'ok' if got == expected else 'MISMATCH'}  {what}  {got[:16]}")

    with tempfile.TemporaryDirectory() as tmp:
        packed = Path(tmp) / "packed.cfg"
        packed.write_text(pins["PACKED_CFG"])
        configs.append(("packed", str(packed), pins["PACKED_SHA256"],
                        pins["PACKED_TRACE_SHA256"]))
        for i, (name, config, digest, pinned) in enumerate(configs):
            for traced in (False, True):
                out = Path(tmp) / f"{i}-{int(traced)}"
                run_config(config, out, traced)
                mode = "traced" if traced else "untraced"
                check(f"{name} report ({mode})", sha256(out / "report.json"), digest)
                for trace, expected in sorted(pinned.items()) if traced else ():
                    check(f"{name} {trace}", sha256(out / trace), expected)
    for name, generate in sorted(WORKLOADS.items()):
        _, report_json = perfbench.run_pass(generate(seed))
        expected = perfbench.recorded_reference(name, seed)
        if expected is None:
            raise SystemExit(f"no recorded reference for {name} at seed {seed}")
        check(f"perfbench {name} seed {seed}", perfbench.report_digest(report_json), expected)
    print(f"Python {sys.version.split()[0]}: {checked - mismatches} of {checked} digests match")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(check_pins(int(sys.argv[1]) if len(sys.argv) > 1 else 0))
