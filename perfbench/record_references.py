#!/usr/bin/env python3
"""Record the sha256 of report.json for each (workload, seed).

    python3 perfbench/record_references.py [--workload NAME ...] [--seeds N]

Runs one untraced pass per workload and seed 0..N-1 and merges the
digests into references.json, which run.py checks every report against.
Re-record only when a change is meant to alter hfsim's reports.
"""

from __future__ import annotations

import argparse
import json

import run
from workloads import WORKLOADS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=32)
    args = parser.parse_args(argv)
    references = json.loads(run.REFERENCES.read_text())
    for workload in args.workload or sorted(WORKLOADS):
        digests = references.setdefault(workload, {})
        for seed in range(args.seeds):
            _, report_json = run.run_pass(WORKLOADS[workload](seed))
            digests[str(seed)] = run.report_digest(report_json)
            run.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
            print(workload, seed, digests[str(seed)], flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
