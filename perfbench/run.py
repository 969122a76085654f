#!/usr/bin/env python3
"""Host-cost benchmark for hfsim.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's config text from the seed, then times hfsim's
public API on it: parse_config_text, every strategy x repeat
run_scenario, build_report and report_to_json. Every run is checked
(tick conservation, and the sha256 of report.json against the reference
digest for the workload and seed). With --trace 0 it prints the
end-to-end metrics, with its times scaled to a reference host speed
that a fixed probe loop, run between and during the timed steps,
measures; with
--trace 1 it alternates untraced and traced passes and prints the
per-layer metrics in raw host seconds. Each metric gets a line with
its name and unit; the last line is one JSON object with the keys
correct, attempted, failed and metrics.

It benchmarks the sources in ../src, never an installed hfsim, and
exits with an error when they are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import heapq
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "hfsim" / "__init__.py").is_file():
    sys.exit(f"perfbench: no hfsim sources at {SRC}")
sys.path.insert(0, str(SRC))

from hfsim.config import parse_config_text  # noqa: E402
from hfsim.report import build_report, report_to_json  # noqa: E402
from hfsim.simulation import StrategyConfig, run_scenario  # noqa: E402

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCES = HERE / "references.json"
SETUPS_PER_PASS = 2
MIN_ROUNDS = 2
PROBE_ITERATIONS = 625
# Seconds one reference_loop() takes on the reference host: scaled times
# read as host seconds on a host that runs the loop this fast.
REFERENCE_LOOP_S = 0.025
# Inside a span the probe also runs on a timer, once per this many seconds.
PROBE_INTERVAL_S = 0.25

UNITS = {
    "wall_s": "s",
    "events_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def report_digest(report_json: str) -> str:
    return hashlib.sha256(report_json.encode()).hexdigest()


def recorded_reference(workload: str, seed: int):
    """The recorded report digest for (workload, seed), or None."""
    references = json.loads(REFERENCES.read_text())
    return references.get(workload, {}).get(str(seed))


class Checks:
    """Counts runs attempted and runs failing a correctness check.

    Without a recorded reference digest, the first pass's digest becomes
    the reference, so later passes must at least replay it exactly.
    """

    def __init__(self, reference=None):
        self.reference = reference
        self.recorded = reference is not None
        self.attempted = 0
        self.failed = 0

    def runs(self, runs, report_ok: bool = True) -> None:
        for result in runs:
            conserved = result.total_ticks == result.horizon + sum(
                result.cost_breakdown.values()
            )
            self.attempted += 1
            self.failed += not (conserved and report_ok)

    def report(self, results: dict, report_json: str) -> None:
        digest = report_digest(report_json)
        if self.reference is None:
            self.reference = digest
        self.runs(
            [result for runs in results.values() for result in runs],
            report_ok=digest == self.reference,
        )


def _untraced(name):
    return contextlib.nullcontext()


def run_pass(text: str, timer=None):
    """One pass: parse, every strategy x repeat run, report serialized.

    `timer` is a layers.Tracer or a ScaledClock; its spans cover every
    step of the pass.
    """
    span = _untraced if timer is None else timer.span
    with span("config.parse"):
        config = parse_config_text(text)
    with span("config.attacks"):
        attacks = config.expanded_attacks()
    results = {}
    for name, strategy in config.strategies.items():
        runs = results[name] = []
        for r in range(config.repeats):
            with span("simulation.run." + strategy.kind):
                runs.append(run_scenario(
                    config.setup(), strategy, config.workload, attacks,
                    config.costs, config.seed + r,
                ))
    with span("report.build"):
        report = build_report(config, results)
    with span("report.json"):
        report_json = report_to_json(report)
    return results, report_json


def setup_once(text: str):
    """Config text to a run ready for its first event.

    Parses the config, then runs the baseline strategy on the same machine
    and objects with a zero-rate workload: guest memory, object
    registration and the baseline snapshot, and no events.
    """
    config = parse_config_text(text)
    idle = dataclasses.replace(config.workload, syscall_rate=0.0, ctxswitch_rate=0.0)
    return run_scenario(
        config.setup(), StrategyConfig(kind="baseline"), idle, (), config.costs, config.seed
    )


def _timed(fn, *args):
    start = time.perf_counter()
    value = fn(*args)
    return time.perf_counter() - start, value


def reference_loop() -> int:
    """Fixed pure-Python work, independent of hfsim: the host speed probe.

    It mixes the operations hfsim's hot paths are made of (an FNV-1a byte
    loop, dict reads and writes, a bounded heap) and allocates no object
    the cyclic garbage collector tracks, so the size of hfsim's heap does
    not change its time.
    """
    data = bytes(range(256))
    table, heap, h = {}, [], 0
    for i in range(PROBE_ITERATIONS):
        x = 0xCBF29CE484222325
        for b in data:
            x = ((x ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
        table[i % 97] = x
        heapq.heappush(heap, (x & 0xFFFF) << 16 | i)
        if len(heap) > 50:
            heapq.heappop(heap)
        h ^= table.get(i * 7 % 97, 0)
    return h ^ heap[0]


def _probe() -> float:
    return _timed(reference_loop)[0]


class ScaledClock:
    """Times spans in host seconds and in reference-host seconds.

    The probe loop runs after every span and, on a SIGALRM timer, every
    PROBE_INTERVAL_S inside it; the time the probes take is not counted.
    A span's host seconds are scaled by REFERENCE_LOOP_S over the mean of
    the probe times just before, inside and just after it, so a spell of
    a slow or busy host, which slows probe and program alike, drops out
    of the scaled time. Use it as a context manager: it owns the timer.
    """

    def __init__(self):
        self.probe_s = []
        self.host_s = self.scaled_s = 0.0
        self._inside = None  # probe times of the open span
        self._paused_s = 0.0  # seconds the open span spent in probes

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        self.probe_s.append(_probe())
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_timer(self, signum, frame):
        if self._inside is not None:
            start = time.perf_counter()
            self._inside.append(_probe())
            self._paused_s += time.perf_counter() - start

    @contextlib.contextmanager
    def span(self, name=None):
        self._inside, self._paused_s = [], 0.0
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start - self._paused_s
            inside, self._inside = self._inside, None
        probes = [self.probe_s[-1], *inside, _probe()]
        self.probe_s += probes[1:]
        self.host_s += elapsed
        self.scaled_s += elapsed * REFERENCE_LOOP_S / statistics.fmean(probes)

    def lap(self) -> tuple:
        """Host and scaled seconds of the spans since the last lap."""
        lap = self.host_s, self.scaled_s
        self.host_s = self.scaled_s = 0.0
        return lap


def _rounds(started: float, seconds: float):
    """Count rounds while the next one, as long as the last, ends by the deadline.

    MIN_ROUNDS rounds always run, so a run may overshoot a short deadline.
    """
    done, last = 0, 0.0
    while done < MIN_ROUNDS or time.perf_counter() - started + last <= seconds:
        round_start = time.perf_counter()
        yield done
        last = time.perf_counter() - round_start
        done += 1


def measure(text: str, seconds: float, checks: Checks):
    """End-to-end metrics from rounds of set-ups and a pass until `seconds`.

    Times are ScaledClock times. Set-ups are spread over the run like the
    passes, so both medians see the same spells of a busy host. Returns
    the metrics and the same figures in raw host seconds.
    """
    started = time.perf_counter()
    setup_s, wall_s, events_per_s = [], [], []
    raw_setup_s, raw_wall_s = [], []
    with ScaledClock() as clock:
        for _ in _rounds(started, seconds):
            for _ in range(SETUPS_PER_PASS):
                with clock.span():
                    result = setup_once(text)
                checks.runs([result])
                host, scaled = clock.lap()
                raw_setup_s.append(host)
                setup_s.append(scaled)
            results, report_json = run_pass(text, clock)
            checks.report(results, report_json)
            events = sum(layers.run_events(r) for runs in results.values() for r in runs)
            host, scaled = clock.lap()
            raw_wall_s.append(host)
            wall_s.append(scaled)
            events_per_s.append(events / scaled)
    metrics = {
        "wall_s": statistics.median(wall_s),
        "events_per_s": statistics.median(events_per_s),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = {
        "probe_s": statistics.median(clock.probe_s),
        "wall_s": statistics.median(raw_wall_s),
        "setup_s": statistics.median(raw_setup_s),
        "passes": len(raw_wall_s),
    }
    return metrics, raw


def measure_traced(text: str, seconds: float, checks: Checks) -> dict:
    """Per-layer metrics: untraced and traced passes alternate until `seconds`.

    Traced and untraced reports are checked against the same reference
    digest, so a traced report that differs from the untraced one fails.
    """
    started = time.perf_counter()
    untraced_s, traced_s, per_pass = [], [], []
    for _ in _rounds(started, seconds):
        elapsed, (results, report_json) = _timed(run_pass, text)
        checks.report(results, report_json)
        untraced_s.append(elapsed)
        with layers.instrument(layers.Tracer()) as tracer:
            elapsed, (results, report_json) = _timed(run_pass, text, tracer)
        checks.report(results, report_json)
        traced_s.append(elapsed)
        per_pass.append(layers.layer_metrics(tracer, results, report_json))
    metrics = {name: statistics.median_low(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_s) / statistics.median(untraced_s) - 1
    )
    return metrics


def environment() -> dict:
    """Python version, usable CPUs and CPU model of the measuring host."""
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh
                      if line.startswith("model name")]
        if models:
            cpu = models[0]
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def result_line(metrics: dict, units: dict, checks: Checks) -> str:
    return json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    text = WORKLOADS[args.workload](args.seed)
    checks = Checks(recorded_reference(args.workload, args.seed))
    raw = None
    if args.trace:
        metrics, units = measure_traced(text, args.seconds, checks), layers.UNITS
    else:
        (metrics, raw), units = measure(text, args.seconds, checks), UNITS

    env = environment()
    print(f"env python={env['python']} nproc={env['nproc']} cpu={env['cpu']!r}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"reference={'recorded' if checks.recorded else 'first pass'} "
          f"digest={checks.reference}")
    print(f"runs attempted={checks.attempted} failed={checks.failed} "
          f"error_rate={checks.failed / checks.attempted!r}")
    if raw is not None:
        print(f"host probe_s={raw['probe_s']!r} (reference {REFERENCE_LOOP_S} s) "
              f"passes={raw['passes']} raw wall_s={raw['wall_s']!r} "
              f"raw setup_s={raw['setup_s']!r}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(result_line(metrics, units, checks))
    return 0


if __name__ == "__main__":
    sys.exit(main())
