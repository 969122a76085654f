"""Per-layer tracing for the host-cost benchmark.

A traced pass swaps hfsim's public layer functions for wrappers that
record spans (calls, total and self seconds) and counts, then restores
them. Spans nest on a stack, so a span's self time is its duration minus
the durations of the spans it directly caused. The wrappers only time and
count: they pass arguments and results through, and the digest counter
calls the table's own digest function, so a traced pass must produce the
same report bytes as an untraced one.
"""

from __future__ import annotations

import collections
import contextlib
import inspect
from time import perf_counter

from hfsim import integrity, simulation, threat
from hfsim.guest import GuestMachine
from hfsim.integrity import BaselineTable
from hfsim.simulation import STRATEGY_KINDS

UNITS = {
    "simulation.runs": "count",
    "simulation.events": "count",
    "simulation.run_s.baseline": "s",
    "simulation.run_s.hrk": "s",
    "simulation.run_s.hf": "s",
    "simulation.self_s": "s",
    "simulation.self_us_per_event": "us/event",
    "hypervisor.vmexit_calls": "count",
    "hypervisor.vmexit_s": "s",
    "hypervisor.vmexit_self_s": "s",
    "hypervisor.firing_calls": "count",
    "hypervisor.firing_s": "s",
    "hypervisor.firing_self_s": "s",
    "hypervisor.traps": "count",
    "integrity.snapshot_s": "s",
    "integrity.check_batch_calls": "count",
    "integrity.check_batch_s": "s",
    "integrity.check_all_calls": "count",
    "integrity.check_all_s": "s",
    "integrity.objects_checked": "count",
    "integrity.us_per_object_checked": "us/object",
    "integrity.digest_lookups": "count",
    "integrity.digests_computed": "count",
    "integrity.rehash_ratio": "ratio",
    "guest.init_s": "s",
    "guest.register_calls": "count",
    "guest.register_s": "s",
    "guest.write_calls": "count",
    "guest.write_s": "s",
    "guest.write_trapped": "count",
    "config.parse_s": "s",
    "threat.expand_s": "s",
    "threat.scripts": "count",
    "report.build_s": "s",
    "report.json_s": "s",
    "report.bytes": "bytes",
    "trace.overhead_frac": "ratio",
}


class Tracer:
    """Spans aggregated by name, plus plain event counters."""

    def __init__(self):
        self.calls = collections.Counter()
        self.total_s = collections.defaultdict(float)
        self.self_s = collections.defaultdict(float)
        self.counts = collections.Counter()
        self._open: list[list[float]] = []  # [start, seconds spent in child spans]

    def _enter(self) -> None:
        self._open.append([perf_counter(), 0.0])

    def _exit(self, name: str) -> None:
        start, children = self._open.pop()
        duration = perf_counter() - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - children
        if self._open:
            self._open[-1][1] += duration

    @contextlib.contextmanager
    def span(self, name: str):
        self._enter()
        try:
            yield
        finally:
            self._exit(name)

    def wrap(self, name: str, fn):
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            enter()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(name)

        return traced

    def counted(self, name: str, fn):
        counts = self.counts

        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counting


def _count_digests(tracer: Tracer, snapshot):
    default = inspect.signature(snapshot).parameters["digest_fn"].default

    def counting_snapshot(machine, digest_fn=default):
        def counting_digest(data):
            tracer.counts["integrity.digests_computed"] += 1
            return digest_fn(data)

        return snapshot(machine, digest_fn=counting_digest)

    return counting_snapshot


def _count_traps(tracer: Tracer, guest_write):
    def counting_write(*args, **kwargs):
        outcome = guest_write(*args, **kwargs)
        if not outcome.applied:
            tracer.counts["guest.write_trapped"] += 1
        return outcome

    return counting_write


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route hfsim's layer entry points through `tracer` for the block.

    Each function is replaced where its caller looks it up: the engine
    imports its layer functions by name, the hypervisor calls the
    integrity module's functions through the module, and guest and table
    methods live on their classes.
    """
    hooks = [
        (GuestMachine, "__init__", lambda f: tracer.wrap("guest.init", f)),
        (GuestMachine, "register_kernel_object", lambda f: tracer.wrap("guest.register", f)),
        (GuestMachine, "guest_write",
         lambda f: tracer.wrap("guest.write", _count_traps(tracer, f))),
        (BaselineTable, "current_digest",
         lambda f: tracer.counted("integrity.digest_lookups", f)),
        (simulation, "snapshot_baselines",
         lambda f: tracer.wrap("integrity.snapshot", _count_digests(tracer, f))),
        (simulation, "on_control_register_write",
         lambda f: tracer.wrap("hypervisor.vmexit", f)),
        (simulation, "fire_interrupt", lambda f: tracer.wrap("hypervisor.firing", f)),
        (integrity, "check_batch", lambda f: tracer.wrap("integrity.check_batch", f)),
        (integrity, "check_all", lambda f: tracer.wrap("integrity.check_all", f)),
        (threat, "expand_attacks", lambda f: tracer.wrap("threat.expand", f)),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in hooks]
    try:
        for (owner, attr, make), (_, _, original) in zip(hooks, originals):
            setattr(owner, attr, make(original))
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def run_events(result) -> int:
    """Simulated events of one run: workload ops, firings and attack actions."""
    counts = result.counts
    return (
        counts["syscalls"] + counts["ctxswitches"] + counts["firings"]
        + sum(outcome.attempted for outcome in result.attack_outcomes)
    )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, results: dict, report_json: str) -> dict:
    """Per-layer figures of one traced pass, keyed as in UNITS."""
    runs = [run for strategy_runs in results.values() for run in strategy_runs]
    total, own, calls, counts = tracer.total_s, tracer.self_s, tracer.calls, tracer.counts
    events = sum(run_events(run) for run in runs)
    engine_self = sum(own["simulation.run." + kind] for kind in STRATEGY_KINDS)
    checked = sum(run.counts["objects_checked"] for run in runs)
    check_s = total["integrity.check_batch"] + total["integrity.check_all"]
    lookups = counts["integrity.digest_lookups"]
    return {
        "simulation.runs": len(runs),
        "simulation.events": events,
        **{f"simulation.run_s.{kind}": total["simulation.run." + kind]
           for kind in STRATEGY_KINDS},
        "simulation.self_s": engine_self,
        "simulation.self_us_per_event": _ratio(engine_self * 1e6, events),
        "hypervisor.vmexit_calls": calls["hypervisor.vmexit"],
        "hypervisor.vmexit_s": total["hypervisor.vmexit"],
        "hypervisor.vmexit_self_s": own["hypervisor.vmexit"],
        "hypervisor.firing_calls": calls["hypervisor.firing"],
        "hypervisor.firing_s": total["hypervisor.firing"],
        "hypervisor.firing_self_s": own["hypervisor.firing"],
        "hypervisor.traps": sum(run.counts["traps"] for run in runs),
        "integrity.snapshot_s": total["integrity.snapshot"],
        "integrity.check_batch_calls": calls["integrity.check_batch"],
        "integrity.check_batch_s": total["integrity.check_batch"],
        "integrity.check_all_calls": calls["integrity.check_all"],
        "integrity.check_all_s": total["integrity.check_all"],
        "integrity.objects_checked": checked,
        "integrity.us_per_object_checked": _ratio(check_s * 1e6, checked),
        "integrity.digest_lookups": lookups,
        "integrity.digests_computed": counts["integrity.digests_computed"],
        "integrity.rehash_ratio": _ratio(counts["integrity.digests_computed"], lookups),
        "guest.init_s": total["guest.init"],
        "guest.register_calls": calls["guest.register"],
        "guest.register_s": total["guest.register"],
        "guest.write_calls": calls["guest.write"],
        "guest.write_s": total["guest.write"],
        "guest.write_trapped": counts["guest.write_trapped"],
        "config.parse_s": total["config.parse"],
        "threat.expand_s": total["threat.expand"],
        "threat.scripts": len(runs[0].attack_outcomes),
        "report.build_s": total["report.build"],
        "report.json_s": total["report.json"],
        "report.bytes": len(report_json.encode()),
    }
