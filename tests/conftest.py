"""Shared helpers and independent oracles for the test suite."""

import heapq
import importlib.resources
import itertools
import random
from fractions import Fraction

from hfsim.hypervisor import on_control_register_write
from hfsim.integrity import CheckReport, Violation, verify_idtr
from hfsim.simulation import (
    IDT_VECTORS,
    Arrival,
    CostModel,
    EventKind,
    MachineSpec,
    ObjectsSpec,
    SetupSpec,
    _ScenarioRun,
)
from hfsim.timebase import TICKS_PER_SECOND


def bundled_config_names() -> list[str]:
    """The names of the configs hfsim ships, sorted."""
    root = importlib.resources.files("hfsim").joinpath("configs")
    return sorted(p.name for p in root.iterdir() if p.name.endswith(".cfg"))


def fnv1a64_ref(data: bytes) -> int:
    """Independent FNV-1a 64 reference, straight from the definition.

    Kept deliberately separate from the implementation: xor byte, multiply
    by the prime, reduce mod 2**64.
    """
    h = 0xCBF29CE484222325
    for byte in data:
        h = h ^ byte
        h = (h * 0x100000001B3) % (2**64)
    return h


def _ref_span(machine, oid) -> tuple[int, int]:
    """Object oid's (address, length), from the layout's fields, not from its own arithmetic."""
    layout = machine.objects
    assert 0 <= oid < layout.count
    return layout.base + oid * layout.stride, layout.length


def _ref_digest(machine, oid) -> int:
    return fnv1a64_ref(machine.read(*_ref_span(machine, oid)))


def check_batch_ref(machine, table, k, hash_ticks_per_byte=0, now=0) -> CheckReport:
    """Walk-every-object batch check: the oracle for integrity.check_batch.

    Rehashes each of the next k objects from the table's cursor with
    fnv1a64_ref, charges and stamps violations object by object, lets the
    IDTR ride along when the last object in id order is covered, then
    advances the cursor.
    """
    n = table.count
    k_eff = min(k, n)
    report = CheckReport(objects_checked=k_eff)
    duration = 0
    wrapped = False
    for i in range(k_eff):
        oid = (table.cursor + i) % n  # position p holds object p
        if oid == n - 1:
            wrapped = True
        duration += _ref_span(machine, oid)[1] * hash_ticks_per_byte
        found = _ref_digest(machine, oid)
        if found != table.baseline(oid):
            report.violations.append(
                Violation(target=oid, expected=table.baseline(oid), found=found,
                          time=now + duration)
            )
    if wrapped:
        violation = verify_idtr(machine, table, now=now + duration)
        if violation is not None:
            report.violations.append(violation)
    table.cursor = (table.cursor + k_eff) % n
    report.duration = duration
    report.cycle_completed = wrapped
    report.diverged = len(report.violations)
    return report


def check_all_ref(machine, table, hash_ticks_per_byte=0, now=0) -> CheckReport:
    """Walk-every-object sweep: the oracle for integrity.check_all."""
    report = CheckReport(objects_checked=table.count, cycle_completed=True)
    duration = 0
    for oid in range(table.count):
        duration += _ref_span(machine, oid)[1] * hash_ticks_per_byte
        found = _ref_digest(machine, oid)
        if found != table.baseline(oid):
            report.violations.append(
                Violation(target=oid, expected=table.baseline(oid), found=found,
                          time=now + duration)
            )
    violation = verify_idtr(machine, table, now=now + duration)
    if violation is not None:
        report.violations.append(violation)
    report.duration = duration
    report.diverged = len(report.violations)
    return report


def batch_pages_ref(machine, table, k) -> int:
    """Distinct pages the next k objects from the cursor occupy."""
    n = table.count
    pages = set()
    for i in range(min(k, n)):
        addr, length = _ref_span(machine, (table.cursor + i) % n)
        pages.update(range(addr // machine.page_size,
                           (addr + length - 1) // machine.page_size + 1))
    return len(pages)


def make_setup(
    count: int = 4,
    size_bytes: int = 64,
    page_size: int = 4096,
    placement: str = "spread",
    extra_pages: int = 0,
) -> SetupSpec:
    """Setup spec with page_count auto-sized to fit the standard layout."""
    idt_pages = -(-IDT_VECTORS * 8 // page_size)
    first_obj_page = 1 + idt_pages + 1
    if placement == "spread":
        pages = first_obj_page + count
    else:
        pages = first_obj_page + -(-count * size_bytes // page_size)
    return SetupSpec(
        machine=MachineSpec(page_count=pages + extra_pages, page_size=page_size),
        objects=ObjectsSpec(count=count, size_bytes=size_bytes, placement=placement),
    )


def assert_conservation(result, costs=None) -> None:
    """The exact fixed-point accounting identity every run must satisfy.

    Under hrk every VMExit checks min(batch_k, count) objects of one size.
    With the run's cost model, the fixed charges must also be their counts
    times their unit costs: a transition pair per VMExit, a delivery per
    firing, and under every strategy the hash time of each object checked.
    """
    charged = sum(result.cost_breakdown.values())
    assert result.total_ticks == result.horizon + charged
    data = result.to_json_dict()
    assert data["overhead_ticks"] == charged
    assert data["baseline_ticks"] == result.horizon
    assert result.overhead_fraction == charged / result.horizon
    breakdown, counts, echo = result.cost_breakdown, result.counts, result.config_echo
    hrk = result.strategy_kind == "hrk"
    if hrk:
        batch = min(echo["strategy"]["batch_k"], echo["objects"]["count"])
        assert counts["objects_checked"] == counts["vmexits"] * batch
    if costs is not None:
        assert breakdown["hash"] == (
            counts["objects_checked"] * echo["objects"]["size_bytes"] * costs.t_hash_per_byte
        )
        assert breakdown["vmexit"] == counts["vmexits"] * costs.t_vmexit
        assert breakdown["vmentry"] == counts["vmexits"] * costs.t_vmentry
        assert breakdown["interrupt_delivery"] == (
            counts["firings"] * costs.t_interrupt_delivery
        )


_KIND_PRIORITY = {"firing_start": 1, "attack": 2, "syscall": 3, "ctxswitch": 3}


def _arrival_times_ref(rate, horizon, arrival, rng) -> list:
    times = []
    if rate <= 0:
        return times
    if arrival is Arrival.FIXED:
        interval = Fraction(TICKS_PER_SECOND) / Fraction(rate)
        n = 1
        while round(n * interval) <= horizon:
            times.append(round(n * interval))
            n += 1
    else:
        t_s = 0.0
        while True:
            t_s += rng.expovariate(rate)
            t = round(t_s * TICKS_PER_SECOND)
            if t > horizon:
                return times
            times.append(t)
    return times


def event_order_ref(workload, seed, firing_times=(), attack_times=()) -> list:
    """(t, kind) of a run's workload, firing and attack events, in dispatch order.

    The pre-push schedule: every arrival of both sources is drawn up front
    (fixed ones from exact fractions, Poisson ones from the run's named
    substreams), pushed in the order syscalls, context switches, firings,
    attack actions, and the whole list is sorted by (time, kind priority,
    insertion order). Kinds are named as in the trace: "firing_start" and
    "attack" stand for a firing and an attack action.
    """
    events = []
    for op, rate in (("syscall", workload.syscall_rate),
                     ("ctxswitch", workload.ctxswitch_rate)):
        rng = random.Random(f"workload-{op}:{seed}")
        events += [(t, op) for t in _arrival_times_ref(rate, workload.horizon,
                                                       workload.arrival, rng)]
    events += [(t, "firing_start") for t in firing_times]
    events += [(t, "attack") for t in attack_times]
    keyed = sorted((t, _KIND_PRIORITY[kind], seq, kind) for seq, (t, kind) in enumerate(events))
    return [(t, kind) for t, _, _, kind in keyed if t <= workload.horizon]


def _on_arrival_ref(run, tally, now, op) -> None:
    """One workload event, counted in `tally` ([events, pages mapped]); under hrk, one
    VMExit and its batch check."""
    tally[0] += 1
    if run.trace is not None:
        run.trace({"t": now, "kind": op})
    if run.strategy.kind != "hrk":
        return
    report = on_control_register_write(
        run.machine, run.table, run.costs, run.strategy.batch_k, now=now,
    )
    tally[1] += report.pages_mapped
    # the engine derives each VMExit's objects and hash time from the layout
    batch = min(run.strategy.batch_k, run.table.count)
    assert report.objects_checked == batch
    assert report.duration == batch * run.machine.objects.length * run.costs.t_hash_per_byte
    if run.trace is not None:  # checked without skip: every diverged target is a violation
        run.trace({
            "t": now, "kind": "vmexit_check",
            "checked": report.objects_checked + report.cycle_completed,
            "violations": len(report.violations),
        })
    if report.violations:
        run._process_violations(report.violations, via="hrk_vmexit")


def _on_attack_ref(run, now, payload) -> None:
    """One attack action, an object tamper applied as a mediated write of its byte.

    Every object the write overlaps is then refreshed through the table's
    current_digest, which folds in the machine's `written`. Every other
    action goes to the engine's own handler.
    """
    action, label = payload[0], payload[1]
    if action not in ("write", "restore"):
        run._on_attack(now, payload)
        return
    addr, data = payload[2], payload[3]
    result = run.machine.guest_write(run.registry, addr, data, now=now)
    run._account_write(run.outcomes[label], result, now)
    if result.applied:
        for oid in run.machine.objects_overlapping(addr, len(data)):
            clean = run.table.current_digest(run.machine, oid) == run.table.baseline(oid)
            run._refresh_state(oid, clean, now)
    if run.trace is not None:
        run.trace({"t": now, "kind": "attack", "label": label, "action": action})


# an arrival's priority on the oracle's heap: after every firing and attack action at its tick
_WORKLOAD = max(EventKind) + 1


def run_per_event_ref(setup, strategy, workload, attacks=(), costs=CostModel(), seed=0,
                      trace=None):
    """The per-event engine loop: the oracle for run_scenario's arrival walk.

    Sets the run up as run_scenario does, then pushes every workload
    arrival as its own event (drawn up front, as in event_order_ref) on a
    heap of (time, kind priority, insertion sequence), ahead of the run's
    sorted firings and attack actions, and dispatches one pop at a time.
    Under hrk every arrival's VMExit goes through
    on_control_register_write without skip, whatever its batch holds.
    Object tampers go through _on_attack_ref.
    """
    run = _ScenarioRun(setup, strategy, workload, attacks, costs, seed, trace)
    heap, seq, tallies = [], itertools.count(), {"syscall": [0, 0], "ctxswitch": [0, 0]}
    for op, rate in (("syscall", workload.syscall_rate),
                     ("ctxswitch", workload.ctxswitch_rate)):
        rng = random.Random(f"workload-{op}:{seed}")
        for t in _arrival_times_ref(rate, workload.horizon, workload.arrival, rng):
            heapq.heappush(heap, (t, _WORKLOAD, next(seq), (op,)))
    for time, kind, payload in run.events:  # firings and attacks, in order
        heapq.heappush(heap, (time, kind, next(seq), payload))
    handlers = {EventKind.DEVICE_FIRING: run._on_firing,
                EventKind.ATTACK: lambda now, payload: _on_attack_ref(run, now, payload)}
    while heap and heap[0][0] <= workload.horizon:
        time, kind, _, payload = heapq.heappop(heap)
        if kind == _WORKLOAD:
            _on_arrival_ref(run, tallies[payload[0]], time, payload[0])
        else:
            handlers[kind](time, payload)
    return run._finish(*zip(*tallies.values()))
