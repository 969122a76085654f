"""Deterministic discrete-event engine driving one monitored guest.

One run wires a guest machine, protection registry, baseline table, the
configured checking strategy, a synthetic workload (system calls and
context switches), and a list of attacker scripts into a single ordered
event timeline, then accounts every simulated cost in integer ticks.

Time accounting is parallel, not displacing: events occur at their
scheduled instants; charged costs accumulate into the run total rather
than pushing later events back. The total simulated time of a run is
therefore exactly ``horizon + sum(strategy charges)``, and the baseline
strategy's total is exactly the horizon, which keeps the conservation
identity testable to the tick. Event-op base costs (t_syscall_base,
t_ctxswitch_base) describe the cost of the operation itself; they are
reported in absolute per-event latency but never extend the run.

The engine alternates two steps: it drains the workload arrivals due
before the next one-off event (a device firing or an attack action),
then dispatches that event. Under hrk every arrival is a VMExit; a batch
window that cannot find a violation is costed in the drain's locals, and
only the others run a check. Charges that are the same for every event
are derived from counts when the run finishes.

Determinism: identical (setup, strategy, workload, attacks, costs, seed)
inputs replay to a byte-identical serialized result. All randomness flows
from named substreams of the run seed.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
import random
from bisect import bisect_left
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from . import threat
from .errors import (
    ConfigFileError, ConfigurationError, check_bounds, nonneg, one_of, positive, spec,
)
from .guest import IDT_ENTRY_SIZE, GuestMachine, page_size_problem
from .guest import handler_problem, idtr_limit_problem
from .hypervisor import (
    FiringSchedule,
    ProtectionRegistry,
    fire_interrupt,
    on_control_register_write,
)
from .integrity import HANDLER_TARGET, IDTR_TARGET, snapshot_baselines
from .timebase import TICKS_PER_SECOND, Ticks

STRATEGY_BASELINE = "baseline"
STRATEGY_HRK = "hrk"
STRATEGY_HF = "hf"
STRATEGY_KINDS = (STRATEGY_BASELINE, STRATEGY_HRK, STRATEGY_HF)

# clean margin the evasion attacker keeps around known firing instants
EVASION_GUARD_TICKS = 1_000

# the module's IDT vector, and the IDT's size in vectors, of every run
HANDLER_VECTOR = 32
IDT_VECTORS = 64


class EventKind(enum.IntEnum):
    """Tie-break priority for simultaneous events (lower fires first)."""

    DEVICE_FIRING = 1
    ATTACK = 2
    WORKLOAD = 3


class EventQueue:
    """One-off events and event streams, in (time, kind priority, insertion sequence) order.

    A pushed event takes the next sequence number and waits in the one-off
    heap; `pop` takes the earliest. A stream, added with `add_stream`,
    takes one sequence number for all of its events and keeps only its
    next event in the stream heap, so it orders exactly as if every one of
    its events had been pushed when it was added; `drain` yields the
    stream events due before a one-off event.
    """

    def __init__(self):
        self._events: list[tuple[int, int, int, tuple]] = []
        self._heads: list[tuple[int, int, int, tuple]] = []  # each stream's next event
        self._seq = itertools.count()
        self._streams: dict[int, Iterator[Ticks]] = {}

    def push(self, time: Ticks, kind: EventKind, payload: tuple) -> None:
        heapq.heappush(self._events, (time, kind, next(self._seq), payload))

    def add_stream(self, times: Iterable[Ticks], kind: EventKind, payload: tuple) -> None:
        """Queue one event of `kind` at each of `times`, which must not decrease.

        The stream's next time is drawn when its current event is drained.
        """
        times = iter(times)
        seq = next(self._seq)
        first = next(times, None)
        if first is not None:
            self._streams[seq] = times
            heapq.heappush(self._heads, (first, kind, seq, payload))

    def pop(self) -> Optional[tuple[int, int, int, tuple]]:
        """The earliest one-off event's heap tuple, or None when there is none."""
        return heapq.heappop(self._events) if self._events else None

    def drain(self, before: Optional[tuple] = None) -> Iterator[tuple[int, int, int, tuple]]:
        """Yield, in order, the heap tuples of the stream events that sort before `before`.

        Every stream event when `before` is None. The head stream runs on
        without a heap operation while its events sort before the bound and
        every other stream's head. Exhaust it before the next `drain`.
        """
        heads, streams = self._heads, self._streams
        before = (math.inf,) if before is None else before
        while heads and heads[0] < before:
            time, kind, seq, payload = event = heads[0]
            yield event
            limit = before  # the bound, or another stream's head if that comes first
            if len(heads) > 1 and heads[1] < limit:
                limit = heads[1]
            if len(heads) > 2 and heads[2] < limit:
                limit = heads[2]
            limit_time, first_on_tie = limit[0], (kind, seq) < limit[1:3]
            times = streams[seq]
            for time in times:
                if time < limit_time or (time == limit_time and first_on_tie):
                    yield (time, kind, seq, payload)
                else:
                    heapq.heapreplace(heads, (time, kind, seq, payload))
                    break
            else:
                heapq.heappop(heads)
                del streams[seq]


class Arrival(enum.Enum):
    FIXED = "fixed"
    POISSON = "poisson"


@spec(syscall_rate=nonneg, ctxswitch_rate=nonneg, horizon=positive)
class WorkloadSpec:
    """Synthetic guest activity: event rates over a finite horizon."""

    syscall_rate: float
    ctxswitch_rate: float
    horizon: Ticks
    arrival: Arrival = Arrival.FIXED


@spec(t_vmexit=nonneg, t_vmentry=nonneg, t_interrupt_delivery=nonneg, t_map_page=nonneg,
      t_hash_per_byte=nonneg, t_syscall_base=nonneg, t_ctxswitch_base=nonneg)
class CostModel:
    """Simulated durations, all integer ticks (1 tick = 1 ns)."""

    t_vmexit: Ticks = 0
    t_vmentry: Ticks = 0
    t_interrupt_delivery: Ticks = 0
    t_map_page: Ticks = 0
    t_hash_per_byte: Ticks = 0
    t_syscall_base: Ticks = 0
    t_ctxswitch_base: Ticks = 0


@spec(kind=one_of(*STRATEGY_KINDS), batch_k=positive)
class StrategyConfig:
    """Which checker runs: none, per-VMExit batches, or forced sweeps."""

    kind: str
    batch_k: int = 1
    schedule: Optional[FiringSchedule] = None

    def __post_init__(self):
        check_bounds(self)
        if self.kind == STRATEGY_HF and self.schedule is None:
            raise ConfigurationError("hf strategy requires a firing schedule")


@spec(page_count=positive, page_size=page_size_problem)
class MachineSpec:
    page_count: int
    page_size: int = 4096


@spec(count=positive, size_bytes=positive, placement=one_of("spread", "packed"))
class ObjectsSpec:
    count: int
    size_bytes: int
    placement: str = "spread"  # spread: one object per page; packed: contiguous


@dataclass(frozen=True)
class SetupSpec:
    """Machine geometry plus the fixed layout conventions of a run.

    Layout: page 0 is unclaimed scratch, the IDT of `IDT_VECTORS` entries
    starts at page 1, the module occupies the first page after the IDT,
    objects follow the module page.
    """

    machine: MachineSpec
    objects: ObjectsSpec


@dataclass(frozen=True)
class Layout:
    """Concrete placement; object i sits at `objects_base + i*objects_stride`."""

    idt_base: int
    idt_limit: int
    module_addr: int
    objects_base: int
    objects_stride: int
    pages_required: int


def _layout(setup: SetupSpec) -> Layout:
    ps = setup.machine.page_size
    idt_limit = IDT_VECTORS * IDT_ENTRY_SIZE
    module_page = 1 + -(-idt_limit // ps)
    first_obj_page = module_page + 1
    objs = setup.objects
    if objs.placement == "spread":
        stride, obj_pages = ps, objs.count
    else:
        stride, obj_pages = objs.size_bytes, -(-objs.count * objs.size_bytes // ps)
    return Layout(ps, idt_limit, module_page * ps, first_obj_page * ps, stride,
                  first_obj_page + obj_pages)


def plan_layout(setup: SetupSpec) -> Layout:
    """The concrete placement for a setup; ConfigFileError, keyed by config key, if invalid."""
    objs = setup.objects
    layout = _layout(setup)
    problems = []
    if objs.placement == "spread" and objs.size_bytes > setup.machine.page_size:
        problems.append(("objects.size_bytes",
                         "spread placement requires size_bytes <= page_size"))
    if setup.machine.page_count < layout.pages_required:
        problems.append(("machine.page_count", f"machine needs >= {layout.pages_required} "
                         f"pages for this layout, got {setup.machine.page_count}"))
    if problems:
        raise ConfigFileError(problems)
    return layout


def check_attacks(setup: SetupSpec, scripts: Sequence) -> dict:
    """Validate labelled attack scripts against a setup before t=0.

    Object tampers must name a registered object and, like code tampers,
    write only bytes inside guest memory; IDT tampers must name a vector
    inside the IDT, and IDTR tampers a table inside guest memory; no two
    scripts may target the same object or the IDTR, since a detection
    could not then be attributed. Returns {target: label} for the object
    and IDTR tampers. Raises ConfigFileError with one problem per
    offending script, keyed by its label.
    """
    memory = setup.machine.page_count * setup.machine.page_size
    layout = _layout(setup)
    targets: dict = {}
    problems = []
    for label, script in scripts:
        key = f"attack {label}"
        if isinstance(script, (threat.PersistentTamper, threat.TransientTamper)):
            target = script.object_index
            if not 0 <= target < setup.objects.count:
                problems.append((f"{key}.object_index", f"object index {target} "
                                 f"outside [0, {setup.objects.count})"))
                continue
            addr = layout.objects_base + target * layout.objects_stride + script.offset
            if not 0 <= addr < memory:
                problems.append((f"{key}.offset", f"byte {addr} outside memory of "
                                 f"{memory} bytes"))
                continue
        elif isinstance(script, threat.CodeTamper):
            addr = layout.module_addr + script.offset
            if not 0 <= addr <= memory - len(script.payload):
                problems.append((f"{key}.offset", f"write [{addr}, "
                                 f"{addr + len(script.payload)}) outside memory of "
                                 f"{memory} bytes"))
            continue
        elif isinstance(script, threat.IdtTamper):
            if not 0 <= script.vector < IDT_VECTORS:
                problems.append((f"{key}.vector", f"vector {script.vector} outside "
                                 f"the IDT of {IDT_VECTORS} entries"))
            elif problem := handler_problem(script.new_handler):
                problems.append((f"{key}.new_handler", problem))
            continue
        elif isinstance(script, threat.IdtrTamper):
            target = IDTR_TARGET
            limit = IDT_VECTORS * IDT_ENTRY_SIZE if script.new_limit is None else script.new_limit
            if problem := idtr_limit_problem(limit):
                problems.append((f"{key}.new_limit", problem))
                continue
            if not 0 <= script.new_base <= memory - limit:
                problems.append((f"{key}.new_base", f"IDTR [{script.new_base}, "
                                 f"{script.new_base + limit}) outside memory of "
                                 f"{memory} bytes"))
                continue
        else:
            continue
        if target in targets:
            problems.append((key, f"targets the same object as attack {targets[target]!r}"))
        else:
            targets[target] = label
    if problems:
        raise ConfigFileError(problems)
    return targets


@dataclass(frozen=True)
class DetectionRecord:
    """First detection of one divergence episode of a target."""

    target: Union[int, str]
    tamper_time: Optional[Ticks]
    detected_time: Ticks
    via: str

    def to_json_dict(self) -> dict:
        return {
            "target": self.target,
            "tamper_time": self.tamper_time,
            "detected_time": self.detected_time,
            "via": self.via,
        }


@dataclass
class ScenarioResult:
    """Everything one run produced, fully determined by its inputs."""

    seed: int
    strategy_kind: str
    horizon: Ticks
    total_ticks: Ticks
    cost_breakdown: dict
    workload_base: dict
    counts: dict
    per_event_added: dict
    detections: list
    trap_records: list
    attack_outcomes: list
    config_echo: dict

    @property
    def overhead_fraction(self) -> float:
        """Charged ticks over the horizon, the run's baseline time."""
        return (self.total_ticks - self.horizon) / self.horizon

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "strategy_kind": self.strategy_kind,
            "horizon": self.horizon,
            "baseline_ticks": self.horizon,
            "total_ticks": self.total_ticks,
            "overhead_ticks": self.total_ticks - self.horizon,
            "overhead_fraction": self.overhead_fraction,
            "cost_breakdown": dict(sorted(self.cost_breakdown.items())),
            "workload_base": dict(sorted(self.workload_base.items())),
            "counts": dict(sorted(self.counts.items())),
            "per_event_added": dict(sorted(self.per_event_added.items())),
            "detections": [d.to_json_dict() for d in self.detections],
            "traps": [t.to_json_dict() for t in self.trap_records],
            "attacks": [o.to_json_dict() for o in self.attack_outcomes],
            "config_echo": self.config_echo,
        }


def _arrival_times(
    rate: float, horizon: Ticks, arrival: Arrival, rng: random.Random
) -> Iterator[Ticks]:
    """Arrival instants in (0, horizon], nondecreasing, drawn one at a time.

    Fixed arrivals fall at round(n * TICKS_PER_SECOND / rate), computed
    exactly on the rate's value and rounded half to even as round() does.
    """
    if rate <= 0:
        return
    if arrival is Arrival.FIXED:
        ratio = Fraction(rate)
        # the n-th arrival is at (n * step) / divisor ticks
        step, divisor = TICKS_PER_SECOND * ratio.denominator, ratio.numerator
        exact = step
        while True:
            t, rest = divmod(exact, divisor)
            if 2 * rest > divisor or (2 * rest == divisor and t & 1):
                t += 1
            if t > horizon:
                return
            yield t
            exact += step
    else:
        # rng.expovariate(rate) inlined, as CPython's own body: the same floats
        log, draw = math.log, rng.random
        t_s = 0.0
        while True:
            t_s += -log(1.0 - draw()) / rate
            t = round(t_s * TICKS_PER_SECOND)
            if t > horizon:
                return
            yield t


def _module_code(page_size: int) -> bytes:
    return bytes((7 * i + 13) & 0xFF for i in range(page_size))


# attack action opcodes on the event timeline
_ACT_WRITE = "write"          # object byte write (persistent or dirty-begin)
_ACT_RESTORE = "restore"      # transient restore to baseline byte
_ACT_MODULE = "module_write"
_ACT_IDT = "idt_write"
_ACT_IDTR = "idtr_set"

# workload sources, as (op, count key); the syscall source comes first
_SOURCES = (("syscall", "syscalls"), ("ctxswitch", "ctxswitches"))


class _Tally:
    """One workload source's event count and, under hrk, the pages its VMExits mapped.

    Every event of the source costs its base cost, and under hrk each one
    is a VMExit charging t_vmexit, t_vmentry and the hash time of min(k, n)
    objects of the layout's one length, so those charges follow from
    `events` alone and `_finish` derives them.
    """

    __slots__ = ("events", "pages_mapped")

    def __init__(self):
        self.events = self.pages_mapped = 0


class _ScenarioRun:
    def __init__(
        self,
        setup: SetupSpec,
        strategy: StrategyConfig,
        workload: WorkloadSpec,
        attacks: Sequence,
        costs: CostModel,
        seed: int,
        trace: Optional[Callable[[dict], None]] = None,
    ):
        self.setup = setup
        self.strategy = strategy
        self.workload = workload
        self.costs = costs
        self.seed = seed
        self.trace = trace
        self.horizon = workload.horizon

        layout = plan_layout(setup)
        self.machine = GuestMachine(setup.machine.page_count, setup.machine.page_size)
        self.machine.set_idtr(layout.idt_base, layout.idt_limit)
        self.machine.load_module(
            _module_code(setup.machine.page_size), layout.module_addr, HANDLER_VECTOR
        )
        self.machine.register_kernel_object(
            layout.objects_base, setup.objects.size_bytes,
            count=setup.objects.count, stride=layout.objects_stride,
        )
        self.registry = ProtectionRegistry(setup.machine.page_count)
        self.table = snapshot_baselines(self.machine)

        # the hf device's firing schedule; None under the other strategies
        self.schedule: Optional[FiringSchedule] = None
        if strategy.kind == STRATEGY_HF:
            self.schedule = strategy.schedule
            self.registry.protect_pages(self.machine.module.page_range(setup.machine.page_size))
            self.registry.protect_pages(self.machine.idt_pages())

        self.scripts = attacks  # (label, script) pairs
        self.target_label = check_attacks(setup, self.scripts)
        self.outcomes = {
            label: threat.AttackOutcome(label=label, kind=script.kind)
            for label, script in self.scripts
        }

        # divergence episode per target, added on first use:
        # [dirty_since, episode_detected]
        self.state: dict = {}

        self.breakdown = {
            "vmexit": 0, "vmentry": 0, "map_page": 0, "hash": 0, "interrupt_delivery": 0,
        }
        self.counts = {
            "syscalls": 0, "ctxswitches": 0, "firings": 0, "vmexits": 0,
            "objects_checked": 0, "traps": 0,
        }
        self.tallies = {op: _Tally() for op, _ in _SOURCES}
        self.detections: list[DetectionRecord] = []

        self.queue = EventQueue()
        self._schedule_workload()
        self._schedule_firings()
        self._schedule_attacks()

    # -- setup ----------------------------------------------------------

    def _schedule_workload(self) -> None:
        # one stream per source, each with its own random substream; the
        # syscall stream is added first, so it wins every tie between them
        workload = self.workload
        for (op, _), rate in zip(_SOURCES, (workload.syscall_rate, workload.ctxswitch_rate)):
            rng = random.Random(f"workload-{op}:{self.seed}")
            self.queue.add_stream(
                _arrival_times(rate, self.horizon, workload.arrival, rng),
                EventKind.WORKLOAD, (op, self.tallies[op]),
            )

    def _schedule_firings(self) -> None:
        if self.schedule is None:
            return
        self._firing_times = self.schedule.firing_times(self.horizon, salt=self.seed)
        for t in self._firing_times:
            self.queue.push(t, EventKind.DEVICE_FIRING, ("firing",))

    def _schedule_attacks(self) -> None:
        for label, script in self.scripts:
            if isinstance(script, threat.PersistentTamper):
                obj = self.machine.objects[script.object_index]
                orig = self.machine.read(obj.addr + script.offset, 1)[0]
                data = bytes([orig ^ script.xor_mask])
                self.queue.push(script.at, EventKind.ATTACK,
                                (_ACT_WRITE, label, obj.addr + script.offset, data))
            elif isinstance(script, threat.TransientTamper):
                obj = self.machine.objects[script.object_index]
                addr = obj.addr + script.offset
                orig = self.machine.read(addr, 1)[0]
                dirty = bytes([orig ^ script.xor_mask])
                clean = bytes([orig])
                windows = script.windows
                # the attacker learns firing times only from a guest-visible device
                if (script.knowledge is threat.ScheduleKnowledge.GUEST_VISIBLE_ONLY
                        and self.schedule is not None and self.schedule.guest_visible_times):
                    windows = threat.clip_windows(windows, self._firing_times,
                                                  EVASION_GUARD_TICKS)
                for start, end in windows:
                    self.queue.push(start, EventKind.ATTACK, (_ACT_WRITE, label, addr, dirty))
                    self.queue.push(end, EventKind.ATTACK, (_ACT_RESTORE, label, addr, clean))
            elif isinstance(script, threat.CodeTamper):
                addr = self.machine.module.addr + script.offset
                self.queue.push(script.at, EventKind.ATTACK,
                                (_ACT_MODULE, label, addr, script.payload))
            elif isinstance(script, threat.IdtTamper):
                self.queue.push(script.at, EventKind.ATTACK,
                                (_ACT_IDT, label, script.vector, script.new_handler))
            elif isinstance(script, threat.IdtrTamper):
                self.queue.push(script.at, EventKind.ATTACK,
                                (_ACT_IDTR, label, script.new_base, script.new_limit))
            else:
                raise ConfigurationError(f"unknown attack script {script!r}")

    # -- event dispatch --------------------------------------------------

    def run(self) -> ScenarioResult:
        drain = self._drain_vmexits if self.strategy.kind == STRATEGY_HRK else self._drain_arrivals
        handlers = {EventKind.DEVICE_FIRING: self._on_firing, EventKind.ATTACK: self._on_attack}
        pop, horizon = self.queue.pop, self.horizon
        while True:
            event = pop()
            if event is None or event[0] > horizon:
                drain(None)
                return self._finish()
            drain(event)
            time, kind, _, payload = event
            handlers[kind](time, payload)

    def _emit(self, entry: dict) -> None:
        if self.trace is not None:
            self.trace(entry)

    def _drain_arrivals(self, before: Optional[tuple]) -> None:
        """Count the workload arrivals that come before the one-off event `before`."""
        trace = self.trace
        for now, _, _, (op, tally) in self.queue.drain(before):
            tally.events += 1
            if trace is not None:
                trace({"t": now, "kind": op})

    def _drain_vmexits(self, before: Optional[tuple]) -> None:
        """Run the VMExits of the workload arrivals that come before `before` (hrk).

        Each arrival's control-register write exits to a check of the next
        min(k, n) objects. Only attacks write, so the diverged ids and the
        IDTR stand still within a drain. A window [cursor, stop) that holds
        no diverged id, and completes no cycle while the IDTR is moved,
        finds nothing: it only maps its pages and moves the cursor.
        `on_control_register_write` checks every other window.
        """
        machine, table, trace = self.machine, self.table, self.trace
        n = len(table)
        k = min(self.strategy.batch_k, n)
        object_pages = machine.object_pages
        idtr_clean = (machine.idtr.base, machine.idtr.limit) == table.idtr_baseline
        cursor = table.cursor
        dirty_at = self._dirty_at(cursor)
        for now, _, _, (op, tally) in self.queue.drain(before):
            tally.events += 1
            if trace is not None:
                trace({"t": now, "kind": op})
            stop = cursor + k
            if stop <= dirty_at and (stop < n or idtr_clean):
                tally.pages_mapped += object_pages(cursor, stop)
                violations = ()
                if stop < n:
                    cursor = stop
                else:  # a cycle completes: unrolled ids move back by one cycle
                    cursor, dirty_at = stop - n, dirty_at - n
            else:
                table.cursor = cursor
                report = on_control_register_write(machine, table, self.costs, k, now=now)
                tally.pages_mapped += report.pages_mapped
                violations = report.violations
                cursor = table.cursor
                dirty_at = self._dirty_at(cursor)
            if trace is not None:  # targets checked: the IDTR rides along on a completed cycle
                trace({"t": now, "kind": "vmexit_check", "checked": k + (stop >= n),
                       "violations": len(violations)})
            if violations:
                self._process_violations(violations, via="hrk_vmexit")
        table.cursor = cursor

    def _dirty_at(self, cursor: int) -> Union[int, float]:
        """The first diverged id at or past `cursor`, unrolled across the wrap."""
        diverged = self.table.fold(self.machine)
        i = bisect_left(diverged, cursor)
        if i < len(diverged):
            return diverged[i]
        return diverged[0] + len(self.table) if diverged else math.inf

    def _on_firing(self, now: Ticks, payload: tuple) -> None:
        self.counts["firings"] += 1
        self._emit({"t": now, "kind": "firing_start"})
        report = fire_interrupt(
            self.machine, self.registry, self.table, self.costs, now=now, trace=self.trace
        )
        self.breakdown["interrupt_delivery"] += self.costs.t_interrupt_delivery
        self.breakdown["hash"] += report.duration
        self.counts["objects_checked"] += report.objects_checked
        self._emit({
            "t": now, "kind": "firing_end",
            # targets checked: every sweep that runs also checks the IDTR
            "checked": report.objects_checked + (not report.subverted),
            "violations": len(report.violations),
            "subverted": report.subverted,
        })
        self._process_violations(report.violations, via="hf_interrupt")

    def _on_attack(self, now: Ticks, payload: tuple) -> None:
        action, label = payload[0], payload[1]
        outcome = self.outcomes[label]
        if action in (_ACT_WRITE, _ACT_RESTORE, _ACT_MODULE):
            addr, data = payload[2], payload[3]
            result = self.machine.guest_write(self.registry, addr, data, now=now)
            self._account_write(outcome, result, now)
            if result.applied:
                for oid in self.machine.objects_overlapping(addr, len(data)):
                    self._refresh_object_state(oid, now)
        elif action == _ACT_IDT:
            vector, handler = payload[2], payload[3]
            if vector < self.machine.idtr.vector_count:  # else a moved IDT has no such entry
                result = self.machine.set_idt_entry(vector, handler, self.registry, now=now)
                self._account_write(outcome, result, now)
        elif action == _ACT_IDTR:
            base, limit = payload[2], payload[3]
            if limit is None:
                limit = self.machine.idtr.limit
            self.machine.set_idtr(base, limit)
            outcome.attempted += 1
            outcome.applied += 1
            self._refresh_idtr_state(now)
        self._emit({"t": now, "kind": "attack", "label": label, "action": action})

    def _account_write(self, outcome, result, now: Ticks) -> None:
        outcome.attempted += 1
        if result.applied:
            outcome.applied += 1
        else:
            outcome.trapped += 1
            outcome.note_detection(now)
            self._emit({"t": now, "kind": "trap", "trap": result.trap.to_json_dict()})

    def _refresh_object_state(self, oid: int, now: Ticks) -> None:
        clean = self.table.current_digest(self.machine, oid) == self.table.entries[oid]
        self._refresh_state(oid, clean, now)

    def _refresh_idtr_state(self, now: Ticks) -> None:
        clean = (self.machine.idtr.base, self.machine.idtr.limit) == self.table.idtr_baseline
        self._refresh_state(IDTR_TARGET, clean, now)

    def _refresh_state(self, target, clean: bool, now: Ticks) -> None:
        st = self.state.setdefault(target, [None, False])
        if clean:
            st[0] = None
            st[1] = False
            return
        if st[0] is None:
            st[0] = now
            st[1] = False
        label = self.target_label.get(target)
        if label is not None:
            self.outcomes[label].was_dirty = True

    def _process_violations(self, violations, via: str) -> None:
        for violation in violations:
            target = violation.target
            st = self.state.setdefault(target, [None, False])
            if st[1]:
                continue  # this divergence episode was already reported
            st[1] = True
            tamper_time = st[0]
            if target == HANDLER_TARGET and tamper_time is None:
                # handler subversion traces back to the IDTR move, if any
                tamper_time = self.state.get(IDTR_TARGET, (None,))[0]
            record = DetectionRecord(
                target=target, tamper_time=tamper_time,
                detected_time=violation.time, via=via,
            )
            self.detections.append(record)
            self._emit({"t": violation.time, "kind": "detection", **record.to_json_dict()})
            label = self.target_label.get(target)
            if label is None and target == HANDLER_TARGET:
                label = self.target_label.get(IDTR_TARGET)
            if label is not None:
                self.outcomes[label].note_detection(violation.time)

    # -- result assembly --------------------------------------------------

    def _finish(self) -> ScenarioResult:
        for outcome in self.outcomes.values():
            outcome.finalize()
        costs, counts, breakdown = self.costs, self.counts, self.breakdown
        counts["traps"] = len(self.registry.trap_log)
        hrk = self.strategy.kind == STRATEGY_HRK
        # every hrk VMExit checks min(k, n) objects of the layout's one length
        batch = min(self.strategy.batch_k, len(self.table))
        batch_hash = batch * self.machine.objects.length * costs.t_hash_per_byte
        base, per_event_added = {}, {}
        for (op, count_key), base_cost in zip(
            _SOURCES, (costs.t_syscall_base, costs.t_ctxswitch_base)
        ):
            tally = self.tallies[op]
            exits = tally.events if hrk else 0
            map_ticks = tally.pages_mapped * costs.t_map_page
            hash_ticks = exits * batch_hash
            counts[count_key] = tally.events
            counts["vmexits"] += exits
            counts["objects_checked"] += exits * batch
            breakdown["map_page"] += map_ticks
            breakdown["hash"] += hash_ticks
            base[op] = tally.events * base_cost
            added = exits * (costs.t_vmexit + costs.t_vmentry) + map_ticks + hash_ticks
            per_event_added[op] = added / tally.events if tally.events else 0.0
        breakdown["vmexit"] = counts["vmexits"] * costs.t_vmexit
        breakdown["vmentry"] = counts["vmexits"] * costs.t_vmentry
        echo = {name: asdict(spec, dict_factory=_echo_dict) for name, spec in (
            ("machine", self.setup.machine), ("objects", self.setup.objects),
            ("workload", self.workload), ("strategy", self.strategy))}
        echo["seed"] = self.seed
        return ScenarioResult(
            seed=self.seed,
            strategy_kind=self.strategy.kind,
            horizon=self.horizon,
            total_ticks=self.horizon + sum(breakdown.values()),
            cost_breakdown=breakdown,
            workload_base=base,
            counts=counts,
            per_event_added=per_event_added,
            detections=self.detections,
            trap_records=list(self.registry.trap_log),
            attack_outcomes=[self.outcomes[label] for label, _ in self.scripts],
            config_echo=echo,
        )


def _echo_dict(items) -> dict:
    """A spec's fields as JSON values: an enum member becomes its value."""
    return {key: value.value if isinstance(value, enum.Enum) else value
            for key, value in items}


def run_scenario(
    setup: SetupSpec,
    strategy: StrategyConfig,
    workload: WorkloadSpec,
    attacks: Sequence = (),
    costs: CostModel = CostModel(),
    seed: int = 0,
    trace: Optional[Callable[[dict], None]] = None,
) -> ScenarioResult:
    """Execute one deterministic run and return its full result."""
    return _ScenarioRun(setup, strategy, workload, attacks, costs, seed, trace).run()
