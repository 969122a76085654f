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

Every one-off event (a device firing or an attack action) is known at
set-up, so the run holds them in one list, sorted once. The attack
actions come from an `AttackPlan`, which checks a setup's attacks and
resolves what the layout fixes once for every run that shares it: each
write's address, its bytes and the ids of the objects it overlaps, a
sweep's tampers in place. A run copies only the outcomes and the
{target: label} map it changes, and clips an evader's windows against its
own firings. Each workload source draws its
arrivals a bounded chunk at a time, so memory does not grow with the
event count. Poisson arrivals stay the float seconds they were drawn as,
and one is rounded to its tick only where the engine reads a tick.

The engine walks the event list. Before each event it takes the
workload arrivals due before that event, by one rule per run:
- Under hrk every arrival is a VMExit. An untraced hrk run whose windows
  all map one page count only counts a stretch of arrivals whose windows
  cannot find a violation.
- Every other stretch of an hrk run, and every stretch of a traced run,
  goes exit by exit in dispatch order. Each arrival is traced and, under
  hrk, its window runs its check, unless the run is untraced and the
  window cannot find a violation: then it is only costed from the layout.
- An untraced baseline or hf run reads its arrivals only as counts, and
  so does an untraced hrk run whose windows all map one page count when
  no attack acts by the horizon: every window is clean. Such a run takes
  none inside the loop and counts them all at the end.

Every run that draws records each source's arrival count in a memo keyed
weakly by its `WorkloadSpec`, under the name its substream is seeded
with. A later run that reads only counts takes both from there and draws
nothing, since a seed's streams are the same under every strategy. An
entry lives as long as its spec: the runs of one parsed config share it,
and no drawn arrival is kept.

Charges that are the same for every event are derived from counts when
the run finishes. Each check skips the targets whose current divergence
episode is already reported, so it builds violations only for new
episodes, and an untraced run builds no trace entry.

Determinism: identical (setup, strategy, workload, attacks, costs, seed)
inputs replay to a byte-identical serialized result. All randomness flows
from named substreams of the run seed.
"""

from __future__ import annotations

import enum
import itertools
import math
import random
import types
import weakref
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

from . import threat
from .errors import (
    ConfigFileError, ConfigurationError, byte, check_bounds, nonneg, one_of, positive, spec,
)
from .guest import IDT_ENTRY_SIZE, GuestMachine, ObjectLayout, page_size_problem
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
    """Tie-break priority for simultaneous events (lower fires first).

    Only firings and attack actions are listed; the drains take workload
    arrivals strictly before an event's tick, so they come last.
    """

    DEVICE_FIRING = 1
    ATTACK = 2
    WORKLOAD = 3


# a run's events are (time, kind, payload), sorted by this key; the sort is
# stable, so events at one tick of one kind keep the order they were listed in
EVENT_ORDER = itemgetter(0, 1)


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
    """Concrete placement; object i sits at `objects.addr(i)`."""

    idt_base: int
    idt_limit: int
    module_addr: int
    objects: ObjectLayout
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
    objects = ObjectLayout(first_obj_page * ps, stride, objs.size_bytes, objs.count)
    return Layout(ps, idt_limit, module_page * ps, objects, first_obj_page + obj_pages)


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
    """Validate labelled attack scripts or specs against a setup before t=0.

    Object tampers must name a registered object and XOR a byte inside
    it; code tampers must write only bytes inside guest memory; IDT
    tampers must name a vector inside the IDT, and IDTR tampers a table
    inside guest memory; no two scripts may target the same object or
    the IDTR, since a detection could not then be attributed. A sweep is
    checked in place, tamper by tamper under its `expand_attacks` label:
    each tamper's index, offset and mask are valid by construction, so
    only its target can collide. Returns {target: label} for the object
    and IDTR tampers. Raises ConfigFileError with one problem per
    offending script, keyed by its label, in script order.
    """
    memory = setup.machine.page_count * setup.machine.page_size
    layout = _layout(setup)
    targets: dict = {}
    problems = []

    def claim(target, label: str) -> None:
        if target in targets:
            problems.append((f"attack {label}",
                             f"targets the same object as attack {targets[target]!r}"))
        else:
            targets[target] = label

    for label, script in scripts:
        key = f"attack {label}"
        if isinstance(script, threat.SweepSpec):
            for i, target in enumerate(script.targets(setup.objects.count)):
                claim(target, f"{label}[{i:03d}]")
            continue
        if isinstance(script, (threat.PersistentTamper, threat.TransientTamper)):
            target = script.object_index
            if not 0 <= target < setup.objects.count:
                problems.append((f"{key}.object_index", f"object index {target} "
                                 f"outside [0, {setup.objects.count})"))
                continue
            if problem := byte(script.xor_mask):
                problems.append((f"{key}.xor_mask", problem))
                continue
            if script.offset >= setup.objects.size_bytes:  # a planned object lies in memory
                problems.append((f"{key}.offset", f"byte {script.offset} outside the object "
                                 f"of {setup.objects.size_bytes} bytes"))
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
        claim(target, label)
    if problems:
        raise ConfigFileError(problems)
    return targets


@dataclass(slots=True)
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


# the most arrivals a source draws at a time
ARRIVAL_CHUNK = 1024

_PER_SECOND = float(TICKS_PER_SECOND)


def _poisson_tick(t_s: float) -> Ticks:
    """The tick of a Poisson arrival that the draws put at `t_s` seconds."""
    return round(t_s * _PER_SECOND)


def _arrival_chunks(
    rate: float, horizon: Ticks, arrival: Arrival, rng: random.Random
) -> Iterator[list]:
    """Arrivals in (0, horizon], nondecreasing, a list at a time.

    Fixed arrivals are int ticks. Poisson arrivals are the float seconds
    their gaps sum to, and `_poisson_tick` maps one to its tick; the
    engine rounds one only where it reads a tick. No list ends inside a
    run of arrivals at one tick, so every arrival up to a list's last tick
    is in that list or an earlier one. A list is the run at one tick the
    last draw ended with, then fewer than ARRIVAL_CHUNK more. Each draw is
    sized from the arrivals expected before the horizon, so a short run
    draws little more than it uses.

    Fixed arrivals fall at round(n * TICKS_PER_SECOND / rate), computed
    exactly on the rate's value and rounded half to even as round() does.
    Poisson gaps are rng.expovariate(rate) as CPython computes it,
    -log(1 - random()) / rate, so the sums are the same floats.
    """
    if rate <= 0:
        return
    if arrival is Arrival.FIXED:
        tick = int
        ratio = Fraction(rate)
        # the n-th arrival is at (n * step) / divisor ticks; with x = 2*n*step
        # + divisor, half up is x // (2*divisor), and an exact tie onto an
        # odd tick (x % (4*divisor) == 2*divisor) comes one tick down
        step, divisor = TICKS_PER_SECOND * ratio.denominator, ratio.numerator
        drawn = 0

        def draw(m: int) -> list[Ticks]:
            nonlocal drawn
            doubled = range((2 * drawn + 2) * step + divisor,
                            (2 * (drawn + m) + 2) * step + divisor, 2 * step)
            drawn += m
            return [x // (2 * divisor) - (x % (4 * divisor) == 2 * divisor) for x in doubled]
    else:
        tick = _poisson_tick
        log, uniform = math.log, rng.random
        neg_rate = -float(rate)
        t_s = 0.0

        def draw(m: int) -> list[float]:
            # log(u) / -rate is -log(u) / rate: float division is sign-symmetric
            nonlocal t_s
            gaps = [log(1.0 - uniform()) / neg_rate for _ in range(m)]
            gaps[0] += t_s  # the running sum plus the first gap, then each gap in turn
            times = list(itertools.accumulate(gaps))
            t_s = times[-1]
            return times

    pending: list = []  # the run at one tick the last draw ended with
    last = 0
    while True:
        expected = rate * (horizon - last) / TICKS_PER_SECOND
        times = draw(int(min(ARRIVAL_CHUNK - 16, expected)) + 16)
        last = tick(times[-1])
        if last > horizon:
            times = pending + times[:bisect_right(times, horizon, key=tick)]
            if times:
                yield times
            return
        run_start = bisect_left(times, last, key=tick)
        if run_start:
            yield pending + times[:run_start]
            pending = times[run_start:]
        elif pending and tick(pending[0]) == last:
            pending += times
        else:
            if pending:
                yield pending
            pending = times


_CODE_PERIOD = bytes(map((0xFF).__and__, range(13, 13 + 7 * 256, 7)))  # (7i + 13) mod 256


def _module_code(page_size: int) -> bytes:
    """The module's bytes: byte i is (7i + 13) mod 256, which repeats every 256 bytes."""
    return (_CODE_PERIOD * -(-page_size // 256))[:page_size]


# attack action opcodes on the event timeline
_ACT_WRITE = "write"          # object byte write (persistent or dirty-begin)
_ACT_RESTORE = "restore"      # transient restore to baseline byte
_ACT_MODULE = "module_write"
_ACT_IDT = "idt_write"
_ACT_IDTR = "idtr_set"


def _guest(setup: SetupSpec, layout: Layout) -> GuestMachine:
    """A guest as every run starts it: the IDT, the module on its vector, the objects."""
    machine = GuestMachine(setup.machine.page_count, setup.machine.page_size)
    machine.set_idtr(layout.idt_base, layout.idt_limit)
    machine.load_module(_module_code(setup.machine.page_size), layout.module_addr, HANDLER_VECTOR)
    objects = layout.objects
    machine.register_kernel_object(
        objects.base, objects.length, count=objects.count, stride=objects.stride)
    return machine


def _window_events(windows, dirty: tuple, clean: tuple) -> list:
    """A transient tamper's actions: its dirty write at each window's start, its restore at the end."""
    return [(t, EventKind.ATTACK, payload)
            for start, end in windows for t, payload in ((start, dirty), (end, clean))]


@dataclass(frozen=True, eq=False)
class AttackPlan:
    """A config's attacks against its setup, checked and resolved once for all its runs.

    `labels` is each script's (label, kind) in script order; a sweep's
    tampers are `<label>[<i:03d>]`, of kind persistent. `target_label` is
    `check_attacks`' {target: label}. `events` is every attack action as
    (time, ATTACK, payload) in script order. A write's payload is (action,
    label, address, bytes, the ids of the objects the bytes overlap), all
    fixed by the layout. A transient tamper whose attacker can read a
    guest-visible schedule is also in `evasive`, as (start, stop, windows,
    dirty, clean): a run under such a schedule puts its windows, clipped
    against the run's firings, in place of `events[start:stop]`. A run
    copies what it changes, so one plan serves every run of its setup.
    """

    setup: SetupSpec
    layout: Layout
    labels: tuple
    target_label: Mapping
    events: tuple
    evasive: tuple


def plan_attacks(setup: SetupSpec, specs: Sequence) -> AttackPlan:
    """Check labelled attack specs against a setup and resolve each of their actions.

    Raises ConfigFileError as `plan_layout` and `check_attacks` do, and
    ConfigurationError for a spec of no attack kind. Each write's bytes are
    read from a guest set up as a run's guest is. A sweep is resolved in
    place, tamper by tamper, as `threat.expand_attacks` spells it out.
    """
    layout = plan_layout(setup)
    target_label = check_attacks(setup, specs)
    machine = _guest(setup, layout) if specs else None
    labels, events, evasive = [], [], []
    swept = threat.PersistentTamper  # a sweep's tampers take its default offset and mask

    def dirty(label: str, index: int, offset: int, mask: int) -> tuple:
        addr = layout.objects.addr(index) + offset
        data = bytes((machine.read(addr, 1)[0] ^ mask,))
        return (_ACT_WRITE, label, addr, data, machine.objects_overlapping(addr, 1))

    for label, spec in specs:
        if isinstance(spec, threat.SweepSpec):
            for i, target in enumerate(spec.targets(setup.objects.count)):
                tamper = f"{label}[{i:03d}]"
                labels.append((tamper, swept.kind))
                events.append((spec.start + i * spec.step, EventKind.ATTACK,
                               dirty(tamper, target, swept.offset, swept.xor_mask)))
            continue
        if isinstance(spec, threat.PersistentTamper):
            events.append((spec.at, EventKind.ATTACK,
                           dirty(label, spec.object_index, spec.offset, spec.xor_mask)))
        elif isinstance(spec, threat.TransientTamper):
            write = dirty(label, spec.object_index, spec.offset, spec.xor_mask)
            _, _, addr, _, oids = write
            restore = (_ACT_RESTORE, label, addr, machine.read(addr, 1), oids)
            if spec.knowledge is threat.ScheduleKnowledge.GUEST_VISIBLE_ONLY:
                evasive.append((len(events), len(events) + 2 * len(spec.windows),
                                spec.windows, write, restore))
            events += _window_events(spec.windows, write, restore)
        elif isinstance(spec, threat.CodeTamper):
            addr = machine.module.addr + spec.offset
            events.append((spec.at, EventKind.ATTACK, (
                _ACT_MODULE, label, addr, spec.payload,
                machine.objects_overlapping(addr, len(spec.payload)))))
        elif isinstance(spec, threat.IdtTamper):
            events.append((spec.at, EventKind.ATTACK,
                           (_ACT_IDT, label, spec.vector, spec.new_handler)))
        elif isinstance(spec, threat.IdtrTamper):
            events.append((spec.at, EventKind.ATTACK,
                           (_ACT_IDTR, label, spec.new_base, spec.new_limit)))
        else:
            raise ConfigurationError(f"unknown attack script {spec!r}")
        labels.append((label, spec.kind))
    return AttackPlan(setup, layout, tuple(labels), types.MappingProxyType(target_label),
                      tuple(events), tuple(evasive))


# workload sources, as (op, count key); the syscall source comes first
_SOURCES = (("syscall", "syscalls"), ("ctxswitch", "ctxswitches"))

# {WorkloadSpec: {substream name: arrival count}}: each source's arrivals, recorded
# by every run that draws them, for later runs of the spec that read only counts; an
# entry lives as long as its spec, so the runs of one parsed config share it
_COUNTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class _Source:
    """One workload source: its arrivals, a chunk at a time, and its tally.

    `times[pos:]` are the arrivals not yet taken, as `_arrival_chunks`
    drew them: int ticks, or Poisson float seconds when `seconds` is set.
    `tick` maps one to its tick (None for int ticks) and is the key of
    every bisect of `times`. `next` is the tick of the first arrival not
    yet taken and `end` one past the chunk's last: every arrival before
    `end` is in `times`. Both are inf once the source is spent.

    `events` counts the arrivals taken: a stretch at a time or, in a run
    that reads only counts, a whole chunk at a time once the events are
    done. Under hrk, `pages_mapped` counts the pages their VMExits
    mapped. Every event of the source costs its base cost, and under hrk
    each one is a VMExit charging t_vmexit, t_vmentry and the hash time
    of min(k, n) objects of the layout's one length, so those charges
    follow from `events` alone and `_finish` derives them.

    A run builds its sources, and draws their first chunks, only once it
    knows it must draw: a run that reads only counts builds none when
    `_COUNTS` holds its spec's counts, which the first run of the spec
    and seed recorded from its sources' `events`.
    """

    __slots__ = ("times", "pos", "next", "end", "tick", "_chunks", "events", "pages_mapped")

    def __init__(self, chunks: Iterator[list], seconds: bool = False):
        self._chunks, self.tick = chunks, _poisson_tick if seconds else None
        self.events = self.pages_mapped = 0
        self._refill()

    def take(self, stop: int) -> None:
        """Take and count the arrivals before index `stop`; draw the next chunk once all are."""
        self.events += stop - self.pos
        if stop < len(self.times):
            self.pos = stop
            self.next = self.times[stop] if self.tick is None else self.tick(self.times[stop])
        else:
            self._refill()

    def ticks(self, stop: int) -> list[Ticks]:
        """The ticks of the arrivals from `pos` up to index `stop`."""
        span = self.times[self.pos:stop]
        # the rounding of `_poisson_tick`, inlined
        return span if self.tick is None else [round(t * _PER_SECOND) for t in span]

    def _refill(self) -> None:
        self.times, self.pos = next(self._chunks, ()), 0
        if not self.times:
            self.next = self.end = math.inf
        elif self.tick is None:
            self.next, self.end = self.times[0], self.times[-1] + 1
        else:
            self.next, self.end = self.tick(self.times[0]), self.tick(self.times[-1]) + 1


def _stretches(
    sources: tuple[_Source, _Source], limit: Union[Ticks, float],
) -> Iterator[tuple[int, int]]:
    """Take the arrivals before `limit` a stretch at a time, yielding each source's stop index.

    A stretch ends at the first chunk end of either source, so it holds
    every arrival of both before that end: source i's are its
    `times[pos:stop_i]`. They are taken once the consumer asks for the
    next stretch, so it counts them, or reads them through
    `_dispatch_order`, before then.
    """
    a, b = sources
    while a.next < limit or b.next < limit:
        bound = min(limit, a.end, b.end)
        a_stop = a.pos if a.next >= bound else bisect_left(a.times, bound, a.pos, key=a.tick)
        b_stop = b.pos if b.next >= bound else bisect_left(b.times, bound, b.pos, key=b.tick)
        yield a_stop, b_stop
        if a_stop > a.pos:
            a.take(a_stop)
        if b_stop > b.pos:
            b.take(b_stop)


def _dispatch_order(
    sources: tuple[_Source, _Source], stops: tuple[int, int],
) -> Iterator[tuple[Ticks, int]]:
    """(tick, source index) of each arrival of a stretch, from the stops `_stretches` yielded.

    The arrivals are merged as tagged ticks 2t + source, so a syscall
    (source 0) comes before a context switch at the same tick.
    """
    (a, b), (a_stop, b_stop) = sources, stops
    tags = [2 * t for t in a.ticks(a_stop)] + [2 * t + 1 for t in b.ticks(b_stop)]
    tags.sort()
    return map(divmod, tags, itertools.repeat(2))


class _ScenarioRun:
    def __init__(
        self,
        setup: SetupSpec,
        strategy: StrategyConfig,
        workload: WorkloadSpec,
        attacks: Union[AttackPlan, Sequence],
        costs: CostModel,
        seed: int,
        trace: Optional[Callable[[dict], None]] = None,
    ):
        if not isinstance(attacks, AttackPlan):
            attacks = plan_attacks(setup, attacks)
        elif attacks.setup != setup:
            raise ConfigurationError("the attack plan was built for another setup")
        self.setup = setup
        self.plan = plan = attacks
        self.strategy = strategy
        self.workload = workload
        self.costs = costs
        self.seed = seed
        self.trace = trace
        self.horizon = workload.horizon

        self.machine = _guest(setup, plan.layout)
        self.registry = ProtectionRegistry(setup.machine.page_count)
        self.table = snapshot_baselines(self.machine)

        # the hf device's firing schedule; None under the other strategies
        self.schedule: Optional[FiringSchedule] = None
        if strategy.kind == STRATEGY_HF:
            self.schedule = strategy.schedule
            self.registry.protect_pages(self.machine.module.page_range(setup.machine.page_size))
            self.registry.protect_pages(self.machine.idt_pages())

        # {target: label}; a code or IDT write that lands on kernel objects adds them
        self.target_label = plan.target_label.copy()
        self.outcomes = {label: threat.AttackOutcome(label, kind) for label, kind in plan.labels}

        # the tick each diverged target's current episode began, and the
        # targets whose current episode is reported; checks skip those
        self.dirty_since: dict = {}
        self.reported: set = set()

        self.breakdown = {
            "vmexit": 0, "vmentry": 0, "map_page": 0, "hash": 0, "interrupt_delivery": 0,
        }
        self.counts = {
            "syscalls": 0, "ctxswitches": 0, "firings": 0, "vmexits": 0,
            "objects_checked": 0, "traps": 0,
        }
        # the objects each hrk VMExit checks, and the pages it maps when that
        # is one count; else None
        self.batch = min(strategy.batch_k, setup.objects.count)
        self.uniform_pages = None
        if strategy.kind == STRATEGY_HRK:
            self.uniform_pages = self.machine.uniform_window_pages(self.batch)
        self.detections: list[DetectionRecord] = []

        # every event of the run, firings before attack actions at one tick
        firing_times = [] if self.schedule is None else self.schedule.firing_times(
            self.horizon, salt=self.seed)
        attacks = plan.events
        # the attacker learns firing times only from a guest-visible device
        if plan.evasive and self.schedule is not None and self.schedule.guest_visible_times:
            attacks = list(attacks)
            for start, stop, windows, dirty, clean in reversed(plan.evasive):
                clipped = threat.clip_windows(windows, firing_times, EVASION_GUARD_TICKS)
                attacks[start:stop] = _window_events(clipped, dirty, clean)
        firings = [(t, EventKind.DEVICE_FIRING, ()) for t in firing_times]
        self.events = sorted([*firings, *attacks], key=EVENT_ORDER)

    # -- event dispatch --------------------------------------------------

    def run(self) -> ScenarioResult:
        handlers = {EventKind.DEVICE_FIRING: self._on_firing, EventKind.ATTACK: self._on_attack}
        horizon, uniform, workload = self.horizon, self.uniform_pages, self.workload
        # an untraced run reads its arrivals only as counts, in `_finish`, unless
        # it is hrk and a window can map another page count or an attack acts by
        # the horizon; it takes none inside the loop and counts them after it
        counted = self.trace is None and (self.strategy.kind != STRATEGY_HRK or uniform is not None
                                          and not (self.events and self.events[0][0] <= horizon))
        names = [f"workload-{op}:{self.seed}" for op, _ in _SOURCES]
        known = _COUNTS.setdefault(workload, {})
        # one source per workload op, each with its own random substream, unless the
        # run reads only counts and an earlier run of the spec recorded them
        self.sources = () if counted and all(name in known for name in names) else tuple(
            _Source(_arrival_chunks(rate, horizon, workload.arrival, random.Random(name)),
                    workload.arrival is Arrival.POISSON)
            for name, rate in zip(names, (workload.syscall_rate, workload.ctxswitch_rate)))
        for time, kind, payload in self.events:
            if time > horizon:
                break
            if not counted:  # a firing or an attack action precedes the arrivals at its tick
                self._drain(time)
            handlers[kind](time, payload)
        if not counted:
            self._drain(math.inf)
        for source in self.sources:  # what no drain took
            while source.times:
                source.take(len(source.times))
        known.update(zip(names, (source.events for source in self.sources)))
        events = [known[name] for name in names]
        if counted:  # every window is clean, or the run is not hrk and maps none
            return self._finish(events, [n * (uniform or 0) for n in events])
        return self._finish(events, [source.pages_mapped for source in self.sources])

    def _drain(self, limit: Union[Ticks, float]) -> None:
        """Take the workload arrivals before `limit`: those of a run that reads more than counts.

        Under hrk every arrival is a VMExit. When every window maps the
        same pages, a stretch whose windows all find nothing is only
        counted: its arrivals are neither merged nor rounded to ticks.
        `_dispatch` takes every other stretch exit by exit.
        """
        sources, table, uniform = self.sources, self.table, self.uniform_pages
        syscalls, ctxswitches = sources
        if syscalls.next >= limit and ctxswitches.next >= limit:
            return
        for stops in _stretches(sources, limit):
            exits = (stops[0] - syscalls.pos, stops[1] - ctxswitches.pos)
            if uniform is None or self._clean_windows(table.cursor) < sum(exits):
                self._dispatch(stops)
                continue
            syscalls.pages_mapped += exits[0] * uniform
            ctxswitches.pages_mapped += exits[1] * uniform
            table.cursor = (table.cursor + sum(exits) * self.batch) % table.count

    def _dispatch(self, stops: tuple[int, int]) -> None:
        """Take a stretch's arrivals one by one, in dispatch order.

        Each arrival is traced. Under hrk its control-register write exits
        to a check of the next min(k, n) objects: a window that
        `_clean_windows` counts only maps its pages and moves the cursor,
        and `on_control_register_write` checks every other.
        """
        trace, sources, hrk = self.trace, self.sources, self.strategy.kind == STRATEGY_HRK
        machine, table, uniform, k = self.machine, self.table, self.uniform_pages, self.batch
        n = table.count
        cursor = table.cursor
        clean = self._clean_windows(cursor) if hrk else 0
        for now, source in _dispatch_order(sources, stops):
            if trace is not None:
                trace({"t": now, "kind": _SOURCES[source][0]})
            if not hrk:
                continue
            if clean:
                clean -= 1
                stop = cursor + k
                sources[source].pages_mapped += uniform or machine.object_pages(cursor, stop)
                cursor = stop - n if stop >= n else stop
                continue
            table.cursor = cursor
            report = on_control_register_write(machine, table, self.costs, k, now=now,
                                               skip=self.reported)
            sources[source].pages_mapped += report.pages_mapped
            if trace is not None:  # targets checked: the IDTR rides along on a completed cycle
                trace({"t": now, "kind": "vmexit_check", "checked": k + report.cycle_completed,
                       "violations": report.diverged})
            if report.violations:
                self._process_violations(report.violations, via="hrk_vmexit")
            cursor = table.cursor
            clean = self._clean_windows(cursor)
        table.cursor = cursor

    def _clean_windows(self, cursor: int) -> Union[int, float]:
        """How many hrk windows from `cursor` on find nothing; 0 under a trace, which checks each.

        Only attacks write, so the diverged ids and the IDTR stand still
        within a drain. Windows stop at cursor + k, cursor + 2k, ...: one
        finds nothing while it stops at or before the first diverged id
        at or past the cursor (unrolled across the wrap of n ids) and,
        while the IDTR is moved, before id n, where it would complete a
        cycle.
        """
        if self.trace is not None:
            return 0
        machine, table, k = self.machine, self.table, self.batch
        n = table.count
        clean = math.inf
        diverged = table.fold(machine)
        if diverged:
            i = bisect_left(diverged, cursor)
            clean = ((diverged[i] if i < len(diverged) else diverged[0] + n) - cursor) // k
        if (machine.idtr.base, machine.idtr.limit) != table.idtr_baseline:
            clean = min(clean, (n - 1 - cursor) // k)
        return clean

    def _on_firing(self, now: Ticks, payload: tuple) -> None:
        trace = self.trace
        self.counts["firings"] += 1
        if trace is not None:
            trace({"t": now, "kind": "firing_start"})
        report = fire_interrupt(self.machine, self.registry, self.table, self.costs, now=now,
                                trace=trace, skip=self.reported)
        self.breakdown["interrupt_delivery"] += self.costs.t_interrupt_delivery
        self.breakdown["hash"] += report.duration
        self.counts["objects_checked"] += report.objects_checked
        if trace is not None:  # targets checked: every sweep that runs also checks the IDTR
            trace({"t": now, "kind": "firing_end",
                   "checked": report.objects_checked + (not report.subverted),
                   "violations": report.diverged, "subverted": report.subverted})
        self._process_violations(report.violations, via="hf_interrupt")

    def _on_attack(self, now: Ticks, payload: tuple) -> None:
        action, label = payload[0], payload[1]
        outcome = self.outcomes[label]
        if action in (_ACT_WRITE, _ACT_RESTORE, _ACT_MODULE):
            addr, data, oids = payload[2:]
            result = self.machine.guest_write(self.registry, addr, data, now=now)
            self._account_write(outcome, result, now)
            if result.applied:
                for oid in oids:
                    if action == _ACT_MODULE:  # past the module page, as for an IDT write
                        self.target_label.setdefault(oid, label)
                    self._refresh_object_state(oid, now)
        elif action == _ACT_IDT:
            vector, handler = payload[2], payload[3]
            if vector < self.machine.idtr.vector_count:  # else a moved IDT has no such entry
                result = self.machine.set_idt_entry(vector, handler, self.registry, now=now)
                self._account_write(outcome, result, now)
                if result.applied:  # through a moved IDTR the entry can land on kernel objects
                    entry = self.machine.idtr.base + IDT_ENTRY_SIZE * vector
                    for oid in self.machine.objects_overlapping(entry, IDT_ENTRY_SIZE):
                        # credited to this write unless a script targets the object
                        self.target_label.setdefault(oid, label)
                        self._refresh_object_state(oid, now)
        elif action == _ACT_IDTR:
            base, limit = payload[2], payload[3]
            if limit is None:
                limit = self.machine.idtr.limit
            self.machine.set_idtr(base, limit)
            outcome.attempted += 1
            outcome.applied += 1
            self._refresh_idtr_state(now)
        if self.trace is not None:
            self.trace({"t": now, "kind": "attack", "label": label, "action": action})

    def _account_write(self, outcome, result, now: Ticks) -> None:
        outcome.attempted += 1
        if result.applied:
            outcome.applied += 1
        else:
            outcome.trapped += 1
            outcome.note_detection(now)
            if self.trace is not None:
                self.trace({"t": now, "kind": "trap", "trap": result.trap.to_json_dict()})

    def _refresh_object_state(self, oid: int, now: Ticks) -> None:
        clean = self.table.current_digest(self.machine, oid) == self.table.baseline(oid)
        self._refresh_state(oid, clean, now)

    def _refresh_idtr_state(self, now: Ticks) -> None:
        clean = (self.machine.idtr.base, self.machine.idtr.limit) == self.table.idtr_baseline
        self._refresh_state(IDTR_TARGET, clean, now)

    def _refresh_state(self, target, clean: bool, now: Ticks) -> None:
        if clean:
            self.dirty_since.pop(target, None)
            self.reported.discard(target)
            return
        # opens an episode unless one is open; a target is reported only inside one
        self.dirty_since.setdefault(target, now)
        label = self.target_label.get(target)
        if label is not None:
            self.outcomes[label].was_dirty = True

    def _process_violations(self, violations, via: str) -> None:
        for violation in violations:
            target = violation.target
            if target in self.reported:
                continue  # a check without `skip` repeats a reported episode
            self.reported.add(target)
            tamper_time = self.dirty_since.get(target)
            if target == HANDLER_TARGET and tamper_time is None:
                # handler subversion traces back to the IDTR move, if any
                tamper_time = self.dirty_since.get(IDTR_TARGET)
            record = DetectionRecord(
                target=target, tamper_time=tamper_time,
                detected_time=violation.time, via=via,
            )
            self.detections.append(record)
            if self.trace is not None:
                self.trace({"t": violation.time, "kind": "detection", **record.to_json_dict()})
            label = self.target_label.get(target)
            if label is None and target == HANDLER_TARGET:
                label = self.target_label.get(IDTR_TARGET)
            if label is not None:
                self.outcomes[label].note_detection(violation.time)

    # -- result assembly --------------------------------------------------

    def _finish(self, events: Sequence[int], pages: Sequence[int]) -> ScenarioResult:
        """The result, from each source's arrivals and the pages their VMExits mapped."""
        for outcome in self.outcomes.values():
            outcome.finalize()
        costs, counts, breakdown = self.costs, self.counts, self.breakdown
        counts["traps"] = len(self.registry.trap_log)
        hrk = self.strategy.kind == STRATEGY_HRK
        # every hrk VMExit checks min(k, n) objects of the layout's one length
        batch = self.batch
        batch_hash = batch * self.machine.objects.length * costs.t_hash_per_byte
        base, per_event_added = {}, {}
        for (op, count_key), n, pages_mapped, base_cost in zip(
            _SOURCES, events, pages, (costs.t_syscall_base, costs.t_ctxswitch_base)
        ):
            exits = n if hrk else 0
            map_ticks = pages_mapped * costs.t_map_page
            hash_ticks = exits * batch_hash
            counts[count_key] = n
            counts["vmexits"] += exits
            counts["objects_checked"] += exits * batch
            breakdown["map_page"] += map_ticks
            breakdown["hash"] += hash_ticks
            base[op] = n * base_cost
            added = exits * (costs.t_vmexit + costs.t_vmentry) + map_ticks + hash_ticks
            per_event_added[op] = added / n if n else 0.0
        breakdown["vmexit"] = counts["vmexits"] * costs.t_vmexit
        breakdown["vmentry"] = counts["vmexits"] * costs.t_vmentry
        echo = {name: _echo(spec) for name, spec in (
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
            attack_outcomes=[self.outcomes[label] for label, _ in self.plan.labels],
            config_echo=echo,
        )


def _echo(spec) -> dict:
    """A spec's fields as JSON values: an enum member becomes its value, a nested spec a dict."""
    values = ((name, getattr(spec, name)) for name in spec.__dataclass_fields__)
    return {name: value.value if isinstance(value, enum.Enum)
            else _echo(value) if hasattr(value, "__dataclass_fields__") else value
            for name, value in values}


def run_scenario(
    setup: SetupSpec,
    strategy: StrategyConfig,
    workload: WorkloadSpec,
    attacks: Union[AttackPlan, Sequence] = (),
    costs: CostModel = CostModel(),
    seed: int = 0,
    trace: Optional[Callable[[dict], None]] = None,
) -> ScenarioResult:
    """Execute one deterministic run and return its full result.

    `attacks` is the setup's `AttackPlan`, which every run of a config
    shares, or labelled attack specs, which are planned for this run alone.
    Raises ConfigurationError for a plan of another setup.
    """
    return _ScenarioRun(setup, strategy, workload, attacks, costs, seed, trace).run()
