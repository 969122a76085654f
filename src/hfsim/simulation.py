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
set-up, so the run holds them in one list, sorted once. The attack actions
come from an `AttackPlan`, which checks a setup's attacks and resolves
what the layout fixes once for every run that shares it: each write's
address, its bytes and the ids of the objects it overlaps, a sweep's
tampers in place. A run copies only the outcomes and the {target: label}
map it changes, and clips an evader's windows against its own firings. An
object tamper's one byte lies on a page no strategy protects, so the run
stores it and records that object's digest itself; code and IDT writes go
through the guest's mediated write. A run that walks its arrivals draws
each source a bounded chunk at a time and merges the two sources'
chunks as they come, so memory does not grow with the event count.
Poisson arrivals stay the float seconds they were drawn as, and one is
rounded to its tick only where a tick is read: at each draw's horizon
check and where the walk merges it.

The engine walks the arrivals once and takes each event before the first
arrival at or after its tick. Under hrk every arrival is a VMExit. A run
takes its workload arrivals by one of two rules:
- An untraced baseline or hf run reads its arrivals only as counts, and
  so does an untraced hrk run whose windows all map one page count when
  no attack acts by the horizon: every window is clean. Such a run walks
  none: it takes its events and counts each source by `_arrival_count`.
- Every other run takes them exit by exit, in dispatch order. Each
  arrival is traced and, under hrk, its window runs its check, unless
  the window cannot find a violation: then it is only costed from the
  layout, and traced as its check would be.

Every run records each source's arrival count in its plan's `counts`,
under its `WorkloadSpec` and the name its substream is seeded with. A
later run of the plan that reads only counts takes both from there and
neither counts nor draws, since a seed's streams are the same under
every strategy. Runs share counts exactly when they share a plan, as
the runs of one config do, and no drawn arrival is kept.

Every charge is derived from the run's counts by `charges` when the run
finishes. Each check skips the targets whose current divergence
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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterator, Mapping, Optional, Sequence, Union

from . import threat
from .errors import (
    ConfigFileError, ConfigurationError, check_bounds, finite, nonneg, one_of, positive, spec,
)
from .guest import APPLIED, IDT_ENTRY_SIZE, GuestMachine, ObjectLayout, page_size_problem
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

    Only firings and attack actions are listed; the walk takes a workload
    arrival after every event at or before its tick, so arrivals come last.
    """

    DEVICE_FIRING = 1
    ATTACK = 2


# a run's events are (time, kind, payload), sorted by this key; the sort is
# stable, so events at one tick of one kind keep the order they were listed in
EVENT_ORDER = itemgetter(0, 1)
_EVENT_TIME = itemgetter(0)


class Arrival(enum.Enum):
    FIXED = "fixed"
    POISSON = "poisson"


@spec(syscall_rate=finite(nonneg), ctxswitch_rate=finite(nonneg), horizon=finite(positive))
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


def _layout(setup: SetupSpec) -> tuple[Layout, list]:
    """The concrete placement for a setup, and its problems keyed by config key."""
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
    pages_required = first_obj_page + obj_pages
    problems = []
    if objs.placement == "spread" and objs.size_bytes > ps:
        problems.append(("objects.size_bytes",
                         "spread placement requires size_bytes <= page_size"))
    if setup.machine.page_count < pages_required:
        problems.append(("machine.page_count", f"machine needs >= {pages_required} "
                         f"pages for this layout, got {setup.machine.page_count}"))
    return Layout(ps, idt_limit, module_page * ps, objects, pages_required), problems


def plan_layout(setup: SetupSpec) -> Layout:
    """The concrete placement for a setup; ConfigFileError, keyed by config key, if invalid."""
    layout, problems = _layout(setup)
    if problems:
        raise ConfigFileError(problems)
    return layout


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
    """Arrivals in (0, horizon], nondecreasing, at most ARRIVAL_CHUNK a list.

    Walked runs draw here; counted ones take `_arrival_count`. Fixed
    arrivals are int ticks. Poisson arrivals are the float seconds their
    gaps sum to, and `_poisson_tick` maps one to its tick; the engine
    rounds one only where it reads a tick. Each list is one draw, cut at
    the horizon, sized from the arrivals expected before the horizon, so
    a short run draws little more than it uses.

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

    last = 0
    while True:
        expected = rate * (horizon - last) / TICKS_PER_SECOND
        times = draw(int(min(ARRIVAL_CHUNK - 16, expected)) + 16)
        last = tick(times[-1])
        if last > horizon:
            times = times[:bisect_right(times, horizon, key=tick)]
            if times:
                yield times
            return
        yield times


COUNT_BLOCK = 256  # the complements `_arrival_count` multiplies at a time


def _arrival_count(rate: float, horizon: Ticks, arrival: Arrival, name: str) -> int:
    """How many arrivals `_arrival_chunks` yields from random.Random(name), without them.

    Fixed arrival n is in while 2n * step < (2 * horizon + 1) * divisor, or
    at equality (a half tick, rounded to even) on an even horizon. Poisson:
    a block of x = 1 - random() has gaps summing to log(prod(xs)) / -rate;
    it counts whole if it ends `slack` before the edge (horizon + 0.5
    ticks), else it is halved down to the arrival that crosses the edge.
    Over n arrivals to S seconds the draw's float sum is off by
    n * 2**-53 * S, each gap (a log within E ulp, a division) by
    (E + 1) * 2**-52 of itself; a product of m values in (0, 1] at or above
    2**-1000 (never subnormal) puts m * 2**-53 on its log. Other roundings
    add no more, so `slack` is at least 16 times the total for E = 4; an
    arrival within it of the edge, or a smaller product, draws the stream.
    """
    if rate <= 0:
        return 0
    horizon = math.floor(horizon)  # arrivals fall on whole ticks
    if arrival is Arrival.FIXED:
        divisor, per = Fraction(rate).as_integer_ratio()
        n, rem = divmod((2 * horizon + 1) * divisor, 2 * TICKS_PER_SECOND * per)
        return n - (rem == 0 and horizon % 2 == 1)
    uniform, edge = random.Random(name).random, (horizon + 0.5) / TICKS_PER_SECOND
    count, t, blocks = 0, 0.0, []  # blocks: the halves still to take, the next one last
    while True:
        xs = blocks.pop() if blocks else [1.0 - uniform() for _ in range(COUNT_BLOCK)]
        p = math.prod(xs, start=1.0)
        if p < 2.0 ** -1000:  # it may have gone subnormal
            break
        end = t + math.log(p) / -rate
        slack = (4 * (count + len(xs)) + 64) * 2.0 ** -50 * (end + 1 / rate)
        if end + slack < edge:
            t, count = end, count + len(xs)
        elif len(xs) > 1:
            blocks += xs[len(xs) // 2:], xs[:len(xs) // 2]
        elif end - slack > edge:
            return count
        else:  # too near the edge to tell
            break
    return sum(map(len, _arrival_chunks(rate, horizon, arrival, random.Random(name))))


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

    `plan_attacks` builds it. `labels` is each script's (label, kind) in
    script order; a sweep's tampers are `<label>[<i:03d>]`, of kind
    persistent. `target_label` is {target: label} for the object and IDTR
    tampers. `events` is every attack action as (time, ATTACK, payload) in
    script order. A write's payload is (action,
    label, address, bytes, the ids of the objects the bytes overlap), all
    fixed by the layout. A transient tamper whose attacker can read a
    guest-visible schedule is also in `evasive`, as (start, stop, windows,
    dirty, clean): a run under such a schedule puts its windows, clipped
    against the run's firings, in place of `events[start:stop]`. A run
    copies what it changes, so one plan serves every run of its setup.

    `counts` is {(WorkloadSpec, substream name): arrival count}, written
    by each run that draws a source. A seed's streams are the same under
    every strategy, so a later run of the plan that reads only counts
    takes them from there and draws nothing; no drawn arrival is kept.
    """

    setup: SetupSpec
    layout: Layout
    labels: tuple
    target_label: Mapping
    events: tuple
    evasive: tuple
    counts: dict = field(default_factory=dict)


def plan_attacks(setup: SetupSpec, specs: Sequence) -> AttackPlan:
    """Check labelled attack specs against a setup and resolve each of their actions.

    Each spec checked its own `bounds` when built. Object tampers must XOR
    a byte inside a registered object; code tampers must write inside
    guest memory; IDT tampers must name a vector inside the IDT, and IDTR
    tampers a table inside guest memory; no two scripts may target the
    same object or the IDTR, whose detections could not be told apart. A
    sweep is checked and resolved in place, tamper by tamper under its
    `threat.expand_attacks` label. One ConfigFileError, keyed by config
    key, holds every problem: `plan_layout`'s first, then each spec's
    first problem against the setup, in script order. A spec of no
    attack kind raises ConfigurationError. Set-up writes only the IDT and
    the module page, so every object byte starts as zero: a tamper writes
    its mask and restores a zero.
    """
    layout, problems = _layout(setup)
    memory = setup.machine.page_count * setup.machine.page_size
    objects = layout.objects
    targets, labels, events, evasive = {}, [], [], []
    swept = threat.PersistentTamper  # a sweep's tampers take its default offset and mask

    def claim(target, label: str) -> None:
        if target in targets:
            problems.append((f"attack {label}",
                             f"targets the same object as attack {targets[target]!r}"))
        else:
            targets[target] = label

    def dirty(label: str, index: int, offset: int, mask: int) -> tuple:
        addr = objects.addr(index) + offset
        return (_ACT_WRITE, label, addr, bytes((mask,)), objects.overlapping(addr, addr + 1))

    for label, spec in specs:
        key = f"attack {label}"
        if isinstance(spec, threat.SweepSpec):
            for i, target in enumerate(spec.targets(setup.objects.count)):
                tamper = f"{label}[{i:03d}]"
                claim(target, tamper)
                labels.append((tamper, swept.kind))
                events.append((spec.start + i * spec.step, EventKind.ATTACK,
                               dirty(tamper, target, swept.offset, swept.xor_mask)))
            continue
        if isinstance(spec, (threat.PersistentTamper, threat.TransientTamper)):
            if spec.object_index >= objects.count:
                problems.append((f"{key}.object_index", f"object index {spec.object_index} "
                                 f"outside [0, {objects.count})"))
                continue
            if spec.offset >= objects.length:  # a planned object lies in memory
                problems.append((f"{key}.offset", f"byte {spec.offset} outside the object "
                                 f"of {objects.length} bytes"))
                continue
            claim(spec.object_index, label)
            action = dirty(label, spec.object_index, spec.offset, spec.xor_mask)
            if isinstance(spec, threat.TransientTamper):
                restore = (_ACT_RESTORE, label, action[2], bytes(1), action[4])
                if spec.knowledge is threat.ScheduleKnowledge.GUEST_VISIBLE_ONLY:
                    evasive.append((len(events), len(events) + 2 * len(spec.windows),
                                    spec.windows, action, restore))
                events += _window_events(spec.windows, action, restore)
                action = None
        elif isinstance(spec, threat.CodeTamper):
            addr = layout.module_addr + spec.offset
            end = addr + len(spec.payload)
            if end > memory:
                problems.append((f"{key}.offset",
                                 f"write [{addr}, {end}) outside memory of {memory} bytes"))
                continue
            action = (_ACT_MODULE, label, addr, spec.payload, objects.overlapping(addr, end))
        elif isinstance(spec, threat.IdtTamper):
            if spec.vector >= IDT_VECTORS:
                problems.append((f"{key}.vector", f"vector {spec.vector} outside "
                                 f"the IDT of {IDT_VECTORS} entries"))
                continue
            if problem := handler_problem(spec.new_handler):
                problems.append((f"{key}.new_handler", problem))
                continue
            action = (_ACT_IDT, label, spec.vector, spec.new_handler)
        elif isinstance(spec, threat.IdtrTamper):
            limit = layout.idt_limit if spec.new_limit is None else spec.new_limit
            if problem := idtr_limit_problem(limit):
                problems.append((f"{key}.new_limit", problem))
                continue
            if spec.new_base > memory - limit:
                problems.append((f"{key}.new_base", f"IDTR [{spec.new_base}, "
                                 f"{spec.new_base + limit}) outside memory of {memory} bytes"))
                continue
            claim(IDTR_TARGET, label)
            action = (_ACT_IDTR, label, spec.new_base, spec.new_limit)
        else:
            raise ConfigurationError(f"unknown attack script {spec!r}")
        if action is not None:  # a transient tamper's actions are listed already
            events.append((spec.at, EventKind.ATTACK, action))
        labels.append((label, spec.kind))
    if problems:
        raise ConfigFileError(problems)
    return AttackPlan(setup, layout, tuple(labels), types.MappingProxyType(targets),
                      tuple(events), tuple(evasive))


# workload sources, as (op, count key); the syscall source comes first
_SOURCES = (("syscall", "syscalls"), ("ctxswitch", "ctxswitches"))


def _tagged(chunks: Iterator[list], source: int, seconds: bool, tally: list) -> Iterator[list]:
    """Each chunk as tags 2t + `source`, Poisson `seconds` rounded inline, counted in `tally`."""
    for chunk in chunks:
        tally[source] += len(chunk)
        if seconds:
            yield [2 * round(t * _PER_SECOND) + source for t in chunk]
        else:
            yield [2 * t + source for t in chunk]


def _dispatch_order(a: Iterator[list], b: Iterator[list]) -> Iterator[int]:
    """The tags of two sources' arrivals, merged in dispatch order.

    Each source yields nondecreasing chunks of tags 2t + its index, so a
    syscall (source 0) comes before a context switch at the same tick.
    Each round yields, sorted, every held tag up to the smaller of the
    two chunks' last tags, then refills the side that ran dry: a tag
    still to come is at least that bound, and a tag of the other source
    never equals it, since the two differ in parity. Once one source is
    spent, the rest of the other follows.
    """
    x, y = next(a, None), next(b, None)
    while x and y:
        bound = min(x[-1], y[-1])
        i, j = bisect_right(x, bound), bisect_right(y, bound)
        held = x[:i] + y[:j]
        held.sort()
        yield from held
        x, y = x[i:] or next(a, None), y[j:] or next(b, None)
    rest, chunks = (x, a) if x else (y or (), b)
    yield from rest
    for chunk in chunks:
        yield from chunk


def charges(costs: CostModel, kind: str, batch: int, objects: ObjectsSpec, events: Sequence[int],
            pages: Sequence[int], firings: int, sweeps: int) -> tuple[dict, dict, dict]:
    """A run's charges from its counts: (cost_breakdown, per_event_added, counts).

    `events` and `pages` are per workload source, syscalls first: its
    arrivals and the pages their VMExits mapped. Under hrk every arrival
    is a VMExit that checks `batch` objects: a transition pair, the
    batch's hash and its pages' mapping. Every firing is a delivery, and
    each of the `sweeps` that ran (a subverted firing runs none) hashes
    every object. `counts` holds every count of the result but `traps`.
    """
    hrk = kind == STRATEGY_HRK
    object_hash = objects.size_bytes * costs.t_hash_per_byte
    per_exit = costs.t_vmexit + costs.t_vmentry + batch * object_hash if hrk else 0
    vmexits = sum(events) if hrk else 0
    checked = vmexits * batch + sweeps * objects.count
    breakdown = {"vmexit": vmexits * costs.t_vmexit, "vmentry": vmexits * costs.t_vmentry,
                 "map_page": sum(pages) * costs.t_map_page, "hash": checked * object_hash,
                 "interrupt_delivery": firings * costs.t_interrupt_delivery}
    per_event_added = {op: (n * per_exit + p * costs.t_map_page) / n if n else 0.0
                       for (op, _), n, p in zip(_SOURCES, events, pages)}
    counts = {key: n for (_, key), n in zip(_SOURCES, events)}
    counts.update(firings=firings, vmexits=vmexits, objects_checked=checked)
    return breakdown, per_event_added, counts


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
        schedule = strategy.schedule if strategy.kind == STRATEGY_HF else None
        if schedule is not None:
            self.registry.protect_pages(self.machine.module.page_range(setup.machine.page_size))
            self.registry.protect_pages(self.machine.idt_pages())

        # {target: label}; a code or IDT write that lands on kernel objects adds them
        self.target_label = plan.target_label.copy()
        self.outcomes = {label: threat.AttackOutcome(label, kind) for label, kind in plan.labels}

        # the tick each diverged target's current episode began, and the
        # targets whose current episode is reported; checks skip those
        self.dirty_since: dict = {}
        self.reported: set = set()

        self.firings = self.sweeps = 0  # `charges` prices them when the run finishes
        # the objects each hrk VMExit checks, and the pages it maps when that
        # is one count; else None
        self.batch = min(strategy.batch_k, setup.objects.count)
        self.uniform_pages = (self.machine.uniform_window_pages(self.batch)
                              if strategy.kind == STRATEGY_HRK else None)
        self.detections: list[DetectionRecord] = []

        # every event of the run, firings before attack actions at one tick
        firing_times = [] if schedule is None else schedule.firing_times(
            self.horizon, salt=self.seed)
        attacks = plan.events
        # the attacker learns firing times only from a guest-visible device
        if plan.evasive and schedule is not None and schedule.guest_visible_times:
            attacks = list(attacks)
            for start, stop, windows, dirty, clean in reversed(plan.evasive):
                clipped = threat.clip_windows(windows, firing_times, EVASION_GUARD_TICKS)
                attacks[start:stop] = _window_events(clipped, dirty, clean)
        firings = [(t, EventKind.DEVICE_FIRING, ()) for t in firing_times]
        self.events = sorted([*firings, *attacks], key=EVENT_ORDER)
        del self.events[bisect_right(self.events, self.horizon, key=_EVENT_TIME):]

    # -- event dispatch --------------------------------------------------

    def run(self) -> ScenarioResult:
        """Walk the arrivals once, each after every event at or before its tick.

        Each arrival is traced. Under hrk every arrival is a VMExit: its
        control-register write exits to a check of the next min(k, n)
        objects. Each exit maps its window's pages, traces its check and
        moves the cursor; `on_control_register_write` checks the window
        unless `_clean_windows` counts it, traced or not. An untraced run
        reads its arrivals only as counts unless it is hrk and a window can
        map another page count or an attack acts by the horizon: it walks
        none, and takes each source's count from the plan or `_arrival_count`.
        """
        horizon, uniform, workload = self.horizon, self.uniform_pages, self.workload
        trace, hrk = self.trace, self.strategy.kind == STRATEGY_HRK
        counted = trace is None and (not hrk or uniform is not None and not self.events)
        known = self.plan.counts
        keys = [(workload, f"workload-{op}:{self.seed}") for op, _ in _SOURCES]
        rates = (workload.syscall_rate, workload.ctxswitch_rate)
        if counted:  # count each source an earlier run of the plan did not record
            known.update({key: _arrival_count(rate, horizon, workload.arrival, key[1])
                          for key, rate in zip(keys, rates) if key not in known})
        arrivals, pages = [0, 0], [0, 0]  # per source: arrivals walked, pages their exits mapped
        walk = () if counted else map(divmod, _dispatch_order(*(
            _tagged(_arrival_chunks(rate, horizon, workload.arrival, random.Random(name)), i,
                    workload.arrival is Arrival.POISSON, arrivals)
            for i, ((_, name), rate) in enumerate(zip(keys, rates)))), itertools.repeat(2))
        handlers = {EventKind.DEVICE_FIRING: self._on_firing, EventKind.ATTACK: self._on_attack}
        events, machine, table, k = self.events, self.machine, self.table, self.batch
        n, cursor = table.count, table.cursor
        done, due = 0, -math.inf  # events taken; the next one's tick (-inf: count `clean` first)
        for now, source in itertools.chain(walk, ((math.inf, None),)):  # then the events left
            if now >= due:  # a firing or an attack action precedes the arrivals at its tick
                taken = bisect_right(events, now, done, key=_EVENT_TIME)
                for time, kind, payload in events[done:taken]:
                    handlers[kind](time, payload)
                if source is None:
                    break
                done, due = taken, events[taken][0] if taken < len(events) else math.inf
                clean = hrk and self._clean_windows(cursor)
            if trace is not None:
                trace({"t": now, "kind": _SOURCES[source][0]})
            if not hrk:
                continue
            stop = cursor + k
            pages[source] += uniform or machine.object_pages(cursor, stop)
            if clean:  # the window cannot find a violation: no check runs
                clean -= 1
                diverged, violations = 0, ()
            else:
                table.cursor = cursor
                report = on_control_register_write(machine, table, self.costs, k, now=now,
                                                   skip=self.reported)
                diverged, violations = report.diverged, report.violations
                clean = self._clean_windows(table.cursor)
            if trace is not None:  # targets checked: the IDTR rides along on a completed cycle
                trace({"t": now, "kind": "vmexit_check", "checked": k + (stop >= n),
                       "violations": diverged})
            if violations:
                self._process_violations(violations, via="hrk_vmexit")
            cursor = stop - n if stop >= n else stop
        table.cursor = cursor
        counts = [known[key] for key in keys] if counted else arrivals
        known.update(zip(keys, counts))  # a walked run records its draws
        if counted:  # every window is clean, or the run is not hrk and maps none
            pages = [c * (uniform or 0) for c in counts]
        return self._finish(counts, pages)

    def _clean_windows(self, cursor: int) -> Union[int, float]:
        """How many hrk windows from `cursor` on find nothing.

        Only attacks write, so the diverged ids and the IDTR stand still
        between the events. Windows stop at cursor + k, cursor + 2k, ...: one
        finds nothing while it stops at or before the first diverged id
        at or past the cursor (unrolled across the wrap of n ids) and,
        while the IDTR is moved, before id n, where it would complete a
        cycle.
        """
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
        self.firings += 1
        if trace is not None:
            trace({"t": now, "kind": "firing_start"})
        report = fire_interrupt(self.machine, self.registry, self.table, self.costs, now=now,
                                trace=trace, skip=self.reported)
        self.sweeps += not report.subverted
        if trace is not None:  # targets checked: every sweep that runs also checks the IDTR
            trace({"t": now, "kind": "firing_end",
                   "checked": 0 if report.subverted else self.table.count + 1,
                   "violations": report.diverged, "subverted": report.subverted})
        self._process_violations(report.violations, via="hf_interrupt")

    def _on_attack(self, now: Ticks, payload: tuple) -> None:
        action, label = payload[0], payload[1]
        outcome, machine, table = self.outcomes[label], self.machine, self.table
        if action in (_ACT_WRITE, _ACT_RESTORE, _ACT_MODULE):
            addr, data, oids = payload[2:]
            if action is _ACT_MODULE:
                result = machine.guest_write(self.registry, addr, data, now=now)
            else:  # one object byte, on a page no strategy protects: store it, record its digest
                machine.store_byte(addr, data[0])
                oid, objects = oids[0], machine.objects
                table.record(oid, table.digest(machine.read(objects.addr(oid), objects.length)))
                result = APPLIED
            self._account_write(outcome, result, now)
            if result.applied:
                for oid in oids:
                    if action == _ACT_MODULE:  # past the module page, as for an IDT write
                        self.target_label.setdefault(oid, label)
                    self._refresh_object_state(oid, now)
        elif action == _ACT_IDT:
            vector, handler = payload[2], payload[3]
            if vector < machine.idtr.vector_count:  # else a moved IDT has no such entry
                result = machine.set_idt_entry(vector, handler, self.registry, now=now)
                self._account_write(outcome, result, now)
                if result.applied:  # through a moved IDTR the entry can land on kernel objects
                    entry = machine.idtr.base + IDT_ENTRY_SIZE * vector
                    for oid in machine.objects_overlapping(entry, IDT_ENTRY_SIZE):
                        # credited to this write unless a script targets the object
                        self.target_label.setdefault(oid, label)
                        self._refresh_object_state(oid, now)
        elif action == _ACT_IDTR:
            base, limit = payload[2], payload[3]
            if limit is None:
                limit = machine.idtr.limit
            machine.set_idtr(base, limit)
            outcome.attempted += 1
            outcome.applied += 1
            idtr = (machine.idtr.base, machine.idtr.limit)
            self._refresh_state(IDTR_TARGET, idtr == table.idtr_baseline, now)
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
        costs = self.costs
        breakdown, per_event_added, counts = charges(
            costs, self.strategy.kind, self.batch, self.setup.objects, events, pages,
            self.firings, self.sweeps)
        counts["traps"] = len(self.registry.trap_log)
        base = {op: n * cost for (op, _), n, cost in zip(
            _SOURCES, events, (costs.t_syscall_base, costs.t_ctxswitch_base))}
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
