"""Event engine ordering, determinism, accounting, and overhead metrics."""

import dataclasses
import gc
import importlib.util
import itertools
import json
import pathlib
import random
import tracemalloc
import types
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    _arrival_times_ref, assert_conservation, bundled_config_names, event_order_ref, fnv1a64_ref,
    make_setup, run_per_event_ref,
)
from hfsim import integrity, simulation
from hfsim.cli import _load_config_text, execute_config
from hfsim.config import parse_config_text
from hfsim.errors import ConfigFileError, ConfigurationError
from hfsim.guest import ObjectLayout
from hfsim.hypervisor import FiringSchedule, ScheduleMode
from hfsim.simulation import (
    ARRIVAL_CHUNK,
    Arrival,
    CostModel,
    DetectionRecord,
    IDT_VECTORS,
    EventKind,
    StrategyConfig,
    WorkloadSpec,
    _arrival_chunks,
    _arrival_count,
    _dispatch_order,
    _poisson_tick,
    _ScenarioRun,
    charges,
    plan_attacks,
    run_scenario,
)
from hfsim.threat import (
    CodeTamper, IdtrTamper, IdtTamper, PersistentTamper, ScheduleKnowledge, SweepSpec,
    TransientTamper,
)
from hfsim.timebase import TICKS_PER_SECOND as SEC


def _workload(horizon_s=10, syscall_rate=0.0, ctx_rate=0.0, arrival=Arrival.FIXED):
    return WorkloadSpec(syscall_rate=syscall_rate, ctxswitch_rate=ctx_rate,
                        arrival=arrival, horizon=horizon_s * SEC)


def _hf(period_s=4):
    return StrategyConfig(kind="hf",
                          schedule=FiringSchedule(ScheduleMode.PERIODIC, period_s * SEC))


# ---------------------------------------------------------------------------
# event list ordering
# ---------------------------------------------------------------------------

def test_tie_break_is_kind_priority_then_insertion():
    # two attack actions and a firing at 4 s, listed attack, attack, firing
    attacks = [("a1", PersistentTamper(object_index=0, at=4 * SEC)),
               ("a2", CodeTamper(offset=0, at=4 * SEC))]
    run = _ScenarioRun(make_setup(count=2), _hf(period_s=4), _workload(horizon_s=5),
                       attacks, CostModel(), seed=0)
    order = [(t, kind, payload[1] if payload else "f1") for t, kind, payload in run.events]
    assert order == [(4 * SEC, EventKind.DEVICE_FIRING, "f1"), (4 * SEC, EventKind.ATTACK, "a1"),
                     (4 * SEC, EventKind.ATTACK, "a2")]


def test_times_pop_nondecreasing():
    # listed out of order, between and on the firings at 1, 2 and 3 s
    attacks = [(f"a{t}", PersistentTamper(object_index=t - 1, at=t * SEC // 2))
               for t in (5, 1, 3, 2, 4)]
    run = _ScenarioRun(make_setup(count=5), _hf(period_s=1), _workload(horizon_s=3),
                       attacks, CostModel(), seed=0)
    times = [t for t, _, _ in run.events]
    assert times == sorted(times) and len(times) == 3 + 5


def _cut(tags, cuts):
    """`tags` (sorted) cut before each index in `cuts`, inside a run of equal tags or not."""
    bounds = sorted({c for c in cuts if 0 < c < len(tags)})
    return [tags[lo:hi] for lo, hi in zip([0] + bounds, bounds + [len(tags)]) if lo < hi]


def _tag_chunks(source):
    """A source's tags 2t + `source`, nondecreasing, cut into chunks anywhere."""
    return st.tuples(
        st.lists(st.integers(0, 12), max_size=12).map(sorted), st.lists(st.integers(1, 11)),
    ).map(lambda drawn: _cut([2 * t + source for t in drawn[0]], drawn[1]))


@settings(max_examples=200, deadline=None)
@given(_tag_chunks(0), _tag_chunks(1))
# chunks of both sources that end inside runs of one tick
@example(syscalls=[[0, 0], [0, 4], [4]], ctxswitches=[[1], [1, 1], [5, 5]])
# an empty source
@example(syscalls=[], ctxswitches=[[1, 3], [3, 5]])
@example(syscalls=[[0], [2]], ctxswitches=[])
def test_dispatch_order_merges_chunks_cut_anywhere(syscalls, ctxswitches):
    merged = list(_dispatch_order(iter(syscalls), iter(ctxswitches)))
    assert merged == sorted(itertools.chain(*syscalls, *ctxswitches))


@pytest.mark.parametrize("rate", [0.5, 3, 100, 8000.25])
@pytest.mark.parametrize("seed", [0, 5, 1234])
def test_poisson_arrivals_are_expovariate_draws(rate, seed):
    # the inlined draw must give the very floats random.expovariate gives,
    # kept as seconds, and each one's tick must be the one it rounds to
    rng = random.Random(seed)
    seconds, t_s = [], 0.0
    for _ in range(500):
        t_s += rng.expovariate(rate)
        seconds.append(t_s)
    times = [round(t * SEC) for t in seconds]
    drawn = list(itertools.chain.from_iterable(
        _arrival_chunks(rate, times[-1], Arrival.POISSON, random.Random(seed))))
    assert drawn == seconds and [_poisson_tick(t) for t in drawn] == times
    cut = _arrival_chunks(rate, times[249], Arrival.POISSON, random.Random(seed))
    assert [_poisson_tick(t) for t in itertools.chain.from_iterable(cut)] == [
        t for t in times if t <= times[249]]


@settings(max_examples=150, deadline=None)
@given(
    rate=st.one_of(st.just(0), st.integers(1, 5000), st.floats(0.01, 5000),
                   st.floats(1.5e9, 5e9), st.sampled_from([1e9, 2e9, 56_320])),
    arrival=st.sampled_from(list(Arrival)), seed=st.integers(0, 1 << 16),
    expected=st.floats(0, 3000),  # arrivals expected before the horizon
)
# the horizon falls before the first arrival
@example(rate=0.5, arrival=Arrival.FIXED, seed=0, expected=0.9)
@example(rate=0.5, arrival=Arrival.POISSON, seed=0, expected=0.01)
# 1e13/s: thousands of arrivals at each of ticks 0 and 1, so whole draws
# land on the tick the draw before them ended on
@example(rate=1e13, arrival=Arrival.POISSON, seed=0, expected=3000)
def test_arrival_chunks_concatenate_to_the_reference_draws(rate, arrival, seed, expected):
    horizon = max(1, int(expected * SEC / rate)) if rate else SEC
    drawn = list(_arrival_chunks(rate, horizon, arrival, random.Random(seed)))
    # fixed arrivals are drawn as int ticks, Poisson ones as float seconds
    assert all(type(t) is (int if arrival is Arrival.FIXED else float)
               for t in itertools.chain.from_iterable(drawn))
    tick = int if arrival is Arrival.FIXED else _poisson_tick
    chunks = [[tick(t) for t in chunk] for chunk in drawn]
    assert list(itertools.chain.from_iterable(chunks)) == _arrival_times_ref(
        rate, horizon, arrival, random.Random(seed))
    for chunk in chunks:
        assert len(chunk) <= ARRIVAL_CHUNK


def _drawn_count(rate, horizon, arrival, name):
    return sum(map(len, _arrival_chunks(rate, horizon, arrival, random.Random(name))))


def _spied_draws(patch):
    """A list that gets the rate of each stream `_arrival_chunks` draws."""
    rates, chunks = [], simulation._arrival_chunks

    def drawn(rate, horizon, arrival, rng):
        rates.append(rate)
        return chunks(rate, horizon, arrival, rng)

    patch.setattr(simulation, "_arrival_chunks", drawn)
    return rates


@settings(max_examples=200, deadline=None)
@given(
    rate=st.one_of(st.just(0), st.integers(1, 5000), st.floats(0.01, 5000),
                   st.sampled_from([80, 2400, 1e9, 3e12, 2e9 / 3])),
    arrival=st.sampled_from(list(Arrival)),
    horizon=st.one_of(st.integers(1, 30 * SEC), st.integers(1, 100)),
    name=st.one_of(st.builds("workload-{}:{}".format, st.sampled_from(["syscall", "ctxswitch"]),
                             st.integers(0, 1 << 16)), st.text(max_size=8)),
)
# 1e9 and 3e12 Poisson arrivals/s over 1 to 3 ticks: arrivals share ticks
@example(rate=1e9, arrival=Arrival.POISSON, horizon=3, name="workload-syscall:0")
@example(rate=3e12, arrival=Arrival.POISSON, horizon=1, name="workload-ctxswitch:0")
# a float horizon, whole or not, as a direct caller may pass
@example(rate=2e9, arrival=Arrival.FIXED, horizon=4.5, name="x")
@example(rate=1e9, arrival=Arrival.POISSON, horizon=1.5, name="x")
@example(rate=80, arrival=Arrival.FIXED, horizon=float(SEC), name="x")
def test_arrival_count_equals_the_drawn_count(rate, arrival, horizon, name):
    if rate:  # at most ~5,000 arrivals expected, so the draw stays quick
        horizon = min(horizon, max(1, int(5000 * SEC / rate)))
    count = _arrival_count(rate, horizon, arrival, name)
    assert type(count) is int and count == _drawn_count(rate, horizon, arrival, name)


@pytest.mark.parametrize("rate, counts", [
    # ticks 0.5n: 0.5, 1.5 and 2.5 are ties, rounded to 0, 2 and 2
    (2e9, [2, 5, 6, 9]),
    # ticks 1.5n: 1.5 rounds up past horizon 1, 4.5 down onto horizon 4
    (Fraction(2 * SEC, 3), [0, 1, 2, 3]),
    # the float just below 2e9/3 puts arrival 3 just past 4.5 ticks
    (2e9 / 3, [0, 1, 2, 2]),
])
def test_fixed_arrival_count_rounds_half_tick_ties_to_even(rate, counts):
    for horizon, count in enumerate(counts, 1):
        assert _arrival_count(rate, horizon, Arrival.FIXED, "x") == count
        assert _drawn_count(rate, horizon, Arrival.FIXED, "x") == count


def test_poisson_arrival_count_draws_when_an_arrival_is_a_half_tick_off(monkeypatch):
    # arrival 44,972 of this stream is at 558,849,757,436.5 ticks and rounds to
    # even, onto the horizon: too close to the edge for the block products
    name, horizon = "workload-syscall:0", 558_849_757_436
    last = list(itertools.chain.from_iterable(
        _arrival_chunks(80, horizon, Arrival.POISSON, random.Random(name))))[-1]
    assert last * SEC == horizon + 0.5
    draws = _spied_draws(monkeypatch)
    assert _arrival_count(80, horizon, Arrival.POISSON, name) == 44_972
    assert draws == [80]


def test_poisson_arrival_count_draws_when_a_block_product_underflows(monkeypatch):
    # 4,096 complements multiply to about e**-4096, far below 2**-1000
    monkeypatch.setattr(simulation, "COUNT_BLOCK", 4096)
    draws = _spied_draws(monkeypatch)
    cases = [(80, 30 * SEC, "workload-syscall:0"), (2400, 20 * SEC, "workload-ctxswitch:7"),
             (1e9, 40, "x")]
    for rate, horizon, name in cases:
        assert _arrival_count(rate, horizon, Arrival.POISSON, name) == _drawn_count(
            rate, horizon, Arrival.POISSON, name)
    assert draws == [rate for rate, _, _ in cases]


def test_zero_rate_counts_no_arrival_and_seeds_no_stream(monkeypatch):
    monkeypatch.setattr(simulation, "random", None)
    assert all(_arrival_count(0, SEC, arrival, "x") == 0 for arrival in Arrival)


def test_module_code_repeats_its_256_byte_period():
    for shift in range(6, 17):
        page_size = 1 << shift
        assert simulation._module_code(page_size) == bytes(
            (7 * i + 13) & 0xFF for i in range(page_size))


def test_firing_precedes_attack_at_same_instant_in_run():
    # observable through the trace: firing_start ... firing_end, then attack
    entries = []
    run_scenario(
        make_setup(count=2), _hf(period_s=4), _workload(10),
        [("code", CodeTamper(offset=0, at=4 * SEC))],
        CostModel(), seed=1, trace=entries.append,
    )
    kinds = [e["kind"] for e in entries if e["t"] == 4 * SEC]
    assert kinds.index("firing_end") < kinds.index("attack")


def _order(workload, strategy, seed, attack_ticks=()):
    """(t, kind) of the workload, firing and attack events a run traced."""
    entries = []
    run_scenario(
        make_setup(count=4), strategy, workload,
        [(f"c{i}", CodeTamper(offset=i, at=t)) for i, t in enumerate(attack_ticks)],
        CostModel(t_hash_per_byte=1), seed=seed, trace=entries.append,
    )
    kinds = {"syscall", "ctxswitch", "firing_start", "attack"}
    return [(e["t"], e["kind"]) for e in entries if e["kind"] in kinds]


_rates = st.one_of(
    st.integers(0, 300), st.floats(0.5, 300), st.sampled_from([50, 100, 200]),
)
_FIRING_PERIOD = SEC // 4
_ORDER_STRATEGIES = {
    "baseline": StrategyConfig(kind="baseline"),
    "hrk": StrategyConfig(kind="hrk", batch_k=2),
    "hf": StrategyConfig(kind="hf",
                         schedule=FiringSchedule(ScheduleMode.PERIODIC, _FIRING_PERIOD)),
}


@settings(max_examples=150, deadline=None)
@given(
    syscall_rate=_rates, ctx_rate=_rates, arrival=st.sampled_from(list(Arrival)),
    seed=st.integers(0, 1 << 16), horizon_ms=st.integers(1, 1500),
    strategy=st.sampled_from(sorted(_ORDER_STRATEGIES)),
    attack_slots=st.lists(st.integers(1, 150), max_size=4, unique=True),
)
@example(syscall_rate=100, ctx_rate=50, arrival=Arrival.FIXED, seed=0, horizon_ms=1500,
         strategy="hf", attack_slots=[50, 100])
def test_streamed_arrivals_keep_the_pre_push_order(
    syscall_rate, ctx_rate, arrival, seed, horizon_ms, strategy, attack_slots,
):
    # attacks sit on 10 ms ticks, where fixed arrivals and firings also fall
    workload = WorkloadSpec(syscall_rate=syscall_rate, ctxswitch_rate=ctx_rate,
                            arrival=arrival, horizon=horizon_ms * SEC // 1000)
    attack_ticks = [slot * SEC // 100 for slot in attack_slots]
    firing_ticks = []
    if strategy == "hf":
        firing_ticks = range(_FIRING_PERIOD, workload.horizon + 1, _FIRING_PERIOD)
    assert _order(workload, _ORDER_STRATEGIES[strategy], seed, attack_ticks) == event_order_ref(
        workload, seed, firing_ticks, attack_ticks,
    )


def test_coinciding_fixed_arrivals_put_the_syscall_first():
    order = _order(_workload(2, syscall_rate=100, ctx_rate=50), StrategyConfig(kind="hrk"), 0)
    shared = [i for i in range(1, len(order)) if order[i][0] == order[i - 1][0]]
    assert len(shared) == 100  # every context switch shares its tick
    assert all(order[i - 1][1] == "syscall" and order[i][1] == "ctxswitch" for i in shared)


@pytest.mark.parametrize("rate, horizon, last", [
    (3, SEC, SEC),  # the last arrival falls exactly on the horizon
    (7, 2 * SEC, 2 * SEC),
    (0.3, 10 * SEC, 10 * SEC),  # the float 0.3 puts it 3.7e-7 ticks past, rounded
    (56_320, SEC // 1000, 994_318),  # the 11th arrival, 195312.5 ticks, rounds to even
], ids=["3_per_s", "7_per_s", "0.3_per_s", "half_tick"])
def test_fixed_arrivals_are_exact_fractions_of_a_second(rate, horizon, last):
    entries = []
    run_scenario(
        make_setup(count=2), StrategyConfig(kind="baseline"),
        WorkloadSpec(syscall_rate=rate, ctxswitch_rate=0, arrival=Arrival.FIXED,
                     horizon=horizon),
        trace=entries.append,
    )
    interval = Fraction(SEC) / Fraction(rate)
    expected = [round(n * interval) for n in range(1, int(horizon / interval) + 2)]
    times = [e["t"] for e in entries]
    assert times == [t for t in expected if t <= horizon]
    assert times[-1] == last


# ---------------------------------------------------------------------------
# the drained engine against the per-event loop
# ---------------------------------------------------------------------------

def _ms(ms):
    return ms * SEC // 1000


def _attack_scripts(specs, count):
    """Labelled scripts from drawn (kind, where, when) specs, one per target."""
    scripts, targets = [], set()
    for i, (kind, where, when) in enumerate(specs):
        if kind in ("persistent", "transient", "idtr"):
            target = "idtr" if kind == "idtr" else where % count
            if target in targets:
                continue
            targets.add(target)
        if kind == "persistent":
            script = PersistentTamper(object_index=where % count, at=_ms(when))
        elif kind == "transient":  # dirty from each even bound to the next
            bounds = [_ms(t) for t in sorted(when)]
            script = TransientTamper(object_index=where % count,
                                     windows=tuple(zip(bounds[::2], bounds[1::2])))
        elif kind == "idtr":
            script = IdtrTamper(new_base=where, at=_ms(when))
        else:
            script = CodeTamper(offset=where, at=_ms(when))
        scripts.append((f"a{i}", script))
    return scripts


_when = st.one_of(st.integers(0, 700), st.integers(0, 70).map(lambda t: 10 * t))
_attack_specs = st.lists(st.one_of(
    st.tuples(st.just("persistent"), st.integers(0, 11), _when),
    st.tuples(st.just("transient"), st.integers(0, 11),
              st.lists(_when, min_size=2, max_size=6, unique=True)),
    st.tuples(st.just("idtr"), st.sampled_from([0, 128]), _when),
    st.tuples(st.just("code"), st.integers(0, 63), _when),
), max_size=4)
_period = st.integers(20, 400).map(_ms)
# hrk, whose drain holds the clean-window test, is drawn half the time
_engine_strategies = st.sampled_from(["hrk", "hrk", "baseline", "hf", "hf_jittered"]).flatmap(
    lambda kind: {
        "hrk": st.builds(StrategyConfig, kind=st.just("hrk"), batch_k=st.integers(1, 10)),
        "baseline": st.just(StrategyConfig(kind="baseline")),
        "hf": st.builds(StrategyConfig, kind=st.just("hf"),
                        schedule=_period.map(
                            lambda period: FiringSchedule(ScheduleMode.PERIODIC, period))),
        "hf_jittered": st.builds(StrategyConfig, kind=st.just("hf"), schedule=st.builds(
            FiringSchedule, st.just(ScheduleMode.PERIODIC_JITTERED), _period,
            st.integers(0, 19).map(_ms), st.integers(0, 9))),
    }[kind]
)
_ENGINE_COSTS = CostModel(t_vmexit=7, t_vmentry=3, t_interrupt_delivery=11, t_map_page=100,
                          t_hash_per_byte=1, t_syscall_base=2, t_ctxswitch_base=5)


@settings(max_examples=150, deadline=None)
@given(
    placement=st.sampled_from(["spread", "packed"]), count=st.integers(1, 8),
    size=st.integers(1, 100), strategy=_engine_strategies,
    arrival=st.sampled_from(list(Arrival)),
    rates=st.tuples(st.one_of(st.integers(0, 300), st.floats(0.5, 300)), st.integers(0, 100)),
    horizon_ms=st.one_of(st.just(700), st.integers(1, 700)),  # often past every attack
    attacks=_attack_specs, seed=st.integers(0, 1 << 16),
)
# the IDTR moves, then a window with no diverged object completes a cycle
@example(placement="spread", count=3, size=8, strategy=StrategyConfig(kind="hrk", batch_k=2),
         arrival=Arrival.FIXED, rates=(100, 0), horizon_ms=200,
         attacks=[("idtr", 0, 25)], seed=0)
# a window ends the cycle exactly, short of the diverged object 0; the next holds it
@example(placement="spread", count=4, size=8, strategy=StrategyConfig(kind="hrk", batch_k=2),
         arrival=Arrival.FIXED, rates=(100, 0), horizon_ms=100,
         attacks=[("persistent", 0, 15)], seed=0)
# a wrapping window whose only diverged object lies past the wrap
@example(placement="packed", count=3, size=40, strategy=StrategyConfig(kind="hrk", batch_k=2),
         arrival=Arrival.FIXED, rates=(100, 0), horizon_ms=100,
         attacks=[("persistent", 0, 15)], seed=0)
# a transient write restored before the window that holds its object
@example(placement="spread", count=3, size=8, strategy=StrategyConfig(kind="hrk", batch_k=1),
         arrival=Arrival.FIXED, rates=(100, 0), horizon_ms=100,
         attacks=[("transient", 1, [5, 8])], seed=0)
# under hrk and under hf: a code write past the module page diverges
# object 0 again with a new digest, then the transient's restore brings it
# back to its baseline
@example(placement="spread", count=3, size=8, strategy=StrategyConfig(kind="hrk", batch_k=1),
         arrival=Arrival.FIXED, rates=(100, 0), horizon_ms=100,
         attacks=[("transient", 0, [5, 30]), ("code", 64, 15)], seed=0)
@example(placement="spread", count=3, size=8,
         strategy=StrategyConfig(kind="hf", schedule=FiringSchedule(ScheduleMode.PERIODIC,
                                                                    _ms(10))),
         arrival=Arrival.FIXED, rates=(100, 0), horizon_ms=100,
         attacks=[("transient", 0, [5, 30]), ("code", 64, 15)], seed=0)
# under hrk and under hf: a code write past the module page lands on the
# byte a transient has dirtied, in an object across two pages, before the
# transient restores it
@example(placement="packed", count=4, size=40, strategy=StrategyConfig(kind="hrk", batch_k=1),
         arrival=Arrival.FIXED, rates=(100, 0), horizon_ms=100,
         attacks=[("transient", 1, [5, 30]), ("code", 104, 15)], seed=0)
@example(placement="packed", count=4, size=40,
         strategy=StrategyConfig(kind="hf", schedule=FiringSchedule(ScheduleMode.PERIODIC,
                                                                    _ms(10))),
         arrival=Arrival.FIXED, rates=(100, 0), horizon_ms=100,
         attacks=[("transient", 1, [5, 30]), ("code", 104, 15)], seed=0)
# more arrivals than one chunk holds, from both sources
@example(placement="packed", count=5, size=30, strategy=StrategyConfig(kind="hrk", batch_k=2),
         arrival=Arrival.FIXED, rates=(3000, 1000), horizon_ms=700,
         attacks=[("persistent", 1, 300), ("transient", 3, [100, 450])], seed=0)
# equal fixed rates: every arrival is tied with one of the other source
@example(placement="packed", count=4, size=40, strategy=StrategyConfig(kind="hrk", batch_k=3),
         arrival=Arrival.FIXED, rates=(100, 100), horizon_ms=700,
         attacks=[("transient", 2, [50, 200])], seed=0)
# one source at rate 0
@example(placement="spread", count=5, size=8, strategy=StrategyConfig(kind="hrk", batch_k=2),
         arrival=Arrival.POISSON, rates=(0, 100), horizon_ms=700,
         attacks=[("persistent", 4, 120)], seed=3)
# under a moved IDTR, a clean stretch of two windows ends where the next
# would stop at n and complete the cycle
@example(placement="spread", count=6, size=8, strategy=StrategyConfig(kind="hrk", batch_k=2),
         arrival=Arrival.FIXED, rates=(100, 0), horizon_ms=100,
         attacks=[("idtr", 0, 5)], seed=0)
# the drains before the attack actions at 3, 4, 9, 21 and 32 ms hold 0, 0,
# 1, 4 (ending in a tie between the sources) and 2 arrivals of one source
@example(placement="spread", count=5, size=8, strategy=StrategyConfig(kind="hrk", batch_k=2),
         arrival=Arrival.FIXED, rates=(200, 50), horizon_ms=100,
         attacks=[("transient", 1, [3, 4, 9, 21]), ("persistent", 3, 32)], seed=0)
# drains of one tied arrival from each source, then of none
@example(placement="spread", count=5, size=8, strategy=StrategyConfig(kind="hrk", batch_k=2),
         arrival=Arrival.FIXED, rates=(100, 100), horizon_ms=100,
         attacks=[("transient", 2, [5, 15, 25, 26])], seed=0)
# untraced hrk on a layout where every window maps the same pages and no
# attack acts, so the run reads only counts: Poisson arrivals on both
# sources, more than a chunk of each
@example(placement="spread", count=6, size=8, strategy=StrategyConfig(kind="hrk", batch_k=4),
         arrival=Arrival.POISSON, rates=(2000, 900), horizon_ms=700,
         attacks=[], seed=1)
# the same run with a late tamper: the drain before it walks more than a
# chunk of clean windows exit by exit, costing each from the layout
@example(placement="spread", count=6, size=8, strategy=StrategyConfig(kind="hrk", batch_k=4),
         arrival=Arrival.POISSON, rates=(2000, 900), horizon_ms=700,
         attacks=[("persistent", 3, 650)], seed=1)
# a persistent tamper whose object then holds a dirty window inside every
# later stretch
@example(placement="spread", count=8, size=8, strategy=StrategyConfig(kind="hrk", batch_k=2),
         arrival=Arrival.FIXED, rates=(300, 100), horizon_ms=700,
         attacks=[("persistent", 5, 350)], seed=0)
# an IDTR move, then a transient window on Poisson arrivals
@example(placement="spread", count=7, size=8, strategy=StrategyConfig(kind="hrk", batch_k=3),
         arrival=Arrival.POISSON, rates=(250, 80), horizon_ms=700,
         attacks=[("idtr", 128, 200), ("transient", 2, [400, 450])], seed=2)
# the context-switch source at rate 0
@example(placement="spread", count=5, size=8, strategy=StrategyConfig(kind="hrk", batch_k=2),
         arrival=Arrival.POISSON, rates=(280, 0), horizon_ms=700,
         attacks=[("transient", 1, [100, 300])], seed=4)
# packed objects of a whole page each, with windows that wrap
@example(placement="packed", count=7, size=64, strategy=StrategyConfig(kind="hrk", batch_k=3),
         arrival=Arrival.FIXED, rates=(300, 70), horizon_ms=700,
         attacks=[("transient", 4, [120, 500])], seed=0)
# 1e9 and 2e9 Poisson arrivals/s over 3 us: draws of either source end and
# begin with arrivals that round to one tick, and a tamper lands at 1 us
@example(placement="spread", count=6, size=8, strategy=StrategyConfig(kind="hrk", batch_k=4),
         arrival=Arrival.POISSON, rates=(1e9, 2e9), horizon_ms=Fraction(3, 1000),
         attacks=[("persistent", 3, Fraction(1, 1000))], seed=8)
# 1e12 and 3e12 Poisson arrivals/s over 3 ticks: both sources' chunks end
# inside runs of arrivals at one tick, and a tamper at tick 2 makes hrk walk
@example(placement="spread", count=6, size=8, strategy=StrategyConfig(kind="hrk", batch_k=4),
         arrival=Arrival.POISSON, rates=(1e12, 3e12), horizon_ms=Fraction(3, 10**6),
         attacks=[("persistent", 3, Fraction(2, 10**6))], seed=0)
# untraced baseline and hf count their arrivals only after the last event:
# the same 3 us at 1e9 and 2e9 arrivals/s, hf firing every 1 us
@example(placement="spread", count=6, size=8, strategy=StrategyConfig(kind="baseline"),
         arrival=Arrival.POISSON, rates=(1e9, 2e9), horizon_ms=Fraction(3, 1000),
         attacks=[("persistent", 3, Fraction(1, 1000))], seed=8)
@example(placement="spread", count=6, size=8, strategy=StrategyConfig(
             kind="hf", schedule=FiringSchedule(ScheduleMode.PERIODIC, _ms(Fraction(1, 1000)))),
         arrival=Arrival.POISSON, rates=(1e9, 2e9), horizon_ms=Fraction(3, 1000),
         attacks=[("persistent", 3, Fraction(1, 1000))], seed=8)
# fixed arrivals of both sources, a firing and a tamper on the horizon tick
@example(placement="spread", count=4, size=8, strategy=StrategyConfig(kind="baseline"),
         arrival=Arrival.FIXED, rates=(100, 40), horizon_ms=100,
         attacks=[("persistent", 1, 100)], seed=0)
@example(placement="spread", count=4, size=8, strategy=StrategyConfig(
             kind="hf", schedule=FiringSchedule(ScheduleMode.PERIODIC, _ms(50))),
         arrival=Arrival.FIXED, rates=(100, 40), horizon_ms=100,
         attacks=[("persistent", 1, 100)], seed=0)
# one source at rate 0
@example(placement="spread", count=5, size=8, strategy=StrategyConfig(kind="baseline"),
         arrival=Arrival.POISSON, rates=(0, 100), horizon_ms=700,
         attacks=[("persistent", 4, 120)], seed=3)
@example(placement="spread", count=5, size=8, strategy=StrategyConfig(
             kind="hf", schedule=FiringSchedule(ScheduleMode.PERIODIC, _ms(200))),
         arrival=Arrival.POISSON, rates=(0, 100), horizon_ms=700,
         attacks=[("persistent", 4, 120)], seed=3)
def test_drained_run_matches_the_per_event_loop(placement, count, size, strategy, arrival,
                                                rates, horizon_ms, attacks, seed):
    setup = make_setup(count=count, size_bytes=min(size, 64) if placement == "spread" else size,
                       page_size=64, placement=placement)
    workload = WorkloadSpec(syscall_rate=rates[0], ctxswitch_rate=rates[1], arrival=arrival,
                            horizon=_ms(horizon_ms))
    scripts = _attack_scripts(attacks, count)
    # untraced, then traced: a traced run takes every arrival exit by exit
    for ref_trace, trace in ((None, None), ([], [])):
        expected = run_per_event_ref(setup, strategy, workload, scripts, _ENGINE_COSTS, seed,
                                     None if ref_trace is None else ref_trace.append)
        got = run_scenario(setup, strategy, workload, scripts, _ENGINE_COSTS, seed,
                           None if trace is None else trace.append)
        assert json.dumps(got.to_json_dict()) == json.dumps(expected.to_json_dict())
        assert trace == ref_trace
        assert_conservation(got, _ENGINE_COSTS)


# ---------------------------------------------------------------------------
# arrival counts shared by the runs of one workload spec
# ---------------------------------------------------------------------------

class _Named(random.Random):
    def __init__(self, name):
        super().__init__(name)
        self.name = name


def _counting_streams(patch):
    """A list that gets the substream name of each arrival stream runs draw or count."""
    names, chunks, count = [], simulation._arrival_chunks, simulation._arrival_count

    def drawn(rate, horizon, arrival, rng):
        names.append(rng.name)
        return chunks(rate, horizon, arrival, rng)

    def counted(rate, horizon, arrival, name):
        names.append(name)
        return count(rate, horizon, arrival, name)

    patch.setattr(simulation, "_arrival_chunks", drawn)
    patch.setattr(simulation, "_arrival_count", counted)
    patch.setattr(simulation, "random", types.SimpleNamespace(Random=_Named))
    return names


def _drawn(setup, strategy, workload, scripts, seed, trace=None):
    """The run as it goes when it must draw: a fresh plan, with no counts."""
    return run_scenario(setup, strategy, workload, plan_attacks(setup, scripts), _ENGINE_COSTS,
                        seed, trace)


def _reads_counts(setup, strategy, workload, scripts, seed):
    """Whether an untraced run reads its arrivals only as totals."""
    probe = _ScenarioRun(setup, strategy, workload, scripts, _ENGINE_COSTS, seed)
    return strategy.kind != "hrk" or probe.uniform_pages is not None and all(
        t > workload.horizon for t, _, _ in probe.events)


@settings(max_examples=80, deadline=None)
@given(
    placement=st.sampled_from(["spread", "packed"]), count=st.integers(1, 8),
    strategies=st.lists(_engine_strategies, min_size=1, max_size=3),
    arrival=st.sampled_from(list(Arrival)),
    rates=st.tuples(st.one_of(st.integers(0, 300), st.floats(0.5, 300)), st.integers(0, 100)),
    horizon_ms=st.one_of(st.just(700), st.integers(1, 700)),
    attacks=_attack_specs, seed=st.one_of(st.integers(0, 1 << 16), st.just(True)),
)
# Poisson arrivals, then fixed ones on the horizon tick: hf before hrk
@example(placement="spread", count=6, strategies=[
             StrategyConfig(kind="hf", schedule=FiringSchedule(ScheduleMode.PERIODIC, _ms(50))),
             StrategyConfig(kind="hrk", batch_k=4)],
         arrival=Arrival.POISSON, rates=(2000, 900), horizon_ms=700, attacks=[], seed=1)
@example(placement="spread", count=4, strategies=[
             StrategyConfig(kind="hf", schedule=FiringSchedule(ScheduleMode.PERIODIC, _ms(50))),
             StrategyConfig(kind="hrk", batch_k=2)],
         arrival=Arrival.FIXED, rates=(100, 40), horizon_ms=100, attacks=[], seed=0)
# an hrk run with an attack draws, after a baseline run that recorded
@example(placement="spread", count=4, strategies=[
             StrategyConfig(kind="baseline"), StrategyConfig(kind="hrk", batch_k=2)],
         arrival=Arrival.FIXED, rates=(100, 40), horizon_ms=100,
         attacks=[("persistent", 1, 100)], seed=0)
# one source at rate 0, in a config with no hrk strategy
@example(placement="spread", count=5, strategies=[
             StrategyConfig(kind="baseline"),
             StrategyConfig(kind="hf", schedule=FiringSchedule(ScheduleMode.PERIODIC, _ms(200)))],
         arrival=Arrival.POISSON, rates=(0, 100), horizon_ms=700,
         attacks=[("persistent", 4, 120)], seed=3)
# 1e9 and 2e9 Poisson arrivals/s over 3 us: arrivals tied on one tick
@example(placement="spread", count=6, strategies=[
             StrategyConfig(kind="hrk", batch_k=4), StrategyConfig(kind="baseline"),
             StrategyConfig(kind="hrk", batch_k=2)],
         arrival=Arrival.POISSON, rates=(1e9, 2e9), horizon_ms=Fraction(3, 1000), attacks=[],
         seed=8)
def test_a_run_that_takes_counts_equals_one_that_draws(placement, count, strategies, arrival,
                                                       rates, horizon_ms, attacks, seed):
    setup = make_setup(count=count, size_bytes=8, page_size=64, placement=placement)
    workload = WorkloadSpec(syscall_rate=rates[0], ctxswitch_rate=rates[1], arrival=arrival,
                            horizon=_ms(horizon_ms))
    scripts = _attack_scripts(attacks, count)
    names = [f"workload-{op}:{seed}" for op in ("syscall", "ctxswitch")]
    plan = plan_attacks(setup, scripts)
    with pytest.MonkeyPatch.context() as patch:
        streams = _counting_streams(patch)
        for i, strategy in enumerate(strategies):
            streams.clear()
            got = run_scenario(setup, strategy, workload, plan, _ENGINE_COSTS, seed)
            # a run draws or counts, and records, unless it reads counts a run before recorded
            takes = i > 0 and _reads_counts(setup, strategy, workload, scripts, seed)
            assert streams == ([] if takes else names)
            assert plan.counts == {(workload, name): got.counts[key]
                                   for name, key in zip(names, ("syscalls", "ctxswitches"))}
            expected = json.dumps(run_per_event_ref(setup, strategy, workload, scripts,
                                                    _ENGINE_COSTS, seed).to_json_dict())
            assert json.dumps(got.to_json_dict()) == expected
            assert json.dumps(_drawn(setup, strategy, workload, scripts, seed)
                              .to_json_dict()) == expected


def test_a_traced_run_after_an_untraced_one_draws_and_traces_the_same_bytes(monkeypatch):
    setup = make_setup(count=6, size_bytes=8, page_size=64)
    workload = _workload(2, syscall_rate=300, ctx_rate=70, arrival=Arrival.POISSON)
    strategy = StrategyConfig(kind="hrk", batch_k=2)
    alone = []
    _drawn(setup, strategy, workload, (), 5, alone.append)
    streams = _counting_streams(monkeypatch)
    plan = plan_attacks(setup, ())
    untraced = run_scenario(setup, strategy, workload, plan, _ENGINE_COSTS, 5)
    assert len(streams) == 2
    traced = []
    again = run_scenario(setup, strategy, workload, plan, _ENGINE_COSTS, 5, traced.append)
    assert len(streams) == 4  # a traced run never takes counts
    assert again == untraced
    encode = json.JSONEncoder(sort_keys=True).encode
    assert [encode(e) for e in traced] == [encode(e) for e in alone]


def test_equal_specs_share_counts_and_seeds_name_their_substreams(monkeypatch):
    setup, strategy = make_setup(count=4), StrategyConfig(kind="baseline")
    first = _workload(3, syscall_rate=40, ctx_rate=10, arrival=Arrival.POISSON)
    second = dataclasses.replace(first)
    assert second == first and second is not first
    streams = _counting_streams(monkeypatch)
    plan = plan_attacks(setup, ())
    a = run_scenario(setup, strategy, first, plan, _ENGINE_COSTS, 1)
    b = run_scenario(setup, strategy, second, plan, _ENGINE_COSTS, 1)
    assert streams == ["workload-syscall:1", "workload-ctxswitch:1"] and a == b
    # seed True is equal to seed 1, but its substreams are named for True
    c = run_scenario(setup, strategy, second, plan, _ENGINE_COSTS, True)
    assert streams[2:] == ["workload-syscall:True", "workload-ctxswitch:True"]
    monkeypatch.undo()
    for seed, result in ((1, a), (1, b), (True, c)):
        assert result == run_per_event_ref(setup, strategy, first, (), _ENGINE_COSTS, seed)
    assert (c.counts["syscalls"], c.counts["ctxswitches"]) != (
        a.counts["syscalls"], a.counts["ctxswitches"])


_SHARED = """
[machine]
page_count = 12

[objects]
count = 8
size_bytes = 64

[workload]
syscall_rate = 400
ctxswitch_rate = 100
arrival = poisson
horizon_s = 3

[strategy hrk]
kind = hrk
batch_k = 2

[strategy hf]
kind = hf
schedule = periodic
period_s = 1

[run]
repeats = 3
"""


def test_a_pass_that_hoists_one_plan_draws_once_per_seed(monkeypatch):
    # a pass as perfbench runs it: parse, plan, then every strategy x repeat; the
    # runs of a pass share its plan's counts, and a later pass, with a new plan, counts anew
    streams = _counting_streams(monkeypatch)
    config = parse_config_text(_SHARED)
    per_pass = []
    for _ in range(2):
        streams.clear()
        plan = config.expanded_attacks()
        for strategy in config.strategies.values():
            for r in range(config.repeats):
                run_scenario(config.setup(), strategy, config.workload, plan, config.costs,
                             config.seed + r)
        per_pass.append(len(streams))
        assert len(plan.counts) == len(streams)
    assert per_pass == [2 * 3, 2 * 3]  # the hrk runs count, the hf runs take their counts


# ---------------------------------------------------------------------------
# run_scenario basics
# ---------------------------------------------------------------------------

def test_baseline_strategy_has_zero_overhead():
    costs = CostModel(t_vmexit=1000, t_syscall_base=100)
    result = run_scenario(
        make_setup(count=2), StrategyConfig(kind="baseline"),
        _workload(10, syscall_rate=50, ctx_rate=10),
        [], costs, seed=4,
    )
    assert result.overhead_fraction == 0.0
    assert result.total_ticks == result.horizon
    assert result.counts["syscalls"] == 500
    assert_conservation(result, costs)


def test_empty_workload_terminates_at_horizon():
    result = run_scenario(
        make_setup(count=2), StrategyConfig(kind="baseline"), _workload(7),
        [], CostModel(), seed=0,
    )
    assert result.total_ticks == 7 * SEC
    assert result.counts["syscalls"] == 0


def test_hf_without_schedule_is_config_error_before_t0():
    with pytest.raises(ConfigurationError):
        StrategyConfig(kind="hf")


def test_unknown_strategy_kind_rejected():
    with pytest.raises(ConfigurationError):
        StrategyConfig(kind="hybrid")


def test_determinism_identical_seeds_byte_identical():
    def one():
        result = run_scenario(
            make_setup(count=6), StrategyConfig(kind="hrk", batch_k=2),
            _workload(5, syscall_rate=40, ctx_rate=7, arrival=Arrival.POISSON),
            [("t", PersistentTamper(object_index=3, at=SEC))],
            CostModel(t_vmexit=25_000, t_map_page=35_000, t_hash_per_byte=180),
            seed=42,
        )
        return json.dumps(result.to_json_dict(), sort_keys=True)

    assert one() == one()


def test_different_seed_changes_poisson_interleaving():
    def total(seed):
        return run_scenario(
            make_setup(count=2), StrategyConfig(kind="hrk", batch_k=1),
            _workload(5, syscall_rate=40, arrival=Arrival.POISSON),
            [], CostModel(t_vmexit=1000), seed=seed,
        ).counts["syscalls"]

    assert total(1) != total(2)


def test_fixed_arrivals_exact_counts():
    result = run_scenario(
        make_setup(count=2), StrategyConfig(kind="baseline"),
        _workload(6, syscall_rate=80, ctx_rate=20),
        [], CostModel(), seed=0,
    )
    assert result.counts["syscalls"] == 480
    assert result.counts["ctxswitches"] == 120


# ---------------------------------------------------------------------------
# accounting
# ---------------------------------------------------------------------------

def test_conservation_identity_exact_for_both_strategies():
    costs = CostModel(t_vmexit=25_000, t_vmentry=15_000, t_interrupt_delivery=100_000,
                      t_map_page=35_000, t_hash_per_byte=180,
                      t_syscall_base=100, t_ctxswitch_base=5_000)
    for strategy in (StrategyConfig(kind="hrk", batch_k=3), _hf(period_s=2),
                     StrategyConfig(kind="baseline")):
        result = run_scenario(
            make_setup(count=10), strategy,
            _workload(9, syscall_rate=30, ctx_rate=10, arrival=Arrival.POISSON),
            [("t", PersistentTamper(object_index=4, at=SEC))], costs, seed=11,
        )
        assert_conservation(result, costs)


def test_hrk_charges_expected_breakdown():
    costs = CostModel(t_vmexit=10, t_vmentry=20, t_map_page=1000, t_hash_per_byte=1)
    result = run_scenario(
        make_setup(count=4, size_bytes=32), StrategyConfig(kind="hrk", batch_k=2),
        _workload(1, syscall_rate=3), [], costs, seed=0,
    )
    # 3 VMExits, each: exit 10 + 2 pages * 1000 + 2*32 bytes + entry 20
    assert result.counts["vmexits"] == 3
    assert result.cost_breakdown == {
        "vmexit": 30, "vmentry": 60, "map_page": 6000, "hash": 192,
        "interrupt_delivery": 0,
    }
    assert result.total_ticks == SEC + 30 + 60 + 6000 + 192


# what one exit or one firing charges under the bundled cost model: 25 + 15 us
# of transitions, 25 pages mapped at 35 us and 25 x 64 bytes hashed at 180 ns;
# 100 us of delivery and 15,000 x 64 bytes hashed
_BUNDLED_TICKS = {"hrk": ("vmexits", 1_203_000), "hf": ("firings", 172_900_000)}


@pytest.mark.parametrize("name", bundled_config_names())
def test_every_bundled_run_is_priced_by_charges_in_closed_form(name):
    config = parse_config_text(_load_config_text(name)[0])
    objects = config.objects
    assert objects.placement == "spread"  # an exit maps one page per object of its batch
    for strategy_name, runs in execute_config(config).items():
        strategy = config.strategies[strategy_name]
        hrk = strategy.kind == "hrk"
        batch = min(strategy.batch_k, objects.count)
        assert len(runs) == config.repeats
        for result in runs:
            counts = result.counts
            events = [counts["syscalls"], counts["ctxswitches"]]
            pages = [n * batch if hrk else 0 for n in events]
            # no bundled attack moves the IDT, so every firing runs its sweep
            priced = charges(config.costs, strategy.kind, batch, objects, events, pages,
                             counts["firings"], counts["firings"])
            assert priced == (result.cost_breakdown, result.per_event_added,
                              {key: n for key, n in counts.items() if key != "traps"})
            count_key, ticks = _BUNDLED_TICKS[strategy.kind]
            assert result.total_ticks - result.horizon == counts[count_key] * ticks


def test_hf_detection_under_jitter_can_take_a_period_and_two_jitters():
    # firings fall at i*P + u_i with |u_i| <= J: the one due at 32 s comes
    # 2.987 s early and the one due at 36 s 2.956 s late, so no sweep runs
    # for P + 2J - 57 ms, and a tamper just after the first waits longer
    # than P + J + sweep
    period, jitter = 4 * SEC, 3 * SEC
    schedule = FiringSchedule(ScheduleMode.PERIODIC_JITTERED, period, jitter, seed=0)
    firings = schedule.firing_times(60 * SEC, salt=108)
    assert firings[7:9] == [29_012_605_142, 38_955_965_138]
    costs = CostModel(t_interrupt_delivery=100_000, t_hash_per_byte=180)
    setup = make_setup(count=4)
    result = run_scenario(
        setup, StrategyConfig(kind="hf", schedule=schedule), _workload(60),
        [("t", PersistentTamper(object_index=3, at=firings[7] + 1))], costs, seed=108)
    [detection] = result.detections
    sweep = setup.objects.count * setup.objects.size_bytes * costs.t_hash_per_byte
    latency = detection.detected_time - detection.tamper_time
    assert period + jitter + sweep < latency
    assert latency <= period + 2 * jitter + costs.t_interrupt_delivery + sweep
    assert_conservation(result, costs)


def _record_batch_checks(monkeypatch) -> list:
    """Patch integrity.check_batch to record the cursor of every call."""
    cursors = []
    check_batch = integrity.check_batch

    def recording(machine, table, k, **kwargs):
        cursors.append(table.cursor)
        return check_batch(machine, table, k, **kwargs)

    monkeypatch.setattr(integrity, "check_batch", recording)
    return cursors


_HRK_COSTS = CostModel(t_vmexit=10, t_vmentry=20, t_map_page=1000, t_hash_per_byte=1)


def test_clean_hrk_run_checks_no_batch(monkeypatch):
    # no object is ever written, so no window needs a check, wrapping or not
    cursors = _record_batch_checks(monkeypatch)
    result = run_scenario(
        make_setup(count=10), StrategyConfig(kind="hrk", batch_k=3),
        _workload(2, syscall_rate=20, ctx_rate=5), [], _HRK_COSTS, seed=0,
    )
    assert result.counts["vmexits"] == 50 and result.counts["objects_checked"] == 150
    assert cursors == []
    assert_conservation(result, _HRK_COSTS)


def test_batch_check_runs_once_per_exit_whose_window_holds_a_touched_object(monkeypatch):
    n, k, target = 10, 3, 4
    cursors = _record_batch_checks(monkeypatch)
    result = run_scenario(
        make_setup(count=n), StrategyConfig(kind="hrk", batch_k=k),
        _workload(2, syscall_rate=20),
        [("t", PersistentTamper(object_index=target, at=SEC))], _HRK_COSTS, seed=0,
    )
    # exit i (1-based) lands at i/20 s and checks from cursor (i-1)*k mod n;
    # the tamper at 1 s precedes exit 20, which lands at the same instant
    starts = [(i - 1) * k % n for i in range(20, 41)]
    assert cursors == [s for s in starts if (target - s) % n < k]
    assert [d.target for d in result.detections] == [target]
    assert_conservation(result, _HRK_COSTS)


def test_no_batch_check_runs_for_a_window_whose_object_was_restored(monkeypatch):
    n, k, target = 10, 3, 4
    cursors = _record_batch_checks(monkeypatch)
    result = run_scenario(
        make_setup(count=n), StrategyConfig(kind="hrk", batch_k=k),
        _workload(2, syscall_rate=20),
        [("t", TransientTamper(object_index=target, windows=((SEC, SEC * 6 // 5),)))],
        _HRK_COSTS, seed=0,
    )
    # exits 20-23 (1-1.15 s) see the dirty object; exit 22 checks from
    # cursor 3, the only one whose window holds it; the restore at 1.2 s
    # precedes exit 24, and every later window that holds it is clean
    assert cursors == [3]
    assert [d.target for d in result.detections] == [target]
    assert_conservation(result, _HRK_COSTS)


@pytest.mark.parametrize("strategy", [StrategyConfig(kind="hrk", batch_k=3), _hf(period_s=1)],
                         ids=["hrk", "hf"])
def test_a_run_digests_each_written_object_once_per_write(strategy, monkeypatch):
    digests = []
    snapshot = simulation.snapshot_baselines

    def counting_snapshot(machine, digest_fn=integrity.compute_digest):
        def counting_digest(data):
            digests.append(data)
            return digest_fn(data)

        table = snapshot(machine, digest_fn=counting_digest)
        digests.clear()  # the snapshot's own digests are setup, not the run's
        return table

    monkeypatch.setattr(simulation, "snapshot_baselines", counting_snapshot)
    result = run_scenario(
        make_setup(count=10), strategy, _workload(10, syscall_rate=20),
        [("p", PersistentTamper(object_index=4, at=SEC)),
         ("t", TransientTamper(object_index=7, windows=((2 * SEC, 3 * SEC), (5 * SEC, 6 * SEC))))],
        _HRK_COSTS, seed=0,
    )
    writes = sum(outcome.applied for outcome in result.attack_outcomes)  # one object each
    assert writes == 5
    assert 0 < len(digests) <= writes
    assert {d.target for d in result.detections} == {4, 7}


def _perfbench_workloads():
    """perfbench/workloads.py, the benchmark's seeded config generators."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("sizes", [dict(objects=2000, horizon_s=2), {}], ids=["tiny", "full"])
def test_an_hf_sweep_builds_violations_only_for_new_episodes(sizes, monkeypatch):
    # tamper_sweep's persistent tampers stay diverged across every later
    # sweep; only the sweep that first finds one builds its violation
    config = parse_config_text(_perfbench_workloads().tamper_sweep(3, **sizes))
    built = []
    violation = integrity.Violation

    def counting_violation(*args, **kwargs):
        built.append(violation(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(integrity, "Violation", counting_violation)
    result = run_scenario(config.setup(), config.strategies["hf"], config.workload,
                          config.expanded_attacks(), config.costs, config.seed)
    assert len(built) == len(result.detections) > 0
    if not sizes:
        assert len(result.detections) == 777


@settings(max_examples=40, deadline=None)
@given(placement=st.sampled_from(["spread", "packed"]), count=st.integers(1, 40),
       size=st.integers(1, 64), page_size=st.sampled_from([64, 128, 4096]),
       extra_pages=st.integers(0, 2))
def test_no_object_page_is_protected_under_hf(placement, count, size, page_size, extra_pages):
    # only the module's and the IDT's pages are protected, so an object tamper's byte
    # needs no mediated write
    setup = make_setup(count=count, size_bytes=size, page_size=page_size, placement=placement,
                       extra_pages=extra_pages)
    objects = simulation.plan_layout(setup).objects
    object_pages = range(objects.base // page_size,
                         -(-(objects.addr(count - 1) + size) // page_size))
    run = _ScenarioRun(setup, _hf(period_s=1), _workload(3), (), CostModel(), 0)
    protected = set(run.registry.protected_pages)
    assert protected and protected.isdisjoint(object_pages)
    run.run()
    assert run.firings == 3 and run.registry.protected_pages == protected


@settings(max_examples=60, deadline=None)
@given(placement=st.sampled_from(["spread", "packed"]), count=st.integers(1, 40),
       size=st.integers(1, 64), page_size=st.sampled_from([64, 128, 4096]),
       extra_pages=st.integers(0, 2), index=st.integers(0, 39), offset=st.integers(0, 400),
       mask=st.integers(1, 255))
def test_a_run_registers_and_tampers_the_planned_object_layout(
        placement, count, size, page_size, extra_pages, index, offset, mask):
    setup = make_setup(count=count, size_bytes=size, page_size=page_size, placement=placement,
                       extra_pages=extra_pages)
    objects = simulation.plan_layout(setup).objects
    # objects start on the page after the module's, which follows the IDT's from page 1
    base = (2 + -(-IDT_VECTORS * 8 // page_size)) * page_size
    assert objects == ObjectLayout(base, page_size if placement == "spread" else size, size,
                                   count)
    index %= count
    script = ("tamper", PersistentTamper(object_index=index, at=SEC, offset=offset,
                                         xor_mask=mask))
    if offset >= size:  # past its object, onto the next or a gap, whatever memory holds
        with pytest.raises(ConfigFileError) as exc_info:
            plan_attacks(setup, [script])
        assert exc_info.value.problems == [
            ("attack tamper.offset", f"byte {offset} outside the object of {size} bytes")]
        return
    addr = objects.addr(index) + offset
    memory = setup.machine.page_count * page_size
    assert plan_attacks(setup, [script]).target_label == {index: "tamper"}
    run = _ScenarioRun(setup, StrategyConfig(kind="baseline"), _workload(2), [script],
                       CostModel(), 0)
    assert run.machine.objects == objects
    before = bytearray(run.machine.read(0, memory))
    run.run()
    before[addr] ^= mask  # the tamper's one byte, and no other, changed
    assert run.machine.read(0, memory) == before


@settings(max_examples=60, deadline=None)
@given(placement=st.sampled_from(["spread", "packed"]), count=st.integers(1, 40),
       size=st.integers(1, 64), page_size=st.sampled_from([64, 128, 4096]),
       extra_pages=st.integers(0, 2), index=st.integers(0, 39), offset=st.integers(0, 63),
       mask=st.integers(0, 255), code_offset=st.integers(0, 400), code_length=st.integers(0, 80))
def test_the_plan_resolves_attack_bytes_as_a_set_up_guest_reads_them(
        placement, count, size, page_size, extra_pages, index, offset, mask, code_offset,
        code_length):
    # the plan builds no guest: every object byte starts as zero, so a
    # tamper writes its mask and restores a zero
    setup = make_setup(count=count, size_bytes=size, page_size=page_size, placement=placement,
                       extra_pages=extra_pages)
    layout = simulation.plan_layout(setup)
    guest = simulation._guest(setup, layout)
    objects = layout.objects
    assert not any(guest.read(objects.base, objects.addr(count - 1) + size - objects.base))
    index, offset = index % count, offset % size
    room = guest.size - layout.module_addr  # the module page and all past it
    code_offset %= room
    code_length = min(code_length, room - code_offset)
    payload = bytes(range(1, code_length + 1))
    plan = plan_attacks(setup, [
        ("t", TransientTamper(object_index=index, windows=((1, 2),), offset=offset,
                              xor_mask=mask)),
        ("c", CodeTamper(offset=code_offset, at=0, payload=payload))])
    addr = objects.addr(index) + offset
    code_addr = guest.module.addr + code_offset
    assert [payload for _, _, payload in plan.events] == [
        ("write", "t", addr, bytes((guest.read(addr, 1)[0] ^ mask,)),
         guest.objects_overlapping(addr, 1)),
        ("restore", "t", addr, guest.read(addr, 1), guest.objects_overlapping(addr, 1)),
        ("module_write", "c", code_addr, payload,
         guest.objects_overlapping(code_addr, code_length)),
    ]


def test_an_idt_write_through_a_moved_idtr_is_dated_and_credited_on_the_objects_it_hits():
    setup = make_setup(count=4)
    args = (setup, StrategyConfig(kind="hrk", batch_k=2), _workload(2, syscall_rate=10),
            [("idtr", IdtrTamper(new_base=simulation.plan_layout(setup).objects.base, at=SEC)),
             ("idt", IdtTamper(vector=1, new_handler=0x41, at=SEC + 1))])
    result = run_scenario(*args)
    # vector 1's entry is now bytes 8-15 of object 0, which the exit at
    # 1.1 s checks; the exit at 1 s completed the cycle and found the IDTR
    assert result.detections == [
        DetectionRecord(target="idtr", tamper_time=SEC, detected_time=SEC, via="hrk_vmexit"),
        DetectionRecord(target=0, tamper_time=SEC + 1, detected_time=SEC * 11 // 10,
                        via="hrk_vmexit"),
    ]
    assert [(o.label, o.applied, o.detected_at, o.evaded) for o in result.attack_outcomes] == [
        ("idtr", 1, SEC, False), ("idt", 1, SEC * 11 // 10, False),
    ]
    assert json.dumps(result.to_json_dict()) == json.dumps(run_per_event_ref(*args).to_json_dict())


def test_a_code_write_past_the_module_page_is_credited_on_the_objects_it_hits():
    args = (make_setup(count=4, page_size=64), StrategyConfig(kind="hrk", batch_k=2),
            _workload(3, syscall_rate=10), [("code", CodeTamper(offset=64, at=SEC))])
    result = run_scenario(*args)
    # the write's first bytes land on object 0, which the exit at 1.1 s checks
    assert result.detections == [
        DetectionRecord(target=0, tamper_time=SEC, detected_time=SEC * 11 // 10,
                        via="hrk_vmexit"),
    ]
    assert [(o.label, o.applied, o.detected_at, o.evaded) for o in result.attack_outcomes] == [
        ("code", 1, SEC * 11 // 10, False),
    ]
    assert json.dumps(result.to_json_dict()) == json.dumps(run_per_event_ref(*args).to_json_dict())


# 8 packed objects of 48 B on 64 B pages: object 1 lies across two pages, and
# its byte 20 on the second
_STRADDLING = (make_setup(count=8, size_bytes=48, page_size=64, placement="packed"),
               WorkloadSpec(syscall_rate=20, ctxswitch_rate=0, horizon=3 * SEC))
_STRADDLING_STRATEGIES = {
    "hrk": StrategyConfig(kind="hrk", batch_k=2),
    "hf": StrategyConfig(kind="hf", schedule=FiringSchedule(ScheduleMode.PERIODIC, SEC // 2)),
}


def _straddling_run(kind, scripts):
    setup, workload = _STRADDLING
    objects = simulation.plan_layout(setup).objects
    first = objects.addr(1)
    assert first // 64 != (first + 47) // 64 == (first + 20) // 64
    run = _ScenarioRun(setup, _STRADDLING_STRATEGIES[kind], workload, scripts, CostModel(), 0)
    result = run.run()
    expected = run_per_event_ref(setup, _STRADDLING_STRATEGIES[kind], workload, scripts)
    assert json.dumps(result.to_json_dict()) == json.dumps(expected.to_json_dict())
    return run, result


@pytest.mark.parametrize("kind", ["hrk", "hf"])
def test_a_restored_tamper_leaves_an_object_across_two_pages_clean(kind):
    # dirty from 0.1 s to 0.2 s, while the exits check other objects and no sweep runs
    run, result = _straddling_run(kind, [
        ("t", TransientTamper(object_index=1, windows=((SEC // 10, SEC // 5),), offset=20))])
    assert result.detections == [] and run.table.diverged == {}
    assert [(o.applied, o.evaded) for o in result.attack_outcomes] == [(2, True)]


@pytest.mark.parametrize("kind, detected, via", [
    ("hrk", SEC // 4, "hrk_vmexit"), ("hf", SEC // 2, "hf_interrupt")])
def test_a_tamper_on_an_object_across_two_pages_digests_both_pages(kind, detected, via):
    # the exit at 0.25 s checks objects 0 and 1; the first sweep runs at 0.5 s
    run, result = _straddling_run(kind, [
        ("p", PersistentTamper(object_index=1, at=SEC // 10, offset=20))])
    assert result.detections == [
        DetectionRecord(target=1, tamper_time=SEC // 10, detected_time=detected, via=via)]
    assert run.table.diverged == {1: fnv1a64_ref(bytes(20) + b"\xff" + bytes(27))}


# 64-byte pages: the module is page 9 and object i is page 10 + i, so the
# code write's 80 bytes land on objects 0 and 1, which no script targets
_PLANNED_SETUP = make_setup(count=8, page_size=64)
_PLANNED = [
    ("sweep", SweepSpec(count=5, start=SEC // 4, step=SEC // 5, object_start=3)),
    ("evade", TransientTamper(object_index=2, windows=((SEC // 8, SEC),),
                              knowledge=ScheduleKnowledge.GUEST_VISIBLE_ONLY)),
    ("code", CodeTamper(offset=64, at=SEC // 2, payload=b"\xcc" * 80)),
]
_PLANNED_STRATEGIES = (
    StrategyConfig(kind="hrk", batch_k=2),
    StrategyConfig(kind="hf", schedule=FiringSchedule(ScheduleMode.GUEST_VISIBLE, SEC // 3)),
    StrategyConfig(kind="hf", schedule=FiringSchedule(ScheduleMode.PERIODIC_JITTERED, SEC // 3,
                                                      SEC // 10, seed=4)),
)


def test_one_plan_serves_every_run_as_a_fresh_plan_does():
    plan = plan_attacks(_PLANNED_SETUP, _PLANNED)
    for strategy in _PLANNED_STRATEGIES:
        for seed in range(3):
            args = (_PLANNED_SETUP, strategy, _workload(2, syscall_rate=30))
            shared = run_scenario(*args, plan, _ENGINE_COSTS, seed)
            fresh = run_scenario(*args, plan_attacks(_PLANNED_SETUP, _PLANNED), _ENGINE_COSTS,
                                 seed)
            assert json.dumps(shared.to_json_dict()) == json.dumps(fresh.to_json_dict())


def test_runs_crediting_a_code_write_on_objects_leave_the_plan_unchanged():
    plan = plan_attacks(_PLANNED_SETUP, _PLANNED)
    targets, events = dict(plan.target_label), plan.events
    assert 0 not in targets and 1 not in targets
    for strategy in _PLANNED_STRATEGIES[:2]:
        result = run_scenario(_PLANNED_SETUP, strategy, _workload(2, syscall_rate=30), plan)
        outcomes = {o.label: o for o in result.attack_outcomes}
        code, evade = outcomes["code"], outcomes["evade"]
        assert code.applied == 1
        if strategy.kind == "hrk":  # the run credits the code write with objects 0 and 1
            assert code.detected_at is not None
            assert {d.target for d in result.detections} >= {0, 1}
        else:  # the evader's window, clipped around every firing, is never seen dirty
            assert evade.evaded and evade.applied == evade.attempted > 2
    assert dict(plan.target_label) == targets and plan.events is events
    with pytest.raises(TypeError):
        plan.target_label[0] = "code"


def test_a_plan_for_another_setup_is_refused():
    plan = plan_attacks(_PLANNED_SETUP, _PLANNED)
    other = make_setup(count=9, page_size=64)
    with pytest.raises(ConfigurationError, match="another setup"):
        run_scenario(other, _PLANNED_STRATEGIES[0], _workload(2, syscall_rate=30), plan)


def test_zero_cost_model_means_zero_overhead_everywhere():
    for strategy in (StrategyConfig(kind="hrk", batch_k=2), _hf()):
        result = run_scenario(
            make_setup(count=4), strategy,
            _workload(5, syscall_rate=20, ctx_rate=5),
            [], CostModel(), seed=9,
        )
        assert result.overhead_fraction == 0.0


def test_overhead_monotone_in_every_cost_field():
    base_costs = dict(t_vmexit=10_000, t_vmentry=5_000, t_interrupt_delivery=20_000,
                      t_map_page=30_000, t_hash_per_byte=100,
                      t_syscall_base=100, t_ctxswitch_base=1_000)

    def overhead(strategy, costs):
        return run_scenario(
            make_setup(count=6), strategy,
            _workload(5, syscall_rate=20, ctx_rate=5),
            [], CostModel(**costs), seed=3,
        ).overhead_fraction

    for strategy in (StrategyConfig(kind="hrk", batch_k=2), _hf(period_s=2)):
        reference = overhead(strategy, base_costs)
        for field in base_costs:
            bumped = dict(base_costs)
            bumped[field] *= 2
            assert overhead(strategy, bumped) >= reference, field


# ---------------------------------------------------------------------------
# overhead against a baseline run
# ---------------------------------------------------------------------------

def test_overhead_report_against_baseline_run():
    costs = CostModel(t_vmexit=100_000, t_vmentry=100_000, t_map_page=100_000,
                      t_syscall_base=100)
    workload = _workload(10, syscall_rate=100)
    setup = make_setup(count=4)
    strategy_result = run_scenario(setup, StrategyConfig(kind="hrk", batch_k=1),
                                   workload, [], costs, seed=5)
    baseline_result = run_scenario(setup, StrategyConfig(kind="baseline"),
                                   workload, [], costs, seed=5)
    assert baseline_result.total_ticks == baseline_result.horizon
    # 1000 exits * (100+100+100) us over 10 s = 3%
    assert 100.0 * strategy_result.overhead_fraction == pytest.approx(3.0)
    assert strategy_result.per_event_added["syscall"] / 1000.0 == pytest.approx(300.0)
    assert strategy_result.per_event_added["ctxswitch"] == 0.0


# ---------------------------------------------------------------------------
# envelope safety from the event trace
# ---------------------------------------------------------------------------

def test_module_pages_protected_outside_envelopes():
    entries = []
    result = run_scenario(
        make_setup(count=3), _hf(period_s=2),
        _workload(9, syscall_rate=11, ctx_rate=3),
        [("t", PersistentTamper(object_index=1, at=SEC)),
         ("c", CodeTamper(offset=8, at=3 * SEC))],
        CostModel(t_hash_per_byte=50), seed=8, trace=entries.append,
    )
    in_envelope = False
    unlocked = False
    for entry in entries:
        kind = entry["kind"]
        if kind == "firing_start":
            in_envelope = True
        elif kind == "module_unprotect":
            assert in_envelope
            unlocked = True
        elif kind == "module_protect":
            assert in_envelope and unlocked
            unlocked = False
        elif kind == "firing_end":
            assert not unlocked  # relocked before the envelope closes
            in_envelope = False
        else:
            # no guest event is ever dispatched while module pages are open
            assert not unlocked
    assert result.counts["firings"] == 4


def test_result_json_shape():
    result = run_scenario(
        make_setup(count=2), _hf(), _workload(5),
        [("t", PersistentTamper(object_index=0, at=SEC))],
        CostModel(t_hash_per_byte=10), seed=2,
    )
    data = result.to_json_dict()
    assert set(data) == {
        "seed", "strategy_kind", "horizon", "baseline_ticks", "total_ticks",
        "overhead_ticks", "overhead_fraction", "cost_breakdown", "workload_base",
        "counts", "per_event_added", "detections", "traps", "attacks", "config_echo",
    }
    json.dumps(data)  # serializable


def _run_peak_bytes(count: int, strategy: StrategyConfig, workload=_workload(2),
                    attacks=()) -> int:
    tracemalloc.start()
    try:
        run_scenario(make_setup(count=count), strategy, workload, attacks)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("strategy", [
    StrategyConfig(kind="baseline"), StrategyConfig(kind="hrk", batch_k=25), _hf(period_s=1),
], ids=["baseline", "hrk", "hf"])
def test_run_memory_does_not_grow_with_the_object_count(strategy):
    # a zero-rate run: guest, object layout and baselines, and hf sweeps
    assert _run_peak_bytes(1_000_000, strategy) <= (
        _run_peak_bytes(15_000, strategy) + (1 << 20)
    )


@pytest.mark.parametrize("strategy, attacks", [
    (StrategyConfig(kind="baseline"), ()), (StrategyConfig(kind="hrk", batch_k=25), ()),
    # a tamper by the horizon: the hrk run walks its arrivals exit by exit
    (StrategyConfig(kind="hrk", batch_k=25), [("t", PersistentTamper(object_index=7, at=SEC))]),
], ids=["baseline", "hrk", "walked"])
def test_run_memory_does_not_grow_with_the_event_count(strategy, attacks):
    # arrivals are drawn a chunk at a time and merged as they come: past 5,000
    # events, where both sources draw full chunks, 20,000 events peak higher
    # by less than one 8-byte reference for each of the 15,000 more
    def peak(rate):
        workload = _workload(2, syscall_rate=rate, ctx_rate=rate / 4, arrival=Arrival.POISSON)
        return _run_peak_bytes(100, strategy, workload, attacks)

    assert peak(8_000) <= peak(2_000) + 8 * 15_000


@pytest.mark.parametrize("strategy", [
    StrategyConfig(kind="baseline"), StrategyConfig(kind="hrk", batch_k=25),
], ids=["baseline", "hrk"])
def test_event_storm_memory_is_the_same_at_four_times_the_horizon(strategy):
    # event_storm's shape: 15,000 spread objects, 2,400 + 600 Poisson
    # arrivals a second; each source buffers at most one chunk of arrivals
    def peak(horizon_s):
        workload = _workload(horizon_s, syscall_rate=2400, ctx_rate=600, arrival=Arrival.POISSON)
        return _run_peak_bytes(15_000, strategy, workload)

    assert peak(20) <= peak(5) + (256 << 10)


@pytest.mark.parametrize("strategy", [
    StrategyConfig(kind="baseline"), StrategyConfig(kind="hrk", batch_k=2), _hf(period_s=1),
], ids=["baseline", "hrk", "hf"])
def test_finished_run_leaves_no_reference_cycles(strategy):
    # the run's guest, its written pages and its tables are freed when the
    # run returns, not by a later pass of the cyclic garbage collector
    gc.collect()
    gc.disable()
    try:
        run_scenario(
            make_setup(count=6), strategy, _workload(5, syscall_rate=20, ctx_rate=5),
            [("t", PersistentTamper(object_index=3, at=SEC)),
             ("c", CodeTamper(offset=0, at=2 * SEC))],
            CostModel(), seed=3,
        )
        assert gc.collect() == 0
    finally:
        gc.enable()
