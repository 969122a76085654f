"""Attacker scripts driven through full scenario runs."""

import dataclasses

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import assert_conservation, make_setup
from hfsim.errors import ConfigFileError, ConfigurationError
from hfsim.hypervisor import FiringSchedule, ScheduleMode
from hfsim.simulation import (
    Arrival,
    CostModel,
    StrategyConfig,
    WorkloadSpec,
    plan_attacks,
    run_scenario,
)
from hfsim.threat import (
    CodeTamper,
    IdtrTamper,
    IdtTamper,
    PersistentTamper,
    ScheduleKnowledge,
    SweepSpec,
    TransientTamper,
    clip_windows,
    expand_attacks,
)
from hfsim.timebase import TICKS_PER_SECOND as SEC


def _workload(horizon_s=10, syscall_rate=0.0, ctx_rate=0.0, arrival=Arrival.FIXED):
    return WorkloadSpec(syscall_rate=syscall_rate, ctxswitch_rate=ctx_rate,
                        arrival=arrival, horizon=horizon_s * SEC)


def _hf(period_s=4):
    return StrategyConfig(kind="hf",
                          schedule=FiringSchedule(ScheduleMode.PERIODIC, period_s * SEC))


# ---------------------------------------------------------------------------
# persistent tamper
# ---------------------------------------------------------------------------

def test_persistent_tamper_detected_within_period_plus_sweep():
    costs = CostModel(t_interrupt_delivery=100_000, t_hash_per_byte=100)
    result = run_scenario(
        make_setup(count=8), _hf(period_s=4), _workload(10),
        [("tamper", PersistentTamper(object_index=5, at=1 * SEC))],
        costs, seed=1,
    )
    assert_conservation(result, costs)
    (outcome,) = result.attack_outcomes
    assert outcome.applied == 1 and outcome.trapped == 0
    sweep_duration = 100_000 + 8 * 64 * 100
    assert outcome.detected_at is not None
    assert outcome.detected_at <= 5 * SEC + sweep_duration
    (record,) = result.detections
    assert record.target == 5
    assert record.tamper_time == 1 * SEC


def test_identical_byte_tamper_never_diverges():
    result = run_scenario(
        make_setup(count=4), _hf(), _workload(10),
        [("noop", PersistentTamper(object_index=1, at=1 * SEC, xor_mask=0))],
        CostModel(), seed=1,
    )
    (outcome,) = result.attack_outcomes
    assert outcome.applied == 1
    assert outcome.detected_at is None
    assert outcome.evaded is False  # object always equals baseline
    assert result.detections == []


def test_tamper_beyond_horizon_attempts_nothing():
    result = run_scenario(
        make_setup(count=4), _hf(), _workload(10),
        [("late", PersistentTamper(object_index=0, at=11 * SEC))],
        CostModel(), seed=1,
    )
    (outcome,) = result.attack_outcomes
    assert outcome.attempted == 0
    assert outcome.evaded is False


def test_persistent_tamper_under_baseline_strategy_evades():
    result = run_scenario(
        make_setup(count=4), StrategyConfig(kind="baseline"), _workload(10),
        [("t", PersistentTamper(object_index=0, at=1 * SEC))],
        CostModel(), seed=1,
    )
    (outcome,) = result.attack_outcomes
    assert outcome.applied == 1
    assert outcome.detected_at is None
    assert outcome.evaded is True


# ---------------------------------------------------------------------------
# transient tamper and mimicry
# ---------------------------------------------------------------------------

def test_visible_schedule_evasion_is_never_detected():
    setup = make_setup(count=2)
    strategy = StrategyConfig(
        kind="hf", schedule=FiringSchedule(ScheduleMode.GUEST_VISIBLE, 4 * SEC)
    )
    windows = tuple((s * SEC, e * SEC) for s, e in [(3, 5), (7, 9), (11, 13)])
    script = TransientTamper(object_index=0, windows=windows,
                             knowledge=ScheduleKnowledge.GUEST_VISIBLE_ONLY)
    result = run_scenario(setup, strategy, _workload(14), [("evade", script)],
                          CostModel(), seed=3)
    (outcome,) = result.attack_outcomes
    assert result.detections == []
    assert outcome.detected_at is None
    assert outcome.was_dirty
    assert outcome.evaded is True


def test_hidden_schedule_defeats_the_same_evasion_attacker():
    # same windows, same knowledge flag, but the schedule is hypervisor-private:
    # the attacker gets no firing times, windows stay unclipped, checks sample dirty state
    setup = make_setup(count=2)
    strategy = StrategyConfig(
        kind="hf",
        schedule=FiringSchedule(ScheduleMode.PERIODIC_JITTERED, 4 * SEC, 1 * SEC, seed=5),
    )
    windows = tuple((s * SEC, e * SEC) for s, e in [(3, 5), (7, 9), (11, 13)])
    script = TransientTamper(object_index=0, windows=windows,
                             knowledge=ScheduleKnowledge.GUEST_VISIBLE_ONLY)
    result = run_scenario(setup, strategy, _workload(14), [("evade", script)],
                          CostModel(), seed=3)
    assert len(result.detections) >= 1
    assert result.attack_outcomes[0].evaded is False


def test_window_avoiding_every_firing_evades_both_schedules():
    # dirty window strictly inside one period, overlapping no firing instant
    for schedule in (FiringSchedule(ScheduleMode.PERIODIC, 4 * SEC),
                     FiringSchedule(ScheduleMode.GUEST_VISIBLE, 4 * SEC)):
        result = run_scenario(
            make_setup(count=2),
            StrategyConfig(kind="hf", schedule=schedule),
            _workload(10),
            [("t", TransientTamper(object_index=0,
                                   windows=((int(4.5 * SEC), int(7.5 * SEC)),)))],
            CostModel(), seed=2,
        )
        assert result.detections == []
        assert result.attack_outcomes[0].evaded is True


def test_clip_windows_cuts_guard_zones():
    windows = ((0, 100), (200, 300))
    clipped = clip_windows(windows, [50, 250], guard=10)
    assert clipped == ((0, 40), (60, 100), (200, 240), (260, 300))
    # firing outside every window changes nothing
    assert clip_windows(windows, [150], guard=10) == windows
    # guard swallowing a whole window removes it
    assert clip_windows(((45, 55),), [50], guard=10) == ()


def test_transient_window_validation():
    with pytest.raises(ConfigurationError):
        TransientTamper(object_index=0, windows=((5, 5),))
    with pytest.raises(ConfigurationError):
        TransientTamper(object_index=0, windows=((0, 10), (5, 15)))


# ---------------------------------------------------------------------------
# code / IDT / IDTR tamper
# ---------------------------------------------------------------------------

def test_code_tamper_is_trapped_and_module_unchanged():
    setup = make_setup(count=2)
    result = run_scenario(
        setup, _hf(), _workload(10),
        [("code", CodeTamper(offset=0, at=2 * SEC))],
        CostModel(), seed=1,
    )
    (outcome,) = result.attack_outcomes
    assert outcome.trapped == 1 and outcome.applied == 0
    assert outcome.detected_at == 2 * SEC
    (trap,) = result.trap_records
    assert trap.kind.value == "module_code_write"
    assert result.counts["traps"] == 1


def test_code_tamper_at_exact_firing_instant_still_trapped():
    # envelope is atomic: the firing at t=4s unlocks and relocks before the
    # attack event at the same instant is dispatched
    result = run_scenario(
        make_setup(count=2), _hf(period_s=4), _workload(10),
        [("code", CodeTamper(offset=16, at=4 * SEC))],
        CostModel(), seed=1,
    )
    (outcome,) = result.attack_outcomes
    assert outcome.trapped == 1 and outcome.applied == 0


def test_write_one_byte_past_module_region_applies():
    # the page after the module holds object 0; only module pages are locked
    setup = make_setup(count=2)
    result = run_scenario(
        setup, _hf(), _workload(10),
        [("edge", CodeTamper(offset=4096, at=2 * SEC, payload=b"\x00"))],
        CostModel(), seed=1,
    )
    (outcome,) = result.attack_outcomes
    assert outcome.applied == 1 and outcome.trapped == 0


def test_idt_tamper_trapped():
    result = run_scenario(
        make_setup(count=2), _hf(), _workload(10),
        [("idt", IdtTamper(vector=0x20, new_handler=0x40, at=1 * SEC))],
        CostModel(), seed=1,
    )
    (outcome,) = result.attack_outcomes
    assert outcome.trapped == 1 and outcome.applied == 0
    (trap,) = result.trap_records
    assert trap.kind.value == "idt_write"


def test_idtr_tamper_detected_within_period_plus_sweep():
    costs = CostModel(t_interrupt_delivery=100_000, t_hash_per_byte=100)
    result = run_scenario(
        make_setup(count=4), _hf(period_s=4), _workload(10),
        [("idtr", IdtrTamper(new_base=0, at=1 * SEC))],
        costs, seed=1,
    )
    (outcome,) = result.attack_outcomes
    assert outcome.applied == 1
    sweep_duration = 100_000 + 4 * 64 * 100
    assert outcome.detected_at is not None
    assert outcome.detected_at <= 4 * SEC + sweep_duration
    # moving the IDTR subverts dispatch: the handler check catches it
    assert result.detections[0].target in ("idtr", "handler")
    assert result.detections[0].tamper_time == 1 * SEC


def test_idt_write_past_a_moved_idts_end_attempts_nothing():
    # the IDTR tamper leaves a table without vector 0, so the IDT write has no entry
    result = run_scenario(
        make_setup(count=2), StrategyConfig(kind="baseline"), _workload(10),
        [("idtr", IdtrTamper(new_base=0, new_limit=0, at=1 * SEC)),
         ("idt", IdtTamper(vector=0, new_handler=0x40, at=1 * SEC))],
        CostModel(), seed=1,
    )
    idtr, idt = result.attack_outcomes
    assert idtr.applied == 1
    assert (idt.attempted, idt.applied, idt.trapped) == (0, 0, 0)


def test_idtr_restore_to_original_is_no_violation():
    setup = make_setup(count=2)
    # idt sits at page 1 in the standard layout
    result = run_scenario(
        setup, _hf(), _workload(10),
        [("idtr", IdtrTamper(new_base=4096, at=1 * SEC))],
        CostModel(), seed=1,
    )
    assert result.detections == []
    assert result.attack_outcomes[0].evaded is False


# ---------------------------------------------------------------------------
# expansion and attribution
# ---------------------------------------------------------------------------

def test_sweep_expansion():
    sweep = SweepSpec(count=3, start=SEC, step=SEC // 2, object_start=1, object_stride=4)
    scripts = expand_attacks([("s", sweep)], object_count=10)
    assert [label for label, _ in scripts] == ["s[000]", "s[001]", "s[002]"]
    assert [s.object_index for _, s in scripts] == [1, 5, 9]
    assert [s.at for _, s in scripts] == [SEC, SEC + SEC // 2, SEC + 2 * (SEC // 2)]


_CHECKED_SPECS = st.one_of(
    st.builds(SweepSpec, count=st.integers(1, 8), start=st.integers(0, SEC),
              step=st.integers(0, SEC), object_start=st.integers(0, 20),
              object_stride=st.integers(1, 6)),
    st.builds(PersistentTamper, object_index=st.integers(0, 13), at=st.integers(0, SEC),
              offset=st.sampled_from([0, 63, 64]), xor_mask=st.sampled_from([0xFF, 300])),
    st.builds(TransientTamper, object_index=st.integers(0, 13), windows=st.just(((1, 2),))),
    st.builds(IdtrTamper, new_base=st.sampled_from([4096, 1 << 40]), at=st.just(0)),
)


@settings(max_examples=150, deadline=None)
@given(count=st.integers(1, 12), specs=st.lists(_CHECKED_SPECS, max_size=6))
@example(count=4, specs=[
    PersistentTamper(object_index=2, at=0),
    SweepSpec(count=8, start=0, step=SEC, object_start=2, object_stride=2),
    IdtrTamper(new_base=4096, at=0),
    TransientTamper(object_index=0, windows=((1, 2),)),
    IdtrTamper(new_base=4096, at=SEC),
])
def test_a_sweep_checked_in_place_is_checked_as_its_expansion(count, specs):
    # the same problems in the same order, or the same {target: label}
    setup = make_setup(count=count)
    labelled = [(f"a{i}", spec) for i, spec in enumerate(specs)]

    def checked(scripts):
        try:
            return list(plan_attacks(setup, scripts).target_label.items())
        except ConfigFileError as exc:
            return exc.problems

    assert checked(labelled) == checked(expand_attacks(labelled, count))


_PLANNED_STRATEGIES = (
    StrategyConfig(kind="hrk", batch_k=2),
    StrategyConfig(kind="hf", schedule=FiringSchedule(ScheduleMode.PERIODIC, SEC // 2)),
    StrategyConfig(kind="hf", schedule=FiringSchedule(ScheduleMode.GUEST_VISIBLE, SEC // 2)),
    StrategyConfig(kind="hf", schedule=FiringSchedule(ScheduleMode.PERIODIC_JITTERED, SEC // 2,
                                                      SEC // 8, seed=1)),
)
_PLANNED_COSTS = CostModel(t_vmexit=1_000, t_interrupt_delivery=500, t_map_page=100,
                           t_hash_per_byte=1)


@settings(max_examples=60, deadline=None)
@given(count=st.integers(1, 12), specs=st.lists(_CHECKED_SPECS, max_size=6),
       strategy=st.sampled_from(_PLANNED_STRATEGIES), seed=st.integers(0, 3))
@example(count=4, specs=[  # an evader's windows clipped against a guest-visible schedule
    SweepSpec(count=3, start=0, step=SEC // 3, object_start=2),
    TransientTamper(object_index=1, windows=((SEC // 4, 3 * SEC // 2),),
                    knowledge=ScheduleKnowledge.GUEST_VISIBLE_ONLY),
], strategy=_PLANNED_STRATEGIES[2], seed=0)
@example(count=4, specs=[  # a code write past the module page lands on objects 0 and 1
    SweepSpec(count=2, start=SEC, step=SEC // 2, object_start=1),
    CodeTamper(offset=4096, at=SEC // 3, payload=b"\xcc" * 4160),
], strategy=_PLANNED_STRATEGIES[0], seed=0)
def test_a_run_from_the_plan_equals_a_run_from_the_expanded_scripts(count, specs, strategy, seed):
    # the plan resolves sweeps in place; expand_attacks spells them out as tampers
    setup = make_setup(count=count)
    labelled = [(f"a{i}", spec) for i, spec in enumerate(specs)]
    try:
        plan = plan_attacks(setup, labelled)
    except ConfigFileError:
        assume(False)
    runs = [run_scenario(setup, strategy, _workload(2, syscall_rate=40), attacks,
                         _PLANNED_COSTS, seed)
            for attacks in (plan, expand_attacks(labelled, count))]
    assert runs[0].to_json_dict() == runs[1].to_json_dict()


def test_duplicate_targets_rejected():
    with pytest.raises(ConfigurationError):
        plan_attacks(
            make_setup(count=4),
            [("a", PersistentTamper(object_index=1, at=0)),
             ("b", TransientTamper(object_index=1, windows=((1, 2),)))],
        )


@pytest.mark.parametrize("script", [
    PersistentTamper(object_index=1, at=SEC, xor_mask=300),
    TransientTamper(object_index=1, windows=((SEC, 2 * SEC),), xor_mask=-1),
])
def test_directly_built_mask_outside_a_byte_is_a_config_error(script):
    # the config rejects the same value with the same message
    with pytest.raises(ConfigFileError) as exc_info:
        run_scenario(make_setup(count=4), _hf(), _workload(4), [("t", script)],
                     CostModel(), seed=0)
    assert exc_info.value.problems == [("attack t.xor_mask", "must be a byte")]


@pytest.mark.parametrize("strategy", [StrategyConfig(kind="hrk", batch_k=2), _hf()],
                         ids=["hrk", "hf"])
@pytest.mark.parametrize("script, field", [
    # byte -1 of object 0 is the module's last byte: under hrk the write went
    # through unnoticed, and under hf its trap was credited to the tamper
    (PersistentTamper(object_index=0, at=5, offset=-1), "offset"),
    (PersistentTamper(object_index=0, at=-50), "at"),  # was reported as tamper_time -50
], ids=["offset", "at"])
def test_a_directly_built_spec_breaking_its_bounds_is_a_config_error(strategy, script, field):
    # the config rejects the same value with the same message
    with pytest.raises(ConfigFileError) as exc_info:
        run_scenario(make_setup(count=4), strategy, _workload(2, syscall_rate=10),
                     [("t", script)], CostModel(), seed=0)
    assert exc_info.value.problems == [(f"attack t.{field}", "must be >= 0")]


@pytest.mark.parametrize("offset", [8, 64], ids=["gap", "next_object"])
@pytest.mark.parametrize("kind", ["persistent", "transient"])
def test_an_object_tamper_past_its_object_is_a_config_error(kind, offset):
    # 8-byte objects, one a 64-byte page: byte 64 of object 0 is byte 0 of
    # object 1, and byte 8 lies in the gap between the two
    setup = make_setup(count=4, size_bytes=8, page_size=64)
    script = (PersistentTamper(object_index=0, offset=offset, at=SEC) if kind == "persistent"
              else TransientTamper(object_index=0, offset=offset, windows=((SEC, 2 * SEC),)))
    with pytest.raises(ConfigFileError) as exc_info:
        run_scenario(setup, StrategyConfig(kind="hrk", batch_k=2),
                     _workload(3, syscall_rate=10), [("t", script)], CostModel(), seed=0)
    assert exc_info.value.problems == [("attack t.offset",
                                        f"byte {offset} outside the object of 8 bytes")]
    # the object's last byte is its own: the detection is the attack's
    inside = dataclasses.replace(script, offset=7)
    result = run_scenario(setup, StrategyConfig(kind="hrk", batch_k=2),
                          _workload(3, syscall_rate=10), [("t", inside)], CostModel(), seed=0)
    assert [d.target for d in result.detections] == [0]
    assert result.attack_outcomes[0].detected_at == result.detections[0].detected_time


def test_supremacy_exhaustive_over_module_offsets():
    # tiny pages: every byte offset inside the one-page module region
    setup = make_setup(count=1, size_bytes=8, page_size=64)
    attacks = [
        (f"o{off}", CodeTamper(offset=off, at=(off + 1) * 1000))
        for off in range(64)
    ]
    result = run_scenario(setup, _hf(period_s=4), _workload(1),
                          attacks, CostModel(), seed=0)
    for outcome in result.attack_outcomes:
        assert outcome.trapped == 1 and outcome.applied == 0


def test_hrk_detection_bound_cycle_plus_batch():
    # worst case for the per-VMExit checker: one full round-robin cycle of
    # ceil(N/k)/event_rate plus the duration of the detecting batch
    costs = CostModel(t_vmexit=10_000, t_vmentry=10_000,
                      t_map_page=20_000, t_hash_per_byte=100)
    n, k, rate = 6, 2, 10.0
    result = run_scenario(
        make_setup(count=n), StrategyConfig(kind="hrk", batch_k=k),
        _workload(4, syscall_rate=rate),
        [("t", PersistentTamper(object_index=3, at=SEC // 2))],
        costs, seed=6,
    )
    (record,) = result.detections
    cycle = int(-(-n // k) / rate * SEC)
    batch_duration = 10_000 + 2 * 20_000 + k * 64 * 100 + 10_000
    assert record.detected_time - record.tamper_time <= cycle + batch_duration


def test_attack_outcome_invariant_attempted_splits():
    result = run_scenario(
        make_setup(count=4), _hf(), _workload(10),
        [("a", PersistentTamper(object_index=0, at=1 * SEC)),
         ("b", CodeTamper(offset=0, at=2 * SEC)),
         ("c", TransientTamper(object_index=1, windows=((3 * SEC, 5 * SEC),)))],
        CostModel(), seed=1,
    )
    for outcome in result.attack_outcomes:
        assert outcome.attempted == outcome.applied + outcome.trapped
        if outcome.detected_at is not None:
            assert not outcome.evaded
