"""Protection registry, firing schedules, interrupt envelope, VMExit checks."""

import random

import pytest

from conftest import batch_pages_ref
from hfsim.errors import ConfigurationError
from hfsim.guest import GuestMachine
from hfsim.hypervisor import (
    FiringSchedule,
    ProtectionRegistry,
    ScheduleMode,
    fire_interrupt,
    on_control_register_write,
)
from hfsim.integrity import HANDLER_TARGET, IDTR_TARGET, Violation, snapshot_baselines
from hfsim.simulation import CostModel
from hfsim.timebase import TICKS_PER_SECOND as SEC


def _hf_machine(n_objects=4, size=8):
    m = GuestMachine(8, 4096)
    m.set_idtr(4096, 512)
    m.load_module(bytes([0x90]) * 4096, 8192, 0x20)
    m.register_kernel_object(3 * 4096, size, count=n_objects)
    reg = ProtectionRegistry()
    table = snapshot_baselines(m)
    reg.protect_pages(m.module.page_range(4096))
    reg.protect_pages(m.idt_pages())
    return m, reg, table


# ---------------------------------------------------------------------------
# protect / unprotect
# ---------------------------------------------------------------------------

def test_protect_then_write_traps():
    m = GuestMachine(4, 4096)
    reg = ProtectionRegistry()
    reg.protect_pages({2, 3})
    assert m.guest_write(reg, 3 * 4096, b"x").trapped


def test_protect_is_idempotent():
    reg = ProtectionRegistry()
    reg.protect_pages([1, 2])
    snapshot = set(reg.protected_pages)
    reg.protect_pages([1, 2])
    assert reg.protected_pages == snapshot


def test_protect_then_unprotect_allows_write():
    m = GuestMachine(4, 4096)
    reg = ProtectionRegistry()
    reg.protect_pages([1])
    reg.unprotect_pages([1])
    assert m.guest_write(reg, 4096, b"x").applied


def test_unprotect_absent_page_is_noop_and_inverse():
    reg = ProtectionRegistry()
    reg.unprotect_pages([3])
    assert reg.protected_pages == set()
    reg.protect_pages([0, 1])
    reg.unprotect_pages([1])
    reg.protect_pages([1])
    assert reg.protected_pages == {0, 1}


def test_unlocked_module_page_allows_handler_self_write():
    m, reg, table = _hf_machine()
    pages = list(m.module.page_range(4096))
    reg.unprotect_pages(pages)
    assert m.guest_write(reg, m.module.addr + 100, b"scratch").applied
    reg.protect_pages(pages)
    assert m.guest_write(reg, m.module.addr + 100, b"denied").trapped


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_periodic_firings():
    sched = FiringSchedule(ScheduleMode.PERIODIC, 4 * SEC)
    assert sched.firing_times(13 * SEC) == [4 * SEC, 8 * SEC, 12 * SEC]


def test_jittered_firings_deterministic_and_within_bounds():
    sched = FiringSchedule(ScheduleMode.PERIODIC_JITTERED, 4 * SEC, 1 * SEC, seed=7)
    times = sched.firing_times(40 * SEC)
    assert times == sched.firing_times(40 * SEC)
    # oracle: regenerate from the documented seeded-uniform formula
    rng = random.Random("device:7")
    expected = []
    i = 1
    while i * 4 * SEC - SEC <= 40 * SEC:
        t = i * 4 * SEC + round(rng.uniform(-1.0, 1.0) * SEC)
        if 0 < t <= 40 * SEC:
            expected.append(t)
        i += 1
    assert times == sorted(expected)
    for i, t in enumerate(times, start=1):
        assert abs(t - i * 4 * SEC) <= SEC


def test_jittered_different_salt_differs():
    sched = FiringSchedule(ScheduleMode.PERIODIC_JITTERED, 4 * SEC, 1 * SEC, seed=7)
    assert sched.firing_times(40 * SEC, salt=1) != sched.firing_times(40 * SEC, salt=2)


def test_zero_period_rejected():
    with pytest.raises(ConfigurationError):
        FiringSchedule(ScheduleMode.PERIODIC, 0)
    with pytest.raises(ConfigurationError):
        FiringSchedule(ScheduleMode.PERIODIC_JITTERED, 4 * SEC, 4 * SEC, 1)  # J must be < period


def test_guest_visible_flag():
    assert FiringSchedule(ScheduleMode.GUEST_VISIBLE, SEC).guest_visible_times
    assert not FiringSchedule(ScheduleMode.PERIODIC, SEC).guest_visible_times
    visible = FiringSchedule(ScheduleMode.GUEST_VISIBLE, SEC)
    assert visible.firing_times(3 * SEC) == [SEC, 2 * SEC, 3 * SEC]


# ---------------------------------------------------------------------------
# fire_interrupt
# ---------------------------------------------------------------------------

def test_clean_interrupt_duration_is_per_object_cost():
    m, reg, table = _hf_machine(n_objects=4, size=8)
    costs = CostModel(t_hash_per_byte=100)
    report = fire_interrupt(m, reg, table, costs, now=0)
    assert report.violations == []
    assert not report.subverted
    m.set_idtr(4096, 1024)  # the handler's entry still lies inside: the sweep runs
    # the IDTR rides along after the objects: it is found once all 4 are hashed
    report = fire_interrupt(m, reg, table, costs, now=0)
    assert report.violations == [Violation(IDTR_TARGET, 4 * 8 * 100)]


def test_interrupt_detects_tampered_object_with_latency():
    m, reg, table = _hf_machine(n_objects=4, size=8)
    m.privileged_write(m.objects.addr(2), b"\x01")
    costs = CostModel(t_interrupt_delivery=50, t_hash_per_byte=10)
    report = fire_interrupt(m, reg, table, costs, now=1000)
    assert [v.target for v in report.violations] == [2]
    # detection lands after delivery plus hashing objects 0..2
    assert report.violations[0].time == 1000 + 50 + 3 * 8 * 10


def test_envelope_restores_protection():
    m, reg, table = _hf_machine()
    before = set(reg.protected_pages)
    fire_interrupt(m, reg, table, CostModel())
    assert reg.protected_pages == before


def test_redirected_idt_entry_yields_subversion_detection():
    m, reg, table = _hf_machine()
    # privileged harness injection: corrupt the IDT entry under protection
    m.privileged_write(m.idtr.base + 8 * 0x20, (0x100).to_bytes(8, "little"))
    m.privileged_write(m.objects.addr(0), b"\x01")
    costs = CostModel(t_interrupt_delivery=50, t_hash_per_byte=10)
    report = fire_interrupt(m, reg, table, costs, now=1000)
    assert report.subverted
    # sweep refused: the tampered object goes unchecked, and no hash time passes
    assert report.violations == [Violation(HANDLER_TARGET, 1000 + 50)]
    assert report.diverged == 1


def test_idtr_move_also_subverts_dispatch():
    m, reg, table = _hf_machine()
    m.set_idtr(0, 512)  # shadow IDT full of zero handlers
    report = fire_interrupt(m, reg, table, CostModel())
    assert report.subverted


# ---------------------------------------------------------------------------
# on_control_register_write
# ---------------------------------------------------------------------------

def _tamper_all(m):
    # every object diverges, so each exit reports exactly what it covered
    for oid in range(m.objects.count):
        m.privileged_write(m.objects.addr(oid), b"\x01")


def test_vmexit_round_robin_covers_all_objects():
    m, reg, table = _hf_machine(n_objects=10, size=8)
    _tamper_all(m)
    covered = set()
    for exit_index in range(4):  # ceil(10/3) = 4 exits, of 3 objects each
        report = on_control_register_write(m, table, CostModel(), k=3)
        assert [v.target for v in report.violations] == [
            (3 * exit_index + i) % 10 for i in range(3)]
        covered.update(v.target for v in report.violations)
    assert covered == set(range(10))
    assert table.cursor == 2  # 12 mod 10


def test_vmexit_charges_transitions_mapping_and_hash():
    m, reg, table = _hf_machine(n_objects=6, size=8)
    costs = CostModel(t_vmexit=100, t_vmentry=70, t_map_page=1000, t_hash_per_byte=10)
    # 6 packed 8-byte objects share page 3: the 3-object batch maps 1 page
    assert m.object_pages(0, 3) == batch_pages_ref(m, table, 3) == 1
    # the batch is checked after the exit and the page remap; object 2 is
    # found once all 3 are hashed, before the re-entry
    m.privileged_write(m.objects.addr(2), b"\x01")
    report = on_control_register_write(m, table, costs, k=3, now=5000)
    assert [v.time for v in report.violations] == [5000 + 100 + 1000 + 3 * 8 * 10]
    m.privileged_write(m.objects.addr(3), b"\x01")
    report = on_control_register_write(m, table, costs, k=3, now=5000)
    assert [v.time for v in report.violations] == [5000 + 100 + 1000 + 8 * 10]


def test_tamper_at_cursor_plus_one_detected_on_second_exit():
    # brute-force cursor walk: k=1 checks object 0 first, object 1 second
    m, reg, table = _hf_machine(n_objects=3, size=8)
    m.privileged_write(m.objects.addr(1), b"\x01")
    first = on_control_register_write(m, table, CostModel(), k=1)
    second = on_control_register_write(m, table, CostModel(), k=1)
    assert first.violations == []
    assert [v.target for v in second.violations] == [1]


def test_cursor_completeness_from_any_phase():
    # over any ceil(N/k) consecutive exits every object is checked at least once
    m, reg, table = _hf_machine(n_objects=10, size=8)
    _tamper_all(m)
    for phase in range(7):
        on_control_register_write(m, table, CostModel(), k=3)
        covered = set()
        cursor_before = table.cursor
        for _ in range(4):
            rep = on_control_register_write(m, table, CostModel(), k=3)
            covered.update(v.target for v in rep.violations)
        assert covered == set(range(10)), (phase, cursor_before)

