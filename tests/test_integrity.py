"""Digest, baseline snapshot, batched and full checking, the IDTR check."""

import random

import pytest

from conftest import fnv1a64_ref
from hfsim.guest import GuestMachine
from hfsim.hypervisor import ProtectionRegistry
from hfsim.integrity import (
    IDTR_TARGET,
    MEMO_BYTES,
    MEMO_ENTRIES,
    Violation,
    check_all,
    check_batch,
    compute_digest,
    snapshot_baselines,
)


def _objects_machine(n, size=8, page_size=4096):
    m = GuestMachine(4, page_size)
    m.set_idtr(page_size, 512)
    m.register_kernel_object(3 * page_size, size, count=n)
    return m


# ---------------------------------------------------------------------------
# compute_digest
# ---------------------------------------------------------------------------

def test_digest_of_empty_is_offset_basis():
    assert compute_digest(b"") == 0xCBF29CE484222325


def test_digest_matches_independent_reference():
    # frozen from the reference implementation
    assert compute_digest(b"a") == 0xAF63DC4C8601EC8C
    assert compute_digest(b"foobar") == 0x85944171F73967E8
    rng = random.Random(1234)
    for _ in range(200):
        data = rng.randbytes(rng.randrange(0, 300))
        assert compute_digest(data) == fnv1a64_ref(data)


def test_every_single_bit_flip_changes_digest():
    rng = random.Random(7)
    buf = bytearray(rng.randbytes(64))
    original = compute_digest(bytes(buf))
    for byte_index in range(64):
        for bit in range(8):
            buf[byte_index] ^= 1 << bit
            assert compute_digest(bytes(buf)) != original
            buf[byte_index] ^= 1 << bit


# ---------------------------------------------------------------------------
# snapshot_baselines
# ---------------------------------------------------------------------------

def test_snapshot_then_check_all_is_clean():
    m = _objects_machine(5)
    table = snapshot_baselines(m)
    report = check_all(m, table)
    assert report.violations == [] and report.diverged == 0
    m.set_idtr(0, 512)  # the IDTR rides along on every sweep, after all 5 objects
    assert check_all(m, table, hash_ticks_per_byte=1).violations == [Violation(IDTR_TARGET, 5 * 8)]


def test_single_fault_injection_yields_one_violation():
    m = _objects_machine(5)
    table = snapshot_baselines(m)
    m.privileged_write(m.objects.addr(2), b"\x01")
    report = check_all(m, table, hash_ticks_per_byte=1, now=100)
    # stamped when object 2's hash ends
    assert report.violations == [Violation(2, 100 + 3 * 8)]
    assert report.diverged == 1


def test_snapshot_of_15000_synthetic_objects():
    m = GuestMachine(240, 4096)
    m.set_idtr(4096, 512)
    m.register_kernel_object(8192, 64, count=15000)
    table = snapshot_baselines(m)
    assert table.count == 15000
    assert check_all(m, table).violations == []


def test_the_table_digests_each_distinct_content_once():
    m = _objects_machine(50, size=64)
    digested = []

    def counting_digest(data):
        digested.append(data)
        return compute_digest(data)

    table = snapshot_baselines(m, digest_fn=counting_digest)
    assert digested == [bytes(64)]  # every object reads as zeros
    for oid in range(50):  # one patch into every object, then its restore
        m.privileged_write(m.objects.addr(oid) + 5, b"\x2a")
    report = check_all(m, table)
    assert len(report.violations) == 50 and len(set(table.diverged.values())) == 1
    for oid in range(50):
        m.privileged_write(m.objects.addr(oid) + 5, b"\x00")
    assert check_all(m, table).violations == []
    assert digested == [bytes(64), bytes(5) + b"\x2a" + bytes(58)]


@pytest.mark.parametrize("length", [4096, 8])
def test_the_content_memo_stays_bounded_and_digests_stay_exact(length):
    page_size = 4096
    m = GuestMachine(3 + 100, page_size)
    m.set_idtr(page_size, 512)
    m.register_kernel_object(3 * page_size, length, count=100)
    table = snapshot_baselines(m)
    cap = min(MEMO_ENTRIES, MEMO_BYTES // length)  # 64 contents of 4 KiB, 4,096 of 8 B
    rng = random.Random(3)
    sizes = []
    for i in range(3 * cap):  # more distinct contents than the memo holds
        addr = m.objects.addr(rng.randrange(100))
        m.privileged_write(addr + rng.randrange(length), bytes([i % 255 + 1]))
        table.fold(m)
        sizes.append(len(table._memo))
    assert max(sizes) == cap
    assert table.diverged and table.diverged == {
        oid: compute_digest(m.read(m.objects.addr(oid), length)) for oid in table.diverged
    }
    assert sorted(table.diverged) == table.diverged_ids


# ---------------------------------------------------------------------------
# check_batch
# ---------------------------------------------------------------------------

def _tamper_all(m):
    # every object diverges, so each check reports exactly what it covered
    for oid in range(m.objects.count):
        addr = m.objects.addr(oid)
        m.privileged_write(addr, bytes([m.read(addr, 1)[0] ^ 0xFF]))


def test_batch_round_robin_wraps():
    m = _objects_machine(5)
    table = snapshot_baselines(m)
    _tamper_all(m)
    m.set_idtr(0, 512)  # found on the batch that completes a cycle
    seen, cursors = [], []
    for _ in range(3):
        seen.append([v.target for v in check_batch(m, table, 2).violations])
        cursors.append(table.cursor)
    assert seen == [[0, 1], [2, 3], [4, 0, IDTR_TARGET]]
    assert cursors == [2, 4, 1]


def test_idtr_rides_along_only_on_the_wrapping_batch():
    m = _objects_machine(5)
    table = snapshot_baselines(m)
    m.set_idtr(0, 512)
    seen = [[v.target for v in check_batch(m, table, 2).violations] for _ in range(3)]
    assert seen == [[], [], [IDTR_TARGET]]


def test_violation_in_object_4_found_on_third_k2_call():
    # brute-force cursor walk oracle: batches {0,1},{2,3},{4,0} put object 4
    # in the third window
    m = _objects_machine(5)
    table = snapshot_baselines(m)
    m.privileged_write(m.objects.addr(4), b"\x01")
    hits = []
    for call in range(1, 4):
        report = check_batch(m, table, 2)
        hits.extend((call, v.target) for v in report.violations)
    assert hits == [(3, 4)]


def test_k_at_least_n_behaves_as_check_all():
    m = _objects_machine(4)
    table = snapshot_baselines(m)
    m.privileged_write(m.objects.addr(1), b"\x01")
    m.set_idtr(0, 512)
    report = check_batch(m, table, 9, hash_ticks_per_byte=1)
    # k saturates at N: the IDTR rides along after 4 objects, not 9
    assert report.violations == [Violation(1, 2 * 8), Violation(IDTR_TARGET, 4 * 8)]
    assert table.cursor == 0  # advanced by exactly one full cycle


def test_batch_duration_charges_per_byte():
    m = _objects_machine(3, size=16)
    table = snapshot_baselines(m)
    m.privileged_write(m.objects.addr(1), b"\x01")
    report = check_batch(m, table, 2, hash_ticks_per_byte=100)
    # the batch's last object is found when the batch's hash time has passed
    assert report.violations == [Violation(1, 2 * 16 * 100)]


# ---------------------------------------------------------------------------
# check_all and the IDTR
# ---------------------------------------------------------------------------

def test_double_fault_with_recompute_oracle():
    m = _objects_machine(6)
    table = snapshot_baselines(m)
    addrs = [3 * 4096 + 8 * oid for oid in range(6)]  # packed 8-byte objects from page 3
    baseline_bytes = [m.read(addr, 8) for addr in addrs]
    m.privileged_write(m.objects.addr(1), b"\xee")
    m.privileged_write(m.objects.addr(5) + 3, b"\xdd")
    report = check_all(m, table)
    # independent oracle: recompute digests of raw bytes with the reference
    expected = [
        oid for oid, addr in enumerate(addrs)
        if fnv1a64_ref(m.read(addr, 8)) != fnv1a64_ref(baseline_bytes[oid])
    ]
    assert sorted(v.target for v in report.violations) == expected == [1, 5]


def test_idtr_move_reported_even_when_objects_clean():
    m = _objects_machine(3)
    table = snapshot_baselines(m)
    m.set_idtr(0, 512)
    report = check_all(m, table, now=7)
    assert report.violations == [Violation(IDTR_TARGET, 7)]
    assert report.diverged == 1


def test_check_all_does_not_move_cursor():
    m = _objects_machine(4)
    table = snapshot_baselines(m)
    check_batch(m, table, 3)
    assert table.cursor == 3
    check_all(m, table)
    assert table.cursor == 3


def test_idtr_check_cases():
    m = _objects_machine(2)
    table = snapshot_baselines(m)

    def idtr_found() -> bool:
        return [v.target for v in check_all(m, table).violations] == [IDTR_TARGET]

    assert not idtr_found()
    m.set_idtr(4096 + 8, 512)
    assert idtr_found()
    m.set_idtr(4096, 1024)  # limit changed only
    assert idtr_found()
    m.set_idtr(4096, 512)  # restored
    assert not idtr_found()


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

def test_no_false_positives_under_object_free_writes():
    # fuzz: random guest writes that never touch object ranges
    m = _objects_machine(8, size=16)
    reg = ProtectionRegistry()
    table = snapshot_baselines(m)
    spans = [(0, 3 * 4096 - 1)]  # everything below the object area
    rng = random.Random(99)
    for _ in range(500):
        lo, hi = spans[0]
        addr = rng.randrange(lo, hi - 8)
        m.guest_write(reg, addr, rng.randbytes(rng.randrange(1, 8)))
    assert check_all(m, table).violations == []


def test_batch_cycle_equals_full_scan_small():
    m = _objects_machine(9, size=8)
    table = snapshot_baselines(m)
    rng = random.Random(5)
    for oid in rng.sample(range(9), 4):
        addr = m.objects.addr(oid)
        m.privileged_write(addr, bytes([m.read(addr, 1)[0] ^ 0xFF]))
    full = sorted(v.target for v in check_all(m, table).violations)
    for k in (1, 2, 4, 9):
        table.cursor = 0
        found = []
        for _ in range(-(-9 // k)):
            found.extend(v.target for v in check_batch(m, table, k).violations)
        assert sorted(v for v in found if isinstance(v, int)) == full


def test_persistent_divergence_found_in_first_covering_window():
    m = _objects_machine(6)
    table = snapshot_baselines(m)
    m.privileged_write(m.objects.addr(3), b"\x42")
    # first batch whose window contains object 3 must report it
    report1 = check_batch(m, table, 2)  # {0,1}
    report2 = check_batch(m, table, 2)  # {2,3}
    assert report1.violations == []
    assert [v.target for v in report2.violations] == [3]
