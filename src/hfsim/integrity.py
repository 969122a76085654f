"""Digest-based invariance checking over registered kernel objects.

A baseline table snapshots one digest per object (plus the IDTR value)
while the machine is still trusted. Checking compares current digests
against the baseline, either over everything at once (the in-guest sweep)
or over a round-robin batch per call (the in-hypervisor path). The hash is
64-bit FNV-1a behind a pluggable digest function; digest-collision forgery
is out of scope for this model.

A check costs O(touched objects in its range), not O(objects checked).
The guest records every object a write has touched; an untouched object
still holds its baseline bytes, so only touched objects are rehashed. The
simulated hash cost and each violation's timestamp come from prefix sums
of object lengths in check order, never from a walk over the range.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from itertools import accumulate
from typing import TYPE_CHECKING, Callable, Optional, Union

from .errors import ConfigurationError
from .timebase import Ticks

if TYPE_CHECKING:
    from .guest import GuestMachine

FNV64_OFFSET_BASIS = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

IDTR_TARGET = "idtr"
HANDLER_TARGET = "handler"

DigestFn = Callable[[bytes], int]


def compute_digest(data: bytes) -> int:
    """64-bit FNV-1a over the byte sequence."""
    h = FNV64_OFFSET_BASIS
    for b in data:
        h = ((h ^ b) * FNV64_PRIME) & _MASK64
    return h


@dataclass(frozen=True)
class Violation:
    """A checked target whose current value differs from its baseline."""

    target: Union[int, str]
    expected: object
    found: object
    time: Ticks

    def to_json_dict(self) -> dict:
        def plain(v):
            return list(v) if isinstance(v, tuple) else v

        return {
            "target": self.target,
            "expected": plain(self.expected),
            "found": plain(self.found),
            "time": self.time,
        }


@dataclass
class CheckReport:
    """What one check covered, what it found, and its hash time.

    The same type serves a batch (`check_batch`, plus the pages a VMExit
    mapped for it) and a sweep (`check_all`, or a forced interrupt whose
    sweep was refused because its dispatch was `subverted`). `duration`
    is the hash time alone; callers charge transitions, mapping and
    delivery from their cost model.
    """

    objects_checked: int = 0
    violations: list = field(default_factory=list)
    duration: Ticks = 0
    cycle_completed: bool = False
    pages_mapped: int = 0
    subverted: bool = False


class BaselineTable:
    """Precomputed per-object digests plus the round-robin check cursor.

    Entries must be the digests of the objects' bytes at snapshot time:
    an object the guest has not touched since is taken to still match.
    """

    def __init__(
        self,
        entries: dict[int, int],
        lengths: dict[int, int],
        idtr_baseline: tuple[int, int],
        digest_fn: DigestFn = compute_digest,
    ):
        self.entries = dict(entries)
        self.idtr_baseline = idtr_baseline
        self.digest_fn = digest_fn
        self.order: list[int] = sorted(self.entries)
        self.cursor = 0
        # _bytes_before[p]: total length of the objects before position p in order
        self._bytes_before = list(accumulate((lengths[oid] for oid in self.order), initial=0))
        # distinct pages of the batch at (cursor, k), filled by the VMExit path
        self.batch_pages: dict[tuple[int, int], int] = {}
        self._touched: list[int] = []  # sorted positions in order
        self._log_seen = 0  # machine.touch_log entries folded in so far

    def __len__(self) -> int:
        return len(self.entries)

    def current_digest(self, machine: "GuestMachine", object_id: int) -> int:
        """Digest of the object's current bytes; untouched objects are not read."""
        if object_id not in machine.touched:
            return self.entries[object_id]
        obj = machine.objects[object_id]
        return self.digest_fn(machine.read(obj.addr, obj.length))

    def _touched_positions(self, machine: "GuestMachine") -> list[int]:
        """Sorted positions in `order` of the objects the guest has touched."""
        log = machine.touch_log
        for oid in log[self._log_seen :]:
            if oid in self.entries:
                insort(self._touched, bisect_left(self.order, oid))
        self._log_seen = len(log)
        return self._touched

    def peek_batch(self, k: int) -> list[int]:
        """Object ids the next check_batch(k) call will cover."""
        if k <= 0:
            raise ConfigurationError(f"batch size must be >= 1, got {k}")
        n = len(self.order)
        return [self.order[(self.cursor + i) % n] for i in range(min(k, n))]


def snapshot_baselines(
    machine: "GuestMachine", digest_fn: DigestFn = compute_digest
) -> BaselineTable:
    """Digest every registered object and snapshot the IDTR; cursor = 0.

    Meant to run during the trusted setup phase, before any attacker event.
    Identical object contents share one digest computation.
    """
    if not machine.objects:
        raise ConfigurationError("cannot snapshot baselines: no objects registered")
    memo: dict[bytes, int] = {}
    entries = {}
    for oid, obj in machine.objects.items():
        data = machine.read(obj.addr, obj.length)
        digest = memo.get(data)
        if digest is None:
            digest = digest_fn(data)
            memo[data] = digest
        entries[oid] = digest
    return BaselineTable(
        entries=entries,
        lengths={oid: obj.length for oid, obj in machine.objects.items()},
        idtr_baseline=(machine.idtr.base, machine.idtr.limit),
        digest_fn=digest_fn,
    )


def verify_idtr(
    machine: "GuestMachine", table: BaselineTable, now: Ticks = 0
) -> Optional[Violation]:
    """Violation iff the current (base, limit) differs from the snapshot."""
    current = (machine.idtr.base, machine.idtr.limit)
    if current == table.idtr_baseline:
        return None
    return Violation(
        target=IDTR_TARGET, expected=table.idtr_baseline, found=current, time=now
    )


def _check_positions(
    machine: "GuestMachine",
    table: BaselineTable,
    start: int,
    stop: int,
    time_at_start: Ticks,
    ticks_per_byte: Ticks,
    violations: list,
) -> None:
    """Rehash the touched objects at positions [start, stop) of `order`.

    A violation is stamped when its object's hash ends: `time_at_start`
    plus the hash time of every byte from `start` up to and including it.
    """
    before = table._bytes_before
    positions = table._touched_positions(machine)
    for i in range(bisect_left(positions, start), bisect_left(positions, stop)):
        p = positions[i]
        oid = table.order[p]
        found = table.current_digest(machine, oid)
        if found != table.entries[oid]:
            time = time_at_start + (before[p + 1] - before[start]) * ticks_per_byte
            violations.append(
                Violation(target=oid, expected=table.entries[oid], found=found, time=time)
            )


def check_batch(
    machine: "GuestMachine",
    table: BaselineTable,
    k: int,
    hash_ticks_per_byte: Ticks = 0,
    now: Ticks = 0,
) -> CheckReport:
    """Check the next k objects from the cursor (wrapping), advance it.

    k saturates at the object count, so k >= N is one full pass. Whenever
    the batch covers the last object in id order a cycle has completed and
    the IDTR rides along as a pseudo-object.
    """
    if k < 1:
        raise ConfigurationError(f"batch size must be >= 1, got {k}")
    n = len(table.order)
    k_eff = min(k, n)
    cursor, end = table.cursor, table.cursor + k_eff
    before = table._bytes_before
    report = CheckReport(objects_checked=k_eff, cycle_completed=end >= n)
    _check_positions(machine, table, cursor, min(end, n), now,
                     hash_ticks_per_byte, report.violations)
    if end > n:
        tail_ticks = (before[n] - before[cursor]) * hash_ticks_per_byte
        _check_positions(machine, table, 0, end - n, now + tail_ticks,
                         hash_ticks_per_byte, report.violations)
        report.duration = tail_ticks + before[end - n] * hash_ticks_per_byte
    else:
        report.duration = (before[end] - before[cursor]) * hash_ticks_per_byte
    if report.cycle_completed:
        violation = verify_idtr(machine, table, now=now + report.duration)
        if violation is not None:
            report.violations.append(violation)
    table.cursor = end % n
    return report


def check_all(
    machine: "GuestMachine",
    table: BaselineTable,
    hash_ticks_per_byte: Ticks = 0,
    now: Ticks = 0,
) -> CheckReport:
    """Check every object once plus the IDTR; the cursor is untouched."""
    if not table.entries:
        raise ConfigurationError("baseline table is empty")
    n = len(table.order)
    report = CheckReport(
        objects_checked=n,
        duration=table._bytes_before[n] * hash_ticks_per_byte,
        cycle_completed=True,
    )
    _check_positions(machine, table, 0, n, now, hash_ticks_per_byte, report.violations)
    violation = verify_idtr(machine, table, now=now + report.duration)
    if violation is not None:
        report.violations.append(violation)
    return report
