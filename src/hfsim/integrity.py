"""Digest-based invariance checking over registered kernel objects.

A baseline table snapshots one digest per object (plus the IDTR value)
while the machine is still trusted. Checking compares current digests
against the baseline, either over everything at once (the in-guest sweep)
or over a round-robin batch per call (the in-hypervisor path). The hash is
64-bit FNV-1a behind a pluggable digest function; digest-collision forgery
is out of scope for this model.

A check costs O(touched objects in its range), not O(objects checked).
The guest keeps the sorted ids of every object a write has touched; an
untouched object still holds its baseline bytes, so only touched objects
are rehashed. Every object has the layout's one length, so the simulated
hash cost and each violation's timestamp are that length times a count
of objects, never a walk over the range.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Union

from .errors import ConfigurationError, positive, require
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


@dataclass(slots=True)
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


class _Baselines(Mapping):
    """Read-only {id: baseline digest}: one default digest plus overrides."""

    def __init__(self, default: int, overrides: dict[int, int], count: int):
        self._default = default
        self._overrides = overrides
        self._count = count

    def __len__(self) -> int:
        return self._count

    def __iter__(self):
        return iter(range(self._count))

    def __getitem__(self, oid: int) -> int:
        digest = self._overrides.get(oid)
        if digest is not None:
            return digest
        if not 0 <= oid < self._count:
            raise KeyError(oid)
        return self._default


class BaselineTable:
    """Per-object baseline digests plus the round-robin check cursor.

    Objects are checked in id order. An object the guest has not touched
    since the snapshot is taken to still match its baseline digest.
    """

    def __init__(
        self,
        entries: Mapping[int, int],
        idtr_baseline: tuple[int, int],
        digest_fn: DigestFn = compute_digest,
    ):
        self.entries = entries
        self.idtr_baseline = idtr_baseline
        self.digest_fn = digest_fn
        self.cursor = 0

    def __len__(self) -> int:
        return len(self.entries)

    def current_digest(self, machine: "GuestMachine", object_id: int) -> int:
        """Digest of the object's current bytes; untouched objects are not read."""
        if object_id not in machine.touched:
            return self.entries[object_id]
        obj = machine.objects[object_id]
        return self.digest_fn(machine.read(obj.addr, obj.length))


def snapshot_baselines(
    machine: "GuestMachine", digest_fn: DigestFn = compute_digest
) -> BaselineTable:
    """Digest every registered object and snapshot the IDTR; cursor = 0.

    Meant to run during the trusted setup phase, before any attacker event.
    Only objects on materialised pages are read; every other object holds
    zeros and shares one digest of `bytes(length)`. Identical object
    contents share one digest computation.
    """
    layout = machine.objects
    if not layout:
        raise ConfigurationError("cannot snapshot baselines: no objects registered")
    memo: dict[bytes, int] = {}

    def digest(data: bytes) -> int:
        value = memo.get(data)
        if value is None:
            value = memo[data] = digest_fn(data)
        return value

    overrides = {}
    for oid in sorted(machine.objects_on_written_pages()):
        obj = layout[oid]
        overrides[oid] = digest(machine.read(obj.addr, obj.length))
    n, length = layout.count, layout.length
    return BaselineTable(
        entries=_Baselines(digest(bytes(length)), overrides, n),
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


def _check_ids(
    machine: "GuestMachine",
    table: BaselineTable,
    start: int,
    stop: int,
    time_at_start: Ticks,
    ticks_per_object: Ticks,
    violations: list,
) -> None:
    """Rehash the touched objects with ids in [start, stop).

    A violation is stamped when its object's hash ends: `time_at_start`
    plus the hash time of every object from `start` up to and including it.
    """
    touched = machine.touched_ids
    for i in range(bisect_left(touched, start), bisect_left(touched, stop)):
        oid = touched[i]
        found = table.current_digest(machine, oid)
        expected = table.entries[oid]
        if found != expected:
            time = time_at_start + (oid + 1 - start) * ticks_per_object
            violations.append(Violation(target=oid, expected=expected, found=found, time=time))


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
    require("batch size", positive(k))
    n = len(table)
    k_eff = min(k, n)
    cursor, end = table.cursor, table.cursor + k_eff
    per_object = machine.objects.length * hash_ticks_per_byte
    report = CheckReport(objects_checked=k_eff, duration=k_eff * per_object,
                         cycle_completed=end >= n)
    _check_ids(machine, table, cursor, min(end, n), now, per_object, report.violations)
    if end > n:  # the batch wraps to id 0 once the tail's objects are hashed
        _check_ids(machine, table, 0, end - n, now + (n - cursor) * per_object,
                   per_object, report.violations)
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
    n = len(table)
    per_object = machine.objects.length * hash_ticks_per_byte
    report = CheckReport(objects_checked=n, duration=n * per_object, cycle_completed=True)
    _check_ids(machine, table, 0, n, now, per_object, report.violations)
    violation = verify_idtr(machine, table, now=now + report.duration)
    if violation is not None:
        report.violations.append(violation)
    return report
