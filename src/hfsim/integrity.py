"""Digest-based invariance checking over registered kernel objects.

A baseline table snapshots one digest per object (plus the IDTR value)
while the machine is still trusted. Checking compares current digests
against the baseline, either over everything at once (the in-guest sweep)
or over a round-robin batch per call (the in-hypervisor path). The hash is
64-bit FNV-1a behind a pluggable digest function; digest-collision forgery
is out of scope for this model.

A check returns only what it found: how many targets in its range
diverged, and a violation (the target, and when its hash ended) for each
of them its caller has not reported yet. What it covered and what it
cost follow from its window and the cost model, which the caller holds.
A check costs O(diverged objects in its range), not O(objects checked).
The table records the `current_digest` of each object a write overlaps,
the engine's at once and others as a check folds `written`, and keeps those
that differ from their baseline; a check reads their ids and digests none.
Folding digests each distinct object content once: the table memoises
{content: digest}, seeded by the snapshot, so a write of bytes seen
before (the same patch in another object, a restore to the baseline)
costs a dict lookup. The memo holds at most MEMO_ENTRIES contents and
MEMO_BYTES of their bytes, and is cleared when full. Every object has
the layout's one length, so the simulated hash cost and each violation's
timestamp are that length times a count of objects, never a walk over
the range.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Container
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional, Union

from .timebase import Ticks

if TYPE_CHECKING:
    from .guest import GuestMachine

FNV64_OFFSET_BASIS = 0xCBF29CE484222325
FNV64_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

IDTR_TARGET = "idtr"
HANDLER_TARGET = "handler"

DigestFn = Callable[[bytes], int]

# the most contents, and the most of their bytes, that a table's content
# memo holds: 4,096 contents of up to 64 B, 64 contents of 4 KiB
MEMO_ENTRIES = 4096
MEMO_BYTES = 256 * 1024


def compute_digest(data: bytes) -> int:
    """64-bit FNV-1a over the byte sequence."""
    h = FNV64_OFFSET_BASIS
    for b in data:
        h = ((h ^ b) * FNV64_PRIME) & _MASK64
    return h


@dataclass(slots=True)
class Violation:
    """A checked target that differs from its baseline, and when the check found it."""

    target: Union[int, str]
    time: Ticks


@dataclass(slots=True)
class CheckReport:
    """What one check found.

    The same type serves a batch (`check_batch`) and a sweep (`check_all`,
    or a forced interrupt whose sweep was refused because its dispatch was
    `subverted`). `diverged` counts every checked target that differs from
    its baseline; `violations` holds those of them not in the check's
    `skip`, in check order.
    """

    violations: list = field(default_factory=list)
    diverged: int = 0
    subverted: bool = False


class BaselineTable:
    """Per-object baseline digests, the diverged objects, and the round-robin cursor.

    Objects are checked in id order. Every one of the `count` objects has
    the baseline `default`, unless `overrides` ({id: digest}, the objects
    on pages written before the snapshot) names another; `baseline` reads
    them. `diverged` maps each object whose digest differs from its
    baseline to its current digest, and `diverged_ids` holds its ids
    sorted. A machine feeds one live table: folding drains the machine's
    `written`, which no other table then sees. `digest` calls `digest_fn`
    once per distinct content while the memo holds it.
    """

    def __init__(
        self, count: int, idtr_baseline: tuple[int, int], digest_fn: DigestFn = compute_digest,
    ):
        self.count = count
        self.default: Optional[int] = None  # set by the snapshot
        self.overrides: dict[int, int] = {}
        self.idtr_baseline = idtr_baseline
        self.digest_fn = digest_fn
        self.cursor = 0
        self.diverged: dict[int, int] = {}
        self.diverged_ids: list[int] = []
        self._memo: dict[bytes, int] = {}

    def baseline(self, oid: int) -> int:
        """Object `oid`'s baseline digest."""
        return self.overrides.get(oid, self.default)

    def digest(self, data: bytes) -> int:
        """digest_fn(data), memoised; a full memo is cleared first."""
        memo = self._memo
        value = memo.get(data)
        if value is None:
            if len(memo) >= MEMO_ENTRIES or len(memo) * len(data) >= MEMO_BYTES:
                memo.clear()
            value = memo[data] = self.digest_fn(data)
        return value

    def record(self, oid: int, digest: int) -> bool:
        """Note `digest` as object `oid`'s current one; return whether it is the baseline."""
        if digest == self.baseline(oid):
            if self.diverged.pop(oid, None) is not None:
                del self.diverged_ids[bisect_left(self.diverged_ids, oid)]
            return True
        if oid not in self.diverged:
            insort(self.diverged_ids, oid)
        self.diverged[oid] = digest
        return False

    def current_digest(self, machine: "GuestMachine", oid: int) -> int:
        """Digest of object `oid`'s current bytes: one read, digested through the memo."""
        layout = machine.objects
        return self.digest(machine.read(layout.addr(oid), layout.length))

    def fold(self, machine: "GuestMachine") -> list[int]:
        """Record the objects written since the last fold; return the diverged ids."""
        for oid in machine.written:
            self.record(oid, self.current_digest(machine, oid))
        machine.written.clear()
        return self.diverged_ids


def snapshot_baselines(
    machine: "GuestMachine", digest_fn: DigestFn = compute_digest
) -> BaselineTable:
    """Digest every registered object and snapshot the IDTR; cursor = 0.

    Meant to run during the trusted setup phase, before any attacker event,
    on a machine whose planned layout registered at least one object.
    Only objects on materialised pages are read, into the table's
    `overrides`; every other object holds zeros and shares the `default`
    digest of `bytes(length)`. The digests go through the table's content
    memo, so identical contents share one digest_fn call, and a later write
    back to baseline bytes costs none.
    """
    layout = machine.objects
    table = BaselineTable(layout.count, (machine.idtr.base, machine.idtr.limit), digest_fn)
    for oid in sorted(machine.objects_on_written_pages()):
        table.overrides[oid] = table.current_digest(machine, oid)
    machine.written.clear()  # writes made so far are in the baselines
    table.default = table.digest(bytes(layout.length))
    return table


def _check_window(
    machine: "GuestMachine", table: BaselineTable, start: int, k: int,
    hash_ticks_per_byte: Ticks, now: Ticks, skip: Container,
) -> CheckReport:
    """Check the k objects from id `start` on, wrapping past the last id to id 0.

    They hash in that order from `now`, and a violation is stamped when its
    object's hash ends. Whenever the window covers the last id a cycle has
    completed and the IDTR rides along as a pseudo-object. Targets in
    `skip` are counted in `diverged` but get no violation.
    """
    n, end = table.count, start + k
    per_object = machine.objects.length * hash_ticks_per_byte
    report = CheckReport()
    diverged = table.fold(machine)
    # the diverged ids in [start, n), then in [0, end - n) past the wrap
    for lo, hi, first in ((start, min(end, n), start), (0, end - n, start - n)):
        ids = diverged[bisect_left(diverged, lo):bisect_left(diverged, hi)]
        report.diverged += len(ids)
        report.violations += [Violation(oid, now + (oid + 1 - first) * per_object)
                              for oid in ids if oid not in skip]
    if end >= n and (machine.idtr.base, machine.idtr.limit) != table.idtr_baseline:
        report.diverged += 1
        if IDTR_TARGET not in skip:
            report.violations.append(Violation(IDTR_TARGET, now + k * per_object))
    return report


def check_batch(
    machine: "GuestMachine",
    table: BaselineTable,
    k: int,
    hash_ticks_per_byte: Ticks = 0,
    now: Ticks = 0,
    skip: Container = frozenset(),
) -> CheckReport:
    """Check the next k objects from the cursor (wrapping), advance it.

    k is at least 1 (`StrategyConfig` checks `batch_k`) and saturates at
    the object count, so k >= N is one full pass. Targets in `skip` get
    no violation.
    """
    k = min(k, table.count)
    report = _check_window(machine, table, table.cursor, k, hash_ticks_per_byte, now, skip)
    table.cursor = (table.cursor + k) % table.count
    return report


def check_all(
    machine: "GuestMachine",
    table: BaselineTable,
    hash_ticks_per_byte: Ticks = 0,
    now: Ticks = 0,
    skip: Container = frozenset(),
) -> CheckReport:
    """Check every object once plus the IDTR; the cursor is untouched.

    Targets in `skip` get no violation.
    """
    return _check_window(machine, table, 0, table.count, hash_ticks_per_byte, now, skip)
