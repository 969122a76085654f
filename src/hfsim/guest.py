"""Simulated guest machine: paged physical memory, IDT, IDTR, kernel objects.

Every guest-initiated write goes through :meth:`GuestMachine.guest_write`,
which consults the hypervisor's protection registry and vetoes the write
whole if it touches any protected page. Reads are never mediated. A
privileged write path exists for hypervisor-side setup (module loading)
and for test harnesses that need to model bugs bypassing protection.

Memory is sparse: a page is materialised on its first write, and pages
never written read as zeros. Kernel objects are registered as runs of
equal-length objects at a fixed stride, so registering, finding and
counting the pages of objects is arithmetic, whatever their number.
Every applied write also records which registered objects it touched, so
checkers can skip objects whose bytes cannot have changed.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

from .errors import AddressError, ConfigurationError
from .hypervisor import ProtectionRegistry, TrapKind, TrapRecord
from .timebase import Ticks

IDT_ENTRY_SIZE = 8
MIN_PAGE_SIZE = 64


@dataclass(frozen=True)
class Idtr:
    """Interrupt descriptor table register: base address and byte length."""

    base: int
    limit: int

    @property
    def vector_count(self) -> int:
        return self.limit // IDT_ENTRY_SIZE


@dataclass(frozen=True)
class KernelObjectDescriptor:
    """A registered invariant kernel object: a guest-physical range."""

    object_id: int
    addr: int
    length: int


class ObjectRun(NamedTuple):
    """`count` objects of `length` bytes at `base + i*stride`, ids from `first_id`."""

    first_id: int
    base: int
    stride: int
    length: int
    count: int

    def overlapping(self, addr: int, end: int) -> range:
        """Ids of the run's objects intersecting [addr, end)."""
        lo = max((addr - self.base - self.length) // self.stride + 1, 0)
        hi = min(-((self.base - end) // self.stride), self.count)
        return range(self.first_id + lo, self.first_id + max(lo, hi))


class _ObjectView(Mapping):
    """Read-only {id: KernelObjectDescriptor} over a machine's object runs.

    It shares the machine's run lists rather than the machine, so a
    machine is freed as soon as its last user drops it, without waiting
    for the cyclic garbage collector.
    """

    def __init__(self, runs: list[ObjectRun], run_starts: list[int]):
        self._runs = runs
        self._run_starts = run_starts

    def __len__(self) -> int:
        return self._runs[-1].first_id + self._runs[-1].count if self._runs else 0

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self)))

    def __getitem__(self, oid: int) -> KernelObjectDescriptor:
        if not 0 <= oid < len(self):
            raise KeyError(oid)
        run = self._runs[bisect_right(self._run_starts, oid) - 1]
        return KernelObjectDescriptor(
            oid, run.base + (oid - run.first_id) * run.stride, run.length
        )


@dataclass(frozen=True)
class ModuleRegion:
    """Pages holding the in-guest monitoring module's code and data.

    The region is page-aligned at both ends because protection is
    page-granular; the IDT entry at ``handler_vector`` points into it.
    """

    addr: int
    length: int
    handler_vector: int

    @property
    def end(self) -> int:
        return self.addr + self.length

    def contains(self, addr: int) -> bool:
        return self.addr <= addr < self.end

    def page_range(self, page_size: int) -> range:
        return range(self.addr // page_size, (self.end - 1) // page_size + 1)


@dataclass(frozen=True)
class WriteOutcome:
    """Result of a mediated write: applied, or trapped with a record.

    A trapped write leaves memory completely unchanged, even when the
    write span also covered unprotected pages.
    """

    applied: bool
    trap: Optional[TrapRecord] = None

    @property
    def trapped(self) -> bool:
        return not self.applied


class GuestMachine:
    """Guest-physical memory plus the architectural state this model needs."""

    def __init__(self, page_count: int, page_size: int = 4096):
        if page_count < 1:
            raise ConfigurationError(f"page_count must be >= 1, got {page_count}")
        if page_size < MIN_PAGE_SIZE or page_size & (page_size - 1) != 0:
            raise ConfigurationError(
                f"page_size must be a power of two >= {MIN_PAGE_SIZE}, got {page_size}"
            )
        self.page_count = page_count
        self.page_size = page_size
        self.size = page_count * page_size  # bytes of guest-physical memory
        self._pages: dict[int, bytearray] = {}  # materialised pages by index
        self.idtr = Idtr(0, 0)  # unset sentinel
        # registered objects, as runs in id order
        self.runs: list[ObjectRun] = []
        self._run_starts: list[int] = []  # first id of each run
        self.object_count = 0
        self.objects: Mapping[int, KernelObjectDescriptor] = _ObjectView(
            self.runs, self._run_starts
        )
        self.module: Optional[ModuleRegion] = None
        # ids of objects any applied write has overlapped, as a set and in
        # first-touch order; an object outside it still holds the bytes it
        # had when registered
        self.touched: set[int] = set()
        self.touch_log: list[int] = []

    # ------------------------------------------------------------------
    # memory access
    # ------------------------------------------------------------------

    def _check_range(self, addr: int, length: int) -> None:
        if addr < 0 or length < 0 or addr + length > self.size:
            raise AddressError(
                f"range [{addr}, {addr + length}) outside memory of {self.size} bytes"
            )

    def read(self, addr: int, length: int) -> bytes:
        """Unmediated read; protection never affects reads."""
        self._check_range(addr, length)
        ps = self.page_size
        index, offset = divmod(addr, ps)
        if offset + length <= ps:
            page = self._pages.get(index)
            return bytes(length) if page is None else bytes(page[offset : offset + length])
        out = bytearray(length)
        for pos, index, offset, n in self._spans(addr, length):
            page = self._pages.get(index)
            if page is not None:
                out[pos : pos + n] = page[offset : offset + n]
        return bytes(out)

    def _spans(self, addr: int, length: int) -> Iterator[tuple[int, int, int, int]]:
        """(position in the range, page index, offset in page, byte count) per page."""
        pos = 0
        while pos < length:
            index, offset = divmod(addr + pos, self.page_size)
            n = min(self.page_size - offset, length - pos)
            yield pos, index, offset, n
            pos += n

    def guest_write(
        self,
        reg: ProtectionRegistry,
        addr: int,
        data: bytes,
        now: Ticks = 0,
    ) -> WriteOutcome:
        """Mediated write: vetoed whole if any touched page is protected."""
        self._check_range(addr, len(data))
        if data:
            first = addr // self.page_size
            last = (addr + len(data) - 1) // self.page_size
            hit = [p for p in range(first, last + 1) if reg.is_protected(p)]
            if hit:
                trap = reg.record_trap(
                    time=now,
                    addr=addr,
                    length=len(data),
                    page=hit[0],
                    kind=self._classify_write(addr, len(data)),
                )
                return WriteOutcome(applied=False, trap=trap)
        self._store(addr, data)
        return WriteOutcome(applied=True)

    def privileged_write(self, addr: int, data: bytes) -> None:
        """Hypervisor-side write; bypasses the protection check."""
        self._check_range(addr, len(data))
        self._store(addr, data)

    def _store(self, addr: int, data: bytes) -> None:
        for pos, index, offset, n in self._spans(addr, len(data)):
            page = self._pages.get(index)
            if page is None:
                page = self._pages[index] = bytearray(self.page_size)
            page[offset : offset + n] = data[pos : pos + n]
        for oid in self.objects_overlapping(addr, len(data)):
            if oid not in self.touched:
                self.touched.add(oid)
                self.touch_log.append(oid)

    def _classify_write(self, addr: int, length: int) -> TrapKind:
        end = addr + length
        if self.module is not None and addr < self.module.end and end > self.module.addr:
            return TrapKind.MODULE_CODE_WRITE
        if self.idtr.limit > 0:
            idt_end = self.idtr.base + self.idtr.limit
            if addr < idt_end and end > self.idtr.base:
                return TrapKind.IDT_WRITE
        return TrapKind.OTHER_PROTECTED_WRITE

    # ------------------------------------------------------------------
    # IDT / IDTR
    # ------------------------------------------------------------------

    def set_idtr(self, base: int, limit: int, privileged: bool = False) -> None:
        """Update the IDTR.

        Non-privileged updates model an attacker moving the table: they are
        applied silently (a register write traps nothing) and are only
        caught later by the IDTR baseline check.
        """
        if limit < 0 or limit % IDT_ENTRY_SIZE != 0:
            raise ConfigurationError(
                f"idtr limit must be a non-negative multiple of {IDT_ENTRY_SIZE}"
            )
        self._check_range(base, limit)
        self.idtr = Idtr(base, limit)

    def idt_pages(self) -> range:
        if self.idtr.limit == 0:
            return range(0)
        first = self.idtr.base // self.page_size
        last = (self.idtr.base + self.idtr.limit - 1) // self.page_size
        return range(first, last + 1)

    def _vector_addr(self, vector: int) -> int:
        if vector < 0 or vector >= self.idtr.vector_count:
            raise ConfigurationError(
                f"vector {vector} outside IDT of {self.idtr.vector_count} entries"
            )
        return self.idtr.base + IDT_ENTRY_SIZE * vector

    def set_idt_entry(
        self,
        vector: int,
        handler_addr: int,
        reg: Optional[ProtectionRegistry] = None,
        now: Ticks = 0,
        privileged: bool = False,
    ) -> WriteOutcome:
        """Write the 8-byte little-endian handler address for a vector.

        The guest path is an ordinary mediated write, so it traps once the
        IDT page is protected. The privileged path (module loading) always
        applies.
        """
        entry_addr = self._vector_addr(vector)
        if handler_addr < 0 or handler_addr >= 1 << 64:
            raise ConfigurationError("handler address does not fit in 8 bytes")
        encoded = handler_addr.to_bytes(IDT_ENTRY_SIZE, "little")
        if privileged:
            self.privileged_write(entry_addr, encoded)
            return WriteOutcome(applied=True)
        if reg is None:
            raise ConfigurationError("guest IDT write requires the protection registry")
        return self.guest_write(reg, entry_addr, encoded, now=now)

    def idt_entry(self, vector: int) -> int:
        """Read the handler address for a vector through the current IDTR."""
        entry_addr = self._vector_addr(vector)
        return int.from_bytes(self.read(entry_addr, IDT_ENTRY_SIZE), "little")

    # ------------------------------------------------------------------
    # module and kernel objects
    # ------------------------------------------------------------------

    def load_module(self, code: bytes, addr: int, handler_vector: int) -> ModuleRegion:
        """Install the monitoring module and point its vector at it.

        The code write and the IDT entry update are privileged: loading
        happens during the trusted setup phase. Reloading at the same (or
        another) address replaces the previous region.
        """
        if not code:
            raise ConfigurationError("module code must be non-empty")
        if addr % self.page_size != 0:
            raise ConfigurationError(f"module address {addr} is not page-aligned")
        if self.idtr.limit == 0:
            raise ConfigurationError("IDT must be placed before loading the module")
        pages = -(-len(code) // self.page_size)
        length = pages * self.page_size
        self._check_range(addr, length)
        region = ModuleRegion(addr=addr, length=length, handler_vector=handler_vector)
        self._vector_addr(handler_vector)  # validates the vector
        for page in region.page_range(self.page_size):
            if page in self.idt_pages():
                raise ConfigurationError(
                    "module region may not share pages with the IDT"
                )
        overlap = self.objects_overlapping(region.addr, region.length)
        if overlap:
            raise ConfigurationError(f"module region overlaps object {overlap[0]}")
        self.privileged_write(addr, code)
        self.set_idt_entry(handler_vector, addr, privileged=True)
        self.module = region
        return region

    def register_kernel_object(
        self, name: str, addr: int, length: int, count: int = 1,
        stride: Optional[int] = None,
    ) -> int:
        """Register `count` objects of `length` bytes at `addr + i*stride`.

        `stride` defaults to `length` (packed). Ids are sequential; returns
        the first. `name` serves error messages only.
        """
        if length <= 0:
            raise ConfigurationError(f"object length must be positive, got {length}")
        if count < 1:
            raise ConfigurationError(f"object count must be >= 1, got {count}")
        if stride is None:
            stride = length
        elif stride < 1:
            raise ConfigurationError(f"object stride must be >= 1, got {stride}")
        self._check_range(addr, (count - 1) * stride + length)
        run = ObjectRun(self.object_count, addr, stride, length, count)
        if self.module is not None and run.overlapping(self.module.addr, self.module.end):
            raise ConfigurationError(f"object {name!r} overlaps the module region")
        self.runs.append(run)
        self._run_starts.append(run.first_id)
        self.object_count += count
        return run.first_id

    def objects_overlapping(self, addr: int, length: int) -> list[int]:
        """Ids of registered objects intersecting [addr, addr+length)."""
        if length <= 0:
            return []
        ids: list[int] = []
        for run in self.runs:
            ids.extend(run.overlapping(addr, addr + length))
        return ids

    def objects_on_written_pages(self) -> set[int]:
        """Ids of objects on materialised pages; every other object reads as zeros."""
        ps = self.page_size
        ids: set[int] = set()
        for page in self._pages:
            ids.update(self.objects_overlapping(page * ps, ps))
        return ids

    def object_pages(self, start: int, stop: int) -> int:
        """Distinct pages occupied by the objects start..stop-1, ids taken modulo the count.

        A window that runs past the last id wraps to id 0 and covers two id
        spans. Pure arithmetic on the runs. Within a run whose gap (stride -
        length) is under a page, a contiguous range of objects covers one
        contiguous interval of pages; objects whose gap is a page or more
        share no pages, and their per-object page counts are summed in
        closed form. Pieces whose page intervals overlap are merged; only a
        sparse run interleaved with another run's pages is enumerated
        object by object.
        """
        ps, n = self.page_size, self.object_count
        if stop <= n:
            first_id, base, stride, length, count = self.runs[
                bisect_right(self._run_starts, start) - 1
            ]
            lo, hi = start - first_id, stop - first_id
            if hi <= count and (hi - lo == 1 or stride - length < ps):
                # one piece: a contiguous interval of pages
                return ((base + (hi - 1) * stride + length - 1) // ps
                        - (base + lo * stride) // ps + 1)
            spans = ((start, stop),)
        else:
            spans = ((start, n), (0, stop - n))
        pieces = []  # (first page, last page, page count, sparse objects or None)
        for start, stop in spans:
            for run in self.runs:
                lo = max(start - run.first_id, 0)
                hi = min(stop - run.first_id, run.count)
                if lo >= hi:
                    continue
                first = (run.base + lo * run.stride) // ps
                last = (run.base + (hi - 1) * run.stride + run.length - 1) // ps
                if hi - lo == 1 or run.stride - run.length < ps:
                    pieces.append((first, last, last - first + 1, None))
                else:
                    pieces.append((first, last, _sparse_pages(run, lo, hi, ps), (run, lo, hi)))
        if len(pieces) == 1:
            return pieces[0][2]
        total, group, group_last = 0, [], -1
        for piece in sorted(pieces, key=lambda piece: piece[0]):
            if group and piece[0] > group_last:
                total += _group_pages(group, group_last, ps)
                group = []
            group.append(piece)
            group_last = max(group_last, piece[1])
        return total + _group_pages(group, group_last, ps)

    # ------------------------------------------------------------------
    # snapshot export
    # ------------------------------------------------------------------

    def snapshot(self) -> bytes:
        """Full memory image (used by veto-atomicity and golden-file tests)."""
        return self.read(0, self.size)


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum(floor((a*i + b) / m) for i in range(n)) for non-negative a, b."""
    total = 0
    while n:
        q, a = divmod(a, m)
        total += q * n * (n - 1) // 2
        q, b = divmod(b, m)
        total += q * n
        y = a * n + b
        if y < m:
            break
        n, b = divmod(y, m)
        m, a = a, m
    return total


def _sparse_pages(run: ObjectRun, lo: int, hi: int, ps: int) -> int:
    """Summed page counts of objects lo..hi-1 of a run, each a page or more apart."""
    n, addr = hi - lo, run.base + lo * run.stride
    return n + (_floor_sum(n, ps, run.stride, addr + run.length - 1)
                - _floor_sum(n, ps, run.stride, addr))


def _group_pages(group: list, last: int, ps: int) -> int:
    """Distinct pages of pieces whose page intervals chain into one span."""
    if len(group) == 1:
        return group[0][2]
    if all(sparse is None for *_, sparse in group):
        return last - group[0][0] + 1
    pages: set[int] = set()
    for first, piece_last, _, sparse in group:
        if sparse is None:
            pages.update(range(first, piece_last + 1))
            continue
        run, lo, hi = sparse
        for i in range(lo, hi):
            addr = run.base + i * run.stride
            pages.update(range(addr // ps, (addr + run.length - 1) // ps + 1))
    return len(pages)
