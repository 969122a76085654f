"""Simulated guest machine: paged physical memory, IDT, IDTR, kernel objects.

A guest write goes through :meth:`GuestMachine.guest_write`, which
consults the hypervisor's protection registry and vetoes the write whole
if it touches any protected page, unless it is one object byte on an
open page: only module and IDT pages are ever protected, and no object
shares one, so :meth:`GuestMachine.store_byte` stores it in place. Reads
are never mediated. A privileged write path serves the trusted set-up
(module loading) and models writes that bypass protection. The machine
takes its layout and attacks as given: the planner (`simulation.plan_layout`
and `plan_attacks`) checks each of their facts once. The machine keeps
only its address rule: an access outside memory is an AddressError.

Memory is sparse: a page is materialised on its first write, and pages
never written read as zeros. A machine's kernel objects are one layout of
equal-length objects at a fixed stride, less than a page apart, registered
once: object i lies at `base + i*stride`. Finding an object's address, the
objects a range overlaps and the pages of a range of them is arithmetic,
whatever their number. The machine keeps no record of which objects a
write touched: a write's caller records them in the baseline table.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import AddressError, positive, require
from .hypervisor import ProtectionRegistry, TrapKind, TrapRecord
from .timebase import Ticks

IDT_ENTRY_SIZE = 8
MIN_PAGE_SIZE = 64
MAX_PAGE_SIZE = 1 << 16  # a written page is held whole: host memory is written pages x this


def page_size_problem(page_size: int) -> Optional[str]:
    """Why `page_size` cannot size a machine's pages, or None if it can."""
    if page_size < MIN_PAGE_SIZE or page_size & (page_size - 1) != 0:
        return f"must be a power of two >= {MIN_PAGE_SIZE}, got {page_size}"
    if page_size > MAX_PAGE_SIZE:
        return f"must be at most {MAX_PAGE_SIZE}, got {page_size}"
    return None


def handler_problem(handler_addr: int) -> Optional[str]:
    """Why `handler_addr` cannot be an IDT entry's handler, or None if it can."""
    return None if 0 <= handler_addr < 1 << 64 else "does not fit in 8 bytes"


def idtr_limit_problem(limit: int) -> Optional[str]:
    """Why `limit` cannot be an IDTR limit, or None if it can."""
    whole = limit >= 0 and limit % IDT_ENTRY_SIZE == 0
    return None if whole else f"must be a non-negative multiple of {IDT_ENTRY_SIZE}"


@dataclass(frozen=True)
class Idtr:
    """Interrupt descriptor table register: base address and byte length."""

    base: int
    limit: int

    @property
    def vector_count(self) -> int:
        return self.limit // IDT_ENTRY_SIZE


@dataclass(frozen=True, slots=True)
class ObjectLayout:
    """`count` objects of `length` bytes at `base + i*stride`; object i has id i.

    Consecutive objects lie less than a page apart (stride - length < page
    size), so any range of consecutive ids covers one contiguous interval
    of pages.
    """

    base: int
    stride: int
    length: int
    count: int

    def addr(self, oid: int) -> int:
        """The address of object `oid`'s first byte."""
        return self.base + oid * self.stride

    def overlapping(self, addr: int, end: int) -> range:
        """Ids of the objects intersecting [addr, end); an empty range may start past its stop."""
        lo = (addr - self.base - self.length) // self.stride + 1
        hi = -((self.base - end) // self.stride) if end > addr else 0  # none if empty
        return range(lo if lo > 0 else 0, hi if hi < self.count else self.count)


_NO_OBJECTS = ObjectLayout(0, 1, 1, 0)  # a machine's layout until one is registered


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


APPLIED = WriteOutcome(applied=True)  # every applied write's outcome


class GuestMachine:
    """Guest-physical memory plus the architectural state this model needs."""

    def __init__(self, page_count: int, page_size: int = 4096):
        require("page_count", positive(page_count))
        require("page_size", page_size_problem(page_size))
        self.page_count = page_count
        self.page_size = page_size
        self.size = page_count * page_size  # bytes of guest-physical memory
        self._pages: dict[int, bytearray] = {}  # materialised pages by index
        self.idtr = Idtr(0, 0)  # unset sentinel
        self.objects = _NO_OBJECTS  # replaced once, by register_kernel_object
        self.module: Optional[ModuleRegion] = None

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
            first, protected = addr // self.page_size, reg.protected_pages
            last = (addr + len(data) - 1) // self.page_size
            if first == last:  # the first protected page the write touches, if any
                hit = first if first in protected else None
            else:
                hit = next((p for p in range(first, last + 1) if p in protected), None)
            if hit is not None:
                trap = TrapRecord(now, addr, len(data), hit, self._classify_write(addr, len(data)))
                reg.trap_log.append(trap)
                return WriteOutcome(applied=False, trap=trap)
        self._store(addr, data)
        return APPLIED

    def privileged_write(self, addr: int, data: bytes) -> None:
        """Hypervisor-side write; bypasses the protection check."""
        self._check_range(addr, len(data))
        self._store(addr, data)

    def _store(self, addr: int, data: bytes) -> None:
        ps, pages, pos, end = self.page_size, self._pages, 0, len(data)
        while pos < end:  # a page at a time; a write within one page takes one step
            index, offset = divmod(addr + pos, ps)
            n = min(ps - offset, end - pos)
            page = pages.get(index)
            if page is None:
                page = pages[index] = bytearray(ps)
            page[offset : offset + n] = data[pos : pos + n]
            pos += n

    def store_byte(self, addr: int, value: int) -> None:
        """Unmediated store of one byte."""
        index, offset = divmod(addr, self.page_size)
        pages = self._pages
        (pages.get(index) or pages.setdefault(index, bytearray(self.page_size)))[offset] = value

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

    def set_idtr(self, base: int, limit: int) -> None:
        """Update the IDTR.

        A register write traps nothing, so an attacker moving the table is
        applied silently and only caught later by the IDTR baseline check.
        """
        self.idtr = Idtr(base, limit)

    def idt_pages(self) -> range:
        if self.idtr.limit == 0:
            return range(0)
        first = self.idtr.base // self.page_size
        last = (self.idtr.base + self.idtr.limit - 1) // self.page_size
        return range(first, last + 1)

    def vector_addr(self, vector: int) -> Optional[int]:
        """`vector`'s entry address through the current IDTR, or None if the table lacks it."""
        idtr = self.idtr
        return idtr.base + IDT_ENTRY_SIZE * vector if 0 <= vector < idtr.vector_count else None

    def idt_entry(self, vector: int) -> Optional[int]:
        """The handler at `vector` through the current IDTR, or None if the table lacks it."""
        entry = self.vector_addr(vector)
        return None if entry is None else int.from_bytes(self.read(entry, IDT_ENTRY_SIZE), "little")

    # ------------------------------------------------------------------
    # module and kernel objects
    # ------------------------------------------------------------------

    def load_module(self, code: bytes, addr: int, handler_vector: int) -> ModuleRegion:
        """Install the monitoring module and point its vector at it.

        The code write and the IDT entry update are privileged: loading
        happens during the trusted setup phase. Reloading at the same (or
        another) address replaces the previous region. It assumes what
        `simulation.plan_layout` checks: the code is non-empty and
        page-aligned on pages of its own, and the IDT holds `handler_vector`.
        """
        length = -(-len(code) // self.page_size) * self.page_size
        self.privileged_write(addr, code)
        self.privileged_write(self.vector_addr(handler_vector),
                              addr.to_bytes(IDT_ENTRY_SIZE, "little"))
        self.module = ModuleRegion(addr=addr, length=length, handler_vector=handler_vector)
        return self.module

    def register_kernel_object(
        self, addr: int, length: int, count: int = 1, stride: Optional[int] = None,
    ) -> None:
        """Register the machine's `count` objects of `length` bytes at `addr + i*stride`.

        `stride` defaults to `length` (packed). Object i has id i. It
        assumes what `simulation.plan_layout` checks: one positive layout,
        objects less than a page apart, inside memory and off the module's
        and the IDT's pages.
        """
        self.objects = ObjectLayout(addr, length if stride is None else stride, length, count)

    def object_pages(self, start: int, stop: int) -> int:
        """Distinct pages occupied by the objects start..stop-1, ids taken modulo the count.

        Consecutive objects cover one interval of pages. A window that runs
        past the last id wraps to id 0: two intervals, less the pages they
        share. Pure arithmetic on the layout.
        """
        ps, layout = self.page_size, self.objects
        base, stride, n = layout.base, layout.stride, layout.count
        end = base + layout.length - 1  # the last byte of object 0
        first = (base + start * stride) // ps
        if stop <= n:
            return (end + (stop - 1) * stride) // ps - first + 1
        last = (end + (n - 1) * stride) // ps
        wrap_last = (end + (stop - n - 1) * stride) // ps  # ids 0..stop-n-1, below start
        return (last - first + 1) + (wrap_last - base // ps + 1) - max(wrap_last - first + 1, 0)

    def uniform_window_pages(self, k: int) -> Optional[int]:
        """The pages every window of k consecutive ids maps, the wrapping ones too, or None.

        k is at most the object count. None unless that count is the same
        for every window, as when each object lies alone on a whole number
        of pages (every `spread` layout). A window's count depends only on
        where its first object starts within a page, which repeats every
        page_size / gcd(stride, page_size) ids, so one such period of the
        windows that end at or before the last id and one of those that
        wrap decide it.
        """
        n = self.objects.count
        period = self.page_size // math.gcd(self.objects.stride, self.page_size)
        whole = n - k + 1  # windows that end at or before id n - 1
        counts = {self.object_pages(start, start + k) for start in itertools.chain(
            range(min(whole, period)), range(whole, min(n, whole + period)))}
        return counts.pop() if len(counts) == 1 else None
