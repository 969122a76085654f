"""Hypervisor-side authority: page protection, traps, and the device schedule.

The hypervisor outranks the guest kernel. It owns the set of write-protected
pages and the trap log, it owns the firing schedule of the virtual interrupt
device, which the guest can never observe (unless deliberately configured as
guest-visible for experiments), and it drives both checking strategies:

* the forced in-guest checker: unlock module pages, dispatch through the
  module's IDT vector into the module, run a full sweep, re-lock
  (:func:`fire_interrupt`);
* the in-hypervisor checker: on every control-register-write VMExit, map
  the next batch of object pages into hypervisor space and check them
  (:func:`on_control_register_write`).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Container, Iterable, Optional

from . import integrity
from .errors import ConfigurationError, check_bounds, positive, require, spec
from .timebase import TICKS_PER_SECOND, Ticks, seconds_from_ticks

if TYPE_CHECKING:
    from .guest import GuestMachine
    from .simulation import CostModel


class TrapKind(enum.Enum):
    MODULE_CODE_WRITE = "module_code_write"
    IDT_WRITE = "idt_write"
    OTHER_PROTECTED_WRITE = "other_protected_write"


@dataclass(frozen=True)
class TrapRecord:
    """One vetoed write: when, where, and which protected region it hit."""

    time: Ticks
    addr: int
    length: int
    page: int
    kind: TrapKind

    def to_json_dict(self) -> dict:
        return {
            "time": self.time,
            "addr": self.addr,
            "len": self.length,
            "page": self.page,
            "kind": self.kind.value,
        }


class ProtectionRegistry:
    """Write-protected page set plus the append-only, time-ordered trap log."""

    def __init__(self):
        self.protected_pages: set[int] = set()
        self.trap_log: list[TrapRecord] = []

    def protect_pages(self, pages: Iterable[int]) -> None:
        """Add pages to the protected set (idempotent)."""
        self.protected_pages.update(pages)

    def unprotect_pages(self, pages: Iterable[int]) -> None:
        """Remove pages from the protected set; absent pages are a no-op."""
        self.protected_pages.difference_update(pages)


class ScheduleMode(enum.Enum):
    PERIODIC = "periodic"
    PERIODIC_JITTERED = "jittered"
    GUEST_VISIBLE = "guest_visible"


def jitter_problem(jitter: Ticks, period: Ticks) -> Optional[str]:
    """Why firings `period` apart cannot jitter by `jitter`, or None if they can."""
    return None if 0 <= jitter < period else "must satisfy 0 <= jitter < period"


@spec(period=positive)
class FiringSchedule:
    """When the virtual device raises its interrupt.

    PERIODIC and PERIODIC_JITTERED are hypervisor-private: nothing in
    guest-visible state carries the firing times. GUEST_VISIBLE models a
    naive in-guest timer whose (periodic) schedule an attacker can read.

    Jittered firings are ``i*period + round(u_i * 1e9)`` ticks where the
    ``u_i`` are drawn in order from ``random.Random(f"device:{seed}")``
    (or ``f"device:{seed}:{salt}"``) as ``uniform(-J, +J)`` seconds. Two
    consecutive firings can then be ``period + 2J`` apart, so hf detects a
    persistent object tamper within ``period + 2J`` plus the delivery and
    one sweep (``period`` plus those when J = 0).
    """

    mode: ScheduleMode
    period: Ticks
    jitter: Ticks = 0
    seed: int = 0

    def __post_init__(self):
        check_bounds(self)
        require("jitter", jitter_problem(self.jitter, self.period))
        if self.mode is not ScheduleMode.PERIODIC_JITTERED and self.jitter != 0:
            raise ConfigurationError(f"{self.mode.value} schedule takes no jitter")

    @property
    def guest_visible_times(self) -> bool:
        return self.mode is ScheduleMode.GUEST_VISIBLE

    def firing_times(self, horizon: Ticks, salt: Optional[int] = None) -> list[Ticks]:
        """All firing instants in (0, horizon], sorted ascending."""
        jitter, times, i = self.jitter, [], 1
        if jitter:  # only a jittered schedule has one, and only it draws
            key = f"device:{self.seed}" if salt is None else f"device:{self.seed}:{salt}"
            rng, jitter_s = random.Random(key), seconds_from_ticks(jitter)
        while i * self.period - jitter <= horizon:
            t = i * self.period
            if jitter:
                t += round(rng.uniform(-jitter_s, jitter_s) * TICKS_PER_SECOND)
            if 0 < t <= horizon:
                times.append(t)
            i += 1
        times.sort()
        return times


def fire_interrupt(
    machine: "GuestMachine",
    reg: ProtectionRegistry,
    table: integrity.BaselineTable,
    costs: "CostModel",
    now: Ticks = 0,
    skip: Container = frozenset(),
) -> integrity.CheckReport:
    """Unlock-dispatch-sweep-relock envelope for one device interrupt.

    The sweep starts once the interrupt is delivered. The handler address
    at the module's vector is read through the *current* IDTR before
    dispatch; if it no longer points inside the module region the sweep
    is refused and a subverted report carries an integrity-subversion
    detection instead. The envelope is atomic with respect to guest
    events: no guest write can interleave between the unlock and the
    relock. Targets in `skip`, the handler among them, get no violation.
    """
    module, delivery = machine.module, costs.t_interrupt_delivery
    handler = machine.idt_entry(module.handler_vector)  # None if a moved IDT lacks the vector
    if handler is None or not module.contains(handler):
        violations = [] if integrity.HANDLER_TARGET in skip else [
            integrity.Violation(integrity.HANDLER_TARGET, now + delivery)]
        return integrity.CheckReport(violations, diverged=1, subverted=True)

    pages = module.page_range(machine.page_size)
    reg.unprotect_pages(pages)
    report = integrity.check_all(
        machine, table, hash_ticks_per_byte=costs.t_hash_per_byte, now=now + delivery, skip=skip
    )
    reg.protect_pages(pages)
    return report


def on_control_register_write(
    machine: "GuestMachine",
    table: integrity.BaselineTable,
    costs: "CostModel",
    k: int,
    now: Ticks = 0,
    skip: Container = frozenset(),
) -> integrity.CheckReport:
    """Model one MOV_CR* VMExit: map, check the next k objects, re-enter.

    The batch is checked after the exit and one page-remap per distinct
    page it touches (the in-hypervisor checker cannot read guest memory
    natively), so its violations are stamped after those; the pages come
    from the object layout. A batch that wraps past the last object
    covers two id spans. The batch cursor advances round-robin. Returns
    the batch check's report, which holds only what it found. Targets in
    `skip` get no violation.
    """
    pages = machine.object_pages(table.cursor, table.cursor + min(k, table.count))
    return integrity.check_batch(machine, table, k, hash_ticks_per_byte=costs.t_hash_per_byte,
                                 now=now + costs.t_vmexit + pages * costs.t_map_page, skip=skip)
