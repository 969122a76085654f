"""Scripted attacker behaviors injected into the simulation timeline.

Attackers here are byte-granular and timing-scripted: they write guest
memory (or the IDTR) at scheduled instants but do not execute code. The
transient attacker models mimicry: it makes an object dirty inside scripted
windows and restores the exact baseline bytes at window end. When it knows
the check schedule (only possible against a guest-visible device) it clips
its dirty windows to be clean around every known firing.

Each attack spec states its fields' bounds in ``bounds``; `simulation.plan_attacks`
checks them, and the spec against a setup, where it plans the attacks. Only a
transient tamper's windows are checked when built. The plan resolves a sweep's
tampers in place; `expand_attacks` spells them out as scripts, its reference.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from .errors import byte, nonneg, positive, require
from .timebase import Ticks


class ScheduleKnowledge(enum.Enum):
    NONE = "none"
    GUEST_VISIBLE_ONLY = "guest_visible"


def windows_problem(windows: tuple[tuple[Ticks, Ticks], ...]) -> Optional[str]:
    """Why `windows` cannot be a transient tamper's dirty windows, or None if it can."""
    prev_end = None
    for start, end in windows:
        if end <= start:
            return f"empty dirty window ({start}, {end})"
        if prev_end is not None and start < prev_end:
            return "dirty windows must be ordered and disjoint"
        prev_end = end
    return None


@dataclass(frozen=True)
class PersistentTamper:
    """One write at `at` that leaves the object diverged until detected.

    The mutation XORs `xor_mask` into the byte at `offset`; a mask of 0
    writes identical bytes back and therefore never diverges the object.
    """

    object_index: int
    at: Ticks
    offset: int = 0
    xor_mask: int = 0xFF

    kind = "persistent"
    bounds = dict(object_index=nonneg, at=nonneg, offset=nonneg, xor_mask=byte)


@dataclass(frozen=True)
class TransientTamper:
    """Dirty the object inside each window, restore baseline at window end."""

    object_index: int
    windows: tuple[tuple[Ticks, Ticks], ...]
    knowledge: ScheduleKnowledge = ScheduleKnowledge.NONE
    offset: int = 0
    xor_mask: int = 0xFF

    kind = "transient"
    bounds = dict(object_index=nonneg, windows=windows_problem, offset=nonneg, xor_mask=byte)

    def __post_init__(self):
        require("windows", windows_problem(self.windows))


@dataclass(frozen=True)
class CodeTamper:
    """Write into the monitoring module region at `at`."""

    offset: int
    at: Ticks
    payload: bytes = b"\xcc"

    kind = "code"
    bounds = dict(offset=nonneg, at=nonneg)


@dataclass(frozen=True)
class IdtTamper:
    """Overwrite an IDT entry through the guest write path at `at`."""

    vector: int
    new_handler: int
    at: Ticks

    kind = "idt"
    bounds = dict(vector=nonneg, new_handler=nonneg, at=nonneg)


@dataclass(frozen=True)
class IdtrTamper:
    """Repoint the IDTR (a register write; applies silently) at `at`."""

    new_base: int
    at: Ticks
    new_limit: Optional[int] = None

    kind = "idtr"
    bounds = dict(new_base=nonneg, at=nonneg)


@dataclass(frozen=True)
class SweepSpec:
    """Config-level generator for a persistent-tamper latency sweep.

    Stands for `count` persistent tampers of the default offset and mask:
    tamper i hits object `(object_start + i*object_stride) mod N` at
    `start + i*step`, labelled `<label>[<i:03d>]`.
    """

    count: int
    start: Ticks
    step: Ticks
    object_start: int = 0
    object_stride: int = 1

    kind = "persistent_sweep"
    bounds = dict(count=positive, start=nonneg, step=nonneg, object_start=nonneg,
                  object_stride=positive)

    def targets(self, object_count: int) -> Iterator[int]:
        """The object index of each tamper, in order."""
        return ((self.object_start + i * self.object_stride) % object_count
                for i in range(self.count))


AttackScript = Union[PersistentTamper, TransientTamper, CodeTamper, IdtTamper, IdtrTamper]
AttackSpec = Union[AttackScript, SweepSpec]


@dataclass(slots=True)
class AttackOutcome:
    """Per-script bookkeeping: write attempts and whether it was noticed.

    `detected_at` is the first hypervisor observation of the script, via
    either a trap or a check violation. `evaded` means the script's target
    diverged from baseline at some instant yet was never detected.
    """

    label: str
    kind: str
    attempted: int = 0
    applied: int = 0
    trapped: int = 0
    detected_at: Optional[Ticks] = None
    evaded: bool = False
    was_dirty: bool = field(default=False, repr=False)

    def note_detection(self, time: Ticks) -> None:
        if self.detected_at is None or time < self.detected_at:
            self.detected_at = time

    def finalize(self) -> None:
        self.evaded = self.was_dirty and self.detected_at is None

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "kind": self.kind,
            "attempted": self.attempted,
            "applied": self.applied,
            "trapped": self.trapped,
            "detected_at": self.detected_at,
            "evaded": self.evaded,
        }


def clip_windows(
    windows: tuple[tuple[Ticks, Ticks], ...],
    firing_times: list[Ticks],
    guard: Ticks,
) -> tuple[tuple[Ticks, Ticks], ...]:
    """Cut each window so it is clean around every known firing instant.

    Removes [f - guard, f + guard] for every firing f. This is the evasion
    move available to an attacker who can read the device schedule.
    """
    out = []
    for start, end in windows:
        segments = [(start, end)]
        for f in firing_times:
            lo, hi = f - guard, f + guard
            next_segments = []
            for s, e in segments:
                if hi <= s or lo >= e:
                    next_segments.append((s, e))
                    continue
                if s < lo:
                    next_segments.append((s, lo))
                if hi < e:
                    next_segments.append((hi, e))
            segments = next_segments
        out.extend((s, e) for s, e in segments if e > s)
    return tuple(out)


def expand_attacks(
    specs: list[tuple[str, AttackSpec]], object_count: int
) -> list[tuple[str, AttackScript]]:
    """Flatten config-level attack specs into concrete scripts.

    Sweeps become one labeled script per tamper point, `<label>[<i:03d>]`.
    The simulation never expands: `simulation.plan_attacks` resolves each
    sweep in place, and a run of these scripts equals a run of that plan.
    """
    scripts: list[tuple[str, AttackScript]] = []
    for label, spec in specs:
        if isinstance(spec, SweepSpec):
            scripts += ((f"{label}[{i:03d}]", PersistentTamper(target, spec.start + i * spec.step))
                        for i, target in enumerate(spec.targets(object_count)))
        else:
            scripts.append((label, spec))
    return scripts
