"""Seeded scenario generators for the host-cost benchmark.

Each generator maps a seed to hfsim config text; hfsim itself sees only
that text. The same seed always yields the same text. Sizes are keyword
arguments so the self-tests can build tiny versions of each workload;
the benchmark always uses the defaults.
"""

from __future__ import annotations

import random

from hfsim.simulation import MachineSpec, ObjectsSpec, SetupSpec, plan_layout

PAGE_SIZE = 4096
OBJECT_SIZE = 64
IDT_VECTORS = 64  # the IDT size of every hfsim run

# tamper_sweep's attack mix: the counts are fixed so that every seed does
# about the same work; the seed places and times the attacks
SWEEPS = 3
SWEEP_TAMPERS = 250
TRANSIENTS = 30
CODE_WRITES = 15
IDT_WRITES = 15


def _costs(hash_per_byte_ns: int = 180) -> str:
    """The cost calibration of the shipped paper_*.cfg scenarios."""
    return (
        "[costs]\nt_vmexit_us = 25\nt_vmentry_us = 15\nt_interrupt_delivery_us = 100\n"
        f"t_map_page_us = 35\nt_hash_per_byte_ns = {hash_per_byte_ns}\n"
        "t_syscall_base_us = 0.1\nt_ctxswitch_base_us = 5\n"
    )


def _geometry(objects: int, placement: str, page_slack: int) -> str:
    """Machine and object sections, sized by hfsim's own layout planner."""
    layout = plan_layout(SetupSpec(
        MachineSpec(page_count=1 << 40, page_size=PAGE_SIZE),
        ObjectsSpec(count=objects, size_bytes=OBJECT_SIZE, placement=placement),
    ))
    return (
        f"[machine]\npage_count = {layout.pages_required + page_slack}\n"
        f"page_size = {PAGE_SIZE}\n\n"
        f"[objects]\ncount = {objects}\nsize_bytes = {OBJECT_SIZE}\n"
        f"placement = {placement}\n"
    )


def _workload(syscall_rate: int, ctxswitch_rate: int, horizon_s, arrival="poisson") -> str:
    return (
        f"[workload]\nsyscall_rate = {syscall_rate}\nctxswitch_rate = {ctxswitch_rate}\n"
        f"arrival = {arrival}\nhorizon_s = {horizon_s}\n"
    )


def _seconds(ms: int) -> str:
    return f"{ms // 1000}.{ms % 1000:03d}"


def paper_ab(seed: int, objects: int = 15000, repeats: int = 10) -> str:
    """The shipped paper_overhead.cfg (hrk vs hf, no attacks), base seed `seed`."""
    return "\n".join([
        _geometry(objects, "spread", page_slack=5),
        _workload(80, 20, 20),
        _costs(),
        "[strategy hrk]\nkind = hrk\nbatch_k = 25\n",
        "[strategy hf]\nkind = hf\nschedule = periodic\nperiod_s = 4\n",
        f"[run]\nrepeats = {repeats}\nseed = {seed}\n",
    ])


def event_storm(seed: int, objects: int = 15000, horizon_s: int = 20) -> str:
    """Paper geometry and costs at 30x the paper's event rate, baseline vs hrk."""
    return "\n".join([
        _geometry(objects, "spread", page_slack=5),
        _workload(2400, 600, horizon_s),
        _costs(),
        "[strategy baseline]\nkind = baseline\n",
        "[strategy hrk]\nkind = hrk\nbatch_k = 25\n",
        f"[run]\nrepeats = 1\nseed = {seed}\n",
    ])


def tamper_sweep(seed: int, objects: int = 100_000, horizon_s: int = 5) -> str:
    """hrk vs jittered hf over packed objects under a seeded mix of tampers.

    Persistent sweeps and transient windows dirty objects; module-code and
    IDT writes trap under hf. Hashing costs 2 ns/byte here, so one
    simulated sweep (12.8 ms) stays well inside the 0.48 s period.

    The seed places and times the attacks and the hf jitter but leaves the
    amount of host work nearly fixed. Arrivals are fixed-rate, so every seed
    makes the same VMExits, and with the default 5 s horizon the tenth hf
    firing (4.8 +- 0.2 s) always falls inside it and the eleventh never
    does, so every seed sweeps ten times.

    Every object-targeting script hits its own object: sweeps share one
    stride and each takes its own residue modulo that stride, and the
    transients take one more residue. There are no IDTR moves, because a
    subverted handler would stop every later sweep.
    """
    rng = random.Random(f"tamper_sweep:{seed}")
    horizon_ms = horizon_s * 1000
    stride = rng.randrange(101, 211)
    residues = rng.sample(range(stride), SWEEPS + 1)
    per_residue = (objects - stride) // stride  # objects left on every residue
    sections = [
        _geometry(objects, "packed", page_slack=8),
        _workload(160, 40, horizon_s, arrival="fixed"),
        _costs(hash_per_byte_ns=2),
        "[strategy hrk]\nkind = hrk\nbatch_k = 100\n",
        "[strategy hf]\nkind = hf\nschedule = jittered\nperiod_s = 0.48\n"
        f"jitter_s = 0.2\njitter_seed = {rng.randrange(1 << 31)}\n",
    ]
    for j, residue in enumerate(residues[:-1]):
        count = min(SWEEP_TAMPERS, per_residue)
        start_ms = rng.randint(10, 1000)
        step_ms = max(1, (horizon_ms * 9 // 10 - start_ms) // count)
        sections.append(
            f"[attack sweep{j}]\nkind = persistent_sweep\ncount = {count}\n"
            f"start_s = {_seconds(start_ms)}\nstep_s = {_seconds(step_ms)}\n"
            f"object_start = {residue}\nobject_stride = {stride}\n"
        )
    # window starts sit 400 ms apart and windows last at most 300 ms, so
    # every script's windows are ordered and disjoint
    slots = range(10, horizon_ms - 400, 400)
    transients = min(TRANSIENTS, per_residue)
    for i, q in enumerate(rng.sample(range(per_residue), transients)):
        starts = sorted(rng.sample(slots, 2))
        windows = ", ".join(
            f"{_seconds(s)}:{_seconds(s + rng.randint(5, 300))}" for s in starts
        )
        sections.append(
            f"[attack transient{i}]\nkind = transient\n"
            f"object_index = {residues[-1] + q * stride}\nwindows = {windows}\n"
            f"offset = {rng.randrange(OBJECT_SIZE)}\nxor_mask = {rng.randint(1, 255)}\n"
        )
    for i in range(CODE_WRITES):
        sections.append(
            f"[attack code{i}]\nkind = code\noffset = {rng.randrange(PAGE_SIZE)}\n"
            f"at_s = {_seconds(rng.randint(1, horizon_ms))}\n"
        )
    for i in range(IDT_WRITES):
        sections.append(
            f"[attack idt{i}]\nkind = idt\nvector = {rng.randrange(IDT_VECTORS)}\n"
            f"new_handler = {rng.randrange(1 << 32)}\n"
            f"at_s = {_seconds(rng.randint(1, horizon_ms))}\n"
        )
    sections.append(f"[run]\nrepeats = 1\nseed = {seed}\n")
    return "\n".join(sections)


WORKLOADS = {
    "paper_ab": paper_ab,
    "event_storm": event_storm,
    "tamper_sweep": tamper_sweep,
}
