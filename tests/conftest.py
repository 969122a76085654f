"""Shared helpers and independent oracles for the test suite."""

from hfsim.integrity import CheckReport, Violation, verify_idtr
from hfsim.simulation import MachineSpec, ObjectsSpec, SetupSpec


def fnv1a64_ref(data: bytes) -> int:
    """Independent FNV-1a 64 reference, straight from the definition.

    Kept deliberately separate from the implementation: xor byte, multiply
    by the prime, reduce mod 2**64.
    """
    h = 0xCBF29CE484222325
    for byte in data:
        h = h ^ byte
        h = (h * 0x100000001B3) % (2**64)
    return h


def _ref_digest(machine, oid) -> int:
    obj = machine.objects[oid]
    return fnv1a64_ref(machine.read(obj.addr, obj.length))


def check_batch_ref(machine, table, k, hash_ticks_per_byte=0, now=0) -> CheckReport:
    """Walk-every-object batch check: the oracle for integrity.check_batch.

    Rehashes each of the next k objects from the table's cursor with
    fnv1a64_ref, charges and stamps violations object by object, lets the
    IDTR ride along when the last object in id order is covered, then
    advances the cursor.
    """
    n = len(table.order)
    k_eff = min(k, n)
    report = CheckReport(objects_checked=k_eff)
    duration = 0
    wrapped = False
    for i in range(k_eff):
        idx = (table.cursor + i) % n
        if idx == n - 1:
            wrapped = True
        oid = table.order[idx]
        duration += machine.objects[oid].length * hash_ticks_per_byte
        found = _ref_digest(machine, oid)
        if found != table.entries[oid]:
            report.violations.append(
                Violation(target=oid, expected=table.entries[oid], found=found,
                          time=now + duration)
            )
    if wrapped:
        violation = verify_idtr(machine, table, now=now + duration)
        if violation is not None:
            report.violations.append(violation)
    table.cursor = (table.cursor + k_eff) % n
    report.duration = duration
    report.cycle_completed = wrapped
    return report


def check_all_ref(machine, table, hash_ticks_per_byte=0, now=0) -> CheckReport:
    """Walk-every-object sweep: the oracle for integrity.check_all."""
    report = CheckReport(objects_checked=len(table.order), cycle_completed=True)
    duration = 0
    for oid in table.order:
        duration += machine.objects[oid].length * hash_ticks_per_byte
        found = _ref_digest(machine, oid)
        if found != table.entries[oid]:
            report.violations.append(
                Violation(target=oid, expected=table.entries[oid], found=found,
                          time=now + duration)
            )
    violation = verify_idtr(machine, table, now=now + duration)
    if violation is not None:
        report.violations.append(violation)
    report.duration = duration
    return report


def batch_pages_ref(machine, table, k) -> int:
    """Distinct pages the next k objects from the cursor occupy."""
    n = len(table.order)
    pages = set()
    for i in range(min(k, n)):
        obj = machine.objects[table.order[(table.cursor + i) % n]]
        pages.update(range(obj.addr // machine.page_size,
                           (obj.addr + obj.length - 1) // machine.page_size + 1))
    return len(pages)


def make_setup(
    count: int = 4,
    size_bytes: int = 64,
    page_size: int = 4096,
    placement: str = "spread",
    idt_vectors: int = 64,
    extra_pages: int = 0,
) -> SetupSpec:
    """Setup spec with page_count auto-sized to fit the standard layout."""
    idt_pages = -(-idt_vectors * 8 // page_size)
    first_obj_page = 1 + idt_pages + 1
    if placement == "spread":
        pages = first_obj_page + count
    else:
        pages = first_obj_page + -(-count * size_bytes // page_size)
    return SetupSpec(
        machine=MachineSpec(page_count=pages + extra_pages, page_size=page_size),
        objects=ObjectsSpec(count=count, size_bytes=size_bytes, placement=placement),
        idt_vectors=idt_vectors,
    )


def assert_conservation(result) -> None:
    """The exact fixed-point accounting identity every run must satisfy."""
    charged = sum(result.cost_breakdown.values())
    assert result.total_ticks == result.horizon + charged
    data = result.to_json_dict()
    assert data["overhead_ticks"] == charged
    assert data["baseline_ticks"] == result.horizon
    assert result.overhead_fraction == charged / result.horizon
