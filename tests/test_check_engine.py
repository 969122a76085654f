"""Differential test: the touched-set check engine against the full-walk oracle.

Random machines (objects of unequal lengths, packed across page boundaries
and overlapping), random batch sizes and cursor phases, and random write,
restore and IDTR-move sequences, some applied before the snapshot. Every
batch and sweep must match the walk-every-object oracle in conftest.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import batch_pages_ref, check_all_ref, check_batch_ref
from hfsim.guest import GuestMachine
from hfsim.hypervisor import ProtectionRegistry, on_control_register_write
from hfsim.integrity import check_all, snapshot_baselines
from hfsim.simulation import CostModel

PAGE_SIZE = 64
PAGE_COUNT = 8
MEMORY = PAGE_SIZE * PAGE_COUNT
IDT_BASE, IDT_LIMIT = 0, 16


@st.composite
def _objects(draw):
    """(addr, length) spans, some straddling pages, some overlapping."""
    spans = []
    for _ in range(draw(st.integers(1, 12))):
        length = draw(st.integers(1, 2 * PAGE_SIZE))
        spans.append((draw(st.integers(0, MEMORY - length)), length))
    return spans


@st.composite
def _write(draw):
    addr = draw(st.integers(0, MEMORY - 1))
    data = draw(st.binary(min_size=1, max_size=min(24, MEMORY - addr)))
    return ("write", addr, data)


_operations = st.lists(
    st.one_of(
        _write(),
        st.tuples(st.just("restore"), st.integers(0, 11)),
        st.tuples(st.just("idtr"), st.sampled_from([(IDT_BASE, IDT_LIMIT), (8, 16), (0, 24)])),
        st.tuples(st.just("batch"), st.integers(1, 16), st.integers(0, 50)),
        st.tuples(st.just("sweep"), st.integers(0, 50)),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(
    spans=_objects(),
    early_writes=st.lists(_write(), max_size=4),
    phase=st.integers(0, 11),
    t_hash=st.integers(0, 7),
    t_map=st.integers(0, 1000),
    operations=_operations,
)
def test_engine_matches_full_walk_oracle(spans, early_writes, phase, t_hash, t_map, operations):
    m = GuestMachine(PAGE_COUNT, PAGE_SIZE)
    m.set_idtr(IDT_BASE, IDT_LIMIT, privileged=True)
    for i, (addr, length) in enumerate(spans):
        m.register_kernel_object(f"o{i}", addr, length)
    for _, addr, data in early_writes:  # touched before the snapshot
        m.privileged_write(addr, data)
    clean = {oid: m.read(obj.addr, obj.length) for oid, obj in m.objects.items()}
    table, ref = snapshot_baselines(m), snapshot_baselines(m)
    table.cursor = ref.cursor = phase % len(table)
    reg = ProtectionRegistry(PAGE_COUNT)
    costs = CostModel(t_vmexit=11, t_vmentry=5, t_map_page=t_map, t_hash_per_byte=t_hash)
    now = 0
    for op in operations:
        if op[0] == "write":
            m.privileged_write(op[1], op[2])
        elif op[0] == "restore":  # back to clean: the object's snapshot bytes
            oid = op[1] % len(spans)
            m.privileged_write(m.objects[oid].addr, clean[oid])
        elif op[0] == "idtr":
            m.set_idtr(*op[1])
        elif op[0] == "batch":
            k, now = op[1], now + op[2]
            pages = batch_pages_ref(m, ref, k)
            start = now + costs.t_vmexit + pages * costs.t_map_page
            expected = check_batch_ref(m, ref, k, hash_ticks_per_byte=t_hash, now=start)
            got = on_control_register_write(m, reg, table, costs, k, now=now)
            assert got.pages_mapped == pages
            assert got.violations == expected.violations
            assert got.duration == expected.duration
            assert got.objects_checked == expected.objects_checked
            assert got.cycle_completed == expected.cycle_completed
            assert table.cursor == ref.cursor
        else:
            now += op[1]
            got = check_all(m, table, hash_ticks_per_byte=t_hash, now=now)
            assert got == check_all_ref(m, ref, hash_ticks_per_byte=t_hash, now=now)
            assert table.cursor == ref.cursor
