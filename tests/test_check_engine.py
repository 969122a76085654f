"""Differential tests: the diverged-set check engine and the layout
arithmetic against brute-force oracles.

Each machine draws one object layout: objects up to two pages long, at a
stride that makes them overlap or leaves a gap under a page, so objects
straddle pages and share them.

Random batch sizes and cursor phases, and random write, restore and
IDTR-move sequences, some applied before the snapshot: every batch and
sweep must match the walk-every-object oracle in conftest. The same check
with a drawn skip set must give that report less the skipped targets,
with the same count and the same cursor.

Some objects on pages written before the snapshot: overlap queries,
the page count of the window from every cursor and
baseline digests must match a walk over every object. A layout's uniform
window page count must be the one count all its windows map, if they do.
"""

import dataclasses

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import batch_pages_ref, check_all_ref, check_batch_ref, fnv1a64_ref
from hfsim.guest import GuestMachine
from hfsim.hypervisor import on_control_register_write
from hfsim.integrity import IDTR_TARGET, check_all, snapshot_baselines
from hfsim.simulation import CostModel

PAGE_SIZE = 64
PAGE_COUNT = 8
MEMORY = PAGE_SIZE * PAGE_COUNT
IDT_BASE, IDT_LIMIT = 0, 16


@st.composite
def _layout(draw, memory):
    """(base, stride, length, count): overlapping objects or a gap under a page."""
    length = draw(st.integers(1, 2 * PAGE_SIZE))
    if draw(st.booleans()):
        stride = draw(st.integers(1, length))
    else:
        stride = length + draw(st.integers(0, PAGE_SIZE - 1))
    count = min(draw(st.integers(1, 12)), (memory - length) // stride + 1)
    base = draw(st.integers(0, memory - (count - 1) * stride - length))
    return base, stride, length, count


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
    layout=_layout(MEMORY),
    early_writes=st.lists(_write(), max_size=4),
    phase=st.integers(0, 11),
    t_hash=st.integers(0, 7),
    t_map=st.integers(0, 1000),
    operations=_operations,
    skip=st.sets(st.one_of(st.integers(0, 11), st.just(IDTR_TARGET))),
)
# the IDTR moves, then a window with no diverged object wraps: the IDTR
# still rides along and its violation is reported
@example(layout=(16, 8, 8, 3), early_writes=[], phase=2, t_hash=3, t_map=7,
         operations=[("idtr", (8, 16)), ("batch", 2, 5), ("batch", 2, 5)], skip={IDTR_TARGET})
# a wrapping window whose only diverged object lies past the wrap
@example(layout=(16, 8, 8, 3), early_writes=[], phase=2, t_hash=3, t_map=7,
         operations=[("write", 16, b"\x01"), ("batch", 2, 5)], skip=set())
# a transient write restored before the window that holds its object
@example(layout=(64, 8, 8, 3), early_writes=[], phase=0, t_hash=3, t_map=7,
         operations=[("write", 73, b"\x01"), ("restore", 1), ("batch", 3, 5),
                     ("batch", 2, 5)], skip={1})
# a write that restores an object: the sweep after it finds nothing
@example(layout=(64, 8, 8, 3), early_writes=[], phase=0, t_hash=3, t_map=7,
         operations=[("write", 73, b"\x01"), ("sweep", 5), ("write", 73, b"\x00"),
                     ("sweep", 5), ("batch", 3, 5)], skip={0, 2})
# two writes that leave an object diverged with a new digest
@example(layout=(64, 8, 8, 3), early_writes=[], phase=0, t_hash=3, t_map=7,
         operations=[("write", 73, b"\x01"), ("batch", 3, 5), ("write", 74, b"\x02"),
                     ("sweep", 5), ("batch", 3, 5)], skip={1})
def test_engine_matches_full_walk_oracle(layout, early_writes, phase, t_hash, t_map,
                                         operations, skip):
    base, stride, length, count = layout
    m = GuestMachine(PAGE_COUNT, PAGE_SIZE)
    m.set_idtr(IDT_BASE, IDT_LIMIT)
    m.register_kernel_object(base, length, count, stride)
    for _, addr, data in early_writes:  # written before the snapshot
        m.privileged_write(addr, data)
    addrs = [base + oid * stride for oid in range(count)]
    clean = [m.read(addr, length) for addr in addrs]
    table, ref = snapshot_baselines(m), snapshot_baselines(m)
    table.cursor = ref.cursor = phase % table.count
    costs = CostModel(t_vmexit=11, t_vmentry=5, t_map_page=t_map, t_hash_per_byte=t_hash)
    now = 0
    for op in operations:
        if op[0] == "write":
            m.privileged_write(op[1], op[2])
        elif op[0] == "restore":  # back to clean: the object's snapshot bytes
            oid = op[1] % count
            m.privileged_write(addrs[oid], clean[oid])
        elif op[0] == "idtr":
            m.set_idtr(*op[1])
        elif op[0] == "batch":
            k, now = op[1], now + op[2]
            pages = batch_pages_ref(m, ref, k)
            # the batch is stamped after the exit and the mapping of the window's pages
            start = now + costs.t_vmexit + pages * costs.t_map_page
            expected = check_batch_ref(m, ref, k, hash_ticks_per_byte=t_hash, now=start)
            cursor = table.cursor
            assert m.object_pages(cursor, cursor + min(k, count)) == pages
            skipped = on_control_register_write(m, table, costs, k, now=now, skip=skip)
            skipped_cursor, table.cursor = table.cursor, cursor
            got = on_control_register_write(m, table, costs, k, now=now)
            assert got == expected
            assert table.cursor == ref.cursor == skipped_cursor
        else:
            now += op[1]
            skipped = check_all(m, table, hash_ticks_per_byte=t_hash, now=now, skip=skip)
            got = check_all(m, table, hash_ticks_per_byte=t_hash, now=now)
            assert got == check_all_ref(m, ref, hash_ticks_per_byte=t_hash, now=now)
            assert table.cursor == ref.cursor
        if op[0] in ("batch", "sweep"):  # less the skipped targets, in order; the same count
            assert skipped == dataclasses.replace(
                got, violations=[v for v in got.violations if v.target not in skip])


LAYOUT_PAGES = 24
LAYOUT_MEMORY = PAGE_SIZE * LAYOUT_PAGES


@settings(max_examples=200, deadline=None)
@given(
    layout=_layout(LAYOUT_MEMORY),
    idt_entry=st.booleans(),
    early_writes=st.lists(_write(), max_size=4),
    queries=st.lists(st.tuples(st.integers(0, LAYOUT_MEMORY - 1), st.integers(1, 200)),
                     max_size=8),
    batch_sizes=st.lists(st.integers(1, 50), min_size=1, max_size=3),
)
# six packed 8-byte objects on one page: a wrapping window's ends share it
@example(layout=(0, 8, 8, 6), idt_entry=False, early_writes=[], queries=[],
         batch_sizes=[4])
def test_layout_arithmetic_matches_per_object_walk(layout, idt_entry, early_writes,
                                                   queries, batch_sizes):
    base, stride, length, count = layout
    m = GuestMachine(LAYOUT_PAGES, PAGE_SIZE)
    m.set_idtr(IDT_BASE, IDT_LIMIT)
    if idt_entry:  # materialises the IDT page under any object on it
        m.privileged_write(IDT_BASE + 8, (0x1234).to_bytes(8, "little"))
    m.register_kernel_object(base, length, count, stride)
    spans = [(base + i * stride, length) for i in range(count)]
    for _, addr, data in early_writes:
        if addr + len(data) <= LAYOUT_MEMORY:
            m.privileged_write(addr, data)
    assert [(m.objects.addr(oid), m.objects.length) for oid in range(m.objects.count)] == spans
    for addr, length in queries:
        expected = [oid for oid, (a, n) in enumerate(spans) if a < addr + length and a + n > addr]
        assert sorted(m.objects.overlapping(addr, addr + length)) == expected
    table = snapshot_baselines(m)
    assert [table.baseline(oid) for oid in range(table.count)] == [
        fnv1a64_ref(m.read(a, n)) for a, n in spans
    ]
    for k in batch_sizes:
        for cursor in range(count):  # the window from each cursor maps the pages its objects cover
            table.cursor = cursor
            assert m.object_pages(cursor, cursor + min(k, count)) == batch_pages_ref(m, table, k)


@st.composite
def _window_layout(draw):
    """(base, stride, length, count), up to 40 objects at any stride or whole pages apart."""
    if draw(st.booleans()):
        stride = PAGE_SIZE * draw(st.integers(1, 2))
        length = draw(st.integers(stride - PAGE_SIZE + 1, stride))
    else:
        length = draw(st.integers(1, 2 * PAGE_SIZE))
        stride = draw(st.integers(1, length + PAGE_SIZE - 1))
    return draw(st.integers(0, 3 * PAGE_SIZE)), stride, length, draw(st.integers(1, 40))


@settings(max_examples=300, deadline=None)
@given(layout=_window_layout(), k=st.integers(1, 40))
# objects share pages, yet every window maps 2, the wrapping one too
@example(layout=(0, 40, 40, 3), k=2)
# one more object: the windows that end at or before the last id map 2,
# the wrapping one 3
@example(layout=(0, 40, 40, 4), k=2)
# k = n on one shared page: every window is every object
@example(layout=(0, 8, 8, 6), k=6)
# whole pages apart and off the page boundary: each object alone on two
# pages, so every window maps 6; then with neighbours sharing a page, the
# wrapping windows map one page more
@example(layout=(32, 128, 90, 5), k=3)
@example(layout=(32, 64, 40, 5), k=3)
def test_uniform_window_pages_is_the_count_every_window_maps(layout, k):
    base, stride, length, count = layout
    k = 1 + (k - 1) % count  # 1..count, k = n among them
    m = GuestMachine(128, PAGE_SIZE)
    m.register_kernel_object(base, length, count, stride)
    # every window's pages, walked object by object
    table, counts = snapshot_baselines(m), set()
    for start in range(count):
        table.cursor = start
        counts.add(batch_pages_ref(m, table, k))
    assert m.uniform_window_pages(k) == (counts.pop() if len(counts) == 1 else None)
