"""Guest machine: memory, mediated writes, IDT/IDTR, objects, module."""

import itertools

import pytest

from hfsim.errors import AddressError, ConfigurationError
from hfsim.guest import IDT_ENTRY_SIZE, GuestMachine, ObjectLayout
from hfsim.hypervisor import ProtectionRegistry, TrapKind


def _machine_with_idt(page_count=4, page_size=4096):
    m = GuestMachine(page_count, page_size)
    m.set_idtr(page_size, 512)
    return m


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_new_machine_zero_initialized():
    m = GuestMachine(4, 4096)
    assert m.size == 16384
    assert m.read(0, 16384) == bytes(16384)
    assert m.objects.count == 0
    assert m.module is None
    assert (m.idtr.base, m.idtr.limit) == (0, 0)


def test_new_machine_smallest_legal():
    m = GuestMachine(1, 64)
    assert m.size == 64


@pytest.mark.parametrize("pages,size", [(0, 4096), (-1, 4096), (4, 63), (4, 100), (4, 32)])
def test_new_machine_bad_geometry(pages, size):
    with pytest.raises(ConfigurationError):
        GuestMachine(pages, size)


# ---------------------------------------------------------------------------
# guest_write / guest_read
# ---------------------------------------------------------------------------

def test_write_unprotected_applies_and_reads_back():
    m = GuestMachine(4, 4096)
    reg = ProtectionRegistry()
    outcome = m.guest_write(reg, 100, b"\xab")
    assert outcome.applied and not outcome.trapped
    assert m.read(100, 1) == b"\xab"


def test_write_to_protected_page_is_trapped_and_memory_unchanged():
    m = GuestMachine(4, 4096)
    reg = ProtectionRegistry()
    reg.protect_pages([1])
    before = m.read(0, m.size)
    outcome = m.guest_write(reg, 4096, b"attack")
    assert outcome.trapped
    assert outcome.trap.page == 1
    assert m.read(0, m.size) == before


def test_straddling_write_is_vetoed_whole():
    # 8 bytes crossing from unprotected page 0 into protected page 1
    m = GuestMachine(4, 4096)
    reg = ProtectionRegistry()
    reg.protect_pages([1])
    before = m.read(0, m.size)
    outcome = m.guest_write(reg, 4092, b"\xff" * 8)
    assert outcome.trapped
    assert m.read(0, m.size) == before  # neither page modified


def test_write_out_of_bounds_is_address_error_not_trap():
    m = GuestMachine(4, 4096)
    reg = ProtectionRegistry()
    with pytest.raises(AddressError):
        m.guest_write(reg, 16380, b"\x00" * 8)
    with pytest.raises(AddressError):
        m.read(16384, 1)


def test_read_of_protected_page_succeeds():
    m = GuestMachine(4, 4096)
    reg = ProtectionRegistry()
    m.guest_write(reg, 4096, b"data")
    reg.protect_pages([1])
    assert m.read(4096, 4) == b"data"


def test_fresh_machine_reads_zeros():
    assert GuestMachine(2, 64).read(0, 128) == bytes(128)


def test_read_across_materialised_and_unwritten_pages():
    m = GuestMachine(4, 64)
    m.privileged_write(60, b"abcd")  # page 0 only; page 1 is never written
    assert m.read(62, 8) == b"cd" + bytes(6)
    m.privileged_write(192, b"wxyz")  # page 3; page 2 is never written
    assert m.read(126, 70) == bytes(66) + b"wxyz"
    assert m.read(60, 140) == b"abcd" + bytes(128) + b"wxyz" + bytes(4)


def test_straddling_write_lands_on_both_pages():
    m = GuestMachine(3, 64)
    m.privileged_write(62, b"\x01\x02\x03\x04")
    assert m.read(0, 64)[62:] == b"\x01\x02"
    assert m.read(64, 64)[:2] == b"\x03\x04"
    assert m.read(128, 64) == bytes(64)


def test_huge_machine_is_sparse():
    # 100M pages of 4 KiB: only written pages take memory
    m = GuestMachine(100_000_000, 4096)
    last = m.size - 4
    m.privileged_write(last, b"tail")
    assert m.read(last - 4, 8) == bytes(4) + b"tail"
    assert m.read(0, 16) == bytes(16)


# ---------------------------------------------------------------------------
# load_module
# ---------------------------------------------------------------------------

def test_load_module_sets_idt_entry():
    m = _machine_with_idt()
    code = bytes(range(256)) * 16
    region = m.load_module(code, 8192, 0x20)
    assert m.idt_entry(0x20) == 8192
    assert region.addr == 8192 and region.length == 4096
    assert m.read(8192, 4096) == code


def test_reload_module_replaces_content_and_reregisters():
    m = _machine_with_idt()
    first = bytes([0xAA]) * 4096
    second = bytes([0xBB]) * 4096
    m.load_module(first, 8192, 0x20)
    m.load_module(second, 8192, 0x21)
    # read-back equality oracle: the region now holds exactly the new code
    assert m.read(8192, 4096) == second
    assert m.module.handler_vector == 0x21
    assert m.idt_entry(0x21) == 8192


# ---------------------------------------------------------------------------
# register_kernel_object
# ---------------------------------------------------------------------------

def test_object_ids_are_sequential_and_deterministic():
    m = _machine_with_idt()
    m.register_kernel_object(0x3200, 16, count=3, stride=32)
    assert m.objects == ObjectLayout(base=0x3200, stride=32, length=16, count=3)
    assert [m.objects.addr(oid) for oid in range(m.objects.count)] == [0x3200, 0x3220, 0x3240]


def test_an_empty_interval_overlaps_no_object():
    layout = ObjectLayout(0, 64, 8, 4)
    assert layout.overlapping(3, 3) == range(0)  # inside object 0
    assert not layout.overlapping(64, 64)  # at object 1's first byte
    assert not layout.overlapping(5, 2)  # reversed
    assert layout.overlapping(3, 4) == range(0, 1)


def test_store_byte_lands_on_the_one_page_it_materialises():
    # its caller records the object's digest in the baseline table
    m = _machine_with_idt()
    m.register_kernel_object(0x3000, 8, count=2)
    m.store_byte(0x3009, 0xAB)
    assert m.read(0x3008, 3) == b"\x00\xab\x00" and list(m._pages) == [3]


# ---------------------------------------------------------------------------
# IDT entries / set_idtr
# ---------------------------------------------------------------------------

def _write_idt_entry(m, vector, handler, reg):
    """The guest's write of `handler` into `vector`'s entry, through the current IDTR."""
    return m.guest_write(reg, m.idtr.base + IDT_ENTRY_SIZE * vector,
                         handler.to_bytes(IDT_ENTRY_SIZE, "little"))


def test_set_idt_entry_guest_path_traps_once_protected():
    m = _machine_with_idt()
    reg = ProtectionRegistry()
    assert _write_idt_entry(m, 3, 0x2000, reg).applied
    assert m.idt_entry(3) == 0x2000
    reg.protect_pages(m.idt_pages())
    outcome = _write_idt_entry(m, 3, 0x1234, reg)
    assert outcome.trapped
    assert outcome.trap.kind is TrapKind.IDT_WRITE
    assert m.idt_entry(3) == 0x2000


def test_load_module_writes_its_entry_while_the_idt_is_protected():
    m = _machine_with_idt()
    reg = ProtectionRegistry()
    reg.protect_pages(m.idt_pages())
    m.load_module(bytes(4096), 8192, 3)
    assert m.idt_entry(3) == 8192
    assert reg.trap_log == []
    assert _write_idt_entry(m, 3, 0x2000, reg).trapped  # the guest path still traps
    assert m.idt_entry(3) == 8192


def test_set_idtr_is_never_trapped():
    m = _machine_with_idt()
    m.set_idtr(0, 512)  # attacker move: applies silently
    assert m.idtr.base == 0


def test_empty_idt_makes_any_dispatch_error():
    m = GuestMachine(4, 4096)
    m.set_idtr(0, 0)
    assert m.idt_entry(0) is None


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

def test_trap_iff_protected_page_touched_small_exhaustive():
    # 4-page machine with 64-byte pages, a sample of spans per protection set
    for protected in [set(), {0}, {2}, {0, 3}, {1, 2}, {0, 1, 2, 3}]:
        m = GuestMachine(4, 64)
        reg = ProtectionRegistry()
        reg.protect_pages(protected)
        for addr, length in itertools.product(range(0, 256, 13), (1, 5, 64, 65)):
            if addr + length > 256:
                continue
            touched = set(range(addr // 64, (addr + length - 1) // 64 + 1))
            before = m.read(0, m.size)
            outcome = m.guest_write(reg, addr, bytes([addr & 0xFF]) * length)
            assert outcome.trapped == bool(touched & protected)
            if outcome.trapped:
                assert m.read(0, m.size) == before


def test_same_operation_sequence_gives_identical_machines():
    def drive(m):
        reg = ProtectionRegistry()
        m.set_idtr(4096, 512)
        m.load_module(bytes([3]) * 4096, 8192, 5)
        m.register_kernel_object(0x3000, 32)
        m.guest_write(reg, 0x3000, b"xyz")
        reg.protect_pages([3])
        m.guest_write(reg, 0x3010, b"vetoed")
        return m.read(0, m.size)

    assert drive(GuestMachine(4, 4096)) == drive(GuestMachine(4, 4096))


def test_page_snapshot_export_golden():
    m = GuestMachine(2, 64)
    reg = ProtectionRegistry()
    m.guest_write(reg, 63, b"\x11\x22")  # straddles pages 0 and 1
    expected_page0 = bytearray(64)
    expected_page0[63] = 0x11
    expected_page1 = bytearray(64)
    expected_page1[0] = 0x22
    assert m.read(0, 64) == bytes(expected_page0)
    assert m.read(64, 64) == bytes(expected_page1)
    assert m.read(0, m.size) == bytes(expected_page0 + expected_page1)
