"""Deterministic simulator of hypervisor-backed kernel integrity monitoring.

Two checking strategies run against the same simulated guest, workload,
and attacker scripts: batched in-hypervisor checks triggered by
control-register-write VMExits ("hrk"), and in-guest sweeps forced by
hypervisor-injected virtual-device interrupts with page write-protection
("hf"). Runs are seeded and replay byte-identically.
"""

__version__ = "0.1.0"
