"""Deterministic simulator of hypervisor-backed kernel integrity monitoring.

Two checking strategies run against the same simulated guest, workload,
and attacker scripts: batched in-hypervisor checks triggered by
control-register-write VMExits ("hrk"), and in-guest sweeps forced by
hypervisor-injected virtual-device interrupts with page write-protection
("hf"). Runs are seeded and replay byte-identically.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    AddressError,
    ConfigFileError,
    ConfigurationError,
    ReportMismatchError,
    SimulatorError,
)
from .guest import GuestMachine  # noqa: F401
from .hypervisor import (  # noqa: F401
    FiringSchedule,
    ProtectionRegistry,
    ScheduleMode,
    TrapKind,
    fire_interrupt,
    on_control_register_write,
)
from .integrity import (  # noqa: F401
    BaselineTable,
    CheckReport,
    Violation,
    check_all,
    check_batch,
    compute_digest,
    snapshot_baselines,
    verify_idtr,
)
from .simulation import (  # noqa: F401
    Arrival,
    CostModel,
    MachineSpec,
    ObjectsSpec,
    ScenarioResult,
    SetupSpec,
    StrategyConfig,
    WorkloadSpec,
    run_scenario,
)
