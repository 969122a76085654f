"""Scenario config files: parse, validate, serialize, digest.

The format is flat sectioned ``key = value`` text (INI-style, no
interpolation). Fixed sections describe the machine, objects, workload,
costs, and run controls; ``[strategy NAME]`` sections (one or two, for
A/B comparison) pick the checking strategies; ``[attack NAME]`` sections
script the attacker. Unknown sections or keys are rejected, and all
problems are reported in one pass as (key, reason) pairs.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from typing import Optional

from . import threat
from .errors import ConfigFileError, ConfigurationError
from .guest import page_size_problem
from .hypervisor import FiringSchedule, ScheduleMode
from .integrity import compute_digest
from .simulation import (
    Arrival,
    CostModel,
    MachineSpec,
    ObjectsSpec,
    SetupSpec,
    StrategyConfig,
    WorkloadSpec,
    check_attacks,
    plan_layout,
)
from .timebase import Ticks, ticks_from_ns, ticks_from_seconds, ticks_from_us

_SECTION_NAME = re.compile(r"^[A-Za-z0-9_\-]+$")

_COST_KEYS = {
    "t_vmexit_us": ("t_vmexit", ticks_from_us),
    "t_vmentry_us": ("t_vmentry", ticks_from_us),
    "t_interrupt_delivery_us": ("t_interrupt_delivery", ticks_from_us),
    "t_map_page_us": ("t_map_page", ticks_from_us),
    "t_hash_per_byte_ns": ("t_hash_per_byte", ticks_from_ns),
    "t_syscall_base_us": ("t_syscall_base", ticks_from_us),
    "t_ctxswitch_base_us": ("t_ctxswitch_base", ticks_from_us),
}


@dataclass
class ScenarioConfig:
    """A fully validated scenario: everything a `hfsim run` needs."""

    machine: MachineSpec
    objects: ObjectsSpec
    workload: WorkloadSpec
    costs: CostModel
    strategies: dict = field(default_factory=dict)  # name -> StrategyConfig
    attacks: list = field(default_factory=list)  # (name, AttackSpec)
    repeats: int = 1
    seed: int = 0

    def setup(self) -> SetupSpec:
        return SetupSpec(machine=self.machine, objects=self.objects)

    def expanded_attacks(self) -> list:
        return threat.expand_attacks(self.attacks, self.objects.count)


class _Collector:
    """Accumulates (key, reason) problems and typed values."""

    def __init__(self, parser: configparser.ConfigParser):
        self.parser = parser
        self.problems: list[tuple[str, str]] = []
        self.consumed: dict[str, set[str]] = {}

    def problem(self, key: str, reason: str) -> None:
        self.problems.append((key, reason))

    def get(self, section: str, key: str, parse, required: bool, default=None, check=None):
        self.consumed.setdefault(section, set()).add(key)
        full = f"{section}.{key}"
        if not self.parser.has_option(section, key):
            if required:
                self.problem(full, "required key missing")
            return default
        raw = self.parser.get(section, key).strip()
        try:
            value = parse(raw)
        except (ValueError, InvalidOperation, ConfigurationError) as exc:
            self.problem(full, f"cannot parse {raw!r}: {exc}")
            return default
        if check is not None:
            err = check(value)
            if err:
                self.problem(full, err)
                return default
        return value

    def reject_unconsumed(self, section: str) -> None:
        known = self.consumed.get(section, set())
        for key in self.parser.options(section):
            if key not in known:
                self.problem(f"{section}.{key}", "unknown key")


def _parse_int(raw: str) -> int:
    return int(raw, 0)


def _parse_rate(raw: str) -> float:
    value = float(raw)
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError("rate must be finite")
    return value


def _parse_seconds(raw: str) -> Ticks:
    return ticks_from_seconds(raw)


def _parse_choice(*choices: str):
    def parse(raw: str) -> str:
        if raw not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}")
        return raw

    return parse


def _parse_windows(raw: str) -> tuple:
    windows = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ValueError(f"window {part!r} is not start:end")
        a, b = part.split(":", 1)
        windows.append((ticks_from_seconds(a.strip()), ticks_from_seconds(b.strip())))
    if not windows:
        raise ValueError("no windows given")
    return tuple(windows)


def _nonneg(value) -> Optional[str]:
    return None if value >= 0 else "must be >= 0"


def _positive(value) -> Optional[str]:
    return None if value > 0 else "must be > 0"


def parse_config_text(text: str) -> ScenarioConfig:
    """Parse and fully validate config text."""
    parser = configparser.ConfigParser(
        interpolation=None,
        delimiters=("=",),
        comment_prefixes=("#", ";"),
        inline_comment_prefixes=("#",),
    )
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigFileError([("file", str(exc))]) from None

    col = _Collector(parser)
    strategy_sections = []
    attack_sections = []
    for section in parser.sections():
        if section in ("machine", "objects", "workload", "costs", "run"):
            continue
        if section.startswith("strategy "):
            name = section[len("strategy "):].strip()
            if not _SECTION_NAME.match(name):
                col.problem(f"[{section}]", "bad strategy name")
            else:
                strategy_sections.append((name, section))
            continue
        if section.startswith("attack "):
            name = section[len("attack "):].strip()
            if not _SECTION_NAME.match(name):
                col.problem(f"[{section}]", "bad attack name")
            else:
                attack_sections.append((name, section))
            continue
        col.problem(f"[{section}]", "unknown section")

    for required_section in ("machine", "objects", "workload"):
        if not parser.has_section(required_section):
            parser.add_section(required_section)

    machine = MachineSpec(
        page_count=col.get("machine", "page_count", _parse_int, True, 1, _positive) or 1,
        page_size=col.get("machine", "page_size", _parse_int, False, 4096, page_size_problem),
    )
    placement = col.get(
        "objects", "placement", _parse_choice("spread", "packed"), False, "spread"
    )
    obj_count = col.get("objects", "count", _parse_int, True, 1, _positive) or 1
    obj_size = col.get("objects", "size_bytes", _parse_int, True, 1, _positive) or 1

    syscall_rate = col.get("workload", "syscall_rate", _parse_rate, True, 0.0, _nonneg)
    ctx_rate = col.get("workload", "ctxswitch_rate", _parse_rate, True, 0.0, _nonneg)
    arrival = col.get(
        "workload", "arrival", _parse_choice("fixed", "poisson"), False, "fixed"
    )
    horizon = col.get("workload", "horizon_s", _parse_seconds, True, 1, _positive) or 1

    cost_values = {}
    if parser.has_section("costs"):
        for key, (attr, conv) in _COST_KEYS.items():
            cost_values[attr] = col.get("costs", key, conv, False, 0, _nonneg) or 0
        col.reject_unconsumed("costs")

    repeats, seed = 1, 0
    if parser.has_section("run"):
        repeats = col.get("run", "repeats", _parse_int, False, 1, _positive) or 1
        seed = col.get("run", "seed", _parse_int, False, 0)
        if seed is None:
            seed = 0
        col.reject_unconsumed("run")

    strategies = {}
    if not strategy_sections:
        col.problem("[strategy]", "at least one strategy section is required")
    if len(strategy_sections) > 2:
        col.problem("[strategy]", "at most two strategies (A/B) are supported")
    for name, section in strategy_sections:
        strategies[name] = _parse_strategy(col, section)

    attacks = []
    for name, section in attack_sections:
        spec = _parse_attack(col, section)
        if spec is not None:
            attacks.append((name, spec))

    for section in ("machine", "objects", "workload"):
        col.reject_unconsumed(section)

    if col.problems:
        raise ConfigFileError(col.problems)

    config = ScenarioConfig(
        machine=machine,
        objects=ObjectsSpec(count=obj_count, size_bytes=obj_size, placement=placement),
        workload=WorkloadSpec(
            syscall_rate=syscall_rate,
            ctxswitch_rate=ctx_rate,
            arrival=Arrival(arrival),
            horizon=horizon,
        ),
        costs=CostModel(**cost_values),
        strategies={k: v for k, v in strategies.items() if v is not None},
        attacks=attacks,
        repeats=repeats,
        seed=seed,
    )
    _cross_validate(config)
    return config


def _parse_strategy(col: _Collector, section: str) -> Optional[StrategyConfig]:
    kind = col.get(section, "kind", _parse_choice("baseline", "hrk", "hf"), True)
    if kind == "hrk":
        batch_k = col.get(section, "batch_k", _parse_int, True, 1, _positive) or 1
        col.reject_unconsumed(section)
        return StrategyConfig(kind="hrk", batch_k=batch_k)
    if kind == "hf":
        mode = col.get(
            section, "schedule",
            _parse_choice("periodic", "jittered", "guest_visible"), True,
        )
        period = col.get(section, "period_s", _parse_seconds, True, 1, _positive) or 1
        schedule = None
        if mode == "jittered":
            jitter = col.get(section, "jitter_s", _parse_seconds, True, 0, _nonneg) or 0
            jseed = col.get(section, "jitter_seed", _parse_int, False, 0) or 0
            if not 0 <= jitter < period:
                col.problem(f"{section}.jitter_s", "must satisfy 0 <= jitter < period")
            else:
                schedule = FiringSchedule.jittered(period, jitter, jseed)
        elif mode == "periodic":
            schedule = FiringSchedule.periodic(period)
        elif mode == "guest_visible":
            schedule = FiringSchedule.guest_visible(period)
        col.reject_unconsumed(section)
        if schedule is None:
            return None
        return StrategyConfig(kind="hf", schedule=schedule)
    col.reject_unconsumed(section)
    if kind is None:
        return None
    return StrategyConfig(kind="baseline")


def _parse_attack(col: _Collector, section: str):
    kinds = ("persistent", "transient", "code", "idt", "idtr", "persistent_sweep")
    kind = col.get(section, "kind", _parse_choice(*kinds), True)
    spec = None
    if kind == "persistent":
        idx = col.get(section, "object_index", _parse_int, True, 0, _nonneg)
        at = col.get(section, "at_s", _parse_seconds, True, 0, _nonneg)
        offset = col.get(section, "offset", _parse_int, False, 0, _nonneg)
        mask = col.get(section, "xor_mask", _parse_int, False, 0xFF,
                       lambda v: None if 0 <= v <= 0xFF else "must be a byte")
        spec = threat.PersistentTamper(object_index=idx or 0, at=at or 0,
                                       offset=offset or 0, xor_mask=mask if mask is not None else 0xFF)
    elif kind == "transient":
        idx = col.get(section, "object_index", _parse_int, True, 0, _nonneg)
        windows = col.get(section, "windows", _parse_windows, True, ())
        knowledge = col.get(section, "knowledge",
                            _parse_choice("none", "guest_visible"), False, "none")
        offset = col.get(section, "offset", _parse_int, False, 0, _nonneg)
        mask = col.get(section, "xor_mask", _parse_int, False, 0xFF,
                       lambda v: None if 0 <= v <= 0xFF else "must be a byte")
        try:
            spec = threat.TransientTamper(
                object_index=idx or 0, windows=windows or (),
                knowledge=threat.ScheduleKnowledge(knowledge),
                offset=offset or 0, xor_mask=mask if mask is not None else 0xFF,
            )
        except ConfigurationError as exc:
            col.problem(f"{section}.windows", str(exc))
    elif kind == "code":
        offset = col.get(section, "offset", _parse_int, True, 0, _nonneg)
        at = col.get(section, "at_s", _parse_seconds, True, 0, _nonneg)
        spec = threat.CodeTamper(offset=offset or 0, at=at or 0)
    elif kind == "idt":
        vector = col.get(section, "vector", _parse_int, True, 0, _nonneg)
        handler = col.get(section, "new_handler", _parse_int, True, 0, _nonneg)
        at = col.get(section, "at_s", _parse_seconds, True, 0, _nonneg)
        spec = threat.IdtTamper(vector=vector or 0, new_handler=handler or 0, at=at or 0)
    elif kind == "idtr":
        base = col.get(section, "new_base", _parse_int, True, 0, _nonneg)
        at = col.get(section, "at_s", _parse_seconds, True, 0, _nonneg)
        limit = col.get(section, "new_limit", _parse_int, False, None)
        spec = threat.IdtrTamper(new_base=base or 0, at=at or 0, new_limit=limit)
    elif kind == "persistent_sweep":
        count = col.get(section, "count", _parse_int, True, 1, _positive)
        start = col.get(section, "start_s", _parse_seconds, True, 0, _nonneg)
        step = col.get(section, "step_s", _parse_seconds, True, 0, _nonneg)
        ostart = col.get(section, "object_start", _parse_int, False, 0, _nonneg)
        ostride = col.get(section, "object_stride", _parse_int, False, 1, _positive)
        spec = threat.SweepSpec(count=count or 1, start=start or 0, step=step or 0,
                                object_start=ostart or 0, object_stride=ostride or 1)
    col.reject_unconsumed(section)
    return spec


def _cross_validate(config: ScenarioConfig) -> None:
    problems = []
    try:
        plan_layout(config.setup())
    except ConfigurationError as exc:
        problems.append(("machine.page_count", str(exc)))
    try:
        check_attacks(config.setup(), config.expanded_attacks())
    except ConfigFileError as exc:
        problems.extend(exc.problems)
    if problems:
        raise ConfigFileError(problems)


# ---------------------------------------------------------------------------
# canonical serialization and digest
# ---------------------------------------------------------------------------

def _fmt_ticks(ticks: Ticks, scale: int) -> str:
    text = format(Decimal(ticks).scaleb(-scale), "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text or "0"


def _fmt_s(ticks: Ticks) -> str:
    return _fmt_ticks(ticks, 9)


def _fmt_us(ticks: Ticks) -> str:
    return _fmt_ticks(ticks, 3)


def serialize_config(config: ScenarioConfig) -> str:
    """Canonical text form; parsing it yields an equal ScenarioConfig."""
    lines = []

    def section(name, pairs):
        lines.append(f"[{name}]")
        for key, value in pairs:
            lines.append(f"{key} = {value}")
        lines.append("")

    section("machine", [
        ("page_count", config.machine.page_count),
        ("page_size", config.machine.page_size),
    ])
    section("objects", [
        ("count", config.objects.count),
        ("size_bytes", config.objects.size_bytes),
        ("placement", config.objects.placement),
    ])
    section("workload", [
        ("syscall_rate", repr(config.workload.syscall_rate)),
        ("ctxswitch_rate", repr(config.workload.ctxswitch_rate)),
        ("arrival", config.workload.arrival.value),
        ("horizon_s", _fmt_s(config.workload.horizon)),
    ])
    section("costs", [
        (key, _fmt_us(getattr(config.costs, attr)) if conv is ticks_from_us
         else _fmt_ticks(getattr(config.costs, attr), 0))
        for key, (attr, conv) in _COST_KEYS.items()
    ])
    for name, strategy in config.strategies.items():
        pairs = [("kind", strategy.kind)]
        if strategy.kind == "hrk":
            pairs.append(("batch_k", strategy.batch_k))
        elif strategy.kind == "hf":
            sched = strategy.schedule
            pairs.append(("schedule", sched.mode.value))
            pairs.append(("period_s", _fmt_s(sched.period)))
            if sched.mode is ScheduleMode.PERIODIC_JITTERED:
                pairs.append(("jitter_s", _fmt_s(sched.jitter)))
                pairs.append(("jitter_seed", sched.seed))
        section(f"strategy {name}", pairs)
    for name, spec in config.attacks:
        pairs = [("kind", spec.kind)]
        if isinstance(spec, threat.PersistentTamper):
            pairs += [("object_index", spec.object_index), ("at_s", _fmt_s(spec.at)),
                      ("offset", spec.offset), ("xor_mask", spec.xor_mask)]
        elif isinstance(spec, threat.TransientTamper):
            windows = ", ".join(f"{_fmt_s(s)}:{_fmt_s(e)}" for s, e in spec.windows)
            pairs += [("object_index", spec.object_index), ("windows", windows),
                      ("knowledge", spec.knowledge.value),
                      ("offset", spec.offset), ("xor_mask", spec.xor_mask)]
        elif isinstance(spec, threat.CodeTamper):
            pairs += [("offset", spec.offset), ("at_s", _fmt_s(spec.at))]
        elif isinstance(spec, threat.IdtTamper):
            pairs += [("vector", spec.vector), ("new_handler", spec.new_handler),
                      ("at_s", _fmt_s(spec.at))]
        elif isinstance(spec, threat.IdtrTamper):
            pairs += [("new_base", spec.new_base), ("at_s", _fmt_s(spec.at))]
            if spec.new_limit is not None:
                pairs.append(("new_limit", spec.new_limit))
        elif isinstance(spec, threat.SweepSpec):
            pairs += [("count", spec.count), ("start_s", _fmt_s(spec.start)),
                      ("step_s", _fmt_s(spec.step)), ("object_start", spec.object_start),
                      ("object_stride", spec.object_stride)]
        section(f"attack {name}", pairs)
    section("run", [("repeats", config.repeats), ("seed", config.seed)])
    return "\n".join(lines)


def config_digest(config: ScenarioConfig) -> str:
    """Stable hex digest identifying the scenario (formatting-independent)."""
    return f"{compute_digest(serialize_config(config).encode('utf-8')):016x}"
