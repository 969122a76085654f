"""Scenario config files: parse, validate, serialize, digest.

The format is flat sectioned ``key = value`` text (INI-style, no
interpolation). Fixed sections describe the machine, objects, workload,
costs, and run controls; ``[strategy NAME]`` sections (one or two, for
A/B comparison) pick the checking strategies; ``[attack NAME]`` sections
script the attacker. Unknown sections or keys are rejected, and all
problems are reported in one pass as (key, reason) pairs.

Each fixed section and each attack kind is described once, by a key
table of (key, parse) rows in canonical order: parsing builds the
section's spec from it, and serialization walks it with the formatter of
each row's parse function. A key fills the spec field of its name less
any ``_s``/``_us``/``_ns`` unit suffix, with that field's default and bound.
"""

from __future__ import annotations

import configparser
import enum
import re
from dataclasses import MISSING, dataclass, field
from decimal import Decimal, InvalidOperation
from typing import Optional

from . import threat
from .errors import ConfigFileError, ConfigurationError, check_bounds, one_of, positive
from .hypervisor import FiringSchedule, ScheduleMode, jitter_problem
from .integrity import compute_digest
from .simulation import (
    Arrival,
    AttackPlan,
    CostModel,
    MachineSpec,
    ObjectsSpec,
    STRATEGY_HF,
    STRATEGY_HRK,
    SetupSpec,
    StrategyConfig,
    WorkloadSpec,
    plan_attacks,
)
from .timebase import Ticks, ticks_from_ns, ticks_from_seconds, ticks_from_us

_SECTION_NAME = re.compile(r"^[A-Za-z0-9_\-]+$")

# a key's default when the key must be given: its field has no default
_REQUIRED = MISSING


@dataclass
class ScenarioConfig:
    """Everything a `hfsim run` needs; `expanded_attacks` checks its sections together."""

    machine: MachineSpec
    objects: ObjectsSpec
    workload: WorkloadSpec
    costs: CostModel
    strategies: dict = field(default_factory=dict)  # name -> StrategyConfig
    attacks: list = field(default_factory=list)  # (name, AttackSpec)
    repeats: int = 1
    seed: int = 0

    bounds = {"repeats": positive}
    __post_init__ = check_bounds

    def setup(self) -> SetupSpec:
        return SetupSpec(machine=self.machine, objects=self.objects)

    def expanded_attacks(self) -> AttackPlan:
        """The attack plan (`simulation.plan_attacks`) that every run of the config shares.

        Planning checks the layout and the attacks against the setup, and
        raises ConfigFileError if they do not fit. Each call builds a new
        plan. perfbench calls it by this name (ROADMAP item 8).
        """
        return plan_attacks(self.setup(), self.attacks)


class _Collector:
    """Accumulates (key, reason) problems and typed values."""

    def __init__(self, parser: configparser.ConfigParser):
        self.problems: list[tuple[str, str]] = []
        # each section's raw values that no `get` has taken yet
        self.unread = {name: dict(parser.items(name, raw=True)) for name in parser.sections()}

    def get(self, section: str, key: str, parse, default=_REQUIRED, check=None):
        """The key's parsed value; its default if absent; None after a problem."""
        raw = self.unread.setdefault(section, {}).pop(key, None)
        if raw is None:
            if default is _REQUIRED:
                self.problems.append((f"{section}.{key}", "required key missing"))
                return None
            return default
        raw = raw.strip()
        try:
            value = parse(raw)
        except (ValueError, InvalidOperation, ConfigurationError) as exc:
            self.problems.append((f"{section}.{key}", f"cannot parse {raw!r}: {exc}"))
            return None
        err = None if check is None else check(value)
        if err:
            self.problems.append((f"{section}.{key}", err))
            return None
        return value

    def reject_unread(self, section: str) -> None:
        for key in self.unread.get(section, ()):
            self.problems.append((f"{section}.{key}", "unknown key"))

    def build(self, section: str, make, table):
        """`make(**fields)` from the section's key table, or None after a problem."""
        before = len(self.problems)
        fields = {name: self.get(section, key, parse, default, check)
                  for key, name, parse, default, check, _ in table}
        self.reject_unread(section)
        return make(**fields) if len(self.problems) == before else None


def _parse_int(raw: str) -> int:
    return int(raw, 0)


def _parse_rate(raw: str) -> float:
    value = float(raw)
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError("rate must be finite")
    return value


def _parse_enum(cls):
    choice = one_of(*(member.value for member in cls))

    def parse(raw: str):
        if problem := choice(raw):
            raise ValueError(problem)
        return cls(raw)

    return parse


def _parse_windows(raw: str) -> tuple:
    windows = []
    for part in filter(str.strip, raw.split(",")):
        start, colon, end = part.partition(":")
        if not colon:
            raise ValueError(f"window {part.strip()!r} is not start:end")
        windows.append((ticks_from_seconds(start.strip()), ticks_from_seconds(end.strip())))
    if not windows:
        raise ValueError("no windows given")
    return tuple(windows)


def _fmt_ticks(scale: int):
    """The formatter of a tick count as a decimal number of 10**scale ticks."""
    def fmt(ticks: Ticks) -> str:
        text = format(Decimal(ticks).scaleb(-scale), "f")
        if "." in text:
            text = text.rstrip("0").rstrip(".")
        return text or "0"

    return fmt


_fmt_s = _fmt_ticks(9)
_fmt_us = _fmt_ticks(3)


def _fmt_windows(windows: tuple) -> str:
    return ", ".join(f"{_fmt_s(start)}:{_fmt_s(end)}" for start, end in windows)


def _fmt_choice(value) -> str:
    return value.value if isinstance(value, enum.Enum) else value


# the canonical text of a value, by the function that parses it; any
# other parse function reads a choice
_FORMATS = {
    _parse_int: str,
    _parse_rate: repr,
    ticks_from_seconds: _fmt_s,
    ticks_from_us: _fmt_us,
    ticks_from_ns: str,
    _parse_windows: _fmt_windows,
}


def _table(spec, *rows) -> tuple:
    """`spec` and its (key, parse) rows, each plus its field, default, bound and formatter."""
    defaults = {name: f.default for name, f in spec.__dataclass_fields__.items()}
    names = [re.sub(r"_(s|us|ns)$", "", key) for key, _ in rows]
    return spec, tuple((key, name, parse, defaults[name], spec.bounds.get(name),
                        _FORMATS.get(parse, _fmt_choice))
                       for (key, parse), name in zip(rows, names))


# each fixed section's spec and key table; the run section's keys are the scenario's own
_SECTIONS = {
    "machine": _table(MachineSpec,
                      ("page_count", _parse_int),
                      ("page_size", _parse_int)),
    "objects": _table(ObjectsSpec,
                      ("count", _parse_int),
                      ("size_bytes", _parse_int),
                      ("placement", str)),
    "workload": _table(WorkloadSpec,
                       ("syscall_rate", _parse_rate),
                       ("ctxswitch_rate", _parse_rate),
                       ("arrival", _parse_enum(Arrival)),
                       ("horizon_s", ticks_from_seconds)),
    "costs": _table(CostModel,
                    ("t_vmexit_us", ticks_from_us),
                    ("t_vmentry_us", ticks_from_us),
                    ("t_interrupt_delivery_us", ticks_from_us),
                    ("t_map_page_us", ticks_from_us),
                    ("t_hash_per_byte_ns", ticks_from_ns),
                    ("t_syscall_base_us", ticks_from_us),
                    ("t_ctxswitch_base_us", ticks_from_us)),
    "run": _table(ScenarioConfig,
                  ("repeats", _parse_int),
                  ("seed", _parse_int)),
}

# each attack kind: its threat class and key table, after the `kind` key
_ATTACKS = {spec.kind: (spec, table) for spec, table in (
    _table(threat.PersistentTamper,
           ("object_index", _parse_int),
           ("at_s", ticks_from_seconds),
           ("offset", _parse_int),
           ("xor_mask", _parse_int)),
    _table(threat.TransientTamper,
           ("object_index", _parse_int),
           ("windows", _parse_windows),
           ("knowledge", _parse_enum(threat.ScheduleKnowledge)),
           ("offset", _parse_int),
           ("xor_mask", _parse_int)),
    _table(threat.CodeTamper,
           ("offset", _parse_int),
           ("at_s", ticks_from_seconds)),
    _table(threat.IdtTamper,
           ("vector", _parse_int),
           ("new_handler", _parse_int),
           ("at_s", ticks_from_seconds)),
    _table(threat.IdtrTamper,
           ("new_base", _parse_int),
           ("at_s", ticks_from_seconds),
           ("new_limit", _parse_int)),
    _table(threat.SweepSpec,
           ("count", _parse_int),
           ("start_s", ticks_from_seconds),
           ("step_s", ticks_from_seconds),
           ("object_start", _parse_int),
           ("object_stride", _parse_int)),
)}
_ATTACK_KIND = one_of(*_ATTACKS)


def parse_config_text(text: str) -> ScenarioConfig:
    """Parse config text; each section is checked alone (see `ScenarioConfig`)."""
    parser = configparser.ConfigParser(
        interpolation=None,
        delimiters=("=",),
        comment_prefixes=("#", ";"),
        inline_comment_prefixes=("#",),
        default_section="",  # no header names it, so [DEFAULT] is an unknown section
    )
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigFileError([("file", str(exc))]) from None

    col = _Collector(parser)
    named = {"strategy": [], "attack": []}  # (name, section) of each named section
    for section in parser.sections():
        if section in _SECTIONS:
            continue
        prefix, space, name = section.partition(" ")
        if not space or prefix not in named:
            col.problems.append((f"[{section}]", "unknown section"))
        elif not _SECTION_NAME.match(name.strip()):
            col.problems.append((f"[{section}]", f"bad {prefix} name"))
        else:
            named[prefix].append((name.strip(), section))

    specs = {name: col.build(name, spec, table) for name, (spec, table) in _SECTIONS.items()
             if name != "run"}
    run = col.build("run", dict, _SECTIONS["run"][1])

    if not named["strategy"]:
        col.problems.append(("[strategy]", "at least one strategy section is required"))
    if len(named["strategy"]) > 2:
        col.problems.append(("[strategy]", "at most two strategies (A/B) are supported"))
    strategies = {name: _parse_strategy(col, section) for name, section in named["strategy"]}

    attacks = []
    for name, section in named["attack"]:
        # the other keys depend on the kind, so without one only it is reported
        kind = col.get(section, "kind", str, check=_ATTACK_KIND)
        if kind is not None:
            attacks.append((name, col.build(section, *_ATTACKS[kind])))

    if col.problems:
        raise ConfigFileError(col.problems)

    return ScenarioConfig(**specs, **run, strategies=strategies, attacks=attacks)


def _parse_strategy(col: _Collector, section: str) -> Optional[StrategyConfig]:
    """The section's strategy, or None after a problem.

    Its other keys depend on its kind, and an hf strategy's on its
    schedule: while either is missing or unknown, only that is reported.
    """
    before = len(col.problems)
    bounds = StrategyConfig.bounds | FiringSchedule.bounds
    kind = col.get(section, "kind", str, check=bounds["kind"])
    mode = col.get(section, "schedule", _parse_enum(ScheduleMode)) if kind == STRATEGY_HF else None
    if kind is None or (kind == STRATEGY_HF and mode is None):
        return None
    fields, timing = {}, {}  # the strategy's and its schedule's; the specs default the rest
    if kind == STRATEGY_HRK:
        fields["batch_k"] = col.get(section, "batch_k", _parse_int, check=bounds["batch_k"])
    if kind == STRATEGY_HF:
        period = timing["period"] = col.get(section, "period_s", ticks_from_seconds,
                                            check=bounds["period"])
    if mode is ScheduleMode.PERIODIC_JITTERED:  # the jitter's bound needs a valid period
        bound = None if period is None else lambda jitter: jitter_problem(jitter, period)
        timing["jitter"] = col.get(section, "jitter_s", ticks_from_seconds, check=bound)
        timing["seed"] = col.get(section, "jitter_seed", _parse_int, FiringSchedule.seed)
    col.reject_unread(section)
    if len(col.problems) > before:
        return None
    schedule = None if mode is None else FiringSchedule(mode, **timing)
    return StrategyConfig(kind, schedule=schedule, **fields)


# ---------------------------------------------------------------------------
# canonical serialization and digest
# ---------------------------------------------------------------------------

def _pairs(spec, table) -> list:
    """(key, canonical text) for each row of `table` whose field in `spec` is set."""
    values = ((key, fmt, getattr(spec, name)) for key, name, _, _, _, fmt in table)
    return [(key, fmt(value)) for key, fmt, value in values if value is not None]


def serialize_config(config: ScenarioConfig) -> str:
    """Canonical text form; parsing it yields an equal ScenarioConfig."""
    lines = []

    def section(name, pairs):
        lines.append(f"[{name}]")
        for key, value in pairs:
            lines.append(f"{key} = {value}")
        lines.append("")

    for name in ("machine", "objects", "workload", "costs"):
        section(name, _pairs(getattr(config, name), _SECTIONS[name][1]))
    for name, strategy in config.strategies.items():
        pairs = [("kind", strategy.kind)]
        if strategy.kind == STRATEGY_HRK:
            pairs.append(("batch_k", strategy.batch_k))
        elif strategy.kind == STRATEGY_HF:
            sched = strategy.schedule
            pairs.append(("schedule", sched.mode.value))
            pairs.append(("period_s", _fmt_s(sched.period)))
            if sched.mode is ScheduleMode.PERIODIC_JITTERED:
                pairs.append(("jitter_s", _fmt_s(sched.jitter)))
                pairs.append(("jitter_seed", sched.seed))
        section(f"strategy {name}", pairs)
    for name, spec in config.attacks:
        section(f"attack {name}", [("kind", spec.kind)] + _pairs(spec, _ATTACKS[spec.kind][1]))
    section("run", _pairs(config, _SECTIONS["run"][1]))
    return "\n".join(lines)


def config_digest(config: ScenarioConfig) -> str:
    """Stable hex digest identifying the scenario (formatting-independent)."""
    return f"{compute_digest(serialize_config(config).encode('utf-8')):016x}"
