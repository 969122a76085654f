"""Config parsing, strict validation, canonical serialization, digests."""

import dataclasses
import re
from pathlib import Path

import pytest

from conftest import bundled_config_names
from hfsim import config as config_module
from hfsim import simulation, threat
from hfsim.cli import _load_config_text
from hfsim.config import (
    _ATTACKS,
    _REQUIRED,
    _SECTIONS,
    config_digest,
    parse_config_text,
    serialize_config,
)
from hfsim.errors import ConfigFileError, ConfigurationError
from hfsim.report import build_report
from hfsim.simulation import (
    Arrival,
    AttackPlan,
    MachineSpec,
    ObjectsSpec,
    SetupSpec,
    StrategyConfig,
    WorkloadSpec,
    plan_attacks,
    run_scenario,
)
from hfsim.threat import windows_problem
from hfsim.timebase import TICKS_PER_SECOND as SEC

README = Path(__file__).resolve().parent.parent / "README.md"

MINIMAL = """
[machine]
page_count = 8

[objects]
count = 4
size_bytes = 64

[workload]
syscall_rate = 10
ctxswitch_rate = 0
horizon_s = 5

[strategy main]
kind = baseline
"""


def _problems(text):
    with pytest.raises(ConfigFileError) as exc_info:
        parse_config_text(text)
    return dict(exc_info.value.problems)


def _plan_problems(text):
    # the sections taken together, the layout and the attacks, are checked where they are planned
    config = parse_config_text(text)
    with pytest.raises(ConfigFileError) as exc_info:
        config.expanded_attacks()
    return dict(exc_info.value.problems)


def test_minimal_config_parses_with_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg.machine.page_size == 4096
    assert cfg.objects.placement == "spread"
    assert cfg.workload.arrival.value == "fixed"
    assert cfg.workload.horizon == 5 * SEC
    assert cfg.repeats == 1 and cfg.seed == 0
    assert list(cfg.strategies) == ["main"]


def test_all_bundled_configs_parse_and_round_trip():
    assert bundled_config_names() == [
        "paper_costs.cfg", "paper_detection.cfg", "paper_hf.cfg",
        "paper_hrk.cfg", "paper_overhead.cfg",
    ]
    for name in bundled_config_names():
        text, _ = _load_config_text(name)
        cfg = parse_config_text(text)
        rebuilt = parse_config_text(serialize_config(cfg))
        assert rebuilt == cfg, name
        assert config_digest(rebuilt) == config_digest(cfg)


def test_paper_hf_round_trips_identically():
    text, _ = _load_config_text("paper_hf.cfg")
    cfg = parse_config_text(text)
    again = parse_config_text(serialize_config(cfg))
    assert serialize_config(again) == serialize_config(cfg)


def test_fifteen_thousand_objects_accepted():
    text, _ = _load_config_text("paper_detection.cfg")
    cfg = parse_config_text(text)
    assert cfg.objects.count == 15000


def test_negative_rate_error_names_the_key():
    text = MINIMAL.replace("syscall_rate = 10", "syscall_rate = -1")
    problems = _problems(text)
    assert "workload.syscall_rate" in problems


def test_unknown_key_rejected():
    problems = _problems(MINIMAL + "\n[run]\nrepeats = 1\nbogus = 3\n")
    assert problems == {"run.bogus": "unknown key"}


def test_unknown_section_rejected():
    problems = _problems(MINIMAL + "\n[extras]\nx = 1\n")
    assert "[extras]" in problems


def test_missing_required_keys_listed_exhaustively():
    problems = _problems("[strategy a]\nkind = baseline\n")
    for key in ("machine.page_count", "objects.count", "objects.size_bytes",
                "workload.syscall_rate", "workload.ctxswitch_rate",
                "workload.horizon_s"):
        assert problems[key] == "required key missing"


def test_strategy_required():
    problems = _problems(MINIMAL.replace("[strategy main]\nkind = baseline\n", ""))
    assert "[strategy]" in problems


def test_three_strategies_rejected():
    text = MINIMAL + "\n[strategy b]\nkind = baseline\n[strategy c]\nkind = baseline\n"
    assert "[strategy]" in _problems(text)


def test_hrk_strategy_requires_batch_k():
    text = MINIMAL.replace("kind = baseline", "kind = hrk")
    problems = _problems(text)
    assert "strategy main.batch_k" in problems


def test_hf_jittered_requires_jitter_below_period():
    text = MINIMAL.replace(
        "kind = baseline",
        "kind = hf\nschedule = jittered\nperiod_s = 4\njitter_s = 4",
    )
    problems = _problems(text)
    assert "strategy main.jitter_s" in problems


def test_attack_sections_parse():
    text = MINIMAL + """
[attack boom]
kind = persistent
object_index = 2
at_s = 1.25

[attack windows]
kind = transient
object_index = 3
windows = 0.5:1.5, 2:3
knowledge = guest_visible
"""
    cfg = parse_config_text(text)
    labels = [name for name, _ in cfg.attacks]
    assert labels == ["boom", "windows"]
    persistent = cfg.attacks[0][1]
    assert persistent.at == int(1.25 * SEC)
    transient = cfg.attacks[1][1]
    assert transient.windows == ((SEC // 2, SEC + SEC // 2), (2 * SEC, 3 * SEC))


def test_attack_object_index_out_of_range():
    text = MINIMAL + "\n[attack a]\nkind = persistent\nobject_index = 4\nat_s = 1\n"
    assert _plan_problems(text) == {"attack a.object_index": "object index 4 outside [0, 4)"}


def test_duplicate_attack_targets_cross_validated():
    text = MINIMAL + """
[attack a]
kind = persistent
object_index = 1
at_s = 1

[attack b]
kind = persistent
object_index = 1
at_s = 2
"""
    assert _plan_problems(text) == {"attack b": "targets the same object as attack 'a'"}


_SWEPT = MINIMAL.replace("page_count = 8", "page_count = 304").replace(
    "count = 4", "count = 300") + """
[strategy hrk]
kind = hrk
batch_k = 25

[attack sweep]
kind = persistent_sweep
count = 250
start_s = 0.5
step_s = 0.01

[run]
repeats = 2
"""


def test_a_sweep_is_checked_at_plan_without_being_expanded(monkeypatch):
    def refuse(specs, object_count):
        raise AssertionError("attacks expanded")

    monkeypatch.setattr(threat, "expand_attacks", refuse)
    config = parse_config_text(_SWEPT)
    assert config.attacks[0][1].count == 250
    assert len(config.expanded_attacks().labels) == 250
    # a collision is still found, under the colliding tamper's label
    hit = "\n[attack hit]\nkind = persistent\nobject_index = 7\nat_s = 1\n"
    assert _plan_problems(_SWEPT + hit) == {
        "attack hit": "targets the same object as attack 'sweep[007]'"}
    before_sweep = _SWEPT.replace("[attack sweep]", hit + "\n[attack sweep]")
    assert _plan_problems(before_sweep) == {
        "attack sweep[007]": "targets the same object as attack 'hit'"}


def test_a_pass_plans_its_attacks_once(monkeypatch):
    # a pass as perfbench runs it: parse, plan, every strategy x repeat, report; the
    # sweep is resolved in place, so no tamper is built and nothing is expanded
    plans, planned, tampers = [], [], []
    plan_init, tamper_init = AttackPlan.__init__, threat.PersistentTamper.__init__
    for module in (config_module, simulation):  # each caller's name for the planner
        monkeypatch.setattr(module, "plan_attacks",
                            lambda *args, plan=plan_attacks: planned.append(args) or plan(*args))
    monkeypatch.setattr(AttackPlan, "__init__",
                        lambda self, *args: plans.append(args) or plan_init(self, *args))
    monkeypatch.setattr(threat.PersistentTamper, "__init__",
                        lambda self, *args, **kw: tampers.append(args) or tamper_init(self, *args, **kw))

    def refuse(specs, object_count):
        raise AssertionError("attacks expanded")

    monkeypatch.setattr(threat, "expand_attacks", refuse)
    config = parse_config_text(_SWEPT)
    assert planned == []  # parsing plans nothing
    plan = config.expanded_attacks()
    results = {name: [run_scenario(config.setup(), strategy, config.workload, plan,
                                   config.costs, config.seed + r) for r in range(config.repeats)]
               for name, strategy in config.strategies.items()}
    build_report(config, results)
    assert len(planned) == len(plans) == 1 and tampers == [] and len(plan.labels) == 250
    assert [len(run.attack_outcomes) for runs in results.values() for run in runs] == [250] * 4


def test_machine_too_small_for_layout():
    text = MINIMAL.replace("page_count = 8", "page_count = 4")
    assert _plan_problems(text) == {
        "machine.page_count": "machine needs >= 7 pages for this layout, got 4"}


def test_subsecond_precision_rejected():
    text = MINIMAL.replace("horizon_s = 5", "horizon_s = 5.0000000001")
    assert "workload.horizon_s" in _problems(text)


def test_malformed_file_reports_parse_problem():
    problems = _problems("not an ini file at all")
    assert "file" in problems


def test_digest_is_formatting_independent():
    cfg_a = parse_config_text(MINIMAL)
    noisy = MINIMAL.replace("count = 4", "count =    4  # comment")
    cfg_b = parse_config_text(noisy)
    assert config_digest(cfg_a) == config_digest(cfg_b)


@pytest.mark.parametrize("section, key", [
    ("[attack a]\nobject_index = 1\nat_s = 1\n", "attack a.kind"),
    ("[attack a]\nkind = hybrid\nobject_index = 1\nat_s = 1\n", "attack a.kind"),
    ("[strategy b]\nbatch_k = 2\n", "strategy b.kind"),
    ("[strategy b]\nkind = hybrid\nbatch_k = 2\n", "strategy b.kind"),
    ("[strategy b]\nkind = hf\nperiod_s = 1\njitter_s = 0.5\n", "strategy b.schedule"),
    ("[strategy b]\nkind = hf\nschedule = random\nperiod_s = 1\n", "strategy b.schedule"),
], ids=["attack_kind_missing", "attack_kind_unknown", "strategy_kind_missing",
        "strategy_kind_unknown", "hf_schedule_missing", "hf_schedule_unknown"])
def test_a_missing_or_unknown_kind_is_the_only_problem_reported(section, key):
    # the section's other keys depend on its kind, so none is called unknown
    assert list(_problems(MINIMAL + "\n" + section)) == [key]


def test_every_bad_key_of_an_attack_is_reported():
    text = MINIMAL + """
[attack b]
kind = transient
object_index = 1
windows = 1:3, 2:4
xor_mask = 300
"""
    assert _problems(text) == {
        "attack b.windows": "dirty windows must be ordered and disjoint",
        "attack b.xor_mask": "must be a byte",
    }


def test_windows_problem_is_the_transient_tamper_rule():
    assert windows_problem(((0, 10), (10, 20))) is None
    assert windows_problem(((5, 5),)) == "empty dirty window (5, 5)"
    assert windows_problem(((0, 10), (5, 15))) == "dirty windows must be ordered and disjoint"


def test_spread_object_larger_than_a_page_names_size_bytes():
    text = MINIMAL.replace("size_bytes = 64", "size_bytes = 8192")
    assert _plan_problems(text) == {
        "objects.size_bytes": "spread placement requires size_bytes <= page_size",
    }


def test_run_scenario_rejects_a_bad_layout_by_config_key():
    setup = SetupSpec(MachineSpec(page_count=4), ObjectsSpec(count=4, size_bytes=8192))
    workload = WorkloadSpec(syscall_rate=1, ctxswitch_rate=0, arrival=Arrival.FIXED,
                            horizon=SEC)
    with pytest.raises(ConfigurationError) as exc_info:
        run_scenario(setup, StrategyConfig(kind="baseline"), workload)
    assert [key for key, _ in exc_info.value.problems] == [
        "objects.size_bytes", "machine.page_count",
    ]


def _readme_attack_keys() -> dict:
    """{kind: [(key, default text or None)]} from README's attack table."""
    table = README.read_text().split("Attack kinds", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for line in table.splitlines():
        if line.startswith("| `"):
            kind, keys = line.split(" | ")[:2]
            documented[kind.strip("|` ")] = [
                re.fullmatch(r"`(\w+)`(?: = (.+))?", item.strip()).groups()
                for item in keys.split(",")
            ]
    return documented


def _readme_fixed_keys() -> dict:
    """{section: [(key, default text or None)]} from README's config example, fixed sections."""
    example = README.read_text().split("```ini\n", 1)[1].split("```", 1)[0]
    documented, keys = {}, None
    for line in example.splitlines():
        text, _, comment = line.partition("#")
        if line.startswith("["):
            section = text.strip()[1:-1]
            keys = documented.setdefault(section, []) if section in _SECTIONS else None
            every = re.search(r"every key optional, default (\w+)", comment)
        elif keys is not None and " = " in text:
            default = re.search(r"optional, default ([^;\s]+)", comment) or every
            keys.append((text.split(" = ")[0].strip(), default and default[1]))
    return documented


def test_readme_attack_table_lists_each_kinds_keys_and_defaults():
    documented = _readme_attack_keys()
    assert list(documented) == list(_ATTACKS)
    for kind, (_, table) in _ATTACKS.items():
        assert [key for key, _ in documented[kind]] == [row[0] for row in table], kind
        for (key, text), (_, _, _, default, _, fmt) in zip(documented[kind], table):
            assert (text is None) == (default is _REQUIRED), key
            if default is not _REQUIRED and default is not None:
                assert text == fmt(default), key
    # and the config example's `# optional, default X` comments, section by section
    documented = _readme_fixed_keys()
    assert list(documented) == list(_SECTIONS)
    for section, (_, table) in _SECTIONS.items():
        assert [key for key, _ in documented[section]] == [row[0] for row in table], section
        for (key, text), (_, _, _, default, _, fmt) in zip(documented[section], table):
            assert (text is None) == (default is _REQUIRED), key
            if default is not _REQUIRED:
                assert text == fmt(default), key


# a config that sets every key of the fixed sections that has a bound
_BOUNDED = """
[machine]
page_count = 4096
page_size = 4096

[objects]
count = 4
size_bytes = 64
placement = spread

[workload]
syscall_rate = 10
ctxswitch_rate = 0
horizon_s = 5

[costs]
t_vmexit_us = 25
t_vmentry_us = 15
t_interrupt_delivery_us = 100
t_map_page_us = 35
t_hash_per_byte_ns = 180
t_syscall_base_us = 0.1
t_ctxswitch_base_us = 5

[strategy main]
kind = baseline

[run]
repeats = 1
"""

# raw values for each bounded key of _BOUNDED, on both sides of its bound, none of
# which breaks a rule that spans sections
_PROBES = {
    "machine.page_count": ["-1", "0", "4096"],
    "machine.page_size": ["-64", "0", "32", "100", "64", "4096", "65536", "131072"],
    "objects.count": ["-1", "0", "1", "4"],
    "objects.size_bytes": ["-1", "0", "1", "64"],
    "objects.placement": ["spread", "packed", "diagonal"],
    "workload.syscall_rate": ["-1", "-0.5", "0", "2.5"],
    "workload.ctxswitch_rate": ["-1", "0", "3"],
    "workload.horizon_s": ["-1", "0", "0.5"],
    **{f"costs.{key}": ["-1", "0", "2.5"] for key in (
        "t_vmexit_us", "t_vmentry_us", "t_interrupt_delivery_us", "t_map_page_us",
        "t_syscall_base_us", "t_ctxswitch_base_us")},
    "costs.t_hash_per_byte_ns": ["-1", "0", "3"],
    "run.repeats": ["-1", "0", "1", "2"],
}


def test_every_bounded_fixed_key_is_probed():
    bounded = {f"{section}.{row[0]}" for section, (_, table) in _SECTIONS.items()
               for row in table if row[4] is not None}
    assert bounded == set(_PROBES)


@pytest.mark.parametrize("key, raw", [(key, raw) for key, raws in _PROBES.items()
                                      for raw in raws])
def test_config_and_direct_constructor_agree_on_each_bound(key, raw):
    section, name = key.split(".")
    _, field, parse, _, _, _ = next(row for row in _SECTIONS[section][1] if row[0] == name)
    try:
        parse_config_text(re.sub(rf"^{name} = .*$", f"{name} = {raw}", _BOUNDED, flags=re.M))
        rejected = False
    except ConfigFileError as exc:
        rejected = key in dict(exc.problems)
    base = parse_config_text(_BOUNDED)
    spec = base if section == "run" else getattr(base, section)
    if rejected:
        with pytest.raises(ConfigurationError):
            dataclasses.replace(spec, **{field: parse(raw)})
    else:
        assert getattr(dataclasses.replace(spec, **{field: parse(raw)}), field) == parse(raw)
