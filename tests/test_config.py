"""Config parsing, strict validation, canonical serialization, digests."""

import pytest

from hfsim.cli import _load_config_text, bundled_config_names
from hfsim.config import config_digest, parse_config_text, serialize_config
from hfsim.errors import ConfigFileError
from hfsim.timebase import TICKS_PER_SECOND as SEC

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
    assert "attack a.object_index" in _problems(text)


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
    problems = _problems(text)
    assert "attack b" in problems
    assert "'a'" in problems["attack b"]


def test_machine_too_small_for_layout():
    text = MINIMAL.replace("page_count = 8", "page_count = 4")
    assert "machine.page_count" in _problems(text)


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
