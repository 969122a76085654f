"""CLI subcommands, exit codes, report files, reproducibility, diffing."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import fnv1a64_ref
from hfsim import cli
from hfsim.cli import _load_config_text, execute_config, main
from hfsim.config import parse_config_text, serialize_config
from hfsim.report import build_report, diff_reports, float_sum, render_text, report_to_json
from hfsim.errors import AddressError, ConfigFileError, ConfigurationError, ReportMismatchError
from hfsim.guest import IDT_ENTRY_SIZE, GuestMachine
from hfsim.integrity import snapshot_baselines
from hfsim.simulation import (
    HANDLER_VECTOR, IDT_VECTORS, MachineSpec, _guest, plan_layout, run_scenario,
)
from hfsim.threat import PersistentTamper, TransientTamper

SMALL = """
[machine]
page_count = 12

[objects]
count = 8
size_bytes = 64

[workload]
syscall_rate = 40
ctxswitch_rate = 10
arrival = poisson
horizon_s = 6

[costs]
t_vmexit_us = 25
t_vmentry_us = 15
t_interrupt_delivery_us = 100
t_map_page_us = 35
t_hash_per_byte_ns = 180
t_syscall_base_us = 0.1
t_ctxswitch_base_us = 5

[strategy hrk]
kind = hrk
batch_k = 2

[strategy hf]
kind = hf
schedule = periodic
period_s = 2

[attack boom]
kind = persistent
object_index = 5
at_s = 1.1

[run]
repeats = 3
seed = 1000
"""


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL)
    return path


def test_run_writes_reports(small_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(small_cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["schema_version"] == 1
    assert set(report["strategies"]) == {"hrk", "hf"}
    assert report["strategies"]["hrk"]["seeds"] == [1000, 1001, 1002]
    assert (out / "report.txt").exists()
    assert "report written" in capsys.readouterr().out


def test_run_creates_missing_out_parents(small_cfg, tmp_path):
    out = tmp_path / "a" / "b" / "out"
    assert main(["run", str(small_cfg), "--out", str(out), "--repeats", "1"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["report.json", "report.txt"]
    assert [p.name for p in out.parent.iterdir()] == ["out"]


def test_run_is_byte_identical_across_invocations(small_cfg, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(small_cfg), "--out", str(out_a)]) == 0
    assert main(["run", str(small_cfg), "--out", str(out_b)]) == 0
    assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()


def test_repeats_one_equals_single_run_verbatim(small_cfg):
    cfg = parse_config_text(small_cfg.read_text())
    cfg.repeats = 1
    results = execute_config(cfg)
    report = build_report(cfg, results)
    for name, runs in results.items():
        agg = report["strategies"][name]
        run = runs[0].to_json_dict()
        assert agg["runs"] == [run]
        assert agg["overhead_pct"]["mean"] == agg["overhead_pct"]["min"] \
            == agg["overhead_pct"]["max"] == 100.0 * run["overhead_fraction"]


def test_report_means_add_their_floats_left_to_right(small_cfg):
    # a compensated sum, as sum() is from Python 3.12 on, reads 1.0 here
    values = [1e16, 1.0, -1e16]
    assert float_sum(values) == 0.0 and math.fsum(values) == 1.0
    cfg = parse_config_text(small_cfg.read_text())
    results = execute_config(cfg)
    for runs in results.values():
        assert len(runs) == len(values)
        for run, value in zip(runs, values):
            run.per_event_added["syscall"] = value
    text = report_to_json(build_report(cfg, results))
    for name in results:
        means = json.loads(text)["strategies"][name]["per_event_added_us"]
        assert means["syscall"] == 0.0
    assert text.count('"syscall": 0.0\n') == len(results)


def test_every_attack_label_appears_once_per_strategy(small_cfg):
    cfg = parse_config_text(small_cfg.read_text())
    results = execute_config(cfg)
    report = build_report(cfg, results)
    for name in cfg.strategies:
        labels = [a["label"] for a in report["strategies"][name]["attacks"]]
        assert labels == ["boom"]


def test_trace_files_written(small_cfg, tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(small_cfg), "--out", str(out),
                 "--repeats", "1", "--trace"]) == 0
    traces = sorted(p.name for p in out.glob("trace-*.jsonl"))
    assert traces == ["trace-hf-1000.jsonl", "trace-hrk-1000.jsonl"]
    first = (out / "trace-hf-1000.jsonl").read_text().splitlines()
    assert all(json.loads(line) for line in first)


def test_seed_and_repeats_overrides(small_cfg, tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(small_cfg), "--out", str(out),
                 "--repeats", "2", "--seed", "55"]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["strategies"]["hrk"]["seeds"] == [55, 56]


def test_validate_ok_and_config_error(small_cfg, tmp_path, capsys):
    assert main(["validate", str(small_cfg)]) == 0
    assert "OK" in capsys.readouterr().out
    bad = tmp_path / "bad.cfg"
    bad.write_text(SMALL.replace("syscall_rate = 40", "syscall_rate = -40"))
    assert main(["validate", str(bad)]) == 2
    assert "workload.syscall_rate" in capsys.readouterr().err


def test_validate_bundled_config():
    assert main(["validate", "paper_detection.cfg"]) == 0


def test_missing_config_is_config_error(capsys):
    assert main(["run", "no-such-file.cfg", "--out", "x"]) == 2
    assert "not found" in capsys.readouterr().err


def test_usage_errors_exit_1():
    assert main([]) == 1
    assert main(["run"]) == 1
    assert main(["frobnicate"]) == 1


def test_no_partial_report_on_run_failure(small_cfg, tmp_path, capsys):
    # repeats override below 1 is rejected before anything is written
    out = tmp_path / "out"
    assert main(["run", str(small_cfg), "--out", str(out), "--repeats", "0"]) == 2
    assert not out.exists()


def test_repeats_override_is_judged_by_the_run_sections_bound(small_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", str(small_cfg), "--out", str(out), "--repeats", "-1"]) == 2
    assert capsys.readouterr().err.splitlines() == ["config error:", "  --repeats: must be > 0"]
    assert not out.exists()


@pytest.mark.parametrize("default_section", ["[DEFAULT]\n", "[DEFAULT]\noffset = 3\n"],
                         ids=["empty", "with_key"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_default_section_exits_2_with_one_problem(command, default_section, tmp_path, capsys):
    cfg = tmp_path / "default.cfg"
    cfg.write_text(default_section + _load_config_text("paper_hrk.cfg")[0])
    out = tmp_path / "out"
    assert main([command, str(cfg)] + (["--out", str(out)] if command == "run" else [])) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error:", "  [DEFAULT]: unknown section",
    ]
    assert not out.exists()


def _line_of(text, marker, last=False):
    """The line number of `marker`'s first (or last) place in `text`."""
    return text[:(text.rindex if last else text.index)(marker)].count("\n") + 1


_STRUCTURAL = {
    "duplicate_section": (SMALL + "[machine]\npage_count = 12\n",
                          lambda text: f"line {_line_of(text, '[machine]', last=True)}: "
                                       "section [machine] given twice"),
    "duplicate_key": (SMALL.replace("count = 8\n", "count = 8\ncount = 9\n"),
                      lambda text: f"line {_line_of(text, 'count = 9')}: key 'count' given twice"),
    "key_before_section": ("seed = 1\n" + SMALL,
                           lambda text: "line 1: 'seed = 1' comes before the first [section]"),
    "no_equals": (SMALL.replace("batch_k = 2", "batch_k 2"),
                  lambda text: f"line {_line_of(text, 'batch_k 2')}: 'batch_k 2' is not key = value"),
}


@pytest.mark.parametrize("case", list(_STRUCTURAL))
@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_structural_problem_exits_2_with_its_line(command, case, tmp_path, capsys):
    text, problem = _STRUCTURAL[case]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main([command, str(cfg)] + (["--out", str(out)] if command == "run" else [])) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["config error:", f"  file: {problem(text)}"]
    assert "Traceback" not in captured.out + captured.err
    assert not out.exists()


def test_engine_level_inconsistency_is_config_error(tmp_path, capsys):
    # the IDT has no vector 100: the engine's attack check rejects it
    cfg = tmp_path / "bad_vector.cfg"
    cfg.write_text(SMALL + "\n[attack stray]\nkind = idt\nvector = 100\n"
                   "new_handler = 64\nat_s = 1\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("attack", [
    "kind = idt\nvector = 100\nnew_handler = 64\nat_s = 1\n",  # the IDT holds 64
    "kind = idtr\nnew_base = 999999999999\nat_s = 1\n",  # past the end of memory
    "kind = idt\nvector = 3\nnew_handler = 0x10000000000000000\nat_s = 1\n",
    "kind = idtr\nnew_base = 0\nnew_limit = 12\nat_s = 1\n",  # not whole entries
    "kind = persistent\nobject_index = 1\noffset = 1000000000\nat_s = 1\n",
    "kind = transient\nobject_index = 1\nwindows = 1:2\noffset = 1000000000\n",
    "kind = code\noffset = 999999999\nat_s = 1\n",  # past the end of memory
    "kind = persistent\nobject_index = 1\noffset = 64\nat_s = 1\n",  # objects are 64 bytes
    "kind = transient\nobject_index = 1\nwindows = 1:2\noffset = 64\n",
], ids=["idt_vector_100", "idtr_past_memory", "idt_handler_too_wide", "idtr_partial_entry",
        "persistent_offset_past_memory", "transient_offset_past_memory",
        "code_offset_past_memory", "persistent_offset_past_object",
        "transient_offset_past_object"])
def test_validate_rejects_what_run_rejects(attack, tmp_path, capsys):
    cfg = tmp_path / "bad_attack.cfg"
    cfg.write_text(SMALL + "\n[attack stray]\n" + attack)
    assert main(["validate", str(cfg)]) == 2
    assert "attack stray" in capsys.readouterr().err
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert "attack stray" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("batch_k", ["0", "-1"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_batch_below_one_object_exits_2(command, batch_k, tmp_path, capsys):
    # no check rejects it later: the per-exit batch check takes k >= 1 as given
    cfg = tmp_path / "batch.cfg"
    cfg.write_text(SMALL.replace("batch_k = 2", f"batch_k = {batch_k}"))
    out = tmp_path / "out"
    assert main([command, str(cfg)] + (["--out", str(out)] if command == "run" else [])) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error:", "  strategy hrk.batch_k: must be > 0"]
    assert not out.exists()


def test_a_run_whose_plan_fails_leaves_nothing_behind(tmp_path, capsys):
    # the plan is built after the staging directory and --out's ancestors are made
    cfg = tmp_path / "clash.cfg"
    cfg.write_text(SMALL + "\n[attack again]\nkind = persistent\nobject_index = 5\nat_s = 2\n")
    assert main(["validate", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        "config error:", "  attack again: targets the same object as attack 'boom'"]
    assert main(["run", str(cfg), "--out", str(tmp_path / "a" / "b" / "out")]) == 2
    assert capsys.readouterr().err == err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("page_size, code", [
    (0, 2), (32, 2), (100, 2), (-4096, 2), (64, 0), (4096, 0),
])
def test_validate_and_run_judge_page_size_alike(page_size, code, tmp_path, capsys):
    cfg = tmp_path / "pages.cfg"
    cfg.write_text(SMALL.replace("page_count = 12", f"page_count = 32\npage_size = {page_size}")
                   .replace("repeats = 3", "repeats = 1"))
    out = tmp_path / "out"
    assert main(["validate", str(cfg)]) == code
    assert main(["run", str(cfg), "--out", str(out)]) == code
    problems = [line for line in capsys.readouterr().err.splitlines() if line.startswith("  ")]
    problem = f"  machine.page_size: must be a power of two >= 64, got {page_size}"
    assert problems == ([] if code == 0 else [problem] * 2)
    assert out.exists() == (code == 0)


@pytest.mark.parametrize("page_size", [1 << 17, 1 << 28])
def test_a_page_over_64_kib_is_a_config_error(page_size, tmp_path, capsys):
    # a written page is held whole: 256 MiB pages once passed validate and then
    # ran out of memory, so no config here is ever run
    text = _load_config_text("paper_detection.cfg")[0].replace(
        "page_size = 4096", f"page_size = {page_size}")
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(text)
    problem = ("machine.page_size", f"must be at most 65536, got {page_size}")
    assert main(["validate", str(cfg)]) == 2
    assert capsys.readouterr().err.splitlines()[1:] == [f"  {problem[0]}: {problem[1]}"]
    with pytest.raises(ConfigFileError) as exc_info:
        parse_config_text(text)
    assert exc_info.value.problems == [problem]
    for build in (lambda size: MachineSpec(page_count=4, page_size=size),
                  lambda size: GuestMachine(4, size)):
        with pytest.raises(ConfigurationError, match=problem[1]):
            build(page_size)
        assert build(1 << 16).page_size == 1 << 16


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


@settings(max_examples=60, deadline=None)
@given(
    page_size=st.one_of(st.sampled_from([1 << i for i in range(17)]), st.integers(0, 1 << 16)),
    page_count=st.one_of(st.integers(1, 100), st.integers(100, 1 << 20)),
    count=st.integers(1, 64),
    size_bytes=st.one_of(st.integers(1, 256), st.integers(1, 1 << 16)),
    placement=st.sampled_from(["spread", "packed"]),
    batch_k=st.integers(1, 70),
)
@example(page_size=100, page_count=32, count=8, size_bytes=64, placement="spread", batch_k=2)
@example(page_size=64, page_count=80, count=8, size_bytes=40, placement="packed", batch_k=3)
def test_a_config_validate_accepts_runs(page_size, page_count, count, size_bytes, placement,
                                        batch_k):
    # drawn geometry under a 2 ms hrk/hf horizon: validate and run exit alike
    text = (f"[machine]\npage_count = {page_count}\npage_size = {page_size}\n"
            f"[objects]\ncount = {count}\nsize_bytes = {size_bytes}\nplacement = {placement}\n"
            "[workload]\nsyscall_rate = 4000\nctxswitch_rate = 1000\nhorizon_s = 0.002\n"
            f"[strategy hrk]\nkind = hrk\nbatch_k = {batch_k}\n"
            "[strategy hf]\nkind = hf\nschedule = periodic\nperiod_s = 0.0005\n")
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "drawn.cfg"
        cfg.write_text(text)
        validated = _quiet_main(["validate", str(cfg)])
        ran = _quiet_main(["run", str(cfg), "--out", str(Path(tmp) / "out")])
    assert validated in (0, 2)
    assert ran == validated
    if validated:
        return
    # the layout facts the guest takes as given: only the planner checks them
    setup = parse_config_text(text).setup()
    layout = plan_layout(setup)
    module, objects = layout.module_addr, layout.objects
    assert (layout.idt_base, layout.idt_limit) == (page_size, IDT_VECTORS * IDT_ENTRY_SIZE)
    assert HANDLER_VECTOR < IDT_VECTORS
    assert module % page_size == 0 and module >= layout.idt_base + layout.idt_limit
    assert objects.base >= module + page_size  # the module's code fills its one page
    assert objects.stride - objects.length < page_size
    assert objects.addr(objects.count - 1) + objects.length <= page_count * page_size
    # set-up writes no page an object lies on, so one digest of zeros is every baseline
    machine = _guest(setup, layout)
    for page in machine._pages:
        assert not objects.overlapping(page * page_size, (page + 1) * page_size), page
    assert snapshot_baselines(machine).baseline == fnv1a64_ref(bytes(size_bytes))


@pytest.mark.parametrize("command", ["validate", "run"])
def test_spread_object_larger_than_a_page_is_keyed_by_size_bytes(command, tmp_path, capsys):
    cfg = tmp_path / "big.cfg"
    cfg.write_text(SMALL.replace("size_bytes = 64", "size_bytes = 8192"))
    out = tmp_path / "out"
    assert main([command, str(cfg)] + (["--out", str(out)] if command == "run" else [])) == 2
    assert capsys.readouterr().err.splitlines() == [
        "config error:", "  objects.size_bytes: spread placement requires size_bytes <= page_size",
    ]
    assert not out.exists()


def _seconds(ms: int) -> str:
    return f"{ms / 1000:g}"


@st.composite
def _config_texts(draw):
    """Small config text: every attack kind and schedule, optional keys present or absent."""
    def optional(key, values):
        value = draw(st.none() | values)
        return "" if value is None else f"{key} = {value}\n"

    ms = st.integers(0, 12).map(_seconds)
    count = draw(st.integers(1, 12))
    size = draw(st.integers(1, 96))
    parts = [
        f"[machine]\npage_count = {draw(st.integers(8, 40))}\n"
        + optional("page_size", st.sampled_from([64, 4096])),
        f"[objects]\ncount = {count}\nsize_bytes = {size}\n"
        + optional("placement", st.sampled_from(["spread", "packed"])),
        "[workload]\n"
        + "".join(f"{key} = {draw(st.sampled_from(['0', '250', '1000.5', '3e3']))}\n"
                  for key in ("syscall_rate", "ctxswitch_rate"))
        + optional("arrival", st.sampled_from(["fixed", "poisson"]))
        + f"horizon_s = {draw(st.integers(1, 10).map(_seconds))}\n",
    ]
    if draw(st.booleans()):
        parts.append("[costs]\n" + "".join(
            optional(key, st.sampled_from(["0", "0.1", "25", "35"]))
            for key in ("t_vmexit_us", "t_vmentry_us", "t_interrupt_delivery_us",
                        "t_map_page_us", "t_syscall_base_us", "t_ctxswitch_base_us"))
            + optional("t_hash_per_byte_ns", st.sampled_from(["2", "180"])))
    for name in "ab"[:draw(st.integers(1, 2))]:
        kind = draw(st.sampled_from(["baseline", "hrk", "hf"]))
        text = f"[strategy {name}]\nkind = {kind}\n"
        if kind == "hrk":
            text += f"batch_k = {draw(st.integers(1, 20))}\n"
        elif kind == "hf":
            period = draw(st.integers(1, 5))
            schedule = draw(st.sampled_from(["periodic", "jittered", "guest_visible"]))
            text += f"schedule = {schedule}\nperiod_s = {_seconds(period)}\n"
            if schedule == "jittered":
                text += (f"jitter_s = {_seconds(draw(st.integers(0, period - 1)))}\n"
                         + optional("jitter_seed", st.integers(0, 9)))
        parts.append(text)
    for i in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["persistent", "transient", "code", "idt", "idtr",
                                     "persistent_sweep"]))
        text = f"[attack x{i}]\nkind = {kind}\n"
        if kind in ("persistent", "transient"):
            text += f"object_index = {draw(st.integers(0, count))}\n"
        if kind == "transient":
            ends = draw(st.lists(st.integers(0, 15), min_size=2, max_size=4, unique=True))
            ends = sorted(ends)[:len(ends) // 2 * 2]
            text += "windows = " + ", ".join(
                f"{_seconds(a)}:{_seconds(b)}" for a, b in zip(ends[::2], ends[1::2])) + "\n"
            text += optional("knowledge", st.sampled_from(["none", "guest_visible"]))
        if kind in ("persistent", "transient"):
            text += (optional("offset", st.integers(0, size + 2))
                     + optional("xor_mask", st.integers(0, 255)))
        elif kind == "code":
            text += f"offset = {draw(st.integers(0, 5000))}\n"
        elif kind == "idt":
            text += (f"vector = {draw(st.integers(0, 66))}\n"
                     f"new_handler = {draw(st.sampled_from([0, 64, 1 << 63, 1 << 64]))}\n")
        elif kind == "idtr":
            text += (f"new_base = {draw(st.integers(0, 2600))}\n"
                     + optional("new_limit", st.sampled_from([0, 8, 12, 512])))
        elif kind == "persistent_sweep":
            text += (f"count = {draw(st.integers(1, 4))}\nstart_s = {draw(ms)}\n"
                     f"step_s = {draw(ms)}\n"
                     + optional("object_start", st.integers(0, 20))
                     + optional("object_stride", st.integers(1, 5)))
        if kind in ("persistent", "code", "idt", "idtr"):
            text += f"at_s = {draw(ms)}\n"
        parts.append(text)
    if draw(st.booleans()):
        parts.append("[run]\n" + optional("repeats", st.integers(1, 2))
                     + optional("seed", st.integers(0, 99)))
    if draw(st.integers(0, 7)) == 0:  # configparser's special section, an unknown one here
        parts.insert(draw(st.integers(0, len(parts))),
                     "[DEFAULT]\n" + optional("offset", st.integers(0, 3)))
    return "\n".join(parts)


@settings(max_examples=40, deadline=None)
@given(text=_config_texts())
@example(text=SMALL.replace("repeats = 3", "repeats = 1") + "\n[attack shrink]\nkind = idtr\n"
         "new_base = 0\nnew_limit = 0\nat_s = 0\n\n[attack past]\nkind = idt\nvector = 0\n"
         "new_handler = 0\nat_s = 0\n")
def test_a_drawn_config_round_trips_and_validates_as_it_runs(text):
    try:
        config = parse_config_text(text)
    except ConfigFileError:
        config = None
    planned = False
    if config is not None:
        canonical = serialize_config(config)
        again = parse_config_text(canonical)
        assert again == config
        assert serialize_config(again) == canonical
        try:
            config.expanded_attacks()
            planned = True
        except ConfigFileError:
            pass
    if planned:
        # an object tamper whose offset (drawn up to size + 2) runs past its object is
        # rejected; a sweep's tampers all write at offset 0
        assert all(spec.offset < config.objects.size_bytes
                   for _, spec in config.attacks
                   if isinstance(spec, (PersistentTamper, TransientTamper)))
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "drawn.cfg"
        cfg.write_text(text)
        validated = _quiet_main(["validate", str(cfg)])
        ran = _quiet_main(["run", str(cfg), "--out", str(Path(tmp) / "out")])
    assert validated == (0 if planned else 2)
    assert ran == validated


_TRANSIENT = "\n[attack blink]\nkind = transient\nobject_index = 2\nwindows = 1:2\n"


@pytest.mark.parametrize("value", ["inf", "-inf", "Infinity", "nan"])
@pytest.mark.parametrize("key, setting, raw", [
    ("workload.horizon_s", "horizon_s = 6", "{}"),
    ("costs.t_vmexit_us", "t_vmexit_us = 25", "{}"),
    ("attack blink.windows", "windows = 1:2", "1:{}"),
], ids=["horizon_s", "t_vmexit_us", "window_end"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_non_finite_durations_exit_2_with_one_line(command, key, setting, raw, value, tmp_path,
                                                     capsys):
    raw = raw.format(value)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text((SMALL + _TRANSIENT).replace(setting, setting.split(" = ")[0] + " = " + raw))
    out = tmp_path / "out"
    assert main([command, str(cfg)] + (["--out", str(out)] if command == "run" else [])) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [
        "config error:", f"  {key}: cannot parse {raw!r}: not a finite number: {value!r}",
    ]
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "-inf", "Infinity", "nan"])
@pytest.mark.parametrize("setting", ["syscall_rate = 40", "ctxswitch_rate = 10"],
                         ids=["syscall_rate", "ctxswitch_rate"])
@pytest.mark.parametrize("command", ["validate", "run"])
def test_non_finite_rates_exit_2_with_one_line(command, setting, value, tmp_path, capsys):
    key = setting.split(" = ")[0]
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(SMALL.replace(setting, f"{key} = {value}"))
    out = tmp_path / "out"
    assert main([command, str(cfg)] + (["--out", str(out)] if command == "run" else [])) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == ["config error:", f"  workload.{key}: must be finite"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run", "diff"])
def test_non_utf8_input_exits_2_with_one_line(command, tmp_path, capsys):
    bad = tmp_path / "bad.in"
    bad.write_bytes(b"\xff" + SMALL.encode())
    out = tmp_path / "out"
    args = {"validate": ["validate", str(bad)], "run": ["run", str(bad), "--out", str(out)],
            "diff": ["diff", str(bad), str(bad)]}[command]
    assert main(args) == 2
    err = capsys.readouterr().err
    decode = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
    assert "Traceback" not in err
    assert err.splitlines() == ([f"cannot load reports: {decode}"] if command == "diff"
                                else ["config error:", f"  {bad}: not UTF-8 text: {decode}"])
    assert not out.exists()


def test_unwritable_out_exits_3_with_one_line(small_cfg, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["run", str(small_cfg), "--out", str(blocker / "sub")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("run failed: cannot write reports to ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "out_path, existing", [("out", False), ("out", True), ("a/b/out", False)],
    ids=["new_out", "existing_out", "nested_new_out"],
)
@pytest.mark.parametrize("error", [MemoryError, OSError], ids=["memory", "os"])
def test_failed_write_leaves_no_output(error, out_path, existing, small_cfg, tmp_path,
                                       capsys, monkeypatch):
    # report.json and every trace are staged when report.txt fails to render
    out = tmp_path / out_path
    staged = []

    def failing_render(report, **kwargs):
        staged.extend(p.name for p in out.parent.glob(".out.*/*"))
        raise error("no room")

    monkeypatch.setattr(cli, "render_text", failing_render)
    if existing:
        out.mkdir()
        (out / "keep.txt").write_text("kept")
    assert main(["run", str(small_cfg), "--out", str(out), "--repeats", "1", "--trace"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("run failed: ")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert sorted(staged) == ["report.json", "trace-hf-1000.jsonl", "trace-hrk-1000.jsonl"]
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["out", "small.cfg"] if existing else ["small.cfg"]
    )
    assert not existing or [p.name for p in out.iterdir()] == ["keep.txt"]


def test_each_trace_is_on_disk_before_the_next_run(small_cfg, tmp_path, monkeypatch):
    sizes = []

    def observed_run(*args, **kwargs):
        sizes.append({p.name: p.stat().st_size for p in tmp_path.glob(".out.*/trace-*")})
        return run_scenario(*args, **kwargs)

    monkeypatch.setattr(cli, "run_scenario", observed_run)
    out = tmp_path / "out"
    assert main(["run", str(small_cfg), "--out", str(out), "--repeats", "2", "--trace"]) == 0
    names = ["trace-hrk-1000.jsonl", "trace-hrk-1001.jsonl",
             "trace-hf-1000.jsonl", "trace-hf-1001.jsonl"]
    assert [sorted(seen) for seen in sizes] == [sorted(names[:i + 1]) for i in range(4)]
    for i, seen in enumerate(sizes):
        # the starting run's file is open and empty, every earlier one complete
        assert seen[names[i]] == 0
        for name in names[:i]:
            assert seen[name] == (out / name).stat().st_size > 0


def test_mid_run_failure_exits_3_with_no_report(small_cfg, tmp_path, capsys, monkeypatch):
    # a write that fails after t=0 (the attack's object byte) aborts the whole run
    def failing_write(*args, **kwargs):
        raise AddressError("write failed")

    monkeypatch.setattr(GuestMachine, "store_byte", failing_write)
    out = tmp_path / "out"
    assert main(["run", str(small_cfg), "--out", str(out)]) == 3
    assert "run failed" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# diff
# ---------------------------------------------------------------------------

def _report_pair(small_cfg, mutate=None):
    cfg = parse_config_text(small_cfg.read_text())
    results = execute_config(cfg)
    a = build_report(cfg, results)
    b = json.loads(json.dumps(a))
    if mutate:
        mutate(b)
    return a, b


def test_diff_identical_reports_is_empty(small_cfg):
    a, b = _report_pair(small_cfg)
    lines, flagged = diff_reports(a, b)
    assert lines == [] and not flagged


def test_diff_small_overhead_delta_not_flagged(small_cfg):
    def bump(report):
        report["strategies"]["hrk"]["overhead_pct"]["mean"] += 0.5

    a, b = _report_pair(small_cfg, bump)
    lines, flagged = diff_reports(a, b, tol_pct=1.0)
    assert len(lines) == 1 and not flagged


def test_diff_detection_regression_flagged(small_cfg):
    def regress(report):
        det = report["strategies"]["hrk"]["detection"]
        det["latency_worst_s"] = det["latency_worst_s"] + 1.0

    a, b = _report_pair(small_cfg, regress)
    lines, flagged = diff_reports(a, b, tol_pct=1.0)
    assert flagged
    assert any("latency_worst_s" in line and "FLAG" in line for line in lines)


def test_diff_mismatched_digests_rejected(small_cfg):
    def retag(report):
        report["config_digest"] = "0" * 16

    a, b = _report_pair(small_cfg, retag)
    with pytest.raises(ReportMismatchError):
        diff_reports(a, b)


def test_diff_cli_exit_codes(small_cfg, tmp_path, capsys):
    out = tmp_path / "out"
    main(["run", str(small_cfg), "--out", str(out), "--repeats", "1"])
    report = out / "report.json"
    capsys.readouterr()  # drain the run command's output
    assert main(["diff", str(report), str(report)]) == 0
    assert capsys.readouterr().out == ""
    other = tmp_path / "other.json"
    data = json.loads(report.read_text())
    data["config_digest"] = "f" * 16
    other.write_text(json.dumps(data))
    assert main(["diff", str(report), str(other)]) == 2


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-5", "abc"])
def test_diff_rejects_a_tolerance_that_breaks_it(tol, small_cfg, tmp_path, capsys):
    # under --tol nan a 10-point overhead regression went unflagged; under -5 every change was
    def regress(report):
        report["strategies"]["hrk"]["overhead_pct"]["mean"] += 10

    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, report in zip(paths, _report_pair(small_cfg, regress)):
        path.write_text(json.dumps(report))
    assert main(["diff", *map(str, paths)]) == 0
    assert capsys.readouterr().err == "regressions beyond tolerance detected\n"
    assert main(["diff", *map(str, paths), f"--tol={tol}"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == (
        f"hfsim diff: error: argument --tol: must be a finite number >= 0, got {tol!r}")


def test_render_text_contains_all_strategies(small_cfg):
    cfg = parse_config_text(small_cfg.read_text())
    results = execute_config(cfg)
    text = render_text(build_report(cfg, results))
    assert "hrk" in text and "hf" in text and "boom" in text


_json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
    st.text(), st.sampled_from(['"\\\n\t\x00\x7f', "\u00e9\u20ac\U0001f600"]),
)
_json_values = st.recursive(
    _json_leaves,
    lambda children: st.one_of(
        st.lists(children), st.lists(children).map(tuple),
        st.dictionaries(st.text(), children), st.dictionaries(st.integers(), children),
    ),
    max_leaves=30,
)


_record_values = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, True, 1, False, 0]),
    st.text(), st.sampled_from(["a\nb\n", 'x, "y"', "%s %d %%", "\u00e9\u20ac\U0001f600"]),
)
_record_keys = st.one_of(st.text(), st.sampled_from(["%", "%s", '"', 'a"%(b)s', "\n"]))


@st.composite
def _record_lists(draw):
    """>= 2 dicts that share one key set and hold scalars, or a near miss, as a list or tuple."""
    keys = draw(st.lists(_record_keys, min_size=1, max_size=5, unique=True))
    records = draw(st.lists(st.fixed_dictionaries({key: _record_values for key in keys}),
                            min_size=2, max_size=6))
    i = draw(st.integers(1, len(records) - 1))
    miss = draw(st.sampled_from([None, "extra key", "missing key", "nested value",
                                 "not a dict", "int keys"]))
    if miss == "extra key":
        records[i] = {**records[i], draw(_record_keys.filter(lambda key: key not in keys)): 1}
    elif miss == "missing key":
        records[i] = {key: records[i][key] for key in keys[1:]}
    elif miss == "nested value":
        records[i] = {**records[i], keys[-1]: draw(st.sampled_from([[1], (), {}, {"a": None}]))}
    elif miss == "not a dict":
        records[i] = draw(st.one_of(_record_values, st.just([records[i]])))
    elif miss == "int keys":
        records = [dict(enumerate(record.values())) for record in records]
    return tuple(records) if draw(st.booleans()) else records


@settings(max_examples=400, deadline=None)
@given(value=st.one_of(_json_values, _record_lists(),
                       _record_lists().map(lambda records: {"runs": [{"attacks": records}]})))
@example(value={"a": [(), {}, [1.5, -0.0, None, True]], "b": {"c": (math.nan, "\u00e9")}})
@example(value=[{"%s": "a\nb, \"c\": %d", 'k"%': math.nan, "x": True},
                {"%s": "\u00e9", 'k"%': -0.0, "x": 1}])
def test_report_writer_matches_json_dumps(value):
    assert report_to_json(value) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_run_with_100m_pages_writes_both_reports(tmp_path, capsys):
    # guest memory is sparse, so page_count does not size the run's memory
    text = _load_config_text("paper_hrk.cfg")[0].replace(
        "page_count = 15008", "page_count = 100000000"
    )
    assert "page_count = 100000000" in text
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    [run] = json.loads((out / "report.json").read_text())["strategies"]["hrk"]["runs"]
    assert run["config_echo"]["machine"]["page_count"] == 100_000_000
    assert (out / "report.txt").read_text()


@pytest.mark.parametrize("order", ["bad_second", "bad_first"])
def test_diff_rejects_json_that_is_not_a_report(order, small_cfg, tmp_path, capsys):
    report, _ = _report_pair(small_cfg)
    no_detection = json.loads(json.dumps(report))
    del no_detection["strategies"]["hf"]["detection"]
    good = tmp_path / "report.json"
    good.write_text(json.dumps(report))
    for bad in ({}, [], no_detection):
        other = tmp_path / "other.json"
        other.write_text(json.dumps(bad))
        pair = [str(good), str(other)] if order == "bad_second" else [str(other), str(good)]
        assert main(["diff", *pair]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert "is not an hfsim report" in err and "Traceback" not in err
