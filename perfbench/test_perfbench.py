"""Self-tests for the host-cost benchmark, on tiny versions of each workload.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time

import pytest

import run  # first: puts ../src on sys.path
import layers
from hfsim.config import parse_config_text, serialize_config
from workloads import WORKLOADS, event_storm, paper_ab, tamper_sweep

ROOT = run.HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
DEFAULT_SEED = 0
HELD_OUT_SEED = 8_675_309  # never used while tuning the generators

TINY = {
    "paper_ab": lambda seed: paper_ab(seed, objects=40, repeats=2),
    "event_storm": lambda seed: event_storm(seed, objects=40, horizon_s=1),
    "tamper_sweep": lambda seed: tamper_sweep(seed, objects=2000, horizon_s=2),
}


@pytest.mark.parametrize("seed", [DEFAULT_SEED, HELD_OUT_SEED])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_seeded_and_parse(name, seed):
    for generate in (WORKLOADS[name], TINY[name]):
        text = generate(seed)
        assert text == generate(seed)
        assert text != generate(seed + 1)
        config = parse_config_text(text)
        config.expanded_attacks()


def test_paper_ab_is_the_shipped_overhead_config():
    shipped = (ROOT / "src/hfsim/configs/paper_overhead.cfg").read_text()
    assert serialize_config(parse_config_text(paper_ab(777000))) == serialize_config(
        parse_config_text(shipped)
    )


def test_benchmark_json_names_every_workload_and_metric():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layers.UNITS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_runs_are_correct_and_emit_every_metric(name):
    text = TINY[name](DEFAULT_SEED)
    checks = run.Checks()
    end_to_end, raw = run.measure(text, 0, checks)
    per_layer = run.measure_traced(text, 0, checks)
    assert checks.attempted > 0 and checks.failed == 0
    assert all(value > 0 for value in end_to_end.values())
    assert raw["passes"] == run.MIN_ROUNDS and raw["probe_s"] > 0
    line = json.loads(run.result_line(end_to_end, run.UNITS, checks))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(run.UNITS)
    line = json.loads(run.result_line(per_layer, layers.UNITS, checks))
    assert set(line["metrics"]) == set(layers.UNITS)


def test_corrupted_report_and_broken_conservation_are_counted():
    results, report_json = run.run_pass(TINY["tamper_sweep"](DEFAULT_SEED))
    runs = [r for strategy_runs in results.values() for r in strategy_runs]
    checks = run.Checks(reference=run.report_digest(report_json))
    checks.report(results, report_json)
    assert (checks.attempted, checks.failed) == (len(runs), 0)

    corrupted = report_json.replace('"traps"', '"trapz"', 1)
    checks.report(results, corrupted)
    assert (checks.attempted, checks.failed) == (2 * len(runs), len(runs))

    broken = dataclasses.replace(runs[0], total_ticks=runs[0].total_ticks + 1)
    checks.runs([broken])
    assert (checks.attempted, checks.failed) == (2 * len(runs) + 1, len(runs) + 1)
    assert not json.loads(run.result_line({}, {}, checks))["correct"]


def test_traced_pass_is_byte_identical_and_restores_hfsim():
    text = TINY["tamper_sweep"](DEFAULT_SEED)
    originals = (layers.GuestMachine.__init__, layers.integrity.check_all)
    _, plain = run.run_pass(text)
    with layers.instrument(layers.Tracer()) as tracer:
        results, traced = run.run_pass(text, tracer)
    assert traced == plain
    assert (layers.GuestMachine.__init__, layers.integrity.check_all) == originals
    metrics = layers.layer_metrics(tracer, results, traced)
    for name in ("hypervisor.vmexit_calls", "hypervisor.firing_calls",
                 "integrity.digest_lookups", "integrity.digests_computed",
                 "guest.register_calls", "guest.write_trapped", "threat.scripts"):
        assert metrics[name] > 0, name
    assert metrics["hypervisor.vmexit_self_s"] < metrics["hypervisor.vmexit_s"]


def test_recorded_references_are_sha256_digests():
    references = json.loads(run.REFERENCES.read_text())
    assert set(references) == set(WORKLOADS)
    for digests in references.values():
        assert str(DEFAULT_SEED) in digests
        assert all(len(d) == 64 and int(d, 16) >= 0 for d in digests.values())


def test_without_hfsim_sources_exits_nonzero_with_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "paper_ab",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_scaled_clock_divides_out_the_probe_speed(monkeypatch):
    monkeypatch.setattr(run, "_probe", lambda: 2 * run.REFERENCE_LOOP_S)
    with run.ScaledClock() as clock:
        with clock.span():
            time.sleep(3 * run.PROBE_INTERVAL_S)
        host, scaled = clock.lap()
    assert len(clock.probe_s) >= 4  # before, at least two on the timer, after
    assert host == pytest.approx(3 * run.PROBE_INTERVAL_S, rel=0.2)
    assert scaled == pytest.approx(host / 2)
    assert clock.lap() == (0.0, 0.0)
