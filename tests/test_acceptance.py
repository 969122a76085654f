"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines as they pass. Every scenario result produced here is also checked
against the exact fixed-point accounting identity.
"""

import json
import random
import time

from conftest import assert_conservation, fnv1a64_ref, make_setup, write_and_record
from hfsim.cli import _load_config_text, execute_config, main
from hfsim.config import parse_config_text
from hfsim.guest import GuestMachine
from hfsim.hypervisor import FiringSchedule, ProtectionRegistry, ScheduleMode
from hfsim.integrity import check_all, check_batch, compute_digest, snapshot_baselines
from hfsim.simulation import CostModel, StrategyConfig, WorkloadSpec, Arrival, run_scenario
from hfsim.threat import (
    CodeTamper,
    IdtTamper,
    ScheduleKnowledge,
    TransientTamper,
)
from hfsim.timebase import TICKS_PER_SECOND as SEC, seconds_from_ticks


def _ok(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE criterion {criterion}: PASS ({detail})", flush=True)


def _run_bundled(name: str):
    text, _ = _load_config_text(name)
    config = parse_config_text(text)
    results = execute_config(config)
    for runs in results.values():
        for result in runs:
            assert_conservation(result, config.costs)
    return config, results


def _latencies_s(result):
    return [
        seconds_from_ticks(d.detected_time - d.tamper_time)
        for d in result.detections
        if d.tamper_time is not None
    ]


# ---------------------------------------------------------------------------
# 1. detection-time reproduction
# ---------------------------------------------------------------------------

def test_criterion_1_detection_time_reproduction():
    started = time.monotonic()
    config, results = _run_bundled("paper_detection.cfg")
    assert config.objects.count == 15000

    sweep_points = sum(
        1 for _, spec in config.attacks for _ in range(getattr(spec, "count", 1))
    )
    assert sweep_points >= 100

    hrk_latencies = _latencies_s(results["hrk"][0])
    hf_latencies = _latencies_s(results["hf"][0])
    assert len(hrk_latencies) == sweep_points
    assert len(hf_latencies) == sweep_points

    hrk_worst = max(hrk_latencies)
    assert 5.5 <= hrk_worst <= 6.5, hrk_worst

    costs = config.costs
    sweep_duration_s = seconds_from_ticks(
        costs.t_interrupt_delivery
        + config.objects.count * config.objects.size_bytes * costs.t_hash_per_byte
    )
    hf_worst = max(hf_latencies)
    assert hf_worst <= 4.0 + sweep_duration_s, hf_worst

    # the single-strategy variants of the same scenario agree
    _, hrk_only = _run_bundled("paper_hrk.cfg")
    _, hf_only = _run_bundled("paper_hf.cfg")
    assert max(_latencies_s(hrk_only["hrk"][0])) == hrk_worst
    assert max(_latencies_s(hf_only["hf"][0])) == hf_worst

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, elapsed
    _ok(1, f"hrk worst {hrk_worst:.4f}s in [5.5, 6.5]; "
           f"hf worst {hf_worst:.4f}s <= {4.0 + sweep_duration_s:.4f}s; "
           f"{sweep_points} tamper times in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. overhead ordering
# ---------------------------------------------------------------------------

def test_criterion_2_overhead_ordering():
    details = []
    for name in ("paper_costs.cfg", "paper_overhead.cfg"):
        _, results = _run_bundled(name)
        hrk = [100.0 * r.overhead_fraction for r in results["hrk"]]
        hf = [100.0 * r.overhead_fraction for r in results["hf"]]
        hrk_mean = sum(hrk) / len(hrk)
        hf_mean = sum(hf) / len(hf)
        assert 10.0 <= hrk_mean <= 14.0, (name, hrk_mean)
        assert 3.0 <= hf_mean <= 6.0, (name, hf_mean)
        assert hrk_mean > 2.0 * hf_mean, (name, hrk_mean, hf_mean)
        # per-event added latency ordering: forced in-guest checking adds
        # less to each syscall than per-VMExit checking
        for hrk_run, hf_run in zip(results["hrk"], results["hf"]):
            assert hf_run.per_event_added["syscall"] < hrk_run.per_event_added["syscall"]
        details.append(f"{name}: hrk {hrk_mean:.2f}%, hf {hf_mean:.2f}%")
    _ok(2, "; ".join(details))


# ---------------------------------------------------------------------------
# 3. trap completeness (exhaustive, zero tolerance)
# ---------------------------------------------------------------------------

def test_criterion_3_trap_completeness_exhaustive():
    page_size = 64
    pages = 4
    size = pages * page_size
    checked = 0
    for protected_mask in range(16):
        protected = {p for p in range(pages) if protected_mask & (1 << p)}
        m = GuestMachine(pages, page_size)
        reg = ProtectionRegistry()
        reg.protect_pages(protected)
        for addr in range(size):
            for length in range(1, size - addr + 1):
                data = bytes([(addr + length) & 0xFF]) * length
                touched = set(range(addr // page_size, (addr + length - 1) // page_size + 1))
                before = m.read(0, m.size)
                outcome = m.guest_write(reg, addr, data)
                assert outcome.trapped == bool(touched & protected), (protected, addr, length)
                if outcome.trapped:
                    assert m.read(0, m.size) == before, (protected, addr, length)
                else:
                    assert m.read(addr, length) == data
                checked += 1
    _ok(3, f"{checked} (span x protection set) combinations, zero mismatches")


# ---------------------------------------------------------------------------
# 4. protection supremacy
# ---------------------------------------------------------------------------

def test_criterion_4_protection_supremacy():
    rng = random.Random("supremacy")
    attacks = []
    horizon_s = 12
    for i in range(500):
        length = rng.randrange(1, 4)
        attacks.append((f"code{i}", CodeTamper(
            offset=rng.randrange(0, 4096 - length),
            at=rng.randrange(1, horizon_s * SEC),
            payload=rng.randbytes(length),
        )))
    for i in range(500):
        attacks.append((f"idt{i}", IdtTamper(
            vector=rng.randrange(0, 64),
            new_handler=rng.randrange(0, 1 << 32),
            at=rng.randrange(1, horizon_s * SEC),
        )))
    costs = CostModel()
    result = run_scenario(
        make_setup(count=2),
        StrategyConfig(kind="hf", schedule=FiringSchedule(ScheduleMode.PERIODIC, 4 * SEC)),
        WorkloadSpec(syscall_rate=0, ctxswitch_rate=0, arrival=Arrival.FIXED,
                     horizon=horizon_s * SEC),
        attacks, costs, seed=4,
    )
    assert_conservation(result, costs)
    assert len(result.attack_outcomes) == 1000
    for outcome in result.attack_outcomes:
        assert outcome.attempted == 1
        assert outcome.trapped == 1
        assert outcome.applied == 0
    assert result.counts["traps"] == 1000
    _ok(4, "1000/1000 randomized code and IDT tampers trapped, 0 applied")


# ---------------------------------------------------------------------------
# 5. mimicry experiment
# ---------------------------------------------------------------------------

_PERIOD_S = 4
_JITTER_S = 1
_CELLS = 11
_HORIZON = 45 * SEC


def _duty_cycle_windows(trial: int) -> tuple:
    """Half of every period dirty, phase uniform, wrapped within the cell."""
    rng = random.Random(f"mimicry-windows:{trial}")
    windows = []
    for i in range(1, _CELLS + 1):
        cell_lo = i * _PERIOD_S * SEC - 2 * SEC
        phase = min(round(rng.uniform(0, 4) * SEC), 4 * SEC - 1)
        if phase + 2 * SEC <= 4 * SEC:
            windows.append((cell_lo + phase, cell_lo + phase + 2 * SEC))
        else:
            windows.append((cell_lo, cell_lo + phase - 2 * SEC))
            windows.append((cell_lo + phase, cell_lo + 4 * SEC))
    return tuple(windows)


def _mimicry_trial(trial: int, schedule: FiringSchedule):
    script = TransientTamper(
        object_index=0,
        windows=_duty_cycle_windows(trial),
        knowledge=ScheduleKnowledge.GUEST_VISIBLE_ONLY,
    )
    entries = []
    result = run_scenario(
        make_setup(count=1), StrategyConfig(kind="hf", schedule=schedule),
        WorkloadSpec(syscall_rate=0, ctxswitch_rate=0, arrival=Arrival.FIXED,
                     horizon=_HORIZON),
        [("mimic", script)], CostModel(), seed=trial,
        trace=entries.append,
    )
    firings = [e for e in entries if e["kind"] == "firing_end"]
    dirty_samples = sum(1 for e in firings if e["violations"] > 0)
    return result, len(firings), dirty_samples


def _overlap_oracle(trial: int) -> float:
    """Analytic per-firing probability that a jittered check samples dirty state."""
    windows = _duty_cycle_windows(trial)
    probabilities = []
    for i in range(1, _CELLS + 1):
        lo = i * _PERIOD_S * SEC - _JITTER_S * SEC
        hi = i * _PERIOD_S * SEC + _JITTER_S * SEC
        overlap = sum(max(0, min(e, hi) - max(s, lo)) for s, e in windows)
        probabilities.append(overlap / (hi - lo))
    return sum(probabilities) / len(probabilities)


def test_criterion_5_mimicry_experiment():
    trials = 500

    # visible schedule: the evasion attacker is never detected
    total_detections = 0
    for trial in range(trials):
        result, n_firings, dirty = _mimicry_trial(
            trial, FiringSchedule(ScheduleMode.GUEST_VISIBLE, _PERIOD_S * SEC)
        )
        assert n_firings == _CELLS
        total_detections += len(result.detections) + dirty
        assert result.attack_outcomes[0].evaded is True
    assert total_detections == 0

    # hidden jittered schedule: empirical sampling frequency matches the
    # analytic interval-overlap oracle within +/- 0.1
    sampled = 0
    fired = 0
    oracle_sum = 0.0
    for trial in range(trials):
        result, n_firings, dirty = _mimicry_trial(
            trial, FiringSchedule(ScheduleMode.PERIODIC_JITTERED, _PERIOD_S * SEC,
                                  _JITTER_S * SEC, seed=trial)
        )
        if trial < 5:
            assert_conservation(result)
        fired += n_firings
        sampled += dirty
        oracle_sum += _overlap_oracle(trial)
    empirical = sampled / fired
    oracle = oracle_sum / trials
    assert abs(empirical - oracle) <= 0.1, (empirical, oracle)
    assert 0.4 <= oracle <= 0.6  # 50% duty cycle with uniform phase
    _ok(5, f"visible: 0 detections in {trials} trials; hidden: empirical "
           f"{empirical:.4f} vs oracle {oracle:.4f}")


# ---------------------------------------------------------------------------
# 6. batched-check oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_6_batch_oracle_equivalence():
    combos = 0
    for n in range(1, 65):
        m = GuestMachine(4, 4096)
        m.set_idtr(4096, 512)
        m.register_kernel_object(3 * 4096, 8, count=n)
        table = snapshot_baselines(m)
        addrs = [3 * 4096 + 8 * oid for oid in range(n)]  # packed: object i at base + 8i
        pristine = [m.read(addr, 8) for addr in addrs]
        rng = random.Random(n)
        for oid in rng.sample(range(n), rng.randrange(0, n + 1)):
            write_and_record(m, table, addrs[oid], bytes([m.read(addrs[oid], 1)[0] ^ 0xA5]))
        # brute-force full-scan oracle on the frozen machine, reference hash
        oracle = [
            oid for oid, addr in enumerate(addrs)
            if fnv1a64_ref(m.read(addr, 8)) != fnv1a64_ref(pristine[oid])
        ]
        full = sorted(v.target for v in check_all(m, table).violations
                      if isinstance(v.target, int))
        assert full == oracle, n
        for k in range(1, n + 1):
            table.cursor = 0
            found = set()
            for _ in range(-(-n // k)):
                report = check_batch(m, table, k)
                found.update(v.target for v in report.violations
                             if isinstance(v.target, int))
            assert sorted(found) == oracle, (n, k)
            combos += 1
    _ok(6, f"{combos} (N, k) combinations match the full-scan oracle")


# ---------------------------------------------------------------------------
# 7. determinism and accounting
# ---------------------------------------------------------------------------

def test_criterion_7_determinism_and_accounting(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "paper_detection.cfg", "--out", str(out_a)]) == 0
    assert main(["run", "paper_detection.cfg", "--out", str(out_b)]) == 0
    bytes_a = (out_a / "report.json").read_bytes()
    assert bytes_a == (out_b / "report.json").read_bytes()

    report = json.loads(bytes_a)
    runs_checked = 0
    for strategy in report["strategies"].values():
        for run in strategy["runs"]:
            assert run["total_ticks"] == run["baseline_ticks"] + sum(
                run["cost_breakdown"].values()
            )
            assert run["overhead_ticks"] == sum(run["cost_breakdown"].values())
            runs_checked += 1
    assert runs_checked >= 2
    _ok(7, f"byte-identical reports; conservation exact for {runs_checked} runs")


# ---------------------------------------------------------------------------
# 8. digest correctness
# ---------------------------------------------------------------------------

def test_criterion_8_digest_correctness():
    rng = random.Random("digest-acceptance")
    for _ in range(10_000):
        data = rng.randbytes(rng.randrange(0, 128))
        assert compute_digest(data) == fnv1a64_ref(data)

    collisions = 0
    for _ in range(10_000):
        buf = bytearray(rng.randbytes(256))
        original = compute_digest(bytes(buf))
        pos = rng.randrange(256)
        buf[pos] ^= 1 << rng.randrange(8)
        if compute_digest(bytes(buf)) == original:
            collisions += 1
    assert collisions == 0
    _ok(8, "10000 reference matches; 0 single-bit-flip collisions in 10000 trials")
