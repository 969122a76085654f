"""The behavioural contract: every bundled config's report.json, byte for byte.

The report digests were recorded before the touched-set check engine and
sparse guest memory replaced the full-walk checker; the trace digests
with that engine in place. Every bundled config places its objects one
per page, so a packed config with attacks is pinned too; its digest was
recorded while objects were still registered one by one, and its trace
digests while the clean hrk windows of a packed layout were still traced
in bulk rather than exit by exit. A change that
alters any of them changes simulated results or the `--trace` output and
must say why.
"""

import hashlib

import pytest

from conftest import bundled_config_names
from hfsim.cli import main

REPORT_SHA256 = {
    "paper_costs.cfg": "bb0ee1a49c7d144b1152b152b1425d346441537dcca352ebba8ee0e2f07a8f6f",
    "paper_detection.cfg": "522f49193cb8bf4ee9de4850e9a3b3de9842136b2dd456be02f035b6a67523ce",
    "paper_hf.cfg": "6a6359fdc75f11ca6d60ce037915738bb90f9525922bd15acab273a1afde061d",
    "paper_hrk.cfg": "e4133524a4242112d0f00a0fc101e0edcf5368fb24fd873ac4c33cbcc68d5f3d",
    "paper_overhead.cfg": "32184b1819c95b594d13a61d8bc6f38c8326ffd4ab14650b07cf52ea93cf9f89",
}

TRACE_SHA256 = {
    ("paper_detection.cfg", "trace-hrk-20260810.jsonl"):
        "aebae239810789b3c8229d57ad93571bf420842a12ee3def41e336cfb78c9c42",
    ("paper_detection.cfg", "trace-hf-20260810.jsonl"):
        "820b987caacd28d1aaad28de6bbbe70e293757ffa9d03e2b1f909feac926cd67",
    ("paper_hf.cfg", "trace-hf-20260810.jsonl"):
        "820b987caacd28d1aaad28de6bbbe70e293757ffa9d03e2b1f909feac926cd67",
}

# 300 packed 40-byte objects straddle 512-byte pages, and 300 is not a
# multiple of batch_k = 7, so hrk batches wrap; hf fires with jitter
PACKED_CFG = """\
[machine]
page_count = 30
page_size = 512

[objects]
count = 300
size_bytes = 40
placement = packed

[workload]
syscall_rate = 120
ctxswitch_rate = 30
arrival = poisson
horizon_s = 4

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
batch_k = 7

[strategy hf]
kind = hf
schedule = jittered
period_s = 0.5
jitter_s = 0.1
jitter_seed = 99

[attack sweep]
kind = persistent_sweep
count = 20
start_s = 0.05
step_s = 0.15
object_start = 3
object_stride = 13

[attack flicker]
kind = transient
object_index = 299
windows = 0.4:0.7, 1.9:2.05
offset = 39
xor_mask = 90

[attack code]
kind = code
offset = 100
at_s = 1.5

[attack idt]
kind = idt
vector = 3
new_handler = 64
at_s = 2.5

[attack idtr]
kind = idtr
new_base = 0
at_s = 3.5

[run]
repeats = 2
seed = 77
"""
PACKED_SHA256 = "3475c6421a1510521ec9e7601e897a9e112836b0e4d9e12a750db746b0ec3409"
PACKED_TRACE_SHA256 = {
    "trace-hrk-77.jsonl": "f691c48bba98b0e6e94747e24e5110faa17ea5fa2f519d2a41ca5e0e25a43ac2",
    "trace-hrk-78.jsonl": "d1fee14b303a44042b7c7b1790ebfadb7854fb40f508dcfe9f69154c9e856fdf",
    "trace-hf-77.jsonl": "4e2d893a48a93e3dafd156d50b5cd31316459466e59c53f7ac0db5834295d120",
    "trace-hf-78.jsonl": "bc8b39f14325f6830a76bdae936823cbe9cdf85f21762dc7c169b70fbf0e0e81",
}


def test_every_bundled_config_has_a_recorded_digest():
    assert sorted(REPORT_SHA256) == bundled_config_names()


@pytest.mark.parametrize("name", sorted(REPORT_SHA256))
def test_bundled_report_is_byte_identical(name, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", name, "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
    assert digest == REPORT_SHA256[name]


@pytest.mark.parametrize("name", sorted({name for name, _ in TRACE_SHA256}))
def test_bundled_trace_is_byte_identical(name, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", name, "--out", str(out), "--trace"]) == 0
    digest = hashlib.sha256((out / "report.json").read_bytes()).hexdigest()
    assert digest == REPORT_SHA256[name]
    for (config, trace), expected in TRACE_SHA256.items():
        if config == name:
            assert hashlib.sha256((out / trace).read_bytes()).hexdigest() == expected


def test_packed_report_is_byte_identical(tmp_path, capsys):
    cfg, out = tmp_path / "packed.cfg", tmp_path / "out"
    cfg.write_text(PACKED_CFG)
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() == PACKED_SHA256


def test_packed_trace_is_byte_identical(tmp_path, capsys):
    cfg, out = tmp_path / "packed.cfg", tmp_path / "out"
    cfg.write_text(PACKED_CFG)
    assert main(["run", str(cfg), "--out", str(out), "--trace"]) == 0
    assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() == PACKED_SHA256
    for trace, expected in PACKED_TRACE_SHA256.items():
        assert hashlib.sha256((out / trace).read_bytes()).hexdigest() == expected
