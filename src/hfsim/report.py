"""Comparison reports: aggregate repeated runs, render tables, diff."""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from typing import Optional

from . import __version__
from .config import ScenarioConfig, config_digest
from .errors import ReportMismatchError
from .simulation import ScenarioResult
from .timebase import seconds_from_ticks

SCHEMA_VERSION = 1


def _latencies_s(result: ScenarioResult) -> list[float]:
    return [
        seconds_from_ticks(d.detected_time - d.tamper_time)
        for d in result.detections
        if d.tamper_time is not None
    ]


def build_report(config: ScenarioConfig, results: dict) -> dict:
    """Aggregate per-strategy results (keyed by seed) into one report.

    The report contains no timestamps or host details, so identical
    (config, seed) inputs serialize byte-identically.
    """
    strategies = {}
    for name, runs in results.items():
        overheads = [100.0 * r.overhead_fraction for r in runs]
        latencies = [lat for r in runs for lat in _latencies_s(r)]
        attack_agg: dict[str, dict] = {}
        for r in runs:
            for outcome in r.attack_outcomes:
                agg = attack_agg.setdefault(outcome.label, {
                    "label": outcome.label, "kind": outcome.kind,
                    "attempted": 0, "applied": 0, "trapped": 0,
                    "detected_runs": 0, "evaded_runs": 0,
                })
                agg["attempted"] += outcome.attempted
                agg["applied"] += outcome.applied
                agg["trapped"] += outcome.trapped
                if outcome.detected_at is not None:
                    agg["detected_runs"] += 1
                if outcome.evaded:
                    agg["evaded_runs"] += 1
        n = len(runs)
        strategies[name] = {
            "kind": runs[0].strategy_kind,
            "seeds": [r.seed for r in runs],
            "overhead_pct": {
                "mean": sum(overheads) / n,
                "min": min(overheads),
                "max": max(overheads),
            },
            "detection": {
                "count": sum(len(r.detections) for r in runs),
                "latency_mean_s": (sum(latencies) / len(latencies)) if latencies else None,
                "latency_worst_s": max(latencies) if latencies else None,
            },
            "traps": sum(len(r.trap_records) for r in runs),
            "per_event_added_us": {
                "syscall": sum(r.per_event_added["syscall"] for r in runs) / n / 1000.0,
                "ctxswitch": sum(r.per_event_added["ctxswitch"] for r in runs) / n / 1000.0,
            },
            "attacks": [attack_agg[label] for label in sorted(attack_agg)],
            "runs": [r.to_json_dict() for r in runs],
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": "hfsim",
        "tool_version": __version__,
        "config_digest": config_digest(config),
        "repeats": config.repeats,
        "base_seed": config.seed,
        "strategies": strategies,
    }


# One call writes all the values of a record list. ensure_ascii escapes
# every newline inside a string, so its output splits into values on "\n".
_RECORD_ENCODER = json.JSONEncoder(separators=("\n", ": "))
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _records_to_json(records, pad: str) -> Optional[str]:
    """A record list as _write writes it after `pad`, or None for any other list.

    A record list holds >= 2 exact dicts that share one set of str keys
    and hold only exact str, int, float, bool and None values. Its values
    are encoded by one C-encoder call and laid out by one % template. A
    list whose first item is no such dict is rejected at once.
    """
    first = records[0]
    if (len(records) < 2 or type(first) is not dict or not first
            or not _SCALARS.issuperset(map(type, first.values()))
            or not all(type(key) is str for key in first)):
        return None
    keys = first.keys()
    if not all(type(item) is dict and item.keys() == keys for item in records):
        return None
    names = sorted(first)
    values = [item[name] for item in records for name in names]
    if not _SCALARS.issuperset(map(type, values)):
        return None
    inner = pad + "  "
    field = inner + "  "
    record = "{" + field + ("," + field).join(
        [encode_basestring_ascii(name).replace("%", "%%") + ": %s" for name in names]
    ) + inner + "}"
    layout = "[" + inner + ("," + inner).join([record] * len(records)) + pad + "]"
    return layout % tuple(_RECORD_ENCODER.encode(values)[1:-1].split("\n"))


def _write(value, pad: str, out: list) -> None:
    """Append `value` to `out` as json.dumps(value, sort_keys=True, indent=2) writes it after `pad`.

    `pad` is a newline and the indent of the line `value` starts on. Each
    exact str, int, finite float, bool, None, dict with str keys, list and
    tuple is written here, a record list (`_records_to_json`) at once;
    json.dumps writes nan, infinities and the rest. Every piece goes to
    the one list, so no text is copied before the final join.
    """
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is float and math.isfinite(value):
        out.append(float.__repr__(value))
    elif value is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if value else "false")
    elif (kind is list or kind is tuple or kind is dict) and not value:
        out.append("{}" if kind is dict else "[]")
    elif kind is dict and all(type(key) is str for key in value):
        inner = pad + "  "
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write(value[key], inner, out)
            sep = "," + inner
        out.append(pad + "}")
    elif kind is list or kind is tuple:
        records = _records_to_json(value, pad)
        if records is not None:
            out.append(records)
            return
        inner = pad + "  "
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(pad + "]")
    else:
        out.append(json.dumps(value, sort_keys=True, indent=2).replace("\n", pad))


def report_to_json(report: dict) -> str:
    """json.dumps(report, sort_keys=True, indent=2) + newline, without its pure-Python encoder.

    Lists of flat records, which make up most of a report with attacks,
    cost one C-encoder call each rather than a Python call per value.
    """
    out: list = []
    _write(report, "\n", out)
    out.append("\n")
    return "".join(out)


def render_text(report: dict, include_attacks: bool = True) -> str:
    """Human-readable summary table for one report."""
    lines = [
        f"scenario {report['config_digest']}  "
        f"repeats={report['repeats']}  base_seed={report['base_seed']}",
        "",
        f"{'strategy':<12} {'overhead% mean':>14} {'min':>8} {'max':>8} "
        f"{'det worst s':>12} {'det mean s':>11} {'traps':>6}",
    ]
    for name, s in report["strategies"].items():
        det = s["detection"]
        worst = f"{det['latency_worst_s']:.4f}" if det["latency_worst_s"] is not None else "-"
        mean = f"{det['latency_mean_s']:.4f}" if det["latency_mean_s"] is not None else "-"
        lines.append(
            f"{name:<12} {s['overhead_pct']['mean']:>14.3f} "
            f"{s['overhead_pct']['min']:>8.3f} {s['overhead_pct']['max']:>8.3f} "
            f"{worst:>12} {mean:>11} {s['traps']:>6}"
        )
    lines.append("")
    lines.append(f"{'strategy':<12} {'added us/syscall':>17} {'added us/ctxswitch':>19}")
    for name, s in report["strategies"].items():
        pe = s["per_event_added_us"]
        lines.append(f"{name:<12} {pe['syscall']:>17.3f} {pe['ctxswitch']:>19.3f}")
    for name, s in report["strategies"].items():
        if not s["attacks"] or not include_attacks:
            continue
        lines.append("")
        lines.append(f"attack outcomes under {name}:")
        for a in s["attacks"]:
            detected = "detected" if a["detected_runs"] else "undetected"
            evaded = " EVADED" if a["evaded_runs"] else ""
            lines.append(
                f"  {a['label']:<20} {a['kind']:<12} attempted={a['attempted']} "
                f"applied={a['applied']} trapped={a['trapped']} {detected}{evaded}"
            )
    lines.append("")
    return "\n".join(lines)


def _relative_exceeds(a: Optional[float], b: Optional[float], tol_pct: float) -> bool:
    if a is None or b is None:
        return a != b
    if a == b:
        return False
    if a == 0:
        return True
    return abs(b - a) / abs(a) * 100.0 > tol_pct


def _diffed_metrics(report, which: str) -> dict:
    """{strategy: (overhead mean %, traps, worst latency, mean latency)} of a report.

    Raises ReportMismatchError when `report` is not an hfsim report.
    """
    try:
        metrics = {
            name: (s["overhead_pct"]["mean"], s["traps"],
                   s["detection"]["latency_worst_s"], s["detection"]["latency_mean_s"])
            for name, s in report["strategies"].items()
        }
        for values in metrics.values():  # a latency may be None, the others not
            if not all(isinstance(v, (int, float)) or (i > 1 and v is None)
                       for i, v in enumerate(values)):
                raise TypeError(f"non-number among {values}")
    except (KeyError, TypeError, AttributeError) as exc:
        raise ReportMismatchError(f"report {which} is not an hfsim report: {exc!r}") from None
    return metrics


def diff_reports(a: dict, b: dict, tol_pct: float = 1.0) -> tuple[list[str], bool]:
    """Per-metric deltas between two reports of the same scenario.

    Returns (lines, flagged). Overhead deltas are compared against the
    tolerance in percentage points (the metric is already a percentage);
    time and count metrics are compared relatively. Only differing metrics
    produce lines, so identical reports diff to nothing.
    """
    ma, mb = _diffed_metrics(a, "A"), _diffed_metrics(b, "B")
    if a.get("config_digest") != b.get("config_digest"):
        raise ReportMismatchError(
            f"config digests differ: {a.get('config_digest')} vs {b.get('config_digest')}"
        )
    lines: list[str] = []
    flagged = False

    for name in sorted(set(ma) | set(mb)):
        if name not in ma or name not in mb:
            lines.append(f"{name}: present in only one report FLAG")
            flagged = True
            continue
        (oa, traps_a, *lat_a), (ob, traps_b, *lat_b) = ma[name], mb[name]
        if oa != ob:
            flag = abs(ob - oa) > tol_pct
            flagged |= flag
            lines.append(
                f"{name}: overhead mean {oa:.4f}% -> {ob:.4f}% "
                f"(delta {ob - oa:+.4f} pts){' FLAG' if flag else ''}"
            )
        for metric, va, vb in zip(("latency_worst_s", "latency_mean_s"), lat_a, lat_b):
            if va != vb:
                flag = _relative_exceeds(va, vb, tol_pct)
                flagged |= flag
                lines.append(
                    f"{name}: detection {metric} {va} -> {vb}"
                    f"{' FLAG' if flag else ''}"
                )
        if traps_a != traps_b:
            flag = _relative_exceeds(float(traps_a), float(traps_b), tol_pct)
            flagged |= flag
            lines.append(
                f"{name}: traps {traps_a} -> {traps_b}{' FLAG' if flag else ''}"
            )
    return lines, flagged
