"""The benchmark's metrics: names, units and directions, and how each is made.

The names, units and directions come from ``BENCHMARK.json`` at the
repository root, the one place they are written down.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from checks import answer_nodes

_SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

#: End-to-end metrics (tracing off): name -> (unit, better).
END_TO_END: Dict[str, Tuple[str, str]] = {
    m["name"]: (m["unit"], m["better"]) for m in _SPEC["end_to_end"]}

#: Per-layer metrics (the traced run): name -> (unit, better).
PER_LAYER: Dict[str, Tuple[str, str]] = {
    m["name"]: (m["unit"], m["better"]) for m in _SPEC["per_layer"]}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def model_stats(kinds: Sequence[str],
                summaries: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """The simulated results the reproduction reports (``model.*``) and the
    per-layer counts, from one round's run summaries."""
    total = lambda key: sum(s[key] for s in summaries)  # noqa: E731
    serving = [s["answer"] for k, s in zip(kinds, summaries) if k == "serving"]
    p50 = [a["p50"] for a in serving if a["p50"] is not None]
    p99 = [a["p99"] for a in serving if a["p99"] is not None]
    return {
        "apps.nodes": sum(answer_nodes(k, s["answer"])
                          for k, s in zip(kinds, summaries)),
        "core.execs": total("execs"),
        "core.msgs_sent": total("msgs_sent"),
        "core.seeds_created": total("seeds_created"),
        "sim.events": total("events"),
        "balance.control_msgs": total("lb_control"),
        "balance.seeds_remote": total("lb_remote"),
        "balance.steal_attempts": total("steal_attempts"),
        "balance.steal_hit_ratio": _ratio(total("steals_satisfied"),
                                          total("steal_attempts")),
        "machine.hops": total("hops"),
        "machine.bytes_sent": total("bytes_sent"),
        "sharing.mono_sent": total("mono_sent"),
        "sharing.mono_applied_ratio": _ratio(total("mono_applied"),
                                             total("mono_sent")),
        "queueing.max_pool": max(s["max_pool"] for s in summaries),
        "quiescence.waves": total("qd_waves"),
        "trace.events": total("trace_events"),
        "metrics.requests": sum(a["completed"] + a["shed"] for a in serving),
        "obs.observations": total("observations"),
        "faults.retries": total("retries"),
        "faults.dropped": total("dropped"),
        "faults.dups_suppressed": total("dups_suppressed"),
        "model.vtime_s": total("vtime"),
        "model.utilization": statistics.fmean(s["util"] for s in summaries),
        "model.req_p50_ms": statistics.fmean(p50) * 1e3 if p50 else 0.0,
        "model.req_p99_ms": statistics.fmean(p99) * 1e3 if p99 else 0.0,
        "model.shed": sum(a["shed"] for a in serving),
    }


def layer_stats(layer_report: Dict[str, Tuple[float, int]]) -> Dict[str, float]:
    """``<layer>.self_s`` for every layer and ``<layer>.calls`` where named."""
    out: Dict[str, float] = {}
    for layer, (self_s, calls) in layer_report.items():
        out[f"{layer}.self_s"] = self_s
        if f"{layer}.calls" in PER_LAYER:
            out[f"{layer}.calls"] = calls
    return out


def render(values: Dict[str, float], table: Dict[str, Tuple[str, str]]
           ) -> Dict[str, Dict[str, Any]]:
    """``{"name": {"value": v, "unit": u}}`` for every metric of ``table``."""
    missing = sorted(set(table) - set(values))
    if missing:
        raise KeyError(f"metrics not computed: {missing}")
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _) in table.items()}


def text_lines(metrics: Dict[str, Dict[str, Any]]) -> List[str]:
    return [f"{name:28s} {m['value']:>16.6g} {m['unit']}"
            for name, m in metrics.items()]
