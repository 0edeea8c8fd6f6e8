"""Per-layer metrics of a traced pass, and the layers each workload is
predicted to hit (README.md explains the predictions)."""

from __future__ import annotations

from typing import Dict

from layers import LAYERS, OTHER

_GATHER_CORE = (
    "ring.update", "ring.rebuild", "merge.update", "merge.rebuild",
    "merge.plan", "sites", "runs.locate", "runs.start", "runs.plan",
    "runs.finalize", "conn.local", "conn.init", "state.apply_moves",
    "state.init", "state.diameter", "events.emit", "metrics.record",
    "api.simulate", "gen", OTHER,
)

#: Layers that must record calls on each workload's traced run.
PREDICTED_HITS: Dict[str, tuple] = {
    "contour": _GATHER_CORE + ("engine.step",),
    "compact": _GATHER_CORE + ("engine.step",),
    "ssync-tolerant": _GATHER_CORE + (
        "ssync.step", "ssync.select", "ssync.commit", "tolerant.filter",
    ),
    "explore-n4": (
        "ring.rebuild", "merge.plan_full", "runs.locate", "runs.start",
        "runs.plan", "runs.finalize", "tolerant.filter", "conn.local",
        "conn.init", "state.apply_moves", "state.init", "state.diameter",
        "engine.step", "events.emit", "metrics.record",
        "explore.canonical_key", "explore.checkpoint", "explore.restore",
        "explore.status", "explore.driver", OTHER,
    ),
}

_RUN_LAYERS = ("runs.locate", "runs.start", "runs.plan", "runs.finalize")


def _ratio(num: float, den: float) -> float:
    """``num / den``; 0 where the layer did no work on this workload."""
    return num / den if den else 0.0


def layer_metrics(
    tracer, traced, setup_spans: int, untraced_wall_s: float, samples: int
) -> Dict[str, dict]:
    """Self time and calls per layer (setup spans count toward ``gen``
    only, since setup runs nothing else), the ratios README.md lists,
    and the tracing overhead."""
    self_ns = tracer.self_times_ns()
    pass_self_ns = tracer.self_times_ns(first=setup_spans)
    calls = tracer.calls()
    counts = tracer.counts
    out: Dict[str, dict] = {}
    for name in LAYERS:
        out[f"{name}_ms"] = {"value": self_ns[name] / 1e6, "unit": "ms"}
        out[f"{name}_calls"] = {"value": calls[name], "unit": "count"}
    traced_wall_s = traced.wall_ns / 1e9
    run_us = sum(pass_self_ns[n] for n in _RUN_LAYERS) / 1e3
    ratios = {
        "runs.us_per_active_run_round": (
            _ratio(run_us, traced.active_run_rounds), "us"),
        "ring.fallback_share": (_ratio(
            tracer.nested_calls("ring.update", "ring.rebuild"),
            calls["ring.update"]), "ratio"),
        "conn.bfs_share": (
            _ratio(calls["conn.bfs"], calls["conn.local"]), "ratio"),
        "sites.admit_ratio": (_ratio(
            counts.get("sites.admitted", 0),
            counts.get("sites.offered", 0)), "ratio"),
        "tolerant.keep_ratio": (_ratio(
            counts.get("tolerant.kept", 0),
            counts.get("tolerant.planned", 0)), "ratio"),
        "merge.yield": (_ratio(
            counts.get("state.merged", 0),
            counts.get("merge.moves_planned", 0)), "ratio"),
        "explore.dedup_ratio": (
            1.0 - _ratio(traced.states, calls["explore.canonical_key"])
            if traced.states else 0.0, "ratio"),
        "trace.overhead": (_ratio(traced_wall_s, untraced_wall_s), "ratio"),
        "trace.self_share": (
            _ratio(sum(pass_self_ns.values()) / 1e9, traced_wall_s),
            "ratio"),
        "trace.wall_s": (traced_wall_s, "s"),
        "latency.samples": (samples, "count"),
    }
    for name, (value, unit) in ratios.items():
        out[name] = {"value": value, "unit": unit}
    return out
