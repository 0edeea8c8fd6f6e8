"""Outside-in per-layer tracing for the whole-gather benchmark.

Every traced symbol is wrapped where its caller looks it up (a class
attribute, or the module global a caller imported by name), so the
program under ``src/`` is measured without being edited.  Each call
becomes one span ``(name, start_ns, end_ns, parent)`` kept in memory;
self times are derived from the spans after the traced pass, and the
spans are written out when the benchmark ends.  :meth:`Tracer.installed`
restores every original on exit, also when the traced pass raises.
"""

from __future__ import annotations

import importlib
import json
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

Hook = Callable[["Tracer", tuple, object], None]

#: Span name of the benchmark's own root span around each unit: its
#: self time is everything the named layers below do not cover.
OTHER = "other"


def _count(key: str, value: Callable[[tuple, object], int]) -> Hook:
    def hook(tracer: "Tracer", args: tuple, result: object) -> None:
        tracer.counts[key] = tracer.counts.get(key, 0) + value(args, result)

    return hook


def _sites_offered(args: tuple, result: object) -> int:
    return len(args[2])  # RunManager.start_runs(self, contours, sites, ...)


#: ``(layer, "module[:Class]", attribute, count hooks)``.  A layer may
#: wrap one symbol at several lookup sites; they share one name.
WRAPS: List[Tuple[str, str, str, Tuple[Hook, ...]]] = [
    ("ring.update", "repro.grid.ring:RingSet", "update", ()),
    ("ring.rebuild", "repro.grid.ring:RingSet", "rebuild", ()),
    ("merge.update", "repro.core.patterns:MergeCache", "update", ()),
    ("merge.rebuild", "repro.core.patterns:MergeCache", "rebuild", ()),
    ("merge.plan", "repro.core.patterns:MergeCache", "plan",
     (_count("merge.moves_planned", lambda a, r: len(r[0])),)),
    ("merge.plan_full", "repro.core.algorithm", "plan_merges",
     (_count("merge.moves_planned", lambda a, r: len(r[0])),)),
    ("sites", "repro.core.quasiline:StartSiteIndex", "sites", ()),
    ("runs.locate", "repro.core.runs:RunManager", "locate", ()),
    ("runs.start", "repro.core.runs:RunManager", "start_runs",
     (_count("sites.offered", _sites_offered),
      _count("sites.admitted", lambda a, r: len(r)))),
    ("runs.plan", "repro.core.runs:RunManager", "plan", ()),
    ("runs.finalize", "repro.core.runs:RunManager", "finalize", ()),
    ("tolerant.filter", "repro.core.tolerant", "certified_subset",
     (_count("tolerant.planned", lambda a, r: len(a[1])),
      _count("tolerant.kept", lambda a, r: len(r)))),
    ("conn.local", "repro.engine.scheduler",
     "locally_connected_after", ()),
    ("conn.local", "repro.engine.ssync_scheduler",
     "locally_connected_after", ()),
    ("conn.bfs", "repro.engine.scheduler", "connected_components", ()),
    ("conn.bfs", "repro.engine.ssync_scheduler",
     "connected_components", ()),
    ("conn.init", "repro.engine.scheduler", "is_connected", ()),
    ("conn.init", "repro.engine.ssync_scheduler", "is_connected", ()),
    ("conn.init", "repro.explore.driver", "is_connected", ()),
    ("state.apply_moves", "repro.grid.occupancy:SwarmState",
     "apply_moves", (_count("state.merged", lambda a, r: r),)),
    ("state.init", "repro.grid.occupancy:SwarmState", "__init__", ()),
    ("state.diameter", "repro.grid.occupancy:SwarmState",
     "diameter_chebyshev", ()),
    ("engine.step", "repro.engine.scheduler:FsyncEngine", "step", ()),
    ("ssync.step", "repro.engine.ssync_scheduler:SsyncEngine", "step", ()),
    ("ssync.select", "repro.engine.ssync_scheduler:ActivationSchedule",
     "select", ()),
    ("ssync.commit", "repro.engine.ssync_scheduler:ActivationSchedule",
     "commit", ()),
    ("events.emit", "repro.engine.events:EventLog", "emit", ()),
    ("metrics.record", "repro.engine.metrics:MetricsLog", "record", ()),
    ("explore.canonical_key", "repro.explore.driver",
     "canonical_state_key", ()),
    ("explore.checkpoint", "repro.explore.driver",
     "controller_checkpoint", ()),
    ("explore.restore", "repro.explore.driver", "restore_controller", ()),
    ("explore.status", "repro.explore.driver", "_status_of", ()),
    ("explore.driver", "repro.analysis.certification", "explore", ()),
    ("api.simulate", "repro.api", "simulate", ()),
    ("gen", "repro.swarms.generators", "family", ()),
    ("gen", "repro.swarms.generators", "random_blob", ()),
    ("gen", "repro.swarms.generators", "random_tree", ()),
    ("gen", "repro.swarms.generators", "solid_rectangle", ()),
]

#: Every layer name, in report order, followed by the root span.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(w[0] for w in WRAPS)) + (
    OTHER,
)


def _resolve(target: str) -> object:
    module, _, cls = target.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Span recorder over the :data:`WRAPS` table."""

    def __init__(self) -> None:
        self.names: List[str] = list(LAYERS)
        self._ids: Dict[str, int] = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []

    # -- recording -----------------------------------------------------
    def _open(self, name_id: int) -> int:
        idx = len(self.span_start)
        stack = self._stack
        self.span_name.append(name_id)
        self.span_parent.append(stack[-1] if stack else -1)
        self.span_end.append(0)
        stack.append(idx)
        self.span_start.append(perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark itself (the per-unit root)."""
        idx = self._open(self._ids[name])
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn: Callable, name: str, hooks: Tuple[Hook, ...]):
        name_id = self._ids[name]
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            for hook in hooks:
                hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every :data:`WRAPS` symbol; restore the originals on
        exit.  A symbol missing under ``src/`` raises here, before any
        pass runs."""
        restore: List[Tuple[object, str, object]] = []
        try:
            for name, target, attr, hooks in WRAPS:
                owner = _resolve(target)
                # Defined on the owner itself, never inherited, so that
                # restoring is a plain setattr.
                original = vars(owner)[attr]
                restore.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, hooks))
            yield
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------
    def self_times_ns(self, first: int = 0) -> Dict[str, int]:
        """Per-layer self time of the spans from index ``first`` on:
        each span's duration minus the durations of its direct
        children."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        start = np.frombuffer(self.span_start, dtype=np.int64)
        end = np.frombuffer(self.span_end, dtype=np.int64)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        per_name = np.bincount(
            names[first:], weights=(dur - child)[first:].astype(np.float64),
            minlength=len(self.names),
        )
        return {n: int(per_name[i]) for i, n in enumerate(self.names)}

    def calls(self) -> Dict[str, int]:
        names = np.frombuffer(self.span_name, dtype=np.int32)
        per_name = np.bincount(names, minlength=len(self.names))
        return {n: int(per_name[i]) for i, n in enumerate(self.names)}

    def nested_calls(self, parent: str, child: str) -> int:
        """Spans named ``child`` whose direct parent is named ``parent``
        (e.g. ring rebuilds taken as the fallback inside an update)."""
        names = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int64)
        mask = (names == self._ids[child]) & (parents >= 0)
        return int(
            np.count_nonzero(names[parents[mask]] == self._ids[parent])
        )

    def write(self, path: Path, meta: Optional[dict] = None) -> None:
        """Write the spans (name table plus four columns) to ``path``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start_ns=np.frombuffer(self.span_start, dtype=np.int64),
            end_ns=np.frombuffer(self.span_end, dtype=np.int64),
            parent=np.frombuffer(self.span_parent, dtype=np.int64),
            meta=np.array(json.dumps(meta or {})),
        )
