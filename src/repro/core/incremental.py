"""Incremental per-round pipeline: dirty-region restricted rescans.

The seed implementation re-walked the whole swarm every round — boundary
extraction, merge-pattern enumeration, and the connectivity safety check
were each O(n) — so simulating the paper's O(n)-round algorithm cost
O(n^2) wall-clock.  This module restricts the per-round work to the *dirty
region*: the cells whose occupancy flipped in the last round plus their
8-neighborhoods, as recorded by
:meth:`repro.grid.occupancy.SwarmState.apply_moves`.

**What "dirty" means.**  A cell is dirty for a round iff some cell within
Chebyshev distance 1 of it changed occupancy when the previous round's
moves were applied.  Every predicate the pipeline caches (contour side
successors, bump-run membership and free sides, leaf/corner arity) reads
only cells within Chebyshev distance 1 of its anchor cell — or, for bump
rows/columns, only the three-line band around its line — so a cached value
whose anchor is not dirty is still exact.  See ``docs/incremental.md`` for
the invariant catalogue and the equality argument.

**Boundaries are persistent linked rings.**  Contours live in a
:class:`repro.grid.ring.RingSet`: each repair re-traces and splices in
place only the *dirty arcs* of affected rings (O(dirty arc)), instead
of rebuilding whole ``Boundary`` tuples per changed cycle (O(contour)).
Ring consumers (run location, run planning, start sites) navigate stable
:class:`~repro.grid.ring.RingNode` references; the frozen-tuple
``Boundary`` remains available through ``to_boundary()`` for analysis and
the equivalence suite.

**Bit-identical by construction.**  The caches reproduce the exact
candidate/boundary *sets* of the full rescans, and every consumer of those
sets (conflict resolution, run location, move composition) is
order-insensitive or consumes canonically ordered input, so trajectories
(moves, rounds, merges, events) are identical with the pipeline on or off
— ``tests/test_incremental_equivalence.py`` asserts this against golden
traces captured from the seed implementation.

The pipeline keys its validity on ``SwarmState.version``: it applies the
``last_changed`` delta when the state advanced by exactly one
``apply_moves`` since the last sync, and falls back to a full rebuild on
any other history (fresh state, replays, external mutation of
``state.cells`` is *not* detected — engines must go through
``apply_moves``).

**Contours are repaired on demand.**  The merge cache syncs every round;
the rings sync only when a round reads them (:meth:`contours`,
:meth:`start_sites`).  Between reads each round's ``last_changed`` is
unioned into a pending set, and the read makes one ``RingSet.update``
call with that union — a superset of the net occupancy flips, which
successor locality makes a valid ``changed`` set.  Once the pending set
holds as many cells as the swarm, a repair would touch as much as a
rebuild, so it is dropped and the rings are rebuilt on demand instead.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.core.config import AlgorithmConfig
from repro.core.patterns import MergeCache, MergePattern
from repro.core.quasiline import StartSite, StartSiteIndex
from repro.grid.geometry import Cell
from repro.grid.occupancy import SwarmState
from repro.grid.ring import RingSet


class IncrementalPipeline:
    """Owns the per-round caches of one controller instance."""

    def __init__(self, cfg: AlgorithmConfig) -> None:
        self.cfg = cfg
        self.merge_cache = MergeCache(cfg)
        self.ring_set = RingSet()
        # The start-site index rides the ring set's structural hooks:
        # every splice repairs exactly the candidate heads whose windows
        # the arc can reach, so start rounds read sites without walking
        # contours.
        self.site_index = StartSiteIndex(cfg.start_straight_steps)
        self.ring_set.observer = self.site_index
        # The state is held by reference (not id()): a freed state's id
        # could be reused by a new SwarmState and alias stale caches.
        self._state: Optional[SwarmState] = None
        self._version: Optional[int] = None
        # Cells flipped since the rings were last repaired; None when the
        # rings must be rebuilt on their next read.
        self._ring_pending: Optional[Set[Cell]] = None

    # ------------------------------------------------------------------
    def _sync(self, state: SwarmState) -> None:
        """Bring the merge cache up to date with ``state`` and record the
        round's flips for the next ring repair.

        Delta path: same state object, version advanced by exactly one
        ``apply_moves`` — consume ``state.last_changed``.  Anything else
        (first use, a different state, a version jump) rebuilds the merge
        cache and marks the rings for a rebuild on their next read.
        """
        if self._state is state and self._version == state.version:
            return  # already synced this round
        if (
            self._state is state
            and self._version is not None
            and state.version == self._version + 1
        ):
            changed = state.last_changed
            self.merge_cache.update(state, changed)
            pending = self._ring_pending
            if pending is not None:
                pending.update(changed)
                if len(pending) >= len(state.cells):
                    self._ring_pending = None  # a rebuild is as cheap
        else:
            self.merge_cache.rebuild(state)
            self._ring_pending = None
        self._state = state
        self._version = state.version

    def _sync_rings(self, state: SwarmState) -> None:
        """Repair the rings from every flip since their last read, in one
        batched ``RingSet.update`` (or rebuild them, see :meth:`_sync`)."""
        self._sync(state)
        pending = self._ring_pending
        if pending is None:
            self.ring_set.rebuild(state.cells)
            self._ring_pending = set()
        elif pending:
            self.ring_set.update(state.cells, pending, rows=state.rows())
            pending.clear()

    # ------------------------------------------------------------------
    def plan_merges(
        self, state: SwarmState
    ) -> Tuple[Dict[Cell, Cell], List[MergePattern]]:
        """Drop-in replacement for :func:`repro.core.patterns.plan_merges`."""
        self._sync(state)
        return self.merge_cache.plan()

    def contours(self, state: SwarmState) -> RingSet:
        """The maintained linked-ring contours of ``state`` (replaces the
        per-round :func:`repro.grid.boundary.extract_boundaries` call)."""
        self._sync_rings(state)
        return self.ring_set

    def start_sites(self, state: SwarmState) -> List[StartSite]:
        """Run start sites from the persistent index — bit-identical
        admissions to :func:`repro.core.quasiline.run_start_sites` over
        the same contours, without the per-start-round contour walk."""
        self._sync_rings(state)
        return self.site_index.sites(self.ring_set)

    def take_resplices(self) -> List[Tuple[int, int, int]]:
        """Drain the ``(ring_id, arc_sides, removed_sides)`` records of
        the ring repair since the last drain (for the controller's
        ``boundary_respliced`` events)."""
        out = self.ring_set.last_resplices
        self.ring_set.last_resplices = []
        return out
