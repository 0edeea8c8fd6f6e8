"""The connectivity-tolerant variant of the paper's gathering algorithm.

PR 4 showed — and the nondeterminism explorer certified — that the
stock algorithm's safety argument is an FSYNC theorem: under SSYNC
subset activation, partially executed merge patterns can disconnect the
swarm (61 of the 63 fixed pentominoes are breakable).  This module
hardens the algorithm with a *local subset-safety certificate*: a robot
defers its hop whenever executing an arbitrary subset of the admitted
moves could disconnect the swarm.

The certificate is the **stationary-core lemma**.  Let ``O`` be the
occupied cells, ``M`` a set of planned moves, and ``S = O − sources(M)``
the stationary core (robots guaranteed not to move this round).  If

1. ``S`` is nonempty and 4-connected,
2. every move's source has a 4-neighbor in ``S``, and
3. every move's target is in ``S`` or has a 4-neighbor in ``S``,

then *every* subset ``A ⊆ M`` preserves connectivity: after executing
``A``, each robot is either in ``S``, still at a source (4-adjacent to
``S`` by 2), or at a target (in or 4-adjacent to ``S`` by 3) — every
occupied cell touches the connected core, so the swarm is connected.
The quantifier over subsets is exactly what SSYNC adversaries (and the
explorer's exhaustive branching) exploit, which is why certification of
this variant reports zero breakable shapes *by construction*, with the
explorer as the machine-checked acceptance oracle.

Moves are admitted greedily in sorted source order: each planned move
joins the kept set iff the certificate still holds for the enlarged
set.  Greedy admission is monotone and deterministic (no fixpoint
oscillation), and it naturally keeps the *safe* fraction of a merge
pattern — e.g. the far-end bump mover whose target is an occupied cell
of the supported row — while deferring the movers whose safety depended
on FSYNC simultaneity.  Deferred robots simply retry in a later round:
progress slows by a constant factor, safety becomes unconditional.

Admission is incremental.  Re-checking the certificate from scratch for
each planned move rebuilds the core and runs a full BFS per move, O(m*n)
per round.  :func:`certified_subset` keeps the core as one set instead
and removes each admitted source from it, so a candidate changes the
core by exactly one cell, its source ``src``:

* only the candidate and the kept moves whose source or target is
  ``src`` or a 4-neighbor of ``src`` can lose their adjacency conditions
  (2 and 3), so only those are re-checked;
* the core was connected, so the smaller core is connected iff ``src``'s
  core neighbors still reach each other without it.  Searches grown in
  lockstep from those neighbors decide that exactly: they stop when
  they meet, usually within a few cells of ``src``, or when one of them
  walls off a piece, usually a short arm.

Both steps take the old core to be connected, which the first admission
needs the occupancy itself to be.  A disconnected occupancy admits no
move at all: removing one source leaves every other piece whole, and a
source forming a piece on its own touches no core cell.  The engines
certify connectivity at the end of every checked round and stamp the
state with it (``SwarmState.connected_version``), so
:meth:`TolerantGatherOnGrid.plan_round` usually hands the premise in
as ``connected=True``.  Without a stamp (``check_connectivity=False``,
a byzantine robot's perceived copy, the explorer's planning states)
one full BFS of the occupancy, run when the first candidate passes the
adjacency checks, settles it for the whole round.

The result equals that of :func:`certified_subset_rescan`, the per-move
re-check, which ``AlgorithmConfig(incremental=False)`` selects as the
oracle (docs/incremental.md).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Mapping, Set

from repro.core.algorithm import GatherOnGrid
from repro.grid.connectivity import is_connected
from repro.grid.geometry import Cell, neighbors4
from repro.grid.occupancy import SwarmState


def certified_subset(
    occupied: Set[Cell],
    planned: Mapping[Cell, Cell],
    incremental: bool = True,
    connected: bool = False,
) -> Dict[Cell, Cell]:
    """The greedily admitted subset of ``planned`` that satisfies the
    stationary-core certificate (module docstring) against ``occupied``.

    Pure: reads its arguments, mutates nothing observable — admission
    order is the sorted source order, so the result is a deterministic
    function of ``(occupied, planned)``.  ``incremental=False`` runs the
    per-move re-check :func:`certified_subset_rescan`; both return the
    same dict.  ``connected=True`` promises that ``occupied`` is
    4-connected (an engine certified it), which skips the one full BFS;
    the rescan ignores it.
    """
    if not incremental:
        return certified_subset_rescan(occupied, planned)
    kept: Dict[Cell, Cell] = {}
    targets: Set[Cell] = set()
    core = set(occupied)
    checked = connected  # whether ``occupied`` is known to be connected
    for src, dst in sorted(planned.items()):
        removed = src in core
        core.discard(src)
        ok = (
            bool(core)
            and _touches(core, src)
            and (dst in core or _touches(core, dst))
            and (
                not removed or _kept_still_adjacent(core, src, kept, targets)
            )
        )
        if ok and not checked:
            if not is_connected(occupied):
                return kept  # empty, and no move can ever be admitted
            checked = True
        if ok and (not removed or _reconnects(core, src)):
            kept[src] = dst
            targets.add(dst)
        elif removed:
            core.add(src)
    return kept


def _touches(core: Set[Cell], cell: Cell) -> bool:
    """Whether ``cell`` has a 4-neighbor in ``core``."""
    x, y = cell
    return (
        (x + 1, y) in core
        or (x, y + 1) in core
        or (x - 1, y) in core
        or (x, y - 1) in core
    )


def _kept_still_adjacent(
    core: Set[Cell],
    src: Cell,
    kept: Mapping[Cell, Cell],
    targets: Set[Cell],
) -> bool:
    """Whether every kept move still meets conditions 2 and 3 after
    ``src`` left ``core``.  Only a kept source or target beside ``src``
    can have lost its last core contact; a target at ``src`` itself
    touches the core iff the candidate's source does, checked first."""
    for nb in neighbors4(src):
        if (
            (nb in kept or nb in targets)
            and nb not in core
            and not _touches(core, nb)
        ):
            return False
    return True


def _reconnects(core: Set[Cell], cell: Cell) -> bool:
    """Whether the 4-neighbors of ``cell`` in ``core`` (which no longer
    holds ``cell``) still reach one another through ``core``.

    If ``core | {cell}`` is connected, every cell of ``core`` reaches one
    of those neighbors, so the answer is exactly whether ``core`` is
    connected.  One breadth-first search per neighbor grows in lockstep;
    searches that meet merge.  All merged means connected; a search that
    runs out of cells first has walled off its piece, so disconnected.
    The searches stop as soon as they have all met or one has run out,
    so the work tracks the shortest detour around ``cell`` or the
    smallest piece, and never exceeds one full BFS (each cell joins one
    search only).
    """
    nbrs = [nb for nb in neighbors4(cell) if nb in core]
    if len(nbrs) <= 1:
        return True
    owner = {nb: i for i, nb in enumerate(nbrs)}
    root = list(range(len(nbrs)))  # merged searches point at the survivor
    frontiers = [deque([nb]) for nb in nbrs]
    searches = len(nbrs)
    while True:
        for i, frontier in enumerate(frontiers):
            if root[i] != i:
                continue
            if not frontier:
                return False
            x, y = frontier.popleft()
            for nb in ((x + 1, y), (x, y + 1), (x - 1, y), (x, y - 1)):
                if nb not in core:
                    continue
                j = owner.get(nb)
                if j is None:
                    owner[nb] = i
                    frontier.append(nb)
                    continue
                while root[j] != j:
                    j = root[j]
                if j != i:
                    root[j] = i
                    frontier.extend(frontiers[j])
                    searches -= 1
                    if searches == 1:
                        return True


def certified_subset_rescan(
    occupied: Set[Cell], planned: Mapping[Cell, Cell]
) -> Dict[Cell, Cell]:
    """:func:`certified_subset` by a full re-check of the certificate for
    every planned move: the oracle behind ``incremental=False``."""
    kept: Dict[Cell, Cell] = {}
    for src, dst in sorted(planned.items()):
        trial = dict(kept)
        trial[src] = dst
        if _certificate_holds(occupied, trial):
            kept = trial
    return kept


def _certificate_holds(
    occupied: Set[Cell], moves: Mapping[Cell, Cell]
) -> bool:
    """Whether ``moves`` is subset-safe over ``occupied`` per the
    stationary-core lemma."""
    core = occupied - set(moves)
    if not core:
        return False
    if not is_connected(core):
        return False
    for src, dst in moves.items():
        if not any(nb in core for nb in neighbors4(src)):
            return False
        if dst not in core and not any(
            nb in core for nb in neighbors4(dst)
        ):
            return False
    return True


class TolerantGatherOnGrid(GatherOnGrid):
    """The paper's planner with the subset-safety admission filter.

    Identical bookkeeping to :class:`GatherOnGrid` — merges, runs,
    pipelining, sharded planning — but :meth:`plan_round` passes the
    stock plan through :func:`certified_subset` before returning it
    (incrementally unless ``cfg.incremental`` is off), passing along
    whether an engine stamped ``state`` as connected.
    The run manager's finalize path already tolerates unexecuted moves
    (the SSYNC engines drop arbitrary subsets), so deferral needs no
    extra state: a deferred robot's pattern simply re-fires while it
    still matches.

    Emits a ``move_deferred`` event naming the deferred sources whenever
    the filter withholds at least one move.
    """

    def plan_round(
        self, state: SwarmState, round_index: int
    ) -> Mapping[Cell, Cell]:
        planned = dict(super().plan_round(state, round_index))
        kept = certified_subset(
            state.cells,
            planned,
            incremental=self.cfg.incremental,
            connected=state.connected_version == state.version,
        )
        if len(kept) < len(planned):
            deferred = sorted(src for src in planned if src not in kept)
            self.events.emit(
                round_index, "move_deferred", robots=deferred
            )
        return kept
