"""State-free merge operations (paper Section 3.1, Figures 2 and 3).

Three pattern families, all locally checkable within the viewing radius and
all connectivity-preserving by construction (DESIGN.md Section 3):

* **leaf** — a robot with exactly one 4-neighbor hops onto it.  This is the
  paper's ``k = 1`` merge ("a single robot hops onto a grid cell occupied by
  another robot").
* **corner** — a robot with exactly two, mutually perpendicular, 4-neighbors
  whose between-diagonal is occupied hops onto that diagonal.  This realizes
  the paper's short merges on solid material (Fig. 2 with the subboundary
  bending around a corner).
* **bump** — a maximal straight run of ``k <= max_bump_length`` robots whose
  far side is completely free and whose near side holds at least one robot
  hops one cell toward the near side; landings on occupied cells merge.
  This is the paper's length-``k`` merge operation (Fig. 2): the black
  subboundary hops in one direction, the white (far-side) cells must be
  empty, the grey (near-side) robots provide the collision.

Simultaneity is resolved exactly in the spirit of the paper's Figure 3:

* robots participating in two perpendicular patterns hop **diagonally**
  (Fig. 3 b: robot ``r`` belongs to two subboundaries and hops to the lower
  left, merging with ``a`` and ``b``);
* cells that serve as *targets/supports* of any candidate pattern are
  **frozen** — a pattern one of whose movers is frozen is dropped.  The
  paper obtains the same effect by requiring the grey robots not to move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.config import AlgorithmConfig
from repro.grid.geometry import Cell, add, neighbors4, perpendicular, sub
from repro.grid.occupancy import SwarmState


@dataclass(frozen=True)
class MergePattern:
    """One candidate merge operation.

    ``movers`` hop by ``direction`` (a unit vector, diagonal only for corner
    patterns); ``frozen`` are the cells whose robots must stay for the
    operation to be safe (leaf target / corner diagonal / bump supports).
    """

    kind: str  # "leaf" | "corner" | "bump"
    movers: Tuple[Cell, ...]
    direction: Cell
    frozen: FrozenSet[Cell]

    def __post_init__(self) -> None:
        if self.kind not in ("leaf", "corner", "bump"):
            raise ValueError(f"unknown pattern kind {self.kind!r}")


# ----------------------------------------------------------------------
# Pattern enumeration
# ----------------------------------------------------------------------
def _runs_of(positions: List[int]) -> Iterable[Tuple[int, int]]:
    """Yield ``(start, stop)`` maximal runs of consecutive integers from a
    sorted position list; runs are inclusive of both ends."""
    start = prev = positions[0]
    for p in positions[1:]:
        if p == prev + 1:
            prev = p
            continue
        yield (start, prev)
        start = prev = p
    yield (start, prev)


def _h_run_pattern(
    y: int, x0: int, x1: int, cells: Set[Cell]
) -> Optional[MergePattern]:
    """The bump candidate of one maximal horizontal run ``[x0, x1]`` of
    row ``y`` (already known to be within the length bound), or ``None``.

    The single source of truth for horizontal bump construction: the
    full-line enumerator and the run-granular cache both call it, so a
    cached candidate is value-identical to a full-scan one by
    construction.
    """
    xs = range(x0, x1 + 1)
    yn, ys = y + 1, y - 1
    north_free = all((x, yn) not in cells for x in xs)
    south_free = all((x, ys) not in cells for x in xs)
    if north_free and not south_free:  # open north, hop south
        return MergePattern(
            "bump",
            tuple((x, y) for x in xs),
            (0, -1),
            frozenset((x, ys) for x in xs if (x, ys) in cells),
        )
    if south_free and not north_free:  # open south, hop north
        return MergePattern(
            "bump",
            tuple((x, y) for x in xs),
            (0, 1),
            frozenset((x, yn) for x in xs if (x, yn) in cells),
        )
    return None


def _v_run_pattern(
    x: int, y0: int, y1: int, cells: Set[Cell]
) -> Optional[MergePattern]:
    """Vertical twin of :func:`_h_run_pattern` (column ``x``)."""
    ys_range = range(y0, y1 + 1)
    xe, xw = x + 1, x - 1
    east_free = all((xe, y) not in cells for y in ys_range)
    west_free = all((xw, y) not in cells for y in ys_range)
    if east_free and not west_free:  # open east, hop west
        return MergePattern(
            "bump",
            tuple((x, y) for y in ys_range),
            (-1, 0),
            frozenset((xw, y) for y in ys_range if (xw, y) in cells),
        )
    if west_free and not east_free:  # open west, hop east
        return MergePattern(
            "bump",
            tuple((x, y) for y in ys_range),
            (1, 0),
            frozenset((xe, y) for y in ys_range if (xe, y) in cells),
        )
    return None


def _row_bumps(
    y: int, xs_sorted: List[int], cells: Set[Cell], max_len: int
) -> List[MergePattern]:
    """Horizontal bump candidates of one row (paper Fig. 2, both hops).

    These per-line enumerators are the simulator's hottest full-scan code
    (profiled: ~40% of a round); the run walk is inlined, the per-run
    evaluation shares :func:`_h_run_pattern` with the incremental cache.
    """
    patterns: List[MergePattern] = []
    for x0, x1 in _runs_of(xs_sorted):
        if x1 - x0 + 1 > max_len:
            continue  # too long to verify locally; runners must reshape it
        p = _h_run_pattern(y, x0, x1, cells)
        if p is not None:
            patterns.append(p)
    return patterns


def _col_bumps(
    x: int, ys_sorted: List[int], cells: Set[Cell], max_len: int
) -> List[MergePattern]:
    """Vertical bump candidates of one column (paper Fig. 2, both hops)."""
    patterns: List[MergePattern] = []
    for y0, y1 in _runs_of(ys_sorted):
        if y1 - y0 + 1 > max_len:
            continue
        p = _v_run_pattern(x, y0, y1, cells)
        if p is not None:
            patterns.append(p)
    return patterns


def _h_run_of(
    cells: Set[Cell], c: Cell, max_len: int
) -> Optional[Tuple[int, int]]:
    """The maximal horizontal run through occupied ``c`` as ``(x0, x1)``,
    or ``None`` once it provably exceeds ``max_len`` (the walk is capped,
    so over-long runs cost O(max_len), never O(run))."""
    x0, y = c
    x1 = x0
    length = 1
    while (x0 - 1, y) in cells:
        x0 -= 1
        length += 1
        if length > max_len:
            return None
    while (x1 + 1, y) in cells:
        x1 += 1
        length += 1
        if length > max_len:
            return None
    return x0, x1


def _v_run_of(
    cells: Set[Cell], c: Cell, max_len: int
) -> Optional[Tuple[int, int]]:
    """Vertical twin of :func:`_h_run_of` (returns ``(y0, y1)``)."""
    x, y0 = c
    y1 = y0
    length = 1
    while (x, y0 - 1) in cells:
        y0 -= 1
        length += 1
        if length > max_len:
            return None
    while (x, y1 + 1) in cells:
        y1 += 1
        length += 1
        if length > max_len:
            return None
    return y0, y1


def _bump_patterns(
    occupied: SwarmState | Set[Cell], cfg: AlgorithmConfig
) -> List[MergePattern]:
    """All bump merge candidates (paper Fig. 2, both axes, both directions)."""
    cells = occupied.cells if isinstance(occupied, SwarmState) else occupied
    rows: Dict[int, List[int]] = {}
    cols: Dict[int, List[int]] = {}
    for x, y in cells:
        rows.setdefault(y, []).append(x)
        cols.setdefault(x, []).append(y)
    for v in rows.values():
        v.sort()
    for v in cols.values():
        v.sort()

    patterns: List[MergePattern] = []
    max_len = cfg.max_bump_length
    for y, xs in rows.items():
        patterns.extend(_row_bumps(y, xs, cells, max_len))
    for x, ys in cols.items():
        patterns.extend(_col_bumps(x, ys, cells, max_len))
    return patterns


def _leaf_corner_table() -> Tuple[Optional[Tuple[str, Cell]], ...]:
    """The 16-entry leaf/corner rule, indexed by the occupancy mask of a
    robot's 4-neighbors (bit 0 E, 1 N, 2 W, 3 S): ``(kind, direction)``
    or ``None``.

    One neighbor: a leaf hop onto it.  Two perpendicular neighbors: a
    corner hop onto the diagonal between them — subject, at lookup time,
    to that diagonal being occupied and corner merges being enabled.
    Anything else has no leaf/corner candidate.
    """
    sides = ((1, 0), (0, 1), (-1, 0), (0, -1))
    table: List[Optional[Tuple[str, Cell]]] = []
    for mask in range(16):
        nbrs = [d for i, d in enumerate(sides) if mask >> i & 1]
        if len(nbrs) == 1:
            table.append(("leaf", nbrs[0]))
        elif len(nbrs) == 2 and perpendicular(nbrs[0], nbrs[1]):
            table.append(("corner", add(nbrs[0], nbrs[1])))
        else:
            table.append(None)
    return tuple(table)


_LEAF_CORNER = _leaf_corner_table()


def _leaf_corner_for(
    cells: Set[Cell],
    c: Cell,
    cfg: AlgorithmConfig,
    cached: Optional[MergePattern] = None,
) -> Optional[MergePattern]:
    """The leaf or corner candidate of one robot (at most one exists).

    A lookup of :data:`_LEAF_CORNER` on the 4-neighbor mask gives the
    kind and direction; a corner then checks its one diagonal.  The
    incremental rescan calls this for every cell in a dirty
    8-neighborhood every round, and passes the robot's ``cached``
    pattern: it is returned as is when kind and direction are unchanged
    (its mover ``(c,)`` and frozen cell ``c + direction`` follow from
    those two), so an unchanged candidate costs no new object.
    """
    x, y = c
    entry = _LEAF_CORNER[
        ((x + 1, y) in cells)
        | ((x, y + 1) in cells) << 1
        | ((x - 1, y) in cells) << 2
        | ((x, y - 1) in cells) << 3
    ]
    if entry is None:
        return None
    kind, d = entry
    target = (x + d[0], y + d[1])
    # Leaf merge: always safe — removing a degree-1 vertex keeps the
    # connectivity graph connected.  Corner merge: the mover stays
    # 4-adjacent to both former neighbors from the diagonal cell.
    if kind == "corner" and not (
        cfg.enable_corner_merges and target in cells
    ):
        return None
    if cached is not None and cached.kind == kind and cached.direction == d:
        return cached
    return MergePattern(
        kind=kind, movers=(c,), direction=d, frozen=frozenset((target,))
    )


def _leaf_corner_patterns(
    occupied: SwarmState | Set[Cell],
    cfg: AlgorithmConfig,
    exclude: Set[Cell],
) -> List[MergePattern]:
    """Leaf and corner candidates for robots not already in a bump."""
    cells = occupied.cells if isinstance(occupied, SwarmState) else occupied
    patterns: List[MergePattern] = []
    for c in cells:
        if c in exclude:
            continue
        p = _leaf_corner_for(cells, c, cfg)
        if p is not None:
            patterns.append(p)
    return patterns


# ----------------------------------------------------------------------
# Composition and conflict resolution
# ----------------------------------------------------------------------
def _clamp(v: int) -> int:
    return -1 if v < -1 else (1 if v > 1 else v)


def compose_moves(
    patterns: Iterable[MergePattern],
) -> Dict[Cell, Cell]:
    """Combine surviving patterns into per-robot moves.

    A robot in one pattern hops by that pattern's direction; a robot in two
    perpendicular patterns hops diagonally (paper Fig. 3 b).  Opposite
    memberships cancel (cannot arise from the enumerators, but the guard
    keeps the function total).
    """
    votes: Dict[Cell, Set[Cell]] = {}
    for p in patterns:
        for m in p.movers:
            votes.setdefault(m, set()).add(p.direction)
    moves: Dict[Cell, Cell] = {}
    for robot, dirs in votes.items():
        dx = _clamp(sum(d[0] for d in dirs))
        dy = _clamp(sum(d[1] for d in dirs))
        if dx == 0 and dy == 0:
            continue
        moves[robot] = (robot[0] + dx, robot[1] + dy)
    return moves


def plan_merges(
    state: SwarmState | Set[Cell], cfg: AlgorithmConfig
) -> Tuple[Dict[Cell, Cell], List[MergePattern]]:
    """All merge moves for this round, with the surviving patterns.

    Conflict rule (paper Fig. 3 analysis, DESIGN.md Section 3):

    * **bump** patterns always fire.  Mutually overlapping bumps compose
      into diagonal hops (Fig. 3 b), and a bump mover's departure never
      strands anyone: by maximality + the open far side, only the bump's
      own supports and co-movers are 4-adjacent to it.
    * **leaf/corner** (single-mover) patterns are dropped when their mover
      is itself a *support or target* of any candidate pattern — the
      paper's grey robots must not move, else a run landing on the
      departed support dangles (a hypothesis-found counterexample lives in
      tests/test_patterns.py::TestRegressions).
    * additionally a **leaf** is dropped when its target moves: hopping
      after a moving anchor would land on a vacated cell or swap forever.
    """
    candidates: List[MergePattern] = []
    if cfg.enable_bump_merges:
        candidates.extend(_bump_patterns(state, cfg))
    bump_movers: Set[Cell] = {
        m for p in candidates for m in p.movers
    }
    candidates.extend(_leaf_corner_patterns(state, cfg, exclude=bump_movers))
    return _resolve(candidates)


def _resolve(
    candidates: List[MergePattern],
) -> Tuple[Dict[Cell, Cell], List[MergePattern]]:
    """Conflict resolution over the full candidate set (see plan_merges).

    Purely set-based: the resulting *moves* are independent of candidate
    order, which is what lets the cached enumeration of
    :class:`MergeCache` assemble candidates in a different order than the
    full scan while producing bit-identical trajectories.
    """
    movers_all: Set[Cell] = {m for p in candidates for m in p.movers}
    frozen_all: Set[Cell] = set()
    for p in candidates:
        frozen_all |= p.frozen

    surviving: List[MergePattern] = []
    for p in candidates:
        if p.kind == "bump":
            surviving.append(p)
            continue
        mover = p.movers[0]
        if mover in frozen_all:
            continue  # this robot is somebody's grey cell: it must stay
        if p.kind == "leaf" and any(t in movers_all for t in p.frozen):
            continue
        surviving.append(p)
    return compose_moves(surviving), surviving


# ----------------------------------------------------------------------
# Incremental candidate enumeration (dirty-region restricted rescans)
# ----------------------------------------------------------------------
#: Estimated cost of run-granular invalidation per changed cell (anchors
#: x axes x per-anchor hashing/derivation work), in the same unit as one
#: occupied cell of a dirty line scan (a plain int-list step).  Measured
#: on the bench_micro instances: one changed cell costs roughly as much
#: through the anchor machinery as ~64 line cells through the tight
#: per-line scans.  Only the crossover point between the two
#: (identical-result) strategies moves with it: below, the line path;
#: above — scattered changes over long lines — the run path's O(changed)
#: bound wins.
_RUN_COST_FACTOR = 64


class MergeCache:
    """Caches merge-pattern candidates between engine rounds.

    Granularity of invalidation is the **occupied run** — the maximal
    straight stretch ``_runs_of`` would yield — not the line (see
    ``docs/incremental.md``):

    * the bump candidate of a horizontal run ``[x0, x1]`` of row ``y``
      depends only on the run's own cells, the two cells flanking it
      (``(x0-1, y)``/``(x1+1, y)``, for maximality) and rows ``y±1`` over
      its span — all of which sit within the 4-neighborhood closure of
      the run.  A cell flip therefore invalidates only the runs holding
      an *anchor* (the flipped cell or one of its 4-neighbors), and a
      round that moves k robots re-derives O(k) runs of length ≤
      ``max_bump_length`` each, instead of O(dirty lines x line length);
    * the leaf/corner candidate of robot ``c`` depends on occupancy within
      Chebyshev distance 1 of ``c`` *and* on whether ``c`` is a bump mover
      — ``c`` is re-evaluated iff a cell in its 8-neighborhood flipped or
      its bump-mover status changed.

    ``candidates()`` therefore returns exactly the candidate *set* the full
    scan of :func:`plan_merges` would produce, in a different order.
    """

    def __init__(self, cfg: AlgorithmConfig) -> None:
        self.cfg = cfg
        # Bump candidates keyed by line then run start, so a single run's
        # re-derivation replaces exactly its own entry.
        self._row_patterns: Dict[int, Dict[int, MergePattern]] = {}
        self._col_patterns: Dict[int, Dict[int, MergePattern]] = {}
        self._cell_patterns: Dict[Cell, MergePattern] = {}
        # Mover cell -> owning bump pattern, per axis (a cell belongs to
        # exactly one maximal run per axis, so at most one pattern each).
        # Doubles as the mover *set* (key membership) and as the reverse
        # index that finds the stale pattern of a dirty anchor in O(1).
        self._row_movers: Dict[Cell, MergePattern] = {}
        self._col_movers: Dict[Cell, MergePattern] = {}
        self._primed = False

    def rebuild(self, state: SwarmState) -> None:
        """Full enumeration; resets the cache."""
        cfg = self.cfg
        cells = state.cells
        rows, cols = state.rows(), state.cols()

        max_len = cfg.max_bump_length
        row_patterns: Dict[int, Dict[int, MergePattern]] = {}
        col_patterns: Dict[int, Dict[int, MergePattern]] = {}
        row_movers: Dict[Cell, MergePattern] = {}
        col_movers: Dict[Cell, MergePattern] = {}
        if cfg.enable_bump_merges:
            for y, xs in rows.items():
                ps = _row_bumps(y, xs, cells, max_len)
                if ps:
                    row_patterns[y] = {p.movers[0][0]: p for p in ps}
                    for p in ps:
                        for m in p.movers:
                            row_movers[m] = p
            for x, ys in cols.items():
                ps = _col_bumps(x, ys, cells, max_len)
                if ps:
                    col_patterns[x] = {p.movers[0][1]: p for p in ps}
                    for p in ps:
                        for m in p.movers:
                            col_movers[m] = p
        self._row_patterns = row_patterns
        self._col_patterns = col_patterns
        self._row_movers = row_movers
        self._col_movers = col_movers
        self._cell_patterns = {}
        for c in cells:
            if c in row_movers or c in col_movers:
                continue
            p = _leaf_corner_for(cells, c, self.cfg)
            if p is not None:
                self._cell_patterns[c] = p
        self._primed = True

    def _dirty_runs(
        self, cells: Set[Cell], changed: Set[Cell], max_len: int
    ) -> Tuple[
        List[MergePattern],
        List[MergePattern],
        List[MergePattern],
        List[MergePattern],
    ]:
        """Run-granular invalidation: ``(dead_row, dead_col, new_row,
        new_col)`` from the anchors of the changed cells.

        A flip at ``c`` can change (a) the run structure of ``c``'s own
        row/column at the cells adjacent to ``c``, and (b) the free-side
        status of the perpendicular-adjacent runs spanning ``c``'s
        coordinate — and nothing else.  Both kinds of affected run
        contain an *anchor*: ``c`` itself or one of its 4-neighbors.  So
        stale patterns are exactly those owning an anchor (found via the
        mover index), and fresh candidates are derived from the maximal
        runs through the occupied anchors (capped walks, O(max_len)).
        """
        row_movers, col_movers = self._row_movers, self._col_movers
        anchors: Set[Cell] = set()
        for x, y in changed:
            anchors.add((x, y))
            anchors.add((x + 1, y))
            anchors.add((x - 1, y))
            anchors.add((x, y + 1))
            anchors.add((x, y - 1))

        # Stale patterns: every cached bump holding an anchor.
        dead_row: List[MergePattern] = []
        dead_col: List[MergePattern] = []
        seen_ids: Set[int] = set()
        for a in sorted(anchors):
            p = row_movers.get(a)
            if p is not None and id(p) not in seen_ids:
                seen_ids.add(id(p))
                dead_row.append(p)
            p = col_movers.get(a)
            if p is not None and id(p) not in seen_ids:
                seen_ids.add(id(p))
                dead_col.append(p)

        # Fresh candidates: the maximal runs through occupied anchors
        # (deduped by run identity), evaluated on the new occupancy.
        new_row: List[MergePattern] = []
        new_col: List[MergePattern] = []
        seen_runs: Set[Tuple[int, int, int]] = set()
        for a in sorted(anchors):
            if a not in cells:
                continue
            ax, ay = a
            # Quick reject before the capped run walks: a run's bump
            # needs one flanking line completely free, so it is free
            # at the anchor's own coordinate in particular.  This
            # skips solid-interior anchors (dense blobs) at two
            # lookups instead of a 2*max_len walk.
            if (ax, ay + 1) not in cells or (ax, ay - 1) not in cells:
                h = _h_run_of(cells, a, max_len)
                if h is not None:
                    key = (0, ay, h[0])
                    if key not in seen_runs:
                        seen_runs.add(key)
                        p = _h_run_pattern(ay, h[0], h[1], cells)
                        if p is not None:
                            new_row.append(p)
            if (ax + 1, ay) not in cells or (ax - 1, ay) not in cells:
                v = _v_run_of(cells, a, max_len)
                if v is not None:
                    key = (1, ax, v[0])
                    if key not in seen_runs:
                        seen_runs.add(key)
                        p = _v_run_pattern(ax, v[0], v[1], cells)
                        if p is not None:
                            new_col.append(p)
        return dead_row, dead_col, new_row, new_col

    def _dirty_lines(
        self,
        state: SwarmState,
        cells: Set[Cell],
        dirty_rows: Set[int],
        dirty_cols: Set[int],
        max_len: int,
    ) -> Tuple[
        List[MergePattern],
        List[MergePattern],
        List[MergePattern],
        List[MergePattern],
    ]:
        """Line-granular invalidation (the churn-regime strategy): every
        dirty line is re-enumerated wholesale.  Produces the same
        ``(dead, new)`` lists as :meth:`_dirty_runs` modulo entries that
        cancel (a pattern removed and re-derived identically), which the
        shared bookkeeping in :meth:`update` treats identically."""
        rows, cols = state.rows(), state.cols()
        dead_row: List[MergePattern] = []
        dead_col: List[MergePattern] = []
        new_row: List[MergePattern] = []
        new_col: List[MergePattern] = []
        for y in sorted(dirty_rows):
            old = self._row_patterns.get(y)
            if old is None and y not in rows:
                continue  # empty line stayed empty: no-op
            ps = _row_bumps(y, rows[y], cells, max_len) if y in rows else None
            if old:
                dead_row.extend(old.values())
            if ps:
                new_row.extend(ps)
        for x in sorted(dirty_cols):
            old = self._col_patterns.get(x)
            if old is None and x not in cols:
                continue
            ps = _col_bumps(x, cols[x], cells, max_len) if x in cols else None
            if old:
                dead_col.extend(old.values())
            if ps:
                new_col.extend(ps)
        return dead_row, dead_col, new_row, new_col

    def update(self, state: SwarmState, changed: Iterable[Cell]) -> None:
        """Re-derive only the dirty runs and neighborhoods.

        Strategy choice per round: run-granular invalidation costs
        O(changed anchors), line-granular costs O(dirty-line occupancy);
        sparse steady-state rounds take the run path (a round that moves
        k robots re-derives O(k) runs of length <= max_bump_length), and
        churn-heavy rounds — where many changed cells share few lines
        and the tight line scans amortize better — take the line path.
        Both produce the exact same cached pattern sets.
        """
        if not self._primed:
            self.rebuild(state)
            return
        changed = set(changed)
        if not changed:
            return
        cfg = self.cfg
        cells = state.cells

        row_movers, col_movers = self._row_movers, self._col_movers
        if cfg.enable_bump_merges:
            max_len = cfg.max_bump_length
            rows, cols = state.rows(), state.cols()
            # Cost estimate: the run path touches ~5 anchors x 2 axes
            # per changed cell; the line path walks every occupied cell
            # of every dirty line.  The constant favors the line path
            # only under heavy churn (dense dirty bands).
            dirty_rows = {y + dy for _, y in changed for dy in (-1, 0, 1)}
            dirty_cols = {x + dx for x, _ in changed for dx in (-1, 0, 1)}
            run_est = _RUN_COST_FACTOR * len(changed)
            line_est = 0
            for y in dirty_rows:
                xs = rows.get(y)
                if xs is not None:
                    line_est += len(xs)
            for x in dirty_cols:
                ys = cols.get(x)
                if ys is not None:
                    line_est += len(ys)
            if run_est <= line_est:
                dead_row, dead_col, new_row, new_col = self._dirty_runs(
                    cells, changed, max_len
                )
            else:
                dead_row, dead_col, new_row, new_col = self._dirty_lines(
                    state, cells, dirty_rows, dirty_cols, max_len
                )

            # Mover-status bookkeeping, snapshotted before any mutation.
            old_row_m = {m for p in dead_row for m in p.movers}
            new_row_m = {m for p in new_row for m in p.movers}
            old_col_m = {m for p in dead_col for m in p.movers}
            new_col_m = {m for p in new_col for m in p.movers}
            touched = (old_row_m ^ new_row_m) | (old_col_m ^ new_col_m)
            was_mover = {
                c: c in row_movers or c in col_movers for c in touched
            }

            row_patterns, col_patterns = (
                self._row_patterns,
                self._col_patterns,
            )
            for p in dead_row:
                x0, y = p.movers[0]
                line = row_patterns.get(y)
                if line is not None:
                    line.pop(x0, None)
                    if not line:
                        del row_patterns[y]
                for m in p.movers:
                    row_movers.pop(m, None)
            for p in dead_col:
                x, y0 = p.movers[0]
                line = col_patterns.get(x)
                if line is not None:
                    line.pop(y0, None)
                    if not line:
                        del col_patterns[x]
                for m in p.movers:
                    col_movers.pop(m, None)
            for p in new_row:
                x0, y = p.movers[0]
                row_patterns.setdefault(y, {})[x0] = p
                for m in p.movers:
                    row_movers[m] = p
            for p in new_col:
                x, y0 = p.movers[0]
                col_patterns.setdefault(x, {})[y0] = p
                for m in p.movers:
                    col_movers[m] = p
            mover_delta = {
                c
                for c in touched
                if (c in row_movers or c in col_movers) != was_mover[c]
            }
        else:
            mover_delta = set()

        leaf_dirty: Set[Cell] = set(mover_delta)
        for cx, cy in changed:
            for dx in (-1, 0, 1):
                for dy in (-1, 0, 1):
                    leaf_dirty.add((cx + dx, cy + dy))
        cell_patterns = self._cell_patterns
        for c in leaf_dirty:
            p = (
                _leaf_corner_for(cells, c, cfg, cell_patterns.get(c))
                if c in cells
                and c not in row_movers
                and c not in col_movers
                else None
            )
            if p is not None:
                cell_patterns[c] = p
            else:
                cell_patterns.pop(c, None)

    def candidates(self) -> List[MergePattern]:
        """The full candidate list (bumps first, then leaf/corner)."""
        out: List[MergePattern] = []
        for line in self._row_patterns.values():
            out.extend(line.values())
        for line in self._col_patterns.values():
            out.extend(line.values())
        out.extend(self._cell_patterns.values())
        return out

    def plan(self) -> Tuple[Dict[Cell, Cell], List[MergePattern]]:
        """Resolve the cached candidates; same contract as
        :func:`plan_merges`."""
        return _resolve(self.candidates())


# ----------------------------------------------------------------------
# Per-robot local re-derivation (locality audit; used by tests)
# ----------------------------------------------------------------------
def merge_move_for(view, robot: Cell, cfg: AlgorithmConfig) -> Optional[Cell]:
    """Recompute ``robot``'s merge move using only membership queries.

    ``view`` is anything supporting ``cell in view`` — in tests a
    :class:`repro.core.view.LocalView`, which *raises* if the rule inspects
    a cell outside the viewing radius.  Must agree with :func:`plan_merges`;
    the property tests check exactly that.
    """

    def my_patterns(c: Cell) -> List[MergePattern]:
        """Candidate patterns having ``c`` as a mover."""
        out: List[MergePattern] = []
        if cfg.enable_bump_merges:
            for axis, far_near in (
                ((1, 0), ((0, 1), (0, -1))),
                ((1, 0), ((0, -1), (0, 1))),
                ((0, 1), ((1, 0), (-1, 0))),
                ((0, 1), ((-1, 0), (1, 0))),
            ):
                far, near = far_near
                # Expand the maximal run through c along `axis`, capping the
                # walk so an over-long run is abandoned without querying
                # cells beyond the viewing radius.
                cap = cfg.max_bump_length
                lo = c
                steps = 0
                while steps <= cap and sub(lo, axis) in view:
                    lo = sub(lo, axis)
                    steps += 1
                hi = c
                while steps <= cap and add(hi, axis) in view:
                    hi = add(hi, axis)
                    steps += 1
                k = (hi[0] - lo[0]) + (hi[1] - lo[1]) + 1
                if k > cfg.max_bump_length or steps > cap:
                    continue
                run = tuple(
                    add(lo, (axis[0] * i, axis[1] * i)) for i in range(k)
                )
                if any(add(rc, far) in view for rc in run):
                    continue
                supports = tuple(
                    add(rc, near) for rc in run if add(rc, near) in view
                )
                if not supports:
                    continue
                out.append(
                    MergePattern("bump", run, near, frozenset(supports))
                )
        if not out:
            nbrs = [n for n in neighbors4(c) if n in view]
            if len(nbrs) == 1:
                out.append(
                    MergePattern(
                        "leaf", (c,), sub(nbrs[0], c), frozenset(nbrs)
                    )
                )
            elif (
                cfg.enable_corner_merges
                and len(nbrs) == 2
                and perpendicular(sub(nbrs[0], c), sub(nbrs[1], c))
            ):
                diag = add(sub(nbrs[0], c), sub(nbrs[1], c))
                if add(c, diag) in view:
                    out.append(
                        MergePattern(
                            "corner",
                            (c,),
                            diag,
                            frozenset((add(c, diag),)),
                        )
                    )
        return out

    mine = my_patterns(robot)
    if not mine:
        return None

    def target_moves(c: Cell) -> bool:
        """Does the robot on cell ``c`` move in any candidate pattern?"""
        return c in view and bool(my_patterns(c))

    def robot_is_frozen() -> bool:
        """Is ``robot`` a support/target of a neighbor's candidate pattern?

        Freeze sources: a leaf pointing at us or a bump landing on us
        (cardinal neighbors), or a corner targeting our cell (diagonal
        neighbors).
        """
        for nb in neighbors4(robot):
            if nb in view:
                for p in my_patterns(nb):
                    if robot in p.frozen:
                        return True
        for d in ((1, 1), (-1, 1), (-1, -1), (1, -1)):
            nb = add(robot, d)
            if nb in view:
                for p in my_patterns(nb):
                    if robot in p.frozen:
                        return True
        return False

    surviving: List[MergePattern] = []
    for p in mine:
        if p.kind == "bump":
            surviving.append(p)
            continue
        if robot_is_frozen():
            continue
        if p.kind == "leaf" and any(target_moves(t) for t in p.frozen):
            continue
        surviving.append(p)
    moves = compose_moves(surviving)
    return moves.get(robot)
