"""Swarm occupancy state.

Robots are indistinguishable and merge when they share a cell (paper
Section 1), so the canonical state of the world is simply the *set* of
occupied cells.  :class:`SwarmState` wraps that set with the queries the
algorithm and the engines need, plus a bulk synchronous move application that
implements merge-on-collision.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Set

import numpy as np

from repro.grid.geometry import (
    Cell,
    bounding_box,
    chebyshev,
    neighbors4,
    neighbors8,
)


class SwarmState:
    """The set of occupied grid cells, with neighborhood queries.

    The class is mutable (``apply_moves`` advances it in place) but exposes
    ``frozen()`` snapshots for logging and hashing.  All queries are O(1)
    set lookups; bulk operations are O(n).

    ``apply_moves`` additionally records the *dirty region* of the round —
    ``last_changed`` holds every cell whose occupancy flipped (vacated or
    newly occupied), and ``version`` counts applications — so incremental
    consumers (:mod:`repro.core.incremental`, the engine's localized
    connectivity check) can restrict their per-round work to the
    neighborhoods that actually moved.

    ``connected_version`` is the ``version`` at which an engine last
    proved the cells 4-connected (its per-round connectivity check), or
    -1 when nothing vouches for the current cells: fresh states, copies
    and ``from_validated`` wraps start unstamped, and any move
    application bumps ``version`` past the stamp.  Consumers that need
    connectivity as a premise (the tolerant filter) compare the two
    instead of re-running a BFS.  Sound only while ``cells`` changes
    through ``apply_moves``/``move_robot``, like every other
    ``version``-keyed cache.
    """

    __slots__ = (
        "_cells",
        "last_changed",
        "version",
        "connected_version",
        "_rows",
        "_cols",
        "_bbox",
        "_bbox_version",
    )

    def __init__(self, cells: Iterable[Cell] = ()) -> None:
        self._cells: Set[Cell] = set(cells)
        for c in self._cells:
            if len(c) != 2 or not all(isinstance(v, int) for v in c):
                raise TypeError(f"cells must be (int, int) tuples, got {c!r}")
        #: Cells whose occupancy flipped in the last ``apply_moves``.
        self.last_changed: FrozenSet[Cell] = frozenset()
        #: Number of move applications performed on this state.
        self.version: int = 0
        #: ``version`` last certified 4-connected by an engine, or -1.
        self.connected_version: int = -1
        # Lazily built row/column indices (y -> sorted xs, x -> sorted ys),
        # maintained incrementally once built; None until first requested.
        self._rows: Dict[int, list] | None = None
        self._cols: Dict[int, list] | None = None
        self._bbox: tuple | None = None
        self._bbox_version: int = -1

    @classmethod
    def from_validated(cls, cells: Set[Cell]) -> "SwarmState":
        """Wrap an already-validated cell set without re-checking each cell.

        The per-cell isinstance validation in ``__init__`` is O(n) and shows
        up in profiles when states are copied in hot loops (sweeps, engine
        snapshots).  Callers must pass a *fresh* ``set`` of ``(int, int)``
        tuples — the set is adopted, not copied.
        """
        obj = cls.__new__(cls)
        obj._cells = cells
        obj.last_changed = frozenset()
        obj.version = 0
        obj.connected_version = -1
        obj._rows = None
        obj._cols = None
        obj._bbox = None
        obj._bbox_version = -1
        return obj

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._cells)

    def __iter__(self) -> Iterator[Cell]:
        return iter(self._cells)

    def __contains__(self, cell: Cell) -> bool:
        return cell in self._cells

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SwarmState):
            return self._cells == other._cells
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SwarmState(n={len(self._cells)})"

    @property
    def cells(self) -> Set[Cell]:
        """Direct (mutable) access to the occupied-cell set.

        Exposed for the engines; algorithm code should treat it read-only.
        """
        return self._cells

    def frozen(self) -> FrozenSet[Cell]:
        """An immutable snapshot of the occupied cells."""
        return frozenset(self._cells)

    def copy(self) -> "SwarmState":
        """An independent copy of this state (validated fast path)."""
        return SwarmState.from_validated(set(self._cells))

    # ------------------------------------------------------------------
    # Row/column indices (lazily built, incrementally maintained)
    # ------------------------------------------------------------------
    def rows(self) -> Dict[int, List[int]]:
        """``y -> sorted occupied xs``; built on first use, then kept in
        sync by ``apply_moves``/``move_robot``.  Shared by the merge-
        pattern scan and the bounding-box queries so the per-round cost
        is O(changed), not O(n)."""
        if self._rows is None:
            rows: Dict[int, List[int]] = {}
            cols: Dict[int, List[int]] = {}
            for x, y in self._cells:
                rows.setdefault(y, []).append(x)
                cols.setdefault(x, []).append(y)
            for v in rows.values():
                v.sort()
            for v in cols.values():
                v.sort()
            self._rows, self._cols = rows, cols
        return self._rows

    def cols(self) -> Dict[int, List[int]]:
        """``x -> sorted occupied ys`` (see :meth:`rows`)."""
        if self._cols is None:
            self.rows()
        return self._cols

    def _index_add(self, cell: Cell) -> None:
        x, y = cell
        insort(self._rows.setdefault(y, []), x)
        insort(self._cols.setdefault(x, []), y)

    def _index_remove(self, cell: Cell) -> None:
        x, y = cell
        xs = self._rows[y]
        del xs[bisect_left(xs, x)]
        if not xs:
            del self._rows[y]
        ys = self._cols[x]
        del ys[bisect_left(ys, y)]
        if not ys:
            del self._cols[x]

    # ------------------------------------------------------------------
    # Neighborhood queries (4-neighborhood = connectivity, paper Section 1)
    # ------------------------------------------------------------------
    def occupied_neighbors4(self, cell: Cell) -> tuple[Cell, ...]:
        """Occupied cardinal neighbors of ``cell``."""
        occ = self._cells
        return tuple(n for n in neighbors4(cell) if n in occ)

    def occupied_neighbors8(self, cell: Cell) -> tuple[Cell, ...]:
        """Occupied 8-neighbors of ``cell``."""
        occ = self._cells
        return tuple(n for n in neighbors8(cell) if n in occ)

    def degree(self, cell: Cell) -> int:
        """Number of occupied cardinal neighbors (connectivity degree)."""
        occ = self._cells
        x, y = cell
        return (
            ((x + 1, y) in occ)
            + ((x, y + 1) in occ)
            + ((x - 1, y) in occ)
            + ((x, y - 1) in occ)
        )

    def is_boundary(self, cell: Cell) -> bool:
        """A robot is on *some* boundary iff it has an unconnected side
        (paper Section 1: "the boundaries consist of all robots who have at
        least one unconnected side")."""
        return cell in self._cells and self.degree(cell) < 4

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def bounding_box(self) -> tuple[int, int, int, int]:
        """Axis-aligned bounding box of the swarm.

        O(#rows) via the row index (cached per ``version``): the engine
        queries the box twice per round (termination + metrics), which
        made the O(n) scan one of the last full-swarm walks per round.
        """
        if not self._cells:
            return bounding_box(self._cells)  # raises ValueError
        if self._bbox_version == self.version and self._bbox is not None:
            return self._bbox
        rows = self.rows()
        min_x = max_x = None
        for xs in rows.values():
            if min_x is None or xs[0] < min_x:
                min_x = xs[0]
            if max_x is None or xs[-1] > max_x:
                max_x = xs[-1]
        self._bbox = (min_x, min(rows), max_x, max(rows))
        self._bbox_version = self.version
        return self._bbox

    def diameter_chebyshev(self) -> int:
        """Chebyshev diameter of the swarm (0 for a single robot)."""
        if not self._cells:
            raise ValueError("diameter of empty swarm")
        min_x, min_y, max_x, max_y = self.bounding_box()
        return max(max_x - min_x, max_y - min_y)

    def is_gathered(self, square: int = 2) -> bool:
        """True when all robots fit in a ``square`` x ``square`` area
        (paper Section 3.2: gathering is finished in a 2x2 square, since that
        configuration cannot be simplified further in the FSYNC model)."""
        if not self._cells:
            return True
        min_x, min_y, max_x, max_y = self.bounding_box()
        return (max_x - min_x) < square and (max_y - min_y) < square

    def to_array(self) -> np.ndarray:
        """The occupied cells as an ``(n, 2)`` int array (sorted, for
        deterministic downstream numpy analysis)."""
        if not self._cells:
            return np.empty((0, 2), dtype=np.int64)
        return np.array(sorted(self._cells), dtype=np.int64)

    # ------------------------------------------------------------------
    # Synchronous move application
    # ------------------------------------------------------------------
    def apply_moves(self, moves: Mapping[Cell, Cell]) -> int:
        """Apply a set of simultaneous robot moves; co-located robots merge.

        ``moves`` maps *source* cells (must be occupied) to *target* cells.
        Targets must be within one 8-neighbor hop (paper's movement model).
        Robots not mentioned stay put.  After application, any cell holding
        more than one robot holds exactly one (merge-on-collision).

        Returns the number of robots removed by merging this round.

        Side effect: ``last_changed`` is set to the cells whose occupancy
        flipped (sources left empty plus targets newly filled) and
        ``version`` is bumped — the dirty region the incremental pipeline
        keys its caches on.
        """
        if not moves:
            self.last_changed = frozenset()
            self.version += 1
            return 0
        cells = self._cells
        for src, dst in moves.items():
            if src not in cells:
                raise KeyError(f"move source {src} is not occupied")
            if chebyshev(src, dst) > 1:
                raise ValueError(
                    f"illegal move {src} -> {dst}: farther than one hop"
                )
        before = len(cells)
        targets = set(moves.values())
        # Mutate in place (O(moved), not O(n)): a vacated source is a
        # changed cell unless some robot moves onto it; a target is
        # changed unless it was already occupied before the round.
        changed = frozenset(
            [src for src in moves if src not in targets]
            + [dst for dst in targets if dst not in cells]
        )
        for src in moves:
            cells.discard(src)
        cells |= targets
        self.last_changed = changed
        if self._rows is not None:
            for c in changed:
                if c in cells:
                    self._index_add(c)
                else:
                    self._index_remove(c)
        self.version += 1
        return before - len(cells)

    def move_robot(self, src: Cell, dst: Cell) -> bool:
        """Move a single robot (sequential/ASYNC semantics); True on merge.

        ``src`` must be occupied; ``dst`` may equal ``src`` (no-op) and,
        unlike ``apply_moves``, range checking is the caller's job.  Keeps
        the row/column indices and dirty tracking coherent — sequential
        engines must use this instead of mutating ``cells`` directly.
        """
        if dst == src:
            return False
        cells = self._cells
        cells.discard(src)
        merged = dst in cells
        if not merged:
            cells.add(dst)
        if self._rows is not None:
            self._index_remove(src)
            if not merged:
                self._index_add(dst)
        self.last_changed = (
            frozenset((src,)) if merged else frozenset((src, dst))
        )
        self.version += 1
        return merged
