"""The table-driven 3x3 neighbourhood kernels.

* ``repro.grid.connectivity._RING_ARC_OK`` — the 256-entry single-cell
  connectivity certificate over the 8-neighbor ring mask;
* ``repro.core.patterns._LEAF_CORNER`` — the 16-entry leaf/corner rule
  over the 4-neighbor mask, and the cached-pattern reuse of
  :meth:`MergeCache.update`.

Each table is checked exhaustively against a brute-force rule, and
:func:`locally_connected_after` differentially against a copy of its
window-search-only version (kept below as the reference) on seeded
occupancies, single-cell ASYNC moves, merge rounds recorded from real
gathers and cut-vertex removals.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Set, Tuple

import pytest

from repro.core.config import AlgorithmConfig
from repro.core.patterns import (
    _LEAF_CORNER,
    MergeCache,
    MergePattern,
    _leaf_corner_for,
)
from repro.grid.connectivity import (
    _RING,
    _RING_ARC_OK,
    articulation_cells,
    connected_components,
    locally_connected_after,
)
from repro.grid.geometry import Cell, add, neighbors4, perpendicular, sub
from repro.grid.occupancy import SwarmState
from repro.swarms.generators import (
    comb,
    random_blob,
    random_tree,
    solid_rectangle,
    staircase,
)

SIDES = ((1, 0), (0, 1), (-1, 0), (0, -1))


# ----------------------------------------------------------------------
# Reference rules (the pre-table implementations)
# ----------------------------------------------------------------------
def window_only_locally_connected_after(
    cells: Set[Cell], changed: Iterable[Cell], window: int = 2
) -> bool:
    """``locally_connected_after`` as it was before the ring table: every
    vacated group, single cells included, runs the window search."""
    changed = set(changed)
    if not changed:
        return True
    added = {ch for ch in changed if ch in cells}
    vacated = changed - added
    for group in connected_components(added):
        if not any(
            nb in cells and nb not in added
            for c in group
            for nb in neighbors4(c)
        ):
            return False
    for group in connected_components(vacated):
        survivors = {
            nb for c in group for nb in neighbors4(c) if nb in cells
        }
        if len(survivors) <= 1:
            continue
        xs = [c[0] for c in group]
        ys = [c[1] for c in group]
        x_lo, x_hi = min(xs) - window, max(xs) + window
        y_lo, y_hi = min(ys) - window, max(ys) + window
        start = next(iter(survivors))
        seen = {start}
        frontier = [start]
        missing = len(survivors) - 1
        while frontier and missing:
            x, y = frontier.pop()
            for nb in ((x + 1, y), (x, y + 1), (x - 1, y), (x, y - 1)):
                if (
                    nb not in seen
                    and nb in cells
                    and x_lo <= nb[0] <= x_hi
                    and y_lo <= nb[1] <= y_hi
                ):
                    seen.add(nb)
                    frontier.append(nb)
                    if nb in survivors:
                        missing -= 1
        if missing:
            return False
    return True


def neighbour_list_leaf_corner(
    cells: Set[Cell], c: Cell, cfg: AlgorithmConfig
) -> Optional[MergePattern]:
    """``_leaf_corner_for`` as it was before the mask table."""
    nbrs = [nb for nb in neighbors4(c) if nb in cells]
    if len(nbrs) == 1:
        return MergePattern("leaf", (c,), sub(nbrs[0], c), frozenset(nbrs))
    if (
        cfg.enable_corner_merges
        and len(nbrs) == 2
        and perpendicular(sub(nbrs[0], c), sub(nbrs[1], c))
    ):
        diag = add(sub(nbrs[0], c), sub(nbrs[1], c))
        target = add(c, diag)
        if target in cells:
            return MergePattern("corner", (c,), diag, frozenset((target,)))
    return None


def ring_cells(mask: int) -> Set[Cell]:
    """The occupied ring cells of ``mask`` around the origin."""
    return {_RING[i] for i in range(8) if mask >> i & 1}


def ring_sides_reconnect(mask: int) -> bool:
    """Brute force: a BFS over the occupied ring cells alone (the centre
    is vacated) reaches every occupied 4-neighbor from any one."""
    occupied = ring_cells(mask)
    sides = [s for s in SIDES if s in occupied]
    if len(sides) <= 1:
        return True
    seen = {sides[0]}
    frontier = [sides[0]]
    while frontier:
        for nb in neighbors4(frontier.pop()):
            if nb in occupied and nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return all(s in seen for s in sides)


# ----------------------------------------------------------------------
# The ring-arc table
# ----------------------------------------------------------------------
class TestRingArcTable:
    def test_ring_order(self):
        # E, NE, N, NW, W, SW, S, SE: consecutive positions 4-adjacent,
        # the 4-neighbors on the even positions
        assert _RING[::2] == SIDES
        for i in range(8):
            a, b = _RING[i], _RING[(i + 1) % 8]
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1

    def test_matches_brute_force(self):
        for mask in range(256):
            assert _RING_ARC_OK[mask] == ring_sides_reconnect(mask), mask

    def test_named_cases(self):
        bit = {d: 1 << i for i, d in enumerate(_RING)}
        east, west, north = bit[(1, 0)], bit[(-1, 0)], bit[(0, 1)]
        assert len(_RING_ARC_OK) == 256
        assert _RING_ARC_OK[0] and _RING_ARC_OK[0xFF]
        assert not _RING_ARC_OK[east | west]  # a line through the centre
        assert not _RING_ARC_OK[east | north]  # a bare elbow
        assert _RING_ARC_OK[east | bit[(1, 1)] | north]  # a filled elbow

    def test_table_agrees_with_window_search(self):
        # The 3x3 block alone: the certificate of a vacated centre.
        for mask in range(256):
            cells = ring_cells(mask)
            assert locally_connected_after(cells, {(0, 0)}) == (
                window_only_locally_connected_after(cells, {(0, 0)})
            ), mask


# ----------------------------------------------------------------------
# The leaf/corner table
# ----------------------------------------------------------------------
class TestLeafCornerTable:
    @pytest.mark.parametrize("corners", [True, False])
    def test_all_masks_match_neighbour_list_rule(self, corners):
        cfg = AlgorithmConfig(enable_corner_merges=corners)
        for mask in range(256):  # all 4-neighbor masks x all diagonals
            cells = ring_cells(mask) | {(0, 0)}
            got = _leaf_corner_for(cells, (0, 0), cfg)
            assert got == neighbour_list_leaf_corner(cells, (0, 0), cfg)

    def test_entries(self):
        assert len(_LEAF_CORNER) == 16
        kinds = [e and e[0] for e in _LEAF_CORNER]
        assert kinds.count("leaf") == 4
        assert kinds.count("corner") == 4
        assert _LEAF_CORNER[0b0011] == ("corner", (1, 1))  # E + N
        assert _LEAF_CORNER[0b0101] is None  # E + W: straight

    def test_cached_pattern_reused_only_when_unchanged(self):
        cfg = AlgorithmConfig()
        cells = {(0, 0), (1, 0)}
        leaf = _leaf_corner_for(cells, (0, 0), cfg)
        assert _leaf_corner_for(cells, (0, 0), cfg, leaf) is leaf
        # the anchor moved to the north: a fresh pattern, not the cache
        moved = _leaf_corner_for({(0, 0), (0, 1)}, (0, 0), cfg, leaf)
        assert moved == MergePattern(
            "leaf", ((0, 0),), (0, 1), frozenset({(0, 1)})
        )
        # a leaf became a corner: same mover, new kind and direction
        corner = _leaf_corner_for(
            {(0, 0), (1, 0), (0, 1), (1, 1)}, (0, 0), cfg, leaf
        )
        assert corner.kind == "corner" and corner is not leaf

    def test_merge_cache_update_reuses_unchanged_leaf(self):
        # (1, 1) merges away: it lies in the leaf (0, 0)'s dirty
        # 8-neighborhood, yet the leaf's 4-neighbors are unchanged
        cfg = AlgorithmConfig(enable_bump_merges=False)
        state = SwarmState({(0, 0), (1, 0), (2, 0), (2, 1), (1, 1)})
        cache = MergeCache(cfg)
        cache.rebuild(state)
        leaf = cache._cell_patterns[(0, 0)]
        state.apply_moves({(1, 1): (2, 1)})
        cache.update(state, state.last_changed)
        assert cache._cell_patterns[(0, 0)] is leaf

    def test_merge_cache_partial_activation_rounds(self):
        # SSYNC-like rounds (a seeded half of the planned moves) keep
        # unchanged candidates: the cache still equals a rebuild, and
        # every value-equal survivor in the dirty halo is the same object
        cfg = AlgorithmConfig()
        rng = random.Random(5)
        reused = 0
        for cells in (random_blob(300, 2), random_tree(200, 4)):
            state = SwarmState(cells)
            cache = MergeCache(cfg)
            cache.rebuild(state)
            for _ in range(40):
                moves, _ = cache.plan()
                if not moves:
                    break
                picked = sorted(moves)
                picked = dict(
                    (c, moves[c])
                    for c in rng.sample(picked, (len(picked) + 1) // 2)
                )
                before = dict(cache._cell_patterns)
                state.apply_moves(picked)
                cache.update(state, state.last_changed)
                fresh = MergeCache(cfg)
                fresh.rebuild(state)
                assert cache._cell_patterns == fresh._cell_patterns
                halo = {
                    add(c, d) for c in state.last_changed for d in _RING
                }
                for c, p in cache._cell_patterns.items():
                    if c in before and before[c] == p:
                        assert before[c] is p
                        reused += c in halo
        assert reused


# ----------------------------------------------------------------------
# locally_connected_after against the window-only reference
# ----------------------------------------------------------------------
def _agree(cells: Set[Cell], changed: Set[Cell], windows=(2,)) -> bool:
    """Assert both versions agree; return the (shared) verdict."""
    for window in windows:
        want = window_only_locally_connected_after(cells, changed, window)
        assert locally_connected_after(cells, changed, window) == want, (
            sorted(changed),
            window,
        )
    return window_only_locally_connected_after(cells, changed)


class TestLocallyConnectedDifferential:
    def test_seeded_occupancies(self):
        verdicts = set()
        for seed in range(40):
            rng = random.Random(seed)
            before = set(random_blob(rng.randrange(20, 120), seed))
            order = sorted(before)
            vacated = set(rng.sample(order, rng.randrange(1, 8)))
            empty = sorted(
                {nb for c in before for nb in neighbors4(c)} - before
            )
            added = set(rng.sample(empty, min(len(empty), rng.randrange(4))))
            cells = (before - vacated) | added
            verdicts.add(_agree(cells, vacated | added, windows=(0, 1, 2, 3)))
        assert verdicts == {True, False}

    def test_single_cell_async_moves(self):
        # one activation: a hop onto an empty cell flips two cells, a hop
        # onto an occupied one (a merge) vacates exactly one
        verdicts = set()
        for before in (
            set(random_blob(60, 7)),
            set(random_tree(60, 7)),
            set(solid_rectangle(6, 5)),
        ):
            for robot in sorted(before):
                for d in _RING:
                    target = add(robot, d)
                    cells = (before - {robot}) | {target}
                    changed = {robot} if target in before else {robot, target}
                    verdicts.add(_agree(cells, changed, windows=(1, 2)))
        assert verdicts == {True, False}

    @pytest.mark.parametrize(
        "cells",
        [random_blob(400, 11), random_tree(300, 12), solid_rectangle(18, 16)],
        ids=["blob", "tree", "solid"],
    )
    def test_recorded_merge_rounds(self, cells, monkeypatch):
        import repro.engine.scheduler as scheduler
        from repro.api import simulate

        calls: List[Tuple[Set[Cell], Set[Cell]]] = []

        def recording(cells, changed, window=2):
            changed = set(changed)
            calls.append((set(cells), changed))
            return locally_connected_after(cells, changed, window)

        monkeypatch.setattr(scheduler, "locally_connected_after", recording)
        result = simulate(cells)
        assert result.gathered
        assert len(calls) == result.rounds
        for after, changed in calls:
            assert _agree(after, changed)

    def test_cut_vertex_removals_stay_false(self):
        removals = 0
        for before in (
            set(random_tree(150, 5)),
            set(random_blob(80, 5)),
            set(comb(6, 4)),
            set(staircase(8)),
        ):
            for cut in sorted(articulation_cells(before)):
                cells = before - {cut}
                assert len(connected_components(cells)) > 1
                assert not locally_connected_after(cells, {cut})
                assert not window_only_locally_connected_after(cells, {cut})
                removals += 1
        assert removals > 20
