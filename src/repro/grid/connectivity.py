"""Connectivity analysis of swarm states.

The paper's swarms are connected in the 4-neighborhood sense and every
operation must preserve that (it is "the only globally checkable" property,
Section 1).  The engines check it every round, first with the local
certificate :func:`locally_connected_after` (a 256-entry ring-mask table
for one-cell vacated groups, a window search for the rest) and with the
full :func:`connected_components` BFS only when that is inconclusive;
:func:`articulation_cells` supports tests and the safety analysis of
merge patterns.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from repro.grid.geometry import Cell, neighbors4


def connected_components(cells: Iterable[Cell]) -> List[Set[Cell]]:
    """Partition ``cells`` into 4-connected components (BFS, O(n))."""
    remaining: Set[Cell] = set(cells)
    components: List[Set[Cell]] = []
    while remaining:
        seed = next(iter(remaining))
        comp: Set[Cell] = {seed}
        frontier = [seed]
        remaining.discard(seed)
        while frontier:
            cur = frontier.pop()
            for nb in neighbors4(cur):
                if nb in remaining:
                    remaining.discard(nb)
                    comp.add(nb)
                    frontier.append(nb)
        components.append(comp)
    return components


def _ring_arc_table() -> Tuple[bool, ...]:
    """The 256-entry single-cell certificate, indexed by the occupancy
    mask of a cell's 8-neighbor ring (bit ``i`` is ring position ``i`` of
    ``_RING``: E, NE, N, NW, W, SW, S, SE).

    Consecutive ring positions are 4-adjacent, so each maximal arc of
    occupied ring cells is 4-connected.  An entry is True when every
    occupied 4-neighbor (an even position) lies on one arc — the
    neighbors then reconnect around the cell without leaving its ring.
    Two cyclically adjacent 4-neighbors share an arc iff the corner
    between them is occupied too (a *join*); below four joins the joins
    form a forest on the occupied 4-neighbors, so they lie on one arc
    iff ``sides - joins <= 1`` (four joins: the full ring, also 0).
    """
    table = []
    for mask in range(256):
        sides = joins = 0
        for i in (0, 2, 4, 6):
            if mask >> i & 1:
                sides += 1
                if mask >> (i + 1) & 1 and mask >> ((i + 2) & 7) & 1:
                    joins += 1
        table.append(sides - joins <= 1)
    return tuple(table)


#: Ring offsets in mask-bit order (bit ``i`` <-> ``_RING[i]``).
_RING = (
    (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)
)
_RING_ARC_OK = _ring_arc_table()


def _window_reconnects(
    cells: Set[Cell], group: Iterable[Cell], window: int
) -> bool:
    """Do the surviving 4-neighbors of the vacated ``group`` reconnect
    through occupied cells of its bounding box grown by ``window``?"""
    survivors = {nb for c in group for nb in neighbors4(c) if nb in cells}
    if len(survivors) <= 1:
        return True  # no path can cross the group between two survivors
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
    return not missing


def locally_connected_after(
    cells: Set[Cell], changed: Iterable[Cell], window: int = 2
) -> bool:
    """Sound local re-check of connectivity after a bounded change.

    ``cells`` is the post-move occupancy, ``changed`` the cells whose
    occupancy flipped.  Returns True only when connectivity is *proven*
    by independent local certificates; False means "inconclusive — run
    the full BFS", never "disconnected".

    Certificates, one per 4-connected *group* of changed cells (so
    unrelated changes on opposite sides of the swarm never need a joint
    path):

    * every group of *vacated* cells with two or more surviving
      4-neighbors must have those survivors reconnect to each other
      within the group's bounding box grown by ``window`` — then any
      pre-move path entering and leaving the group has a local detour
      (a maximal vacated run along a 4-path is 4-connected, hence inside
      one group);
    * every group of *newly occupied* cells must touch a surviving cell
      — then the new cells hang off the (still connected) survivors.

    A vacated cell with no vacated 4-neighbor is a group of its own, and
    most groups are such single cells.  Their certificate is first read
    from a 256-entry table over the 8-neighbor ring mask: when all
    occupied 4-neighbors lie on one arc of occupied ring cells, they
    reconnect inside the ring, which lies inside the window (for
    ``window >= 1``), so the window search would succeed too.  Single
    cells that fail the table, and groups of two or more cells, run the
    window search.  The boolean is the same as with the window search
    alone, on every input.

    A vacated group acting as a cut set — its sides reconnect, if at
    all, only far away — fails its certificate and triggers the full-BFS
    fallback in the caller.
    """
    changed = set(changed)
    if not changed:
        return True  # nothing moved: connectivity is unchanged
    added = {ch for ch in changed if ch in cells}
    vacated = changed - added

    for group in connected_components(added):
        if not any(
            nb in cells and nb not in added
            for c in group
            for nb in neighbors4(c)
        ):
            return False  # new cells not attached to any survivor
    use_table = window >= 1
    clustered = []
    for c in vacated:
        x, y = c
        if (
            (x + 1, y) in vacated
            or (x, y + 1) in vacated
            or (x - 1, y) in vacated
            or (x, y - 1) in vacated
        ):
            clustered.append(c)
            continue
        if use_table and _RING_ARC_OK[
            ((x + 1, y) in cells)
            | ((x + 1, y + 1) in cells) << 1
            | ((x, y + 1) in cells) << 2
            | ((x - 1, y + 1) in cells) << 3
            | ((x - 1, y) in cells) << 4
            | ((x - 1, y - 1) in cells) << 5
            | ((x, y - 1) in cells) << 6
            | ((x + 1, y - 1) in cells) << 7
        ]:
            continue
        if not _window_reconnects(cells, (c,), window):
            return False  # potential cut: needs the full BFS
    for group in connected_components(clustered):
        if not _window_reconnects(cells, group, window):
            return False  # potential cut: needs the full BFS
    return True


def is_connected(cells: Iterable[Cell]) -> bool:
    """True iff the cell set forms one 4-connected component.

    The empty set and singletons are connected by convention.
    """
    cell_set: Set[Cell] = set(cells)
    if len(cell_set) <= 1:
        return True
    seed = next(iter(cell_set))
    seen: Set[Cell] = {seed}
    frontier = [seed]
    while frontier:
        cur = frontier.pop()
        for nb in neighbors4(cur):
            if nb in cell_set and nb not in seen:
                seen.add(nb)
                frontier.append(nb)
    return len(seen) == len(cell_set)


def articulation_cells(cells: Iterable[Cell]) -> Set[Cell]:
    """Cells whose removal disconnects the swarm (cut vertices).

    Standard Hopcroft-Tarjan DFS on the 4-adjacency graph, iterative to
    survive deep swarms (a 10k-robot line would blow the recursion limit).
    Used by tests to verify that merge/fold operations never move a robot
    whose presence is load-bearing without a replacement path.
    """
    cell_set: Set[Cell] = set(cells)
    if len(cell_set) <= 2:
        return set()

    index: Dict[Cell, int] = {}
    low: Dict[Cell, int] = {}
    parent: Dict[Cell, Cell] = {}
    arts: Set[Cell] = set()
    counter = 0

    # reprolint: ok[D3] the result is the articulation *set*, which is
    # unique for a given occupancy; root order only shapes the DFS tree.
    for root in cell_set:
        if root in index:
            continue
        root_children = 0
        # stack holds (cell, iterator over its occupied neighbors)
        index[root] = low[root] = counter
        counter += 1
        stack = [(root, iter([n for n in neighbors4(root) if n in cell_set]))]
        while stack:
            cell, it = stack[-1]
            advanced = False
            for nb in it:
                if nb not in index:
                    parent[nb] = cell
                    if cell == root:
                        root_children += 1
                    index[nb] = low[nb] = counter
                    counter += 1
                    stack.append(
                        (nb, iter([m for m in neighbors4(nb) if m in cell_set]))
                    )
                    advanced = True
                    break
                elif parent.get(cell) != nb:
                    if index[nb] < low[cell]:
                        low[cell] = index[nb]
            if not advanced:
                stack.pop()
                if stack:
                    pcell = stack[-1][0]
                    if low[cell] < low[pcell]:
                        low[pcell] = low[cell]
                    if pcell != root and low[cell] >= index[pcell]:
                        arts.add(pcell)
        if root_children > 1:
            arts.add(root)
    return arts
