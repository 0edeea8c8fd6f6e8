"""Connected swarm generators for experiments and tests.

Every generator returns a sorted list of distinct ``(x, y)`` cells forming a
4-connected swarm (validated; generators raise if they ever produce a
disconnected shape — that would silently invalidate experiments).

The families cover the regimes the algorithm exercises:

* merge-dominated: ``solid_rectangle``, ``random_blob`` (thick material,
  state-free bump/corner merges do the work);
* reshapement-dominated: ``ring``, ``double_donut``, ``spiral``,
  ``staircase_corridor``, ``diamond_ring`` (mergeless phases, runs);
* leaf-dominated: ``line``, ``random_tree``, ``comb`` (1-thick limbs);
* worst-case diameter: ``line`` realizes the paper's Omega(n) lower bound.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.errors import InvariantError
from repro.grid.connectivity import is_connected
from repro.grid.geometry import Cell


def _finish(cells: Set[Cell] | Sequence[Cell]) -> List[Cell]:
    out = sorted(set(cells))
    if not out:
        raise ValueError("generator produced an empty swarm")
    if not is_connected(out):
        raise InvariantError(
            "generator produced a disconnected swarm (bug)"
        )
    return out


def line(n: int, vertical: bool = False) -> List[Cell]:
    """A 1-thick straight line of ``n`` robots — the diameter worst case."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _finish([(0, i) if vertical else (i, 0) for i in range(n)])


def solid_rectangle(width: int, height: int) -> List[Cell]:
    """A filled ``width x height`` block."""
    if width < 1 or height < 1:
        raise ValueError("dimensions must be >= 1")
    return _finish([(x, y) for x in range(width) for y in range(height)])


def ring(side: int, thickness: int = 1) -> List[Cell]:
    """A square ring (annulus) with the given wall thickness."""
    if side < 3:
        raise ValueError("side must be >= 3")
    if not 1 <= thickness <= side // 2:
        raise ValueError("thickness must be in [1, side//2]")
    cells = [
        (x, y)
        for x in range(side)
        for y in range(side)
        if (
            x < thickness
            or x >= side - thickness
            or y < thickness
            or y >= side - thickness
        )
    ]
    return _finish(cells)


def plus_shape(arm: int, width: int = 1) -> List[Cell]:
    """A plus/cross with four arms of length ``arm`` and given width."""
    if arm < 1 or width < 1:
        raise ValueError("arm and width must be >= 1")
    half = width // 2
    cells: Set[Cell] = set()
    for w in range(-half, width - half):
        for i in range(-arm, arm + 1):
            cells.add((i, w))
            cells.add((w, i))
    return _finish(cells)


def h_shape(height: int, span: int) -> List[Cell]:
    """An H: two vertical bars joined by a horizontal crossbar."""
    if height < 3 or span < 1:
        raise ValueError("height >= 3 and span >= 1 required")
    cells: Set[Cell] = set()
    mid = height // 2
    for y in range(height):
        cells.add((0, y))
        cells.add((span + 1, y))
    for x in range(span + 2):
        cells.add((x, mid))
    return _finish(cells)


def staircase(steps: int) -> List[Cell]:
    """An open staircase: unit steps northeast, 2 robots per step."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    cells: Set[Cell] = {(0, 0)}
    x = y = 0
    for _ in range(steps):
        cells.add((x + 1, y))
        x += 1
        cells.add((x, y + 1))
        y += 1
    return _finish(cells)


def staircase_corridor(steps: int, run: int = 2) -> List[Cell]:
    """A fat staircase: ``run`` horizontal robots per tread, 1-thick."""
    if steps < 1 or run < 1:
        raise ValueError("steps and run must be >= 1")
    cells: Set[Cell] = set()
    x = y = 0
    for _ in range(steps):
        for _ in range(run):
            cells.add((x, y))
            x += 1
        cells.add((x - 1, y + 1))
        y += 1
    cells.add((x - 1, y))
    return _finish(cells)


def diamond_ring(radius: int) -> List[Cell]:
    """A closed 1-thick diamond (4-connected staircase approximation of an
    L1 circle) — the all-stairway stress shape for the run machinery."""
    if radius < 2:
        raise ValueError("radius must be >= 2")
    cells: Set[Cell] = set()
    # Trace one quadrant as a staircase from (0, r) to (r, 0) and mirror.
    x, y = 0, radius
    while y > 0:
        cells.add((x, y))
        cells.add((x + 1, y))
        x += 1
        y -= 1
    cells.add((x, 0))
    full: Set[Cell] = set()
    for (a, b) in cells:
        full |= {(a, b), (-a, b), (a, -b), (-a, -b)}
    return _finish(full)


def spiral(turns: int, gap: int = 2) -> List[Cell]:
    """A rectangular 1-thick spiral with ``gap`` empty cells between arms."""
    if turns < 1:
        raise ValueError("turns must be >= 1")
    cells: List[Cell] = []
    x = y = 0
    dirs = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    step = gap + 1
    d = 0
    for _ in range(2 * turns):
        dx, dy = dirs[d % 4]
        for _ in range(step):
            cells.append((x, y))
            x += dx
            y += dy
        d += 1
        if d % 2 == 0:
            step += gap + 1
    cells.append((x, y))
    return _finish(cells)


def comb(teeth: int, tooth_len: int) -> List[Cell]:
    """A comb: a spine with ``teeth`` prongs of length ``tooth_len``."""
    if teeth < 1 or tooth_len < 1:
        raise ValueError("teeth and tooth_len must be >= 1")
    cells = [(x, 0) for x in range(2 * teeth + 1)]
    for t in range(teeth):
        cells += [(2 * t + 1, y) for y in range(1, tooth_len + 1)]
    return _finish(cells)


def l_corridor(arm: int, thickness: int = 1) -> List[Cell]:
    """An L-shaped corridor with two arms of length ``arm``."""
    if arm < 2 or thickness < 1:
        raise ValueError("arm >= 2 and thickness >= 1 required")
    cells: Set[Cell] = set()
    for i in range(arm):
        for w in range(thickness):
            cells.add((i, w))
            cells.add((w, i))
    return _finish(cells)


def double_donut(side: int) -> List[Cell]:
    """A block with two rectangular holes (multiple inner boundaries)."""
    if side < 8:
        raise ValueError("side must be >= 8")
    h = side // 2
    cells = {(x, y) for x in range(side) for y in range(h)}
    hole_w = max(1, (side - 6) // 2)
    holes = {
        (x, y)
        for x in range(2, 2 + hole_w)
        for y in range(2, h - 2)
    } | {
        (x, y)
        for x in range(side - 2 - hole_w, side - 2)
        for y in range(2, h - 2)
    }
    return _finish(cells - holes)


def random_blob(n: int, seed: int) -> List[Cell]:
    """Random connected blob grown by seeded BFS-with-randomized frontier."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    cells: Set[Cell] = {(0, 0)}
    frontier: List[Cell] = [(0, 0)]
    while len(cells) < n:
        c = frontier[rng.randrange(len(frontier))]
        nbs = [
            (c[0] + dx, c[1] + dy)
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
            if (c[0] + dx, c[1] + dy) not in cells
        ]
        if not nbs:
            frontier.remove(c)
            continue
        p = nbs[rng.randrange(len(nbs))]
        cells.add(p)
        frontier.append(p)
    return _finish(cells)


def random_tree(n: int, seed: int, tip_bias: float = 0.85) -> List[Cell]:
    """Random connected tree-like swarm (thin, many leaves and corridors).

    Growth prefers extending recently added tips, producing long 1-thick
    limbs — the hardest regime for merge parallelism.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    cells: Set[Cell] = {(0, 0)}
    tips: List[Cell] = [(0, 0)]
    order: List[Cell] = [(0, 0)]
    while len(cells) < n:
        c = (
            tips[rng.randrange(len(tips))]
            if rng.random() < tip_bias
            else order[rng.randrange(len(order))]
        )
        nbs = [
            (c[0] + dx, c[1] + dy)
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
            if (c[0] + dx, c[1] + dy) not in cells
        ]
        if not nbs:
            if c in tips:
                tips.remove(c)
            continue
        p = nbs[rng.randrange(len(nbs))]
        cells.add(p)
        tips.append(p)
        order.append(p)
    return _finish(cells)


# ----------------------------------------------------------------------
# Named families for the experiment harness: n -> swarm (seeded where
# random).  Each callable takes a target size and returns roughly that many
# robots (exact for most shapes).
# ----------------------------------------------------------------------
def _family_ring(n: int) -> List[Cell]:
    side = max(4, (n + 4) // 4 + 1)
    return ring(side)


def _family_solid(n: int) -> List[Cell]:
    side = max(2, round(n**0.5))
    return solid_rectangle(side, side)


def _family_blob(n: int) -> List[Cell]:
    return random_blob(n, seed=n)


def _family_tree(n: int) -> List[Cell]:
    return random_tree(n, seed=n)


def _family_stair(n: int) -> List[Cell]:
    return staircase(max(1, (n - 1) // 2))


def _family_plus(n: int) -> List[Cell]:
    return plus_shape(max(1, (n - 1) // 4))


def _family_spiral(n: int) -> List[Cell]:
    t = 1
    while len(spiral(t)) < n:
        t += 1
    return spiral(t)


FAMILIES: Dict[str, Callable[[int], List[Cell]]] = {
    "line": line,
    "ring": _family_ring,
    "solid": _family_solid,
    "blob": _family_blob,
    "tree": _family_tree,
    "staircase": _family_stair,
    "plus": _family_plus,
    "spiral": _family_spiral,
}

#: Families with a random component, exposed for per-task seeding by the
#: parallel sweep runner (default family seeds derive from ``n``).
STOCHASTIC_FAMILIES: Dict[str, Callable[[int, int], List[Cell]]] = {
    "blob": random_blob,
    "tree": random_tree,
}


def family(name: str, n: int, seed: Optional[int] = None) -> List[Cell]:
    """A swarm of (approximately) ``n`` robots from the named family.

    ``seed`` overrides the derived seed of stochastic families (blob,
    tree) so sweeps can average over independent instances; deterministic
    families ignore it.
    """
    if seed is not None and name in STOCHASTIC_FAMILIES:
        return STOCHASTIC_FAMILIES[name](n, seed)
    try:
        return FAMILIES[name](n)
    except KeyError:
        raise KeyError(
            f"unknown family {name!r}; available: {sorted(FAMILIES)}"
        ) from None
