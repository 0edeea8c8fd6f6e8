"""The tolerant variant's incremental admission filter.

:func:`repro.core.tolerant.certified_subset` admits planned moves one at
a time against a core it updates in place.  These tests hold it to the
plain greedy loop — a full certificate re-check per planned move, kept
here as a test-local reference — on seeded random inputs (also when
told that a connected occupancy is connected, as the engines' stamp
does), check that ``AlgorithmConfig(incremental=False)`` (the per-move
rescan) leaves whole tolerant runs unchanged, and pin tolerant
trajectories recorded before the filter became incremental.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.api import simulate
from repro.core.config import AlgorithmConfig
from repro.core.tolerant import certified_subset, certified_subset_rescan
from repro.grid.connectivity import is_connected
from repro.grid.geometry import neighbors4, neighbors8
from repro.swarms import generators


# ----------------------------------------------------------------------
# Test-local reference: the greedy loop with a full re-check per move
# ----------------------------------------------------------------------
def _holds(occupied, moves):
    core = occupied - set(moves)
    if not core or not is_connected(core):
        return False
    for src, dst in moves.items():
        if not any(nb in core for nb in neighbors4(src)):
            return False
        if dst not in core and not any(
            nb in core for nb in neighbors4(dst)
        ):
            return False
    return True


def reference(occupied, planned):
    kept = {}
    for src, dst in sorted(planned.items()):
        trial = {**kept, src: dst}
        if _holds(occupied, trial):
            kept = trial
    return kept


# ----------------------------------------------------------------------
# Seeded random inputs
# ----------------------------------------------------------------------
def _occupancy(kind, rng):
    n = rng.randint(1, 40)
    if kind == "blob":
        return set(generators.random_blob(n, rng.randrange(1000)))
    if kind == "tree":
        return set(generators.random_tree(n, rng.randrange(1000)))
    if kind == "ring":
        side = rng.randint(3, 10)
        return set(generators.ring(side, rng.randint(1, side // 2)))
    if kind == "line":
        return {(i, 0) for i in range(n)}
    if kind == "comb":  # a spine with teeth: many cut cells
        return {(i, 0) for i in range(n)} | {(i, 1) for i in range(0, n, 2)}
    if kind == "split":  # disconnected: a blob plus a far-away bar
        far = {(100 + i, 100) for i in range(rng.randint(1, 3))}
        return set(generators.random_blob(n, rng.randrange(1000))) | far
    raise ValueError(kind)


def _plan(occupied, rng):
    """Random hops out of ``occupied``: some sources unoccupied, some
    targets another move's source (chains), sometimes no move at all."""
    cells = sorted(occupied)
    planned = {}
    for _ in range(rng.randint(0, len(cells))):
        if rng.random() < 0.1:
            src = (rng.randint(-3, 20), rng.randint(-3, 20))
        else:
            src = rng.choice(cells)
        if planned and rng.random() < 0.3:
            dst = rng.choice(sorted(planned))
        else:
            dst = rng.choice(neighbors8(src))
        planned[src] = dst
    return planned


KINDS = ("blob", "tree", "ring", "line", "comb", "split")


@pytest.mark.parametrize("kind", KINDS)
def test_incremental_filter_matches_reference(kind):
    rng = random.Random(f"tolerant-{kind}")
    for _ in range(250):
        occupied = _occupancy(kind, rng)
        planned = _plan(occupied, rng)
        expected = reference(occupied, planned)
        assert certified_subset(occupied, planned) == expected, (
            sorted(occupied), planned
        )
        assert certified_subset_rescan(occupied, planned) == expected
        if is_connected(occupied):  # an engine's stamp would say so
            assert certified_subset(
                occupied, planned, connected=True
            ) == expected


def test_filter_is_pure():
    rng = random.Random(7)
    occupied = _occupancy("blob", rng)
    planned = _plan(occupied, rng)
    before = (set(occupied), dict(planned))
    certified_subset(occupied, planned)
    assert (occupied, planned) == before


@pytest.mark.parametrize(
    "occupied, planned, kept",
    [
        ({(0, 0), (1, 0)}, {}, {}),  # empty plan
        (set(), {(0, 0): (1, 0)}, {}),  # empty occupancy
        ({(0, 0)}, {(0, 0): (1, 0)}, {}),  # the core would be empty
        # disconnected occupancy: nothing is ever admitted
        ({(0, 0), (1, 0), (5, 5)}, {(0, 0): (0, 1)}, {}),
        ({(0, 0), (1, 0), (5, 5)}, {(5, 5): (4, 5)}, {}),
        # unoccupied source: the core is unchanged
        ({(0, 0), (1, 0)}, {(0, 1): (1, 1)}, {(0, 1): (1, 1)}),
        # a ring's first removal keeps a path, the second cuts it
        (
            set(generators.ring(3)),
            {(0, 0): (1, 1), (2, 2): (1, 1)},
            {(0, 0): (1, 1)},
        ),
        # chain: a target is another move's source, still beside the core
        (
            {(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)},
            {(0, 0): (1, 1), (1, 0): (0, 0)},
            {(0, 0): (1, 1), (1, 0): (0, 0)},
        ),
    ],
)
def test_edge_cases(occupied, planned, kept):
    assert reference(occupied, planned) == kept
    assert certified_subset(occupied, planned) == kept
    assert certified_subset(occupied, planned, incremental=False) == kept


# ----------------------------------------------------------------------
# Whole runs: incremental on vs off, and pinned trajectories
# ----------------------------------------------------------------------
#: ``simulate`` arguments of the pinned runs.
RUNS = {
    "ssync_ring_104": (
        lambda: generators.family("ring", 100),
        {"scheduler": "ssync", "activation_p": 0.8, "seed": 0},
    ),
    "ssync_blob_300": (
        lambda: generators.family("blob", 300),
        {"scheduler": "ssync", "activation_p": 0.8, "seed": 1},
    ),
    "fsync_ring_24": (lambda: generators.ring(24), {"scheduler": "fsync"}),
}

#: ``(rounds, trajectory, (robots, merged) series, move_deferred)``
#: digests, recorded with the per-move rescan filter before admission
#: became incremental.
PINNED = {
    "ssync_ring_104": (
        258, "61e5712c566d1aa8", "8dd125aee393a5a3", "a0858b4b47e74408",
    ),
    "ssync_blob_300": (
        20, "18a1ba1ea2d4f274", "fedcbba4c5995a6e", "2e26968d2ed752b9",
    ),
    "fsync_ring_24": (
        84, "df0355c3b5583b65", "7aaded3c8c20046b", "75c596656713872a",
    ),
}


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _run(name, config=None):
    cells, options = RUNS[name]
    return simulate(
        list(cells()), strategy="tolerant", config=config,
        record_trajectory=True, **options,
    )


def _series(result):
    return [(m.robots, m.merged) for m in result.metrics.rows]


def _deferred(result):
    return [
        (e.round_index, e.data) for e in result.events.of_kind("move_deferred")
    ]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_incremental_off_is_identical(name):
    on = _run(name)
    off = _run(name, AlgorithmConfig(incremental=False))
    assert on.gathered
    assert _series(on) == _series(off)
    assert _deferred(on) == _deferred(off)
    assert on.trajectory == off.trajectory


@pytest.mark.parametrize("name", sorted(RUNS))
def test_pinned_trajectory(name):
    result = _run(name)
    trajectory = hashlib.sha256()
    for snapshot in result.trajectory:
        trajectory.update(repr(sorted(snapshot)).encode())
    assert (
        result.rounds,
        trajectory.hexdigest()[:16],
        _digest(_series(result)),
        _digest(_deferred(result)),
    ) == PINNED[name]
