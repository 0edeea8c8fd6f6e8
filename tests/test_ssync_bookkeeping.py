"""The SSYNC engines' per-round bookkeeping against its old full rebuild.

:class:`~repro.engine.ssync_scheduler.ActivationSchedule` keeps fairness
streaks as epochs and :func:`~repro.engine.ssync_scheduler.migrate_tokens`
follows robots through a round in place; both used to rebuild their
tables from scratch every round.  Test-local copies of those rebuilds
are the references here, driven side by side with the incremental code
over seeded random rounds.  The last part checks the engines'
connectivity stamp (``SwarmState.connected_version``): set only by a
passing check, absent from copies, and the tolerant filter's full BFS
still runs wherever no stamp applies.
"""

from __future__ import annotations

import random

import pytest

from repro.api import Scenario, simulate
from repro.core import tolerant
from repro.engine.events import EventLog
from repro.engine.faults import FaultInjector
from repro.engine.ssync_scheduler import (
    ActivationSchedule,
    SsyncEngine,
    UniformActivation,
    migrate_tokens,
)
from repro.grid.geometry import neighbors8
from repro.grid.occupancy import SwarmState
from repro.swarms import generators


# ----------------------------------------------------------------------
# Test-local references: the per-round rebuilds the engines used to do
# ----------------------------------------------------------------------
class ReferenceSchedule:
    """``ActivationSchedule``'s select/commit with a plain streak dict,
    rebuilt on every commit."""

    def __init__(self, policy, k_fairness, faults=None):
        self.policy = policy
        self.k_fairness = k_fairness
        self.faults = faults
        self.events = EventLog()
        self._streak = {}
        self._crashed = set()

    @property
    def crashed(self):
        return frozenset(self._crashed)

    def streak_of(self, token):
        return self._streak.get(token, 0)

    def select(self, round_index, roster, hints=frozenset()):
        streak = self._streak
        alive = [t for t in roster if t not in self._crashed]
        for t in alive:
            streak.setdefault(t, 0)
        chosen = self.policy.select(round_index, alive, hints)
        forced = {
            t
            for t in alive
            if streak[t] >= self.k_fairness - 1 and t not in chosen
        }
        active = (chosen & set(alive)) | forced
        if self.faults is not None:
            sleeping, crashed_now = self.faults.draw(round_index, alive)
            for t in sorted(crashed_now):
                self._crashed.add(t)
                self.events.emit(round_index, "fault", fault="crash", robot=t)
            slept = sorted((sleeping - crashed_now) & active)
            if slept:
                self.events.emit(
                    round_index, "fault", fault="sleep", robots=slept
                )
            active -= sleeping | crashed_now
        self.events.emit(
            round_index,
            "activation",
            active=len(active),
            asleep=len(alive) - len(active),
            forced=sorted(forced & active),
        )
        return active

    def commit(self, active, *, remap=None, survivors=None):
        new_streak = {}
        for t, s in self._streak.items():
            nt = remap.get(t, t) if remap else t
            ns = 0 if t in active else s + 1
            if nt in new_streak:
                new_streak[nt] = min(new_streak[nt], ns)
            else:
                new_streak[nt] = ns
        new_crashed = {
            (remap.get(t, t) if remap else t) for t in self._crashed
        }
        if survivors is not None:
            alive = set(survivors)
            new_streak = {t: s for t, s in new_streak.items() if t in alive}
            new_crashed &= alive
        self._streak = new_streak
        self._crashed = new_crashed


def reference_migrate(cell_of, moves):
    """The old token migration: regroup every token by its new cell.
    Returns ``(new_cell_of, remap, prev_cell_of)``."""
    groups = {}
    for token, cell in cell_of.items():
        groups.setdefault(moves.get(cell, cell), []).append(token)
    remap = {}
    new_cell_of = {}
    for cell, tokens in groups.items():
        tokens.sort()
        survivor = tokens[0]
        new_cell_of[survivor] = cell
        for other in tokens[1:]:
            remap[other] = survivor
    prev = {t: cell_of[t] for t in new_cell_of}
    return new_cell_of, remap, prev


# ----------------------------------------------------------------------
# ActivationSchedule vs its reference
# ----------------------------------------------------------------------
def _events(log):
    return [(e.round_index, e.kind, dict(e.data)) for e in log]


def _random_remap(rng, roster, crashed):
    """Merge groups over ``roster``: victims map to a survivor, mixing
    active and inactive tokens, crashed constituents, and sometimes a
    chain (a victim that is itself another group's survivor) or a
    token the schedule never saw."""
    remap = {}
    pool = list(roster)
    rng.shuffle(pool)
    while len(pool) >= 2 and rng.random() < 0.6:
        size = rng.randint(2, min(4, len(pool)))
        group, pool = pool[:size], pool[size:]
        survivor = min(group) if rng.random() < 0.8 else rng.choice(group)
        for t in group:
            if t != survivor:
                remap[t] = survivor
    if crashed and rng.random() < 0.3:
        victim = rng.choice(sorted(crashed))
        if victim not in remap and roster:
            remap[victim] = rng.choice(roster)
    if remap and rng.random() < 0.1:  # a chain a -> b -> c
        _, b = rng.choice(sorted(remap.items()))
        if b not in remap:
            remap[b] = 10_000 + b
    if rng.random() < 0.1:  # unknown token
        remap[5_000 + rng.randrange(100)] = rng.choice(roster or [0])
    return remap


@pytest.mark.parametrize("seed", range(40))
def test_schedule_matches_reference(seed):
    rng = random.Random(f"schedule-{seed}")
    n = rng.randint(1, 30)
    k = rng.randint(1, 5)
    p = rng.choice([0.0, 0.2, 0.5, 0.9, 1.0])
    crash = rng.choice([0.0, 0.02, 0.1])
    sleep = rng.choice([0.0, 0.1])

    def make(cls):
        faults = FaultInjector(sleep, crash, seed=seed)
        return cls(
            UniformActivation(p, seed),
            k,
            faults if faults.enabled else None,
        )

    new, ref = make(ActivationSchedule), make(ReferenceSchedule)
    roster = list(range(n))
    seen = set(roster)
    next_token = n
    for r in range(40):
        if rng.random() < 0.15:  # a token missing from the streak table
            roster = sorted([*roster, next_token])
            seen.add(next_token)
            next_token += 1
        hints = frozenset(t for t in roster if rng.random() < 0.2)
        active = new.select(r, roster, hints)
        assert active == ref.select(r, roster, hints)
        if rng.random() < 0.1:  # commit with tokens outside the table
            active = active | {7_000 + r}
        remap = _random_remap(rng, roster, ref.crashed)
        survivors = [t for t in roster if t not in remap]
        if rng.random() < 0.2:  # survivor pruning beyond the merges
            survivors = [t for t in survivors if rng.random() < 0.8]
        shape = rng.choice(["list", "keys", "none"])
        if shape == "keys":
            survivors = dict.fromkeys(survivors).keys()
        elif shape == "none":
            survivors = None
        if rng.random() < 0.1:
            remap = None
        new.commit(active, remap=remap, survivors=survivors)
        ref.commit(active, remap=remap, survivors=survivors)
        if remap:
            seen |= set(remap.values())
        if survivors is not None:
            roster = sorted(survivors)
        elif remap:
            roster = sorted(set(roster) - set(remap))
        for t in sorted(seen | set(active)):
            assert new.streak_of(t) == ref.streak_of(t), (r, t)
        assert new.crashed == ref.crashed
    assert _events(new.events) == _events(ref.events)


# ----------------------------------------------------------------------
# migrate_tokens vs its reference
# ----------------------------------------------------------------------
def _random_moves(rng, cells):
    """Hops out of ``cells``: plain moves, chains onto another move's
    source, swaps, and multi-way merges onto a stationary robot."""
    occupied = set(cells)
    cells = sorted(cells)
    moves = {}
    for src in cells:
        roll = rng.random()
        if roll < 0.4:
            moves[src] = rng.choice(neighbors8(src))
        elif roll < 0.5:
            moves[src] = src
    if len(cells) >= 2 and rng.random() < 0.5:  # a swap
        a = rng.choice(cells)
        b = next((c for c in neighbors8(a) if c in occupied), None)
        if b is not None:
            moves[a], moves[b] = b, a
    if rng.random() < 0.5:  # several robots onto one stationary robot
        hub = rng.choice(cells)
        moves.pop(hub, None)
        for nb in neighbors8(hub):
            if nb in occupied and rng.random() < 0.7:
                moves[nb] = hub
    if moves and rng.random() < 0.5:  # a chain onto another's source
        src = rng.choice(sorted(moves))
        for nb in neighbors8(src):
            if nb in occupied and nb not in moves:
                moves[nb] = src
                break
    return moves


@pytest.mark.parametrize("seed", range(300))
def test_migrate_tokens_matches_reference(seed):
    rng = random.Random(f"migrate-{seed}")
    n = rng.randint(1, 40)
    if rng.random() < 0.5:
        cells = set(generators.random_blob(n, rng.randrange(1000)))
    else:
        cells = {(rng.randrange(8), rng.randrange(8)) for _ in range(n)}
    # tokens in ascending order, as the engines assign them, after some
    # earlier merges left gaps
    tokens = sorted(rng.sample(range(3 * len(cells)), len(cells)))
    cell_of = dict(zip(tokens, rng.sample(sorted(cells), len(cells))))
    cell_of = dict(sorted(cell_of.items()))
    id_at = {c: t for t, c in cell_of.items()}
    moves = _random_moves(rng, cells)
    expected_cell_of, expected_remap, prev = reference_migrate(
        cell_of, moves
    )

    remap, moved_from = migrate_tokens(cell_of, id_at, moves)

    assert cell_of == expected_cell_of
    assert list(cell_of) == sorted(cell_of)
    assert id_at == {c: t for t, c in expected_cell_of.items()}
    assert remap == expected_remap
    assert set(moved_from) <= set(cell_of)
    for token, cell in cell_of.items():
        assert moved_from.get(token, cell) == prev[token]
    state = SwarmState(cells)
    state.apply_moves(moves)
    assert set(id_at) == state.cells


# ----------------------------------------------------------------------
# The connectivity stamp
# ----------------------------------------------------------------------
def _stamps(**options):
    """``(version, connected_version)`` after every round of a run."""
    seen = []
    result = simulate(
        on_round=lambda i, s: seen.append((s.version, s.connected_version)),
        **options,
    )
    return result, seen


def test_fresh_and_copied_states_are_unstamped():
    state = SwarmState([(0, 0), (1, 0)])
    assert state.connected_version == -1
    state.connected_version = state.version
    assert state.copy().connected_version == -1
    assert SwarmState.from_validated({(0, 0)}).connected_version == -1
    state.apply_moves({(1, 0): (1, 1)})
    assert state.connected_version != state.version


@pytest.mark.parametrize("scheduler", ["fsync", "ssync", "async-lcm"])
def test_checked_rounds_are_stamped(scheduler):
    options = {} if scheduler == "fsync" else {"activation_p": 0.8}
    result, seen = _stamps(
        scenario=Scenario(family="ring", n=24),
        strategy="tolerant",
        scheduler=scheduler,
        seed=1,
        **options,
    )
    assert result.gathered
    assert seen and all(v == c for v, c in seen)


def test_violation_round_is_not_stamped():
    result, seen = _stamps(
        scenario=Scenario(family="ring", n=28),
        scheduler="ssync",
        activation_p=0.5,
        seed=1,
    )
    (violation,) = result.events.of_kind("connectivity_violation")
    assert len(seen) == violation.round_index + 1
    assert all(v == c for v, c in seen[:-1])
    version, stamp = seen[-1]
    assert stamp != version


def test_unchecked_rounds_are_not_stamped():
    _, seen = _stamps(
        scenario=Scenario(family="ring", n=24),
        strategy="tolerant",
        scheduler="ssync",
        activation_p=0.8,
        seed=1,
        check_connectivity=False,
    )
    assert seen and all(v != c for v, c in seen)


def test_byzantine_perceived_copy_is_unstamped():
    state = SwarmState([(0, 0), (1, 0), (2, 0)])
    engine = SsyncEngine(
        state,
        tolerant.TolerantGatherOnGrid(),
        ActivationSchedule(UniformActivation(1.0), 3),
    )
    assert state.connected_version == state.version
    # token 2 (at (2, 0)) lies that it still stands at (1, 1)
    engine._prev_cell_of = {2: (1, 1)}
    perceived = engine._perceived_state({2: "stale"})
    assert perceived is not state
    assert perceived.cells == {(0, 0), (1, 0), (1, 1)}
    assert perceived.connected_version == -1


@pytest.fixture
def bfs_calls(monkeypatch):
    """Counts the tolerant filter's full-occupancy BFS calls."""
    calls = []
    original = tolerant.is_connected

    def counting(cells):
        calls.append(len(cells))
        return original(cells)

    monkeypatch.setattr(tolerant, "is_connected", counting)
    return calls


def _tolerant_run(**options):
    return simulate(
        Scenario(family="ring", n=24),
        strategy="tolerant",
        scheduler="ssync",
        activation_p=0.8,
        seed=1,
        max_rounds=400,
        **options,
    )


def test_filter_skips_its_bfs_on_stamped_states(bfs_calls):
    assert _tolerant_run().gathered
    assert bfs_calls == []


def test_filter_runs_its_bfs_without_a_stamp(bfs_calls):
    _tolerant_run(check_connectivity=False)
    assert bfs_calls


def test_filter_runs_its_bfs_on_byzantine_copies(bfs_calls, monkeypatch):
    # Checked rounds stamp the real state, so every BFS comes from a
    # stale robot's perceived copy.
    copies = []
    original = SsyncEngine._perceived_state

    def perceived_state(self, behaviors):
        out = original(self, behaviors)
        if out is not self.state:
            copies.append(out)
        return out

    monkeypatch.setattr(SsyncEngine, "_perceived_state", perceived_state)
    simulate(
        Scenario(family="ring", n=40),
        strategy="tolerant",
        scheduler="ssync",
        byzantine_rate=0.1,
        activation_p=0.7,
        seed=5,
    )
    assert copies
    assert all(c.connected_version == -1 for c in copies)
    assert 0 < len(bfs_calls) <= len(copies)


def test_explorer_planning_states_are_unstamped(monkeypatch):
    from repro.explore import explore

    hints = []
    original = tolerant.certified_subset

    def recording(occupied, planned, incremental=True, connected=False):
        hints.append(connected)
        return original(occupied, planned, incremental, connected)

    monkeypatch.setattr(tolerant, "certified_subset", recording)
    explore([(0, 0), (0, 1), (0, 2), (1, 0)], strategy="tolerant")
    assert hints and not any(hints)
