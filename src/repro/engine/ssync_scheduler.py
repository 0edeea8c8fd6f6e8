"""SSYNC (semi-synchronous) scheduling with pluggable activation policies.

The paper proves its O(n) gathering bound in the fully synchronous FSYNC
model, where *every* robot executes its look-compute-move cycle in every
round.  The classical scheduler hierarchy of the robots literature
weakens that: in **SSYNC** an adversary activates an arbitrary *subset*
of the robots each round — the activated robots look simultaneously,
compute, and move simultaneously; the others do nothing.  Fairness is
what keeps the adversary honest: under a **k-fairness bound** every
robot is activated at least once in any window of ``k`` consecutive
rounds.

This module is the engine layer of that model (the registry entries
``ssync`` / ``ssync-faulty`` live in :mod:`repro.api`):

* activation policies (:data:`ACTIVATION_POLICIES`) — ``uniform``
  (independent coin with probability ``p`` per robot-round),
  ``round_robin`` (the roster split into ``k`` classes, one class per
  round), ``adversarial`` ("starve the runners": refuse to activate
  the robots currently carrying the algorithm's progress for as long as
  the fairness bound allows) and ``scripted`` (an explicit per-round
  token script — how the nondeterminism explorer's witness schedules
  replay, :mod:`repro.explore`);
* :class:`ActivationSchedule` — policy + k-fairness enforcement + fault
  injection (:class:`repro.engine.faults.FaultInjector`), tracking
  per-robot activation streaks and crash state across token renames
  (merges).  Emits the ``activation`` / ``fault`` events;
* :class:`SsyncEngine` — drives grid-state workloads (``plan_round``
  controllers like the paper's algorithm, or per-robot ``activate``
  controllers like the async greedy baseline) under the schedule, with
  true per-robot identity tracked through moves and merges;
* :func:`drive_stepped_ssync` — the same loop for self-clocked programs
  (Euclidean go-to-center, the chain gatherers) that expose the
  ``ssync_roster`` / ``ssync_step`` surface.

With activation probability 1.0 and no faults every robot is activated
every round, and the engine's step is operation-for-operation the FSYNC
step — trajectories are bit-identical to the ``fsync`` scheduler (the
equivalence suite pins this).

See ``docs/schedulers.md`` for the model semantics and how results
under SSYNC relate to the paper's FSYNC claims.
"""

from __future__ import annotations

import random
from collections.abc import Set as AbstractSet
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.engine.events import EventLog
from repro.engine.faults import BYZANTINE_BEHAVIORS, FaultInjector
from repro.engine.metrics import MetricsLog, RoundMetrics
from repro.engine.scheduler import (
    GatherResult,
    components_after_round,
    require_connected,
)
from repro.engine.termination import default_round_budget, is_gathered
from repro.grid.boundary import outer_boundary
# components_after_round runs the per-round check; the two names it
# uses stay importable here for tracers that wrap this lookup site.
from repro.grid.connectivity import (  # noqa: F401
    connected_components,
    is_connected,
    locally_connected_after,
)
from repro.grid.envelope import enclosed_area
from repro.grid.geometry import Cell, chebyshev
from repro.grid.occupancy import SwarmState


# ----------------------------------------------------------------------
# Activation policies
# ----------------------------------------------------------------------
class UniformActivation:
    """Independent coin per robot-round: active with probability ``p``.

    ``p = 1.0`` short-circuits to "everyone" without consuming RNG
    values, so a fully-activated run is bit-identical regardless of
    seed — the FSYNC-equivalence anchor.
    """

    key = "uniform"

    def __init__(self, p: float = 0.5, seed: int = 0) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError(
                f"activation probability must be in [0, 1], got {p!r}"
            )
        self.p = float(p)
        self.rng = random.Random(seed)

    def select(
        self,
        round_index: int,
        alive: Sequence[Any],
        hints: FrozenSet[Any],
    ) -> Set[Any]:
        if self.p >= 1.0:
            return set(alive)
        p = self.p
        draw = self.rng.random
        return {token for token in alive if draw() < p}


class RoundRobinActivation:
    """The roster split into ``k`` classes by canonical index; round
    ``r`` activates class ``r mod k``.  Deterministic and k-fair by
    construction (a robot's class index can drift as merges compact the
    roster, but each round activates ~1/k of the swarm regardless)."""

    key = "round_robin"

    def __init__(self, k: int = 3, seed: int = 0) -> None:
        if k < 1:
            raise ValueError(f"round_robin class count must be >= 1, got {k}")
        self.k = int(k)

    def select(
        self,
        round_index: int,
        alive: Sequence[Any],
        hints: FrozenSet[Any],
    ) -> Set[Any]:
        r = round_index % self.k
        return {t for i, t in enumerate(alive) if i % self.k == r}


class AdversarialActivation:
    """"Starve the runners": activate everyone *except* the robots the
    driver hints are carrying progress (the grid strategy's runner
    robots; for programs without that concept, the robots that moved
    last round, and failing that a fixed half of the roster).  The
    k-fairness enforcement in :class:`ActivationSchedule` is what
    eventually forces the starved robots awake — this policy probes
    exactly how much the algorithm's progress argument leans on them."""

    key = "adversarial"

    def __init__(self, seed: int = 0) -> None:
        pass

    def select(
        self,
        round_index: int,
        alive: Sequence[Any],
        hints: FrozenSet[Any],
    ) -> Set[Any]:
        starved = set(hints) & set(alive)
        if not starved:
            starved = set(alive[: (len(alive) + 1) // 2])
        active = set(alive) - starved
        return active if active else set(alive)


class ScriptedActivation:
    """An explicit per-round activation script over robot tokens.

    ``schedule[r]`` is the token set to activate in round ``r``; rounds
    past the script's end activate everyone (an FSYNC tail, so a replay
    that outlives its script degrades to the safe model instead of
    stalling).  Tokens of robots that merged away are ignored — the
    schedule keeps intersecting the live roster exactly like every
    other policy's selection.

    This is how the nondeterminism explorer's witness schedules
    (:mod:`repro.explore`) replay through the stock engine: the
    explorer emits the per-round token sets it branched on, and this
    policy feeds them back verbatim.  Deterministic; the seed is
    accepted for registry uniformity and unused.
    """

    key = "scripted"

    def __init__(self, schedule: Sequence = (), seed: int = 0) -> None:
        self.rounds: List[FrozenSet[int]] = [
            frozenset(int(t) for t in entry) for entry in schedule
        ]

    def select(
        self,
        round_index: int,
        alive: Sequence[Any],
        hints: FrozenSet[Any],
    ) -> Set[Any]:
        if round_index < len(self.rounds):
            return set(self.rounds[round_index])
        return set(alive)


ACTIVATION_POLICIES: Dict[str, type] = {
    UniformActivation.key: UniformActivation,
    RoundRobinActivation.key: RoundRobinActivation,
    AdversarialActivation.key: AdversarialActivation,
    ScriptedActivation.key: ScriptedActivation,
}


def make_policy(
    name: str,
    *,
    p: float = 0.5,
    k: int = 3,
    seed: int = 0,
    schedule: Optional[Sequence] = None,
):
    """Build an activation policy from its registry key.

    ``p`` parameterizes ``uniform``, ``k`` parameterizes ``round_robin``,
    ``schedule`` parameterizes ``scripted`` (and is required for it);
    the seed feeds stochastic policies only.
    """
    if name == UniformActivation.key:
        return UniformActivation(p, seed)
    if name == RoundRobinActivation.key:
        return RoundRobinActivation(k, seed)
    if name == AdversarialActivation.key:
        return AdversarialActivation(seed)
    if name == ScriptedActivation.key:
        if schedule is None:
            raise ValueError(
                "the 'scripted' policy needs an explicit schedule "
                "(per-round token lists)"
            )
        return ScriptedActivation(schedule, seed)
    raise KeyError(
        f"unknown activation policy {name!r}; "
        f"available: {sorted(ACTIVATION_POLICIES)}"
    )


# ----------------------------------------------------------------------
# The schedule: policy + k-fairness + faults over robot tokens
# ----------------------------------------------------------------------
class ActivationSchedule:
    """Per-round activation decisions over stable robot tokens.

    Drivers identify robots by *tokens* (integer ids for the grid
    engine, array indices for the Euclidean program, node ids for the
    chains); the schedule tracks, per token, the number of consecutive
    rounds since the last activation (the *streak*) and the crash state,
    migrating both through the token renames that merges cause.

    Per round the driver calls :meth:`select` (decide who acts, emit
    ``activation``/``fault`` events) and, after applying the round,
    :meth:`commit` (advance streaks, migrate tokens).

    k-fairness: any robot whose streak reaches ``k_fairness - 1`` is
    force-activated, so no fault-free robot ever sleeps ``k_fairness``
    consecutive rounds.  Faults trump fairness — a robot hit by a sleep
    fault misses its round even if it was forced (the bound holds for
    the fault-free schedule; see docs/schedulers.md).
    """

    def __init__(
        self,
        policy: Any,
        k_fairness: int,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        if k_fairness < 1:
            raise ValueError(
                f"k_fairness must be >= 1, got {k_fairness}"
            )
        self.policy = policy
        self.k_fairness = int(k_fairness)
        self.faults = faults
        #: EventLog the driver wires in before the first round.
        self.events: EventLog = EventLog()
        #: Optional token -> extra-event-fields hook (the grid engine
        #: uses it to stamp crash events with the robot's cell).
        self.token_info: Optional[Callable[[Any], Dict[str, Any]]] = None
        # Streaks are stored as epochs: ``streak = _epoch - _base[token]``,
        # so a commit ages every robot at once by bumping ``_epoch`` and
        # only rewrites the active, merged and pruned tokens.
        self._epoch = 0
        self._base: Dict[Any, int] = {}
        self._crashed: Set[Any] = set()

    @property
    def crashed(self) -> FrozenSet[Any]:
        """Tokens of crash-stopped robots (read-only view)."""
        return frozenset(self._crashed)

    def streak_of(self, token: Any) -> int:
        """Rounds since ``token`` was last activated (0 if just active)."""
        base = self._base.get(token)
        return 0 if base is None else self._epoch - base

    def select(
        self,
        round_index: int,
        roster: Sequence[Any],
        hints: FrozenSet[Any] = frozenset(),
    ) -> Set[Any]:
        """Pick this round's activation set from the full ``roster``."""
        base = self._base
        epoch = self._epoch
        alive = (
            [t for t in roster if t not in self._crashed]
            if self._crashed
            else roster
        )
        alive_set = set(alive)
        if not base.keys() >= alive_set:
            for t in alive:
                base.setdefault(t, epoch)
        chosen = self.policy.select(round_index, alive, hints)
        # Forced: streak >= k - 1, i.e. base <= threshold.  The scan is
        # skipped when even the oldest base is too recent (a crashed
        # robot ages forever, so after a crash it always runs).
        threshold = epoch - (self.k_fairness - 1)
        if min(base.values(), default=threshold) <= threshold:
            forced = {
                t
                for t in alive
                if base[t] <= threshold and t not in chosen
            }
        else:
            forced = set()
        active = (chosen & alive_set) | forced
        if self.faults is not None:
            sleeping, crashed_now = self.faults.draw(round_index, alive)
            for t in sorted(crashed_now):
                self._crashed.add(t)
                info = self.token_info(t) if self.token_info else {}
                self.events.emit(
                    round_index, "fault", fault="crash", robot=t, **info
                )
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

    def commit(
        self,
        active: Set[Any],
        *,
        remap: Optional[Mapping[Any, Any]] = None,
        survivors: Optional[Iterable[Any]] = None,
    ) -> None:
        """Advance streaks after a round was applied.

        ``remap`` renames tokens (merge victims map to their surviving
        token; colliding streaks keep the minimum, and a crashed
        constituent makes the survivor crashed — a composite containing
        a crash-stopped robot cannot move).  ``survivors`` prunes
        bookkeeping to the tokens still alive.

        O(active + merged + crashed) Python work; only the survivor
        pruning is O(n), as one C-level set difference.
        """
        base = self._base
        self._epoch = epoch = self._epoch + 1
        for t in active:
            if t in base:
                base[t] = epoch
        if remap:
            # All renamed tokens leave first, so a token that is both a
            # rename source and a rename target keeps only what lands.
            landed = [
                (nt, base.pop(t)) for t, nt in remap.items() if t in base
            ]
            for nt, b in landed:
                if b > base.get(nt, b - 1):  # max base = min streak
                    base[nt] = b
            hit = self._crashed.intersection(remap)
            if hit:
                self._crashed -= hit
                self._crashed |= {remap[t] for t in hit}
        if survivors is not None:
            if not isinstance(survivors, AbstractSet):
                survivors = set(survivors)
            for t in base.keys() - survivors:
                del base[t]
            if self._crashed:
                self._crashed = {t for t in self._crashed if t in survivors}


# ----------------------------------------------------------------------
# Robot identity through moves and merges
# ----------------------------------------------------------------------
def migrate_tokens(
    cell_of: Dict[int, Cell],
    id_at: Dict[Cell, int],
    moves: Mapping[Cell, Cell],
) -> Tuple[Dict[int, int], Dict[int, Cell]]:
    """Follow every robot through one round's applied ``moves``,
    updating the token maps ``cell_of`` (token -> cell) and ``id_at``
    (cell -> token) in place in O(|moves|).

    Every source gives up its token first, so chains and swaps need no
    ordering.  The tokens landing on one target then merge with any
    robot that stood still there; the smallest token survives.  Returns
    ``(remap, moved_from)``: ``remap`` maps each merged-away token to
    its survivor, ``moved_from`` maps each surviving token that moved to
    the cell it left.  Tokens that did not move keep their entries (and
    their place in ``cell_of``'s order, which stays ascending).
    """
    landing: Dict[Cell, List[int]] = {}
    source: Dict[int, Cell] = {}
    for src, dst in moves.items():
        token = id_at.pop(src)
        source[token] = src
        landing.setdefault(dst, []).append(token)
    remap: Dict[int, int] = {}
    moved_from: Dict[int, Cell] = {}
    for dst, tokens in landing.items():
        stayed = id_at.get(dst)
        if stayed is not None:
            tokens.append(stayed)
        survivor = min(tokens)
        for token in tokens:
            if token != survivor:
                remap[token] = survivor
                del cell_of[token]
        id_at[dst] = survivor
        cell_of[survivor] = dst
        if survivor != stayed:
            moved_from[survivor] = source[survivor]
    return remap, moved_from


# ----------------------------------------------------------------------
# The SSYNC engine for grid-state workloads
# ----------------------------------------------------------------------
class SsyncEngine:
    """Drives a grid controller over a :class:`SwarmState` under an
    :class:`ActivationSchedule`.

    Accepts both controller shapes the repo has: ``plan_round``
    controllers (the paper's :class:`~repro.core.algorithm.GatherOnGrid`,
    the global-vision baseline) — the round's plan is computed as usual
    and the moves of non-activated robots are dropped — and per-robot
    ``activate`` controllers (the async greedy baseline) — every
    activated robot computes its target against the round's *snapshot*,
    then all moves apply simultaneously (the SSYNC reading of a rule
    designed for sequential activation).

    Robot identity: integer tokens assigned over the sorted initial
    cells and followed through every move by :func:`migrate_tokens`;
    merge groups keep the smallest token.  This is what crash-stop
    faults and the k-fairness streaks attach to.

    The connectivity check and metrics mirror
    :class:`repro.engine.scheduler.FsyncEngine` exactly, so a schedule
    that activates everyone reproduces FSYNC bit-for-bit.  One deliberate
    difference: under partial activation the paper's algorithm may
    genuinely break connectivity — its safety argument assumes FSYNC
    simultaneity — and under an *adversarial* scheduler that is an
    expected experimental outcome, not a simulation bug.  The engine
    therefore does not raise: it emits a ``connectivity_violation``
    event, stops the run, and terminates the result with a
    ``connectivity_lost`` event (``gathered=False``).  Pass
    ``check_connectivity=False`` to measure degradation past the
    breakage point instead.
    """

    def __init__(
        self,
        state: SwarmState,
        controller: Any,
        schedule: ActivationSchedule,
        *,
        check_connectivity: bool = True,
        incremental_connectivity: bool = True,
        track_boundary: bool = False,
        gather_square: int = 2,
        on_round: Optional[Callable[[int, SwarmState], None]] = None,
    ) -> None:
        if len(state) == 0:
            raise ValueError("cannot simulate an empty swarm")
        require_connected(state)
        self.state = state
        self.controller = controller
        self.schedule = schedule
        self.check_connectivity = check_connectivity
        self.incremental_connectivity = incremental_connectivity
        self.track_boundary = track_boundary
        self.gather_square = gather_square
        self.on_round = on_round
        self.metrics = MetricsLog()
        # Same shared-log adoption as FsyncEngine: controller events and
        # the schedule's activation/fault events land in one place.
        ctrl_events = getattr(controller, "events", None)
        self.events = (
            ctrl_events if isinstance(ctrl_events, EventLog) else EventLog()
        )
        schedule.events = self.events
        schedule.token_info = self._token_info
        cells = sorted(state.cells)
        self._cell_of: Dict[int, Cell] = dict(enumerate(cells))
        self._id_at: Dict[Cell, int] = {c: i for i, c in enumerate(cells)}
        self._moved_last: Set[Cell] = set()
        #: Position each token that moved last round held before it —
        #: what a byzantine "stale" robot reports to every observer (a
        #: token absent here stood still).
        self._prev_cell_of: Dict[int, Cell] = {}
        self.round_index = 0
        self.activations = 0
        #: Total byzantine misbehaviors drawn (one per alive byzantine
        #: robot per round); surfaces as ``RunResult.byzantine_actions``.
        self.byzantine_actions = 0
        #: Set when the connectivity check trips; ends the run with a
        #: ``connectivity_lost`` terminal event instead of raising.
        self.connectivity_lost = False
        self._terminal_version: Optional[int] = None

    # ------------------------------------------------------------------
    def _token_info(self, token: int) -> Dict[str, Any]:
        cell = self._cell_of.get(token)
        return {"cell": cell} if cell is not None else {}

    def _hints(self) -> FrozenSet[int]:
        """Progress-carrier tokens for the adversarial policy: the grid
        algorithm's runner robots when the controller exposes a run
        manager, else whoever moved last round."""
        run_manager = getattr(self.controller, "run_manager", None)
        if run_manager is not None:
            cells = {run.robot for run in run_manager.runs.values()}
        else:
            cells = self._moved_last
        id_at = self._id_at
        return frozenset(id_at[c] for c in cells if c in id_at)

    def _byzantine_behaviors(self, r: int, roster) -> Dict[int, str]:
        """This round's misbehavior per alive byzantine token (crash
        trumps byzantine: a crashed robot stops acting, period)."""
        faults = self.schedule.faults
        if faults is None or faults.byzantine_rate <= 0.0:
            return {}
        crashed = self.schedule.crashed
        return {
            token: faults.byzantine_behavior(r, token)
            for token in roster
            if token not in crashed and faults.is_byzantine(token)
        }

    def _perceived_state(
        self, byz_behaviors: Dict[int, str]
    ) -> SwarmState:
        """The state honest robots observe: each ``stale`` byzantine
        robot is substituted back to its previous-round cell, in token
        order, skipping any lie that is vacuous (it has not moved),
        collides with a real robot, or would make the *perceived* swarm
        disconnected — a visibly teleporting or detached robot would be
        an illegal observation, not an adversarial one."""
        occupied_view = set(self.state.cells)
        substitutions: Dict[Cell, Cell] = {}
        for token in sorted(byz_behaviors):
            if byz_behaviors[token] != "stale":
                continue
            cur = self._cell_of[token]
            prev = self._prev_cell_of.get(token, cur)
            if prev == cur or prev in occupied_view:
                continue
            trial = (occupied_view - {cur}) | {prev}
            if not is_connected(trial):
                continue
            occupied_view = trial
            substitutions[cur] = prev
        if not substitutions:
            return self.state
        perceived = self.state.copy()
        perceived.apply_moves(substitutions)
        return perceived

    # ------------------------------------------------------------------
    def step(self) -> int:
        """Execute one SSYNC round; returns the number of merged robots."""
        state = self.state
        r = self.round_index
        roster = sorted(self._cell_of)
        active = self.schedule.select(r, roster, hints=self._hints())
        self.activations += len(active)

        byz_behaviors = self._byzantine_behaviors(r, roster)
        perceived = (
            self._perceived_state(byz_behaviors) if byz_behaviors else state
        )
        byz_cells = {self._cell_of[t] for t in byz_behaviors}

        controller = self.controller
        if hasattr(controller, "plan_round"):
            planned = controller.plan_round(perceived, r)
            id_at = self._id_at
            moves: Dict[Cell, Cell] = {
                src: dst
                for src, dst in planned.items()
                if id_at.get(src) in active and src not in byz_cells
            }
        else:
            moves = {}
            for i in sorted(active):
                if i in byz_behaviors:
                    continue
                robot = self._cell_of[i]
                target = controller.activate(perceived, robot)
                if target == robot:
                    continue
                if chebyshev(robot, target) > 1:
                    raise ValueError(
                        f"illegal ssync move {robot} -> {target}"
                    )
                moves[robot] = target
        if byz_behaviors:
            # A byzantine robot never follows the plan: ``stale`` and
            # ``dead`` robots stand still (their planned moves were
            # withheld above); an activated ``offplan`` robot hops to a
            # seeded king-move neighbor of its own choosing.
            faults = self.schedule.faults
            for token in sorted(byz_behaviors):
                if byz_behaviors[token] != "offplan" or token not in active:
                    continue
                cur = self._cell_of[token]
                dx, dy = faults.byzantine_offset(r, token)
                moves[cur] = (cur[0] + dx, cur[1] + dy)
            self.byzantine_actions += len(byz_behaviors)
            for behavior in BYZANTINE_BEHAVIORS:
                robots = sorted(
                    t for t, b in byz_behaviors.items() if b == behavior
                )
                if robots:
                    self.events.emit(
                        r, "byzantine", behavior=behavior, robots=robots
                    )
        merged = state.apply_moves(moves)
        if hasattr(controller, "notify_applied"):
            controller.notify_applied(state, r, moves, merged)

        if self.check_connectivity:
            # Same check as FsyncEngine.step — but a violation ends the
            # run as a measured outcome rather than raising; under an
            # adversarial scheduler, breaking the algorithm's FSYNC
            # safety argument is the experiment.
            comps = components_after_round(
                state, self.incremental_connectivity
            )
            if comps > 1:
                self.connectivity_lost = True
                self.events.emit(
                    r, "connectivity_violation", components=comps
                )

        remap, self._prev_cell_of = migrate_tokens(
            self._cell_of, self._id_at, moves
        )
        self.schedule.commit(
            active, remap=remap, survivors=self._cell_of.keys()
        )
        self._moved_last = set(moves.values())

        boundary_len: Optional[int] = None
        area: Optional[float] = None
        if self.track_boundary:
            ob = outer_boundary(state)
            boundary_len = len(ob.sides)
            area = enclosed_area(ob)
        self.metrics.record(
            RoundMetrics(
                round_index=r,
                robots=len(state),
                merged=merged,
                diameter=state.diameter_chebyshev(),
                boundary_length=boundary_len,
                enclosed_area=area,
                active_runs=getattr(controller, "active_run_count", None),
            )
        )
        if self.on_round is not None:
            self.on_round(r, state)
        self.round_index += 1
        return merged

    def run(self, max_rounds: Optional[int] = None) -> GatherResult:
        """Run until gathered or the round budget is exhausted (same
        budget and terminal-event conventions as the FSYNC engine)."""
        n0 = len(self.state)
        budget = (
            max_rounds
            if max_rounds is not None
            else default_round_budget(n0)
        )
        gathered = is_gathered(self.state, self.gather_square)
        while (
            not gathered
            and not self.connectivity_lost
            and self.round_index < budget
        ):
            self.step()
            gathered = is_gathered(self.state, self.gather_square)
        if gathered:
            terminal = "gathered"
        elif self.connectivity_lost:
            terminal = "connectivity_lost"
        else:
            terminal = "budget_exhausted"
        if self.state.version != self._terminal_version:
            self.events.emit(
                self.round_index,
                terminal,
                rounds=self.round_index,
                robots=len(self.state),
            )
            self._terminal_version = self.state.version
        return GatherResult(
            gathered=gathered,
            rounds=self.round_index,
            robots_initial=n0,
            robots_final=len(self.state),
            metrics=self.metrics,
            events=self.events,
            final_state=self.state,
        )


# ----------------------------------------------------------------------
# SSYNC over self-clocked programs (Euclidean, chains)
# ----------------------------------------------------------------------
def drive_stepped_ssync(
    program: Any,
    schedule: ActivationSchedule,
    ctx: Any,
    scheduler_key: str,
):
    """Drive an :class:`~repro.engine.protocols.SsyncSteppable` program
    (Euclidean go-to-center, the chain gatherers) under the schedule.

    Mirrors the FSYNC adapter's stepped loop, but each round asks the
    program for its roster of stable robot tokens, selects the activated
    subset, and hands it to ``ssync_step``.  Returns a facade
    ``RunResult`` (imported lazily to keep the engine layer free of the
    registry module at import time).
    """
    from repro.engine.protocols import RunResult

    metrics = MetricsLog()
    events = EventLog()
    schedule.events = events
    budget = (
        ctx.max_rounds
        if ctx.max_rounds is not None
        else program.default_budget()
    )
    rounds = 0
    activations = 0
    done = program.done()
    # Adversarial-policy hints: stepped programs have no run manager, so
    # the progress carriers are "whoever moved last round", computed from
    # the per-token positions (roster order matches view() order for
    # every stepped program).
    moved_last: frozenset = frozenset()
    while not done and rounds < budget:
        roster = list(program.ssync_roster())
        positions = dict(zip(roster, program.view().cells))
        active = schedule.select(rounds, roster, hints=moved_last)
        activations += len(active)
        remap = program.ssync_step(rounds, active, metrics, events)
        after = list(program.ssync_roster())
        after_positions = dict(zip(after, program.view().cells))
        moved_last = frozenset(
            t
            for t in after
            if t not in positions or positions[t] != after_positions[t]
        )
        schedule.commit(active, remap=remap, survivors=after)
        if ctx.on_round is not None:
            ctx.on_round(rounds, program.view())
        rounds += 1
        done = program.done()
    fields = program.result_fields()
    robots_final = fields.pop("robots_final")
    final_state = fields.pop("final_state")
    events.emit(
        rounds,
        "gathered" if done else "budget_exhausted",
        rounds=rounds,
        robots=robots_final,
    )
    return RunResult(
        strategy="",
        scheduler=scheduler_key,
        gathered=done,
        rounds=rounds,
        robots_initial=program.robots_initial,
        robots_final=robots_final,
        metrics=metrics,
        events=events,
        final_state=final_state,
        activations=activations,
        extras=fields,
    )
