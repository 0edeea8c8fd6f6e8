"""Genuinely non-atomic ASYNC: look, compute, and move decouple.

The ``async`` scheduler in this repo is the *fair sequential* reading of
ASYNC — one robot per step, but each cycle is still atomic.  The
literature's stronger ASYNC adversary breaks the cycle itself: a robot
may *look* at a stale snapshot, *compute* on it, and have its *move*
land rounds later, with other robots acting in between.  This engine
implements that model with **bounded staleness** Δ (option
``staleness``):

* when the schedule activates an idle robot in round ``r``, the robot
  computes on the snapshot of round ``r - s`` for a seeded draw
  ``s ∈ [0, Δ]`` (clamped to the history that exists);
* its resulting move lands in round ``r + d`` for an independent seeded
  draw ``d ∈ [0, Δ]``; the robot is *busy* until the landing round and
  ignores re-activations in between (its cycle is still in flight);
* a landing move applies only if it is still legal — the mover still
  exists (it may have merged away), it has not crash-stopped, and the
  target is within one king step of its *current* cell.  An illegal
  landing is discarded with a ``stale_move`` event: the outdated
  computation evaporates, exactly the hazard the ASYNC literature
  studies.

Δ = 0 short-circuits every draw: each activated robot looks at the
current round and lands in the same round, making the step
operation-for-operation identical to :class:`~repro.engine.
ssync_scheduler.SsyncEngine` — so with full activation the engine is
bit-identical to ``fsync`` (golden-pinned by ``tests/test_ssync.py``).

Staleness draws are churn-invariant pure functions of ``(seed, robot
token, round)`` via the same splitmix64 mixer the fault injector uses —
independent of the activation and fault streams, so turning staleness
on does not perturb who gets activated when.

Byzantine faults are deliberately out of scope here (the ``async-lcm``
scheduler rejects ``byzantine_rate``): stale perception is already the
model's native adversary, and layering lied positions on top of lagged
snapshots has no counterpart in the literature this repo reproduces.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.engine.events import EventLog
from repro.engine.faults import _mix, _token_int
from repro.engine.metrics import MetricsLog, RoundMetrics
from repro.engine.scheduler import (
    GatherResult,
    components_after_round,
    require_connected,
)
from repro.engine.ssync_scheduler import ActivationSchedule, migrate_tokens
from repro.engine.termination import default_round_budget, is_gathered
from repro.grid.boundary import outer_boundary
from repro.grid.envelope import enclosed_area
from repro.grid.geometry import Cell, chebyshev
from repro.grid.occupancy import SwarmState

#: Draw-stream ids for the two per-activation staleness draws (disjoint
#: from the fault injector's class ids by construction — different salt
#: position, same mixer).
_CLASS_LOOK_LAG = 0
_CLASS_MOVE_LAG = 1


class AsyncLcmEngine:
    """Drives a grid controller under non-atomic look-compute-move with
    bounded staleness, on top of an :class:`ActivationSchedule`.

    Accepts the same two controller shapes as the SSYNC engine:
    ``plan_round`` controllers (the paper's algorithm — each round's
    plan is archived, and a robot looking ``s`` rounds back executes
    its target from that round's plan) and per-robot ``activate``
    controllers (the async greedy baseline — the robot computes against
    the archived *state snapshot* of the round it looked at).

    Robot identity, merge semantics, the connectivity-as-outcome rule,
    metrics, and terminal events all mirror
    :class:`~repro.engine.ssync_scheduler.SsyncEngine`.
    """

    def __init__(
        self,
        state: SwarmState,
        controller: Any,
        schedule: ActivationSchedule,
        *,
        staleness: int = 0,
        seed: int = 0,
        check_connectivity: bool = True,
        incremental_connectivity: bool = True,
        track_boundary: bool = False,
        gather_square: int = 2,
        on_round: Optional[Callable[[int, SwarmState], None]] = None,
    ) -> None:
        if len(state) == 0:
            raise ValueError("cannot simulate an empty swarm")
        require_connected(state)
        if staleness < 0:
            raise ValueError(
                f"staleness must be a non-negative round count, "
                f"got {staleness!r}"
            )
        self.state = state
        self.controller = controller
        self.schedule = schedule
        self.staleness = int(staleness)
        self.seed = int(seed)
        self.check_connectivity = check_connectivity
        self.incremental_connectivity = incremental_connectivity
        self.track_boundary = track_boundary
        self.gather_square = gather_square
        self.on_round = on_round
        self.metrics = MetricsLog()
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
        self.round_index = 0
        self.activations = 0
        self.connectivity_lost = False
        self._terminal_version: Optional[int] = None
        # Per-round look archives, newest last, pruned to Δ + 1 entries:
        # the plan as token -> target (plan_round controllers), the
        # state snapshot (activate controllers), and where each token
        # stood.  Δ = 0 keeps exactly the current round.
        self._plan_history: List[Dict[int, Cell]] = []
        self._snapshot_history: List[SwarmState] = []
        self._position_history: List[Dict[int, Cell]] = []
        #: In-flight moves: (landing_round, token, target), appended in
        #: activation order — landing processing re-sorts by token.
        self._pending: List[Tuple[int, int, Cell]] = []
        #: Tokens whose cycle is in flight (ignore re-activation).
        self._busy_until: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def _token_info(self, token: int) -> Dict[str, Any]:
        cell = self._cell_of.get(token)
        return {"cell": cell} if cell is not None else {}

    def _hints(self) -> FrozenSet[int]:
        run_manager = getattr(self.controller, "run_manager", None)
        if run_manager is not None:
            cells = {run.robot for run in run_manager.runs.values()}
        else:
            cells = self._moved_last
        id_at = self._id_at
        return frozenset(id_at[c] for c in cells if c in id_at)

    def _lag(self, class_id: int, token: int, round_index: int) -> int:
        """The seeded staleness draw in ``[0, Δ]`` (0 when Δ = 0,
        without consuming a draw — the FSYNC-anchor short-circuit)."""
        if self.staleness == 0:
            return 0
        return random.Random(
            _mix(self.seed, class_id, _token_int(token), round_index)
        ).randrange(self.staleness + 1)

    # ------------------------------------------------------------------
    def step(self) -> int:
        """Execute one round; returns the number of merged robots."""
        state = self.state
        r = self.round_index
        roster = sorted(self._cell_of)
        active = self.schedule.select(r, roster, hints=self._hints())
        # Busy robots' cycles are still in flight: their activation is a
        # no-op, and it does not count toward the activation total.
        active = {t for t in active if self._busy_until.get(t, -1) < r}
        self.activations += len(active)

        controller = self.controller
        plans = hasattr(controller, "plan_round")
        if plans:
            planned = controller.plan_round(state, r)
            self._plan_history.append(
                {
                    token: planned[cell]
                    for token, cell in sorted(self._cell_of.items())
                    if cell in planned
                }
            )
        else:
            self._snapshot_history.append(
                state.copy() if self.staleness > 0 else state
            )
        self._position_history.append(dict(self._cell_of))
        history = self._plan_history if plans else self._snapshot_history
        del history[: -(self.staleness + 1)]
        del self._position_history[: -(self.staleness + 1)]

        for token in sorted(active):
            look_lag = min(
                self._lag(_CLASS_LOOK_LAG, token, r), len(history) - 1
            )
            if plans:
                target = self._plan_history[-1 - look_lag].get(token)
            else:
                snapshot = self._snapshot_history[-1 - look_lag]
                robot_then = self._position_history[-1 - look_lag].get(
                    token, self._cell_of[token]
                )
                target = controller.activate(snapshot, robot_then)
                if target is not None and chebyshev(robot_then, target) > 1:
                    raise ValueError(
                        f"illegal async-lcm move {robot_then} -> {target}"
                    )
            if target is None:
                continue
            move_lag = self._lag(_CLASS_MOVE_LAG, token, r)
            self._busy_until[token] = r + move_lag
            self._pending.append((r + move_lag, token, target))

        # Land every move due this round (including the d = 0 ones just
        # scheduled).  Landing order is token order — simultaneous, like
        # an SSYNC round's move phase.
        landing = sorted(
            (token, target)
            for due, token, target in self._pending
            if due <= r
        )
        self._pending = [p for p in self._pending if p[0] > r]
        crashed = self.schedule.crashed
        moves: Dict[Cell, Cell] = {}
        discarded: List[int] = []
        for token, target in landing:
            cur = self._cell_of.get(token)
            if cur is None or token in crashed:
                # merged away or crash-stopped mid-flight: the cycle
                # evaporates silently (there is no robot left to move)
                continue
            if target == cur:
                continue
            if chebyshev(cur, target) > 1:
                discarded.append(token)
                continue
            moves[cur] = target
        if discarded:
            self.events.emit(r, "stale_move", robots=sorted(discarded))
        merged = state.apply_moves(moves)
        if hasattr(controller, "notify_applied"):
            controller.notify_applied(state, r, moves, merged)

        if self.check_connectivity:
            comps = components_after_round(
                state, self.incremental_connectivity
            )
            if comps > 1:
                self.connectivity_lost = True
                self.events.emit(
                    r, "connectivity_violation", components=comps
                )

        remap, _ = migrate_tokens(self._cell_of, self._id_at, moves)
        self._busy_until = {
            t: due
            for t, due in self._busy_until.items()
            if t in self._cell_of and due > r
        }
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
        budget and terminal-event conventions as the SSYNC engine)."""
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
