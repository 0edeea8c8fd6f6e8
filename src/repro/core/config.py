"""Algorithm configuration.

The defaults are the paper's constants (Section 5, Lemma 3).  Every knob
exists for a reason documented on the field — most feed the ablation
experiments E5-E7 of DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constants import (
    MAX_BUMP_LENGTH,
    RUN_PASSING_DISTANCE,
    RUN_START_INTERVAL,
    VIEWING_RADIUS,
)


@dataclass(frozen=True)
class AlgorithmConfig:
    """Tunable parameters of :class:`repro.core.algorithm.GatherOnGrid`."""

    #: L1 viewing radius (paper: 20).  Bounds merge pattern size, run
    #: crowding detection, and run termination rule 1.
    viewing_radius: int = VIEWING_RADIUS

    #: Rounds between run-start checks, the paper's ``L`` (paper: 22).
    run_start_interval: int = RUN_START_INTERVAL

    #: Boundary distance at which opposite runs start passing (paper: 3).
    run_passing_distance: int = RUN_PASSING_DISTANCE

    #: Maximum length ``k`` of a bump merge (paper Fig. 2; bounded by the
    #: viewing radius).  Ablation E7 sweeps this.
    max_bump_length: int = MAX_BUMP_LENGTH

    #: When False, runs may start only at round 0; disables the paper's
    #: pipelining (Section 4.2).  Ablation E6.
    pipelining: bool = True

    #: Enable the state-free bump merges (Fig. 2, k >= 1).  Ablations only;
    #: leaf merges stay on (a degree-1 robot hopping onto its only neighbor
    #: is the k=1 merge and is always safe).
    enable_bump_merges: bool = True

    #: Enable the state-free corner merges (convex corner onto occupied
    #: diagonal; the paper's small-k merges on solid material).
    enable_corner_merges: bool = True

    #: Enable run states entirely.  With runs off, mergeless swarms (rings,
    #: staircase corridors) stall — that is the paper's whole point, and
    #: ablation E6/E7 demonstrates it.
    enable_runs: bool = True

    #: Minimum straight stretch (number of forward steps in the same
    #: cardinal direction) required ahead of a corner for it to be a run
    #: start site.  The paper's quasi-line endpoints have 3 aligned robots,
    #: i.e. 2 straight steps; we follow Definition 1 with 2.
    start_straight_steps: int = 2

    #: Use the dirty-region incremental pipeline
    #: (:mod:`repro.core.incremental`): cache boundaries and merge
    #: candidates across rounds and rescan only changed neighborhoods.
    #: It also selects the tolerant variant's incremental admission
    #: filter over its per-move rescan (:mod:`repro.core.tolerant`).
    #: Trajectories are bit-identical with this on or off (the equivalence
    #: suite asserts it); the knob exists for A/B benchmarks and as an
    #: escape hatch.
    incremental: bool = True

    #: Plan the per-run reshapement work in parallel shards (contiguous
    #: groups of runs partitioned by contour).  Per-run planning is a
    #: pure function of the round's shared read-only context, so any
    #: partition is sound and results are reduced deterministically in
    #: run-id order — trajectories are bit-identical with this on or off
    #: (the equivalence suite asserts it).  Off by default: the stock
    #: executor is a thread pool, which only pays off on
    #: GIL-free interpreters or with very large per-contour run counts.
    shard_planning: bool = False

    #: Worker count for sharded planning; 0 picks ``min(4, cpu_count)``.
    shard_workers: int = 0

    #: Executor backend for sharded planning (``shard_planning``):
    #: ``"thread"`` (stock pool; a speedup only on GIL-free
    #: interpreters), ``"process"`` (persistent worker processes fed a
    #: shared-memory round snapshot — real multi-core planning), or
    #: ``"subinterp"`` (per-interpreter workers, requires an interpreter
    #: with ``concurrent.futures.InterpreterPoolExecutor``).  All
    #: backends are bit-identical to serial planning (the equivalence
    #: suite asserts it); the choice is purely a performance knob.
    shard_backend: str = "thread"

    @classmethod
    def with_radius(cls, viewing_radius: int, **overrides) -> "AlgorithmConfig":
        """A config for a non-default viewing radius with the dependent
        fields derived consistently: the maximum bump length is the
        largest ``k`` satisfying the locality budget ``2k + 2 <= r``
        (DESIGN.md Section 3), floored at the always-safe ``k = 1``.

        Extra keyword overrides are passed through (and may override the
        derived ``max_bump_length`` as well).
        """
        kwargs = {
            "viewing_radius": viewing_radius,
            "max_bump_length": max(1, (viewing_radius - 2) // 2),
        }
        kwargs.update(overrides)
        return cls(**kwargs)

    def __post_init__(self) -> None:
        if self.viewing_radius < 5:
            raise ValueError("viewing radius must be >= 5 (paper needs 11+)")
        if self.run_start_interval < 1:
            raise ValueError("run start interval must be >= 1")
        if self.run_passing_distance < 1:
            raise ValueError("run passing distance must be >= 1")
        if not 1 <= self.max_bump_length:
            raise ValueError("max bump length must be >= 1")
        if 2 * self.max_bump_length + 2 > self.viewing_radius:
            raise ValueError(
                "need 2*max_bump_length + 2 <= viewing_radius: every mover "
                "must locally verify adjacent patterns freezing its "
                "co-movers (DESIGN.md Section 3)"
            )
        if self.start_straight_steps < 1:
            raise ValueError("start_straight_steps must be >= 1")
        if self.shard_workers < 0:
            raise ValueError(
                "shard_workers must be >= 0 (0 = auto: min(4, cpu_count))"
            )
        if self.shard_backend not in ("thread", "process", "subinterp"):
            raise ValueError(
                f"shard_backend must be one of 'thread', 'process', "
                f"'subinterp', got {self.shard_backend!r}"
            )
