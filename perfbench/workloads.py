"""The benchmark's four workloads: seeded instances, timed passes, and
the correctness gate behind ``failed``.

A *unit* is one gather (``simulate``) or one shape certification
(``certify_shape``); a *pass* runs every unit of a workload once.  The
program only ever sees the generated instances, never the seed.
"""

from __future__ import annotations

import json
import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

from repro import api
from repro.analysis import certification
from repro.core.config import AlgorithmConfig
from repro.swarms import enumerate as polyominoes
from repro.swarms import generators

Cell = Tuple[int, int]
Signature = Tuple

#: Explorer rows pinned by ``record_explore.py`` (seed-independent).
EXPLORE_ROWS = Path(__file__).resolve().parent / "explore_n4_rows.json"

_FULL_RESCAN = AlgorithmConfig(incremental=False)


def round_budget(n: int) -> int:
    """The 40n+40 FSYNC budget the certification suite uses."""
    return 40 * n + 40


@dataclass(frozen=True)
class Gather:
    """One ``simulate`` call; ``options`` are forwarded unchanged."""

    label: str
    cells: Tuple[Cell, ...]
    options: Tuple[Tuple[str, object], ...] = ()

    def run(self, config=None, on_round=None, max_rounds=None):
        n = len(self.cells)
        return api.simulate(
            list(self.cells),
            config=config,
            max_rounds=round_budget(n) if max_rounds is None else max_rounds,
            on_round=on_round,
            **dict(self.options),
        )

    def signature(self, result) -> Signature:
        """What the oracle must reproduce: the per-round
        ``(robots, merged)`` series."""
        return tuple((m.robots, m.merged) for m in result.metrics.rows)

    def valid(self, result) -> bool:
        """Gathered into 2x2 within the 40n+40 budget."""
        return (
            result.gathered
            and result.final_state.is_gathered(2)
            and result.rounds <= round_budget(len(self.cells))
        )

    def reference(self) -> Signature:
        """The untimed full-rescan oracle run of the same instance."""
        return self.signature(self.run(config=_FULL_RESCAN))


@dataclass(frozen=True)
class Certify:
    """One exhaustive ``certify_shape`` call."""

    label: str
    cells: Tuple[Cell, ...]
    strategy: str

    def run(self, on_round=None):
        return certification.certify_shape(
            list(self.cells), strategy=self.strategy
        )

    def signature(self, record) -> Signature:
        return (
            record["states"],
            record["complete"],
            record["violation_depth"] is not None,
            record["fsync_rounds"],
        )

    def valid(self, record) -> bool:
        return True  # the pinned row carries every check

    def reference(self) -> Signature:
        return pinned_explore_rows()[(self.strategy, self.cells)]


def pinned_explore_rows() -> Dict[Tuple[str, Tuple[Cell, ...]], Signature]:
    data = json.loads(EXPLORE_ROWS.read_text(encoding="utf-8"))
    return {
        (row["strategy"], tuple(tuple(c) for c in row["cells"])): (
            row["states"], row["complete"], row["breakable"],
            row["fsync_rounds"],
        )
        for row in data["rows"]
    }


# ----------------------------------------------------------------------
# Instances
# ----------------------------------------------------------------------
def _d4(cells, k: int, dx: int, dy: int) -> Tuple[Cell, ...]:
    """Rotate by ``k % 4`` quarter turns, mirror when ``k >= 4``, then
    translate so the bounding box starts at ``(dx, dy)``."""
    out = []
    for x, y in cells:
        for _ in range(k % 4):
            x, y = -y, x
        if k >= 4:
            x = -x
        out.append((x, y))
    mx = min(x for x, _ in out)
    my = min(y for _, y in out)
    return tuple(sorted((x - mx + dx, y - my + dy) for x, y in out))


def _shift(rng: random.Random) -> Tuple[int, int]:
    return rng.randint(-500, 500), rng.randint(-500, 500)


def contour_units(seed: int) -> List[Gather]:
    """ring_204 under a seeded D4 transform and translation, and
    spiral_331 under a seeded translation in its generated orientation
    (a quarter turn of spiral_1027 stalls at 141 robots; see README)."""
    rng = random.Random(seed)
    ring = _d4(generators.family("ring", 200), rng.randrange(8), *_shift(rng))
    spiral = _d4(generators.family("spiral", 300), 0, *_shift(rng))
    return [Gather("ring_204", ring), Gather("spiral_331", spiral)]


#: compact: three sizes, each as blob, tree and near-square solid.
COMPACT_SIZES = (800, 1600, 2400)


def compact_units(seed: int) -> List[Gather]:
    """Blob, tree and solid rectangle at each size, each under a seeded
    translation.  The shapes themselves are pinned (generator seed = n):
    redrawing them with the seed moved the p90 round latency by up to 8%
    between seeds, as much as the host's own noise."""
    rng = random.Random(seed)
    units = []
    for n in COMPACT_SIZES:
        width = round(n ** 0.5)
        shapes = {
            f"blob_{n}": generators.random_blob(n, n),
            f"tree_{n}": generators.random_tree(n, n),
            f"solid_{width}x{n // width}": generators.solid_rectangle(
                width, n // width
            ),
        }
        units += [
            Gather(label, _d4(cells, 0, *_shift(rng)))
            for label, cells in shapes.items()
        ]
    return units


#: ssync-tolerant instances.  A tolerant SSYNC ring gather's round count
#: swings with its activation draw (over 20 draws: ring_104 167-421
#: rounds, ring_204 229-2,024), and even sixteen seeded ring_104 draws
#: summed to 3,873-5,629 rounds over seeds 1-10.  So the rings run
#: four pinned draws, and the seed draws the blobs' activations, whose
#: round counts move by a few rounds only.
SSYNC_RINGS = 4
SSYNC_BLOBS = (300, 600)


def _ssync_gather(label, cells, activation_seed) -> Gather:
    opts = (
        ("strategy", "tolerant"), ("scheduler", "ssync"),
        ("activation_p", 0.8), ("seed", activation_seed),
    )
    return Gather(label, cells, opts)


def ssync_units(seed: int) -> List[Gather]:
    """``tolerant`` under ``ssync`` with ``activation_p=0.8``."""
    rng = random.Random(seed)
    ring = tuple(generators.family("ring", 100))
    units = [
        _ssync_gather(f"ring_{len(ring)}#{i}", ring, i)
        for i in range(SSYNC_RINGS)
    ]
    for n in SSYNC_BLOBS:
        units.append(_ssync_gather(
            f"blob_{n}", tuple(generators.family("blob", n)),
            rng.randrange(1 << 30),
        ))
    return units


def explore_units(seed: int) -> List[Certify]:
    """All 19 fixed tetrominoes under ``grid`` and ``tolerant``.
    Seed-independent: the explorer is exhaustive and deterministic."""
    shapes = sorted(
        tuple(sorted(s)) for s in polyominoes.all_polyominoes(4)
    )
    return [
        Certify(f"{strategy}:{i}", shape, strategy)
        for strategy in ("grid", "tolerant")
        for i, shape in enumerate(shapes)
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], list]
    seeded: bool = True


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("contour", contour_units),
        Workload("compact", compact_units),
        Workload("ssync-tolerant", ssync_units),
        Workload("explore-n4", explore_units, seeded=False),
    )
}


# ----------------------------------------------------------------------
# Passes and the correctness gate
# ----------------------------------------------------------------------
@dataclass
class PassResult:
    wall_ns: int
    #: per unit: signature, or ``None`` when the unit raised or was
    #: invalid (not gathered, over budget)
    signatures: List[Optional[Signature]]
    latencies_ns: List[int] = field(default_factory=list)
    #: per unit: time from a gather's last ``on_round`` callback to its
    #: return (0 for certifications, whose one sample is the whole call)
    tails_ns: List[int] = field(default_factory=list)
    active_run_rounds: int = 0
    states: int = 0
    errors: List[str] = field(default_factory=list)


def run_pass(units, tracer=None) -> PassResult:
    """Run every unit once; the pass's wall time is the sum of the unit
    calls.  For gathers the latency samples are the gaps between
    consecutive ``on_round`` callbacks (the first measured from the
    call); for certifications, one sample per unit.  With a tracer, each
    unit runs inside an ``other`` root span."""
    lat: List[int] = []
    out = PassResult(0, [], lat)
    last = [0]

    def on_round(round_index, state):
        now = perf_counter_ns()
        lat.append(now - last[0])
        last[0] = now

    for unit in units:
        gather = isinstance(unit, Gather)
        scope = tracer.span("other") if tracer is not None else nullcontext()
        last[0] = start = perf_counter_ns()
        try:
            with scope:
                result = unit.run(on_round=on_round if gather else None)
        except Exception as exc:  # a failed unit is counted, not fatal
            out.wall_ns += perf_counter_ns() - start
            out.tails_ns.append(0)
            out.signatures.append(None)
            out.errors.append(f"{unit.label}: {type(exc).__name__}: {exc}")
            continue
        end = perf_counter_ns()
        elapsed = end - start
        out.wall_ns += elapsed
        out.tails_ns.append(end - last[0] if gather else 0)
        if gather:
            out.active_run_rounds += sum(
                m.active_runs or 0 for m in result.metrics.rows
            )
        else:
            lat.append(elapsed)
            out.states += result["states"]
        if unit.valid(result):
            out.signatures.append(unit.signature(result))
        else:
            out.signatures.append(None)
            out.errors.append(f"{unit.label}: not gathered within budget")
    return out


def best_of(passes: List[PassResult]) -> Tuple[List[int], int]:
    """Each latency sample's fastest time over the passes, and the summed
    fastest tails: one pass as it runs when the host does not get in the
    way.  Every pass of a correct run takes the same rounds, so samples
    line up; after a failed unit only the common prefix is compared."""
    k = min(len(p.latencies_ns) for p in passes)
    samples = [min(col) for col in zip(*(p.latencies_ns[:k] for p in passes))]
    tails = sum(min(col) for col in zip(*(p.tails_ns for p in passes)))
    return samples, tails


def count_failed(
    units, passes: List[PassResult], references: List[Signature]
) -> Tuple[int, List[str]]:
    """Units (over all passes) that raised, were invalid, or whose
    signature differs from the reference."""
    failed = 0
    errors: List[str] = []
    for p in passes:
        errors += p.errors
        for unit, sig, ref in zip(units, p.signatures, references):
            if sig is None:
                failed += 1
            elif sig != ref:
                failed += 1
                errors.append(f"{unit.label}: differs from the oracle")
    return failed, errors
