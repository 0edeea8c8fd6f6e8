"""The benchmark's own tests: the correctness gate, seeding, and the
trace wiring.  Run with ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import report  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.swarms import generators  # noqa: E402
from workloads import Gather, count_failed, run_pass  # noqa: E402

OTHER = layers.OTHER
SMALL_RING = Gather("ring_40", tuple(generators.family("ring", 40)))
SMALL_SSYNC = Gather(
    "ring_40_ssync",
    SMALL_RING.cells,
    (("strategy", "tolerant"), ("scheduler", "ssync"),
     ("activation_p", 0.8), ("seed", 5)),
)


def _failed(units, references):
    return count_failed(units, [run_pass(units)], references)[0]


def test_oracle_match_passes_and_tampered_reference_fails():
    units = [SMALL_RING, SMALL_SSYNC]
    refs = [u.reference() for u in units]
    assert _failed(units, refs) == 0
    robots, merged = refs[1][3]
    tampered = [refs[0], refs[1][:3] + ((robots, merged + 1),) + refs[1][4:]]
    assert _failed(units, tampered) == 1


def test_run_cut_short_by_max_rounds_fails(monkeypatch):
    ref = SMALL_RING.reference()
    monkeypatch.setattr(workloads, "round_budget", lambda n: 5)
    result = run_pass([SMALL_RING])
    assert result.signatures == [None]
    assert "not gathered" in result.errors[0]
    assert count_failed([SMALL_RING], [result], [ref])[0] == 1


def test_raising_unit_fails():
    broken = Gather("split", ((0, 0), (5, 5)))
    result = run_pass([broken, SMALL_RING])
    failed, errors = count_failed(
        [broken, SMALL_RING], [result], [(), SMALL_RING.reference()]
    )
    assert failed == 1 and "ValueError" in errors[0]


def test_explorer_row_mismatch_fails():
    unit = next(u for u in workloads.explore_units(0) if u.strategy == "grid")
    ref = unit.reference()
    assert _failed([unit], [ref]) == 0
    assert _failed([unit], [(ref[0] + 1,) + ref[1:]]) == 1


def test_seeds_are_deterministic_and_drive_the_instances():
    for name in ("contour", "compact", "ssync-tolerant"):
        build = workloads.WORKLOADS[name].build
        assert build(3) == build(3)
        assert build(3) != build(4)
    explore = workloads.WORKLOADS["explore-n4"]
    assert not explore.seeded and explore.build(3) == explore.build(4)
    assert len(explore.build(0)) == 38


def test_contour_and_compact_seeds_only_move_the_same_shapes():
    pairs = [
        (build(1), build(2))
        for build in (workloads.contour_units, workloads.compact_units)
    ]
    for a, b in (ab for units in pairs for ab in zip(*units)):
        assert sorted(a.cells) != sorted(b.cells)
        assert workloads._d4(a.cells, 0, 0, 0) == workloads._d4(
            b.cells, 0, 0, 0
        )


def test_d4_gives_eight_distinct_images():
    l_shape = ((0, 0), (0, 1), (0, 2), (1, 0))
    images = {workloads._d4(l_shape, k, 0, 0) for k in range(8)}
    assert len(images) == 8


def test_quarter_turn_spiral_stalls():
    """Known defect kept out of ``contour`` (README.md).  When this test
    fails, the stall is fixed: give the spiral all eight D4 images."""
    spiral = generators.family("spiral", 1000)
    turned = Gather("spiral_turned", tuple((-y, x) for x, y in spiral))
    result = turned.run(max_rounds=1500)
    assert not result.gathered and result.robots_final == 141


def test_tracer_restores_originals_and_accounts_for_the_pass():
    from repro.core import tolerant
    from repro.grid.occupancy import SwarmState
    from repro.grid.ring import RingSet

    before = (
        RingSet.update, SwarmState.__init__, tolerant.certified_subset,
        vars(SwarmState)["__init__"],
    )
    tracer = layers.Tracer()
    with tracer.installed():
        assert RingSet.update is not before[0]
        traced = run_pass([SMALL_SSYNC], tracer)
    assert (
        RingSet.update, SwarmState.__init__, tolerant.certified_subset,
        vars(SwarmState)["__init__"],
    ) == before
    assert traced.signatures == run_pass([SMALL_SSYNC]).signatures
    calls = tracer.calls()
    for name in ("ssync.step", "tolerant.filter", "ring.update", OTHER):
        assert calls[name] > 0, name
    assert calls[OTHER] == 1
    total = sum(tracer.self_times_ns().values())
    root = tracer.span_end[0] - tracer.span_start[0]
    assert total == root


def test_nested_calls_counts_direct_children_only():
    tracer = layers.Tracer()
    with tracer.span("ring.update"):
        with tracer.span("ring.rebuild"):
            pass
        with tracer.span("other"):
            with tracer.span("ring.rebuild"):
                pass
    assert tracer.nested_calls("ring.update", "ring.rebuild") == 1
    assert tracer.calls()["ring.rebuild"] == 2


def test_predicted_layer_with_zero_calls_fails_the_traced_run(capsys):
    assert not run._check_predicted("contour", layers.Tracer())
    assert "recorded no calls" in capsys.readouterr().err


def test_per_layer_metrics_match_benchmark_json():
    tracer = layers.Tracer()
    with tracer.installed():
        traced = run_pass([SMALL_RING], tracer)
    metrics = report.layer_metrics(tracer, traced, 0, 1.0, 1)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert list(metrics) == [m["name"] for m in spec["per_layer"]]
    for m in spec["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    assert set(report.PREDICTED_HITS) == set(workloads.WORKLOADS)
    for names in report.PREDICTED_HITS.values():
        assert set(names) <= set(layers.LAYERS)


def test_without_program_source_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench")
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "contour",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_latency_samples_are_one_per_round():
    result = run_pass([SMALL_RING])
    assert len(result.latencies_ns) == len(result.signatures[0])


def test_best_of_takes_each_samples_fastest_pass():
    fast, slow = run_pass([SMALL_RING]), run_pass([SMALL_RING])
    slow.latencies_ns = [ns * 3 for ns in fast.latencies_ns]
    slow.latencies_ns[0] = 1
    slow.tails_ns = [t + 5 for t in fast.tails_ns]
    samples, tails = workloads.best_of([fast, slow])
    assert samples == [1] + fast.latencies_ns[1:]
    assert tails == sum(fast.tails_ns) and len(fast.tails_ns) == 1
