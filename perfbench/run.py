"""Whole-gather benchmark: one workload, timed end to end, optionally
traced layer by layer.

    python3 perfbench/run.py --workload contour --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout, in one process and one thread
(the import timing alone starts short-lived interpreters).  After one
untimed warm-up pass it repeats passes for ``--seconds`` and reports,
per latency sample, the fastest time over those passes.  Prints info
lines, then one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer
metrics of a separate traced pass and writes its spans under
``.perfbench/``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Set-up samples whose median is ``setup_s``.  The first comes before
#: the warm-up pass, the rest between timed passes, so that the samples
#: meet the host at different moments.
SETUP_REPEATS = 9

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import repro.api, "
    "repro.analysis.certification; print(time.perf_counter() - t)"
)


def _setup_sample(workload, seed: int):
    """One set-up: the wall time of importing ``repro`` in a fresh
    interpreter plus that of generating the workload's instances; also
    returns the instances."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    t = perf_counter()
    units = workload.build(seed)
    return float(proc.stdout.strip()) + perf_counter() - t, units


def _quantile(values, q: float) -> float:
    """The ``q`` quantile, interpolated linearly between order statistics."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import numpy

    from workloads import WORKLOADS, best_of, count_failed, run_pass

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    workload = WORKLOADS[args.workload]
    print("perfbench env: " + json.dumps({
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload.name,
        "seed": args.seed if workload.seeded else "ignored (seed-independent)",
    }))

    sample, units = _setup_sample(workload, args.seed)
    setup_s = [sample]
    warmup = run_pass(units)
    passes = []
    deadline = perf_counter() + args.seconds
    while True:
        passes.append(run_pass(units))
        if perf_counter() >= deadline:
            break
        if len(setup_s) < SETUP_REPEATS:
            t = perf_counter()
            setup_s.append(_setup_sample(workload, args.seed)[0])
            deadline += perf_counter() - t  # passes keep their --seconds
    while len(setup_s) < SETUP_REPEATS:
        setup_s.append(_setup_sample(workload, args.seed)[0])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    traced = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        with tracer.installed():
            workload.build(args.seed)
            setup_spans = len(tracer.span_start)
            traced = run_pass(units, tracer)

    best_ns, tails_ns = best_of(passes)
    lat_ms = [ns / 1e6 for ns in best_ns]
    checked = [warmup] + passes + ([traced] if traced is not None else [])
    references = [unit.reference() for unit in units]
    failed, errors = count_failed(units, checked, references)
    attempted = len(units) * len(checked)
    for line in errors[:20]:
        print(f"perfbench failure: {line}", file=sys.stderr)

    if traced is None:
        metrics = {
            "wall_s": _metric((sum(best_ns) + tails_ns) / 1e9, "s"),
            "latency_ms_p50": _metric(_quantile(lat_ms, 0.5), "ms"),
            "latency_ms_p90": _metric(_quantile(lat_ms, 0.9), "ms"),
            "setup_s": _metric(statistics.median(setup_s), "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            "ok_share": _metric(1.0 - failed / attempted, "ratio"),
        }
    else:
        from report import layer_metrics

        median_pass_s = statistics.median(p.wall_ns / 1e9 for p in passes)
        metrics = layer_metrics(
            tracer, traced, setup_spans, median_pass_s, len(lat_ms)
        )
        if not _check_predicted(workload.name, tracer):
            return 1
        out = ROOT / ".perfbench" / f"{workload.name}.npz"
        tracer.write(out, meta={"workload": workload.name, "seed": args.seed})
        print(f"perfbench spans: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _check_predicted(workload: str, tracer) -> bool:
    """Fail the traced run when a layer the workload must hit recorded
    no calls — a rename under ``src/`` must not silently zero a layer."""
    from report import PREDICTED_HITS

    calls = tracer.calls()
    missing = [n for n in PREDICTED_HITS[workload] if not calls[n]]
    for name in missing:
        print(
            f"perfbench: predicted layer {name!r} recorded no calls "
            f"on {workload}",
            file=sys.stderr,
        )
    return not missing


if __name__ == "__main__":
    sys.exit(main())
