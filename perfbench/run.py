"""The repository's benchmark: one workload, one run, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep-lu2d --seed 1 --seconds 15 --trace 0

``--workload all`` runs the three workloads in turn and reports their
metrics as ``<workload>.<metric>``.

``--seconds`` fixes the amount of work (whole rounds sized so the run
takes about that long on the reference host), never a deadline.  With
``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs the same work untraced and then traced, and
reports the per-layer metrics plus the tracing overhead.  The last line
of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; a failed correctness check prints ``"correct": false``
with no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import traceback
from typing import Tuple

import common
import layers
import serve_hit
import serve_miss
import sweep_lu2d

WORKLOADS = {
    "sweep-lu2d": sweep_lu2d.run,
    "serve-hit": serve_hit.run,
    "serve-miss": serve_miss.run,
}

#: name -> unit, in the order ``BENCHMARK.json`` lists them.
END_TO_END = {
    "points_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def end_to_end(outcome: common.Outcome) -> dict:
    """The end-to-end values with their sample counts.

    Rate and latency percentiles are taken per round and the median over
    rounds is reported: every round holds the same inputs, so a round
    slowed by a burst on the host does not move them.
    """
    rounds = outcome.round_latencies
    samples = sum(len(r) for r in rounds)
    return {
        "points_per_s": (statistics.median(outcome.round_rates), len(rounds)),
        "latency_p50_ms": (statistics.median(statistics.median(r) for r in rounds) * 1e3, samples),
        "latency_p90_ms": (
            statistics.median(common.percentile(r, 90) for r in rounds) * 1e3, samples
        ),
        "setup_s": (statistics.median(outcome.setup_s), len(outcome.setup_s)),
        "peak_rss_mb": (outcome.peak_rss_kb / 1024, 1),
    }


def measure(workload: str, seed: int, seconds: int, trace: bool) -> Tuple[dict, dict]:
    """Run one workload; print its host line and table; return the result
    (``correct``, ``attempted``, ``failed``) and ``{metric: (value, unit)}``."""
    host = common.host_block()
    run = WORKLOADS[workload]
    try:
        outcomes = [run(seed, seconds, traced=False)]
        if trace:
            outcomes.append(run(seed, seconds, traced=True))
    except Exception:
        traceback.print_exc()
        return {"correct": False, "attempted": 1, "failed": 1}, {}
    last = outcomes[-1]
    probes = [p for o in outcomes for p in o.probes]
    host["probe_ms"] = {
        "first": probes[0] * 1e3,
        "median": statistics.median(probes) * 1e3,
        "last": probes[-1] * 1e3,
        "reference": common.REFERENCE_PROBE_S * 1e3,
    }
    host["raw_wall_s"] = last.wall_s
    print(f"host {workload} " + json.dumps(host, sort_keys=True))

    errors = [e for o in outcomes for e in o.errors]
    for error in errors[:20]:
        print(f"FAILED {workload}: {error}")
    if errors:
        return {"correct": False, "attempted": last.attempted, "failed": max(last.failed, 1)}, {}

    if trace:
        # Span times are raw wall; put them in reference-host time, like
        # the end-to-end metrics, with the traced pass's mean scale.
        scale = last.work_s / last.wall_s
        values = {
            name: value * scale if layers.PER_LAYER[name] == "ms"
            else value / scale if layers.PER_LAYER[name] == "1/s"
            else value
            for name, value in last.layers.items()
        }
        untraced = outcomes[0]
        values["trace.overhead_pct"] = (last.work_s - untraced.work_s) / untraced.work_s * 100
        print(f"trace {workload}: untraced {untraced.work_s:.4f} s, traced {last.work_s:.4f} s")
        units, samples = layers.PER_LAYER, {}
    else:
        counted = end_to_end(last)
        values = {name: v for name, (v, _) in counted.items()}
        units, samples = END_TO_END, {name: n for name, (_, n) in counted.items()}
    for name, unit in units.items():
        extra = f"  n={samples[name]}" if name in samples else ""
        print(f"{workload:<11} {name:<30} {values[name]:>14.6g} {unit:<6}{extra}")
    print(f"{workload:<11} attempted={last.attempted} failed={last.failed}")
    result = {"correct": True, "attempted": last.attempted, "failed": last.failed}
    return result, {name: (values[name], unit) for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    common.require_program()
    common.pin_to_one_cpu()

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        result, metrics = measure(workload, args.seed, args.seconds, bool(args.trace))
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        prefix = f"{workload}." if len(names) > 1 else ""
        for name, (value, unit) in metrics.items():
            total["metrics"][prefix + name] = {"value": value, "unit": unit}
    if not total["correct"]:
        total["metrics"] = {}
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
