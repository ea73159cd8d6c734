"""Workload ``sweep-lu2d``: an lu2d sweep run in-process, no cache.

The eight configs are the lu2d grids 4x4 and 8x8 at n = 64 and 128,
each with ``alphabeta`` and ``contention`` delivery.  Alphabeta points
route their broadcasts through the closed-form macro evaluators;
contention points run the plain event loop.  So an engine change shows
on one class and not on the other, and a serve change should move
nothing here.  The seed fixes one point seed per config and the order
of each round; every round repeats the same eight (config, seed) pairs,
so repeated inputs must give identical results.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from typing import Dict, List

import layers
import spans
from common import HERE, WORK, BenchError, Outcome, Speed, deterministic, launch, read_line, stop

CONFIGS = [
    {"prows": g, "pcols": g, "n": n, "delivery": d}
    for g in (4, 8)
    for n in (64, 128)
    for d in ("alphabeta", "contention")
]

#: Seconds one round of the eight points takes on the reference host
#: (2 cores, Python 3.11): ``--seconds`` buys round(seconds / ROUND_S)
#: whole rounds, so the work is fixed by the arguments, not the clock.
ROUND_S = 1.5

#: Launches of the sweep process per run; ``setup_s`` is their median.
SETUP_REPEATS = 5


def make_rounds(seed: int, seconds: int) -> List[List[Dict]]:
    rng = random.Random(seed)
    pairs = [(config, rng.randrange(2**31)) for config in CONFIGS]
    rounds = []
    for _ in range(max(1, round(seconds / ROUND_S))):
        rng.shuffle(pairs)
        rounds.append([{"config": c, "seed": s} for c, s in pairs])
    return rounds


def run(seed: int, seconds: int, traced: bool) -> Outcome:
    rounds = make_rounds(seed, seconds)
    points = [point for r in rounds for point in r]
    outcome = Outcome(attempted=len(points))
    spans_path = os.path.join(WORK, f"sweep-spans-{os.getpid()}.json")
    cmd = [sys.executable, os.path.join(HERE, "sweep_child.py")]
    if traced:
        cmd.append(spans_path)
    speed = Speed()
    results: List[dict] = []
    repeats = 1 if traced else SETUP_REPEATS
    for k in range(repeats):
        start = time.perf_counter()
        proc = launch(cmd, "sweep-child.log")
        try:
            if read_line(proc, "sweep process").strip() != "ready":
                raise BenchError("sweep process did not report ready")
            outcome.setup_s.append((time.perf_counter() - start) * speed.factor())
            if k < repeats - 1:
                continue
            for batch in rounds:
                proc.stdin.write((json.dumps(batch) + "\n").encode("utf-8"))
                proc.stdin.flush()
                reply = json.loads(read_line(proc, "sweep process"))
                latencies = [p["latency_s"] * p["scale"] for p in reply["points"]]
                outcome.add_round(
                    len(latencies), sum(p["latency_s"] for p in reply["points"]),
                    sum(latencies), latencies,
                )
                results.extend(p["result"] for p in reply["points"])
            outcome.peak_rss_kb = reply["peak_rss_kb"]
        finally:
            stop(proc, sig=None)
    outcome.probes = speed.probes
    check(points, results, outcome)

    if traced:
        recorded = spans.load(spans_path)
        missing = spans.never_fired(recorded, spans.LINALG_SPANS)
        if missing:
            outcome.errors.append(f"spans never fired: {missing}")
        fallbacks: Dict[str, int] = {}
        for s in recorded:
            if s["name"] == "linalg.lu2d":
                key = json.dumps(points[int(s["request"])], sort_keys=True)
                if fallbacks.setdefault(key, s["note"]["macro_fallbacks"]) != s["note"]["macro_fallbacks"]:
                    outcome.errors.append(f"lu2d point {key}: macro fallbacks changed between repeats")
        metrics = layers.empty()
        layers.engine(metrics, [s["note"] for s in recorded if s["name"] == "linalg.lu2d"])
        layers.linalg(metrics, recorded)
        metrics["simmpi.macro_fallbacks"] = layers.fallbacks(recorded)
        outcome.layers = metrics
    return outcome


def check(points: List[Dict], results: List[dict], outcome: Outcome) -> None:
    """Every point exact; repeated (config, seed) inputs identical."""
    if len(results) != len(points):
        outcome.errors.append(f"{len(results)} results for {len(points)} points")
        outcome.failed = len(points)
        return
    first: Dict[str, dict] = {}
    for point, result in zip(points, results):
        key = json.dumps(point, sort_keys=True)
        problem = None
        if result.get("exact") is not True:
            problem = f"lu2d point {key} is not exact"
        elif first.setdefault(key, deterministic(result)) != deterministic(result):
            problem = f"lu2d point {key} changed between repeats"
        if problem:
            outcome.failed += 1
            outcome.errors.append(problem)
