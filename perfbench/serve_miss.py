"""Workload ``serve-miss``: fresh work through ``repro serve``'s pool.

Each run starts ``python -m repro serve --backend pool --workers 1`` on
an empty cache; set-up ends once one warm-up job has brought the pool
worker up.  The client submits 4-point jobs of collectives (64-256
ranks) and halo (up to 32x16) with fresh master seeds, in cycles of
sixteen: twelve fresh jobs and four that repeat an earlier ``(configs,
seed)``, so they hit records written moments before.  Two fresh jobs
per cycle are submitted twice back to back, so the second copy
coalesces onto the first.  Each cycle draws its sizes from fixed decks,
so the seed changes the order and the seeds of the work but not its
amount.
The client waits on ``GET /jobs/{id}/events``, then reads the job.
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, List, Optional

import layers
import serving
import spans
from common import WORK, BenchError, Outcome, Speed

COLLECTIVES_RANKS = (64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224, 256)
HALO_SHAPES = ((8, 8), (12, 8), (16, 8), (16, 12), (16, 16), (20, 10),
               (24, 8), (24, 12), (24, 16), (32, 8), (32, 12), (32, 16))
POINTS_PER_JOB = 4

#: Each cycle deals both decks twice: 12 fresh jobs, plus 4 repeats and
#: 2 twins, so one submission in four repeats and one in eight is a twin.
DEALS_PER_CYCLE = 2

#: Cycles that ``--seconds`` buys, from the reference host (2 cores,
#: Python 3.11).  The work is fixed by the arguments, not the clock.
CYCLES_PER_S = 2.0

SETUP_REPEATS = 3

#: Warm-up points: configs no cycle uses, so they never hit or coalesce.
WARMUP = ({"workload": "collectives", "configs": [{"ranks": 16}], "seed": 1},
          {"workload": "halo", "configs": [{"rows": 4, "cols": 4}], "seed": 1})


def _deck_jobs(rng: random.Random, kind: str, deck) -> List[Dict]:
    deck = list(deck)
    rng.shuffle(deck)
    jobs = []
    for i in range(0, len(deck), POINTS_PER_JOB):
        if kind == "collectives":
            configs = [{"ranks": r} for r in deck[i:i + POINTS_PER_JOB]]
        else:
            configs = [{"rows": r, "cols": c} for r, c in deck[i:i + POINTS_PER_JOB]]
        jobs.append({"workload": kind, "configs": configs, "seed": rng.randrange(2**31)})
    return jobs


def make_cycles(seed: int, seconds: int) -> List[List[List[Dict]]]:
    """Cycles of requests to make back to back: each request group is
    one ``{"kind", "spec"}`` op, or a fresh op followed by its ``twin``.
    Kinds are ``fresh``, ``twin`` and ``repeat``."""
    rng = random.Random(seed)
    cycles = []
    fresh: List[Dict] = []
    for cycle in range(max(1, round(seconds * CYCLES_PER_S))):
        new = [
            job
            for _ in range(DEALS_PER_CYCLE)
            for kind, deck in (("collectives", COLLECTIVES_RANKS), ("halo", HALO_SHAPES))
            for job in _deck_jobs(rng, kind, deck)
        ]
        twins = [new[i] for i in rng.sample(range(len(new)), len(new) // 6)]
        slots = [("fresh", job) for job in new] + [("repeat", None)] * (len(new) // 3)
        rng.shuffle(slots)
        if cycle == 0:  # a repeat needs an earlier fresh job
            first = next(i for i, (kind, _) in enumerate(slots) if kind == "fresh")
            slots.insert(0, slots.pop(first))
        groups = []
        for kind, job in slots:
            if kind == "repeat":
                groups.append([{"kind": "repeat", "spec": rng.choice(fresh)}])
                continue
            fresh.append(job)
            groups.append([{"kind": "fresh", "spec": job}])
            if any(job is t for t in twins):
                groups[-1].append({"kind": "twin", "spec": job})
        cycles.append(groups)
    return cycles


def run(seed: int, seconds: int, traced: bool) -> Outcome:
    cycles = make_cycles(seed, seconds)
    ops = [op for groups in cycles for group in groups for op in group]
    outcome = Outcome(attempted=len(ops))
    cycle_points = POINTS_PER_JOB * sum(len(group) for group in cycles[0])
    spans_path = os.path.join(WORK, f"miss-spans-{os.getpid()}.json") if traced else None

    speed = Speed()
    repeats = 1 if traced else SETUP_REPEATS
    for k in range(repeats):
        start = time.perf_counter()
        server = serving.Server("pool", serving.cache_dir("miss"), spans_path)
        try:
            warm = serving.Client(server.port)
            for spec in WARMUP:
                job_id = warm.call("POST", "/jobs", spec)["job_id"]
                if warm.wait(job_id) != "done":
                    raise BenchError(f"warm-up job {job_id} failed")
            warm.close()
        except BaseException:
            server.close()
            raise
        outcome.setup_s.append((time.perf_counter() - start) * speed.factor())
        if k < repeats - 1:
            server.close()

    client = serving.Client(server.port, traced)
    served: List[Optional[dict]] = []
    try:
        before = client.call("GET", "/stats")
        trips_from = len(client.trips) if traced else 0
        speed.factor()
        for groups in cycles:
            cycle_start = time.perf_counter()
            latencies = []
            for group in groups:
                done = len(served)
                try:
                    # A twin is submitted right behind its original,
                    # before either is waited on.
                    submitted = []
                    for op in group:
                        t0 = time.perf_counter()
                        submitted.append((t0, client.call("POST", "/jobs", op["spec"])))
                    for t0, summary in submitted:
                        if summary["state"] not in ("done", "failed", "cancelled"):
                            client.wait(summary["job_id"])
                        payload = client.call("GET", f"/jobs/{summary['job_id']}")
                        latencies.append(time.perf_counter() - t0)
                        served.append(payload)
                except BenchError as exc:
                    outcome.failed += len(group)
                    outcome.errors.append(str(exc))
                    del served[done:]
                    served.extend([None] * len(group))
            elapsed = time.perf_counter() - cycle_start
            scale = speed.factor()
            outcome.add_round(cycle_points, elapsed, elapsed * scale, [t * scale for t in latencies])
        trips = client.trips[trips_from:] if traced else []
        after = client.call("GET", "/stats")
        outcome.peak_rss_kb = server.peak_rss_kb()
    finally:
        client.close()
        server.close()
    outcome.probes = speed.probes

    recorder = spans.Recorder()
    if traced:
        spans.install_engine(recorder)
    check(ops, served, before, after, outcome)

    if traced:
        recorded = spans.load(spans_path)
        missing = spans.never_fired(
            recorded + recorder.records(),
            spans.SERVER_SPANS + spans.POOL_SPANS + ("simmpi.run_program",),
        )
        if missing:
            outcome.errors.append(f"spans never fired: {missing}")
        metrics = layers.empty()
        computed = [
            dict(result, kind=p["workload"])
            for p in served if p
            for result, state in zip(p["results"], p["point_states"])
            if state["origin"] == "scheduled"
        ]
        layers.engine(metrics, computed)
        metrics["simmpi.macro_fallbacks"] = layers.fallbacks(recorder.records())
        metrics["backend.busy_frac"] = sum(r["wall_s"] for r in computed) / outcome.wall_s
        layers.server(metrics, recorded, trips)
        layers.stats(metrics, before, after)
        outcome.layers = metrics
    return outcome


def check(ops: List[Dict], served: List[Optional[dict]], before: dict, after: dict,
          outcome: Outcome) -> None:
    """Served results equal direct ``run_sweep``; dedupe as designed."""
    from repro.sweep import config_from_dict, get_workload, run_sweep

    reference: Dict[int, List[dict]] = {}
    for op, payload in zip(ops, served):
        if payload is None:
            continue  # a failed request, already counted
        spec = op["spec"]
        if id(spec) not in reference:
            entry = get_workload(spec["workload"])
            configs = [config_from_dict(entry.config_type, c) for c in spec["configs"]]
            reference[id(spec)] = run_sweep(configs, entry.fn, workers=1, seed=spec["seed"])
        problem = serving.check_payload(payload, spec["workload"], reference[id(spec)])
        dedupe = payload["dedupe"]
        if problem is None and op["kind"] == "fresh" and dedupe["scheduled"] != POINTS_PER_JOB:
            problem = f"{payload['job_id']}: fresh job was not simulated: {dedupe}"
        if problem is None and op["kind"] != "fresh" and dedupe["scheduled"] != 0:
            problem = f"{payload['job_id']}: {op['kind']} job was simulated again: {dedupe}"
        if problem is None and op["kind"] == "repeat" and dedupe["cache_hits"] != POINTS_PER_JOB:
            problem = f"{payload['job_id']}: repeat missed the cache: {dedupe}"
        if problem:
            outcome.failed += 1
            outcome.errors.append(problem)
    fresh = sum(1 for op in ops if op["kind"] == "fresh")
    if after["scheduled"] - before["scheduled"] != fresh * POINTS_PER_JOB:
        outcome.errors.append(
            f"server simulated {after['scheduled'] - before['scheduled']} points, "
            f"expected {fresh * POINTS_PER_JOB}"
        )
