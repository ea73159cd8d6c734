"""Workload ``serve-hit``: a warm cache behind ``repro serve``.

Set-up pre-fills a fresh run cache by calling ``run_sweep(...,
cache=RunCache(dir))`` directly, then starts ``python -m repro serve
--backend inprocess --workers 1`` on it.  The working set is 64 job
templates, eight of each size from 1 to 8 points, over small lu2d,
collectives and halo configs (288 distinct keys).  One keep-alive
client sends a fixed interleave: single-job ``POST /jobs`` each
followed by ``GET /jobs/{id}``, and every eighth request a ``POST
/jobs/batch`` of four jobs followed by a ``GET`` of each.  Every point
is a cache hit, so the engine does no work: the time is HTTP, protocol
parsing, key derivation, ``RunCache.get``, the job table and JSON
encoding.
"""

from __future__ import annotations

import os
import random
import time
from typing import Dict, List

import layers
import serving
import spans
from common import WORK, BenchError, Outcome, Speed

SIZES = range(1, 9)
TEMPLATES_PER_SIZE = 8
KINDS = ("lu2d", "collectives", "halo")
BATCH_EVERY = 8
BATCH_JOBS = 4

#: Passes over the 64 templates that ``--seconds`` buys, from the
#: reference host (2 cores, Python 3.11).  The work is fixed by the
#: arguments, not the clock.
PASSES_PER_S = 13.0

SETUP_REPEATS = 3


def _config(kind: str, rng: random.Random) -> Dict:
    if kind == "lu2d":
        return {"prows": rng.choice((1, 2)), "pcols": rng.choice((1, 2)),
                "n": rng.choice((8, 12, 16)),
                "delivery": rng.choice(("alphabeta", "contention"))}
    if kind == "collectives":
        return {"ranks": rng.choice((4, 8, 16)), "rounds": rng.choice((1, 2, 3))}
    return {"rows": rng.choice((2, 3, 4)), "cols": rng.choice((2, 3, 4)),
            "steps": rng.choice((1, 2))}


def make_templates(seed: int) -> List[Dict]:
    """The working set: the mix of sizes and workloads is fixed, the
    configs and master seeds come from ``seed``."""
    rng = random.Random(seed)
    templates = []
    for size in SIZES:
        for j in range(TEMPLATES_PER_SIZE):
            kind = KINDS[(size + j) % len(KINDS)]
            templates.append({
                "workload": kind,
                "configs": [_config(kind, rng) for _ in range(size)],
                "seed": rng.randrange(2**31),
            })
    return templates


def make_passes(seed: int, seconds: int, n_templates: int) -> List[List[List[int]]]:
    """Passes over the working set, each a list of requests, each a list
    of template indices: one for a single-job submit, ``BATCH_JOBS`` for
    a batch.  Every pass has the same shape and serves every template
    once, so passes differ only in order."""
    rng = random.Random(seed + 1)
    passes = []
    for _ in range(max(1, round(seconds * PASSES_PER_S))):
        order = list(range(n_templates))
        rng.shuffle(order)
        ops: List[List[int]] = []
        while order:
            take = BATCH_JOBS if len(ops) % BATCH_EVERY == BATCH_EVERY - 1 else 1
            ops.append(order[:take])
            del order[:take]
        passes.append(ops)
    return passes


def prefill(templates: List[Dict], cache_dir: str) -> List[List[dict]]:
    """Direct ``run_sweep`` of every template into the cache; returns
    the results, which are also the reference for what is served."""
    from repro.sweep import RunCache, config_from_dict, get_workload, run_sweep

    cache = RunCache(cache_dir)
    reference = []
    for t in templates:
        entry = get_workload(t["workload"])
        configs = [config_from_dict(entry.config_type, c) for c in t["configs"]]
        reference.append(run_sweep(configs, entry.fn, workers=1, seed=t["seed"], cache=cache))
    return reference


def run(seed: int, seconds: int, traced: bool) -> Outcome:
    templates = make_templates(seed)
    passes = make_passes(seed, seconds, len(templates))
    outcome = Outcome(attempted=sum(len(op) for ops in passes for op in ops))
    pass_points = sum(len(t["configs"]) for t in templates)
    spans_path = os.path.join(WORK, f"hit-spans-{os.getpid()}.json") if traced else None

    speed = Speed()
    repeats = 1 if traced else SETUP_REPEATS
    for k in range(repeats):
        start = time.perf_counter()
        directory = serving.cache_dir("hit")
        reference = prefill(templates, directory)
        server = serving.Server("inprocess", directory, spans_path)
        outcome.setup_s.append((time.perf_counter() - start) * speed.factor())
        if k < repeats - 1:
            server.close()

    client = serving.Client(server.port, traced)
    served = []
    try:
        before = client.call("GET", "/stats")
        trips_from = len(client.trips) if traced else 0
        speed.factor()
        for ops in passes:
            pass_start = time.perf_counter()
            latencies = []
            for op in ops:
                try:
                    t0 = time.perf_counter()
                    if len(op) == 1:
                        job_ids = [client.call("POST", "/jobs", templates[op[0]])["job_id"]]
                    else:
                        batch = client.call(
                            "POST", "/jobs/batch", {"jobs": [templates[i] for i in op]}
                        )
                        job_ids = [j["job_id"] for j in batch["jobs"]]
                    for index, job_id in zip(op, job_ids):
                        payload = client.call("GET", f"/jobs/{job_id}")
                        latencies.append(time.perf_counter() - t0)
                        served.append((index, payload))
                except BenchError as exc:
                    outcome.failed += len(op)
                    outcome.errors.append(str(exc))
            elapsed = time.perf_counter() - pass_start
            scale = speed.factor()
            outcome.add_round(pass_points, elapsed, elapsed * scale, [t * scale for t in latencies])
        trips = client.trips[trips_from:] if traced else []
        after = client.call("GET", "/stats")
        outcome.peak_rss_kb = server.peak_rss_kb()
    finally:
        client.close()
        server.close()
    outcome.probes = speed.probes

    for index, payload in served:
        problem = serving.check_payload(payload, templates[index]["workload"], reference[index])
        if problem is None and any(p["origin"] != "cache_hit" for p in payload["point_states"]):
            problem = f"{payload['job_id']}: a point missed the pre-filled cache"
        if problem:
            outcome.failed += 1
            outcome.errors.append(problem)
    if after["scheduled"] != before["scheduled"]:
        outcome.errors.append("the server simulated points on a pre-filled cache")

    if traced:
        recorded = spans.load(spans_path)
        missing = spans.never_fired(recorded, spans.SERVER_SPANS)
        if missing:
            outcome.errors.append(f"spans never fired: {missing}")
        metrics = layers.empty()
        layers.server(metrics, recorded, trips)
        layers.stats(metrics, before, after)
        outcome.layers = metrics
    return outcome
