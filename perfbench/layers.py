"""Per-layer metrics: their catalogue and how spans become numbers.

Every traced run reports every metric below.  A layer the workload
does not pass through reads 0 (for example ``cache.get_ms`` on
``sweep-lu2d``, which runs without a cache).
"""

from __future__ import annotations

from typing import Dict, Iterable, List

#: name -> unit, in the order ``BENCHMARK.json`` lists them.
PER_LAYER = {
    "simmpi.execute_ms.alphabeta": "ms",
    "simmpi.execute_ms.contention": "ms",
    "simmpi.execute_ms.collectives": "ms",
    "simmpi.execute_ms.halo": "ms",
    "simmpi.setup_ms": "ms",
    "simmpi.events": "count",
    "simmpi.messages": "count",
    "simmpi.macro_fallbacks": "count",
    "simmpi.events_per_s": "1/s",
    "linalg.lu2d_ms": "ms",
    "linalg.make_matrix_ms": "ms",
    "linalg.serial_check_ms": "ms",
    "protocol.parse_ms": "ms",
    "cache.key_ms": "ms",
    "cache.get_ms": "ms",
    "cache.get_count": "count",
    "cache.hit_ratio": "ratio",
    "cache.put_ms": "ms",
    "cache.put_count": "count",
    "jobs.submit_ms": "ms",
    "jobs.payload_ms": "ms",
    "jobs.dedupe_ratio": "ratio",
    "backend.dispatch_ms": "ms",
    "backend.busy_frac": "ratio",
    "server.unattributed_ms": "ms",
    "http.requests_reused": "count",
    "trace.overhead_pct": "%",
}


def empty() -> Dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def _by_name(spans: Iterable[dict], name: str) -> List[dict]:
    return [s for s in spans if s["name"] == name]


def self_time(span: dict, children: List[dict]) -> float:
    """The span's duration minus the part of it its children cover."""
    covered = 0.0
    last = span["start"]
    for child in sorted(children, key=lambda c: c["start"]):
        start = max(child["start"], last)
        end = min(child["end"], span["end"])
        if end > start:
            covered += end - start
            last = end
    return _dur(span) - covered


def engine(metrics: Dict[str, float], runs: Iterable[dict]) -> None:
    """Fold engine runs (``kind``, ``execute_wall_s``, ``setup_wall_s``,
    ``events``, ``messages``) into the ``simmpi.*`` metrics."""
    execute_s = 0.0
    for run in runs:
        metrics[f"simmpi.execute_ms.{run['kind']}"] += run["execute_wall_s"] * 1e3
        metrics["simmpi.setup_ms"] += run["setup_wall_s"] * 1e3
        metrics["simmpi.events"] += run["events"]
        metrics["simmpi.messages"] += run["messages"]
        execute_s += run["execute_wall_s"]
    metrics["simmpi.events_per_s"] = metrics["simmpi.events"] / execute_s if execute_s else 0.0


def linalg(metrics: Dict[str, float], spans: List[dict]) -> None:
    for name, metric in (
        ("linalg.lu2d", "linalg.lu2d_ms"),
        ("linalg.make_matrix", "linalg.make_matrix_ms"),
        ("linalg.serial_check", "linalg.serial_check_ms"),
    ):
        metrics[metric] = sum(_dur(s) for s in _by_name(spans, name)) * 1e3


def fallbacks(spans: List[dict]) -> int:
    return sum(
        s["note"]["macro_fallbacks"]
        for s in spans
        if s["name"] in ("linalg.lu2d", "simmpi.run_program")
    )


def server(metrics: Dict[str, float], spans: List[dict], trips: List[tuple]) -> None:
    """Serve-layer metrics from the server's spans and the load
    generator's round trips ``(request id, start, end)``."""
    ms = 1e3
    metrics["protocol.parse_ms"] = sum(_dur(s) for s in _by_name(spans, "protocol.parse")) * ms
    metrics["cache.key_ms"] = sum(_dur(s) for s in _by_name(spans, "cache.key")) * ms
    gets = _by_name(spans, "cache.get")
    metrics["cache.get_ms"] = sum(_dur(s) for s in gets) * ms
    metrics["cache.get_count"] = len(gets)
    metrics["cache.hit_ratio"] = (
        sum(1 for s in gets if s["note"]["hit"]) / len(gets) if gets else 0.0
    )
    puts = _by_name(spans, "cache.put")
    metrics["cache.put_ms"] = sum(_dur(s) for s in puts) * ms
    metrics["cache.put_count"] = len(puts)
    metrics["jobs.payload_ms"] = sum(_dur(s) for s in _by_name(spans, "jobs.payload")) * ms

    children: Dict[int, List[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    metrics["jobs.submit_ms"] = sum(
        self_time(s, children.get(s["id"], [])) for s in _by_name(spans, "jobs.submit")
    ) * ms
    metrics["backend.dispatch_ms"] = sum(
        _dur(s) - s["note"]["setup_wall_s"] - s["note"]["execute_wall_s"]
        for s in _by_name(spans, "backend.run_point")
    ) * ms

    covered: Dict[str, float] = {}
    for root in _by_name(spans, "server.request"):
        covered[root["request"]] = sum(
            _dur(c) for c in children.get(root["id"], []) if c["start"] <= root["end"]
        )
    metrics["server.unattributed_ms"] = sum(
        (end - start) - covered.get(request, 0.0) for request, start, end in trips
    ) * ms


def stats(metrics: Dict[str, float], before: dict, after: dict) -> None:
    """``jobs.dedupe_ratio`` and ``http.requests_reused`` from two
    ``/stats`` snapshots taken around the measured work."""

    def delta(*path) -> float:
        a, b = after, before
        for key in path:
            a, b = a[key], b[key]
        return a - b

    points = delta("points_total")
    metrics["jobs.dedupe_ratio"] = (
        (delta("cache_hits") + delta("coalesced")) / points if points else 0.0
    )
    metrics["http.requests_reused"] = delta("http", "requests_reused")
