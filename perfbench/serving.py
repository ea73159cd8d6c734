"""The ``repro serve`` process under test and the load generator's client.

The server always runs in its own process (``python -m repro serve``,
or ``serve_launcher.py`` when traced), so the load generator never
competes with it for one interpreter lock.  The client holds one
keep-alive connection for submits and reads, and opens a second,
short-lived one per ``GET /jobs/{id}/events`` stream: at most two
connections at a time, one per core of the reference host.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import shutil
import signal
import sys
import time
from typing import Any, List, Optional, Tuple

from common import HERE, WORK, BenchError, deterministic, launch, peak_rss_kb, read_line, stop


class Server:
    """One job server with its own cache directory."""

    def __init__(self, backend: str, cache_dir: str, spans_path: Optional[str] = None):
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
                   "--port", "0", "--backend", backend, "--workers", "1",
                   "--cache-dir", cache_dir]
        else:
            cmd = [sys.executable, os.path.join(HERE, "serve_launcher.py"),
                   spans_path, backend, cache_dir]
        self.cache_dir = cache_dir
        self.proc = launch(cmd, "server.log")
        try:
            line = read_line(self.proc, "repro serve")
            match = re.search(r"listening on http://127\.0\.0\.1:(\d+)", line)
            if match is None:
                raise BenchError(f"repro serve did not report its port: {line!r}")
            self.port = int(match.group(1))
        except BaseException:
            self.close()
            raise

    def peak_rss_kb(self) -> int:
        """Peak RSS of the server plus its pool workers, if any."""
        return peak_rss_kb(self.proc.pid)

    def close(self) -> None:
        stop(self.proc, signal.SIGINT)
        shutil.rmtree(self.cache_dir, ignore_errors=True)


def cache_dir(tag: str) -> str:
    """A fresh cache directory path under the benchmark's working space."""
    return os.path.join(WORK, f"{tag}-{os.getpid()}-{time.monotonic_ns()}")


class Client:
    """A closed-loop HTTP/1.1 client.

    Request ids are ``"<local port>-<n>"`` for the n-th request on a
    connection, matching the traced server's ids; with ``traced`` each
    round trip on the keep-alive connection is kept as
    ``(id, start, end)``.
    """

    def __init__(self, port: int, traced: bool = False):
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self.local_port = 0
        self.sent = 0
        self.trips: Optional[List[Tuple[str, float, float]]] = [] if traced else None

    def call(self, method: str, path: str, payload: Any = None) -> Any:
        if self.conn.sock is None:
            self.conn.connect()
            self.local_port = self.conn.sock.getsockname()[1]
            self.sent = 0
        self.sent += 1
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {} if body is None else {"Content-Type": "application/json"}
        start = time.perf_counter()
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()
            raise BenchError(f"{method} {path}: {type(exc).__name__}: {exc}") from None
        end = time.perf_counter()
        if self.trips is not None:
            self.trips.append((f"{self.local_port}-{self.sent}", start, end))
        decoded = json.loads(data) if data else None
        if response.status >= 400:
            raise BenchError(f"{method} {path} -> {response.status}: {decoded}")
        return decoded

    def wait(self, job_id: str) -> str:
        """Follow ``GET /jobs/{id}/events`` to the end; the final state."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        state = ""
        try:
            conn.request("GET", f"/jobs/{job_id}/events")
            response = conn.getresponse()
            if response.status >= 400:
                raise BenchError(f"GET /jobs/{job_id}/events -> {response.status}")
            for line in response:
                event = json.loads(line)
                if event.get("event") == "job":
                    state = event["state"]
        except (OSError, http.client.HTTPException, ValueError) as exc:
            raise BenchError(f"events of {job_id}: {type(exc).__name__}: {exc}") from None
        finally:
            conn.close()
        return state

    def close(self) -> None:
        self.conn.close()


def check_payload(payload: dict, workload: str, reference: List[dict]) -> Optional[str]:
    """Compare a served job with the direct ``run_sweep`` results for the
    same configs and seed, wall-clock fields excluded; ``None`` if equal."""
    job = payload.get("job_id")
    if payload.get("state") != "done":
        return f"{job}: state {payload.get('state')!r}, expected 'done'"
    results = payload.get("results") or []
    if len(results) != len(reference):
        return f"{job}: {len(results)} results for {len(reference)} points"
    for i, (got, want) in enumerate(zip(results, reference)):
        if deterministic(got) != deterministic(want):
            return f"{job} point {i}: served {deterministic(got)} != direct {deterministic(want)}"
        if workload == "lu2d" and got.get("exact") is not True:
            return f"{job} point {i}: lu2d result is not exact"
    return None
