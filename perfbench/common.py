"""Shared plumbing for the benchmark: paths, statistics, host block,
and the lifecycle of the processes under test.

Every process the benchmark starts is started here, in its own process group,
and :func:`stop` waits until it and every process it forked have ended.
"""

from __future__ import annotations

import heapq
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Working space inside the checkout (caches, span dumps, server logs).
WORK = os.path.join(ROOT, ".bench_work")

#: Fields of a sweep-point result that depend on the host's speed and
#: so are left out of every equality check.
WALL_FIELDS = frozenset({"wall_s", "setup_wall_s", "execute_wall_s", "events_per_sec"})


class BenchError(Exception):
    """A failed correctness check or a misbehaving process under test."""


@dataclass
class Outcome:
    """What one pass of a workload measured.

    The measured work is a sequence of rounds of equal content (a sweep
    round, a serve-hit pass, a serve-miss cycle).  Per round it keeps
    the points per second and one latency sample per completed
    operation (a sweep point or a served job).  These, ``setup_s`` and
    ``work_s`` are in reference-host seconds (:class:`Speed`);
    ``wall_s`` is the rounds' raw wall time and ``probes`` the speed
    probes taken.  ``errors`` names every failed check, and a non-empty
    list turns the run into a failure with no numbers.
    """

    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    work_s: float = 0.0
    probes: List[float] = field(default_factory=list)
    round_rates: List[float] = field(default_factory=list)
    round_latencies: List[List[float]] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    peak_rss_kb: int = 0
    errors: List[str] = field(default_factory=list)
    layers: Optional[Dict[str, float]] = None

    def add_round(self, points: int, wall_s: float, work_s: float, latencies_s: List[float]) -> None:
        self.wall_s += wall_s
        self.work_s += work_s
        self.round_rates.append(points / work_s)
        self.round_latencies.append(latencies_s)


def require_program() -> None:
    """Exit non-zero unless the program under test is in the checkout."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.stderr.write(
            f"perfbench: no program under test at {SRC}/repro; "
            "run from the root of a full checkout\n"
        )
        raise SystemExit(2)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)


def pin_to_one_cpu() -> None:
    """Keep this process and every process it starts on one CPU.

    The load generator and the server then hand each request over on
    one core instead of waking an idle one (on a shared 2-core host this
    narrowed the spread of serve-hit pass rates within a run from about
    23 % to 7 %), and the speed probe measures the CPU the work runs on."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One string-hash seed for every run, so dict layouts (and the time
    # spent probing them) do not differ between runs of the same inputs.
    env["PYTHONHASHSEED"] = "0"
    return env


# -- statistics -----------------------------------------------------------


def percentile(values: List[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method, so a small sample is
    interpolated between observations rather than extrapolated)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def deterministic(result: dict) -> dict:
    """A point result without its wall-clock fields."""
    return {k: v for k, v in result.items() if k not in WALL_FIELDS}


# -- host block -----------------------------------------------------------


#: :func:`speed_probe` seconds on the reference host (x86-64, 2 vCPUs,
#: Python 3.11.7) while no other tenant shares its core.
REFERENCE_PROBE_S = 0.0055


def _numbers(n: int):
    for i in range(n):
        yield i


def speed_probe() -> float:
    """Seconds for a fixed pure-Python mix of the interpreter work the
    workloads do (a generator feeding heap pushes and dict updates, then
    heap pops): the best of two, so that a preemption inside one does
    not count.  A tight arithmetic loop tracks them worse: on a shared
    core it swings 2.5x while imports and simulations slow by 1.5x."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        heap: List[int] = []
        counts: Dict[int, int] = {}
        for i in _numbers(10_000):
            heapq.heappush(heap, (i * 7919) % 10007)
            counts[i % 512] = counts.get(i % 512, 0) + 1
        while heap:
            heapq.heappop(heap)
        best = min(best, time.perf_counter() - t0)
    return best


class Speed:
    """Converts wall times measured on this CPU to reference-host seconds.

    On a shared host the speed of one CPU drifts by 20-40 % from one
    second to the next (another tenant on the same core), and every
    workload slows with it.  So the probe runs between rounds, on the
    CPU that runs the rounds and outside their timing, and a round's
    times are scaled by ``REFERENCE_PROBE_S`` over the mean of the
    probes on either side of it.  Code under test never runs inside the
    probe, so a change to it moves the scaled times fully.
    """

    def __init__(self) -> None:
        self.probes = [speed_probe()]

    def factor(self) -> float:
        """The scale for the interval since the last probe; probes anew."""
        self.probes.append(speed_probe())
        return REFERENCE_PROBE_S / ((self.probes[-2] + self.probes[-1]) / 2)


def host_block() -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "loadavg_1m": round(os.getloadavg()[0], 2),
    }


# -- processes under test -------------------------------------------------


def launch(cmd: List[str], log_name: str) -> subprocess.Popen:
    """Start ``cmd`` in its own process group; stdout is a pipe, stderr a log."""
    log = open(os.path.join(WORK, log_name), "wb")
    try:
        return subprocess.Popen(
            cmd,
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=log,
            start_new_session=True,
        )
    finally:
        log.close()


def read_line(proc: subprocess.Popen, what: str) -> str:
    line = proc.stdout.readline().decode("utf-8", "replace")
    if not line:
        raise BenchError(f"{what} exited before answering (code {proc.poll()})")
    return line


def _status_kb(pid: int, field_name: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field_name + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def descendants(pid: int) -> List[int]:
    """Live processes below ``pid`` (read from ``/proc``)."""
    parents: Dict[int, int] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        fields = stat[stat.rfind(")") + 2:].split()
        if fields[0] != "Z":
            parents[int(name)] = int(fields[1])
    found, frontier = [], [pid]
    while frontier:
        parent = frontier.pop()
        kids = [p for p, pp in parents.items() if pp == parent]
        found.extend(kids)
        frontier.extend(kids)
    return found


def peak_rss_kb(pid: int) -> int:
    """Peak resident memory of ``pid`` plus each live descendant."""
    return _status_kb(pid, "VmHWM") + sum(
        _status_kb(kid, "VmHWM") for kid in descendants(pid)
    )


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except OSError:
        return False
    return stat[stat.rfind(")") + 2] != "Z"


def stop(proc: subprocess.Popen, sig: Optional[int] = signal.SIGINT, timeout: float = 20.0) -> None:
    """Signal ``proc`` (unless ``sig`` is None), then wait for it and its
    descendants.  Anything still running at the deadline is killed, and
    waited for."""
    kids = descendants(proc.pid)
    if sig is not None and proc.poll() is None:
        proc.send_signal(sig)
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
    deadline = time.monotonic() + timeout
    while any(_alive(k) for k in kids):
        if time.monotonic() > deadline:
            for k in kids:
                try:
                    os.kill(k, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)

