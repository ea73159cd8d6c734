"""In-memory spans around the program's public layer boundaries.

A span is ``(id, name, start, end, parent, request, note)``: times are
``time.perf_counter()`` seconds (CLOCK_MONOTONIC on Linux, so spans from
the server and from the load generator share one clock), ``parent`` is
the span open in the same context when this one began, and ``request``
is the identifier shared by the spans of one request.  Spans are kept
in a list and written out once, when the traced process ends.

Wrappers replace a function at the name through which its caller looks
it up.  ``repro.serve.jobs`` and ``repro.serve.app`` bind
``parse_job_spec``, ``batch_cache_keys`` and ``parse_job_batch`` with
``from ... import``, so those names are patched in the importing
modules, not in the defining ones.  The workload functions import
``lu2d``, ``serial_lu_nopivot``, ``make_test_matrix`` and
``run_program`` inside their bodies, so patching the defining module
is what they see.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import importlib
import itertools
import json
import os
import time
import weakref
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(span id, request id)`` of the innermost open span.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)

#: Span names each workload's traced run must see at least once.
SERVER_SPANS = (
    "server.request",
    "protocol.parse",
    "cache.key",
    "cache.get",
    "jobs.submit",
    "jobs.payload",
)
POOL_SPANS = ("cache.put", "backend.run_point")
LINALG_SPANS = ("linalg.lu2d", "linalg.make_matrix", "linalg.serial_check")


class Recorder:
    """Collects spans for one process."""

    def __init__(self) -> None:
        self.spans: List[Tuple] = []
        self._ids = itertools.count(1)

    def _open(self, request: Optional[str]) -> Tuple[int, Optional[int], Optional[str]]:
        current = _CURRENT.get()
        parent, inherited = current if current is not None else (None, None)
        return next(self._ids), parent, request if request is not None else inherited

    def wrap(self, name: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        """``fn`` recorded as span ``name``; ``note(result, args, kwargs)``
        may attach a small dict of facts about the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent, request = self._open(None)
            token = _CURRENT.set((span_id, request))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _CURRENT.reset(token)
            self.spans.append(
                (span_id, name, start, end, parent, request,
                 note(result, args, kwargs) if note else None)
            )
            return result

        return traced

    def wrap_async(
        self,
        name: str,
        fn: Callable,
        note: Optional[Callable] = None,
        request_of: Optional[Callable] = None,
    ) -> Callable:
        """As :meth:`wrap`, for a coroutine function; ``request_of(args)``
        mints the request id for a root span."""

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            span_id, parent, request = self._open(request_of(args) if request_of else None)
            token = _CURRENT.set((span_id, request))
            start = time.perf_counter()
            try:
                result = await fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                _CURRENT.reset(token)
            self.spans.append(
                (span_id, name, start, end, parent, request,
                 note(result, args, kwargs) if note else None)
            )
            return result

        return traced

    @contextlib.contextmanager
    def request(self, request_id: str):
        """Spans opened inside the block belong to ``request_id``."""
        token = _CURRENT.set((None, request_id))
        try:
            yield
        finally:
            _CURRENT.reset(token)

    def records(self) -> List[Dict[str, Any]]:
        return [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3],
             "parent": s[4], "request": s[5], "note": s[6]}
            for s in self.spans
        ]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.records(), fh)


def load(path: str) -> List[Dict[str, Any]]:
    """Read, then remove, a span file written by :meth:`Recorder.write`."""
    with open(path, encoding="utf-8") as fh:
        records = json.load(fh)
    os.unlink(path)
    return records


def never_fired(records: List[Dict[str, Any]], expected) -> List[str]:
    """The names in ``expected`` that no record carries."""
    fired = {r["name"] for r in records}
    return [name for name in expected if name not in fired]


def _patch(recorder: Recorder, owner: Any, attr: str, name: str, note=None) -> None:
    setattr(owner, attr, recorder.wrap(name, getattr(owner, attr), note))


def _sim_note(sim, kind: str) -> Dict[str, Any]:
    return {
        "kind": kind,
        "execute_wall_s": sim.execute_wall_s,
        "setup_wall_s": sim.setup_wall_s,
        "events": sim.events,
        "messages": sim.total_messages,
        "macro_fallbacks": sim.macro_fallbacks,
    }


def install_engine(recorder: Recorder) -> None:
    """Spans around the linear-algebra and engine entry points the sweep
    workloads call: ``lu2d`` (noting its ``SimResult``), the test-matrix
    generator, the serial exactness check, and ``run_program``."""
    lu2d_mod = importlib.import_module("repro.linalg.lu2d")
    blocklu = importlib.import_module("repro.linalg.blocklu")
    simmpi = importlib.import_module("repro.simmpi")
    _patch(recorder, lu2d_mod, "lu2d", "linalg.lu2d",
           lambda res, a, kw: _sim_note(res.sim, kw.get("delivery", "alphabeta")))
    _patch(recorder, lu2d_mod, "serial_lu_nopivot", "linalg.serial_check")
    _patch(recorder, blocklu, "make_test_matrix", "linalg.make_matrix")
    _patch(recorder, simmpi, "run_program", "simmpi.run_program",
           lambda res, a, kw: _sim_note(res, a[2].__name__.strip("_").replace("_program", "")))


def install_server(recorder: Recorder) -> None:
    """Spans around the serve layers, patched where they are looked up.

    The request root is ``JobServer._dispatch``; its request id is
    ``"<client port>-<n>"`` for the n-th request on that connection, the
    same id the load generator computes on its side of the socket.
    """
    jobs = importlib.import_module("repro.serve.jobs")
    app = importlib.import_module("repro.serve.app")
    backends = importlib.import_module("repro.serve.backends")
    cache = importlib.import_module("repro.sweep.cache")

    _patch(recorder, jobs, "parse_job_spec", "protocol.parse")
    _patch(recorder, app, "parse_job_batch", "protocol.parse")
    _patch(recorder, jobs, "batch_cache_keys", "cache.key")
    _patch(recorder, cache.RunCache, "get", "cache.get",
           lambda res, a, kw: {"hit": res is not (a[2] if len(a) > 2 else kw.get("default"))})
    _patch(recorder, cache.RunCache, "put", "cache.put")
    _patch(recorder, jobs.JobManager, "submit", "jobs.submit")
    _patch(recorder, jobs.JobManager, "submit_batch", "jobs.submit")
    _patch(recorder, jobs.Job, "to_payload", "jobs.payload")

    backends.PoolBackend.run_point = recorder.wrap_async(
        "backend.run_point",
        backends.PoolBackend.run_point,
        note=lambda res, a, kw: {
            "setup_wall_s": res.get("setup_wall_s", 0.0),
            "execute_wall_s": res.get("execute_wall_s", 0.0),
            "wall_s": res.get("wall_s", 0.0),
        },
    )

    served: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def request_of(args) -> str:
        writer = args[4]
        served[writer] = served.get(writer, 0) + 1
        return f"{writer.get_extra_info('peername')[1]}-{served[writer]}"

    app.JobServer._dispatch = recorder.wrap_async(
        "server.request", app.JobServer._dispatch, request_of=request_of
    )
