"""A/B equivalence: collective macro-ops must be invisible in the results.

``Engine(macro_ops=False)`` forces every collective through the
per-message event cascade; ``macro_ops=True`` (the default) lets
supported collectives running untraced under plain alpha-beta delivery
collapse into one engine-level macro-event.  The two schedules must be
*bit-identical* -- same makespan, same per-rank stats, same returned
values -- across protocol, algorithm, rank-count, and communicator
variations.  Event *counts* legitimately differ (that reduction is the
whole point), so these tests never compare ``.events`` between the two
settings except to prove the macro path actually engaged.

The suite also pins the soundness envelope: tracing, contention
delivery, fault injection, or in-flight point-to-point traffic must
auto-disable or fall back to the event path, and rendezvous deadlocks
inside cyclic patterns must reproduce identically.
"""

import itertools

import numpy as np
import pytest

from repro.machine.presets import intel_paragon, touchstone_delta
from repro.simmpi import Engine
from repro.simmpi.macro import NARROW_ROUND_PAIRS, _narrow
from repro.util.errors import DeadlockError

EAGER = float("inf")
RENDEZVOUS = 0.0

# Largest groups still priced message by message: dissemination rounds
# pair every member; binomial trees average (p - 1) / ceil(log2 p) pairs
# per round, so they stay narrow to a much larger p.
DENSE_CROSSOVER = NARROW_ROUND_PAIRS
TREE_CROSSOVER = max(p for p in range(2, 1024) if _narrow("bcast", "tree", p))


def _acyclic_program(comm):
    """Collectives whose macro schedules are rendezvous-safe.

    Tree/ring/flat fan-outs and binomial folds have acyclic message
    dependencies, so they complete under any eager threshold; compute
    skew staggers the entry times so per-rank clocks genuinely differ.
    """
    yield from comm.compute(seconds=1e-4 * (comm.rank % 7))
    yield from comm.barrier()
    v = yield from comm.bcast((comm.rank, "payload"), root=1)
    total = yield from comm.reduce(float(comm.rank), op="sum", root=0)
    vec = yield from comm.reduce(
        np.full(5, float(comm.rank)), op="sum", root=comm.size - 1
    )
    yield from comm.compute(seconds=2e-5 * ((comm.rank * 3) % 5))
    s = yield from comm.allreduce(comm.rank + 1, op="max", algorithm="reduce_bcast")
    return (v, total, vec, s)


def _cyclic_program(comm):
    """Butterfly/ring/shift patterns -- macro-eligible only when eager."""
    yield from comm.compute(seconds=1e-4 * (comm.rank % 4))
    s = yield from comm.allreduce(
        float(comm.rank), op="sum", algorithm="recursive_doubling"
    )
    gathered = yield from comm.allgather(comm.rank * 10)
    swapped = yield from comm.alltoall([comm.rank * comm.size + j for j in range(comm.size)])
    return (s, gathered, swapped)


def _bcast_program_factory(algorithm):
    def program(comm):
        yield from comm.compute(seconds=3e-5 * (comm.rank % 6))
        a = yield from comm.bcast([comm.rank], root=0, algorithm=algorithm)
        b = yield from comm.bcast("x" * 200, root=comm.size - 1, algorithm=algorithm)
        c = yield from comm.bcast(
            np.arange(comm.rank, comm.rank + 6.0), root=comm.size // 2,
            algorithm=algorithm,
        )
        # Every member owns its delivered copy: an in-place update must
        # not show through on any other rank.
        c += comm.rank
        return (a, b, c)

    return program


def _run(program, p, macro, *, machine=None, eager=EAGER, **kw):
    engine = Engine(
        machine or touchstone_delta(),
        p,
        seed=7,
        eager_threshold_bytes=eager,
        macro_ops=macro,
        **kw,
    )
    return engine.run(program)


def _assert_identical(macro, ref):
    """Time, per-rank stats, and returns match exactly (no tolerance)."""
    assert macro.time == ref.time
    assert macro.stats == ref.stats
    assert repr(macro.returns) == repr(ref.returns)
    assert _plain(macro.returns) == _plain(ref.returns)


def _plain(value):
    """Returns with ndarrays as (dtype, shape, bytes), so == compares them."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@pytest.mark.parametrize(
    "p,eager",
    list(itertools.product(
        [5, DENSE_CROSSOVER - 1, DENSE_CROSSOVER, DENSE_CROSSOVER + 1, 48,
         TREE_CROSSOVER - 1, TREE_CROSSOVER, TREE_CROSSOVER + 1],
        [EAGER, RENDEZVOUS],
    )),
)
def test_acyclic_collectives_bit_identical(p, eager):
    ref = _run(_acyclic_program, p, False, eager=eager)
    macro = _run(_acyclic_program, p, True, eager=eager)
    _assert_identical(macro, ref)
    assert macro.events < ref.events  # the macro path actually engaged


@pytest.mark.parametrize(
    "algorithm,p",
    [pytest.param(alg, 33, id=alg) for alg in ("tree", "ring", "flat")]
    + [
        pytest.param("tree", p, id=f"tree-{p}")
        for p in (TREE_CROSSOVER - 1, TREE_CROSSOVER, TREE_CROSSOVER + 1)
    ],
)
@pytest.mark.parametrize("eager", [EAGER, RENDEZVOUS])
def test_bcast_algorithms_bit_identical(algorithm, p, eager):
    program = _bcast_program_factory(algorithm)
    ref = _run(program, p, False, eager=eager)
    macro = _run(program, p, True, eager=eager)
    _assert_identical(macro, ref)
    assert macro.events < ref.events


@pytest.mark.parametrize("p", [4, 32, 37])
def test_cyclic_collectives_bit_identical_when_eager(p):
    ref = _run(_cyclic_program, p, False)
    macro = _run(_cyclic_program, p, True)
    _assert_identical(macro, ref)
    assert macro.events < ref.events


def test_macro_at_2048_ranks_bit_identical():
    """The paper-scale case: a 2048-node Paragon, acyclic collectives."""
    machine = intel_paragon(32, 64)

    def program(comm):
        yield from comm.compute(seconds=1e-5 * (comm.rank % 9))
        v = yield from comm.bcast(1.5, root=0)
        t = yield from comm.reduce(float(comm.rank), op="sum", root=0)
        yield from comm.barrier()
        return (v, t)

    ref = _run(program, 2048, False, machine=machine)
    macro = _run(program, 2048, True, machine=machine)
    _assert_identical(macro, ref)
    assert macro.events < ref.events // 5


def test_rendezvous_cyclic_deadlock_reproduces_on_both_paths():
    """Cyclic patterns bail out of the macro path under rendezvous, so
    the event path's legitimate deadlock is reproduced, not papered
    over."""

    def program(comm):
        s = yield from comm.allreduce(1.0, algorithm="recursive_doubling")
        return s

    for macro in (False, True):
        with pytest.raises(DeadlockError):
            _run(program, 8, macro, eager=RENDEZVOUS)


def test_deadlock_message_identical_after_macro_success():
    """A successful macro collective burns the tag block the event-path
    impl would have drawn, so a *later* fallback deadlocks with the
    identical tag in its report on both paths."""

    def program(comm):
        v = yield from comm.bcast(float(comm.rank) + 1, root=3)  # acyclic: macro ok
        s = yield from comm.allreduce(v, algorithm="recursive_doubling")
        return s

    messages = []
    for macro in (False, True):
        with pytest.raises(DeadlockError) as exc:
            _run(program, 16, macro, eager=RENDEZVOUS)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]


def test_inflight_traffic_falls_back_to_event_path():
    """A member with undelivered point-to-point traffic is unsound for
    closed-form evaluation; the collective must fall back yet stay
    bit-identical."""

    def program(comm):
        h = None
        if comm.rank == 0:
            h = yield from comm.isend(3.25, dest=1, tag=9)
        v = yield from comm.bcast("late", root=2)
        if comm.rank == 0:
            yield from comm.wait(h)
        if comm.rank == 1:
            msg = yield from comm.recv(source=0, tag=9)
            return (v, msg.payload)
        return (v, None)

    ref = _run(program, 6, False)
    macro = _run(program, 6, True)
    _assert_identical(macro, ref)


def test_group_comm_collectives_bit_identical():
    """Sub-communicator collectives macroize per group and stay exact."""

    def program(comm):
        evens = [r for r in range(comm.size) if r % 2 == 0]
        odds = [r for r in range(comm.size) if r % 2 == 1]
        yield from comm.compute(seconds=5e-5 * (comm.rank % 5))
        sub = comm.group(evens if comm.rank % 2 == 0 else odds)
        v = yield from sub.bcast(comm.rank * 2.0, root=0)
        t = yield from sub.allreduce(1.0)
        w = yield from comm.bcast(v + t, root=3)
        return (v, t, w)

    ref = _run(program, 12, False)
    macro = _run(program, 12, True)
    _assert_identical(macro, ref)
    assert macro.events < ref.events


class TestAutoDisable:
    """Tracing, contention, and fault injection silently force the
    event path: macro on/off must then agree on *everything*, including
    the event count."""

    def _assert_event_path(self, macro, ref):
        _assert_identical(macro, ref)
        assert macro.events == ref.events

    def test_tracing_disables_macro(self):
        def run(macro):
            return _run(_acyclic_program, 8, macro, trace=True)

        ref = run(False)
        macro = run(True)
        self._assert_event_path(macro, ref)
        assert macro.tracer.records == ref.tracer.records

    def test_contention_delivery_disables_macro(self):
        def run(macro):
            return _run(_acyclic_program, 8, macro, delivery="contention")

        self._assert_event_path(run(True), run(False))

    def test_fault_injection_disables_macro(self):
        # The failure never fires (the program finishes first), but its
        # mere configuration must force the event path.
        def run(macro):
            return _run(_acyclic_program, 8, macro, fail_at={0: 1e9})

        self._assert_event_path(run(True), run(False))

    def test_macro_ops_false_disables_macro(self):
        a = _run(_acyclic_program, 8, False)
        b = _run(_acyclic_program, 8, False)
        self._assert_event_path(a, b)


def test_macro_ops_flag_round_trips():
    assert Engine(touchstone_delta(), 4).macro_ops is True
    assert Engine(touchstone_delta(), 4, macro_ops=False).macro_ops is False


# ---------------------------------------------------------------------------
# the pipelined binomial tree joins the macro set
# ---------------------------------------------------------------------------

def test_tree_nb_bcast_bit_identical_and_engages_when_eager():
    program = _bcast_program_factory("tree_nb")
    ref = _run(program, 33, False)
    macro = _run(program, 33, True)
    _assert_identical(macro, ref)
    assert macro.events < ref.events
    assert macro.macro_fallbacks == 0


def test_tree_nb_bcast_bails_to_event_path_under_rendezvous():
    # Above the eager threshold the pipelined tree's isend overlap is
    # not the blocking tree's schedule, so the macro must refuse and
    # replay the cascade -- identically.
    program = _bcast_program_factory("tree_nb")
    ref = _run(program, 17, False, eager=RENDEZVOUS)
    macro = _run(program, 17, True, eager=RENDEZVOUS)
    _assert_identical(macro, ref)
    assert macro.macro_fallbacks > 0


# ---------------------------------------------------------------------------
# lu2d's panel broadcasts ride the macro dispatcher
# ---------------------------------------------------------------------------

def _lu2d_pair(*, overlap, eager=EAGER, side=4, n=24):
    from repro.linalg.decomp import ProcessGrid2D
    from repro.linalg.lu2d import lu2d

    machine = touchstone_delta().subset(side * side)
    rng = np.random.default_rng(11)
    a = rng.standard_normal((n, n)) + n * np.eye(n)
    grid = ProcessGrid2D(side, side)
    kw = dict(nb=2, seed=7, overlap=overlap, eager_threshold_bytes=eager)
    ref = lu2d(machine, grid, a, macro_ops=False, **kw)
    macro = lu2d(machine, grid, a, **kw)
    return ref, macro


@pytest.mark.parametrize("overlap", [False, True])
def test_lu2d_panel_broadcasts_collapse_to_macro_events(overlap):
    ref, macro = _lu2d_pair(overlap=overlap)
    assert macro.sim.time == ref.sim.time
    assert macro.sim.stats == ref.sim.stats
    assert np.array_equal(macro.lu, ref.lu)
    # The pivot/panel broadcasts went through the dispatcher and parked
    # as single collective events: fewer engine events, no fallbacks.
    assert macro.sim.events < ref.sim.events
    assert macro.sim.macro_fallbacks == 0


@pytest.mark.parametrize("overlap", [False, True])
def test_lu2d_8x8_grid_bit_identical(overlap):
    """The sweep-lu2d grid shape: 8-member row and column groups."""
    ref, macro = _lu2d_pair(overlap=overlap, side=8, n=64)
    assert macro.sim.time == ref.sim.time
    assert macro.sim.stats == ref.sim.stats
    assert np.array_equal(macro.lu, ref.lu)
    assert macro.sim.total_messages == ref.sim.total_messages
    # One parked event per member per broadcast, whatever the pricing
    # route: the count the macro path has always produced here.
    assert macro.sim.events == 12488
    assert ref.sim.events == (25970 if overlap else 18914)
    assert macro.sim.macro_fallbacks == 0


def test_lu2d_macro_survives_rendezvous_bail():
    # A threshold small enough that some panel payloads exceed it: the
    # tree_nb macro refuses those broadcasts and the event path replays
    # them, still bit-identical.
    ref, macro = _lu2d_pair(overlap=True, eager=16.0)
    assert macro.sim.time == ref.sim.time
    assert np.array_equal(macro.lu, ref.lu)
    assert macro.sim.macro_fallbacks > 0
