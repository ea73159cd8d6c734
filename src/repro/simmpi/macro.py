"""Closed-form (macro-op) evaluation of collective schedules.

When a collective runs untraced under plain
:class:`~repro.simmpi.delivery.AlphaBetaDelivery` with no fault
injection pending, the per-message event cascade it would generate is a
*deterministic closed-form function* of the members' entry clocks and
the alpha-beta parameters: no outside event can alter a match, arrival,
or handshake inside the collective.  This module replays that cascade
analytically -- same messages, same arithmetic expressions, same
floating-point evaluation order per rank -- without touching the event
heap, so every member takes exactly one event per collective instead of
O(log P)..O(P).  Schedules whose rounds average at most
:data:`NARROW_ROUND_PAIRS` pairs are priced message by message on
Python floats; wider ones price each round with numpy.

Bit-exactness contract
----------------------

Every helper below mirrors the engine's fused eager-send handler and
the protocols' rendezvous arithmetic *expression for expression*:

* eager send:   ``arrival = ab.arrival(src, dst, nbytes, now)`` then the
  per-pair FIFO clamp; ``clear = now + overhead``.
* rendezvous:   ``handshake = max(recv_post, park)``; arrival computed
  at the handshake; ``comm_time += (handshake - park) + overhead``.
* blocking recv: ``completion = max(arrival, blocked_since)``.

Per-rank statistics are accumulated on *local copies seeded from the
live values* and committed absolutely, so the float addition order per
rank is identical to the event path (each rank's stats are only ever
touched by its own ops, in program order).

Evaluation is transactional: local clocks, stats, and a
``_last_arrival`` overlay are the only mutable state until
:meth:`_Sched.commit`, so bailing out at any point (``_Bail``) is safe
-- the engine then resumes every member with ``MACRO_FALLBACK`` and the
real message algorithm runs from the same entry clocks.  The only
side effects before commit are the delivery model's deterministic
``_fixed`` / overhead memos, which cache pure functions of (src, dst).

Supported schedules (anything else falls back): dissemination barrier,
binomial-tree / ring / flat bcast, binomial reduce, recursive-doubling
allreduce, ring allgather, cyclic alltoall.  Cyclic patterns
(butterfly, rings, alltoall) are evaluated only when every message is
eager; a rendezvous message there means the event path's behaviour
(including its deadlock) must be reproduced for real, so we bail.
Declared neighbor-exchange stencil phases price through the same
:class:`_Sched` machinery via :mod:`repro.simmpi.stencil`.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.simmpi.requests import CollectiveReq, copy_payload, payload_nbytes

#: (kind, algorithm) pairs the evaluator can reproduce exactly.
SUPPORTED = frozenset({
    ("barrier", "dissemination"),
    ("bcast", "tree"),
    ("bcast", "tree_nb"),
    ("bcast", "ring"),
    ("bcast", "flat"),
    ("reduce", "binomial"),
    ("allreduce", "recursive_doubling"),
    ("allgather", "ring"),
    ("alltoall", "cyclic"),
})

#: Mean pairs per round at or below which a schedule is priced message
#: by message on Python floats; wider schedules price each round in
#: numpy.  A numpy round has a fixed cost of a few dozen array calls, a
#: scalar message a handful of float operations, so the crossover is a
#: round width.  DESIGN.md ("Macro-ops and when they are sound") records
#: the measurement that chose it.
NARROW_ROUND_PAIRS = 32


def _narrow(kind: str, algorithm: Any, p: int) -> bool:
    """Whether the schedule's rounds average at most
    :data:`NARROW_ROUND_PAIRS` pairs."""
    if kind == "bcast" or kind == "reduce":
        if algorithm == "ring" or algorithm == "flat":
            return True  # one message at a time at any size
        # Binomial tree: p - 1 messages over ceil(log2 p) rounds.
        return p - 1 <= NARROW_ROUND_PAIRS * (p - 1).bit_length()
    if kind == "allgather" or kind == "alltoall":
        return True  # scalar sends only, at any size
    # Dissemination, butterfly and stencil rounds pair every member.
    return p <= NARROW_ROUND_PAIRS


class _Bail(Exception):
    """The schedule is not analytically exact here (rendezvous inside a
    cyclic pattern); the caller replays the event path instead."""


class _Sched:
    """Transactional per-collective scheduler state.

    Clocks and stats are local absolute copies; ``overlay`` shadows the
    run's per-pair FIFO clamp table.  Nothing escapes until
    :meth:`commit`.
    """

    __slots__ = (
        "run", "members", "p", "narrow", "idx", "clock", "comm_t", "sent_n",
        "sent_b", "recv_n", "recv_b", "eager_max", "ab", "n", "overlay", "last",
        "oh_memo", "_members_arr", "_nodes", "fifo_cap",
    )

    def __init__(
        self, run: Any, members: Sequence[int], clocks: Sequence[float], narrow: bool
    ):
        self.run = run
        self.members = members
        p = len(members)
        self.p = p
        self.narrow = narrow
        self.idx: Any = None
        if narrow:
            # Plain Python floats/ints gathered through the run's
            # memoryviews (the storage the per-rank views read): the
            # scalar primitives then do float arithmetic, not numpy
            # scalar arithmetic, and nothing is converted at commit.
            self.clock = (
                clocks.tolist() if isinstance(clocks, np.ndarray) else list(clocks)
            )
            col = run._comm_t
            self.comm_t = [col[m] for m in members]
            col = run._sent_n
            self.sent_n = [col[m] for m in members]
            col = run._sent_b
            self.sent_b = [col[m] for m in members]
            col = run._recv_n
            self.recv_n = [col[m] for m in members]
            col = run._recv_b
            self.recv_b = [col[m] for m in members]
        else:
            # Numpy storage: scalar helpers index element-wise
            # (identical IEEE arithmetic to plain floats), vector
            # helpers price a whole permutation round in a handful of
            # array ops.
            self.clock = np.array(clocks, dtype=np.float64)
            if run._columnar:
                # Columnar gather: one fancy-index copy per stats column
                # out of the run's MachineState (the live values the
                # per-rank reads below would see, bit for bit).
                idx = np.fromiter(members, np.intp, count=p)
                ms = run.ms
                self.comm_t = ms.comm_time[idx]
                self.sent_n = ms.messages_sent[idx]
                self.sent_b = ms.bytes_sent[idx]
                self.recv_n = ms.messages_received[idx]
                self.recv_b = ms.bytes_received[idx]
                self.idx = idx
            else:
                ranks = run.ranks
                self.comm_t = np.fromiter(
                    (ranks[m].stats.comm_time for m in members), np.float64, count=p
                )
                self.sent_n = np.fromiter(
                    (ranks[m].stats.messages_sent for m in members), np.int64, count=p
                )
                self.sent_b = np.fromiter(
                    (ranks[m].stats.bytes_sent for m in members), np.float64, count=p
                )
                self.recv_n = np.fromiter(
                    (ranks[m].stats.messages_received for m in members), np.int64, count=p
                )
                self.recv_b = np.fromiter(
                    (ranks[m].stats.bytes_received for m in members), np.float64, count=p
                )
        self.eager_max = run._eager_max
        self.ab = run.delivery  # guaranteed AlphaBetaDelivery by the engine
        self.n = run._n
        self.overlay: dict = {}
        self.last = run._last_arrival
        # Upper bound on every arrival recorded in ``last`` + overlay,
        # built by the first vectorised round that needs it (an
        # O(table) scan the scalar primitives never do).
        self.fifo_cap: Optional[float] = None
        self.oh_memo = run._overhead
        self._members_arr: Any = None
        self._nodes: Any = None

    # -- message primitives -------------------------------------------------

    def send(self, gs: int, gd: int, nbytes: int) -> float:
        """One send issued at ``gs``'s current clock toward ``gd``.

        Valid only where ``gd``'s matching receive is posted at ``gd``'s
        *current* local clock (true for every acyclic schedule below:
        the receiver's recv is its next pending op).  Returns the
        message's arrival time at the destination.
        """
        clock = self.clock
        now = clock[gs]
        rendezvous = nbytes > self.eager_max
        if rendezvous:
            post = clock[gd]
            start = post if post > now else now  # handshake
        else:
            start = now
        members = self.members
        src = members[gs]
        dst = members[gd]
        key = src * self.n + dst
        ab = self.ab
        fixed = ab._fixed.get(key)
        if fixed is None:
            arrival = ab.arrival(src, dst, nbytes, start)
        else:
            arrival = start + (fixed + nbytes / ab._bw)
        overlay = self.overlay
        prev = overlay.get(key)
        if prev is None:
            prev = self.last.get(key)
        if prev is not None and prev > arrival:
            arrival = prev
        # Plain float: commit bulk-merges the overlay into the run
        # table, so no numpy scalar may be stored here.
        arrival = float(arrival)
        overlay[key] = arrival
        cap = self.fifo_cap
        if cap is not None and arrival > cap:
            self.fifo_cap = arrival
        oh = self.oh_memo.get(key)
        if oh is None:
            oh = self.oh_memo[key] = ab.overhead(src, dst)
        if rendezvous:
            clock[gs] = start + oh
            self.comm_t[gs] += (start - now) + oh
        else:
            clock[gs] = now + oh
            self.comm_t[gs] += oh
        self.sent_n[gs] += 1
        self.sent_b[gs] += nbytes
        return arrival

    def send_eager(self, gs: int, gd: int, nbytes: int) -> float:
        """Like :meth:`send` but refuses rendezvous -- used inside cyclic
        schedules where a synchronous send means the event path must run
        (it may legitimately deadlock there)."""
        if nbytes > self.eager_max:
            raise _Bail
        return self.send(gs, gd, nbytes)

    def recv(self, gd: int, arrival: float, nbytes: int) -> float:
        """Complete a blocking receive posted at ``gd``'s current clock."""
        clock = self.clock
        blocked_since = clock[gd]
        completion = arrival if arrival > blocked_since else blocked_since
        self.comm_t[gd] += completion - blocked_since
        self.recv_n[gd] += 1
        self.recv_b[gd] += nbytes
        clock[gd] = completion
        return completion

    # -- round primitives -----------------------------------------------------

    def send_round(self, srcs, dsts, nbytes) -> "np.ndarray":
        """:meth:`send` for every pair of one permutation round.

        Every listed source issues one send; (src, dst) pairs are
        distinct, no pair is a self-send, and each destination's
        matching receive is posted at its current clock (the acyclic /
        round-phased precondition of :meth:`send`).  ``nbytes`` is a
        scalar or per-pair array.  Callers inside cyclic schedules must
        reject rendezvous sizes *before* calling (see :meth:`send`'s
        eager-only counterpart).  Returns the arrivals as an array
        parallel to ``srcs``.

        A narrow schedule loops the scalar primitive; otherwise the
        round is priced in numpy, element for element the same float
        expressions as :meth:`send`.
        """
        if self.narrow:
            sizes = nbytes.tolist() if isinstance(nbytes, np.ndarray) else repeat(nbytes)
            out = list(map(self.send, srcs.tolist(), dsts.tolist(), sizes))
            return np.array(out, dtype=np.float64)
        clock = self.clock
        now = clock[srcs]
        rdv = nbytes > self.eager_max
        if np.any(rdv):
            # Handshake: start no earlier than the posted receive.
            starts = np.where(rdv, np.maximum(clock[dsts], now), now)
        else:
            starts = now
        members_arr = self._members_arr
        if members_arr is None:
            members_arr = self._members_arr = np.asarray(self.members, dtype=np.int64)
            run = self.run
            nodes = run._rank_nodes
            if nodes is None:
                # rank -> node map as an array, once per run.
                nodes = run._rank_nodes = np.asarray(self.ab.rank_map, dtype=np.int64)
            self._nodes = nodes[members_arr]
        nodes = self._nodes
        machine = self.ab.machine
        link = machine.link
        hops = machine.topology.hops_array(nodes[srcs], nodes[dsts])
        fixed = np.where(hops == 0, 0.0, link.latency_s + hops * link.per_hop_s)
        arrivals = starts + (fixed + nbytes / self.ab._bw)
        # Per-pair FIFO clamp against the run's live table + overlay.
        keys = (members_arr[srcs] * self.n + members_arr[dsts]).tolist()
        overlay = self.overlay
        cap = self.fifo_cap
        if cap is None:
            # Upper bound on every arrival recorded so far: lets a round
            # prove "no FIFO clamp can fire" in O(1) and skip the
            # per-pair dict probes entirely.
            cap = max(
                max(self.last.values(), default=float("-inf")),
                max(overlay.values(), default=float("-inf")),
            )
        if cap > float(arrivals.min()):
            # Some recorded arrival could exceed one of this round's:
            # probe both tables through C-level ``map(dict.get, ...)``
            # and clamp vectorised (a Python per-pair loop here costs
            # seconds per round at 10^5+ ranks).  An overlay entry is
            # always >= the run-table entry for the same key (it was
            # max-combined against it when stored), so taking the max
            # of both probes equals the overlay-first lookup.
            n_keys = len(keys)
            sentinel = float("-inf")
            prev = np.fromiter(
                map(self.last.get, keys, repeat(sentinel)),
                np.float64,
                count=n_keys,
            )
            if overlay:
                np.maximum(
                    prev,
                    np.fromiter(
                        map(overlay.get, keys, repeat(sentinel)),
                        np.float64,
                        count=n_keys,
                    ),
                    out=prev,
                )
            if bool((prev > arrivals).any()):
                arrivals = np.maximum(arrivals, prev)
        # Record the round in one bulk update instead of p dict stores
        # (tolist yields plain floats -- commit bulk-merges the overlay
        # into the run table).
        overlay.update(zip(keys, arrivals.tolist()))
        new_max = float(arrivals.max())
        self.fifo_cap = new_max if new_max > cap else cap
        # src != dst throughout, so the sender overhead is the constant
        # the memo would hold for every pair.
        oh = link.latency_s
        clock[srcs] = starts + oh
        # (starts - now) is exactly 0.0 for eager sends, so one fused
        # expression reproduces both protocols' comm_time charges.
        self.comm_t[srcs] += (starts - now) + oh
        self.sent_n[srcs] += 1
        self.sent_b[srcs] += nbytes
        return arrivals

    def recv_round(self, dsts, arrivals, nbytes) -> None:
        """:meth:`recv` over distinct destinations."""
        if self.narrow:
            sizes = nbytes.tolist() if isinstance(nbytes, np.ndarray) else repeat(nbytes)
            for args in zip(dsts.tolist(), arrivals.tolist(), sizes):
                self.recv(*args)
            return
        clock = self.clock
        blocked = clock[dsts]
        completion = np.maximum(arrivals, blocked)
        self.comm_t[dsts] += completion - blocked
        self.recv_n[dsts] += 1
        self.recv_b[dsts] += nbytes
        clock[dsts] = completion

    def commit(self) -> None:
        run = self.run
        if self.narrow:
            # Python numbers throughout: store them member by member
            # through the run's memoryviews.
            clk = run._clk
            comm_t = run._comm_t
            sent_n = run._sent_n
            sent_b = run._sent_b
            recv_n = run._recv_n
            recv_b = run._recv_b
            for m, c, ct, sn, sb, rn, rb in zip(
                self.members, self.clock, self.comm_t, self.sent_n,
                self.sent_b, self.recv_n, self.recv_b,
            ):
                clk[m] = c
                comm_t[m] = ct
                sent_n[m] = sn
                sent_b[m] = sb
                recv_n[m] = rn
                recv_b[m] = rb
            self.last.update(self.overlay)
            return
        # The caller's resume times must be plain Python floats (no
        # numpy scalars in the event loop's heap tuples); the committed
        # columns hold the same float64 bits either way.
        clock = self.clock.tolist()
        if self.idx is not None:
            # Columnar commit: one fancy-index assignment per column
            # writes the whole group back to the MachineState.
            ms = run.ms
            idx = self.idx
            ms.clock[idx] = self.clock
            ms.comm_time[idx] = self.comm_t
            ms.messages_sent[idx] = self.sent_n
            ms.bytes_sent[idx] = self.sent_b
            ms.messages_received[idx] = self.recv_n
            ms.bytes_received[idx] = self.recv_b
        else:
            ranks = run.ranks
            comm_t = self.comm_t.tolist()
            sent_n = self.sent_n.tolist()
            sent_b = self.sent_b.tolist()
            recv_n = self.recv_n.tolist()
            recv_b = self.recv_b.tolist()
            for g, m in enumerate(self.members):
                st = ranks[m]
                st.clock = clock[g]
                stats = st.stats
                stats.comm_time = comm_t[g]
                stats.messages_sent = sent_n[g]
                stats.bytes_sent = sent_b[g]
                stats.messages_received = recv_n[g]
                stats.bytes_received = recv_b[g]
        # Every overlay value is a plain Python float by construction
        # (send coerces, the round primitives store tolist products), so
        # the merge is one C-level bulk update.
        self.last.update(self.overlay)
        self.clock = clock


def _round_sizes(values: Sequence[Any]) -> Tuple[Any, int, bool]:
    """Wire sizes for one round's payloads: ``(nbytes, max, scalars)``.

    Python floats/ints dominate collective payloads and are a constant
    8 wire bytes (exactly what :func:`payload_nbytes` returns for
    them), so the common case skips the per-payload call.  ``scalars``
    additionally tells the caller that :func:`copy_payload` would be
    the identity on every payload.
    """
    if all(type(v) is float or type(v) is int for v in values):
        return 8, 8, True
    arr = np.fromiter(
        (payload_nbytes(v) for v in values), np.int64, count=len(values)
    )
    return arr, int(arr.max()) if len(values) else 0, False


# -- per-algorithm schedules ------------------------------------------------
#
# Each function replays the message algorithm's sends/recvs in an order
# consistent with the event path's causal order: round- or step-phased
# for symmetric patterns (all sends of a phase, then all recvs), and in
# dependency order for trees/rings/stars.  Within a phase, distinct
# ranks and distinct (src, dst) pairs make evaluation order irrelevant.


def _eval_barrier(s: _Sched, ghost: bool = False) -> List[Any]:
    p = s.p
    if 0 > s.eager_max:
        # An "everything rendezvous" configuration makes even the
        # empty-payload dissemination shifts synchronous, and the
        # pattern is cyclic: let the event path decide (it may
        # legitimately deadlock).
        raise _Bail
    idx = np.arange(p, dtype=np.intp)
    dist = 1
    while dist < p:
        dsts = idx + dist
        dsts[dsts >= p] -= p
        arrivals = s.send_round(idx, dsts, 0)  # nbytes 0: always eager
        s.recv_round(dsts, arrivals, 0)
        dist <<= 1
    return [None] if ghost else [None] * p


def _eval_bcast_tree(
    s: _Sched, root: int, value: Any, ghost: bool = False
) -> List[Any]:
    """Binomial tree, round-phased: in round k every virtual rank
    ``vr < 2**k`` that has its payload sends to ``vr + 2**k``.  Parent
    and child sets are disjoint within a round and every (parent,
    child) pair occurs exactly once in the whole tree, so the phased
    evaluation is order-equivalent to walking ranks in increasing
    virtual-rank order (each child's entry clock is untouched until its
    first-op recv runs, each parent's sends happen in mask order)."""
    p = s.p
    if s.narrow:
        # Pair by pair, parent before child: within a round the parents
        # and children are disjoint, so this is the round-phased order.
        # Delivery copies preserve wire size, so the root payload sizes
        # every message.
        send = s.send
        recv = s.recv
        nbytes = payload_nbytes(value)
        gr_of = [*range(root, p), *range(root)]  # virtual rank -> group rank
        vals = [None] * p  # delivered payloads, by virtual rank
        vals[0] = value
        mask = 1
        while mask < p:
            for vp in range(min(mask, p - mask)):
                vc = vp + mask
                gc = gr_of[vc]
                recv(gc, send(gr_of[vp], gc, nbytes), nbytes)
                vals[vc] = copy_payload(vals[vp])
            mask <<= 1
        out = vals[p - root:] + vals[:p - root]  # by group rank
        return out[:1] if ghost else out
    gr_of = np.arange(p, dtype=np.intp) + root  # virtual rank -> group rank
    gr_of[gr_of >= p] -= p
    if ghost:
        # Delivery copies preserve wire size, so the root payload sizes
        # every round; only group rank 0's delivery is observable, and
        # it follows the event path's buffering (scalars pass through,
        # anything else is a copy -- unless rank 0 *is* the root).
        scalars = type(value) is float or type(value) is int
        nbytes = 8 if scalars else payload_nbytes(value)
        mask = 1
        while mask < p:
            parents = np.arange(min(mask, p - mask), dtype=np.intp)
            children = parents + mask
            arrivals = s.send_round(gr_of[parents], gr_of[children], nbytes)
            s.recv_round(gr_of[children], arrivals, nbytes)
            mask <<= 1
        return [value if (root == 0 or scalars) else copy_payload(value)]
    vals: List[Any] = [None] * p     # delivered payloads, by virtual rank
    vals[0] = value
    out: List[Any] = [None] * p      # return values, by group rank
    mask = 1
    while mask < p:
        parents = np.arange(min(mask, p - mask), dtype=np.intp)
        children = parents + mask
        plist = parents.tolist()
        nbytes, _, scalars = _round_sizes([vals[vp] for vp in plist])
        arrivals = s.send_round(gr_of[parents], gr_of[children], nbytes)
        s.recv_round(gr_of[children], arrivals, nbytes)
        if scalars:
            for vp, vc in zip(plist, children.tolist()):
                vals[vc] = vals[vp]
        else:
            for vp, vc in zip(plist, children.tolist()):
                vals[vc] = copy_payload(vals[vp])
        mask <<= 1
    for vr in range(p):
        out[gr_of[vr]] = vals[vr]
    return out


def _eval_bcast_tree_nb(
    s: _Sched, root: int, value: Any, ghost: bool = False
) -> List[Any]:
    """Non-blocking binomial tree (lu2d/summa's pipelined panel path).

    With every message eager, ``tree_nb`` is expression-identical to
    the blocking tree: an eager isend charges the same overhead at the
    same clock as a blocking send and resumes at the same ``clear``,
    and the trailing waits find ready handles (``complete_at`` is
    always <= the waiter's clock), costing zero comm time and moving no
    clock.  Payload size is invariant down the tree (delivery copies
    preserve it), so one root-size check covers every round.  Any
    rendezvous-sized message decouples the transfer from the sender's
    progress -- real overlap only the event path reproduces -- so bail.
    """
    if payload_nbytes(value) > s.eager_max:
        raise _Bail
    return _eval_bcast_tree(s, root, value, ghost)


def _eval_bcast_ring(s: _Sched, root: int, value: Any) -> List[Any]:
    p = s.p
    out: List[Any] = [None] * p
    v = value
    arrival = 0.0
    nbytes = 0
    nxt: Any = None
    for vr in range(p):
        g = vr + root
        if g >= p:
            g -= p
        if vr > 0:
            s.recv(g, arrival, nbytes)
            v = nxt
        if vr < p - 1:
            right = g + 1
            if right >= p:
                right -= p
            nbytes = payload_nbytes(v)
            arrival = s.send(g, right, nbytes)
            nxt = copy_payload(v)
        out[g] = v
    return out


def _eval_bcast_flat(s: _Sched, root: int, value: Any) -> List[Any]:
    p = s.p
    out: List[Any] = [None] * p
    out[root] = value
    nbytes = payload_nbytes(value)
    for dst in range(p):
        if dst == root:
            continue
        arrival = s.send(root, dst, nbytes)
        s.recv(dst, arrival, nbytes)
        out[dst] = copy_payload(value)
    return out


def _eval_reduce(s: _Sched, root: int, reqs: Sequence[CollectiveReq]) -> List[Any]:
    """Binomial reduction: round-phased by mask; pairs within a round
    are disjoint.  Each receiver combines with *its own* resolved op,
    as the event path does."""
    p = s.p
    accs: List[Any] = [None] * p  # by virtual rank
    for g in range(p):
        vr = g - root
        if vr < 0:
            vr += p
        accs[vr] = reqs[g].value
    if s.narrow:
        # Pair by pair in increasing receiver order: a round's senders
        # are never its receivers, so this is the round-phased order.
        send = s.send
        recv = s.recv
        gr_of = [*range(root, p), *range(root)]  # virtual rank -> group rank
        mask = 1
        while mask < p:
            step = mask << 1
            for v in range(0, p - mask, step):
                pt = v + mask
                g = gr_of[v]
                payload = accs[pt]
                nbytes = payload_nbytes(payload)
                recv(g, send(gr_of[pt], g, nbytes), nbytes)
                accs[v] = reqs[g].op(accs[v], copy_payload(payload))
            mask = step
        out: List[Any] = [None] * p
        out[root] = accs[0]
        return out
    gr_of = np.arange(p, dtype=np.intp) + root  # virtual rank -> group rank
    gr_of[gr_of >= p] -= p
    mask = 1
    while mask < p:
        step = mask << 1
        vrs = np.arange(0, p, step, dtype=np.intp)
        partners = vrs + mask
        alive = partners < p
        vrs = vrs[alive]
        partners = partners[alive]
        if len(vrs):
            receivers = gr_of[vrs]
            senders = gr_of[partners]
            plist = partners.tolist()
            nbytes, _, scalars = _round_sizes([accs[pt] for pt in plist])
            arrivals = s.send_round(senders, receivers, nbytes)
            s.recv_round(receivers, arrivals, nbytes)
            if scalars:
                for v, pt, g in zip(vrs.tolist(), plist, receivers.tolist()):
                    accs[v] = reqs[g].op(accs[v], accs[pt])
            else:
                for v, pt, g in zip(vrs.tolist(), plist, receivers.tolist()):
                    accs[v] = reqs[g].op(accs[v], copy_payload(accs[pt]))
        mask = step
    out: List[Any] = [None] * p
    out[root] = accs[0]
    return out


def _eval_allreduce_rd(s: _Sched, reqs: Sequence[CollectiveReq]) -> List[Any]:
    """Recursive doubling: acyclic fold of the non-power-of-two excess,
    eager-only butterfly, acyclic hand-back."""
    p = s.p
    accs = [req.value for req in reqs]
    pof2 = 1
    while pof2 * 2 <= p:
        pof2 *= 2
    rem = p - pof2
    for r in range(pof2, p):  # fold: r's send and (r - pof2)'s recv are first ops
        payload = accs[r]
        nbytes = payload_nbytes(payload)
        arrival = s.send(r, r - pof2, nbytes)
        s.recv(r - pof2, arrival, nbytes)
        accs[r - pof2] = reqs[r - pof2].op(accs[r - pof2], copy_payload(payload))
    idx = np.arange(pof2, dtype=np.intp)
    mask = 1
    while mask < pof2:
        snapshot = accs[:pof2]  # payloads are the round-start accumulators
        nbytes, nb_max, scalars = _round_sizes(snapshot)
        if nb_max > s.eager_max:
            raise _Bail  # rendezvous inside the butterfly: event path decides
        partners = idx ^ mask
        arrivals = s.send_round(idx, partners, nbytes)
        s.recv_round(partners, arrivals, nbytes)
        if scalars:
            for r in range(pof2):
                accs[r] = reqs[r].op(accs[r], snapshot[r ^ mask])
        else:
            for r in range(pof2):
                accs[r] = reqs[r].op(accs[r], copy_payload(snapshot[r ^ mask]))
        mask <<= 1
    for r in range(rem):  # hand-back: receiver has been idle since the fold
        payload = accs[r]
        nbytes = payload_nbytes(payload)
        arrival = s.send(r, r + pof2, nbytes)
        s.recv(r + pof2, arrival, nbytes)
        accs[r + pof2] = copy_payload(payload)
    return accs


def _eval_allgather_ring(s: _Sched, reqs: Sequence[CollectiveReq]) -> List[Any]:
    p = s.p
    outs: List[List[Any]] = [[None] * p for _ in range(p)]
    carries = list(range(p))
    for r in range(p):
        outs[r][r] = reqs[r].value  # own slot keeps the original object
    for _step in range(p - 1):
        payloads: List[Any] = [None] * p
        arrivals = [0.0] * p
        nbv = [0] * p
        for r in range(p):
            c = carries[r]
            payload = (c, outs[r][c])
            nbytes = payload_nbytes(payload)
            right = r + 1
            if right >= p:
                right -= p
            arrivals[right] = s.send_eager(r, right, nbytes)
            nbv[right] = nbytes
            payloads[r] = payload
        for r in range(p):
            left = r - 1
            if left < 0:
                left += p
            s.recv(r, arrivals[r], nbv[r])
            c, payload = copy_payload(payloads[left])
            outs[r][c] = payload
            carries[r] = c
    return outs


def _eval_alltoall(s: _Sched, reqs: Sequence[CollectiveReq]) -> List[Any]:
    p = s.p
    vals = [req.value for req in reqs]  # each a length-p list of payloads
    outs: List[List[Any]] = []
    for r in range(p):
        o: List[Any] = [None] * p
        o[r] = vals[r][r]  # own slot keeps the original object
        outs.append(o)
    for shift in range(1, p):
        arrivals = [0.0] * p
        nbv = [0] * p
        for r in range(p):
            dst = r + shift
            if dst >= p:
                dst -= p
            nbytes = payload_nbytes(vals[r][dst])
            arrivals[dst] = s.send_eager(r, dst, nbytes)
            nbv[dst] = nbytes
        for r in range(p):
            src = r - shift
            if src < 0:
                src += p
            s.recv(r, arrivals[r], nbv[r])
            outs[r][src] = copy_payload(vals[src][r])
    return outs


def evaluate(
    run: Any,
    members: Sequence[int],
    reqs: Sequence[CollectiveReq],
    clocks: Sequence[float],
    ghost: bool = False,
) -> Optional[Tuple[List[float], List[Any]]]:
    """Evaluate one complete collective invocation analytically.

    ``reqs``/``clocks`` are indexed by group rank; ``members`` maps
    group rank to global rank.  Returns ``(finish_times, values)`` per
    group rank with clocks/stats/clamp-state already committed, or
    ``None`` when the schedule cannot be reproduced exactly (the caller
    then falls back to the event path; nothing was mutated).

    ``ghost`` is the closed-form engine's contract: every entry of
    ``reqs`` is the *same* request object (a rank-symmetric program
    priced from rank 0's yields) and only group rank 0's result is
    observable, so evaluators that would otherwise materialize one
    delivered payload per member (exchange, tree broadcasts, barrier)
    return a single-element list instead -- identical pricing, O(1)
    result assembly.  The remaining evaluators ignore the flag and
    return all p values.
    """
    req0 = reqs[0]
    kind = req0.kind
    s = _Sched(run, members, clocks, _narrow(kind, req0.algorithm, len(members)))
    try:
        if kind == "barrier":
            out = _eval_barrier(s, ghost)
        elif kind == "bcast":
            root = req0.root
            value = reqs[root].value
            alg = req0.algorithm
            if alg == "tree":
                out = _eval_bcast_tree(s, root, value, ghost)
            elif alg == "tree_nb":
                out = _eval_bcast_tree_nb(s, root, value, ghost)
            elif alg == "ring":
                out = _eval_bcast_ring(s, root, value)
            elif alg == "flat":
                out = _eval_bcast_flat(s, root, value)
            else:
                return None
        elif kind == "reduce":
            out = _eval_reduce(s, req0.root, reqs)
        elif kind == "allreduce":
            out = _eval_allreduce_rd(s, reqs)
        elif kind == "allgather":
            out = _eval_allgather_ring(s, reqs)
        elif kind == "alltoall":
            out = _eval_alltoall(s, reqs)
        elif kind == "exchange":
            # Stencil phase: the evaluator lives with its spec in
            # stencil.py, which imports this module (local import keeps
            # the dependency acyclic).
            from repro.simmpi.stencil import eval_exchange
            out = eval_exchange(s, reqs, ghost)
        else:
            return None
    except _Bail:
        return None
    s.commit()
    return s.clock, out
