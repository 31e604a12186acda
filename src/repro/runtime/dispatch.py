"""Specialized event-loop variants and table-driven handler dispatch.

The simulator's ``run()`` used to be one loop carrying every feature's
per-event branch — compute charging, crash checks, listener hooks — so the
common zero-compute/no-fault path paid for all of them on every event.
This module generates **monomorphic loop variants** from a single template
instead: each variant is compiled (once, cached process-wide) with exactly
the branches its feature set needs, so the hot path carries no dead code
and the variants cannot drift apart the way hand-maintained copies would.

Features (the variant key):

* ``compute`` — a non-trivial :class:`repro.runtime.compute.ComputeModel`
  is active: a delivery that finds the core busy waits in the replica's
  FIFO inbox (no scheduler event of its own), and one ``cpu`` wake event
  per non-empty inbox hands the head to the handler, charges it, and
  re-arms at the new free instant — O(1) scheduler operations per
  delivery however deep the backlog.  Only when another event shares a
  wake's exact instant (jitter-free lock-step runs) do the residents go
  back to the scheduler under their own keys for that instant, because
  ``(time, seq)`` order then decides waiter by waiter who reaches the
  core first.
* ``crash`` — the fault plan has crash windows: deliveries and timers are
  gated on ``is_crashed``.
* ``runahead`` — ``sbatch`` run-ahead is enabled (the default): a jittered
  broadcast's chain delivers member after member without a heap round
  trip while its successor provably precedes the heap head.  Disabled via
  :attr:`repro.runtime.simulator.Simulation.force_scalar_dispatch` (the
  re-push-every-successor reference used by the equivalence tests).

Every delivery is exactly one ``on_message`` call, in ``(time, seq)``
order; the variants differ only in how they reach the next event.

Byte-identity contract: every variant must replay the exact event order of
the reference loop — an ``sbatch`` run-ahead step is taken only when
``(next_time, batch_seq)`` sorts strictly before the heap head, and the
historical horizon edge (a *cancelled* timer at the heap head lets the
next real event dispatch without re-checking ``until``) is preserved.
``tests/test_golden_corpus.py`` and ``tests/test_dispatch_batch.py`` pin
this.

The loop returns the number of budget-consuming events processed.  It
exits early (after flushing its counters) when
``Simulation._dispatch_generation`` changes mid-run — feature toggles like
flipping ``force_scalar_dispatch`` bump the generation, and the ``run()``
driver re-selects the variant and resumes seamlessly.

Scheduler backends: the template above assumes the binary-heap scheduler
(``sim._queue`` is its raw list).  Under the calendar-queue backend
(:mod:`repro.runtime.scheduler`) a second template, ``_CALQ_TEMPLATE``,
renders instead: it walks the materialized current bucket by local index
(no per-event sift), merges the bucket's small "inc" heap of late
arrivals, and advances/materializes buckets through the scheduler's cold
methods.  Broadcast members arrive as lean 4-tuples — there is no
``sbatch`` kind, hence no run-ahead, under this backend.
``select_loop`` keys its cache on the backend name as well.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right

from repro.runtime.scheduler import _STD as _STD_TARGET
from typing import Any, Callable, Dict, Tuple

#: Effectively-unbounded event budget used when ``max_events`` is ``None``
#: (a single compare against an int is cheaper than a per-event ``None``
#: check).
UNBOUNDED = 0x7FFFFFFFFFFFFFFF

#: Event target used for injected external / batch events (not a replica
#: id); must match ``simulator._EXTERNAL_TARGET``.
_EXTERNAL_TARGET = -1


def build_handler_tables(protocols: Dict[int, Any], contexts: Dict[int, Any]):
    """Precompute per-target bound-method dispatch tables.

    Returns ``(deliver_one, fire_timer)`` mapping replica id to
    ``(bound_handler, context)`` pairs, so the loop does one subscript and
    a tuple unpack per dispatch instead of two dict lookups plus a
    bound-method allocation.  When the replica ids are exactly ``0..n-1``
    (the common case) the tables are lists — an index beats a hash probe —
    and dicts otherwise; the loop subscripts either transparently.
    """
    deliver_one = {}
    fire_timer = {}
    for replica_id, protocol in protocols.items():
        context = contexts[replica_id]
        deliver_one[replica_id] = (protocol.on_message, context)
        fire_timer[replica_id] = (protocol.on_timer, context)
    if sorted(protocols) == list(range(len(protocols))):
        deliver_one = [deliver_one[i] for i in range(len(protocols))]
        fire_timer = [fire_timer[i] for i in range(len(protocols))]
    return deliver_one, fire_timer


# --------------------------------------------------------------------- #
# Loop template
# --------------------------------------------------------------------- #
#
# Rendered per feature set by `_render` (an `#if/#else/#endif` line
# filter) and compiled once.  The template is the single source of truth
# for event-loop semantics; `Simulation.run()` and `Simulation.step()`
# both execute these rendered loops.

_LOOP_TEMPLATE = """\
def _loop(sim, until, budget):
    queue = sim._queue
    heappop = _heappop
    heappush = _heappush
    heappushpop = _heappushpop
    pending_timers = sim._pending_timers
    cancelled_timers = sim._cancelled_timers
    deliver_one = sim._deliver_one
    fire_timer = sim._fire_timer
#if CRASH
    is_crashed = sim.network.faults.is_crashed
#endif
#if COMPUTE
    compute = sim._compute
    message_cost = sim._compute_cost
    busy_until = compute.busy_until
    inboxes = compute.inbox
    enqueue = compute.enqueue
    record_wait = compute.record_wait
    record_busy = compute.record_busy
    seq = sim._seq
#endif
    generation = sim._dispatch_generation
    now = sim.now
    processed = 0
    delivered = 0
    dropped = 0
#if RUNAHEAD
    runahead = 0
#endif
    # ``pending`` holds an event already removed from the heap that must
    # be dispatched without re-running the top-of-loop checks: the event
    # after a cancelled timer (the preserved horizon edge) and the heap
    # head an sbatch run-ahead lost to (obtained via one heappushpop
    # instead of a push + pop).
    pending = None
    while True:
        if pending is not None:
            event = pending
            pending = None
        else:
#if BUDGET
            if not queue or processed >= budget:
                break
#else
            if not queue:
                break
#endif
            if queue[0][0] > until:
                break
            if sim._dispatch_generation != generation:
                break
            event = heappop(queue)
        time_, seq_, kind, target, payload = event
        # ``sbatch`` leads the kind chain: under jittered latency (the
        # scale-out configuration) nearly every event is a chained
        # broadcast member, so the dominant kind must win the dispatch
        # after a single compare.
        if kind == "sbatch":
            # One in-flight jittered broadcast: ``payload`` is the mutable
            # ``[times, targets, index, sender, message, count,
            # (sender, message)]`` state, times ascending (``index`` —
            # the resume point — must stay at slot 2).  Members are
            # delivered here without a heap round trip while the
            # successor provably precedes the heap head (run-ahead);
            # otherwise the successor is re-pushed under the batch's
            # ORIGINAL seq so exact-time ties break exactly as the
            # per-copy pushes would have.
            times, targets, index, sender, message, count, mpayload = payload
            while True:
                if time_ > now:
                    now = time_
                    sim.now = now
#if COMPUTE
                free_at = busy_until.get(target, 0.0)
                if free_at > time_:
                    # Busy core: this member waits in the replica's inbox
                    # (no budget charge); the first resident arms the wake.
                    wseq = next(seq)
                    if enqueue(target, time_, wseq, mpayload):
                        heappush(queue, (free_at, wseq, "cpu", target, None))
#if CRASH
                elif is_crashed(target, now):
                    dropped += 1
                    processed += 1
#endif
                else:
                    handler, ctx = deliver_one[target]
                    handler(ctx, sender, message)
                    delivered += 1
                    processed += 1
                    cost = message_cost(target, sender, message)
                    if cost > 0.0:
                        record_busy(target, now, cost)
                        if sim._compute_listeners:
                            sim._notify_compute("cpu-busy", target, now,
                                                cost, message)
#else
#if CRASH
                if is_crashed(target, now):
                    dropped += 1
                else:
                    handler, ctx = deliver_one[target]
                    handler(ctx, sender, message)
                    delivered += 1
                processed += 1
#else
                handler, ctx = deliver_one[target]
                handler(ctx, sender, message)
                delivered += 1
                processed += 1
#endif
#endif
                index += 1
                if index == count:
                    break
                time_ = times[index]
                target = targets[index]
#if RUNAHEAD
#if BUDGET
                if processed >= budget or time_ > until:
                    payload[2] = index
                    heappush(queue, (time_, seq_, "sbatch", target, payload))
                    break
#else
                if time_ > until:
                    payload[2] = index
                    heappush(queue, (time_, seq_, "sbatch", target, payload))
                    break
#endif
                # Run-ahead decision and heap exchange in one C call:
                # heappushpop first compares heap[0] < item — tuple order
                # on (time, seq), never reaching the payload — and returns
                # the item itself without sifting when it wins.  Getting
                # the successor back means no queued event precedes it
                # (exactly the old explicit head check), so this member is
                # delivered without any heap traffic; otherwise the
                # successor just replaced the head in a single sift.
                successor = (time_, seq_, "sbatch", target, payload)
                event = heappushpop(queue, successor)
                if event is successor:
                    runahead += 1
                    continue
                # The successor is now heap-resident: record its resume
                # index before anything else can pop it.
                payload[2] = index
                pending = event
                break
#else
                payload[2] = index
                heappush(queue, (time_, seq_, "sbatch", target, payload))
                break
#endif
        elif kind == "message":
            if time_ > now:
                now = time_
                sim.now = now
#if COMPUTE
            free_at = busy_until.get(target, 0.0)
            if free_at > time_:
                wseq = next(seq)
                if enqueue(target, time_, wseq, payload):
                    heappush(queue, (free_at, wseq, "cpu", target, None))
                continue
#endif
#if CRASH
            if is_crashed(target, now):
                dropped += 1
                processed += 1
                continue
#endif
            sender, message = payload
            handler, ctx = deliver_one[target]
            handler(ctx, sender, message)
            delivered += 1
            processed += 1
#if COMPUTE
            cost = message_cost(target, sender, message)
            if cost > 0.0:
                record_busy(target, now, cost)
                if sim._compute_listeners:
                    sim._notify_compute("cpu-busy", target, now, cost,
                                        message)
#include WAKE
#endif
        elif kind == "mbatch":
            # A same-instant broadcast group: every member is a delivery
            # at exactly ``time_``, processed back-to-back the way
            # consecutive per-copy pops would have been (nothing pushed
            # during processing can sort before a remaining member).
            # Each member counts against the budget; an exhausted budget
            # re-queues the tail under the batch's original heap key.
            targets, mpayload = payload
            sender, message = mpayload
            if time_ > now:
                now = time_
                sim.now = now
            mcount = len(targets)
            mindex = 0
            while mindex < mcount:
#if BUDGET
                if processed >= budget:
                    heappush(queue, (time_, seq_, "mbatch", _EXTERNAL_TARGET,
                                     (targets[mindex:], mpayload)))
                    break
#endif
                target = targets[mindex]
                mindex += 1
#if COMPUTE
                free_at = busy_until.get(target, 0.0)
                if free_at > time_:
                    # Busy core: this member waits; the rest of the group
                    # is unaffected.
                    wseq = next(seq)
                    if enqueue(target, time_, wseq, mpayload):
                        heappush(queue, (free_at, wseq, "cpu", target, None))
                    continue
#endif
#if CRASH
                if is_crashed(target, now):
                    dropped += 1
                    processed += 1
                    continue
#endif
                handler, ctx = deliver_one[target]
                handler(ctx, sender, message)
                delivered += 1
                processed += 1
#if COMPUTE
                cost = message_cost(target, sender, message)
                if cost > 0.0:
                    record_busy(target, now, cost)
                    if sim._compute_listeners:
                        sim._notify_compute("cpu-busy", target, now, cost,
                                            message)
#endif
        elif kind == "timer":
            timer_id = payload.timer_id
            pending_timers.discard(timer_id)
            if timer_id in cancelled_timers:
                cancelled_timers.discard(timer_id)
                # Preserved horizon edge: the event after a cancelled
                # timer is dispatched without re-checking ``until`` (or
                # the budget — the cancelled timer consumed none of it).
                if queue:
                    pending = heappop(queue)
                continue
            if time_ > now:
                now = time_
                sim.now = now
#if CRASH
            if is_crashed(target, now):
                processed += 1
                continue
#endif
            handler, ctx = fire_timer[target]
            handler(ctx, payload)
            processed += 1
        elif kind == "external":
            if time_ > now:
                now = time_
                sim.now = now
            # External callbacks (workload probes, chaos hooks) may read
            # the simulation's counters: flush the local tallies first.
            sim._messages_delivered += delivered
            sim._messages_dropped += dropped
            delivered = 0
            dropped = 0
            payload()
            processed += 1
        else:
            raise RuntimeError("unknown event kind %r" % (kind,))
    if pending is not None:
        heappush(queue, pending)
    sim._messages_delivered += delivered
    sim._messages_dropped += dropped
#if RUNAHEAD
    stats = sim._dispatch_counts
    stats["runahead_members"] += runahead
#endif
    return processed
"""


# --------------------------------------------------------------------- #
# Calendar-queue loop template
# --------------------------------------------------------------------- #
#
# Walks the scheduler's materialized current bucket by a local index
# instead of popping a heap.  The bucket is four parallel columns (times /
# targets / senders / messages) of plain scalars — no per-event tuples, so
# a materialized bucket is invisible to the cyclic garbage collector and
# the fast path is four C-level list indexes per delivery.  A standard
# 5-tuple event (timer, external, unicast message, mbatch, cpu wake)
# marks its row with a negative sentinel target and parks the tuple in
# the message column.  Events that arrive *inside* the open bucket land
# in the scheduler's small `_inc` heap and are merged by time (residents
# win exact-time ties — they were scheduled first; compute variants break
# a tie with a standard resident by seq, because a wake hands waiters
# back under older seqs).  `run_end` pre-cuts the
# walk at the `until` horizon via one bisect, so the fast path carries no
# per-event horizon compare.

_CALQ_TEMPLATE = """\
def _loop(sim, until, budget):
    sched = sim._scheduler
    heappop = _heappop
    _len = len
    pending_timers = sim._pending_timers
    cancelled_timers = sim._cancelled_timers
    deliver_one = sim._deliver_one
    fire_timer = sim._fire_timer
    sched_push = sched.push
#if CRASH
    is_crashed = sim.network.faults.is_crashed
#endif
#if COMPUTE
    compute = sim._compute
    message_cost = sim._compute_cost
    busy_until = compute.busy_until
    inboxes = compute.inbox
    enqueue = compute.enqueue
    record_wait = compute.record_wait
    record_busy = compute.record_busy
    seq = sim._seq
#endif
    generation = sim._dispatch_generation
    now = sim.now
    processed = 0
    delivered = 0
    dropped = 0
    inc_pops = 0
    times = sched._cur_times
    targs = sched._cur_targets
    sends = sched._cur_senders
    msgs = sched._cur_messages
    pos = sched._pos
    cur_len = len(times)
    inc = sched._inc
    if cur_len == 0 or times[cur_len - 1] <= until:
        run_end = cur_len
    else:
        run_end = _bisect_right(times, until, pos)
    # ``pending`` holds an event already removed from the queue that must
    # be dispatched without re-running the top-of-loop checks — the event
    # after a cancelled timer (the preserved horizon edge).
    pending = None
    while True:
        if pending is not None:
            event = pending
            pending = None
        else:
#if BUDGET
            if processed >= budget:
                break
#endif
#if COMPUTE
            if inc and not (pos < run_end and (
                    times[pos] < inc[0][0] or times[pos] == inc[0][0]
                    and (targs[pos] >= 0 or msgs[pos][1] < inc[0][1]))):
                # As below, except that a wake hands waiters back under
                # seqs older than a resident's: an exact-time tie with a
                # standard resident goes by seq.
#else
            if inc and not (pos < run_end and times[pos] <= inc[0][0]):
#endif
                # The inc heap's head (an event scheduled into the open
                # bucket after it materialized) is due before the next
                # resident; exact-time ties go to residents — they were
                # scheduled first.
                event = inc[0]
                if event[0] > until:
                    break
                if sim._dispatch_generation != generation:
                    break
                heappop(inc)
                inc_pops += 1
            else:
                # Burst: walk consecutive bucket rows with no per-event
                # queue bookkeeping.  The inc boundary is a cached float
                # (refreshed only when a handler grew the heap — pops
                # never happen mid-burst), the ``until`` horizon is the
                # precomputed ``run_end``, and the budget pre-cuts
                # ``stop`` instead of a per-event compare.  The generation
                # check runs once per burst: a mid-run bump (listener
                # attach / force-scalar toggle) changes neither this
                # variant's selection nor its in-loop behaviour, so burst
                # granularity is observationally identical.
                if sim._dispatch_generation != generation:
                    break
                stop = run_end
#if BUDGET
                rem = budget - processed
                if stop - pos > rem:
                    stop = pos + rem
#endif
                if inc:
                    inc_t = inc[0][0]
                else:
                    inc_t = _INF
                inc_n = _len(inc)
#if TALLY
                burst_base = pos
#endif
                while pos < stop:
                    time_ = times[pos]
                    if time_ > inc_t:
                        break
                    target = targs[pos]
                    if target < 0:
                        break
                    sender = sends[pos]
                    message = msgs[pos]
                    pos += 1
                    if time_ > now:
                        now = time_
                        sim.now = now
#if COMPUTE
                    free_at = busy_until.get(target, 0.0)
                    if free_at > time_:
                        # Busy core: the delivery waits in the replica's
                        # inbox (no budget charge); the first resident
                        # arms the wake.
                        wseq = next(seq)
                        if enqueue(target, time_, wseq, (sender, message)):
                            sched_push((free_at, wseq, "cpu", target, None))
                            if _len(inc) != inc_n:
                                inc_n = _len(inc)
                                inc_t = inc[0][0]
                        continue
#endif
#if CRASH
                    if is_crashed(target, now):
                        dropped += 1
                        processed += 1
                        continue
#endif
                    handler, ctx = deliver_one[target]
                    handler(ctx, sender, message)
#if not TALLY
                    delivered += 1
                    processed += 1
#endif
#if COMPUTE
                    cost = message_cost(target, sender, message)
                    if cost > 0.0:
                        record_busy(target, now, cost)
                        if sim._compute_listeners:
                            sim._notify_compute("cpu-busy", target, now,
                                                cost, message)
#endif
                    if _len(inc) != inc_n:
                        inc_n = _len(inc)
                        inc_t = inc[0][0]
#if TALLY
                # Every row a plain-delivery burst consumes is exactly one
                # processed delivery: tally once per burst, not per event.
                consumed = pos - burst_base
                delivered += consumed
                processed += consumed
#endif
                if pos < stop:
                    if times[pos] > inc_t:
                        # A handler pushed an inc event that is now due.
                        continue
#if COMPUTE
                    if inc and times[pos] == inc_t and msgs[pos][1] > inc[0][1]:
                        continue
#endif
                    # Standard 5-tuple resident (timer / mbatch / external
                    # / message / cpu wake) at the walk front; its horizon
                    # check is the ``run_end`` bound and its generation
                    # check ran at burst entry.
                    event = msgs[pos]
                    pos += 1
                else:
                    if inc or pos < run_end:
                        # Inc head due / budget cut: resolve at the top.
                        continue
                    if run_end < cur_len:
                        break
                    sched._pos = pos
                    sched._inc_pops += inc_pops
                    inc_pops = 0
                    if not (sched._ring_count or sched._overflow):
                        break
                    sched._advance()
                    times = sched._cur_times
                    targs = sched._cur_targets
                    sends = sched._cur_senders
                    msgs = sched._cur_messages
                    pos = 0
                    cur_len = len(times)
                    if cur_len == 0 or times[cur_len - 1] <= until:
                        run_end = cur_len
                    else:
                        run_end = _bisect_right(times, until)
                    continue
        time_, seq_, kind, target, payload = event
        if kind == "message":
            if time_ > now:
                now = time_
                sim.now = now
#if COMPUTE
            free_at = busy_until.get(target, 0.0)
            if free_at > time_:
                wseq = next(seq)
                if enqueue(target, time_, wseq, payload):
                    sched_push((free_at, wseq, "cpu", target, None))
                continue
#endif
#if CRASH
            if is_crashed(target, now):
                dropped += 1
                processed += 1
                continue
#endif
            sender, message = payload
            handler, ctx = deliver_one[target]
            handler(ctx, sender, message)
            delivered += 1
            processed += 1
#if COMPUTE
            cost = message_cost(target, sender, message)
            if cost > 0.0:
                record_busy(target, now, cost)
                if sim._compute_listeners:
                    sim._notify_compute("cpu-busy", target, now, cost,
                                        message)
#include WAKE
#endif
        elif kind == "mbatch":
            # Same-instant broadcast group (zero-jitter latency): every
            # member is a delivery at exactly ``time_``, processed
            # back-to-back.  An exhausted budget reinserts the tail at
            # the walk front — the tail's original ``(time, seq)`` key
            # precedes everything still queued, so a front insert keeps
            # the total order (same argument as ``requeue_front``).
            targets, mpayload = payload
            sender, message = mpayload
            if time_ > now:
                now = time_
                sim.now = now
            mcount = len(targets)
            mindex = 0
            while mindex < mcount:
#if BUDGET
                if processed >= budget:
                    times.insert(pos, time_)
                    targs.insert(pos, _STD_TARGET)
                    sends.insert(pos, 0)
                    msgs.insert(pos, (time_, seq_, "mbatch",
                                      _EXTERNAL_TARGET,
                                      (targets[mindex:], mpayload)))
                    cur_len += 1
                    break
#endif
                target = targets[mindex]
                mindex += 1
#if COMPUTE
                free_at = busy_until.get(target, 0.0)
                if free_at > time_:
                    wseq = next(seq)
                    if enqueue(target, time_, wseq, mpayload):
                        sched_push((free_at, wseq, "cpu", target, None))
                    continue
#endif
#if CRASH
                if is_crashed(target, now):
                    dropped += 1
                    processed += 1
                    continue
#endif
                handler, ctx = deliver_one[target]
                handler(ctx, sender, message)
                delivered += 1
                processed += 1
#if COMPUTE
                cost = message_cost(target, sender, message)
                if cost > 0.0:
                    record_busy(target, now, cost)
                    if sim._compute_listeners:
                        sim._notify_compute("cpu-busy", target, now, cost,
                                            message)
#endif
        elif kind == "timer":
            timer_id = payload.timer_id
            pending_timers.discard(timer_id)
            if timer_id in cancelled_timers:
                cancelled_timers.discard(timer_id)
                # Preserved horizon edge: the event after a cancelled
                # timer is dispatched without re-checking ``until`` (or
                # the budget — the cancelled timer consumed none of it).
                sched._pos = pos
                sched._inc_pops += inc_pops
                inc_pops = 0
                if len(sched):
                    pending = sched.pop()
                    times = sched._cur_times
                    targs = sched._cur_targets
                    sends = sched._cur_senders
                    msgs = sched._cur_messages
                    pos = sched._pos
                    cur_len = len(times)
                    inc = sched._inc
                    if cur_len == 0 or times[cur_len - 1] <= until:
                        run_end = cur_len
                    else:
                        run_end = _bisect_right(times, until, pos)
                continue
            if time_ > now:
                now = time_
                sim.now = now
#if CRASH
            if is_crashed(target, now):
                processed += 1
                continue
#endif
            handler, ctx = fire_timer[target]
            handler(ctx, payload)
            processed += 1
        elif kind == "external":
            if time_ > now:
                now = time_
                sim.now = now
            # External callbacks (workload probes, chaos hooks) may read
            # the simulation's counters: flush the local tallies first.
            sim._messages_delivered += delivered
            sim._messages_dropped += dropped
            delivered = 0
            dropped = 0
            payload()
            processed += 1
        else:
            raise RuntimeError("unknown event kind %r" % (kind,))
    if pending is not None:
        # Popped but never dispatched (cannot happen today — the pending
        # path bypasses every break — but kept symmetric with the heap
        # loop): by pop order it precedes everything queued.
        times.insert(pos, pending[0])
        targs.insert(pos, _STD_TARGET)
        sends.insert(pos, 0)
        msgs.insert(pos, pending)
    sched._pos = pos
    sched._inc_pops += inc_pops
    sim._messages_delivered += delivered
    sim._messages_dropped += dropped
    return processed
"""


# The wake handler both templates share (spliced in at ``#include WAKE``
# with the backend's push), so heap and calendar runs book waits with the
# same arithmetic in the same order.

_WAKE_BLOCK = """\
        elif kind == "cpu":
            if time_ > now:
                now = time_
                sim.now = now
            compute.cpu_wakes += 1
            free_at = busy_until[target]
            if payload is None:
                # The wake of a replica with a non-empty inbox (the
                # scheduler holds exactly one per such replica), keyed
                # like the head waiter's own delivery would be.
                inbox = inboxes[target]
                if free_at > time_ or SHARED_INSTANT:
                    # Another event shares this exact instant (or a tying
                    # arrival already took the core): who runs first is
                    # decided waiter by waiter in (time, seq) order, so
                    # the residents go back to the scheduler under their
                    # own keys.  Those queued before this wake was armed
                    # were re-keyed with it, as one contiguous block.
                    # Arrivals of this very instant stay: they already
                    # wait for the new free instant.
                    residents = len(inbox)
                    rank = 0
                    while inbox and inbox[0][0] < time_:
                        waiter = inbox.popleft()
                        wseq = waiter[1]
                        PUSH_NOW((time_, wseq if wseq > seq_
                                  else seq_ + rank / residents, "cpu",
                                  target, waiter))
                        rank += 1
                    if inbox:
                        PUSH((free_at, inbox[0][1], "cpu", target, None))
                    continue
                payload = inbox.popleft()
            elif free_at > time_:
                # A lone waiter behind a busy core: back into the inbox
                # (inline: the depth gauge has seen this waiter already).
                inbox = inboxes[target]
                wseq = next(seq)
                if not inbox:
                    PUSH((free_at, wseq, "cpu", target, None))
                inbox.append((payload[0], wseq, payload[2]))
                continue
            else:
                inbox = None
            arrived, _, (sender, message) = payload
            record_wait(target, time_ - arrived)
            if sim._compute_listeners:
                sim._notify_compute("cpu-wait", target, arrived,
                                    time_ - arrived, message)
            processed += 1
#if CRASH
            if is_crashed(target, now):
                # Dropped at the core: nothing is charged, so the next
                # resident follows this same instant, ahead of anything
                # scheduled since (the wake keeps its seq).
                dropped += 1
                if inbox:
                    PUSH_NOW((time_, seq_, "cpu", target, None))
                continue
#endif
            handler, ctx = deliver_one[target]
            handler(ctx, sender, message)
            delivered += 1
            cost = message_cost(target, sender, message)
            if cost > 0.0:
                record_busy(target, now, cost)
                if sim._compute_listeners:
                    sim._notify_compute("cpu-busy", target, now, cost,
                                        message)
            if inbox:
                # Re-arm at the new free instant; a zero-cost delivery
                # (the self copy) leaves the core free, so the next
                # resident follows this same instant under the same seq.
                free_at = busy_until[target]
                if free_at > time_:
                    PUSH((free_at, next(seq), "cpu", target, None))
                else:
                    PUSH_NOW((time_, seq_, "cpu", target, None))
"""

_LOOP_TEMPLATE = _LOOP_TEMPLATE.replace(
    "#include WAKE\n",
    _WAKE_BLOCK.replace("PUSH_NOW(", "heappush(queue, ")
    .replace("PUSH(", "heappush(queue, ")
    .replace("SHARED_INSTANT", "(queue and queue[0][0] == time_)"))
# An event at the current instant belongs to the open bucket: straight
# into the inc heap, where ``sched.push`` would route it.
_CALQ_TEMPLATE = _CALQ_TEMPLATE.replace(
    "#include WAKE\n",
    _WAKE_BLOCK.replace("PUSH_NOW(", "_heappush(inc, ")
    .replace("PUSH(", "sched_push(")
    .replace("SHARED_INSTANT", "(pos < cur_len and times[pos] == time_"
                               " or inc and inc[0][0] == time_)"))


def _render(template: str, features: Dict[str, bool]) -> str:
    """Render ``#if NAME`` / ``#else`` / ``#endif`` blocks (nested)."""
    lines = []
    stack = []  # (parent_emitting, this_branch_value)
    emitting = True
    for line in template.splitlines():
        stripped = line.strip()
        if stripped.startswith("#if "):
            condition = stripped[4:].strip()
            negate = condition.startswith("not ")
            name = condition[4:].strip() if negate else condition
            value = features[name] != negate
            stack.append((emitting, value))
            emitting = emitting and value
        elif stripped == "#else":
            parent, value = stack[-1]
            emitting = parent and not value
        elif stripped == "#endif":
            parent, _ = stack.pop()
            emitting = parent
        elif emitting:
            lines.append(line)
    if stack:
        raise ValueError("unbalanced #if in loop template")
    return "\n".join(lines) + "\n"


_VARIANTS: Dict[Tuple[str, bool, bool, bool, bool], Callable] = {}


def _variant_source(backend: str, compute: bool, crash: bool,
                    runahead: bool, budget: bool) -> str:
    """The rendered source of one loop variant, before compilation."""
    features = {
        "COMPUTE": compute,
        "CRASH": crash,
        "RUNAHEAD": runahead,
        # Unbounded `run(until)` calls compile out every per-event
        # budget compare; `step()` and bounded runs keep them.
        "BUDGET": budget,
        # Plain deliveries (no crash drops, no inbox waits)
        # consume exactly one burst row each: the calendar burst can
        # tally them per burst instead of per event.
        "TALLY": not compute and not crash,
    }
    template = _CALQ_TEMPLATE if backend == "calendar" else _LOOP_TEMPLATE
    return _render(template, features)


def select_loop(compute: bool, crash: bool, runahead: bool,
                budget: bool = True, backend: str = "heap") -> Callable:
    """The compiled loop variant for one feature set (cached process-wide)."""
    if backend == "calendar":
        # The calendar loop has no sbatch chains to run ahead on (members
        # are already materialized in final order), so the run-ahead flag
        # is normalized out of the key — toggling ``force_scalar_dispatch``
        # re-selects into the same (correct) variant.
        key = (backend, compute, crash, False, budget)
    else:
        key = (backend, compute, crash, runahead, budget)
    loop = _VARIANTS.get(key)
    if loop is None:
        source = _variant_source(*key)
        namespace = {
            "_heappop": heapq.heappop,
            "_heappush": heapq.heappush,
            "_heappushpop": heapq.heappushpop,
            "_bisect_right": bisect_right,
            "_EXTERNAL_TARGET": _EXTERNAL_TARGET,
            "_STD_TARGET": _STD_TARGET,
            "_INF": float("inf"),
        }
        code = compile(source, f"<dispatch-loop {key}>", "exec")
        exec(code, namespace)
        loop = _VARIANTS[key] = namespace["_loop"]
    return loop
