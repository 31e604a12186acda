"""The simulator's event loops and table-driven handler dispatch.

Two plain functions run every simulation, one per scheduler backend
(:mod:`repro.runtime.scheduler`): :func:`heap_loop` pops the binary heap
(``sim._scheduler.heap`` is its raw list) and :func:`calendar_loop` walks the
calendar queue's materialized bucket.  ``Simulation._run_dispatch``
picks one by backend.  The heap loop reads two feature flags once, at
entry, into locals; the calendar loop reads none, because the calendar
queue serves only zero-compute, crash-free runs
(:func:`repro.runtime.scheduler.build_scheduler`):

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

Layout rule: on the heap loop's default path (no compute, no crash) a
delivery tests at most one flag, the ``gated = compute or crash`` local,
and calls its handler inline.  Behind that gate every arrival — an
``sbatch`` or ``mbatch`` member, a ``message`` event, an inbox head
leaving through its ``cpu`` wake — goes through one function,
:func:`admit`, which makes it wait, drops it, or delivers and charges it.

Every delivery is exactly one ``on_message`` call, in ``(time, seq)``
order; the flags change only whether the heap loop may queue, charge or
drop it.  The event budget is compared on every path (``run(until)``
passes :data:`UNBOUNDED`).

Byte-identity contract: both loops replay the exact event order of a
simulation that schedules one event per broadcast copy (the per-copy
reference in ``tests/conftest.py``) — a jittered broadcast's ``sbatch``
chain runs ahead, member after member without a heap round trip, only
while ``(next_time, batch_seq)`` sorts strictly before the heap head,
and the historical horizon edge (a *cancelled* timer at the head lets
the next real event dispatch without re-checking ``until``) is
preserved.  ``tests/test_golden_corpus.py``, ``tests/test_scale.py`` and
``tests/test_dispatch_batch.py`` pin this.

A loop returns the number of budget-consuming events processed.
Listeners are read live (``sim._compute_listeners`` here, the delivery
listeners in the simulator's send paths), so attaching one mid-run needs
no re-entry.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from heapq import heappop, heappush, heappushpop
from typing import Any, Dict

from repro.runtime.scheduler import _STD as _STD_TARGET

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


def admit(sim, time_, target, payload, crash):
    """Hand one gated arrival (compute or crash run, heap loop) to its core.

    ``payload`` is the ``(sender, message)`` pair arriving at ``target`` at
    ``time_``; the caller has already advanced the clock.  A busy core
    queues the arrival in the replica's inbox (the first resident arms the
    one ``cpu`` wake), a crashed receiver drops it, and otherwise the
    handler runs and the core is charged.  Returns ``None`` for a delivery
    that waits, ``False`` for one dropped and ``True`` for one delivered.
    """
    model = sim._compute
    message_cost = sim._compute_cost
    if message_cost is not None:
        free_at = model.busy_until.get(target, 0.0)
        if free_at > time_:
            wseq = next(sim._seq)
            if model.enqueue(target, time_, wseq, payload):
                sim._push((free_at, wseq, "cpu", target, None))
            return None
    now = sim.now
    if crash and sim.network.faults.is_crashed(target, now):
        return False
    sender, message = payload
    handler, ctx = sim._deliver_one[target]
    handler(ctx, sender, message)
    if message_cost is not None:
        cost = message_cost(target, sender, message)
        if cost > 0.0:
            model.record_busy(target, now, cost)
            if sim._compute_listeners:
                sim._notify_compute("cpu-busy", target, now, cost, message)
    return True


def _cpu_wake(sim, event, shared, push, crash):
    """Dispatch one ``cpu`` wake event (compute runs, heap loop).

    ``shared`` tells whether another queued event holds the wake's exact
    instant; ``push`` schedules an event.  The caller has already advanced
    the clock.  Returns ``None`` when no delivery reached the core, else
    what :func:`admit` returned for the one that did.
    """
    time_, seq_, _, target, payload = event
    model = sim._compute
    model.cpu_wakes += 1
    busy_until = model.busy_until
    free_at = busy_until[target]
    if payload is None:
        # The wake of a replica with a non-empty inbox (the scheduler
        # holds exactly one per such replica), keyed like the head
        # waiter's own delivery would be.
        inbox = model.inbox[target]
        if free_at > time_ or shared:
            # Another event shares this exact instant (or a tying arrival
            # already took the core): who runs first is decided waiter by
            # waiter in (time, seq) order, so the residents go back to the
            # scheduler under their own keys.  Those queued before this
            # wake was armed were re-keyed with it, as one contiguous
            # block.  Arrivals of this very instant stay: they already
            # wait for the new free instant.
            residents = len(inbox)
            rank = 0
            while inbox and inbox[0][0] < time_:
                waiter = inbox.popleft()
                wseq = waiter[1]
                push((time_, wseq if wseq > seq_
                      else seq_ + rank / residents, "cpu", target, waiter))
                rank += 1
            if inbox:
                push((free_at, inbox[0][1], "cpu", target, None))
            return None
        payload = inbox.popleft()
    elif free_at > time_:
        # A lone waiter behind a busy core: back into the inbox (inline:
        # the depth gauge has seen this waiter already).
        inbox = model.inbox[target]
        wseq = next(sim._seq)
        if not inbox:
            push((free_at, wseq, "cpu", target, None))
        inbox.append((payload[0], wseq, payload[2]))
        return None
    else:
        inbox = None
    arrived, _, mpayload = payload
    model.record_wait(target, time_ - arrived)
    if sim._compute_listeners:
        sim._notify_compute("cpu-wait", target, arrived, time_ - arrived,
                            mpayload[1])
    # The core is free at ``time_``, so this never waits.
    done = admit(sim, time_, target, mpayload, crash)
    if inbox:
        # Re-arm at the new free instant; a drop or a zero-cost delivery
        # (the self copy) leaves the core free, so the next resident
        # follows this same instant under the same seq, ahead of anything
        # scheduled since.
        free_at = busy_until[target]
        if free_at > time_:
            push((free_at, next(sim._seq), "cpu", target, None))
        else:
            push((time_, seq_, "cpu", target, None))
    return done


def heap_loop(sim, until: float, budget: int) -> int:
    """Dispatch binary-heap events due by ``until``, at most ``budget``."""
    queue = sim._scheduler.heap
    pending_timers = sim._pending_timers
    cancelled_timers = sim._cancelled_timers
    deliver_one = sim._deliver_one
    fire_timer = sim._fire_timer
    crash = bool(sim.network.faults.crash_schedule.crash_times)
    gated = sim._compute_cost is not None or crash
    is_crashed = sim.network.faults.is_crashed
    push = sim._push
    now = sim.now
    processed = 0
    delivered = 0
    dropped = 0
    members = 0
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
            if not queue or processed >= budget:
                break
            if queue[0][0] > until:
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
                if gated:
                    done = admit(sim, time_, target, mpayload, crash)
                    if done is not None:
                        processed += 1
                        delivered += done
                        dropped += not done
                else:
                    handler, ctx = deliver_one[target]
                    handler(ctx, sender, message)
                    delivered += 1
                    processed += 1
                index += 1
                if index == count:
                    break
                time_ = times[index]
                target = targets[index]
                if processed >= budget or time_ > until:
                    payload[2] = index
                    heappush(queue, (time_, seq_, "sbatch", target, payload))
                    break
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
                    members += 1
                    continue
                # The successor is now heap-resident: record its resume
                # index before anything else can pop it.
                payload[2] = index
                pending = event
                break
        elif kind == "message":
            if time_ > now:
                now = time_
                sim.now = now
            if gated:
                done = admit(sim, time_, target, payload, crash)
                if done is not None:
                    processed += 1
                    delivered += done
                    dropped += not done
            else:
                sender, message = payload
                handler, ctx = deliver_one[target]
                handler(ctx, sender, message)
                delivered += 1
                processed += 1
        elif kind == "cpu":
            if time_ > now:
                now = time_
                sim.now = now
            done = _cpu_wake(sim, event, queue and queue[0][0] == time_,
                             push, crash)
            if done is not None:
                processed += 1
                delivered += done
                dropped += not done
        elif kind == "mbatch":
            # A same-instant broadcast group: every member is a delivery
            # at exactly ``time_``, processed back-to-back the way
            # consecutive per-copy pops would have been (nothing pushed
            # during processing can sort before a remaining member; a
            # member that finds its core busy waits, the rest of the
            # group is unaffected).  Each member counts against the
            # budget; an exhausted budget re-queues the tail under the
            # batch's original heap key.
            targets, mpayload = payload
            sender, message = mpayload
            if time_ > now:
                now = time_
                sim.now = now
            mcount = len(targets)
            mindex = 0
            while mindex < mcount:
                if processed >= budget:
                    heappush(queue, (time_, seq_, "mbatch", _EXTERNAL_TARGET,
                                     (targets[mindex:], mpayload)))
                    break
                target = targets[mindex]
                mindex += 1
                if gated:
                    done = admit(sim, time_, target, mpayload, crash)
                    if done is not None:
                        processed += 1
                        delivered += done
                        dropped += not done
                else:
                    handler, ctx = deliver_one[target]
                    handler(ctx, sender, message)
                    delivered += 1
                    processed += 1
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
            if crash and is_crashed(target, now):
                processed += 1
                continue
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
    sim._dispatch_counts["runahead_members"] += members
    return processed


# The calendar loop walks the scheduler's materialized current bucket by
# a local index instead of popping a heap.  The bucket is four parallel
# columns (times / targets / senders / messages) of plain scalars — no
# per-event tuples, so a materialized bucket is invisible to the cyclic
# garbage collector and the fast path is four C-level list indexes per
# delivery.  A standard 5-tuple event (timer, external, unicast message,
# mbatch) marks its row with a negative sentinel target and parks the
# tuple in the message column.  Events that arrive *inside* the open
# bucket land in the scheduler's small `_inc` heap and are merged by time
# (residents win exact-time ties — they were scheduled first).  `run_end`
# pre-cuts the walk at the `until` horizon via one bisect, so the fast
# path carries no per-event horizon compare.

def calendar_loop(sim, until: float, budget: int) -> int:
    """Dispatch calendar-queue events due by ``until``, at most ``budget``."""
    sched = sim._scheduler
    _len = len
    pending_timers = sim._pending_timers
    cancelled_timers = sim._cancelled_timers
    deliver_one = sim._deliver_one
    fire_timer = sim._fire_timer
    now = sim.now
    processed = 0
    delivered = 0
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
        run_end = bisect_right(times, until, pos)
    # ``pending`` holds an event already removed from the queue that must
    # be dispatched without re-running the top-of-loop checks — the event
    # after a cancelled timer (the preserved horizon edge).
    pending = None
    while True:
        if pending is not None:
            event = pending
            pending = None
        else:
            if processed >= budget:
                break
            if inc and not (pos < run_end and times[pos] <= inc[0][0]):
                # The inc heap's head (an event scheduled into the open
                # bucket after it materialized) is due before the next
                # resident; exact-time ties go to residents — they were
                # scheduled first.
                event = inc[0]
                if event[0] > until:
                    break
                heappop(inc)
                inc_pops += 1
            else:
                # Burst: walk consecutive bucket rows with no per-event
                # queue bookkeeping.  The inc boundary is a cached float
                # (refreshed only when a handler grew the heap — pops
                # never happen mid-burst), the ``until`` horizon is
                # ``run_end``, cut once per bucket, and the budget pre-cuts
                # ``stop`` instead of a per-event compare.
                stop = run_end
                rem = budget - processed
                if stop - pos > rem:
                    stop = pos + rem
                if inc:
                    inc_t = inc[0][0]
                else:
                    inc_t = math.inf
                inc_n = _len(inc)
                burst_base = pos
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
                    handler, ctx = deliver_one[target]
                    handler(ctx, sender, message)
                    if _len(inc) != inc_n:
                        inc_n = _len(inc)
                        inc_t = inc[0][0]
                # Every row a burst consumes is exactly one processed
                # delivery: tally once per burst.
                consumed = pos - burst_base
                delivered += consumed
                processed += consumed
                if pos < stop:
                    if times[pos] > inc_t:
                        # A handler pushed an inc event that is now due.
                        continue
                    # The walk front: a standard 5-tuple resident (timer /
                    # mbatch / external / message).  Its horizon check is
                    # the ``run_end`` bound.
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
                        run_end = bisect_right(times, until)
                    continue
        time_, seq_, kind, target, payload = event
        if kind == "message":
            if time_ > now:
                now = time_
                sim.now = now
            sender, message = payload
            handler, ctx = deliver_one[target]
            handler(ctx, sender, message)
            delivered += 1
            processed += 1
        elif kind == "mbatch":
            # Same-instant broadcast group (zero-jitter latency): every
            # member is a delivery at exactly ``time_``, processed
            # back-to-back.  An exhausted budget reinserts the tail at
            # the walk front — the tail's original ``(time, seq)`` key
            # precedes everything still queued, so a front insert keeps
            # the total order.
            targets, mpayload = payload
            sender, message = mpayload
            if time_ > now:
                now = time_
                sim.now = now
            mcount = len(targets)
            mindex = 0
            while mindex < mcount:
                if processed >= budget:
                    times.insert(pos, time_)
                    targs.insert(pos, _STD_TARGET)
                    sends.insert(pos, 0)
                    msgs.insert(pos, (time_, seq_, "mbatch",
                                      _EXTERNAL_TARGET,
                                      (targets[mindex:], mpayload)))
                    cur_len += 1
                    break
                target = targets[mindex]
                mindex += 1
                handler, ctx = deliver_one[target]
                handler(ctx, sender, message)
                delivered += 1
                processed += 1
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
                    if cur_len == 0 or times[cur_len - 1] <= until:
                        run_end = cur_len
                    else:
                        run_end = bisect_right(times, until, pos)
                continue
            if time_ > now:
                now = time_
                sim.now = now
            handler, ctx = fire_timer[target]
            handler(ctx, payload)
            processed += 1
        elif kind == "external":
            if time_ > now:
                now = time_
                sim.now = now
            # External callbacks (workload probes, chaos hooks) may read
            # the simulation's counters: flush the local tally first.
            sim._messages_delivered += delivered
            delivered = 0
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
    return processed
