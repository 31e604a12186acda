"""Deterministic discrete-event simulator.

The simulator drives a set of protocol replicas over the network substrate
(:mod:`repro.net`).  It owns a single priority queue of events (message
deliveries and timer firings) keyed by ``(time, sequence)`` — the sequence
number gives a stable, deterministic tie-break, so a given configuration and
seed always produces the same execution.  Events are plain
``(time, seq, kind, target, payload)`` tuples: tuple comparisons run in C
and never reach the ``kind`` field (sequence numbers are unique), which
keeps the heap operations off the Python bytecode path.

Message timing is owned entirely by the :class:`repro.net.transport.Transport`
selected through :class:`NetworkConfig` (default:
:class:`repro.net.transport.DirectTransport`): when replica ``a`` sends a
message of ``wire_size`` bytes to replica ``b`` at time ``t``, the transport
composes the fault, bandwidth, and latency models into a per-receiver
:class:`repro.net.transport.Delivery` (or drops the copy).  Under the
default transport a message is delivered at::

    t + transfer_time(a, b, size) + propagation_delay(a, b)

unless the fault plan drops it.  Crashed replicas neither send nor receive,
and their pending timers never fire.  Crash windows may end
(:attr:`repro.net.faults.CrashSchedule.recover_times`): a recovered replica
resumes with the protocol state it had at the crash instant — modelling a
restart with durable state — but timers that came due while it was down
are lost, and it re-engages through the messages its peers keep sending.
A replica that is crashed at time 0 *with* a recovery time has its
``on_start`` deferred to the recovery instant (it boots late rather than
never).  All fault windows are half-open ``[start, end)``; the receiver of
a message is checked with the same predicate at send time and again at
delivery time, so a copy in flight across a crash is dropped on arrival
and a copy arriving at or after the recovery instant is delivered.

Replica CPU time is owned by the :class:`repro.runtime.compute.ComputeModel`
selected through :class:`NetworkConfig` (default:
:class:`repro.runtime.compute.ZeroCompute`, which charges nothing and leaves
the event loop untouched).  Under a non-trivial model each handled message
occupies the receiving replica's serial core for the model's cost; a
delivery that arrives while the core is busy waits in the replica's FIFO
inbox, and one ``cpu`` wake event per non-empty inbox hands it to the
handler when the core frees up — receive-side queueing, symmetric to the
contended transport's sender-uplink queue.

Besides replica-driven events, callers outside the replica set (e.g. the
client workload in :mod:`repro.workload`) can inject work into the event
queue with :meth:`Simulation.schedule_external`: the callback runs at the
scheduled simulation time, interleaved deterministically with message
deliveries and timers via the same ``(time, sequence)`` ordering.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

import numpy as _np

from repro.net.bandwidth import BandwidthModel
from repro.net.faults import FaultPlan
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.transport import Delivery, Transport, build_transport
from repro.runtime.compute import ComputeModel, build_compute
from repro.runtime.context import ReplicaContext, Timer, check_delay
from repro.runtime.dispatch import (
    UNBOUNDED, build_handler_tables, calendar_loop, heap_loop)
from repro.runtime.scheduler import SCHEDULERS, build_scheduler
from repro.types.blocks import Block
from repro.types.commits import CommitRecord
from repro.types.messages import Message


@dataclass
class NetworkConfig:
    """Bundle of network substrate parameters for a simulation.

    Attributes:
        latency: one-way propagation-delay model.
        bandwidth: size-dependent transfer-time model.
        faults: crash / drop / partition plan.
        seed: seed for all stochastic choices (jitter, drops).
        transport: dissemination strategy — a registered name (``"direct"``,
            ``"contended"``, ``"relay"``; see
            :data:`repro.net.transport.TRANSPORTS`) or a ready
            :class:`repro.net.transport.Transport` instance.
        uplink_bytes_per_s: per-replica NIC capacity for the ``"contended"``
            transport (``None`` selects its 1 Gbit/s default).
        relays: relay fan-out for the ``"relay"`` transport.
        compute: replica compute model — a registered name (``"zero"``,
            ``"crypto"``; see :data:`repro.runtime.compute.COMPUTE_MODELS`)
            or a ready :class:`repro.runtime.compute.ComputeModel` instance.
            ``"zero"`` (the default) charges nothing and leaves executions
            byte-for-byte identical to the pre-compute simulator.
        compute_scale: cost multiplier for the ``"crypto"`` compute model.
        scheduler: event-queue backend — one of
            :data:`repro.runtime.scheduler.SCHEDULERS` (``"auto"``,
            ``"heap"``, ``"calendar"``).  ``"auto"`` (the default) picks the
            calendar queue only where it was measured to win, and an
            explicit ``"calendar"`` is refused for runs it does not serve;
            :func:`repro.runtime.scheduler.build_scheduler` states the rule
            and its measurements.  Both replay the identical ``(time,
            seq)`` event order, so the choice never changes results.
    """

    latency: LatencyModel = field(default_factory=lambda: ConstantLatency(0.05))
    bandwidth: BandwidthModel = field(default_factory=BandwidthModel)
    faults: FaultPlan = field(default_factory=FaultPlan.none)
    seed: int = 0
    transport: Union[str, Transport] = "direct"
    uplink_bytes_per_s: Optional[float] = None
    relays: int = 2
    compute: Union[str, ComputeModel] = "zero"
    compute_scale: float = 1.0
    scheduler: str = "auto"


class BudgetExhausted(RuntimeError):
    """Raised by :meth:`Simulation.run_until_idle` when the event budget
    runs out with events still queued — a wedged run (a protocol feeding
    itself work forever) must not masquerade as quiescence.

    Attributes:
        processed: events dispatched before the budget ran out.
        remaining: events still queued when the run stopped.
    """

    def __init__(self, processed: int, remaining: int) -> None:
        super().__init__(
            "run_until_idle exhausted its %d-event budget with %d event%s "
            "still queued; raise max_events or use run(until=...) for "
            "workloads that never drain" % (processed, remaining,
                                            "" if remaining == 1 else "s")
        )
        self.processed = processed
        self.remaining = remaining


#: Event target used for injected external events (not a replica id).
_EXTERNAL_TARGET = -1

#: Signature of delivery listeners registered via
#: :meth:`Simulation.add_delivery_listener`: ``(sender, receiver, message,
#: send_time, delivery_or_None)`` — ``None`` marks a dropped copy.
DeliveryListener = Callable[[int, int, Message, float, Optional[Delivery]], None]

#: Signature of compute listeners registered via
#: :meth:`Simulation.add_compute_listener`: ``(kind, replica, time, seconds,
#: message)`` — ``kind`` is ``"cpu-wait"`` (emitted once per delivery that
#: waited, when it leaves the inbox: ``time`` is its arrival, ``seconds``
#: its whole wait) or ``"cpu-busy"`` (a handled message charged
#: ``seconds`` of core time from ``time``).
ComputeListener = Callable[[str, int, float, float, Message], None]


class Simulation:
    """Discrete-event simulation of a set of protocol replicas.

    Args:
        protocols: mapping replica id → protocol instance (anything matching
            :class:`repro.protocols.base.Protocol`).
        network: the network substrate configuration (including the
            dissemination transport).

    Usage::

        sim = Simulation(protocols, NetworkConfig(latency=GeoLatency(topology)))
        sim.run(until=60.0)
        commits = sim.commits_for(replica_id=0)
    """

    def __init__(self, protocols: Dict[int, Any], network: Optional[NetworkConfig] = None) -> None:
        if not protocols:
            raise ValueError("simulation needs at least one replica")
        self._protocols = dict(protocols)
        self.replica_ids: List[int] = sorted(self._protocols)
        self._replica_id_tuple: Tuple[int, ...] = tuple(self.replica_ids)
        self.network = network or NetworkConfig()
        self._rng = random.Random(self.network.seed)
        self._transport: Transport = build_transport(
            self.network.transport,
            latency=self.network.latency,
            bandwidth=self.network.bandwidth,
            faults=self.network.faults,
            uplink_bytes_per_s=self.network.uplink_bytes_per_s,
            relays=self.network.relays,
        )
        self._compute: ComputeModel = build_compute(
            self.network.compute, scale=self.network.compute_scale
        )
        # Hoisted once: the zero model's per-event path is skipped entirely,
        # so the hot loop pays at most one ``is not None`` check per message.
        self._compute_cost = (
            None if self._compute.trivial else self._compute.message_cost
        )
        self.now: float = 0.0
        self._seq = itertools.count()
        self._timer_ids = itertools.count(1)
        self._cancelled_timers: set = set()
        self._pending_timers: set = set()
        self._external_scheduled = 0
        ids = self._replica_id_tuple
        self._contexts: Dict[int, ReplicaContext] = {
            replica_id: ReplicaContext(
                replica_id, ids, now=self._clock,
                send=partial(self._enqueue_message, replica_id),
                broadcast=partial(self._broadcast_message, replica_id),
                set_timer=partial(self._arm_timer, replica_id),
                cancel_timer=self._cancel_timer,
                commit=partial(self._record_commit, replica_id))
            for replica_id in ids
        }
        # Per-target bound-method dispatch tables: the event loop does one
        # dict lookup + tuple unpack per dispatch instead of two dict
        # lookups and a bound-method allocation.
        self._deliver_one, self._fire_timer = (
            build_handler_tables(self._protocols, self._contexts)
        )
        self._dispatch_counts: Dict[str, int] = {"runahead_members": 0}
        self._commits: Dict[int, List[CommitRecord]] = {r: [] for r in self.replica_ids}
        self._commit_listeners: List[Callable[[CommitRecord], None]] = []
        self._delivery_listeners: List[DeliveryListener] = []
        self._compute_listeners: List[ComputeListener] = []
        self._messages_sent = 0
        self._messages_delivered = 0
        self._messages_dropped = 0
        self._bytes_sent = 0
        self._started = False
        # Scratch buffer for mbatch group formation, reused across
        # broadcasts (the dict only — member lists are handed to heap
        # events and must stay fresh).
        self._group_scratch: Dict[float, list] = {}
        # Under a jittered latency model broadcast arrival instants are
        # (almost surely) pairwise distinct, so same-instant grouping buys
        # nothing while still paying one heap entry per copy — and with
        # every in-flight copy resident, the heap itself grows to n x the
        # broadcasts in flight, inflating every sift.  Those runs schedule
        # each broadcast as a single chained "sbatch" event instead (see
        # :meth:`_broadcast_message`).
        latency_model = getattr(self._transport, "latency", self.network.latency)
        self._spread_broadcasts = not bool(getattr(latency_model, "jitter_free",
                                                   False))
        # Event-queue backend (see :mod:`repro.runtime.scheduler`); every
        # event enters it through ``_push`` or, for a jittered broadcast,
        # its ``spill``.
        self._scheduler = build_scheduler(
            self.network.scheduler, self._seq,
            replicas=len(self.replica_ids),
            jittered=self._spread_broadcasts,
            compute=not self._compute.trivial,
            crash=bool(self.network.faults.crash_schedule.crash_times),
        )
        self._push = self._scheduler.push
        # Receiver ids as an int64 array, aligned with a full arrival array.
        self._receiver_array = _np.asarray(self.replica_ids, dtype=_np.int64)
        # Scheduled-event tallies by heap-event kind (``mbatch_members`` /
        # ``sbatch_members`` count the deliveries folded into the batch
        # events), surfaced by :meth:`event_counts` and the CLI
        # ``--profile`` flag.
        self._event_kind_counts: Dict[str, int] = {
            "message": 0,
            "mbatch": 0,
            "mbatch_members": 0,
            "sbatch": 0,
            "sbatch_members": 0,
            "timer": 0,
            "external": 0,
        }

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #

    @property
    def messages_sent(self) -> int:
        """Total messages handed to the network."""
        return self._messages_sent

    @property
    def messages_delivered(self) -> int:
        """Total messages delivered to replicas."""
        return self._messages_delivered

    @property
    def messages_dropped(self) -> int:
        """Total messages lost to crashes, partitions, or random drops."""
        return self._messages_dropped

    @property
    def bytes_sent(self) -> int:
        """Total logical bytes handed to the network.

        This counts one copy per logical receiver regardless of transport, so
        the number is comparable across dissemination strategies; the actual
        on-the-wire cost of a strategy is in :meth:`transport_stats`.
        """
        return self._bytes_sent

    @property
    def transport(self) -> Transport:
        """The dissemination transport moving this simulation's messages."""
        return self._transport

    def transport_stats(self) -> Dict[str, object]:
        """Transport-specific counters (wire bytes, uplink queueing, ...)."""
        return self._transport.stats()

    @property
    def compute(self) -> ComputeModel:
        """The compute model charging this simulation's message handling."""
        return self._compute

    def compute_stats(self) -> Dict[str, object]:
        """Compute-model counters: per-replica busy time, wait of handled
        deliveries, inbox depth gauges, and the waiter / wake counts."""
        return self._compute.stats()

    def add_compute_listener(self, listener: ComputeListener) -> None:
        """Register a callback invoked on every compute charge and once
        per delivery that waited for the core.

        The listener receives ``(kind, replica, time, seconds, message)``
        with ``kind`` ``"cpu-busy"`` or ``"cpu-wait"`` (see
        :data:`ComputeListener`) — the seam used by
        :func:`repro.runtime.trace.attach_compute_trace`.  Listeners are
        only consulted under a non-trivial compute model, so they add no
        overhead to default (zero-compute) runs, and attaching one does
        not change which code path the event loop runs.
        """
        self._compute_listeners.append(listener)

    def protocol(self, replica_id: int) -> Any:
        """Return the protocol instance of ``replica_id``."""
        return self._protocols[replica_id]

    def commits_for(self, replica_id: int) -> List[CommitRecord]:
        """Return the commit records of ``replica_id`` in commit order."""
        return list(self._commits[replica_id])

    def all_commits(self) -> Dict[int, List[CommitRecord]]:
        """Return commit records for every replica."""
        return {replica_id: list(records) for replica_id, records in self._commits.items()}

    def add_commit_listener(self, listener: Callable[[CommitRecord], None]) -> None:
        """Register a callback invoked on every commit record."""
        self._commit_listeners.append(listener)

    def add_delivery_listener(self, listener: DeliveryListener) -> None:
        """Register a callback invoked on every message send attempt.

        The listener receives ``(sender, receiver, message, send_time,
        delivery)`` with ``delivery=None`` for dropped copies — the seam
        used by :func:`repro.runtime.trace.attach_network_trace` to record
        queueing and propagation delay separately.  Listeners add per-send
        overhead, but observing changes only the pricing call (a broadcast
        is priced by the transport's reference ``broadcast``, which
        ``tests/test_delay_rows.py`` pins bit-identical to the unobserved
        pricing): the copies are scheduled and dispatched exactly as in an
        unobserved run.
        """
        self._delivery_listeners.append(listener)

    def dispatch_counts(self) -> Dict[str, int]:
        """Event-loop statistics.

        ``runahead_members`` counts sbatch members delivered without a
        heap round trip.
        """
        return dict(self._dispatch_counts)

    @property
    def external_events_scheduled(self) -> int:
        """Total external events injected via :meth:`schedule_external`."""
        return self._external_scheduled

    def event_counts(self) -> Dict[str, int]:
        """Scheduled heap events tallied by kind.

        ``message``/``mbatch``/``sbatch``/``timer``/``external`` count heap
        pushes at schedule time; ``mbatch_members`` / ``sbatch_members``
        count the individual deliveries folded into the batch events, so
        ``message + mbatch_members + sbatch_members`` is the total delivery
        attempts scheduled and ``members / batches`` the mean batching
        factor — the first thing to look at when profiling the event loop.
        (``mbatch`` groups same-instant copies under zero-jitter latency;
        ``sbatch`` chains one jittered broadcast's time-sorted copies
        through a single resident heap entry.)
        """
        return dict(self._event_kind_counts)

    def scheduler_stats(self) -> Dict[str, object]:
        """Event-queue backend counters (backend name, occupancy, and —
        for the calendar queue — bucket width and adaptivity counters)."""
        return self._scheduler.stats()

    # ------------------------------------------------------------------ #
    # External event injection
    # ------------------------------------------------------------------ #

    def schedule_external(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run at simulation time ``now + delay``.

        This is the injection point for actors that live outside the replica
        set — client workload generators, measurement probes, chaos hooks.
        The callback runs on the simulation's event loop at the scheduled
        time (deterministically ordered against message deliveries and
        timers) and may itself send transactions, read state, or schedule
        further external events.

        Unlike replica timers, external events are not affected by crash
        faults and cannot be cancelled.

        Args:
            delay: non-negative offset from the current simulation time.
            callback: zero-argument callable invoked at the scheduled time.
        """
        check_delay(delay, "external event delay")
        if not callable(callback):
            raise TypeError("external event callback must be callable")
        self._external_scheduled += 1
        self._event_kind_counts["external"] += 1
        self._push((self.now + delay, next(self._seq), "external",
                    _EXTERNAL_TARGET, callback))

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Invoke ``on_start`` on every (non-crashed) replica at time 0.

        A replica that is already crashed at time 0 but has a recovery time
        gets its ``on_start`` deferred to the recovery instant: a machine
        that boots late still boots.  Replicas crashed forever never start.
        """
        if self._started:
            return
        self._started = True
        for replica_id in self.replica_ids:
            if self.network.faults.is_crashed(replica_id, self.now):
                recover = self.network.faults.crash_schedule.recover_time(replica_id)
                if recover is not None and recover > self.now:
                    self._defer_start(replica_id, recover)
                continue
            self._protocols[replica_id].on_start(self._contexts[replica_id])

    def _defer_start(self, replica_id: int, at_time: float) -> None:
        """Schedule a late ``on_start`` for a replica recovering at ``at_time``."""

        def boot() -> None:
            # The window is half-open, so the replica is alive at exactly
            # its recovery instant; re-check in case the plan was replaced.
            if not self.network.faults.is_crashed(replica_id, self.now):
                self._protocols[replica_id].on_start(self._contexts[replica_id])

        self._push((at_time, next(self._seq), "external", _EXTERNAL_TARGET,
                    boot))

    def _run_dispatch(self, until: float, max_events: Optional[int]) -> int:
        """Shared event-loop driver behind :meth:`run` and :meth:`step`.

        Runs the scheduler backend's event loop (see
        :mod:`repro.runtime.dispatch`; the heap loop reads the compute
        model and crash faults flags at entry).  Returns
        the number of budget-consuming events processed.
        """
        if not self._started:
            self.start()
        loop = calendar_loop if self._scheduler.name == "calendar" else heap_loop
        return loop(self, until, UNBOUNDED if max_events is None else max_events)

    def step(self) -> bool:
        """Process the next event; return ``False`` if the queue is empty.

        Single-stepping runs the same event loop as :meth:`run` with an
        event budget of one, so it cannot drift from the batched path:
        mbatch/sbatch events are unfolded one member per step (the tail or
        successor goes back under the batch's original heap key), and
        cancelled timers / deliveries joining a busy replica's inbox are
        passed without consuming the budget — observably identical to one
        iteration of ``run()``.  Attached listeners do not change the
        events it steps through (see :meth:`add_delivery_listener`).
        """
        return self._run_dispatch(math.inf, 1) > 0

    def run(self, until: float, max_events: Optional[int] = None) -> None:
        """Run the simulation until simulated time ``until`` (or event budget).

        Events scheduled after ``until`` remain queued; the clock is advanced
        to exactly ``until`` at the end so measurements have a common horizon.
        When ``max_events`` stops the run *before* the horizon, the clock is
        left where the last event put it — events are still pending inside
        the horizon, and jumping past them would let work scheduled by the
        next chunk land beyond ``until``, silently changing the execution a
        resumed run replays.
        (One deliberate edge: when a *cancelled* timer sits at the heap head
        inside the horizon, the next real event is dispatched without
        re-checking ``until`` — preserved from the original ``step()``-based
        loop so that seeded executions stay byte-for-byte reproducible.)

        The hot loop itself lives in :mod:`repro.runtime.dispatch`: one
        plain loop per scheduler backend (the heap loop reads its feature
        flags at entry), per-target handler tables kill repeated dict/attr lookups,
        and a jittered broadcast's sbatch chain runs ahead without heap
        round trips.  Every delivery is one ``on_message`` call, and
        attached listeners leave the schedule unchanged (see
        :meth:`add_delivery_listener`).
        """
        processed = self._run_dispatch(until, max_events)
        if until != math.inf and (max_events is None or processed < max_events):
            self.now = max(self.now, until)

    def run_until_idle(self, max_events: int = 1_000_000) -> int:
        """Run until no events remain; return the number processed.

        Shares :meth:`run`'s hot loop (an infinite horizon never advances
        the clock past the last event).  ``max_events`` bounds the run
        against protocols that feed themselves work forever — but a run
        that *hits* the bound with events still queued is wedged, not
        idle, so it raises :class:`BudgetExhausted` instead of silently
        returning mid-execution.
        """
        processed = self._run_dispatch(math.inf, max_events)
        remaining = len(self._scheduler)
        if remaining:
            raise BudgetExhausted(processed, remaining)
        return processed

    # ------------------------------------------------------------------ #
    # Internals used by the per-replica contexts
    # ------------------------------------------------------------------ #

    def _enqueue_message(self, sender: int, receiver: int, message: Message) -> None:
        self._messages_sent += 1
        self._bytes_sent += getattr(message, "wire_size", 0)
        delivery = self._transport.unicast(sender, receiver, message, self.now, self._rng)
        if self._delivery_listeners:
            for listener in self._delivery_listeners:
                listener(sender, receiver, message, self.now, delivery)
        if delivery is None:
            self._messages_dropped += 1
            return
        self._event_kind_counts["message"] += 1
        self._push((delivery.deliver_at, next(self._seq), "message", receiver,
                    (sender, message)))

    def _broadcast_message(self, sender: int, message: Message) -> None:
        receivers = self._replica_id_tuple
        count = len(receivers)
        self._messages_sent += count
        self._bytes_sent += getattr(message, "wire_size", 0) * count
        transport = self._transport
        arrivals = None
        if self._delivery_listeners:
            # Observed: listeners need each copy's delay decomposition, so
            # price through the reference ``broadcast``; it takes the same
            # rng draws and returns the same times in the same order as
            # the calls below (``tests/test_delay_rows.py``), so the copies
            # are scheduled exactly as in an unobserved run.
            deliveries = transport.broadcast(sender, receivers, message,
                                             self.now, self._rng)
            delivered = {delivery.receiver: delivery for delivery in deliveries}
            for receiver in receivers:
                delivery = delivered.get(receiver)
                for listener in self._delivery_listeners:
                    listener(sender, receiver, message, self.now, delivery)
            times = [delivery.deliver_at for delivery in deliveries]
            targets = [delivery.receiver for delivery in deliveries]
        else:
            # Exactly one arrival builder runs per broadcast (the jitter
            # draws consume the shared rng stream): the vectorized array
            # when the run is jittered and the transport has one, else
            # ``broadcast_times``.
            if self._spread_broadcasts:
                arrivals = transport.broadcast_arrival_array(
                    sender, receivers, message, self.now, self._rng)
            if arrivals is None:
                times, targets = transport.broadcast_times(
                    sender, receivers, message, self.now, self._rng)
        if arrivals is None:
            self._messages_dropped += count - len(times)
        payload = (sender, message)
        counts = self._event_kind_counts
        if self._spread_broadcasts:
            # Jittered latency: arrival instants are almost surely pairwise
            # distinct, so the whole broadcast goes to the scheduler as ONE
            # time-sorted schedule under one seq draw (the heap chains it
            # through a single resident "sbatch" entry, the calendar queue
            # spills it into per-bucket segments).  Ordering is identical
            # to the per-copy pipeline: the n per-copy seqs of a broadcast
            # form one contiguous block, so any other event's seq is either
            # below the whole block (it wins exact-time ties both ways) or
            # above it (it loses them both ways), and same-time members
            # keep their per-copy push order via the stable sort.
            if arrivals is None:
                if not times:
                    return
                arrivals = _np.asarray(times, dtype=_np.float64)
                ids = _np.asarray(targets, dtype=_np.int64)
            else:
                ids = self._receiver_array
            # A stable argsort keeps exact-time ties in per-copy order (the
            # order of a stable sort on the time field), and float64 keeps
            # every time's bits.
            order = arrivals.argsort(kind="stable")
            counts["sbatch"] += 1
            counts["sbatch_members"] += len(order)
            self._scheduler.spill(arrivals.take(order), ids.take(order),
                                  sender, message, payload)
            return
        # Group copies arriving at the same instant into one event
        # ("mbatch"): under a zero-jitter latency model an n-way broadcast
        # costs one scheduler push/pop instead of n.  Groups are keyed by
        # the exact arrival float and formed in per-copy order, so relative
        # event order is identical to the per-copy pipeline: same-time
        # copies were consecutive in seq order anyway, and distinct times
        # order by the queue key regardless of seq.  The group dict is a
        # scratch buffer reused across broadcasts.
        seq = self._seq
        push = self._push
        groups = self._group_scratch
        get_group = groups.get
        for receiver, deliver_at in zip(targets, times):
            group = get_group(deliver_at)
            if group is None:
                groups[deliver_at] = [receiver]
            else:
                group.append(receiver)
        for deliver_at, members in groups.items():
            size = len(members)
            if size == 1:
                counts["message"] += 1
                push((deliver_at, next(seq), "message", members[0], payload))
            else:
                counts["mbatch"] += 1
                counts["mbatch_members"] += size
                push((deliver_at, next(seq), "mbatch", _EXTERNAL_TARGET,
                      (members, payload)))
        groups.clear()

    def _clock(self) -> float:
        return self.now

    def _arm_timer(self, replica_id: int, delay: float, name: str,
                   data: Any = None) -> int:
        check_delay(delay, "timer delay")
        timer_id = next(self._timer_ids)
        timer = Timer(name=name, fire_time=self.now + delay, data=data, timer_id=timer_id)
        self._pending_timers.add(timer_id)
        self._event_kind_counts["timer"] += 1
        self._push((timer.fire_time, next(self._seq), "timer", replica_id,
                    timer))
        return timer_id

    def _cancel_timer(self, timer_id: int) -> None:
        # Cancelling a timer that already fired (or was never armed) must be a
        # no-op, otherwise its id lingers in the cancelled set forever.
        if timer_id in self._pending_timers:
            self._pending_timers.discard(timer_id)
            self._cancelled_timers.add(timer_id)

    def _record_commit(self, replica_id: int, blocks: Iterable[Block],
                       finalization_kind: str = "slow") -> None:
        for block in blocks:
            record = CommitRecord(
                replica_id=replica_id,
                block=block,
                commit_time=self.now,
                finalization_kind=finalization_kind,
            )
            self._commits[replica_id].append(record)
            for listener in self._commit_listeners:
                listener(record)

    def _notify_compute(self, kind: str, replica_id: int, time_: float,
                        seconds: float, message: Message) -> None:
        for listener in self._compute_listeners:
            listener(kind, replica_id, time_, seconds, message)
