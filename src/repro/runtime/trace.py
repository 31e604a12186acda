"""Execution tracing: structured per-replica event logs.

Debugging a BFT protocol usually means answering "what did replica 7 know at
t=3.2s, and why did it vote for that block?".  :class:`ProtocolTracer` wraps
any protocol object and records a structured event for every callback
(start, message in, timer) and every action taken through the context
(send, broadcast, timer armed, commit), with timestamps.  Traces can be
filtered, summarised, and rendered as a timeline.

The tracer is pure decoration: it changes neither timing nor behaviour, so a
traced replica can be dropped into any simulation (or the asyncio runtime)
in place of the original.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from repro.protocols.base import Protocol
from repro.runtime.context import ReplicaContext, Timer
from repro.types.messages import Message


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event.

    Attributes:
        time: simulation / model time of the event.
        replica_id: the replica the event belongs to.
        kind: event kind, one of ``start``, ``recv``, ``timer``, ``send``,
            ``broadcast``, ``arm-timer``, ``commit`` — plus, for network
            traces (:func:`attach_network_trace`), ``net-send`` and
            ``net-drop``, and for compute traces
            (:func:`attach_compute_trace`), ``cpu-busy`` and ``cpu-wait``.
        detail: short human-readable description.
        data: optional structured payload (message type, block round, ...;
            for ``net-send`` events the delay decomposition — queueing,
            transfer, propagation — of the scheduled delivery).
    """

    time: float
    replica_id: int
    kind: str
    detail: str
    data: Optional[Dict[str, Any]] = None


class TraceLog:
    """An append-only list of :class:`TraceEvent` with query helpers."""

    def __init__(self) -> None:
        self._events: List[TraceEvent] = []

    def append(self, event: TraceEvent) -> None:
        """Record an event."""
        self._events.append(event)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def events(self, kind: Optional[str] = None,
               replica_id: Optional[int] = None) -> List[TraceEvent]:
        """Return events, optionally filtered by kind and/or replica."""
        return [
            event
            for event in self._events
            if (kind is None or event.kind == kind)
            and (replica_id is None or event.replica_id == replica_id)
        ]

    def counts_by_kind(self) -> Dict[str, int]:
        """Return how many events of each kind were recorded."""
        counts: Dict[str, int] = {}
        for event in self._events:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts

    def between(self, start: float, end: float) -> List[TraceEvent]:
        """Return events with ``start <= time < end``."""
        return [event for event in self._events if start <= event.time < end]

    def render(self, limit: Optional[int] = None) -> str:
        """Render the trace as a plain-text timeline (one line per event)."""
        lines = []
        for event in self._events[: limit if limit is not None else len(self._events)]:
            lines.append(
                f"{event.time:10.4f}s  r{event.replica_id:<3d} {event.kind:<10s} {event.detail}"
            )
        return "\n".join(lines)


def _tracing_context(inner: ReplicaContext, log: TraceLog,
                     replica_id: int) -> ReplicaContext:
    """A context that records on ``log`` every action replica
    ``replica_id`` takes through ``inner``, then performs it."""
    now = inner.now

    def record(kind: str, detail: str, data: Optional[Dict[str, Any]] = None) -> None:
        log.append(TraceEvent(time=now(), replica_id=replica_id, kind=kind,
                              detail=detail, data=data))

    def send(receiver: int, message: Message) -> None:
        record("send", f"{type(message).__name__} -> r{receiver}")
        inner.send(receiver, message)

    def broadcast(message: Message) -> None:
        record("broadcast", type(message).__name__)
        inner.broadcast(message)

    def set_timer(delay: float, name: str, data: Any = None) -> int:
        record("arm-timer", f"{name} in {delay:.3f}s")
        return inner.set_timer(delay, name, data)

    def commit(blocks, finalization_kind: str = "slow") -> None:
        blocks = list(blocks)
        rounds = [block.round for block in blocks]
        record("commit", f"{len(blocks)} block(s) rounds {rounds} ({finalization_kind})",
               data={"rounds": rounds, "kind": finalization_kind})
        inner.commit(blocks, finalization_kind=finalization_kind)

    return ReplicaContext(inner.replica_id, inner.replica_ids, now=now, send=send,
                          broadcast=broadcast, set_timer=set_timer,
                          cancel_timer=inner.cancel_timer, commit=commit)


class ProtocolTracer(Protocol):
    """Wraps a protocol and records a :class:`TraceLog` of its execution."""

    name = "traced"

    def __init__(self, inner: Protocol, log: Optional[TraceLog] = None) -> None:
        super().__init__(inner.replica_id, inner.params)
        self.inner = inner
        self.log = log if log is not None else TraceLog()
        self.proposal_times = inner.proposal_times
        self.name = f"traced-{inner.name}"
        self._outer: Optional[ReplicaContext] = None
        self._ctx: Optional[ReplicaContext] = None

    def _tracing(self, ctx: ReplicaContext) -> ReplicaContext:
        """The recording context over ``ctx``, built once per runtime context."""
        if ctx is not self._outer:
            self._outer = ctx
            self._ctx = _tracing_context(ctx, self.log, self.replica_id)
        return self._ctx

    def _record(self, ctx: ReplicaContext, kind: str, detail: str) -> None:
        self.log.append(
            TraceEvent(time=ctx.now(), replica_id=self.replica_id, kind=kind, detail=detail)
        )

    def on_start(self, ctx: ReplicaContext) -> None:
        """Record the start event and forward it."""
        self._record(ctx, "start", self.inner.name)
        self.inner.on_start(self._tracing(ctx))

    def on_message(self, ctx: ReplicaContext, sender: int, message: Message) -> None:
        """Record the delivery and forward it."""
        self._record(ctx, "recv", f"{type(message).__name__} <- r{sender}")
        self.inner.on_message(self._tracing(ctx), sender, message)

    def on_timer(self, ctx: ReplicaContext, timer: Timer) -> None:
        """Record the timer firing and forward it."""
        self._record(ctx, "timer", timer.name)
        self.inner.on_timer(self._tracing(ctx), timer)


def trace_replicas(replicas: Dict[int, Protocol],
                   shared_log: Optional[TraceLog] = None) -> Dict[int, ProtocolTracer]:
    """Wrap every replica in ``replicas`` with a tracer sharing one log."""
    log = shared_log if shared_log is not None else TraceLog()
    return {replica_id: ProtocolTracer(protocol, log) for replica_id, protocol in replicas.items()}


def attach_network_trace(simulation, log: Optional[TraceLog] = None) -> TraceLog:
    """Record every message send attempt with its delay decomposition.

    Registers a delivery listener on ``simulation`` (a
    :class:`repro.runtime.simulator.Simulation`) that appends one event per
    copy the transport schedules: kind ``net-send`` with the time spent in
    each pipeline stage — partition hold, sender-uplink queueing, wire
    transfer, and propagation — recorded *separately* in ``data``, so
    contention effects are distinguishable from distance.  Dropped copies
    appear as ``net-drop`` events.  Attaching it changes only the pricing
    call (a broadcast is priced by the transport's reference
    ``broadcast``, which ``tests/test_delay_rows.py`` pins bit-identical
    to the untraced pricing): the run schedules and delivers exactly what
    it would untraced.

    The protocol-level tracers above answer "what did the replica do"; this
    answers "where did the message's time go".  Combine both on one shared
    log for a full picture::

        replicas = trace_replicas(create_replicas("banyan", params))
        sim = Simulation(replicas, NetworkConfig(transport="contended"))
        log = attach_network_trace(sim, replicas[0].log)
    """
    trace_log = log if log is not None else TraceLog()

    def on_delivery(sender: int, receiver: int, message, send_time: float,
                    delivery) -> None:
        name = type(message).__name__
        if delivery is None:
            trace_log.append(TraceEvent(
                time=send_time, replica_id=sender, kind="net-drop",
                detail=f"{name} -> r{receiver} dropped",
                data={"receiver": receiver},
            ))
            return
        trace_log.append(TraceEvent(
            time=send_time, replica_id=sender, kind="net-send",
            detail=(f"{name} -> r{receiver}"
                    f" queue={delivery.queue_delay * 1e3:.2f}ms"
                    f" wire={delivery.transfer_delay * 1e3:.2f}ms"
                    f" prop={delivery.propagation_delay * 1e3:.2f}ms"
                    + (f" via r{delivery.via}" if delivery.via is not None else "")),
            data={
                "receiver": receiver,
                "deliver_at": delivery.deliver_at,
                "hold_s": delivery.hold_delay,
                "queue_s": delivery.queue_delay,
                "transfer_s": delivery.transfer_delay,
                "propagation_s": delivery.propagation_delay,
                "via": delivery.via,
            },
        ))

    simulation.add_delivery_listener(on_delivery)
    return trace_log


def attach_commit_trace(simulation, log: Optional[TraceLog] = None) -> TraceLog:
    """Record every commit record of a simulation as ``commit`` trace events.

    Registers a commit listener on ``simulation`` (a
    :class:`repro.runtime.simulator.Simulation`) that appends one event per
    :class:`repro.types.commits.CommitRecord` — replica, round, and
    finalization kind — without wrapping the protocols (unlike
    :class:`ProtocolTracer`, which records what a replica *does*, this
    records only what it *decides*).  The chaos engine uses it to embed a
    commit-trace tail in shrunk repro files, so a failing schedule's JSON
    shows the last decisions before the violation.
    """
    trace_log = log if log is not None else TraceLog()

    def on_commit(record) -> None:
        trace_log.append(TraceEvent(
            time=record.commit_time, replica_id=record.replica_id,
            kind="commit",
            detail=(f"round {record.block.round} block "
                    f"{str(record.block.id)[:8]} ({record.finalization_kind})"),
            data={"round": record.block.round,
                  "kind": record.finalization_kind},
        ))

    simulation.add_commit_listener(on_commit)
    return trace_log


def attach_compute_trace(simulation, log: Optional[TraceLog] = None) -> TraceLog:
    """Record every compute charge and CPU-queue wait as trace events.

    Registers a compute listener on ``simulation`` (a
    :class:`repro.runtime.simulator.Simulation`) that appends one event per
    compute action: kind ``cpu-busy`` when a handled message occupies the
    replica's core (with the charged seconds and the message type), and
    kind ``cpu-wait`` once per delivery that found the core busy, emitted
    when it leaves the replica's inbox — stamped with its arrival time and
    carrying its whole wait and the message type that waited.  Under the
    default :class:`repro.runtime.compute.ZeroCompute` model no events are
    emitted.

    Where :func:`attach_network_trace` answers "where did the message's
    *wire* time go", this answers "where did the replica's *CPU* time go" —
    combine both on one shared log for the full delay picture of a
    CPU-bound run.
    """
    trace_log = log if log is not None else TraceLog()

    def on_compute(kind: str, replica_id: int, time: float, seconds: float,
                   message) -> None:
        name = type(message).__name__
        if kind == "cpu-busy":
            detail = f"{name} busy {seconds * 1e3:.3f}ms"
        else:
            detail = f"{name} waited {seconds * 1e3:.3f}ms for the core"
        trace_log.append(TraceEvent(
            time=time, replica_id=replica_id, kind=kind, detail=detail,
            data={"seconds": seconds, "message": name},
        ))

    simulation.add_compute_listener(on_compute)
    return trace_log
