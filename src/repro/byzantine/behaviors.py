"""Misbehaving replicas planted into honest replica sets: silence (crash),
Twins (one identity run as two honest replicas; the equivocating adversary
of every protocol), and stragglers.

Detection is generic: the shared quorum engine (:mod:`repro.smr.quorum`)
records any signer seen supporting two blocks, which is *proof* only for
vote kinds honest replicas cast once per round — Banyan's fast votes, see
:func:`fast_vote_equivocators`.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, FrozenSet, Iterable, Optional, Tuple

from repro.protocols.base import Protocol, ProtocolParams
from repro.protocols.registry import available_protocols, protocol_factory
from repro.runtime.context import ReplicaContext, Timer, check_delay
from repro.smr.mempool import PayloadSource
from repro.types.messages import Message

if TYPE_CHECKING:  # the chaos package is not loaded for a plain simulation
    from repro.chaos.schedule import Fault


def fast_vote_equivocators(protocol: Protocol) -> FrozenSet[int]:
    """Signers ``protocol`` caught fast-vote equivocating in any round it
    has seen, released rounds included (Banyan's ``fast_path_verdicts``): a
    correct replica fast-votes at most once per round (Addition 3), so such
    a signer has misbehaved.  Empty for protocols without a fast path."""
    verdicts = getattr(protocol, "fast_path_verdicts", None)
    return verdicts()[0] if verdicts is not None else frozenset()


class SilentReplica(Protocol):
    """A replica that never sends anything (equivalent to being crashed)."""

    name = "silent"

    def __init__(self, replica_id: int, params: ProtocolParams, **_: Any) -> None:
        super().__init__(replica_id, params)

    def on_start(self, ctx: ReplicaContext) -> None:
        """Ignore start-up."""

    def on_message(self, ctx: ReplicaContext, sender: int, message: Message) -> None:
        """Drop every message."""

    def on_timer(self, ctx: ReplicaContext, timer: Timer) -> None:
        """Ignore timers."""


class TwinReplica(Protocol):
    """Twins (Bano et al., "Twins: BFT Systems Made Robust", OPODIS 2021):
    two honest instances of ``factory``'s protocol under one replica id,
    twin ``i`` talking only to side ``i`` of ``split`` (the other replicas).

    So the replica equivocates in proposals, votes and certificates with no
    protocol-specific code.  A delivery goes to the twin whose side holds
    the sender; twin timers carry ``(index, data)``; a twin's copy to itself
    is a zero-delay timer of its own (the runtime's self-delivery cannot
    tell the twins apart).  The second twin's payloads are salted, so its
    blocks get other ids; twin commits, which conflict, are dropped.
    """

    name = "twins"

    #: Timer name of a twin's message to itself.
    _SELF_TIMER = "__twin_self__"

    def __init__(self, replica_id: int, params: ProtocolParams, *,
                 factory: Callable[..., Protocol], split: Tuple[Iterable[int], ...],
                 payload_source: Optional[PayloadSource] = None, **kwargs: Any) -> None:
        super().__init__(replica_id, params)
        self.sides = sides = tuple(frozenset(side) for side in split)
        others = frozenset(range(params.n)) - {replica_id}
        if len(sides) != 2 or not all(sides) or sides[0] & sides[1] or sides[0] | sides[1] != others:
            raise ValueError(
                f"a twins split of replica {replica_id} must be two disjoint, non-empty "
                f"sides holding every other replica id {sorted(others)}, got "
                f"{[sorted(side) for side in sides]}")
        source = payload_source or PayloadSource(params.payload_size)

        def salted(round: int, proposer: int) -> Tuple[bytes, int]:
            payload, logical_size = source.payload_for(round, proposer)
            return b"twin:" + bytes(payload), logical_size

        self.twins = tuple(factory(replica_id=replica_id, params=params,
                                   payload_source=twin_source, **kwargs)
                           for twin_source in (source, SimpleNamespace(payload_for=salted)))
        self.proposal_times = self.twins[0].proposal_times
        self._outer: Optional[ReplicaContext] = None
        self._contexts: Tuple[ReplicaContext, ...] = ()

    def _twin_contexts(self, ctx: ReplicaContext) -> Tuple[ReplicaContext, ...]:
        """Each twin's context over ``ctx``, built once per runtime context."""
        if ctx is not self._outer:
            self._outer = ctx
            self._contexts = tuple(self._confined(ctx, index) for index in range(2))
        return self._contexts

    def _confined(self, ctx: ReplicaContext, index: int) -> ReplicaContext:
        side, replica_id = self.sides[index], ctx.replica_id

        def send(receiver: int, message: Message) -> None:
            if receiver == replica_id:
                ctx.set_timer(0.0, self._SELF_TIMER, (index, message))
            elif receiver in side:
                ctx.send(receiver, message)

        def broadcast(message: Message) -> None:
            for receiver in ctx.replica_ids:
                send(receiver, message)

        return ReplicaContext(
            replica_id, ctx.replica_ids, now=ctx.now, send=send, broadcast=broadcast,
            set_timer=lambda delay, name, data=None: ctx.set_timer(delay, name, (index, data)),
            cancel_timer=ctx.cancel_timer, commit=lambda *_, **__: None)

    def on_start(self, ctx: ReplicaContext) -> None:
        """Start both twins."""
        for twin, twin_ctx in zip(self.twins, self._twin_contexts(ctx)):
            twin.on_start(twin_ctx)

    def on_message(self, ctx: ReplicaContext, sender: int, message: Message) -> None:
        """Deliver to the twin whose side holds ``sender``."""
        index = 0 if sender in self.sides[0] else 1
        self.twins[index].on_message(self._twin_contexts(ctx)[index], sender, message)

    def on_timer(self, ctx: ReplicaContext, timer: Timer) -> None:
        """Hand a twin its own timer, or its message to itself."""
        index, data = timer.data
        twin, twin_ctx = self.twins[index], self._twin_contexts(ctx)[index]
        if timer.name == self._SELF_TIMER:
            twin.on_message(twin_ctx, self.replica_id, data)
        else:
            twin.on_timer(twin_ctx, dataclasses.replace(timer, data=data))


def byzantine_factory(protocol: str, fault: Fault) -> Callable[..., Protocol]:
    """The replica factory planted for a chaos schedule's byzantine fault:
    ``"silent"``, or ``"twins"`` of ``protocol`` split as ``fault.group_a``
    | ``fault.group_b``.  Any other behaviour is refused."""
    if fault.behavior == "silent":
        return SilentReplica
    if fault.behavior == "twins":
        return partial(TwinReplica, factory=protocol_factory(protocol),
                       split=(fault.group_a, fault.group_b))
    raise ValueError(f"unknown byzantine behaviour {fault.behavior!r} of replica "
                     f"{fault.replica}: plant 'silent' or 'twins' ('twins' replaced "
                     f"'equivocate')")


def ensure_protocol_registered(protocol: str) -> None:
    """Register the test-only ``-broken`` variants on demand (worker
    processes and cluster nodes too)."""
    if protocol.endswith("-broken") and protocol not in available_protocols():
        from repro.chaos.broken import register_broken_protocols

        register_broken_protocols()


class DelayedReplica(Protocol):
    """An honest replica whose outbound messages are delayed (a straggler).

    Wraps an inner honest protocol and defers each ``send`` — and each
    ``broadcast``, as one unit — by ``extra_delay`` seconds behind one of the
    runtime's own timers, whose flush hands the message to the runtime's
    ``send`` / ``broadcast``: a late broadcast is scheduled, and disseminated
    by the transport, exactly like a prompt one.  Used by the straggler
    ablation benchmark to show when the Banyan fast path stops firing.

    An optional ``window=(start, end)`` limits the straggling to a phase: the
    delay applies only to sends initiated during the half-open interval
    ``[start, end)`` (same boundary rule as :mod:`repro.net.faults`), so the
    chaos engine can model a replica that is slow for a while and then
    recovers its pace.  Without a window the replica straggles forever.
    """

    name = "delayed"

    #: Timer name used internally for deferred sends.
    _SEND_TIMER = "__delayed_send__"

    def __init__(
        self,
        inner: Protocol,
        extra_delay: float,
        window: Optional[tuple] = None,
    ) -> None:
        super().__init__(inner.replica_id, inner.params)
        check_delay(extra_delay, "straggler delay")
        if window is not None and window[1] <= window[0]:
            raise ValueError("straggler window must have positive length")
        self.inner = inner
        self.extra_delay = extra_delay
        self.window = window
        self.proposal_times = inner.proposal_times
        self._outer: Optional[ReplicaContext] = None
        self._ctx: Optional[ReplicaContext] = None

    def queue_send(self, ctx: ReplicaContext, receiver: Optional[int],
                   message: Message) -> None:
        """Defer a send — with ``receiver=None``, a whole broadcast — by
        ``extra_delay`` (immediately if the delay is 0 or the send falls
        outside the straggler window)."""
        window = self.window
        if self.extra_delay > 0 and (
                window is None or window[0] <= ctx.now() < window[1]):
            ctx.set_timer(self.extra_delay, self._SEND_TIMER, (receiver, message))
        else:
            self._flush(ctx, receiver, message)

    @staticmethod
    def _flush(ctx: ReplicaContext, receiver: Optional[int], message: Message) -> None:
        """Hand a send (``receiver=None``: a broadcast) to the runtime."""
        if receiver is None:
            ctx.broadcast(message)
        else:
            ctx.send(receiver, message)

    def _delaying(self, ctx: ReplicaContext) -> ReplicaContext:
        """The context over ``ctx`` whose sends go through :meth:`queue_send`,
        built once per runtime context."""
        if ctx is not self._outer:
            queue_send = partial(self.queue_send, ctx)
            self._outer = ctx
            self._ctx = ReplicaContext(
                ctx.replica_id, ctx.replica_ids, now=ctx.now, send=queue_send,
                broadcast=partial(queue_send, None), set_timer=ctx.set_timer,
                cancel_timer=ctx.cancel_timer, commit=ctx.commit)
        return self._ctx

    def on_start(self, ctx: ReplicaContext) -> None:
        """Start the wrapped replica with a delaying context."""
        self.inner.on_start(self._delaying(ctx))

    def on_message(self, ctx: ReplicaContext, sender: int, message: Message) -> None:
        """Deliver to the wrapped replica with a delaying context."""
        self.inner.on_message(self._delaying(ctx), sender, message)

    def on_timer(self, ctx: ReplicaContext, timer: Timer) -> None:
        """Flush a deferred send; forward other timers to the wrapped replica."""
        if timer.name == self._SEND_TIMER:
            self._flush(ctx, *timer.data)
            return
        self.inner.on_timer(self._delaying(ctx), timer)
