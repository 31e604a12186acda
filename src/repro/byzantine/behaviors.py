"""Misbehaving replica implementations.

These replicas are planted into otherwise-honest replica sets in tests and
ablation benchmarks.  They are intentionally *not* exhaustive adversaries —
they exercise the specific failure modes the paper's analysis discusses:
silence (crash), leader equivocation, and stragglers.

Detection is generic: honest replicas tally every vote through the shared
quorum engine (:mod:`repro.smr.quorum`), which records any signer observed
supporting two different blocks — no per-protocol detection code.  Such an
observation is only *proof* of misbehaviour for vote kinds where honest
replicas vote at most once per round; :func:`fast_vote_equivocators`
surfaces the sound Banyan fast-path flavour (honest replicas fast-vote at
most once per round, so any flagged signer has provably misbehaved).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, FrozenSet, List, Optional, Type

from repro.core.banyan import BanyanReplica
from repro.protocols.base import Protocol, ProtocolParams
from repro.protocols.icc import ICCReplica
from repro.protocols.registry import available_protocols
from repro.runtime.context import ReplicaContext, Timer, check_delay
from repro.types.blocks import Block
from repro.types.messages import Message


def fast_vote_equivocators(protocol: Protocol) -> FrozenSet[int]:
    """Signers ``protocol`` caught fast-vote equivocating, across rounds.

    A correct Banyan replica broadcasts at most one fast vote per round
    (Addition 3), so a signer whose fast votes support two different blocks
    of one round has produced self-incriminating evidence.  The per-round
    :class:`repro.core.fastpath.FastPathState` tallies support through the
    shared quorum engine, which records exactly this; Banyan's
    ``fast_path_verdicts`` collects it over every round the replica has
    seen, released rounds included.

    Returns an empty set for protocols without a fast path.
    """
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


class _EquivocationMixin:
    """Override proposing to send two conflicting blocks to disjoint halves.

    When the replica is the round leader it creates two different blocks
    extending the same parent and sends one to the first half of the replicas
    and the other to the second half — the classic equivocation attack that
    the notarization/fast-vote quorum intersection must defuse.
    """

    def _propose(self, ctx: ReplicaContext, round_k: int) -> None:  # type: ignore[override]
        state = self._round(round_k)
        if state.proposed or state.advanced:
            return
        rank = self.beacon.rank(round_k, self.replica_id)
        if rank != 0:
            # Behave honestly when not the leader; equivocation only pays as
            # the rank-0 proposer.
            super()._propose(ctx, round_k)
            return
        candidates = self._parent_candidates(round_k)
        if not candidates:
            return
        parent = min(candidates, key=lambda b: (b.rank, b.id))
        state.proposed = True
        replica_ids = ctx.replica_ids
        half = len(replica_ids) // 2
        groups = [replica_ids[:half], replica_ids[half:]]
        for index, group in enumerate(groups):
            payload = f"equivocation:{round_k}:{index}".encode("utf-8")
            block = Block(
                round=round_k,
                proposer=self.replica_id,
                rank=0,
                parent_id=parent.id,
                payload=payload,
                payload_size=self.params.payload_size,
            )
            proposal = self._make_proposal(round_k, block, parent)
            for receiver in group:
                ctx.send(receiver, proposal)
            self._after_propose(ctx, round_k, block)


class EquivocatingICCReplica(_EquivocationMixin, ICCReplica):
    """An ICC replica that equivocates whenever it is the leader."""

    name = "icc-equivocator"


class EquivocatingBanyanReplica(_EquivocationMixin, BanyanReplica):
    """A Banyan replica that equivocates whenever it is the leader."""

    name = "banyan-equivocator"


class EquivocatingLeaderReplica(EquivocatingBanyanReplica):
    """Default equivocator (Banyan flavour); kept for a stable public name."""


def make_equivocating_icc() -> Type[Protocol]:
    """Factory for planting an equivocating ICC leader via ``overrides``."""
    return EquivocatingICCReplica


def make_equivocating_banyan() -> Type[Protocol]:
    """Factory for planting an equivocating Banyan leader via ``overrides``."""
    return EquivocatingBanyanReplica


def byzantine_factory(protocol: str, behavior: str) -> Type[Protocol]:
    """The replica factory planted for a byzantine fault of a chaos schedule.

    ``"equivocate"`` on a Banyan or ICC replica (or its ``-broken`` variant)
    plants an equivocating leader; every other behaviour plants a
    :class:`SilentReplica`.
    """
    if behavior == "equivocate":
        base = protocol[:-len("-broken")] if protocol.endswith("-broken") else protocol
        if base == "banyan":
            return make_equivocating_banyan()
        if base == "icc":
            return make_equivocating_icc()
    return SilentReplica


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
        super().__init__(inner.replica_id, inner.params, inner.registry)
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
