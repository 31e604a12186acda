"""The protocol interface and shared parameters.

Every protocol in this repository is a *sans-io* state machine implementing
:class:`Protocol`: it is driven exclusively through ``on_start``,
``on_message``, and ``on_timer`` callbacks and acts on the world only through
the :class:`repro.runtime.context.ReplicaContext` it receives.  This makes the
same object runnable under the deterministic simulator and the asyncio
runtime, and trivially unit-testable with a fake context.
"""

from __future__ import annotations

import dataclasses
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.crypto.keys import KeyRegistry
from repro.runtime.context import ReplicaContext, Timer
from repro.types.blocks import BlockId
from repro.types.messages import Message


@dataclass
class ProtocolParams:
    """Parameters shared by the protocol implementations.

    Attributes:
        n: total number of replicas.
        f: maximum number of Byzantine replicas tolerated.
        p: Banyan's fast-path parameter ``p* ∈ [1, f]`` — the number of
            replicas whose cooperation is *not* needed for the fast path
            (ignored by the baselines).
        rank_delay: the per-rank delay ``2Δ`` used for both the proposal delay
            ``Δ_prop(r) = 2Δ·r`` and the notarization delay
            ``Δ_notary(r) = 2Δ·r`` (Section 4), in seconds.
        round_timeout: view/epoch timeout used by HotStuff and Streamlet, and
            as the crash-fault recovery timeout, in seconds.
        payload_size: logical payload size of proposed blocks, in bytes.
        sign_messages: attach (simulated) signature shares to votes.  No
            handler verifies them (README, Design notes, "Substitutions");
            the ``crypto`` compute model charges signature cost instead.
        relay_proposals: forward proposals that extend the tip of the chain
            (the Bamboo improvement described in Section 9.1).
        adaptive_delays: adaptively adjust the per-rank delay from observed
            round durations instead of treating ``rank_delay`` as a fixed
            bound (Remark 4.2); ``rank_delay`` is then only the initial value.
        seed: seed for leader permutations when a seeded beacon is used.
    """

    n: int
    f: int
    p: int = 1
    rank_delay: float = 0.4
    round_timeout: float = 3.0
    payload_size: int = 0
    sign_messages: bool = False
    relay_proposals: bool = True
    adaptive_delays: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError("n must be positive")
        if self.f < 0:
            raise ValueError("f must be non-negative")
        if self.p < 0:
            raise ValueError("p must be non-negative")
        if not (0 <= self.rank_delay < math.inf
                and 0 <= self.round_timeout < math.inf):
            raise ValueError("delays must be finite and non-negative")
        if self.payload_size < 0:
            raise ValueError("payload size must be non-negative")

    # ------------------------------------------------------------------ #
    # Quorum arithmetic
    # ------------------------------------------------------------------ #

    @property
    def icc_quorum(self) -> int:
        """ICC's notarization/finalization quorum, ``n - f`` (Section 4)."""
        return self.n - self.f

    @property
    def banyan_quorum(self) -> int:
        """Banyan's notarization/finalization quorum ``⌈(n+f+1)/2⌉`` (Alg. 2)."""
        return math.ceil((self.n + self.f + 1) / 2)

    @property
    def fast_quorum(self) -> int:
        """Banyan's fast-path quorum ``n - p`` (Definition 6.2)."""
        return self.n - self.p

    @property
    def unlock_threshold(self) -> int:
        """Support strictly above which Definition 7.6 unlocks, ``f + p``."""
        return self.f + self.p

    @property
    def bft_quorum(self) -> int:
        """The classic ``2f + 1``-style quorum, ``n - f`` (used by baselines)."""
        return self.n - self.f

    def validate_resilience(self, require_fast_path: bool = False) -> None:
        """Check the replica-count bound of the paper's model section.

        Raises:
            ValueError: if ``n < max(3f + 2p - 1, 3f + 1, p + 1)`` (Banyan;
                ``p + 1`` keeps the fast quorum ``n - p`` non-empty, which
                binds only at ``f = 0, p = 1``) or ``n < 3f + 1`` (baselines).
        """
        if require_fast_path:
            bound = max(3 * self.f + 2 * self.p - 1, 3 * self.f + 1, self.p + 1)
        else:
            bound = 3 * self.f + 1
        if self.n < bound:
            raise ValueError(
                f"n={self.n} violates the resilience bound n >= {bound} "
                f"(f={self.f}, p={self.p}); the nearest valid n is {bound}"
            )

    def proposal_delay(self, rank: int) -> float:
        """``Δ_prop(r) = 2Δ·r`` — the delay before a rank-``r`` replica proposes."""
        return self.rank_delay * rank

    def notarization_delay(self, rank: int) -> float:
        """``Δ_notary(r) = 2Δ·r`` — the wait before voting for a rank-``r`` block."""
        return self.rank_delay * rank

    # ------------------------------------------------------------------ #
    # Serialization (for experiment plans and result caches)
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready dictionary (inverse of :meth:`from_dict`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ProtocolParams":
        """Rebuild parameters from :meth:`to_dict` output.

        Unknown keys are ignored so caches written by newer versions with
        additional fields still load.
        """
        names = {field.name for field in dataclasses.fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in names})


class Protocol(ABC):
    """Sans-io protocol state machine.

    Concrete protocols additionally expose two attributes used by the
    measurement harness:

    * ``proposal_times`` — mapping block id → time the replica proposed it;
    * ``name`` — human-readable protocol name.
    """

    #: Human-readable protocol name; overridden by subclasses.
    name = "abstract"

    def __init__(self, replica_id: int, params: ProtocolParams,
                 registry: Optional[KeyRegistry] = None) -> None:
        self.replica_id = replica_id
        self.params = params
        self.registry = registry
        #: Block id → time this replica proposed the block (for latency metrics).
        self.proposal_times: Dict[BlockId, float] = {}

    @abstractmethod
    def on_start(self, ctx: ReplicaContext) -> None:
        """Called once when the replica starts."""

    @abstractmethod
    def on_message(self, ctx: ReplicaContext, sender: int, message: Message) -> None:
        """Called for every delivered message."""

    @abstractmethod
    def on_timer(self, ctx: ReplicaContext, timer: Timer) -> None:
        """Called when a previously armed timer fires."""


def innermost(protocol):
    """The protocol under any wrapper replicas.

    Wrappers (a straggler's :class:`repro.byzantine.DelayedReplica`, a
    :class:`repro.runtime.trace.ProtocolTracer`) hold the replica whose
    state they decorate on ``.inner``; state-level probes must read that
    one, not the wrapper.
    """
    while hasattr(protocol, "inner"):
        protocol = protocol.inner
    return protocol
