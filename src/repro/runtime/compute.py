"""Replica compute models: what message handling costs in CPU time.

The network substrate (:mod:`repro.net`) charges every byte moved; this
module is its CPU-side counterpart.  A :class:`ComputeModel` decides how
long a replica's (single, serial) core is busy handling each delivered
message, and the simulator turns that into a per-replica CPU timeline: a
delivery that arrives while the replica is still busy **queues** — it waits
in the replica's FIFO ``inbox``, kept here next to ``busy_until`` — and is
handled when the core frees up, exactly like the sender-uplink queue of the
contended transport but on the receive side.  The event scheduler holds one
``cpu`` wake per non-empty inbox, not one event per waiter (see
:mod:`repro.runtime.dispatch`).

Two models are provided:

* :class:`ZeroCompute` (default) — handling is free.  The simulator skips
  the compute path entirely, so executions are byte-for-byte identical to
  the pre-compute simulator (pinned by the golden digests in
  ``tests/test_transport.py``) and the event loop keeps its throughput.
* :class:`CryptoCostCompute` — a cost table of the cryptographic work the
  paper's protocols perform per message: hashing, signing the response
  vote, verifying signature shares, and verifying aggregate (BLS-style)
  certificates with a per-signer term, so certificate checks scale with
  the quorum size (``n - f``, ``⌈(n+f+1)/2⌉``, ``n - p``).  Because votes
  arrive all-to-all, per-round CPU work grows ~``n²`` while round length is
  network-bound and roughly flat — which is what flips throughput from
  network-bound to CPU-bound as ``n`` grows (``banyan-repro figure
  crypto``).

Models are selected by name through
:class:`repro.runtime.simulator.NetworkConfig` (``compute="crypto"``) and
built by :func:`build_compute`; custom models subclass
:class:`ComputeModel` and can be passed as instances.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.types.messages import Message


class ComputeModel(ABC):
    """Strategy interface: CPU cost of handling one delivered message.

    Subclasses implement :meth:`message_cost` — the busy time (seconds) a
    replica's serial core spends on a delivery.  The CPU-timeline state the
    simulator drives (``busy_until``, the per-replica ``inbox`` of waiting
    deliveries, the busy/wait counters, and the :meth:`enqueue` /
    :meth:`record_wait` / :meth:`record_busy` bookkeeping) lives on this
    base class, so any custom non-trivial model passed through
    :class:`repro.runtime.simulator.NetworkConfig` works without
    re-implementing it.
    """

    #: Model name used by the registry and in stats.
    name = "abstract"

    #: ``True`` when the model never charges cost; lets the simulator skip
    #: the per-event compute bookkeeping entirely (the hot-path guarantee
    #: behind the "ZeroCompute regresses < 5%" acceptance bound).
    trivial = False

    def __init__(self) -> None:
        #: Replica id → time its core frees up (the serial CPU timeline).
        self.busy_until: Dict[int, float] = {}
        #: Replica id → total busy seconds charged.
        self.busy_s: Dict[int, float] = {}
        #: Replica id → FIFO of ``(arrival time, seq, (sender, message))``
        #: deliveries waiting for the busy core.  The simulator keeps one
        #: ``cpu`` wake event scheduled per non-empty inbox.
        self.inbox: Dict[int, Deque[Tuple[float, float, tuple]]] = (
            defaultdict(deque))
        #: Replica id → deepest its inbox has been.
        self.queue_depth_max: Dict[int, int] = {}
        #: Replica id → total seconds handled deliveries waited for the core.
        self.queue_wait_s: Dict[int, float] = {}
        #: Deliveries that waited in an inbox before they were handled (or
        #: dropped at a crashed core).
        self.deferred_deliveries = 0
        #: ``cpu`` events dispatched: one per waiter, plus the hand-backs
        #: of wakes that shared their exact instant with another event.
        self.cpu_wakes = 0
        #: Deliveries that were charged a non-zero cost.
        self.messages_charged = 0

    def reset(self) -> None:
        """Clear the CPU timelines and counters (inter-simulation state)."""
        self.busy_until.clear()
        self.busy_s.clear()
        self.inbox.clear()
        self.queue_depth_max.clear()
        self.queue_wait_s.clear()
        self.deferred_deliveries = 0
        self.cpu_wakes = 0
        self.messages_charged = 0

    @abstractmethod
    def message_cost(self, receiver: int, sender: int, message: Message) -> float:
        """Busy seconds ``receiver``'s core spends handling ``message``."""

    # ------------------------------------------------------------------ #
    # Timeline bookkeeping (driven by the simulator)
    # ------------------------------------------------------------------ #

    def enqueue(self, replica_id: int, arrived: float, seq: float,
                payload: tuple) -> bool:
        """Queue a delivery that found the core busy.

        ``seq`` is a fresh event sequence number: the key the waiter
        would hold as an event of its own.  Returns ``True`` when the
        inbox was empty: the caller must then schedule the replica's wake
        at ``busy_until[replica_id]`` under that same ``seq``.
        """
        inbox = self.inbox[replica_id]
        inbox.append((arrived, seq, payload))
        depth = len(inbox)
        if depth > self.queue_depth_max.get(replica_id, 0):
            self.queue_depth_max[replica_id] = depth
        return depth == 1

    def record_wait(self, replica_id: int, waited_s: float) -> None:
        """Record that a delivery left the inbox after ``waited_s``."""
        self.deferred_deliveries += 1
        self.queue_wait_s[replica_id] = (
            self.queue_wait_s.get(replica_id, 0.0) + waited_s
        )

    def record_busy(self, replica_id: int, start: float, cost: float) -> None:
        """Occupy the core for ``cost`` seconds starting at ``start``."""
        self.messages_charged += 1
        self.busy_until[replica_id] = start + cost
        self.busy_s[replica_id] = self.busy_s.get(replica_id, 0.0) + cost

    def stats(self) -> Dict[str, object]:
        """Model-specific counters (busy time, queue waits), for reports."""
        return {"compute": self.name}


class ZeroCompute(ComputeModel):
    """Free message handling (the pre-compute semantics, and the default)."""

    name = "zero"
    trivial = True

    def message_cost(self, receiver: int, sender: int, message: Message) -> float:
        """Handling is free."""
        return 0.0


@dataclass(frozen=True)
class CryptoCostTable:
    """Per-operation CPU costs, in seconds on one commodity core.

    Defaults approximate BLS12-381 multi-signatures (the aggregation scheme
    the paper uses, Boneh et al. 2018): signing and share verification are
    pairing-bound (~0.6 ms / ~1.8 ms), aggregate verification pays the same
    two pairings once plus a cheap per-signer public-key aggregation term.

    Attributes:
        hash_s: hashing/canonicalising one received message.
        sign_s: producing one signature (the vote a replica signs in
            response to a valid proposal).
        share_verify_s: verifying one individual signature share.
        aggregate_verify_base_s: fixed cost of verifying an aggregate
            signature (pairings), independent of the signer count.
        aggregate_verify_per_signer_s: per-signer cost of an aggregate
            verification (public-key aggregation), multiplied by the
            certificate's voter-set size.
    """

    hash_s: float = 5e-6
    sign_s: float = 0.6e-3
    share_verify_s: float = 1.8e-3
    aggregate_verify_base_s: float = 1.8e-3
    aggregate_verify_per_signer_s: float = 40e-6


#: The default BLS-like cost table.
DEFAULT_COST_TABLE = CryptoCostTable()


class CryptoCostCompute(ComputeModel):
    """Per-replica serial CPU timeline charging cryptographic work.

    The cost of a delivery is a pure function of the message's shape:

    * every message pays one hash;
    * a block proposal pays one share verification (the proposer's block
      signature) plus one signing (the response vote), and its attached
      parent notarization / unlock proof / proposer fast vote are verified;
    * a vote message pays one share verification per carried vote;
    * a certificate message pays one aggregate verification per carried
      certificate/proof, scaled by the signer-set size.

    Self-deliveries are free — a replica does not verify its own messages.

    Args:
        table: per-operation costs (defaults to :data:`DEFAULT_COST_TABLE`).
        scale: multiplier applied to every cost — ``2.0`` models a core
            half as fast.  Must be positive.
    """

    name = "crypto"
    trivial = False

    def __init__(self, table: Optional[CryptoCostTable] = None,
                 scale: float = 1.0) -> None:
        if scale <= 0:
            raise ValueError("compute scale must be positive")
        super().__init__()
        self.table = table if table is not None else DEFAULT_COST_TABLE
        self.scale = float(scale)

    # ------------------------------------------------------------------ #
    # Costing
    # ------------------------------------------------------------------ #

    def message_cost(self, receiver: int, sender: int, message: Message) -> float:
        """Cost of handling ``message``, from the cost table (duck-typed)."""
        if receiver == sender:
            return 0.0
        table = self.table
        cost = table.hash_s
        if getattr(message, "block", None) is not None:
            # Proposal: verify the block signature, sign the response vote.
            cost += table.share_verify_s + table.sign_s
        votes = getattr(message, "votes", None)
        if votes is not None:
            cost += table.share_verify_s * len(votes)
        if getattr(message, "fast_vote", None) is not None:
            cost += table.share_verify_s
        per_signer = table.aggregate_verify_per_signer_s
        for attribute in ("parent_notarization", "certificate", "high_qc",
                          "parent_unlock_proof", "unlock_proof"):
            certificate = getattr(message, attribute, None)
            if certificate is not None:
                cost += (table.aggregate_verify_base_s
                         + per_signer * len(certificate))
        return cost * self.scale

    def stats(self) -> Dict[str, object]:
        """Per-replica busy/wait totals, inbox gauges and the counters."""
        return {
            "compute": self.name,
            "scale": self.scale,
            "busy_s": dict(self.busy_s),
            "queue_wait_s": dict(self.queue_wait_s),
            "queue_depth_max": dict(self.queue_depth_max),
            "waiting": {replica_id: len(inbox)
                        for replica_id, inbox in self.inbox.items()},
            "deferred_deliveries": self.deferred_deliveries,
            "cpu_wakes": self.cpu_wakes,
            "messages_charged": self.messages_charged,
        }


#: Compute-model registry, keyed by the names accepted by
#: :class:`repro.runtime.simulator.NetworkConfig` and the CLI.
COMPUTE_MODELS = {
    "zero": ZeroCompute,
    "crypto": CryptoCostCompute,
}


def available_compute_models() -> List[str]:
    """The registered compute-model names, sorted."""
    return sorted(COMPUTE_MODELS)


def build_compute(compute, scale: float = 1.0) -> ComputeModel:
    """Build (or adopt) the compute model selected by a network configuration.

    Args:
        compute: a registered name (``"zero"``, ``"crypto"``) or an
            already-constructed :class:`ComputeModel` instance (adopted
            as-is after a :meth:`ComputeModel.reset`).
        scale: cost multiplier for the ``"crypto"`` model (ignored by
            ``"zero"``).

    Raises:
        KeyError: for an unknown compute-model name.
    """
    if isinstance(compute, ComputeModel):
        compute.reset()
        return compute
    try:
        factory = COMPUTE_MODELS[compute]
    except KeyError:
        available = ", ".join(available_compute_models())
        raise KeyError(
            f"unknown compute model {compute!r} (available: {available})"
        ) from None
    if factory is CryptoCostCompute:
        return CryptoCostCompute(scale=scale)
    return factory()
