"""Streamlet (Chan & Shi, AFT 2020).

The second baseline of the paper's evaluation.  Streamlet is deliberately
simple:

* Time is divided into fixed-length epochs (the paper's timeout parameter;
  every epoch has a round-robin leader).
* At the start of its epoch, the leader proposes a block extending the tip
  of a longest *notarized* chain it has seen.
* Every replica votes (broadcast) for the first valid proposal of the epoch
  from the epoch's leader, provided it extends a longest notarized chain.
* A block with votes from ``≥ 2n/3`` replicas is notarized.
* Finality: when three blocks with *consecutive* epoch numbers are notarized
  on one chain, the first two of them (and all earlier blocks on that chain)
  are final.

The fault-free proposer latency is therefore roughly three epochs, i.e. the
``6Δ`` of Table 1, which is why Streamlet trails the other protocols in the
reproduced figures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.beacon import Beacon, RoundRobinBeacon
from repro.blocktree import BlockTree, FinalizedChain
from repro.crypto.keys import KeyRegistry
from repro.protocols.base import Protocol, ProtocolParams
from repro.runtime.context import ReplicaContext, Timer
from repro.smr.mempool import PayloadSource
from repro.smr.quorum import CertificateCollector, QuorumTracker
from repro.types.blocks import Block, BlockId
from repro.types.messages import BlockProposal, Message, VoteMessage
from repro.types.votes import NotarizationVote, Vote, VoteKind


class StreamletReplica(Protocol):
    """A single Streamlet replica."""

    name = "streamlet"

    def __init__(
        self,
        replica_id: int,
        params: ProtocolParams,
        beacon: Optional[Beacon] = None,
        payload_source: Optional[PayloadSource] = None,
        registry: Optional[KeyRegistry] = None,
        epoch_duration: Optional[float] = None,
    ) -> None:
        super().__init__(replica_id, params, registry)
        params.validate_resilience(require_fast_path=False)
        self.beacon = beacon or RoundRobinBeacon(list(range(params.n)))
        self.payload_source = payload_source or PayloadSource(params.payload_size)
        #: Epoch length (``2Δ``); defaults to the shared rank delay.
        self.epoch_duration = epoch_duration if epoch_duration is not None else params.rank_delay
        if self.epoch_duration <= 0:
            raise ValueError("epoch duration must be positive")
        self.tree = BlockTree()
        self.chain = FinalizedChain()
        self.current_epoch = 0
        self.finalized_epoch = 0
        #: Per-epoch vote tallies, shared quorum engine.
        self.votes = CertificateCollector()
        #: Epochs in which this replica already voted.
        self._voted_epochs: Set[int] = set()
        self._proposed_epochs: Set[int] = set()
        #: Memoised notarized-chain length per notarized block (genesis = 1).
        self._notarized_length: Dict[BlockId, int] = {self.tree.genesis_id: 1}
        #: Tip of the longest notarized chain seen so far.
        self._best_tip: Block = self.tree.block(self.tree.genesis_id)
        #: Proposals whose parent has not arrived yet, keyed by parent id.
        self._pending_proposals: Dict[BlockId, List[BlockProposal]] = {}

    # ------------------------------------------------------------------ #
    # Quorum
    # ------------------------------------------------------------------ #

    @property
    def quorum(self) -> int:
        """Streamlet notarizes with ``≥ 2n/3`` votes."""
        return math.ceil(2 * self.params.n / 3)

    def _vote_tracker(self, epoch: int) -> QuorumTracker:
        """The epoch's notarization-vote tally (created on first use)."""
        return self.votes.tracker(epoch, VoteKind.NOTARIZATION, self.quorum)

    # ------------------------------------------------------------------ #
    # Protocol interface
    # ------------------------------------------------------------------ #

    def on_start(self, ctx: ReplicaContext) -> None:
        """Join the epoch the shared clock is in and arm its end.

        Epoch ``e`` spans ``[(e - 1) · d, e · d)`` of ``ctx.now()``, so a
        replica that boots late (a cluster node, a replica recovering from a
        crash at time 0) joins the epoch its peers are in instead of
        restarting the count at 1.
        """
        now = ctx.now()  # read once: a cluster node's clock moves between reads
        epoch = math.floor(now / self.epoch_duration) + 1
        end = epoch * self.epoch_duration
        if end <= now:  # ``now / d`` rounded down onto an integer
            epoch, end = epoch + 1, end + self.epoch_duration
        self._begin_epoch(ctx, epoch, end - now)

    def on_message(self, ctx: ReplicaContext, sender: int, message: Message) -> None:
        """Dispatch proposals and votes."""
        if isinstance(message, BlockProposal):
            self._handle_proposal(ctx, sender, message)
        elif isinstance(message, VoteMessage):
            for vote in message.votes:
                self._handle_vote(ctx, vote)

    def on_timer(self, ctx: ReplicaContext, timer: Timer) -> None:
        """Epoch boundary."""
        if timer.name == "epoch":
            self._begin_epoch(ctx, timer.data)

    # ------------------------------------------------------------------ #
    # Epochs and proposing
    # ------------------------------------------------------------------ #

    def _begin_epoch(self, ctx: ReplicaContext, epoch: int,
                     remaining: Optional[float] = None) -> None:
        """Enter ``epoch``; its end is ``remaining`` seconds away (a whole
        epoch unless given)."""
        self.current_epoch = epoch
        ctx.set_timer(self.epoch_duration if remaining is None else remaining,
                      "epoch", epoch + 1)
        if self.beacon.leader(epoch) == self.replica_id:
            self._propose(ctx, epoch)

    def _notarized_chain_length(self, block: Block) -> int:
        """Length of the notarized chain ending at ``block`` (memoised)."""
        cached = self._notarized_length.get(block.id)
        if cached is not None:
            return cached
        if not self.tree.is_notarized(block.id):
            return 0
        # Walk towards genesis until a memoised ancestor (or a gap) is found.
        walk: List[Block] = []
        current: Optional[Block] = block
        base = 0
        while current is not None and self.tree.is_notarized(current.id):
            cached = self._notarized_length.get(current.id)
            if cached is not None:
                base = cached
                break
            walk.append(current)
            current = self.tree.parent(current.id)
        length = base
        for b in reversed(walk):
            length += 1
            self._notarized_length[b.id] = length
        return self._notarized_length[block.id]

    def _best_chain_length(self) -> int:
        """Length of the longest notarized chain this replica has seen."""
        return self._notarized_chain_length(self._best_tip)

    def _propose(self, ctx: ReplicaContext, epoch: int) -> None:
        if epoch in self._proposed_epochs:
            return
        parent = self._best_tip
        self._proposed_epochs.add(epoch)
        payload, logical_size = self.payload_source.payload_for(epoch, self.replica_id)
        block = Block(
            round=epoch,
            proposer=self.replica_id,
            rank=0,
            parent_id=parent.id,
            payload=payload,
            payload_size=logical_size,
        )
        self.proposal_times[block.id] = ctx.now()
        ctx.broadcast(BlockProposal(block=block))

    # ------------------------------------------------------------------ #
    # Voting and notarization
    # ------------------------------------------------------------------ #

    def _handle_proposal(self, ctx: ReplicaContext, sender: int, proposal: BlockProposal) -> None:
        block = proposal.block
        if block.round <= 0:
            return
        if block.proposer != self.beacon.leader(block.round):
            return
        if block.parent_id is None:
            return
        if block.parent_id not in self.tree:
            # Deliveries from different senders can reorder (e.g. a partition
            # healing unevenly per link); park the proposal until its parent
            # arrives — dropping it would wedge this replica forever, since
            # every later block descends from the missing one.
            pending = self._pending_proposals.setdefault(block.parent_id, [])
            if all(parked.block.id != block.id for parked in pending):
                pending.append(proposal)
            return
        if block.id not in self.tree:
            self.tree.add_block(block)
            self._try_notarize(ctx, block.round, block.id)
            for parked in self._pending_proposals.pop(block.id, []):
                self._handle_proposal(ctx, parked.block.proposer, parked)
        if block.round != self.current_epoch or block.round in self._voted_epochs:
            return
        parent = self.tree.block(block.parent_id)
        if self._notarized_chain_length(parent) < self._best_chain_length():
            return
        self._voted_epochs.add(block.round)
        vote = NotarizationVote(round=block.round, block_id=block.id, voter=self.replica_id)
        ctx.broadcast(VoteMessage(votes=(vote,), sender=self.replica_id))

    def _handle_vote(self, ctx: ReplicaContext, vote: Vote) -> None:
        if vote.kind is not VoteKind.NOTARIZATION or not 0 <= vote.voter < self.params.n:
            return
        self._vote_tracker(vote.round).add_vote(vote.block_id, vote.voter)
        self._try_notarize(ctx, vote.round, vote.block_id)

    def _try_notarize(self, ctx: ReplicaContext, epoch: int, block_id: BlockId) -> None:
        if block_id not in self.tree or self.tree.is_notarized(block_id):
            return
        if not self._vote_tracker(epoch).reached(block_id):
            return
        self.tree.mark_notarized(block_id)
        block = self.tree.block(block_id)
        if self._notarized_chain_length(block) > self._best_chain_length():
            self._best_tip = block
        self._try_finalize(ctx, block)

    # ------------------------------------------------------------------ #
    # Finality: three consecutive notarized epochs
    # ------------------------------------------------------------------ #

    def _try_finalize(self, ctx: ReplicaContext, block: Block) -> None:
        parent = self.tree.parent(block.id)
        if parent is None:
            return
        grandparent = self.tree.parent(parent.id)
        if grandparent is None:
            return
        consecutive = (
            block.round == parent.round + 1 and parent.round == grandparent.round + 1
        )
        if not consecutive:
            return
        if not (self.tree.is_notarized(parent.id) and self.tree.is_notarized(grandparent.id)):
            return
        self._commit(ctx, parent)

    def _commit(self, ctx: ReplicaContext, block: Block) -> None:
        if block.round <= self.finalized_epoch:
            return
        try:
            segment = self.tree.chain_to(block.id, self.chain)
        except Exception:
            return
        for b in segment:
            self.tree.mark_notarized(b.id)
            self.tree.mark_finalized(b.id)
        appended = self.chain.append_segment(segment)
        if appended:
            ctx.commit(appended, finalization_kind="slow")
        self.finalized_epoch = block.round
