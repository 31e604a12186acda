"""Chained HotStuff with a round-robin pacemaker.

One of the two baselines the paper compares against (Yin et al., PODC 2019,
as implemented in the Bamboo framework).  This is the classic 3-phase chained
variant:

* Views rotate round-robin.  The leader of view ``v`` proposes a block
  extending the highest known quorum certificate (QC) and carrying that QC as
  its *justify*.
* Replicas vote for at most one block per view, provided the block is
  *safe*: it extends the locked block, or its justify is newer than the
  lock.  Votes are broadcast (rather than sent only to the next leader) so
  quorum certificates also form when the next leader is faulty.
* A QC forms from ``n - f`` votes.  The 3-chain commit rule applies: when a
  block has a QC and its parent and grandparent have QCs in consecutive
  views, the grandparent (and all its ancestors) are committed.
* Pacemaker: a per-view timeout; on expiry replicas advance to the next view
  and send their highest QC to its leader, which may then propose.

The resulting fault-free proposer latency is several message delays longer
than ICC/Banyan (votes travel leader-to-leader rather than all-to-all), which
is exactly the effect Table 1 and Figure 6 of the paper illustrate.
"""

from __future__ import annotations

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
from repro.types.certificates import Notarization
from repro.types.messages import BlockProposal, Message, VoteMessage
from repro.types.votes import NotarizationVote, Vote, VoteKind


@dataclass(frozen=True)
class NewViewMessage:
    """Pacemaker message: a replica's highest QC, sent to the next leader."""

    view: int
    high_qc: Optional[Notarization]
    sender: int

    @property
    def wire_size(self) -> int:
        """Logical size in bytes (a QC plus a small header)."""
        if self.high_qc is None:
            return 96
        return 96 * max(1, len(self.high_qc))


class HotStuffReplica(Protocol):
    """A single chained-HotStuff replica."""

    name = "hotstuff"

    def __init__(
        self,
        replica_id: int,
        params: ProtocolParams,
        beacon: Optional[Beacon] = None,
        payload_source: Optional[PayloadSource] = None,
        registry: Optional[KeyRegistry] = None,
    ) -> None:
        super().__init__(replica_id, params, registry)
        params.validate_resilience(require_fast_path=False)
        self.beacon = beacon or RoundRobinBeacon(list(range(params.n)))
        self.payload_source = payload_source or PayloadSource(params.payload_size)
        self.tree = BlockTree()
        self.chain = FinalizedChain()
        self.current_view = 0
        self.last_voted_view = 0
        self.committed_round = 0
        #: QC per block id.
        self._qc_by_block: Dict[BlockId, Notarization] = {}
        self.high_qc: Optional[Notarization] = None
        self.locked_qc: Optional[Notarization] = None
        #: Vote tallies per view, shared quorum engine.
        self.votes = CertificateCollector()
        #: New-view senders per view (pacemaker quorum).
        self._new_views: Dict[int, Set[int]] = {}
        self._proposed_views: Set[int] = set()
        self._view_timer: Optional[int] = None
        #: Proposals whose parent has not arrived yet, keyed by parent id.
        self._pending_proposals: Dict[BlockId, List[BlockProposal]] = {}

    # ------------------------------------------------------------------ #
    # Quorum
    # ------------------------------------------------------------------ #

    @property
    def quorum(self) -> int:
        """Votes needed to form a QC (``n - f``)."""
        return self.params.bft_quorum

    def _vote_tracker(self, view: int) -> QuorumTracker:
        """The view's QC-vote tally (created on first use)."""
        return self.votes.tracker(view, VoteKind.NOTARIZATION, self.quorum)

    # ------------------------------------------------------------------ #
    # Protocol interface
    # ------------------------------------------------------------------ #

    def on_start(self, ctx: ReplicaContext) -> None:
        """Enter view 1; its leader proposes on top of genesis."""
        genesis = self.tree.block(self.tree.genesis_id)
        self.high_qc = Notarization(
            round=0, block_id=genesis.id, voters=frozenset(ctx.replica_ids)
        )
        self._qc_by_block[genesis.id] = self.high_qc
        self._enter_view(ctx, 1)

    def on_message(self, ctx: ReplicaContext, sender: int, message: Message) -> None:
        """Dispatch proposals, votes, and pacemaker messages."""
        if isinstance(message, BlockProposal):
            self._handle_proposal(ctx, sender, message)
        elif isinstance(message, VoteMessage):
            for vote in message.votes:
                self._handle_vote(ctx, vote)
        elif isinstance(message, NewViewMessage):
            self._handle_new_view(ctx, message)

    def on_timer(self, ctx: ReplicaContext, timer: Timer) -> None:
        """View timeout: advance the pacemaker."""
        if timer.name != "view-timeout":
            return
        view = timer.data
        if view != self.current_view:
            return
        next_view = view + 1
        self._send_new_view(ctx, next_view)
        self._enter_view(ctx, next_view)

    # ------------------------------------------------------------------ #
    # Pacemaker
    # ------------------------------------------------------------------ #

    def _leader_of(self, view: int) -> int:
        return self.beacon.leader(view)

    def _enter_view(self, ctx: ReplicaContext, view: int) -> None:
        if view <= self.current_view and self.current_view != 0:
            return
        self.current_view = view
        if self._view_timer is not None:
            ctx.cancel_timer(self._view_timer)
        self._view_timer = ctx.set_timer(self.params.round_timeout, "view-timeout", view)
        if self._leader_of(view) == self.replica_id:
            self._try_propose(ctx, view)

    def _send_new_view(self, ctx: ReplicaContext, view: int) -> None:
        message = NewViewMessage(view=view, high_qc=self.high_qc, sender=self.replica_id)
        ctx.send(self._leader_of(view), message)

    def _handle_new_view(self, ctx: ReplicaContext, message: NewViewMessage) -> None:
        if message.high_qc is not None:
            self._update_high_qc(ctx, message.high_qc)
        senders = self._new_views.setdefault(message.view, set())
        senders.add(message.sender)
        if message.view > self.current_view:
            # A quorum of new-view messages is evidence the view has moved on.
            if len(senders) >= self.quorum:
                self._enter_view(ctx, message.view)
        if (
            self._leader_of(message.view) == self.replica_id
            and len(senders) >= self.quorum
        ):
            self._enter_view(ctx, message.view)
            self._try_propose(ctx, message.view)

    # ------------------------------------------------------------------ #
    # Proposing
    # ------------------------------------------------------------------ #

    def _try_propose(self, ctx: ReplicaContext, view: int) -> None:
        if view in self._proposed_views or self._leader_of(view) != self.replica_id:
            return
        if self.high_qc is None:
            return
        parent = self.tree.get(self.high_qc.block_id)
        if parent is None:
            return
        self._proposed_views.add(view)
        payload, logical_size = self.payload_source.payload_for(view, self.replica_id)
        block = Block(
            round=view,
            proposer=self.replica_id,
            rank=0,
            parent_id=parent.id,
            payload=payload,
            payload_size=logical_size,
        )
        self.proposal_times[block.id] = ctx.now()
        ctx.broadcast(BlockProposal(block=block, parent_notarization=self.high_qc))

    # ------------------------------------------------------------------ #
    # Proposal handling and voting
    # ------------------------------------------------------------------ #

    def _handle_proposal(self, ctx: ReplicaContext, sender: int, proposal: BlockProposal) -> None:
        block = proposal.block
        justify = proposal.parent_notarization
        if block.round <= 0 or justify is None:
            return
        if block.proposer != self._leader_of(block.round):
            return
        if justify.block_id != block.parent_id:
            return
        if justify.mask >> self.params.n:
            return  # names voters that are not replicas
        if not justify.verify(None, self.quorum) and justify.round != 0:
            return
        if block.parent_id not in self.tree:
            # Without the parent we cannot evaluate safety.  Leaders always
            # extend a QC block, but deliveries from *different* senders can
            # reorder (e.g. a partition healing unevenly per link), so park
            # the proposal until its parent arrives — dropping it here wedges
            # the replica forever, since every later block descends from the
            # missing one.
            pending = self._pending_proposals.setdefault(block.parent_id, [])
            if all(parked.block.id != block.id for parked in pending):
                pending.append(proposal)
            return
        self.tree.add_block(block)
        self._qc_by_block.setdefault(justify.block_id, justify)
        self._update_high_qc(ctx, justify)
        self._recheck_votes(ctx, block)
        if block.round > self.current_view:
            self._enter_view(ctx, block.round)
        if self._is_safe(block, justify) and block.round > self.last_voted_view:
            self.last_voted_view = block.round
            vote = NotarizationVote(round=block.round, block_id=block.id, voter=self.replica_id)
            # Votes are broadcast rather than sent only to the next leader so
            # that a QC still forms when that leader is crashed; the next
            # correct leader can then extend it after its timeout.  This keeps
            # the 3-chain commit rule live under round-robin rotation with a
            # periodically recurring faulty leader.
            ctx.broadcast(VoteMessage(votes=(vote,), sender=self.replica_id))
        for parked in self._pending_proposals.pop(block.id, []):
            self._handle_proposal(ctx, parked.block.proposer, parked)

    def _is_safe(self, block: Block, justify: Notarization) -> bool:
        """HotStuff safety rule: extend the lock, or justify is newer than it."""
        if self.locked_qc is None:
            return True
        if justify.round > self.locked_qc.round:
            return True
        return self.tree.is_ancestor(self.locked_qc.block_id, block.id)

    def _handle_vote(self, ctx: ReplicaContext, vote: Vote) -> None:
        if vote.kind is not VoteKind.NOTARIZATION or not 0 <= vote.voter < self.params.n:
            return
        self._vote_tracker(vote.round).add_vote(vote.block_id, vote.voter)
        self._try_form_qc(ctx, vote.round, vote.block_id)

    def _recheck_votes(self, ctx: ReplicaContext, block: Block) -> None:
        """A QC may have been waiting for this block to arrive."""
        if self._vote_tracker(block.round).count(block.id):
            self._try_form_qc(ctx, block.round, block.id)

    def _try_form_qc(self, ctx: ReplicaContext, view: int, block_id: BlockId) -> None:
        tracker = self._vote_tracker(view)
        if not tracker.reached(block_id) or block_id not in self.tree:
            return
        qc = Notarization(round=view, block_id=block_id, mask=tracker.mask(block_id))
        self._qc_by_block[block_id] = qc
        self._update_high_qc(ctx, qc)
        next_view = view + 1
        if self._leader_of(next_view) == self.replica_id:
            self._enter_view(ctx, next_view)
            self._try_propose(ctx, next_view)

    # ------------------------------------------------------------------ #
    # QC tracking, locking, and the 3-chain commit rule
    # ------------------------------------------------------------------ #

    def _update_high_qc(self, ctx: ReplicaContext, qc: Notarization) -> None:
        self._qc_by_block.setdefault(qc.block_id, qc)
        if self.high_qc is None or qc.round > self.high_qc.round:
            self.high_qc = qc
        self._update_lock_and_commit(ctx, qc)

    def _update_lock_and_commit(self, ctx: ReplicaContext, qc: Notarization) -> None:
        block = self.tree.get(qc.block_id)
        if block is None or block.parent_id is None:
            return
        parent = self.tree.get(block.parent_id)
        if parent is None:
            return
        parent_qc = self._qc_by_block.get(parent.id)
        if parent_qc is None:
            return
        # 2-chain: lock on the parent QC.
        if self.locked_qc is None or parent_qc.round > self.locked_qc.round:
            self.locked_qc = parent_qc
        if parent.parent_id is None:
            return
        grandparent = self.tree.get(parent.parent_id)
        if grandparent is None or grandparent.id not in self._qc_by_block:
            return
        # 3-chain with consecutive views commits the grandparent.
        if block.round == parent.round + 1 and parent.round == grandparent.round + 1:
            self._commit(ctx, grandparent)

    def _commit(self, ctx: ReplicaContext, block: Block) -> None:
        if block.round <= self.committed_round:
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
        self.committed_round = block.round
