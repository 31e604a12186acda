"""Internet Computer Consensus (ICC) — the slow path Banyan builds on.

This is the protocol of Section 4 of the Banyan paper (after Camenisch et
al., PODC 2022), implemented as a sans-io state machine:

* Rounds: in round ``k`` each replica may propose a block extending a
  notarized round ``k-1`` block.  A random-beacon (here: round-robin)
  permutation assigns each replica a rank; rank 0 is the leader.
* Proposal delay ``Δ_prop(r) = 2Δ·r`` and notarization delay
  ``Δ_notary(r) = 2Δ·r`` ensure that in synchronous, fault-free rounds only
  the leader's block is notarized.
* A block is **notarized** once ``n - f`` notarization votes are received;
  replicas then stop notarization-voting in the round, broadcast the
  notarization, and move to the next round.
* A replica that notarization-voted for no other block additionally sends a
  **finalization vote**; ``n - f`` of them explicitly finalize the block and
  implicitly finalize its ancestors (three message delays end to end).

The implementation tolerates out-of-order delivery: blocks whose parent has
not arrived, votes for unknown blocks, and certificates for future rounds are
buffered and re-evaluated when their prerequisites arrive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set

from repro.beacon import Beacon, RoundRobinBeacon
from repro.blocktree import BlockTree, FinalizedChain
from repro.blocktree.tree import BlockTreeError
from repro.protocols.base import Protocol, ProtocolParams
from repro.runtime.context import ReplicaContext, Timer
from repro.smr.mempool import PayloadSource
from repro.smr.quorum import QuorumTracker
from repro.types.blocks import Block, BlockId
from repro.types.certificates import Finalization, Notarization, UnlockProof
from repro.types.messages import BlockProposal, CertificateMessage, Message, VoteMessage
from repro.types.votes import FinalizationVote, NotarizationVote, Vote, VoteKind


#: The wire-message classes ``on_message`` dispatches on, most frequent first.
_MESSAGE_SHAPES = (VoteMessage, CertificateMessage, BlockProposal)

#: The certificate classes ICC's certificate handler dispatches on.
_CERTIFICATE_SHAPES = (Notarization, Finalization)

#: Vote kinds as module constants: the vote handlers compare every vote's
#: kind, and a global is cheaper to load than an enum member.
NOTARIZATION = VoteKind.NOTARIZATION
FINALIZATION = VoteKind.FINALIZATION
FAST = VoteKind.FAST

#: Rounds of state kept below ``min(k_max, current_round)``.  Nothing a
#: replica sends reads a round below that minimum (proposals and relays
#: cite the previous round, certificates the current or a not yet finalized
#: one); the window is slack, so a late message for a recent round still
#: finds its tally instead of being dropped at the door.  The block tree
#: and the finalized chain keep one round more (the parent round of the
#: lowest proposal admitted).
ROUND_WINDOW = 8


def _base_shape(obj: Any, shapes: tuple) -> Optional[type]:
    """The first of ``shapes`` that ``obj`` is an instance of, if any: the
    exact-class dispatch's fallback for a subclass of a wire type."""
    return next((base for base in shapes if isinstance(obj, base)), None)


@dataclass(slots=True)
class _RoundState:
    """Everything a replica keeps about one round, behind one lookup.

    A message handler fetches this once (:meth:`ICCReplica._round`) and hands
    it to every helper the message reaches, which read the round's tallies
    as plain attributes.  It is the round's only owner: releasing the round
    (:meth:`ICCReplica._release_round`) drops all of it at once.
    """

    round: int
    notarization: QuorumTracker
    finalization: QuorumTracker
    #: Banyan only: the round's :class:`repro.core.fastpath.FastPathState`,
    #: whether this replica already broadcast its fast vote, and the rank-0
    #: blocks whose proposal carried the proposer's fast vote (required by
    #: the validity rule, Algorithm 2 line 63).
    fast: Any = None
    fast_vote_sent: bool = False
    proposer_fast_votes: Set[BlockId] = field(default_factory=set)
    t0: float = 0.0
    entered: bool = False
    proposed: bool = False
    advanced: bool = False
    finalization_vote_sent: bool = False
    #: Block ids this replica sent a notarization vote for (the set ``N``).
    notarization_voted: Set[BlockId] = field(default_factory=set)
    #: Block ids whose notarization certificate we have broadcast already.
    notarization_broadcast: Set[BlockId] = field(default_factory=set)
    #: Block ids this replica relayed (tip forwarding).
    relayed: Set[BlockId] = field(default_factory=set)
    #: Pending notarization-delay timer target times already armed.
    armed_vote_timers: Set[float] = field(default_factory=set)
    #: ``len(notarization.fired)`` when ``_try_notarizations`` last scanned;
    #: callers re-scan only once this moved or a reached block is deferred,
    #: so a vote that changes neither costs the tally and one check.
    notarization_fired_seen: int = 0
    #: Whether a quorum-reached block was skipped because it has not been
    #: received yet (forces a re-scan on the next vote or certificate).
    notarization_deferred: bool = False


class ICCReplica(Protocol):
    """A single ICC replica."""

    name = "icc"

    def __init__(
        self,
        replica_id: int,
        params: ProtocolParams,
        beacon: Optional[Beacon] = None,
        payload_source: Optional[PayloadSource] = None,
    ) -> None:
        super().__init__(replica_id, params)
        params.validate_resilience(require_fast_path=False)
        if params.rank_delay <= 0:
            # With 2Δ = 0 every replica votes for every rank's block at
            # once, so none casts a finalization vote: nothing commits.
            raise ValueError("rank delay must be positive")
        self.beacon = beacon or RoundRobinBeacon(list(range(params.n)))
        self.payload_source = payload_source or PayloadSource(params.payload_size)
        #: Adaptive 2Δ estimator (Remark 4.2); ``None`` when delays are fixed.
        self.delay_estimator = None
        if params.adaptive_delays:
            from repro.core.adaptive import AdaptiveDelayEstimator

            self.delay_estimator = AdaptiveDelayEstimator(initial_delay=params.rank_delay)
        self.tree = BlockTree()
        self.chain = FinalizedChain()
        self.current_round = 0
        self.k_max = 0
        self._rounds: Dict[int, _RoundState] = {}
        #: The lowest round whose state is still held: rounds below it were
        #: released (:meth:`_release_rounds`) and a vote, certificate or
        #: block naming one is dropped where it enters.
        self._floor = 0
        #: The state :meth:`_round` returned last.  Votes and certificates
        #: arrive in waves about one round (and a proposal's parent
        #: certificates share theirs), so the message handlers look here
        #: first and call :meth:`_round` only when the round moved.
        self._recent: Optional[_RoundState] = None
        #: Blocks waiting for their parent to arrive, keyed by parent id.
        self._orphans: Dict[BlockId, List[Block]] = {}
        #: Finalizations (block ids) waiting for the block/ancestors to arrive.
        self._pending_finalizations: Dict[BlockId, str] = {}
        #: Quorum thresholds resolved once (the properties derive them from
        #: immutable params; certificates are checked against them per message).
        self._notarization_quorum = self.notarization_quorum
        self._finalization_quorum = self.finalization_quorum
        #: Replica ids are ``0..n-1``: a vote from outside that range, or a
        #: certificate / proof with a voter bit at or above ``n``, is dropped
        #: where it enters (phantom voters must not count toward a quorum).
        self._n = params.n

    # ------------------------------------------------------------------ #
    # Quorums (overridden by Banyan)
    # ------------------------------------------------------------------ #

    def _proposal_delay(self, rank: int) -> float:
        """``Δ_prop(r)``, using the adaptive estimate when enabled."""
        if self.delay_estimator is not None:
            return self.delay_estimator.proposal_delay(rank)
        return self.params.proposal_delay(rank)

    def _notarization_delay(self, rank: int) -> float:
        """``Δ_notary(r)``, using the adaptive estimate when enabled."""
        if self.delay_estimator is not None:
            return self.delay_estimator.notarization_delay(rank)
        return self.params.notarization_delay(rank)

    @property
    def notarization_quorum(self) -> int:
        """Votes needed to notarize a block (``n - f`` in ICC)."""
        return self.params.icc_quorum

    @property
    def finalization_quorum(self) -> int:
        """Votes needed to SP-finalize a block (``n - f`` in ICC)."""
        return self.params.icc_quorum

    # ------------------------------------------------------------------ #
    # Protocol interface
    # ------------------------------------------------------------------ #

    def on_start(self, ctx: ReplicaContext) -> None:
        """Enter round 1 on top of the genesis block."""
        self.current_round = 1
        self._enter_round(ctx, 1)

    def on_message(self, ctx: ReplicaContext, sender: int, message: Message) -> None:
        """Dispatch on the message shape (exact class first, most frequent
        first; ``isinstance`` only for a subclass of a wire message)."""
        shape = message.__class__
        if shape not in _MESSAGE_SHAPES:
            shape = _base_shape(message, _MESSAGE_SHAPES)
        if shape is VoteMessage:
            self._handle_votes(ctx, message.votes)
        elif shape is CertificateMessage:
            self._handle_certificate(ctx, message)
        elif shape is BlockProposal:
            self._handle_proposal(ctx, sender, message)

    def on_timer(self, ctx: ReplicaContext, timer: Timer) -> None:
        """Handle proposal and notarization-delay timers."""
        if timer.name == "propose":
            round_k = timer.data
            if round_k == self.current_round and not self._round(round_k).proposed:
                self._propose(ctx, round_k)
        elif timer.name == "notarize":
            round_k = timer.data
            self._try_notarization_votes(ctx, round_k)

    # ------------------------------------------------------------------ #
    # Round lifecycle
    # ------------------------------------------------------------------ #

    def _round(self, round_k: int) -> _RoundState:
        state = self._rounds.get(round_k)
        if state is None:
            state = self._rounds[round_k] = self._new_round(round_k)
        self._recent = state
        return state

    def _new_round(self, round_k: int) -> _RoundState:
        """Create the round's state around its two vote tallies."""
        return _RoundState(
            round=round_k,
            notarization=QuorumTracker(self._notarization_quorum),
            finalization=QuorumTracker(self._finalization_quorum))

    def _enter_round(self, ctx: ReplicaContext, round_k: int) -> None:
        state = self._round(round_k)
        state.t0 = ctx.now()
        state.entered = True
        rank = self.beacon.rank(round_k, self.replica_id)
        if rank == 0:
            self._propose(ctx, round_k)
        else:
            ctx.set_timer(self._proposal_delay(rank), "propose", round_k)
        # Blocks and votes for this round may have arrived before we entered.
        self._try_notarization_votes(ctx, round_k)
        self._try_notarizations(ctx, state)
        self._try_advance(ctx, round_k)

    def _parent_candidates(self, round_k: int) -> List[Block]:
        """Blocks at height ``round_k - 1`` that are safe to extend."""
        return self.tree.notarized_at_round(round_k - 1)

    def _propose(self, ctx: ReplicaContext, round_k: int) -> None:
        state = self._round(round_k)
        if state.proposed or state.advanced:
            return
        candidates = self._parent_candidates(round_k)
        if not candidates:
            return
        parent = min(candidates, key=lambda b: (b.rank, b.id))
        payload, logical_size = self.payload_source.payload_for(round_k, self.replica_id)
        rank = self.beacon.rank(round_k, self.replica_id)
        block = Block(
            round=round_k,
            proposer=self.replica_id,
            rank=rank,
            parent_id=parent.id,
            payload=payload,
            payload_size=logical_size,
        )
        state.proposed = True
        self.proposal_times[block.id] = ctx.now()
        proposal = self._make_proposal(round_k, block, parent)
        ctx.broadcast(proposal)
        self._after_propose(ctx, round_k, block)

    def _make_proposal(self, round_k: int, block: Block, parent: Block) -> BlockProposal:
        """Build the proposal message for our own block.

        ICC attaches the parent's notarization; Banyan's hooks additionally
        attach the parent's unlock proof and, for rank-0 proposals, the
        proposer's own fast vote (Addition 2).
        """
        return BlockProposal(
            block=block,
            parent_notarization=self._notarization_for(parent),
            parent_unlock_proof=self._parent_unlock_proof(parent),
            fast_vote=self._proposal_fast_vote(round_k, block),
        )

    def _parent_unlock_proof(self, parent: Optional[Block]) -> Optional[UnlockProof]:
        """Unlock proof attached to proposals/relays (Banyan overrides)."""
        return None

    def _proposal_fast_vote(self, round_k: int, block: Block) -> Optional[Vote]:
        """Fast vote attached to our own proposal (Banyan overrides)."""
        return None

    def _relay_fast_vote(self, round_k: int, block: Block) -> Optional[Vote]:
        """Fast vote attached to a relayed proposal (Banyan overrides)."""
        return None

    def _after_propose(self, ctx: ReplicaContext, round_k: int, block: Block) -> None:
        """Hook invoked after broadcasting our own proposal (no-op for ICC)."""

    def _notarization_for(self, block: Block) -> Optional[Notarization]:
        """Build a notarization certificate for ``block`` from received votes."""
        if block.is_genesis() or not self.tree.is_notarized(block.id):
            return None
        mask = self._round(block.round).notarization.mask(block.id)
        if not mask:
            return None
        return Notarization(round=block.round, block_id=block.id, mask=mask)

    # ------------------------------------------------------------------ #
    # Proposal handling
    # ------------------------------------------------------------------ #

    def _handle_proposal(self, ctx: ReplicaContext, sender: int, proposal: BlockProposal) -> None:
        block = proposal.block
        if block.round <= 0 or block.round < self._floor:
            return
        # A block in the tree passed the rank check (a pure function of the
        # block) when admitted and has nothing left to ingest: n-1 of n relays.
        known = block.id in self.tree
        if not known and block.rank != self.beacon.rank(block.round, block.proposer):
            return  # rank does not match the beacon permutation — invalid
        notarization = proposal.parent_notarization
        if (notarization is not None and not notarization.mask >> self._n
                and notarization.round >= self._floor
                and notarization.verify(self._notarization_quorum)):
            state = self._recent  # Banyan just fetched it for the unlock proof
            if state is None or state.round != notarization.round:
                state = self._round(notarization.round)
            self._register_notarization(ctx, notarization, state)
        if not known:
            self._ingest_block(ctx, block)

    def _ingest_block(self, ctx: ReplicaContext, block: Block) -> None:
        if block.id in self.tree:
            return
        if block.parent_id is not None and block.parent_id not in self.tree:
            self._orphans.setdefault(block.parent_id, []).append(block)
            return
        self.tree.add_block(block)
        self._after_block_added(ctx, block)
        # Re-ingest any orphans waiting for this block.
        for orphan in self._orphans.pop(block.id, []):
            self._ingest_block(ctx, orphan)

    def _after_block_added(self, ctx: ReplicaContext, block: Block) -> None:
        round_k = block.round
        self._try_notarization_votes(ctx, round_k)
        self._try_notarizations(ctx, self._round(round_k))
        self._try_pending_finalizations(ctx)
        self._try_advance(ctx, round_k)

    # ------------------------------------------------------------------ #
    # Voting
    # ------------------------------------------------------------------ #

    def _is_valid(self, block: Block) -> bool:
        """Validity condition for voting/extension (parent notarized)."""
        if block.parent_id is None:
            return block.is_genesis()
        parent = self.tree.get(block.parent_id)
        if parent is None or parent.round != block.round - 1:
            return False
        return self.tree.is_notarized(parent.id)

    def _valid_blocks(self, round_k: int) -> List[Block]:
        return [b for b in self.tree.blocks_at_round(round_k) if self._is_valid(b)]

    def _should_stop_voting(self, round_k: int) -> bool:
        """ICC stops notarization-voting once the round has a notarized block."""
        return self._round(round_k).advanced

    def _try_notarization_votes(self, ctx: ReplicaContext, round_k: int) -> None:
        if round_k != self.current_round:  # before _round(): no state for a stale timer
            return
        state = self._round(round_k)
        if not state.entered or self._should_stop_voting(round_k):
            return
        valid_blocks = self._valid_blocks(round_k)
        if not valid_blocks:
            return
        min_rank = min(b.rank for b in valid_blocks)
        now = ctx.now()
        for block in valid_blocks:
            if block.rank != min_rank or block.id in state.notarization_voted:
                continue
            vote_time = state.t0 + self._notarization_delay(block.rank)
            if now + 1e-12 < vote_time:
                if vote_time not in state.armed_vote_timers:
                    state.armed_vote_timers.add(vote_time)
                    ctx.set_timer(vote_time - now, "notarize", round_k)
                continue
            self._cast_votes_for(ctx, round_k, block)

    def _cast_votes_for(self, ctx: ReplicaContext, round_k: int, block: Block) -> None:
        """Relay the block (tip forwarding) and broadcast a notarization vote."""
        state = self._round(round_k)
        state.notarization_voted.add(block.id)
        if (
            self.params.relay_proposals
            and block.proposer != self.replica_id
            and block.id not in state.relayed
        ):
            state.relayed.add(block.id)
            ctx.broadcast(self._relay_message(round_k, block))
        votes = self._votes_for_block(round_k, block)
        ctx.broadcast(VoteMessage(votes=tuple(votes), sender=self.replica_id))
        # Casting a vote can satisfy the round-advance condition (e.g. Banyan's
        # fast-vote requirement) when the block was already notarized.
        self._try_advance(ctx, round_k)

    def _relay_message(self, round_k: int, block: Block) -> BlockProposal:
        """The message used to forward someone else's block to the others.

        Shared by ICC and Banyan: the protocols differ only in which
        certificates/votes they attach, expressed through the
        ``_parent_unlock_proof`` / ``_relay_fast_vote`` hooks.
        """
        parent = self.tree.get(block.parent_id) if block.parent_id else None
        return BlockProposal(
            block=block,
            parent_notarization=self._notarization_for(parent) if parent else None,
            parent_unlock_proof=self._parent_unlock_proof(parent) if parent else None,
            fast_vote=self._relay_fast_vote(round_k, block),
            relayed_by=self.replica_id,
        )

    def _votes_for_block(self, round_k: int, block: Block) -> List[Vote]:
        """The votes broadcast when notarization-voting for ``block``.

        ICC sends only the notarization vote; Banyan overrides this to attach
        a fast vote the first time in a round (Addition 3).
        """
        return [self._make_vote(NOTARIZATION, round_k, block.id)]

    def _make_vote(self, kind: VoteKind, round_k: int, block_id: BlockId) -> Vote:
        if kind is NOTARIZATION:
            return NotarizationVote(round=round_k, block_id=block_id, voter=self.replica_id)
        if kind is FINALIZATION:
            return FinalizationVote(round=round_k, block_id=block_id, voter=self.replica_id)
        raise ValueError(f"unsupported vote kind for ICC: {kind}")

    def _handle_votes(self, ctx: ReplicaContext, votes) -> None:
        """Tally one message's votes; re-evaluate only what a tally changed.

        The round's state is fetched once (a message's votes share their
        round) and a vote whose voter is not a replica is dropped.  Every
        other vote of a round still held is tallied — voter-set sizes feed
        the certificates this replica sends.  More happens only when a
        block newly holds the notarization quorum (or one still awaits its
        proposal), or holds a finalization quorum in an unfinalized round.
        """
        n = self._n
        floor = self._floor
        round_k = state = None
        for vote in votes:
            voter = vote.voter
            if not 0 <= voter < n or vote.round < floor:
                continue
            if vote.round != round_k:
                round_k = vote.round
                state = self._recent
                if state is None or state.round != round_k:
                    state = self._round(round_k)
            kind = vote.kind
            if kind is NOTARIZATION:
                tracker = state.notarization
                tracker.add_vote(vote.block_id, voter)
                if (state.notarization_deferred
                        or len(tracker.fired) != state.notarization_fired_seen):
                    self._try_notarizations(ctx, state)
            elif kind is FINALIZATION:
                tracker = state.finalization
                tracker.add_vote(vote.block_id, voter)
                if round_k > self.k_max and vote.block_id in tracker.fired:
                    self._finalize(ctx, round_k, vote.block_id, kind="slow")
            elif kind is FAST:
                self._handle_fast_vote(ctx, vote, state)

    def _handle_fast_vote(self, ctx: ReplicaContext, vote: Vote, state: _RoundState) -> None:
        """ICC has no fast path; fast votes are ignored (Banyan overrides)."""

    # ------------------------------------------------------------------ #
    # Notarization
    # ------------------------------------------------------------------ #

    def _try_notarizations(self, ctx: ReplicaContext, state: _RoundState) -> None:
        """Notarize every received block of ``state``'s round holding a quorum.

        Idempotent: a scan that finds no block newly holding the quorum
        changes nothing.  The per-message callers (a vote, a certificate)
        therefore call it only if a block reached the quorum since the last
        scan (``len(fired)`` moved past ``notarization_fired_seen``) or a
        reached block still awaits its proposal (``notarization_deferred``),
        so a message that changes neither costs no call; a block arrival or
        a round entry scans unconditionally.
        """
        tracker = state.notarization
        round_k = state.round
        deferred = False
        for block_id in tracker.reached_blocks():
            if block_id not in self.tree:
                deferred = True
                continue
            if self.tree.is_notarized(block_id):
                continue
            self.tree.mark_notarized(block_id)
            self._on_block_notarized(ctx, round_k, block_id)
        state.notarization_fired_seen = len(tracker.fired)
        state.notarization_deferred = deferred

    def _on_block_notarized(self, ctx: ReplicaContext, round_k: int, block_id: BlockId) -> None:
        self._try_advance(ctx, round_k)
        # Children of this block may now be valid to vote for.
        self._try_notarization_votes(ctx, round_k + 1)

    def _register_notarization(self, ctx: ReplicaContext, notarization: Notarization,
                               state: _RoundState) -> None:
        tracker = state.notarization
        tracker.add_voters(notarization.block_id, notarization.mask)
        if state.notarization_deferred or len(tracker.fired) != state.notarization_fired_seen:
            self._try_notarizations(ctx, state)

    # ------------------------------------------------------------------ #
    # Round advancement
    # ------------------------------------------------------------------ #

    def _advance_candidates(self, round_k: int) -> List[Block]:
        """Blocks that allow the replica to move to the next round."""
        return self.tree.notarized_at_round(round_k)

    def _can_advance(self, round_k: int) -> bool:
        return bool(self._advance_candidates(round_k))

    def _try_advance(self, ctx: ReplicaContext, round_k: int) -> None:
        if round_k != self.current_round:
            return
        state = self._round(round_k)
        if state.advanced or not state.entered or not self._can_advance(round_k):
            return
        block = min(self._advance_candidates(round_k), key=lambda b: (b.rank, b.id))
        state.advanced = True
        if self.delay_estimator is not None:
            # Remark 4.2: learn the delay bound from how long rounds actually
            # take.  A round won by a non-leader block means the leader was
            # slow or faulty, so the estimate backs off instead.
            if block.rank == 0:
                self.delay_estimator.observe_round(ctx.now() - state.t0)
            else:
                self.delay_estimator.observe_timeout()
        self._broadcast_round_certificates(ctx, round_k, block)
        if not state.finalization_vote_sent and state.notarization_voted <= {block.id}:
            state.finalization_vote_sent = True
            vote = self._make_vote(FINALIZATION, round_k, block.id)
            ctx.broadcast(VoteMessage(votes=(vote,), sender=self.replica_id))
        self.current_round = round_k + 1
        self._enter_round(ctx, round_k + 1)

    def _broadcast_round_certificates(self, ctx: ReplicaContext, round_k: int, block: Block) -> None:
        """Broadcast the notarization of the block we advance with."""
        state = self._round(round_k)
        if block.id in state.notarization_broadcast:
            return
        state.notarization_broadcast.add(block.id)
        notarization = self._notarization_for(block)
        if notarization is not None:
            ctx.broadcast(CertificateMessage(certificate=notarization, sender=self.replica_id))

    # ------------------------------------------------------------------ #
    # Finalization
    # ------------------------------------------------------------------ #

    def _handle_certificate(self, ctx: ReplicaContext, message: CertificateMessage) -> None:
        certificate = message.certificate
        if certificate is not None and certificate.round >= self._floor:
            self._absorb_certificate(ctx, certificate, self._round(certificate.round))

    def _absorb_certificate(self, ctx: ReplicaContext, certificate: Any,
                            state: _RoundState) -> None:
        """Merge a received certificate into its round's ``state``."""
        if certificate.mask >> self._n:
            return
        shape = certificate.__class__
        if shape not in _CERTIFICATE_SHAPES:
            shape = _base_shape(certificate, _CERTIFICATE_SHAPES)
        if shape is Notarization:
            if certificate.verify(self._notarization_quorum):
                self._register_notarization(ctx, certificate, state)
        elif shape is Finalization:
            if certificate.verify(self._finalization_quorum):
                state.finalization.add_voters(certificate.block_id, certificate.mask)
                self._finalize(ctx, state.round, certificate.block_id, kind="slow")

    def _finalize(self, ctx: ReplicaContext, round_k: int, block_id: BlockId, kind: str) -> None:
        """Explicitly finalize ``block_id`` and output the chain up to it."""
        if round_k <= self.k_max:
            return
        if block_id not in self.tree:
            self._pending_finalizations[block_id] = kind
            return
        block = self.tree.block(block_id)
        try:
            # Only the blocks above the finalized chain: O(segment) per call.
            segment = self.tree.chain_to(block_id, self.chain)
        except BlockTreeError:
            # An ancestor has not arrived; retried when blocks are added.
            self._pending_finalizations[block_id] = kind
            return
        self._pending_finalizations.pop(block_id, None)
        self._broadcast_finalization(ctx, round_k, block_id, kind)
        for b in segment:
            self.tree.mark_notarized(b.id)
            self.tree.mark_finalized(b.id)
        appended = self.chain.append_segment(segment)
        if appended:
            ctx.commit(appended, finalization_kind=kind)
        self.k_max = block.round
        # Explicit finalization of a later round also lets us advance if the
        # slow path stalled (catch-up after asynchrony).
        self._try_advance(ctx, self.current_round)
        self._release_rounds()

    def _release_rounds(self) -> None:
        """Drop the state of rounds :data:`ROUND_WINDOW` below both the
        finalized height and the current round, so a replica's memory does
        not grow with the length of the run."""
        floor = min(self.k_max, self.current_round) - ROUND_WINDOW
        while self._floor < floor:
            self._release_round(self._floor)
            self._floor += 1

    def _release_round(self, round_k: int) -> Optional[_RoundState]:
        """Drop ``round_k``'s state, the blocks of round ``round_k - 1`` and
        the finalized chain below ``round_k``; return the state (``None`` if
        never held).

        Once ``round_k`` is released the lowest proposal admitted is of
        round ``round_k + 1``, so the tree keeps the parent round of that
        proposal, and the chain keeps its head for the next segment to
        extend.  Committed blocks have already left through ``ctx.commit``.
        """
        self.tree.release_round(round_k - 1)
        self.chain.release_below(round_k)
        return self._rounds.pop(round_k, None)

    @property
    def held_rounds(self) -> int:
        """Rounds whose state this replica still holds."""
        return len(self._rounds)

    def _broadcast_finalization(self, ctx: ReplicaContext, round_k: int,
                                block_id: BlockId, kind: str) -> None:
        mask = self._round(round_k).finalization.mask(block_id)
        if not mask:
            return
        finalization = Finalization(round=round_k, block_id=block_id, mask=mask)
        ctx.broadcast(CertificateMessage(certificate=finalization, sender=self.replica_id))

    def _try_pending_finalizations(self, ctx: ReplicaContext) -> None:
        for block_id, kind in list(self._pending_finalizations.items()):
            block = self.tree.get(block_id)
            if block is not None:
                self._finalize(ctx, block.round, block_id, kind)
