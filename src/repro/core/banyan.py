"""The Banyan protocol (Algorithms 1 and 2 of the paper).

Banyan extends the ICC slow path with an integrated fast path.  Following the
paper, the implementation is expressed as the set of changes applied to
:class:`repro.protocols.icc.ICCReplica`:

* **Restriction 1** — block proposals, notarization votes, fast votes, and
  finalization votes only refer to blocks that extend a notarized *and
  unlocked* parent (``_is_valid`` / ``_parent_candidates``).
* **Restriction 2** — a replica moves to the next round only once an
  *unlocked* block is notarized and it has sent a fast vote
  (``_advance_candidates`` / ``_can_advance``).
* **Addition 1** — on round advancement the notarization is broadcast
  together with an unlock proof (``_broadcast_round_certificates``).
* **Addition 2** — proposals carry the parent's notarization and unlock
  proof, and rank-0 proposals carry the proposer's own fast vote
  (the ``_parent_unlock_proof`` / ``_proposal_fast_vote`` /
  ``_relay_fast_vote`` attachment hooks of the shared ICC proposal/relay
  builders, plus ``_after_propose``).
* **Addition 3** — the first notarization vote of a round is accompanied by
  a fast vote for the same block (``_votes_for_block``).
* **Addition 4** — a rank-0 block that gathers ``n - p`` fast votes is
  FP-finalized; the fast votes are combined into a fast finalization and
  broadcast (``_update_fast_path`` / ``_broadcast_finalization``).

Quorums follow Algorithm 2: notarization and (slow) finalization use
``⌈(n+f+1)/2⌉`` votes; FP-finalization uses ``n - p`` fast votes.  The
resilience requirement is ``n ≥ max(3f + 2p - 1, 3f + 1)``.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Set, Tuple

from repro.beacon import Beacon
from repro.core.fastpath import FastPathState
from repro.protocols.base import ProtocolParams
from repro.protocols.icc import ICCReplica, _RoundState
from repro.runtime.context import ReplicaContext
from repro.smr.mempool import PayloadSource
from repro.types.blocks import Block, BlockId
from repro.types.certificates import FastFinalization, Finalization, Notarization, UnlockProof
from repro.types.messages import BlockProposal, CertificateMessage, VoteMessage
from repro.types.votes import FastVote, Vote, VoteKind


class BanyanReplica(ICCReplica):
    """A single Banyan replica: ICC plus the integrated fast path."""

    name = "banyan"

    def __init__(
        self,
        replica_id: int,
        params: ProtocolParams,
        beacon: Optional[Beacon] = None,
        payload_source: Optional[PayloadSource] = None,
    ) -> None:
        super().__init__(replica_id, params, beacon, payload_source)
        params.validate_resilience(require_fast_path=True)
        #: What outlives a released round's fast-path state, for
        #: :meth:`fast_path_verdicts`: the voters it caught fast-vote
        #: equivocating and the rounds that held more than one
        #: fast-finalizable block.
        self.released_fast_equivocators: Set[int] = set()
        self.released_fast_conflicts: List[int] = []
        self._fast_quorum = params.fast_quorum  # resolved once, like ICC's
        #: Count of FP- vs SP-finalized blocks (observability).
        self.fast_finalized_count = 0
        self.slow_finalized_count = 0

    # ------------------------------------------------------------------ #
    # Quorums (Algorithm 2)
    # ------------------------------------------------------------------ #

    @property
    def notarization_quorum(self) -> int:
        """Banyan notarizes with ``⌈(n+f+1)/2⌉`` votes (Algorithm 2, line 45)."""
        return self.params.banyan_quorum

    @property
    def finalization_quorum(self) -> int:
        """Banyan SP-finalizes with ``⌈(n+f+1)/2⌉`` votes (Algorithm 2, line 56)."""
        return self.params.banyan_quorum

    @property
    def fast_quorum(self) -> int:
        """FP-finalization requires ``n - p`` fast votes (Definition 6.2)."""
        return self.params.fast_quorum

    # ------------------------------------------------------------------ #
    # Fast-path state access
    # ------------------------------------------------------------------ #

    def _new_round(self, round_k: int) -> _RoundState:
        """A round's state additionally owns its :class:`FastPathState`."""
        state = super()._new_round(round_k)
        state.fast = FastPathState(
            unlock_threshold=self.params.unlock_threshold,
            fast_quorum=self._fast_quorum,
        )
        return state

    # ------------------------------------------------------------------ #
    # Restriction 1: validity requires an unlocked parent
    # ------------------------------------------------------------------ #

    def _is_valid(self, block: Block) -> bool:
        """A block is valid if it extends a notarized *and unlocked* parent.

        Rank-0 blocks must additionally have arrived with the proposer's own
        fast vote (Algorithm 2, line 63).
        """
        if not super()._is_valid(block):
            return False
        parent_id = block.parent_id
        if parent_id is not None and not self.tree.is_unlocked(parent_id):
            return False
        return block.rank != 0 or self._carried_proposer_fast_vote(block)

    def _carried_proposer_fast_vote(self, block: Block) -> bool:
        """Whether ``block``'s proposal arrived with its proposer's fast vote."""
        state = self._rounds.get(block.round)
        return state is not None and block.id in state.proposer_fast_votes

    def _parent_candidates(self, round_k: int) -> List[Block]:
        """Proposals may only extend notarized and unlocked blocks."""
        return self.tree.notarized_and_unlocked_at_round(round_k - 1)

    # ------------------------------------------------------------------ #
    # Addition 2: proposals carry unlock proofs and the leader's fast vote
    # ------------------------------------------------------------------ #

    def _parent_unlock_proof(self, parent: Optional[Block]) -> Optional[UnlockProof]:
        """Proposals and relays carry the parent's unlock proof (Addition 2)."""
        if parent is None or parent.is_genesis():
            return None
        return self._round(parent.round).fast.build_unlock_proof(
            parent.round, parent.id
        )

    def _proposal_fast_vote(self, round_k: int, block: Block) -> Optional[FastVote]:
        """Rank-0 proposals carry the proposer's own fast vote (Addition 2)."""
        if block.rank == 0:
            return self._make_fast_vote(round_k, block.id)
        return None

    def _relay_fast_vote(self, round_k: int, block: Block) -> Optional[FastVote]:
        """Preserve the proposer's fast vote so a relayed block stays valid."""
        if block.rank == 0 and self._carried_proposer_fast_vote(block):
            return FastVote(round=round_k, block_id=block.id, voter=block.proposer)
        return None

    def _after_propose(self, ctx: ReplicaContext, round_k: int, block: Block) -> None:
        """A rank-0 proposer has broadcast its fast vote along with the block."""
        if block.rank == 0:
            self._round(round_k).fast_vote_sent = True

    def _make_fast_vote(self, round_k: int, block_id: BlockId) -> FastVote:
        return FastVote(round=round_k, block_id=block_id, voter=self.replica_id)

    def _make_vote(self, kind: VoteKind, round_k: int, block_id: BlockId) -> Vote:
        if kind is VoteKind.FAST:
            return self._make_fast_vote(round_k, block_id)
        return super()._make_vote(kind, round_k, block_id)

    # ------------------------------------------------------------------ #
    # Proposal handling: absorb unlock proofs and the proposer's fast vote
    # ------------------------------------------------------------------ #

    def _handle_proposal(self, ctx: ReplicaContext, sender: int, proposal: BlockProposal) -> None:
        block = proposal.block
        fast_vote = proposal.fast_vote
        if fast_vote is not None and (fast_vote.kind is not VoteKind.FAST
                                      or not 0 <= fast_vote.voter < self._n):
            fast_vote = None
        if (fast_vote is not None and fast_vote.block_id == block.id
                and fast_vote.voter == block.proposer and block.round >= self._floor):
            self._round(block.round).proposer_fast_votes.add(block.id)
        proof = proposal.parent_unlock_proof
        if proof is not None and proof.round >= self._floor:
            self._absorb_unlock_proof(ctx, proof, self._round(proof.round))
        # The base handler directly: no ``super()`` object per message.
        ICCReplica._handle_proposal(self, ctx, sender, proposal)
        if fast_vote is not None and fast_vote.round >= self._floor:
            self._handle_fast_vote(ctx, fast_vote, self._round(fast_vote.round))

    # ------------------------------------------------------------------ #
    # Addition 3: the first notarization vote carries a fast vote
    # ------------------------------------------------------------------ #

    def _votes_for_block(self, round_k: int, block: Block) -> List[Vote]:
        votes: List[Vote] = [self._make_vote(VoteKind.NOTARIZATION, round_k, block.id)]
        state = self._round(round_k)
        if not state.fast_vote_sent:
            state.fast_vote_sent = True
            votes.append(self._make_fast_vote(round_k, block.id))
        return votes

    # ------------------------------------------------------------------ #
    # Fast votes, unlock conditions, FP-finalization
    # ------------------------------------------------------------------ #

    def _handle_fast_vote(self, ctx: ReplicaContext, vote: Vote, state: _RoundState) -> None:
        fast = state.fast
        if fast.record_fast_vote(vote.block_id, vote.voter) or fast.stale:
            self._update_fast_path(ctx, state)

    def _absorb_unlock_proof(self, ctx: ReplicaContext, proof: UnlockProof,
                             state: _RoundState) -> None:
        """Merge an unlock proof into its round's ``state`` (dropped if it
        names a voter that is not a replica)."""
        if proof.total_mask >> self._n:
            return
        fast = state.fast
        if fast.merge_unlock_proof(proof) or fast.stale:
            self._update_fast_path(ctx, state)

    def _after_block_added(self, ctx: ReplicaContext, block: Block) -> None:
        state = self._round(block.round)
        state.fast.record_block(block.id, block.rank)
        self._update_fast_path(ctx, state)
        super()._after_block_added(ctx, block)

    def _update_fast_path(self, ctx: ReplicaContext, state: _RoundState) -> None:
        """React to a change in the fast-path state of ``state``'s round.

        Change-driven: the handlers above call this only when the event
        added a block or new support (a duplicate vote, or an unlock proof
        that adds nothing, changes no outcome) or an earlier change still
        awaits evaluation (a fast finalization's votes are merged without
        one).  Definition 7.6 is re-evaluated only if the change could
        alter its decision, FP-finalization tried only in an unfinalized
        round.
        """
        fast = state.fast
        round_k = state.round
        newly_unlocked = False
        if fast.stale:
            tree = self.tree
            for block_id in fast.evaluate_unlocks().unlocked_blocks:
                if not tree.is_unlocked(block_id):
                    tree.mark_unlocked(block_id)
                    newly_unlocked = True
        if round_k > self.k_max:
            for block_id in fast.fast_finalizable_blocks():
                if round_k > self.k_max and block_id in self.tree:
                    self._finalize(ctx, round_k, block_id, kind="fast")
        if newly_unlocked:
            # Unlocking a round-k block can make round-(k+1) blocks valid,
            # enable our own deferred votes, and allow round advancement.
            self._try_notarization_votes(ctx, round_k)
            self._try_notarization_votes(ctx, round_k + 1)
            self._try_advance(ctx, round_k)

    # ------------------------------------------------------------------ #
    # Restriction 2: round advancement needs an unlocked notarized block
    # ------------------------------------------------------------------ #

    def _advance_candidates(self, round_k: int) -> List[Block]:
        return self.tree.notarized_and_unlocked_at_round(round_k)

    def _can_advance(self, round_k: int) -> bool:
        return self._round(round_k).fast_vote_sent and bool(self._advance_candidates(round_k))

    # ------------------------------------------------------------------ #
    # Addition 1: broadcast notarization together with an unlock proof
    # ------------------------------------------------------------------ #

    def _broadcast_round_certificates(self, ctx: ReplicaContext, round_k: int, block: Block) -> None:
        state = self._round(round_k)
        if block.id in state.notarization_broadcast:
            return
        state.notarization_broadcast.add(block.id)
        notarization = self._notarization_for(block)
        unlock_proof = state.fast.build_unlock_proof(round_k, block.id)
        ctx.broadcast(
            CertificateMessage(
                certificate=notarization,
                unlock_proof=unlock_proof,
                sender=self.replica_id,
            )
        )

    # ------------------------------------------------------------------ #
    # Addition 4: fast finalization certificates
    # ------------------------------------------------------------------ #

    def _handle_certificate(self, ctx: ReplicaContext, message: CertificateMessage) -> None:
        proof = message.unlock_proof
        certificate = message.certificate
        state = self._recent  # usually this wave's round already
        floor = self._floor
        if proof is not None and proof.round >= floor:
            if state is None or state.round != proof.round:
                state = self._round(proof.round)
            self._absorb_unlock_proof(ctx, proof, state)
        if certificate is not None and certificate.round >= floor:
            if state is None or state.round != certificate.round:
                state = self._round(certificate.round)
            if (certificate.__class__ is FastFinalization
                    or isinstance(certificate, FastFinalization)):
                self._absorb_fast_finalization(ctx, certificate, state)
            else:
                self._absorb_certificate(ctx, certificate, state)

    def _absorb_fast_finalization(self, ctx: ReplicaContext, certificate: FastFinalization,
                                  state: _RoundState) -> None:
        if certificate.mask >> self._n or not certificate.verify(self._fast_quorum):
            return
        round_k = state.round
        block_id = certificate.block_id
        state.fast.merge_fast_votes(block_id, certificate.mask)
        if block_id not in self.tree:
            self._pending_finalizations[block_id] = "fast"
        elif round_k > self.k_max:
            self._finalize(ctx, round_k, block_id, kind="fast")

    def _broadcast_finalization(self, ctx: ReplicaContext, round_k: int,
                                block_id: BlockId, kind: str) -> None:
        if kind == "fast":
            mask = self._round(round_k).fast.support_mask(block_id)
            if mask:
                certificate = FastFinalization(
                    round=round_k, block_id=block_id, mask=mask)
                ctx.broadcast(
                    CertificateMessage(certificate=certificate, sender=self.replica_id)
                )
            return
        super()._broadcast_finalization(ctx, round_k, block_id, kind)

    def _release_round(self, round_k: int) -> Optional[_RoundState]:
        state = super()._release_round(round_k)
        if state is not None:
            _judge(state, self.released_fast_equivocators, self.released_fast_conflicts)
        return state

    def fast_path_verdicts(self) -> Tuple[FrozenSet[int], List[int]]:
        """The fast path's verdicts over every round seen, held or released:
        the voters caught fast-vote equivocating, and the rounds holding
        more than one fast-finalizable block (released rounds first).
        """
        culprits = set(self.released_fast_equivocators)
        conflicts = list(self.released_fast_conflicts)
        for state in self._rounds.values():
            _judge(state, culprits, conflicts)
        return frozenset(culprits), conflicts

    def _finalize(self, ctx: ReplicaContext, round_k: int, block_id: BlockId, kind: str) -> None:
        before = self.k_max
        super()._finalize(ctx, round_k, block_id, kind)
        if self.k_max > before:
            if kind == "fast":
                self.fast_finalized_count += 1
            else:
                self.slow_finalized_count += 1


def _judge(state: _RoundState, culprits: Set[int], conflicts: List[int]) -> None:
    """Add ``state``'s fast-vote equivocators to ``culprits``, and its round
    to ``conflicts`` if it holds more than one fast-finalizable block."""
    fast = state.fast
    culprits |= fast.equivocators()
    if len(fast.fast_finalizable_blocks()) > 1:
        conflicts.append(state.round)
