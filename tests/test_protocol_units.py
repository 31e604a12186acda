"""Protocol-rule unit tests driven through a fake replica context.

These exercise individual ICC/Banyan rules (validity, vote emission, what a
proposal carries, round advancement conditions) without a network: a fake
context records every action the replica takes, and messages are injected
directly via ``on_message``.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

import pytest

from repro.beacon import RoundRobinBeacon
from repro.core.banyan import BanyanReplica
from repro.protocols.base import ProtocolParams
from repro.protocols.icc import ICCReplica
from repro.protocols.streamlet import StreamletReplica
from repro.runtime.context import ReplicaContext, Timer
from repro.types.blocks import Block, genesis_block
from repro.types.certificates import Notarization, UnlockProof
from repro.types.messages import BlockProposal, CertificateMessage, VoteMessage
from repro.types.votes import FastVote, NotarizationVote, VoteKind


class FakeContext:
    """A plain :class:`ReplicaContext` (:attr:`context`) built from recording
    callables, plus what they recorded; time is advanced manually by the
    test."""

    def __init__(self, replica_id: int, n: int) -> None:
        self.time = 0.0
        self.sent: List[Tuple[int, Any]] = []
        self.broadcasts: List[Any] = []
        self.timers: List[Tuple[float, str, Any]] = []
        self.committed: List[Tuple[Block, str]] = []

        def set_timer(delay: float, name: str, data: Any = None) -> int:
            self.timers.append((self.time + delay, name, data))
            return len(self.timers)

        def commit(blocks, finalization_kind: str = "slow") -> None:
            self.committed.extend((block, finalization_kind) for block in blocks)

        self.context = ReplicaContext(
            replica_id, tuple(range(n)), now=lambda: self.time,
            send=lambda receiver, message: self.sent.append((receiver, message)),
            broadcast=self.broadcasts.append, set_timer=set_timer,
            cancel_timer=lambda timer_id: None, commit=commit)

    # Test helpers -------------------------------------------------------

    def broadcast_messages(self, message_type):
        return [m for m in self.broadcasts if isinstance(m, message_type)]

    def broadcast_votes(self, kind: Optional[VoteKind] = None):
        votes = [v for m in self.broadcast_messages(VoteMessage) for v in m.votes]
        if kind is None:
            return votes
        return [v for v in votes if v.kind is kind]


def _params(n=4, f=1, p=1):
    return ProtocolParams(n=n, f=f, p=p, rank_delay=0.4, payload_size=100)


def _proposal(block: Block, parent_voters=None, proposer_fast_vote=True,
              unlock_support=None) -> BlockProposal:
    """Build a proposal message the way an honest Banyan peer would."""
    parent_notarization = None
    if parent_voters is not None and block.parent_id is not None:
        parent_notarization = Notarization(
            round=block.round - 1, block_id=block.parent_id, voters=frozenset(parent_voters)
        )
    unlock_proof = None
    if unlock_support is not None and block.parent_id is not None:
        unlock_proof = UnlockProof(
            round=block.round - 1, block_id=block.parent_id,
            votes_by_block=((block.parent_id, frozenset(unlock_support)),),
        )
    fast_vote = None
    if proposer_fast_vote and block.rank == 0:
        fast_vote = FastVote(round=block.round, block_id=block.id, voter=block.proposer)
    return BlockProposal(block=block, parent_notarization=parent_notarization,
                         parent_unlock_proof=unlock_proof, fast_vote=fast_vote)


class TestICCUnitRules:
    def test_leader_proposes_immediately_on_start(self):
        replica = ICCReplica(0, _params())
        ctx = FakeContext(0, 4)
        # Round 1's round-robin leader is replica 1, so replica 0 only arms a
        # proposal timer; replica 1 proposes immediately.
        replica.on_start(ctx.context)
        assert not ctx.broadcast_messages(BlockProposal)
        assert any(name == "propose" for _, name, _ in ctx.timers)

        leader = ICCReplica(1, _params())
        leader_ctx = FakeContext(1, 4)
        leader.on_start(leader_ctx.context)
        proposals = leader_ctx.broadcast_messages(BlockProposal)
        assert len(proposals) == 1
        assert proposals[0].block.round == 1
        assert proposals[0].block.parent_id == genesis_block().id

    def test_notarization_vote_for_valid_leader_block(self):
        replica = ICCReplica(0, _params())
        ctx = FakeContext(0, 4)
        replica.on_start(ctx.context)
        block = Block(round=1, proposer=1, rank=0, parent_id=genesis_block().id, payload=b"x")
        replica.on_message(ctx.context, 1, _proposal(block))
        votes = ctx.broadcast_votes(VoteKind.NOTARIZATION)
        assert [v.block_id for v in votes] == [block.id]

    def test_block_with_wrong_rank_is_ignored(self):
        replica = ICCReplica(0, _params())
        ctx = FakeContext(0, 4)
        replica.on_start(ctx.context)
        # Proposer 2 has rank 1 in round 1 (round-robin), not rank 0.
        block = Block(round=1, proposer=2, rank=0, parent_id=genesis_block().id, payload=b"x")
        replica.on_message(ctx.context, 2, _proposal(block))
        assert block.id not in replica.tree
        assert not ctx.broadcast_votes()

    def test_higher_rank_block_waits_for_notarization_delay(self):
        replica = ICCReplica(0, _params())
        ctx = FakeContext(0, 4)
        replica.on_start(ctx.context)
        block = Block(round=1, proposer=2, rank=1, parent_id=genesis_block().id, payload=b"x")
        replica.on_message(ctx.context, 2, _proposal(block))
        # Rank-1 blocks may only be voted after Δ_notary(1) = 0.4 s.
        assert not ctx.broadcast_votes(VoteKind.NOTARIZATION)
        assert any(name == "notarize" for _, name, _ in ctx.timers)
        ctx.time = 0.5
        replica.on_timer(ctx.context, Timer(name="notarize", fire_time=0.4, data=1))
        assert [v.block_id for v in ctx.broadcast_votes(VoteKind.NOTARIZATION)] == [block.id]

    def test_round_advances_after_notarization_quorum(self):
        replica = ICCReplica(0, _params())
        ctx = FakeContext(0, 4)
        replica.on_start(ctx.context)
        block = Block(round=1, proposer=1, rank=0, parent_id=genesis_block().id, payload=b"x")
        replica.on_message(ctx.context, 1, _proposal(block))
        for voter in (1, 2, 3):
            vote = NotarizationVote(round=1, block_id=block.id, voter=voter)
            replica.on_message(ctx.context, voter, VoteMessage(votes=(vote,), sender=voter))
        assert replica.tree.is_notarized(block.id)
        assert replica.current_round == 2
        # Having voted only for this block, the replica also finalization-votes.
        assert [v.block_id for v in ctx.broadcast_votes(VoteKind.FINALIZATION)] == [block.id]

    def test_finalization_quorum_commits_the_chain(self):
        replica = ICCReplica(0, _params())
        ctx = FakeContext(0, 4)
        replica.on_start(ctx.context)
        block = Block(round=1, proposer=1, rank=0, parent_id=genesis_block().id, payload=b"x")
        replica.on_message(ctx.context, 1, _proposal(block))
        for voter in (1, 2, 3):
            notarization = NotarizationVote(round=1, block_id=block.id, voter=voter)
            finalization_vote = replica._make_vote(VoteKind.FINALIZATION, 1, block.id)
            replica.on_message(ctx.context, voter, VoteMessage(votes=(notarization,), sender=voter))
        from repro.types.votes import FinalizationVote

        for voter in (1, 2, 3):
            vote = FinalizationVote(round=1, block_id=block.id, voter=voter)
            replica.on_message(ctx.context, voter, VoteMessage(votes=(vote,), sender=voter))
        assert [b.round for b, _ in ctx.committed] == [1]
        assert replica.k_max == 1


    def test_finalize_parks_only_on_missing_ancestors(self):
        """``_finalize`` defers a finalization whose chain has a gap
        (``BlockTreeError``); any other failure is a bug and must surface
        instead of silently stalling the commit."""
        from repro.blocktree.tree import BlockTreeError

        replica = ICCReplica(0, _params())
        ctx = FakeContext(0, 4)
        replica.on_start(ctx.context)
        block = Block(round=1, proposer=1, rank=0, parent_id=genesis_block().id, payload=b"x")
        replica.on_message(ctx.context, 1, _proposal(block))

        def missing(block_id, finalized):
            assert finalized is replica.chain  # the walk stops at the chain
            raise BlockTreeError("chain is missing ancestors")

        def broken(block_id, finalized):
            raise RuntimeError("bug in the tree")

        replica.tree.chain_to = missing
        replica._finalize(ctx.context, 1, block.id, kind="slow")
        assert replica._pending_finalizations == {block.id: "slow"}
        assert replica.k_max == 0 and not ctx.committed
        replica.tree.chain_to = broken
        with pytest.raises(RuntimeError):
            replica._finalize(ctx.context, 1, block.id, kind="slow")


    @pytest.mark.parametrize("replica_class", [ICCReplica, BanyanReplica])
    def test_finalize_touches_its_segment_not_the_height(self, replica_class):
        """Finalizing on top of a 10^4-block chain looks at the handful of
        blocks above the finalized height — the walk used to start from
        genesis every time (O(height^2) over a run)."""
        replica = replica_class(0, _params())
        ctx = FakeContext(0, 4)
        blocks, parent_id = [], genesis_block().id
        for round_k in range(1, 10_001):
            block = Block(round=round_k, proposer=round_k % 4, rank=0,
                          parent_id=parent_id, payload=b"")
            replica.tree.add_block(block)
            blocks.append(block)
            parent_id = block.id
        replica._finalize(ctx.context, 9_990, blocks[9_989].id, kind="slow")
        assert replica.k_max == 9_990 and len(ctx.committed) == 9_990

        class Counting(dict):
            lookups = 0

            def get(self, key, default=None):
                Counting.lookups += 1
                return super().get(key, default)

            def __getitem__(self, key):
                Counting.lookups += 1
                return super().__getitem__(key)

        replica.tree._blocks = Counting(replica.tree._blocks)
        replica._finalize(ctx.context, 10_000, blocks[-1].id, kind="slow")
        assert [block.round for block, _ in ctx.committed[9_990:]] == list(range(9_991, 10_001))
        assert replica.k_max == 10_000
        assert Counting.lookups <= 4 * 10      # a few per block of the segment


class TestBanyanUnitRules:
    def test_rank0_proposal_without_proposer_fast_vote_is_invalid(self):
        replica = BanyanReplica(0, _params())
        ctx = FakeContext(0, 4)
        replica.on_start(ctx.context)
        block = Block(round=1, proposer=1, rank=0, parent_id=genesis_block().id, payload=b"x")
        replica.on_message(ctx.context, 1, _proposal(block, proposer_fast_vote=False))
        # The block is stored but not voted for (validity rule, Alg. 2 line 63).
        assert not ctx.broadcast_votes()

    def test_first_vote_carries_a_fast_vote(self):
        replica = BanyanReplica(0, _params())
        ctx = FakeContext(0, 4)
        replica.on_start(ctx.context)
        block = Block(round=1, proposer=1, rank=0, parent_id=genesis_block().id, payload=b"x")
        replica.on_message(ctx.context, 1, _proposal(block))
        assert [v.block_id for v in ctx.broadcast_votes(VoteKind.NOTARIZATION)] == [block.id]
        assert [v.block_id for v in ctx.broadcast_votes(VoteKind.FAST)] == [block.id]

    def test_leader_proposal_carries_fast_vote_and_parent_unlock_proof(self):
        params = _params()
        leader = BanyanReplica(1, params)
        ctx = FakeContext(1, 4)
        leader.on_start(ctx.context)
        proposals = ctx.broadcast_messages(BlockProposal)
        assert len(proposals) == 1
        proposal = proposals[0]
        assert proposal.fast_vote is not None
        assert proposal.fast_vote.voter == 1
        assert proposal.fast_vote.block_id == proposal.block.id
        # Extending genesis needs no unlock proof; extending a later block does.
        assert proposal.parent_unlock_proof is None

    def test_round_advance_requires_unlock(self):
        """A notarized but not unlocked block must not advance the round
        (Restriction 2); the unlock arrives via fast votes."""
        replica = BanyanReplica(0, _params())
        ctx = FakeContext(0, 4)
        replica.on_start(ctx.context)
        block = Block(round=1, proposer=1, rank=0, parent_id=genesis_block().id, payload=b"x")
        # Deliver the block without its proposer fast vote: invalid for voting,
        # so our replica never fast-votes it either.
        replica.on_message(ctx.context, 1, _proposal(block, proposer_fast_vote=False))
        for voter in (1, 2, 3):
            vote = NotarizationVote(round=1, block_id=block.id, voter=voter)
            replica.on_message(ctx.context, voter, VoteMessage(votes=(vote,), sender=voter))
        assert replica.tree.is_notarized(block.id)
        assert replica.current_round == 1  # still stuck: no unlock, no own fast vote
        # Now the proposer's fast vote and two more fast votes arrive: the
        # block unlocks (support > f + p = 2) and the replica can advance.
        replica.on_message(ctx.context, 1, _proposal(block, proposer_fast_vote=True))
        for voter in (2, 3):
            fast = FastVote(round=1, block_id=block.id, voter=voter)
            replica.on_message(ctx.context, voter, VoteMessage(votes=(fast,), sender=voter))
        assert replica.tree.is_unlocked(block.id)
        assert replica.current_round == 2

    def test_fast_quorum_fp_finalizes_rank0_block(self):
        replica = BanyanReplica(0, _params())
        ctx = FakeContext(0, 4)
        replica.on_start(ctx.context)
        block = Block(round=1, proposer=1, rank=0, parent_id=genesis_block().id, payload=b"x")
        replica.on_message(ctx.context, 1, _proposal(block))
        for voter in (2, 3):
            fast = FastVote(round=1, block_id=block.id, voter=voter)
            replica.on_message(ctx.context, voter, VoteMessage(votes=(fast,), sender=voter))
        # proposer (1) + replicas 2, 3 = 3 = n - p fast votes → FP-finalized.
        assert [(b.round, kind) for b, kind in ctx.committed] == [(1, "fast")]
        assert replica.fast_finalized_count == 1
        # A fast finalization certificate is broadcast (Addition 4).
        certificates = ctx.broadcast_messages(CertificateMessage)
        assert any(
            c.certificate is not None and c.certificate.__class__.__name__ == "FastFinalization"
            for c in certificates
        )

    def test_non_leader_blocks_never_fp_finalize(self):
        replica = BanyanReplica(0, _params())
        ctx = FakeContext(0, 4)
        replica.on_start(ctx.context)
        ctx.time = 1.0  # past the notarization delay for rank-1 blocks
        block = Block(round=1, proposer=2, rank=1, parent_id=genesis_block().id, payload=b"x")
        replica.on_message(ctx.context, 2, _proposal(block, proposer_fast_vote=False))
        for voter in (1, 2, 3):
            fast = FastVote(round=1, block_id=block.id, voter=voter)
            replica.on_message(ctx.context, voter, VoteMessage(votes=(fast,), sender=voter))
        # Even with n - p fast votes a rank-1 block is never FP-finalized.
        assert all(kind != "fast" for _, kind in ctx.committed)

    def test_banyan_quorum_is_smaller_than_icc_quorum_at_n19(self):
        params = ProtocolParams(n=19, f=4, p=4, rank_delay=0.4)
        replica = BanyanReplica(0, params)
        assert replica.notarization_quorum == 12  # ceil((19 + 4 + 1)/2)
        assert replica.fast_quorum == 15
        icc = ICCReplica(0, params)
        assert icc.notarization_quorum == 15  # n - f


class TestStreamletEpochClock:
    """Streamlet's epochs are slices of the shared clock: epoch ``e`` spans
    ``[(e - 1) · d, e · d)``, whenever the replica happens to boot."""

    def _boot(self, replica_id, now, epoch_duration=0.4):
        replica = StreamletReplica(replica_id, _params(), epoch_duration=epoch_duration)
        ctx = FakeContext(replica_id, 4)
        ctx.time = now
        replica.on_start(ctx.context)
        return replica, ctx

    def test_boot_at_zero_enters_epoch_one(self):
        replica, ctx = self._boot(0, 0.0)
        assert replica.current_epoch == 1
        assert ctx.timers == [(0.4, "epoch", 2)]

    def test_late_boot_joins_the_current_epoch(self):
        replica, ctx = self._boot(0, 2.3 * 0.4)
        assert replica.current_epoch == 3
        ((fire_time, name, data),) = ctx.timers
        assert (name, data) == ("epoch", 4)
        assert fire_time == pytest.approx(3 * 0.4)  # the end of epoch 3

    def test_late_leader_proposes_for_the_joined_epoch(self):
        leader = RoundRobinBeacon(list(range(4))).leader(3)
        _, ctx = self._boot(leader, 2.3 * 0.4)
        (proposal,) = ctx.broadcast_messages(BlockProposal)
        assert proposal.block.round == 3

    def test_a_boundary_instant_never_arms_a_past_timer(self):
        # 3 * 0.7 / 0.7 rounds to just below 3, while 3 * 0.7 == now.
        now = 3 * 0.7
        replica, ctx = self._boot(0, now, epoch_duration=0.7)
        assert replica.current_epoch == 4
        ((fire_time, _, data),) = ctx.timers
        assert fire_time > now and data == 5


class TestVotersOutsideTheReplicaSet:
    """Replica ids are ``0..n-1``.  Without a PKI a certificate is judged by
    its voter count, so one padded with ids nobody holds used to reach a
    quorum; and the tallies are bitmasks over the ids, so a negative id
    would raise inside the handler.  Such votes, certificates and proofs
    are dropped where they enter."""

    @staticmethod
    def _started(cls, replica_id=0):
        replica = cls(replica_id, _params())
        ctx = FakeContext(replica_id, 4)
        replica.on_start(ctx.context)
        block = Block(round=1, proposer=1, rank=0, parent_id=genesis_block().id, payload=b"x")
        replica.on_message(ctx.context, 1, _proposal(block))
        return replica, ctx, block

    @pytest.mark.parametrize("cls", [ICCReplica, BanyanReplica])
    def test_notarization_padded_with_phantom_voters_does_not_notarise(self, cls):
        replica, ctx, block = self._started(cls)
        padded = Notarization(round=1, block_id=block.id, voters={1, 4, 5, 6})
        assert padded.verify(replica.notarization_quorum)  # by count alone
        replica.on_message(ctx.context, 1, CertificateMessage(certificate=padded, sender=1))
        replica.on_message(ctx.context, 1, _proposal(
            Block(round=2, proposer=2, rank=0, parent_id=block.id, payload=b"y"),
            parent_voters={1, 4, 5, 6}))
        assert not replica.tree.is_notarized(block.id)
        assert replica.current_round == 1
        assert replica._round(1).notarization.voters(block.id) == frozenset()
        # The same certificate from real replicas does notarise.
        genuine = Notarization(round=1, block_id=block.id, voters={1, 2, 3})
        replica.on_message(ctx.context, 1, CertificateMessage(certificate=genuine, sender=1))
        assert replica.tree.is_notarized(block.id)

    @pytest.mark.parametrize("cls", [ICCReplica, BanyanReplica])
    def test_finalization_padded_with_phantom_voters_does_not_commit(self, cls):
        from repro.types.certificates import Finalization

        replica, ctx, block = self._started(cls)
        padded = Finalization(round=1, block_id=block.id, voters={1, 2, 64})
        replica.on_message(ctx.context, 1, CertificateMessage(certificate=padded, sender=1))
        assert not ctx.committed and replica.k_max == 0

    def test_banyan_drops_phantom_fast_finalizations_and_unlock_proofs(self):
        from repro.types.certificates import FastFinalization

        replica, ctx, block = self._started(BanyanReplica)
        padded = FastFinalization(round=1, block_id=block.id, voters={1, 2, 7})
        proof = UnlockProof(round=1, block_id=block.id,
                            votes_by_block=((block.id, {2, 3, 9}),))
        replica.on_message(ctx.context, 1, CertificateMessage(certificate=padded, sender=1))
        replica.on_message(ctx.context, 1, CertificateMessage(certificate=None, unlock_proof=proof,
                                                      sender=1))
        assert not ctx.committed
        assert not replica.tree.is_unlocked(block.id)
        assert replica._round(1).fast.support(block.id) == {1}  # the proposer's own

    @pytest.mark.parametrize("cls", [ICCReplica, BanyanReplica])
    def test_votes_from_outside_the_replica_set_are_dropped(self, cls):
        from repro.types.votes import FinalizationVote

        replica, ctx, block = self._started(cls)
        for voter in (1, 4, -1, 2**70, 2):
            for vote_cls in (NotarizationVote, FastVote, FinalizationVote):
                vote = vote_cls(round=3, block_id="b", voter=voter)
                replica.on_message(ctx.context, 1, VoteMessage(votes=(vote,), sender=1))
        state = replica._round(3)
        assert state.notarization.voters("b") == {1, 2}
        assert state.finalization.voters("b") == {1, 2}
        if cls is BanyanReplica:
            assert state.fast.support("b") == {1, 2}

    @pytest.mark.parametrize("protocol", ["hotstuff", "streamlet"])
    def test_baselines_drop_votes_from_outside_the_replica_set(self, protocol):
        from repro.protocols.registry import create_replicas

        replica = create_replicas(protocol, _params())[0]
        ctx = FakeContext(0, 4)
        replica.on_start(ctx.context)
        for voter in (1, 4, -1, 2**70, 2):
            vote = NotarizationVote(round=1, block_id="b", voter=voter)
            replica.on_message(ctx.context, 1, VoteMessage(votes=(vote,), sender=1))
        assert replica._vote_tracker(1).voters("b") == {1, 2}

    def test_hotstuff_ignores_a_proposal_justified_by_phantom_voters(self):
        from repro.protocols.registry import create_replicas

        replica = create_replicas("hotstuff", _params())[0]
        ctx = FakeContext(0, 4)
        replica.on_start(ctx.context)
        first = Block(round=1, proposer=replica.beacon.leader(1), rank=0,
                      parent_id=genesis_block().id, payload=b"x")
        replica.on_message(ctx.context, first.proposer, BlockProposal(
            block=first, parent_notarization=replica.high_qc))
        second = Block(round=2, proposer=replica.beacon.leader(2), rank=0,
                       parent_id=first.id, payload=b"y")
        forged = Notarization(round=1, block_id=first.id, voters={1, 5, 6})
        replica.on_message(ctx.context, second.proposer, BlockProposal(
            block=second, parent_notarization=forged))
        assert first.id in replica.tree and second.id not in replica.tree
        assert replica.high_qc.round == 0
