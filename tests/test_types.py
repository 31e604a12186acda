"""Unit tests for blocks, votes, certificates, and wire messages."""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from repro.cluster.wire import encode_payload
from repro.protocols.base import ProtocolParams

from repro.types.blocks import Block, genesis_block
from repro.types.certificates import (
    CertificateError,
    FastFinalization,
    Finalization,
    Notarization,
    UnlockProof,
)
from repro.types.messages import (
    BLOCK_HEADER_SIZE,
    VOTE_WIRE_SIZE,
    BlockProposal,
    CertificateMessage,
    VoteMessage,
)
from repro.types.votes import (
    FastVote,
    FinalizationVote,
    NotarizationVote,
    VoteKind,
    make_vote,
)


class TestBlock:
    def test_genesis_is_singleton_value(self):
        assert genesis_block() == genesis_block()
        assert genesis_block().id == genesis_block().id

    def test_genesis_properties(self):
        genesis = genesis_block()
        assert genesis.is_genesis()
        assert genesis.round == 0
        assert genesis.parent_id is None
        assert genesis.rank == 0

    def test_block_id_is_deterministic(self):
        a = Block(round=1, proposer=0, rank=0, parent_id="p", payload=b"x")
        b = Block(round=1, proposer=0, rank=0, parent_id="p", payload=b"x")
        assert a.id == b.id

    def test_block_id_memo_keeps_value_semantics(self):
        """The id is memoised per instance, outside ``==`` / ``hash`` /
        ``pickle`` equality: distinct-but-equal instances agree on the id
        whichever of them computed it first, and nothing process-wide
        retains every payload ever hashed."""
        import pickle

        from repro.types import blocks

        payload = bytes(range(256)) * 4
        a = Block(round=3, proposer=1, rank=0, parent_id="p", payload=payload)
        first = a.id
        b = Block(round=3, proposer=1, rank=0, parent_id="p", payload=bytes(payload))
        assert a is not b and a == b and hash(a) == hash(b)
        assert b.id == first
        fresh = Block(round=3, proposer=1, rank=0, parent_id="p", payload=payload)
        assert fresh == a and {a, fresh} == {a}  # memo on one side only
        assert fresh.id == first
        copy = pickle.loads(pickle.dumps(a))
        assert copy == a and copy.id == first
        # The only shared state is a small bounded cache.
        assert not hasattr(blocks, "_BLOCK_ID_CACHE")
        for round_k in range(2 * blocks._content_id.cache_info().maxsize):
            Block(round=round_k, proposer=0, rank=0, parent_id="p", payload=payload).id
        info = blocks._content_id.cache_info()
        assert info.currsize <= info.maxsize
        assert a.id == first

    def test_block_id_depends_on_payload(self):
        a = Block(round=1, proposer=0, rank=0, parent_id="p", payload=b"x")
        b = Block(round=1, proposer=0, rank=0, parent_id="p", payload=b"y")
        assert a.id != b.id

    def test_block_id_depends_on_round_and_proposer(self):
        a = Block(round=1, proposer=0, rank=0, parent_id="p")
        b = Block(round=2, proposer=0, rank=0, parent_id="p")
        c = Block(round=1, proposer=1, rank=0, parent_id="p")
        assert len({a.id, b.id, c.id}) == 3

    def test_size_defaults_to_payload_length(self):
        block = Block(round=1, proposer=0, rank=0, parent_id="p", payload=b"abcd")
        assert block.size == 4

    def test_logical_size_overrides_payload_length(self):
        block = Block(round=1, proposer=0, rank=0, parent_id="p", payload=b"tag",
                      payload_size=1_000_000)
        assert block.size == 1_000_000

    def test_non_genesis_is_not_genesis(self):
        block = Block(round=1, proposer=0, rank=0, parent_id=genesis_block().id)
        assert not block.is_genesis()


class TestVotes:
    def test_vote_kinds(self):
        assert NotarizationVote(round=1, block_id="b", voter=0).kind is VoteKind.NOTARIZATION
        assert FastVote(round=1, block_id="b", voter=0).kind is VoteKind.FAST
        assert FinalizationVote(round=1, block_id="b", voter=0).kind is VoteKind.FINALIZATION

    def test_make_vote_dispatches_on_kind(self):
        for kind, cls in [
            (VoteKind.NOTARIZATION, NotarizationVote),
            (VoteKind.FAST, FastVote),
            (VoteKind.FINALIZATION, FinalizationVote),
        ]:
            vote = make_vote(kind, 3, "block", 2)
            assert isinstance(vote, cls)
            assert vote.round == 3 and vote.block_id == "block" and vote.voter == 2

    def test_votes_are_hashable_and_comparable(self):
        a = FastVote(round=1, block_id="b", voter=0)
        b = FastVote(round=1, block_id="b", voter=0)
        assert a == b
        assert len({a, b}) == 1


    @pytest.mark.parametrize("kind", list(VoteKind), ids=lambda kind: kind.value)
    def test_vote_holds_only_kind_round_block_and_voter(self, kind):
        """A vote is attributed by its ``voter`` field; it carries no
        signature share for anyone to check."""
        vote = make_vote(kind, 3, "block", 2)
        assert [field.name for field in dataclasses.fields(vote)] == \
            ["kind", "round", "block_id", "voter"]
        assert vote.kind is kind

    @pytest.mark.parametrize("kind", list(VoteKind), ids=lambda kind: kind.value)
    def test_make_vote_takes_no_signature_argument(self, kind):
        with pytest.raises(TypeError):
            make_vote(kind, 3, "block", 2, None)


class TestCertificates:
    def _notar_votes(self, voters, round=1, block_id="b"):
        return [NotarizationVote(round=round, block_id=block_id, voter=v) for v in voters]

    def test_from_votes_collects_voters(self):
        cert = Notarization.from_votes(self._notar_votes([0, 1, 2]))
        assert cert.voters == {0, 1, 2}
        assert len(cert) == 3

    def test_from_votes_requires_matching_kind(self):
        votes = [FastVote(round=1, block_id="b", voter=0)]
        with pytest.raises(CertificateError):
            Notarization.from_votes(votes)

    def test_from_votes_rejects_mixed_blocks(self):
        votes = self._notar_votes([0], block_id="a") + self._notar_votes([1], block_id="b")
        with pytest.raises(CertificateError):
            Notarization.from_votes(votes)

    def test_from_votes_rejects_empty(self):
        with pytest.raises(CertificateError):
            Notarization.from_votes([])

    def test_verify_threshold_by_voter_count(self):
        cert = Notarization(round=1, block_id="b", voters=frozenset({0, 1, 2}))
        assert cert.verify(threshold=3)
        assert not cert.verify(threshold=4)

    def test_fast_finalization_uses_fast_votes(self):
        votes = [FastVote(round=2, block_id="b", voter=v) for v in range(3)]
        cert = FastFinalization.from_votes(votes)
        assert cert.voters == {0, 1, 2}


#: Every certificate kind, with the vote kind it aggregates.
CERTIFICATE_KINDS = [
    (Notarization, NotarizationVote),
    (Finalization, FinalizationVote),
    (FastFinalization, FastVote),
]


class TestCertificateQuorum:
    """A certificate is its voter set: ``verify(threshold)`` counts distinct
    voters, whatever the order or repetition of the votes it was built from."""

    @pytest.mark.parametrize("cls, vote_cls", CERTIFICATE_KINDS, ids=lambda cls: cls.__name__)
    def test_certificate_holds_only_round_block_and_voter_mask(self, cls, vote_cls):
        cert = cls.from_votes([vote_cls(round=1, block_id="b", voter=0)])
        assert [field.name for field in dataclasses.fields(cert)] == \
            ["round", "block_id", "mask"]

    @pytest.mark.parametrize("cls, vote_cls", CERTIFICATE_KINDS, ids=lambda cls: cls.__name__)
    def test_repeated_votes_count_once(self, cls, vote_cls):
        votes = [vote_cls(round=2, block_id="b", voter=v) for v in (0, 1, 1, 2, 0, 2)]
        cert = cls.from_votes(votes)
        assert cert.voters == {0, 1, 2} and len(cert) == 3
        assert cert.verify(3)
        assert not cert.verify(4)

    @pytest.mark.parametrize("cls, vote_cls", CERTIFICATE_KINDS, ids=lambda cls: cls.__name__)
    def test_empty_certificate_meets_only_a_zero_threshold(self, cls, vote_cls):
        cert = cls(round=1, block_id="b", voters=())
        assert len(cert) == 0 and cert.voters == frozenset()
        assert cert.verify(0)
        assert not cert.verify(1)

    @pytest.mark.parametrize("cls, vote_cls", CERTIFICATE_KINDS, ids=lambda cls: cls.__name__)
    def test_vote_order_does_not_change_the_certificate(self, cls, vote_cls):
        votes = [vote_cls(round=4, block_id="b", voter=v) for v in (5, 0, 3, 9)]
        certs = {cls.from_votes(order) for order in itertools.permutations(votes)}
        assert len(certs) == 1
        cert, = certs
        assert cert == cls(round=4, block_id="b", voters=[0, 3, 5, 9])
        assert {encode_payload(cls.from_votes(order))
                for order in itertools.permutations(votes)} == {encode_payload(cert)}

    @pytest.mark.parametrize("n, f, p", [(4, 1, 1), (7, 2, 1), (16, 5, 0),
                                         (64, 21, 0), (256, 63, 21)])
    def test_verify_is_exact_at_each_protocol_quorum(self, n, f, p):
        params = ProtocolParams(n=n, f=f, p=p)
        for quorum in (params.icc_quorum, params.banyan_quorum,
                       params.fast_quorum, params.bft_quorum):
            top = range(n - quorum, n)  # the highest ids: the widest masks
            assert Notarization(round=1, block_id="b", voters=top).verify(quorum)
            assert not Notarization(round=1, block_id="b", voters=top[1:]).verify(quorum)


class TestUnlockProof:
    def test_from_fast_votes_groups_by_block(self):
        votes = [
            FastVote(round=1, block_id="a", voter=0),
            FastVote(round=1, block_id="a", voter=1),
            FastVote(round=1, block_id="b", voter=2),
        ]
        proof = UnlockProof.from_fast_votes(1, "a", votes)
        assert proof.support("a") == {0, 1}
        assert proof.support("b") == {2}
        assert proof.support("missing") == frozenset()

    def test_total_voters_and_len(self):
        votes = [
            FastVote(round=1, block_id="a", voter=0),
            FastVote(round=1, block_id="b", voter=0),
            FastVote(round=1, block_id="b", voter=1),
        ]
        proof = UnlockProof.from_fast_votes(1, "a", votes)
        assert proof.total_voters() == {0, 1}
        assert len(proof) == 2

    def test_rejects_non_fast_votes(self):
        with pytest.raises(CertificateError):
            UnlockProof.from_fast_votes(1, "a", [NotarizationVote(round=1, block_id="a", voter=0)])

    def test_rejects_votes_from_other_rounds(self):
        with pytest.raises(CertificateError):
            UnlockProof.from_fast_votes(1, "a", [FastVote(round=2, block_id="a", voter=0)])


class TestMessages:
    def test_proposal_wire_size_includes_payload(self):
        block = Block(round=1, proposer=0, rank=0, parent_id="p", payload=b"x",
                      payload_size=10_000)
        proposal = BlockProposal(block=block)
        assert proposal.wire_size == BLOCK_HEADER_SIZE + 10_000

    def test_proposal_wire_size_includes_certificates(self):
        block = Block(round=1, proposer=0, rank=0, parent_id="p", payload_size=0)
        notarization = Notarization(round=0, block_id="p", voters=frozenset({0, 1, 2}))
        proposal = BlockProposal(block=block, parent_notarization=notarization)
        assert proposal.wire_size == BLOCK_HEADER_SIZE + 3 * VOTE_WIRE_SIZE

    def test_vote_message_wire_size_scales_with_votes(self):
        votes = (
            NotarizationVote(round=1, block_id="b", voter=0),
            FastVote(round=1, block_id="b", voter=0),
        )
        assert VoteMessage(votes=votes, sender=0).wire_size == 2 * VOTE_WIRE_SIZE

    def test_certificate_message_has_minimum_size(self):
        message = CertificateMessage(certificate=None, sender=1)
        assert message.wire_size >= VOTE_WIRE_SIZE

    def test_certificate_message_counts_unlock_proof(self):
        proof = UnlockProof.from_fast_votes(
            1, "a", [FastVote(round=1, block_id="a", voter=v) for v in range(4)]
        )
        message = CertificateMessage(certificate=None, unlock_proof=proof, sender=0)
        assert message.wire_size == 4 * VOTE_WIRE_SIZE
