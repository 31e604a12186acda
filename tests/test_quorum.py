"""Property-style tests for the shared quorum/certificate engine.

The engine (:mod:`repro.smr.quorum`) is the one place vote tallies,
duplicate suppression, equivocation evidence, and the ``fired`` set of
blocks at threshold live; these tests pin its contract independently of
any protocol: a block joins ``fired`` exactly when its tally reaches the
threshold, duplicates never count, an equivocating signer counts at most
once per block (while being recorded as evidence), and the behaviour holds
at every quorum the protocols use — ``n - f``, ``⌈(n+f+1)/2⌉``, and
``n - p``.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.protocols.base import ProtocolParams
from repro.smr.quorum import CertificateCollector, QuorumTracker
from repro.types.votes import VoteKind, voter_mask


class TestQuorumTracker:
    def test_threshold_fires_exactly_once(self):
        tracker = QuorumTracker(3)
        for voter in range(2):
            tracker.add_vote("b1", voter)
        assert tracker.fired == set() and not tracker.reached("b1")
        tracker.add_vote("b1", 2)
        assert tracker.fired == {"b1"}
        # Votes beyond the threshold leave it fired, once.
        tracker.add_vote("b1", 3)
        tracker.add_vote("b1", 4)
        assert tracker.fired == {"b1"} and tracker.fired_count() == 1
        assert tracker.reached("b1")

    def test_fires_once_per_block_independently(self):
        tracker = QuorumTracker(2)
        tracker.add_vote("a", 0)
        tracker.add_vote("b", 0)
        tracker.add_vote("b", 1)
        assert tracker.fired == {"b"}
        tracker.add_vote("a", 1)
        assert tracker.fired == {"a", "b"}
        # First-vote order, not firing order.
        assert tracker.reached_blocks() == ["a", "b"]

    def test_merged_voter_sets_fire_once(self):
        tracker = QuorumTracker(3)
        assert tracker.add_voters("b", voter_mask({0, 1, 2, 3}))
        assert tracker.add_voters("b", voter_mask({2, 3, 4}))
        assert not tracker.add_voters("b", voter_mask({0, 4}))
        assert tracker.fired == {"b"}
        assert tracker.voters("b") == frozenset({0, 1, 2, 3, 4})

    def test_duplicate_votes_ignored(self):
        tracker = QuorumTracker(3)
        assert tracker.add_vote("b", 7) is True
        for _ in range(10):
            assert tracker.add_vote("b", 7) is False
        assert tracker.count("b") == 1
        assert not tracker.reached("b")

    def test_equivocating_signer_counted_at_most_once_per_block(self):
        tracker = QuorumTracker(2)
        tracker.add_vote("a", 0)
        tracker.add_vote("b", 0)  # same signer, different block
        tracker.add_vote("a", 0)  # duplicate on the first block
        assert tracker.count("a") == 1
        assert tracker.count("b") == 1
        assert tracker.equivocators() == frozenset({0})
        assert tracker.evidence(0) == ("a", "b")

    def test_honest_voters_produce_no_evidence(self):
        tracker = QuorumTracker(2)
        for voter in range(5):
            tracker.add_vote("b", voter)
        assert tracker.equivocators() == frozenset()
        assert tracker.evidence(0) == ("b",)

    def test_insertion_order_preserved(self):
        # Protocols iterate tallies deterministically; the engine pins
        # first-vote insertion order (what the hand-rolled dicts had).
        tracker = QuorumTracker(1)
        for block in ("c", "a", "b"):
            tracker.add_vote(block, 0)
        assert tracker.blocks() == ["c", "a", "b"]
        assert tracker.reached_blocks() == ["c", "a", "b"]

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            QuorumTracker(0)

    @pytest.mark.parametrize("n,f,p", [(4, 1, 1), (7, 2, 1), (19, 6, 1), (19, 4, 4)])
    def test_fires_at_every_protocol_quorum(self, n, f, p):
        """The engine is quorum-agnostic: n-f, ⌈(n+f+1)/2⌉, and n-p all work."""
        params = ProtocolParams(n=n, f=f, p=p)
        for threshold in (params.icc_quorum, params.banyan_quorum,
                          params.fast_quorum):
            assert threshold == math.ceil(threshold)
            tracker = QuorumTracker(threshold)
            for voter in range(threshold - 1):
                tracker.add_vote("b", voter)
            assert tracker.fired == set() and not tracker.reached("b")
            tracker.add_vote("b", threshold - 1)
            assert tracker.fired == {"b"} and tracker.reached("b")

    def test_random_vote_streams_property(self):
        """Random streams with duplicates and equivocators keep the invariants:

        * a block's count equals its distinct voters;
        * a block is in ``fired`` iff its threshold is met;
        * the equivocator set is exactly the voters seen on >1 block.
        """
        rng = random.Random(1234)
        for _ in range(25):
            n = rng.randint(4, 25)
            threshold = rng.randint(1, n)
            blocks = ["x", "y", "z"][: rng.randint(1, 3)]
            tracker = QuorumTracker(threshold)
            seen = {}
            for _ in range(rng.randint(1, 6 * n)):
                voter = rng.randrange(n)
                block = rng.choice(blocks)
                tracker.add_vote(block, voter)
                seen.setdefault(block, set()).add(voter)
            for block, voters in seen.items():
                assert tracker.count(block) == len(voters)
                assert tracker.reached(block) == (len(voters) >= threshold)
                assert (block in tracker.fired) == (len(voters) >= threshold)
            by_voter = {}
            for block, voters in seen.items():
                for voter in voters:
                    by_voter.setdefault(voter, set()).add(block)
            expected = {voter for voter, supported in by_voter.items()
                        if len(supported) > 1}
            assert tracker.equivocators() == frozenset(expected)


class TestCertificateCollector:
    def test_trackers_keyed_by_round_and_kind(self):
        collector = CertificateCollector()
        notar = collector.tracker(1, VoteKind.NOTARIZATION, 3)
        final = collector.tracker(1, VoteKind.FINALIZATION, 3)
        assert notar is not final
        assert collector.tracker(1, VoteKind.NOTARIZATION, 3) is notar
        assert collector.tracker(2, VoteKind.NOTARIZATION, 3) is not notar
