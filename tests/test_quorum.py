"""Property-style tests for the shared quorum/certificate engine.

The engine (:mod:`repro.smr.quorum`) is the one place vote tallies,
duplicate suppression, equivocation evidence, and threshold firing live;
these tests pin its contract independently of any protocol: the threshold
callback fires exactly once per block, duplicates never count, an
equivocating signer counts at most once per block (while being recorded as
evidence), and the behaviour holds at every quorum the protocols use —
``n - f``, ``⌈(n+f+1)/2⌉``, and ``n - p``.
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
        fired = []
        tracker = QuorumTracker(3, on_threshold=fired.append)
        for voter in range(3):
            tracker.add_vote("b1", voter)
        assert fired == ["b1"]
        # Votes beyond the threshold never re-fire.
        tracker.add_vote("b1", 3)
        tracker.add_vote("b1", 4)
        assert fired == ["b1"]
        assert tracker.reached("b1")

    def test_fires_once_per_block_independently(self):
        fired = []
        tracker = QuorumTracker(2, on_threshold=fired.append)
        tracker.add_vote("a", 0)
        tracker.add_vote("b", 0)
        tracker.add_vote("b", 1)
        tracker.add_vote("a", 1)
        assert fired == ["b", "a"]

    def test_merged_voter_sets_fire_once(self):
        fired = []
        tracker = QuorumTracker(3, on_threshold=fired.append)
        tracker.add_voters("b", voter_mask({0, 1, 2, 3}))
        tracker.add_voters("b", voter_mask({2, 3, 4}))
        assert fired == ["b"]
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
            fired = []
            tracker = QuorumTracker(threshold, on_threshold=fired.append)
            for voter in range(threshold - 1):
                tracker.add_vote("b", voter)
            assert fired == [] and not tracker.reached("b")
            tracker.add_vote("b", threshold - 1)
            assert fired == ["b"] and tracker.reached("b")

    def test_random_vote_streams_property(self):
        """Random streams with duplicates and equivocators keep the invariants:

        * a block's count equals its distinct voters;
        * the callback fires iff the threshold is met, exactly once;
        * the equivocator set is exactly the voters seen on >1 block.
        """
        rng = random.Random(1234)
        for _ in range(25):
            n = rng.randint(4, 25)
            threshold = rng.randint(1, n)
            blocks = ["x", "y", "z"][: rng.randint(1, 3)]
            fired = []
            tracker = QuorumTracker(threshold, on_threshold=fired.append)
            seen = {}
            for _ in range(rng.randint(1, 6 * n)):
                voter = rng.randrange(n)
                block = rng.choice(blocks)
                tracker.add_vote(block, voter)
                seen.setdefault(block, set()).add(voter)
            for block, voters in seen.items():
                assert tracker.count(block) == len(voters)
                assert tracker.reached(block) == (len(voters) >= threshold)
                assert fired.count(block) == (1 if len(voters) >= threshold else 0)
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

    def test_get_does_not_create(self):
        collector = CertificateCollector()
        assert collector.get(1, VoteKind.NOTARIZATION) is None
        collector.tracker(1, VoteKind.NOTARIZATION, 2)
        assert collector.get(1, VoteKind.NOTARIZATION) is not None

    def test_add_vote_shorthand(self):
        collector = CertificateCollector()
        assert collector.add_vote(3, VoteKind.FAST, "b", 0, threshold=2) is True
        assert collector.add_vote(3, VoteKind.FAST, "b", 0, threshold=2) is False
        assert collector.tracker(3, VoteKind.FAST, 2).count("b") == 1

    def test_equivocation_evidence_aggregated(self):
        collector = CertificateCollector()
        collector.add_vote(1, VoteKind.FAST, "a", 9, threshold=5)
        collector.add_vote(1, VoteKind.FAST, "b", 9, threshold=5)
        collector.add_vote(2, VoteKind.NOTARIZATION, "c", 4, threshold=5)
        assert collector.equivocation_evidence() == {
            (1, VoteKind.FAST): frozenset({9}),
        }
        assert collector.equivocators() == frozenset({9})
