"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.stats import (
    mean, median, percentile, percentiles, stddev, variance,
)
from repro.beacon import RoundRobinBeacon, SeededPermutationBeacon
from repro.blocktree.chain import FinalizedChain
from repro.blocktree.tree import BlockTree
from repro.core.fastpath import FastPathState, UnlockDecision
from repro.crypto.hashing import canonical_encode, digest
from repro.protocols.base import ProtocolParams
from repro.types.blocks import Block, genesis_block
from repro.smr.quorum import QuorumTracker
from repro.types.certificates import UnlockProof
from repro.types.votes import mask_voters, voter_mask


# --------------------------------------------------------------------- #
# Hashing
# --------------------------------------------------------------------- #

json_like = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=20) | st.binary(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=5), children, max_size=4),
    max_leaves=12,
)


@given(json_like)
def test_canonical_encode_is_deterministic(value):
    assert canonical_encode(value) == canonical_encode(value)
    assert digest(value) == digest(value)


@given(st.lists(st.integers(), max_size=8), st.lists(st.integers(), max_size=8))
def test_digest_injective_on_distinct_int_lists(a, b):
    if a != b:
        assert digest(a) != digest(b)


# --------------------------------------------------------------------- #
# Beacons
# --------------------------------------------------------------------- #

@given(st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=500))
def test_round_robin_permutation_property(n, round):
    beacon = RoundRobinBeacon(list(range(n)))
    permutation = beacon.permutation(round)
    assert sorted(permutation) == list(range(n))
    assert permutation[0] == beacon.leader(round)
    assert beacon.rank(round, permutation[-1]) == n - 1


@given(st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=500),
       st.integers(min_value=0, max_value=2**31))
def test_seeded_beacon_is_a_permutation(n, round, seed):
    beacon = SeededPermutationBeacon(list(range(n)), seed=seed)
    assert sorted(beacon.permutation(round)) == list(range(n))


@given(st.integers(min_value=2, max_value=20))
def test_round_robin_fairness_over_full_cycle(n):
    beacon = RoundRobinBeacon(list(range(n)))
    leaders = [beacon.leader(k) for k in range(n)]
    assert sorted(leaders) == list(range(n))


# --------------------------------------------------------------------- #
# Quorum arithmetic (the bounds of Sections 3 and 8)
# --------------------------------------------------------------------- #

@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30),
       st.integers(min_value=0, max_value=10))
def test_banyan_quorum_intersection_holds_at_or_above_bound(f, p, extra):
    p = min(p, f)
    n = max(3 * f + 2 * p - 1, 3 * f + 1) + extra
    params = ProtocolParams(n=n, f=f, p=p)
    # Two slow quorums intersect in at least one honest replica (Lemma 8.4).
    assert 2 * params.banyan_quorum - n >= f + 1
    # A fast quorum and a slow quorum intersect in an honest replica (Thm 8.6).
    assert params.fast_quorum + params.banyan_quorum - n >= f + 1
    # Two fast quorums intersect in an honest replica.
    assert 2 * params.fast_quorum - n >= f + 1
    # The unlock threshold is reachable by honest replicas alone.
    assert n - f > params.unlock_threshold


@given(st.integers(min_value=1, max_value=30))
def test_icc_quorum_intersection(f):
    n = 3 * f + 1
    params = ProtocolParams(n=n, f=f)
    assert 2 * params.icc_quorum - n >= f + 1


# --------------------------------------------------------------------- #
# Block tree and finalized chain
# --------------------------------------------------------------------- #

@st.composite
def linear_chain(draw, max_length=12):
    length = draw(st.integers(min_value=1, max_value=max_length))
    blocks = []
    parent = genesis_block()
    for round in range(1, length + 1):
        proposer = draw(st.integers(min_value=0, max_value=5))
        block = Block(round=round, proposer=proposer, rank=0, parent_id=parent.id,
                      payload=str(round).encode())
        blocks.append(block)
        parent = block
    return blocks


@given(linear_chain())
def test_chain_to_inverts_ancestors(blocks):
    tree = BlockTree()
    for block in blocks:
        tree.add_block(block)
    path = tree.chain_to(blocks[-1].id)
    assert [b.round for b in path] == list(range(0, len(blocks) + 1))
    assert all(tree.is_ancestor(a.id, blocks[-1].id) for a in path)


@given(linear_chain(), st.data())
def test_out_of_order_insertion_gives_same_tree(blocks, data):
    ordering = data.draw(st.permutations(blocks))
    in_order = BlockTree()
    for block in blocks:
        in_order.add_block(block)
    shuffled = BlockTree()
    for block in ordering:
        shuffled.add_block(block)
    assert len(in_order) == len(shuffled)
    assert [b.id for b in in_order.chain_to(blocks[-1].id)] == [
        b.id for b in shuffled.chain_to(blocks[-1].id)
    ]


@given(linear_chain(), st.integers(min_value=1, max_value=12))
def test_chain_prefix_consistency(blocks, cut):
    cut = min(cut, len(blocks))
    full = FinalizedChain()
    full.append_segment(blocks)
    partial = FinalizedChain()
    partial.append_segment(blocks[:cut])
    assert partial.prefix_of(full)
    assert partial.consistent_with(full)
    assert partial.common_prefix_length(full) == len(partial)


@given(linear_chain())
def test_incremental_append_equals_bulk_append(blocks):
    bulk = FinalizedChain()
    bulk.append_segment(blocks)
    incremental = FinalizedChain()
    for block in blocks:
        incremental.append_segment([block])
    assert [b.id for b in bulk] == [b.id for b in incremental]


# --------------------------------------------------------------------- #
# Fast-path unlock conditions (Definition 7.6)
# --------------------------------------------------------------------- #

@st.composite
def fast_vote_scenario(draw):
    f = draw(st.integers(min_value=1, max_value=4))
    p = draw(st.integers(min_value=1, max_value=f))
    n = max(3 * f + 2 * p - 1, 3 * f + 1)
    block_count = draw(st.integers(min_value=1, max_value=4))
    blocks = [f"block-{i}" for i in range(block_count)]
    ranks = [draw(st.integers(min_value=0, max_value=3)) for _ in blocks]
    if not any(rank == 0 for rank in ranks):
        ranks[0] = 0
    votes = draw(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=n - 1),
                      st.integers(min_value=0, max_value=block_count - 1)),
            max_size=3 * n,
        )
    )
    return n, f, p, blocks, ranks, votes


@given(fast_vote_scenario())
def test_unlock_evaluation_is_monotone_and_consistent(scenario):
    n, f, p, blocks, ranks, votes = scenario
    state = FastPathState(unlock_threshold=f + p, fast_quorum=n - p)
    for block_id, rank in zip(blocks, ranks):
        state.record_block(block_id, rank)
    unlocked_so_far = set()
    was_all_unlocked = False
    for voter, block_index in votes:
        state.record_fast_vote(blocks[block_index], voter)
        decision = state.evaluate_unlocks()
        # Monotonicity: unlocked blocks stay unlocked, condition 2 is sticky.
        assert unlocked_so_far <= set(decision.unlocked_blocks) or decision.all_unlocked
        assert not (was_all_unlocked and not decision.all_unlocked)
        unlocked_so_far = set(decision.unlocked_blocks)
        was_all_unlocked = decision.all_unlocked
        # A fast-finalizable block is always unlocked (n - p > f + p at the bound).
        for block_id in state.fast_finalizable_blocks():
            assert block_id in decision.unlocked_blocks


@given(fast_vote_scenario())
def test_fp_finalized_block_is_unique(scenario):
    """At most one rank-0 block can reach n - p fast votes when each replica
    votes once (Lemma 8.5's core counting argument)."""
    n, f, p, blocks, ranks, votes = scenario
    state = FastPathState(unlock_threshold=f + p, fast_quorum=n - p)
    for block_id, rank in zip(blocks, ranks):
        state.record_block(block_id, rank)
    voted = set()
    for voter, block_index in votes:
        if voter in voted:
            continue  # honest replicas cast at most one fast vote per round
        voted.add(voter)
        state.record_fast_vote(blocks[block_index], voter)
    assert len(state.fast_finalizable_blocks()) <= 1


class _UnlockOracle:
    """Definitions 7.1–7.6 evaluated from scratch over everything recorded.

    No incremental state except what the definitions make sticky
    (Condition 2); the change-driven :class:`FastPathState` must agree
    with it after every event.
    """

    def __init__(self, unlock_threshold, fast_quorum):
        self.threshold = unlock_threshold
        self.fast_quorum = fast_quorum
        self.ranks = {}    # received block -> rank, in arrival order
        self.support = {}  # block -> voters (votes may precede the block)
        self.all_unlocked = False

    def add_block(self, block_id, rank):
        if block_id in self.ranks:
            return False
        self.ranks[block_id] = rank
        return True

    def add_votes(self, block_id, voters):
        known = self.support.setdefault(block_id, set())
        new = set(voters) - known
        known |= new
        return bool(new)

    def _supp(self, block_ids):
        voters = set()
        for block_id in block_ids:
            voters |= self.support.get(block_id, set())
        return voters

    def evaluate(self):
        non_leader = self._supp(b for b, rank in self.ranks.items() if rank != 0)
        unlocked = {b for b in self.ranks
                    if len(self._supp([b]) | non_leader) > self.threshold}
        rank_zero = [b for b, rank in self.ranks.items() if rank == 0]
        best = max(rank_zero, key=lambda b: (len(self._supp([b])), b), default=None)
        non_max = [b for b in self.ranks if b != best]
        if non_max and len(self._supp(non_max)) > self.threshold:
            self.all_unlocked = True
        return (set(self.ranks) if self.all_unlocked else unlocked), self.all_unlocked

    def fast_finalizable(self):
        return [b for b, rank in self.ranks.items()
                if rank == 0 and len(self._supp([b])) >= self.fast_quorum]


class _SetQuorumTracker:
    """The ``dict``-of-``set`` :class:`repro.smr.quorum.QuorumTracker` the
    bitmask one replaced, kept verbatim (minus docstrings) as the reference
    the properties below compare against."""

    def __init__(self, threshold, on_threshold=None):
        self.threshold = threshold
        self.on_threshold = on_threshold
        self._voters = {}
        self.fired = set()

    def add_vote(self, block_id, voter):
        voters = self._voters.get(block_id)
        if voters is None:
            voters = self._voters[block_id] = set()
        elif voter in voters:
            return False
        voters.add(voter)
        if len(voters) >= self.threshold and block_id not in self.fired:
            self.fired.add(block_id)
            if self.on_threshold is not None:
                self.on_threshold(block_id)
        return True

    def add_voters(self, block_id, voters):
        existing = self._voters.get(block_id)
        if existing is None:
            existing = self._voters[block_id] = set()
        if existing.issuperset(voters):
            return False
        if block_id not in self.fired and len(existing.union(voters)) >= self.threshold:
            for voter in voters:
                self.add_vote(block_id, voter)
        else:
            existing.update(voters)
        return True

    def voters(self, block_id):
        return frozenset(self._voters.get(block_id, ()))

    def count(self, block_id):
        return len(self._voters.get(block_id, ()))

    def count_outside(self, block_id, excluded):
        return len(self._voters.get(block_id, set()) - excluded)

    def reached(self, block_id):
        return block_id in self.fired

    def blocks(self):
        return list(self._voters)

    def reached_blocks(self):
        return [block_id for block_id, voters in self._voters.items()
                if len(voters) >= self.threshold]

    def equivocators(self):
        seen, culprits = set(), set()
        for voters in self._voters.values():
            culprits.update(seen.intersection(voters))
            seen |= voters
        return frozenset(culprits)

    def evidence(self, voter):
        return tuple(sorted((block_id for block_id, voters in self._voters.items()
                             if voter in voters), key=repr))


class _SetFastPathState:
    """The set-based :class:`repro.core.fastpath.FastPathState` the bitmask
    one replaced, kept verbatim (minus docstrings) as the reference."""

    def __init__(self, unlock_threshold, fast_quorum):
        self.unlock_threshold = unlock_threshold
        self._support = _SetQuorumTracker(fast_quorum)
        self._block_ranks = {}
        self._all_unlocked = False
        self._non_leader = set()
        self._non_leader_support = set()
        self._unlocked = set()
        self.stale = False
        self._settled = True
        self._decision = UnlockDecision(frozenset(), False)

    def record_block(self, block_id, rank):
        if block_id in self._block_ranks:
            return False
        self._block_ranks[block_id] = rank
        if rank != 0:
            self._non_leader.add(block_id)
            self._non_leader_support |= self._support.voters(block_id)
        self.stale = True
        return True

    def record_fast_vote(self, block_id, voter):
        if not self._support.add_vote(block_id, voter):
            return False
        if block_id in self._non_leader:
            self._non_leader_support.add(voter)
        if not self._settled:
            self.stale = True
        return True

    def merge_fast_votes(self, block_id, voters):
        if not self._support.add_voters(block_id, voters):
            return False
        if block_id in self._non_leader:
            self._non_leader_support.update(voters)
        if not self._settled:
            self.stale = True
        return True

    def merge_unlock_proof(self, votes_by_block):
        changed = False
        for block_id, voters in votes_by_block:
            if self.merge_fast_votes(block_id, voters):
                changed = True
        return changed

    def support(self, block_id):
        return self._support.voters(block_id)

    def support_of(self, block_ids):
        voters = set()
        for block_id in block_ids:
            voters |= self._support.voters(block_id)
        return frozenset(voters)

    def rank_zero_blocks(self):
        return [bid for bid, rank in self._block_ranks.items() if rank == 0]

    def max_block(self):
        rank_zero = self.rank_zero_blocks()
        if not rank_zero:
            return None
        return max(rank_zero, key=lambda bid: (self._support.count(bid), bid))

    def non_max_blocks(self):
        best = self.max_block()
        return [bid for bid in self._block_ranks if bid != best]

    def evaluate_unlocks(self):
        if not self.stale:
            return self._decision
        self.stale = False
        block_ranks = self._block_ranks
        contested = len(block_ranks) > 1 or bool(self._non_leader)
        if not self._all_unlocked:
            non_leader_support = self._non_leader_support
            for block_id in block_ranks:
                if block_id in self._unlocked:
                    continue
                if len(non_leader_support) + self._support.count_outside(
                        block_id, non_leader_support) > self.unlock_threshold:
                    self._unlocked.add(block_id)
            if contested:
                non_max = self.non_max_blocks()
                if non_max and len(self.support_of(non_max)) > self.unlock_threshold:
                    self._all_unlocked = True
        current = block_ranks if self._all_unlocked else self._unlocked
        decision = self._decision
        if (len(current) != len(decision.unlocked_blocks)
                or self._all_unlocked != decision.all_unlocked):
            decision = self._decision = UnlockDecision(
                frozenset(current), self._all_unlocked)
        self._settled = self._all_unlocked or (
            not contested and len(self._unlocked) == len(block_ranks))
        return decision

    def fast_finalizable_blocks(self):
        return [block_id for block_id in self.rank_zero_blocks()
                if self._support.reached(block_id)]

    def build_unlock_proof(self, round, block_id):
        ordered = tuple(sorted(
            (bid, self._support.voters(bid)) for bid in self._support.blocks()
            if self._support.count(bid)))
        return UnlockProof(round=round, block_id=block_id, votes_by_block=ordered)


@st.composite
def quorum_events(draw):
    """Random single votes and certificate merges over a few blocks:
    duplicates, voters supporting several blocks, and bulk merges that
    cross the threshold part-way through."""
    n = draw(st.integers(min_value=1, max_value=70))  # past one machine word
    threshold = draw(st.integers(min_value=1, max_value=n))
    block = st.sampled_from(["x", "y", "z"])
    voter = st.integers(min_value=0, max_value=n - 1)
    event = st.one_of(
        st.tuples(st.just("vote"), block, voter),
        st.tuples(st.just("merge"), block, st.frozensets(voter, max_size=n)),
    )
    return n, threshold, draw(st.lists(event, max_size=40)), draw(st.frozensets(voter))


@given(quorum_events())
def test_bitmask_quorum_tracker_matches_the_set_based_one(scenario):
    n, threshold, events, excluded = scenario
    fired, expected_fired = [], []
    tracker = QuorumTracker(
        threshold, lambda block_id: fired.append((block_id, tracker.count(block_id))))
    reference = _SetQuorumTracker(
        threshold, lambda block_id: expected_fired.append((block_id, reference.count(block_id))))
    for kind, block_id, what in events:
        if kind == "vote":
            assert tracker.add_vote(block_id, what) == reference.add_vote(block_id, what)
        else:
            assert tracker.add_voters(block_id, voter_mask(what)) == \
                reference.add_voters(block_id, what)
        # The callback fired at the same events, seeing the same tally size.
        assert fired == expected_fired
        assert tracker.blocks() == reference.blocks()
        assert tracker.reached_blocks() == reference.reached_blocks()
        assert tracker.fired == reference.fired
        assert tracker.fired_count() == len(reference.fired)
        assert tracker.equivocators() == reference.equivocators()
        for known in reference.blocks():
            assert tracker.voters(known) == reference.voters(known)
            assert tracker.mask(known) == voter_mask(reference.voters(known))
            assert tracker.count(known) == reference.count(known)
            assert tracker.reached(known) == reference.reached(known)
            assert tracker.count_outside(known, voter_mask(excluded)) == \
                reference.count_outside(known, excluded)
        for voter in range(n):
            assert tracker.evidence(voter) == reference.evidence(voter)
    assert tracker.voters("never voted for") == frozenset()
    assert tracker.count_outside("never voted for", voter_mask(excluded)) == 0


@given(st.frozensets(st.integers(min_value=0, max_value=300)))
def test_voter_mask_round_trips(voters):
    mask = voter_mask(voters)
    assert mask_voters(mask) == voters
    assert mask.bit_count() == len(voters)
    assert voter_mask(sorted(voters) * 2) == mask  # any iterable, duplicates or not


@st.composite
def fast_path_events(draw):
    """A random interleaving of blocks, votes, certificate merges and
    unlock proofs over a few blocks — votes before their block, several
    rank-0 blocks (an equivocating leader), non-leader blocks, and voters
    supporting more than one block."""
    f = draw(st.integers(min_value=1, max_value=3))
    p = draw(st.integers(min_value=1, max_value=f))
    n = max(3 * f + 2 * p - 1, 3 * f + 1)
    ranks = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=4))
    block = st.integers(min_value=0, max_value=len(ranks) - 1)
    voter = st.integers(min_value=0, max_value=n - 1)
    voters = st.frozensets(voter, max_size=n)
    event = st.one_of(
        st.tuples(st.just("block"), block),
        st.tuples(st.just("vote"), block, voter),
        st.tuples(st.just("vote"), block, voter),
        st.tuples(st.just("merge"), block, voters),
        st.tuples(st.just("proof"), st.lists(st.tuples(block, voters), max_size=3)),
    )
    return n, f, p, ranks, draw(st.lists(event, max_size=6 * n))


@given(fast_path_events())
def test_change_driven_fast_path_matches_from_scratch_oracle(scenario):
    n, f, p, ranks, events = scenario
    state = FastPathState(unlock_threshold=f + p, fast_quorum=n - p)
    oracle = _UnlockOracle(unlock_threshold=f + p, fast_quorum=n - p)
    reference = _SetFastPathState(unlock_threshold=f + p, fast_quorum=n - p)
    name = "block-{}".format
    for event in events:
        if event[0] == "block":
            changed = state.record_block(name(event[1]), ranks[event[1]])
            expected = oracle.add_block(name(event[1]), ranks[event[1]])
            was = reference.record_block(name(event[1]), ranks[event[1]])
        elif event[0] == "vote":
            changed = state.record_fast_vote(name(event[1]), event[2])
            expected = oracle.add_votes(name(event[1]), [event[2]])
            was = reference.record_fast_vote(name(event[1]), event[2])
        elif event[0] == "merge":
            changed = state.merge_fast_votes(name(event[1]), voter_mask(event[2]))
            expected = oracle.add_votes(name(event[1]), event[2])
            was = reference.merge_fast_votes(name(event[1]), event[2])
        else:
            entries = tuple((name(index), voters) for index, voters in event[1])
            changed = state.merge_unlock_proof(
                UnlockProof(round=1, block_id=name(0), votes_by_block=entries))
            # Every entry is merged (no short-circuit on the first change).
            expected = any([oracle.add_votes(block_id, voters)
                            for block_id, voters in entries])
            was = reference.merge_unlock_proof(entries)
        # "Changed" is reported exactly when the oracle's inputs changed,
        # and an unchanged event never asks for a re-evaluation.
        assert changed == expected == was
        assert changed or not state.stale
        # The bitmask state answers every query as the set-based one did —
        # including *when* it asks for a re-evaluation.
        assert state.stale == reference.stale
        blocks = [name(index) for index in range(len(ranks))]
        for block_id in blocks:
            assert state.support(block_id) == reference.support(block_id)
            assert state.support_mask(block_id) == voter_mask(reference.support(block_id))
        assert state.support_of(blocks[1:]) == reference.support_of(blocks[1:])
        assert state.equivocators() == reference._support.equivocators()
        assert state.max_block() == reference.max_block()
        assert state.non_max_blocks() == reference.non_max_blocks()
        proof = state.build_unlock_proof(1, name(0))
        assert proof == reference.build_unlock_proof(1, name(0))
        assert len(proof) == len(proof.total_voters()) == len(reference.support_of(blocks))
        assert state.evaluate_unlocks() == reference.evaluate_unlocks()
        decision = state.evaluate_unlocks()
        unlocked, all_unlocked = oracle.evaluate()
        assert set(decision.unlocked_blocks) == unlocked
        assert decision.all_unlocked == all_unlocked
        assert state.fast_finalizable_blocks() == oracle.fast_finalizable()
        assert not state.stale


# --------------------------------------------------------------------- #
# Statistics helpers
# --------------------------------------------------------------------- #

@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=50))
def test_percentile_bounds_and_ordering(values):
    assert min(values) <= median(values) <= max(values)
    assert percentile(values, 0) == min(values)
    assert percentile(values, 100) == max(values)
    assert median(values) <= percentile(values, 95) + 1e-9


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), max_size=50),
       st.lists(st.floats(min_value=0, max_value=100), max_size=4))
def test_percentiles_from_one_sort_equal_one_sort_per_call(values, qs):
    def nearest_rank(q):
        ordered = sorted(values)
        if not ordered:
            return 0.0
        if q == 0:
            return ordered[0]
        rank = max(1, math.ceil(q / 100.0 * len(ordered)))
        return ordered[min(rank, len(ordered)) - 1]

    assert percentiles(values, qs) == [nearest_rank(q) for q in qs]
    assert [percentile(values, q) for q in qs] == percentiles(values, qs)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=2, max_size=50))
def test_variance_non_negative_and_stddev_consistent(values):
    assert variance(values) >= 0
    assert math.isclose(stddev(values) ** 2, variance(values), rel_tol=1e-9, abs_tol=1e-9)


@given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=50),
       st.floats(min_value=-1e5, max_value=1e5, allow_nan=False))
def test_mean_shift_invariance(values, shift):
    shifted = [v + shift for v in values]
    assert math.isclose(mean(shifted), mean(values) + shift, rel_tol=1e-9, abs_tol=1e-6)


# --------------------------------------------------------------------- #
# Experiment configs
# --------------------------------------------------------------------- #

#: Values no config may accept, per field (``workload.`` fields go to the
#: WorkloadSpec); a generated config breaks at most one field.
_BAD_VALUES = {
    "protocol": ["nope"], "n": [0, -1], "f": [-1], "p": [-1],
    "rank_delay": [-1.0, math.nan, math.inf], "round_timeout": [-1.0, math.nan],
    "payload_size": [-1], "duration": [0.0, -1.0, math.inf, math.nan],
    "warmup": [-0.5, math.nan, 5.0], "scheduler": ["bogus"],
    "workload.rate": [0.0, math.nan], "workload.num_clients": [0],
    "workload.think_time": [-1.0, math.nan, math.inf], "workload.tx_size": [0],
    "workload.mempool_max_bytes": [0, -1],
    "workload.sample_interval": [-1.0, math.nan],
}

_workloads = st.none() | st.fixed_dictionaries({
    "mode": st.sampled_from(["open", "closed"]),
    "rate": st.sampled_from([20.0, 80.0]),
    "num_clients": st.sampled_from([1, 4]),
    "think_time": st.sampled_from([0.0, 0.2]),
    "tx_size": st.sampled_from([8, 256]),
    "mempool_max_bytes": st.sampled_from([None, 4096]),
    "sample_interval": st.sampled_from([0.0, 0.5]),
})


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    fields=st.fixed_dictionaries({
        "protocol": st.sampled_from(["banyan", "icc", "hotstuff", "streamlet"]),
        "n": st.integers(min_value=1, max_value=7),
        "f": st.integers(min_value=0, max_value=2),
        "p": st.integers(min_value=0, max_value=2),
        "rank_delay": st.sampled_from([0.1, 0.4]),
        "round_timeout": st.sampled_from([0.5, 3.0]),
        "payload_size": st.sampled_from([0, 1000]),
        "duration": st.sampled_from([1.5, 3.0]),
        "warmup": st.sampled_from([0.0, 1.0]),
        "scheduler": st.sampled_from(["auto", "heap", "calendar"]),
        "compute": st.sampled_from(["zero", "crypto"]),
        "crash": st.booleans(),
        "workload": _workloads,
    }),
    broken=st.none() | st.sampled_from(
        [(name, value) for name, values in _BAD_VALUES.items() for value in values]),
)
def test_every_config_is_refused_at_construction_or_runs(fields, broken):
    """A config raises ValueError while it is built (always, when a field
    holds a value no config may accept), or its run completes with a
    measurement window of ``duration - warmup`` > 0 s: no traceback, hang
    or empty window from inside the run."""
    from repro.eval.experiment import ExperimentConfig, run_experiment
    from repro.net.faults import FaultPlan
    from repro.workload.spec import WorkloadSpec

    fields = dict(fields)
    if broken is not None:
        name, value = broken
        if name.startswith("workload."):
            fields["workload"] = dict(fields["workload"] or {})
            fields["workload"][name[len("workload."):]] = value
        else:
            fields[name] = value
    try:
        params = ProtocolParams(n=fields["n"], f=fields["f"], p=fields["p"],
                                rank_delay=fields["rank_delay"],
                                round_timeout=fields["round_timeout"],
                                payload_size=fields["payload_size"])
        workload = fields["workload"]
        config = ExperimentConfig(
            fields["protocol"], params, duration=fields["duration"],
            warmup=fields["warmup"], scheduler=fields["scheduler"],
            compute=fields["compute"],
            faults=(FaultPlan.with_crashed([fields["n"] - 1]) if fields["crash"]
                    else FaultPlan.none()),
            workload=None if workload is None else WorkloadSpec(**workload))
    except ValueError:
        return
    assert broken is None, f"{broken[0]}={broken[1]!r} was accepted"
    result = run_experiment(config)
    assert result.metrics.duration == config.duration - config.warmup > 0
    if workload is not None:
        assert 0 <= result.workload.committed <= result.workload.submitted
