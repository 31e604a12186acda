"""Fast-path bookkeeping: fast-vote support and the unlock conditions.

This module implements Definitions 7.1–7.7 of the paper as a self-contained,
per-round data structure so that the unlock logic can be unit- and
property-tested independently of the full protocol:

* ``supp(b)`` — the set of replicas from which a fast vote for block ``b``
  was received (Definition 7.1);
* ``max(k)`` — a rank-0 block with the largest support (Definition 7.2);
* ``nonLeaderBlocks(k)`` / ``nonMaxBlocks(k)`` (Definitions 7.4, 7.5);
* the two unlock conditions of Definition 7.6;
* unlock proofs (Definition 7.7) as per-block voter sets.

Voter sets are ``int`` bitmasks throughout (see :mod:`repro.types.votes`);
``support`` / ``support_of`` / ``equivocators`` return ``frozenset`` views.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from repro.smr.quorum import QuorumTracker
from repro.types.blocks import BlockId
from repro.types.certificates import UnlockProof
from repro.types.votes import mask_voters


@dataclass(frozen=True)
class UnlockDecision:
    """Outcome of evaluating Definition 7.6 for one round.

    Attributes:
        unlocked_blocks: blocks unlocked via Condition 1 (or already known).
        all_unlocked: whether Condition 2 holds, unlocking *all* current and
            future blocks of the round.
    """

    unlocked_blocks: FrozenSet[BlockId]
    all_unlocked: bool


class FastPathState:
    """Per-round fast-vote support and unlock evaluation.

    Args:
        unlock_threshold: the value ``f + p``; support strictly above it
            triggers the unlock conditions.
        fast_quorum: the value ``n - p``; support at or above it FP-finalizes
            a rank-0 block.
    """

    def __init__(self, unlock_threshold: int, fast_quorum: int) -> None:
        if unlock_threshold < 0 or fast_quorum <= 0:
            raise ValueError("thresholds must be positive")
        self.unlock_threshold = unlock_threshold
        self.fast_quorum = fast_quorum
        #: Fast-vote support per block id (votes may precede the block),
        #: tallied by the shared quorum engine: duplicates are suppressed
        #: and a signer fast-voting for two blocks is recorded as
        #: equivocation evidence.
        self._support = QuorumTracker(fast_quorum)
        #: Blocks whose support reached the fast quorum, any rank (the
        #: tally's ``fired`` set, shared; read-only outside this class).
        self.fast_quorum_blocks = self._support.fired
        #: Rank of each *received* block (only received blocks participate in
        #: the unlock conditions, since their rank must be known).
        self._block_ranks: Dict[BlockId, int] = {}
        #: Whether Condition 2 has been met (sticky for the round).
        self._all_unlocked = False
        #: Received blocks with rank != 0 (``nonLeaderBlocks(k)`` as a set).
        self._non_leader: Set[BlockId] = set()
        #: ``supp(nonLeaderBlocks(k))`` as a voter bitmask, maintained
        #: incrementally as votes and blocks arrive, so
        #: :meth:`evaluate_unlocks` does not rebuild the union each time.
        self._non_leader_support = 0
        #: Blocks already unlocked via Condition 1.  Support only grows, so
        #: the condition is monotone and the set is sticky — re-evaluation
        #: skips these.
        self._unlocked: Set[BlockId] = set()
        #: Whether something recorded since the last :meth:`evaluate_unlocks`
        #: could alter its decision; callers re-evaluate only while set.
        self.stale = False
        #: Whether more support alone can no longer alter the decision:
        #: Condition 2 holds, or every received block is unlocked in an
        #: uncontested round (where Condition 2 cannot hold).
        self._settled = True
        #: The decision of the last evaluation, rebuilt only when it grows.
        self._decision = UnlockDecision(frozenset(), False)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def record_block(self, block_id: BlockId, rank: int) -> bool:
        """Register a received round-``k`` block; returns whether it was new."""
        if block_id in self._block_ranks:
            return False
        self._block_ranks[block_id] = rank
        if rank != 0:
            self._non_leader.add(block_id)
            # Votes may precede the block: fold its existing support in.
            self._non_leader_support |= self._support.mask(block_id)
        self.stale = True
        return True

    def record_fast_vote(self, block_id: BlockId, voter: int) -> bool:
        """Register one fast vote; returns whether support changed (a
        duplicate changes nothing)."""
        if not self._support.add_vote(block_id, voter):
            return False
        if block_id in self._non_leader:
            self._non_leader_support |= 1 << voter
        if not self._settled:
            self.stale = True
        return True

    def merge_fast_votes(self, block_id: BlockId, voters: int) -> bool:
        """Register a certificate's fast votes for ``block_id`` (a voter
        bitmask) in bulk; returns whether support changed (any voter was
        new)."""
        if not self._support.add_voters(block_id, voters):
            return False
        if block_id in self._non_leader:
            self._non_leader_support |= voters
        if not self._settled:
            self.stale = True
        return True

    def merge_unlock_proof(self, proof: UnlockProof) -> bool:
        """Merge the voter sets carried by an unlock proof (Addition 1/2);
        returns whether support changed for any of its blocks."""
        changed = False
        add_voters = self._support.add_voters
        for block_id, voters in proof.masks_by_block:
            if add_voters(block_id, voters):
                changed = True
                if block_id in self._non_leader:
                    self._non_leader_support |= voters
        if changed and not self._settled:
            self.stale = True
        return changed

    # ------------------------------------------------------------------ #
    # Queries (Definitions 7.1 – 7.5)
    # ------------------------------------------------------------------ #

    def support(self, block_id: BlockId) -> FrozenSet[int]:
        """``supp(b)``: replicas that fast-voted for ``block_id``."""
        return self._support.voters(block_id)

    def support_mask(self, block_id: BlockId) -> int:
        """``supp(b)`` as a voter bitmask (what certificates carry)."""
        return self._support.mask(block_id)

    def support_of(self, block_ids: Iterable[BlockId]) -> FrozenSet[int]:
        """``supp(B)``: distinct replicas that fast-voted for any block in ``B``."""
        return mask_voters(self._support_mask_of(block_ids))

    def _support_mask_of(self, block_ids: Iterable[BlockId]) -> int:
        voters = 0
        for block_id in block_ids:
            voters |= self._support.mask(block_id)
        return voters

    def equivocators(self) -> FrozenSet[int]:
        """Signers whose fast votes supported more than one block this round.

        An honest replica fast-votes at most once per round, so any replica
        in this set has produced cryptographic evidence of misbehaviour —
        the seam adversary analyses and the Byzantine tests use.
        """
        return self._support.equivocators()

    def rank_zero_blocks(self) -> List[BlockId]:
        """Received blocks of rank 0 (more than one only with a Byzantine leader)."""
        return [bid for bid, rank in self._block_ranks.items() if rank == 0]

    def non_leader_blocks(self) -> List[BlockId]:
        """``nonLeaderBlocks(k)``: received blocks with rank larger than 0."""
        return [bid for bid, rank in self._block_ranks.items() if rank != 0]

    def max_block(self) -> Optional[BlockId]:
        """``max(k)``: a rank-0 block with the largest support, if any."""
        rank_zero = self.rank_zero_blocks()
        if not rank_zero:
            return None
        return max(rank_zero, key=lambda bid: (self._support.count(bid), bid))

    def non_max_blocks(self) -> List[BlockId]:
        """``nonMaxBlocks(k)``: received blocks excluding ``max(k)``."""
        best = self.max_block()
        return [bid for bid in self._block_ranks if bid != best]

    # ------------------------------------------------------------------ #
    # Decisions (Definitions 6.2 and 7.6)
    # ------------------------------------------------------------------ #

    def evaluate_unlocks(self) -> UnlockDecision:
        """Evaluate Definition 7.6 over the received blocks.

        Condition 2 is sticky: once met, all current *and future* blocks of
        the round are unlocked, so later calls keep returning
        ``all_unlocked=True``.

        Change-driven: unless something recorded since the last call could
        alter the outcome (:attr:`stale`), this returns the cached decision,
        which is rebuilt only when the unlocked set grew.  A real evaluation
        is incremental: Condition 1 is monotone (support only grows) and
        skips already-unlocked blocks, and ``supp(nonLeaderBlocks)`` is the
        maintained running union.
        """
        if not self.stale:
            return self._decision
        self.stale = False
        block_ranks = self._block_ranks
        contested = len(block_ranks) > 1 or bool(self._non_leader)
        if not self._all_unlocked:
            non_leader_support = self._non_leader_support
            nls_size = non_leader_support.bit_count()
            threshold = self.unlock_threshold
            unlocked = self._unlocked
            for block_id in block_ranks:
                if block_id in unlocked:
                    continue
                # |supp(b) ∪ NLS| without materialising the union.
                if nls_size + self._support.count_outside(
                        block_id, non_leader_support) > threshold:
                    unlocked.add(block_id)
            if contested:
                # Otherwise nonMaxBlocks(k) is empty (at most one received
                # block, of rank 0) and Condition 2 cannot hold.
                non_max = self.non_max_blocks()
                if non_max and self._support_mask_of(non_max).bit_count() > threshold:
                    self._all_unlocked = True
        current = block_ranks if self._all_unlocked else self._unlocked
        decision = self._decision
        if (len(current) != len(decision.unlocked_blocks)
                or self._all_unlocked != decision.all_unlocked):
            # Both sets only grow, so an equal size means an equal set.
            decision = self._decision = UnlockDecision(
                frozenset(current), self._all_unlocked)
        self._settled = self._all_unlocked or (
            not contested and len(self._unlocked) == len(block_ranks))
        return decision

    def fast_finalizable_blocks(self) -> List[BlockId]:
        """Rank-0 blocks whose support reaches the fast quorum ``n - p``."""
        if not self.fast_quorum_blocks:
            # No block has reached the fast quorum yet — skip the scan.
            return []
        return [
            block_id
            for block_id in self.rank_zero_blocks()
            if self._support.reached(block_id)
        ]

    # ------------------------------------------------------------------ #
    # Unlock proofs (Definition 7.7)
    # ------------------------------------------------------------------ #

    def build_unlock_proof(self, round: int, block_id: BlockId) -> UnlockProof:
        """Build an unlock proof from every fast vote seen this round."""
        support = self._support
        ordered = tuple(sorted(
            (bid, mask) for bid in support.blocks() if (mask := support.mask(bid))))
        return UnlockProof(round=round, block_id=block_id, masks_by_block=ordered)
