"""The shared quorum/certificate engine: vote tallies toward a threshold.

Every protocol in this repository turns votes into certificates the same
way — collect votes per block, suppress duplicates, note when a threshold
is met — yet each used to hand-roll the bookkeeping.  This module
centralises it:

* :class:`QuorumTracker` tallies votes of **one kind toward one threshold**
  (per round, in the protocols' usage): each voter counts at most once per
  block, duplicate votes are ignored, a block that reaches the threshold
  joins the tracker's ``fired`` set, and a voter found supporting more
  than one block is a **conflicting-support observation** (derived from the
  tallies when asked for, so recording a vote pays nothing for it).
  Whether conflicting support is *misbehaviour* depends on the vote kind's
  honest-voting rule: honest replicas cast at most one fast or
  finalization vote per round, so those observations are hard evidence,
  while ICC-family notarization votes may honestly support several blocks
  of one round (the set ``N``) — interpret the evidence per kind (see
  :func:`repro.byzantine.behaviors.fast_vote_equivocators` for a sound
  use).
* :class:`CertificateCollector` lazily creates one tracker per
  ``(round, kind)``, for protocols that key their tallies by view or epoch
  (HotStuff, Streamlet).  ICC and Banyan build their two trackers per
  round directly and keep them on the round's state.

The engine works at any threshold — ICC's ``n - f``, Banyan's
``⌈(n+f+1)/2⌉`` notarization and ``n - p`` fast quorums, HotStuff's QC
quorum, Streamlet's ``⌈2n/3⌉`` — which is exactly what lets all four
protocols (and the Byzantine behaviour mixins) share it.

Determinism contract: iteration orders (``blocks()``, ``reached_blocks()``)
follow first-vote insertion order, matching the ``dict``-of-``set``
bookkeeping the protocols previously hand-rolled, so porting a protocol to
the engine does not perturb seeded executions.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, List, Set, Tuple

from repro.types.votes import mask_voters


class QuorumTracker:
    """Tally votes per block toward one threshold.

    Args:
        threshold: number of distinct voters at which a block's tally is
            *reached*; must be positive.

    A block's voter set is one ``int`` bitmask over the (non-negative)
    replica ids, see :mod:`repro.types.votes`; the tracker does not know
    ``n``, so range checks belong to whoever lets a message in.  Blocks only
    need to be hashable: unit tests drive the tracker with plain strings.
    """

    __slots__ = ("threshold", "fired", "_voters")

    def __init__(self, threshold: int) -> None:
        if threshold < 1:
            raise ValueError("quorum threshold must be positive")
        self.threshold = threshold
        #: Block id → voter bitmask (insertion-ordered by first vote).
        #: The only tally: conflicting support is derived from it on demand
        #: (:meth:`equivocators`), so a vote costs one ``|``.
        self._voters: Dict[Hashable, int] = {}
        #: Blocks that have reached the threshold (read-only outside the
        #: tracker).  Tallies only grow, so membership equals
        #: :meth:`reached` and the size only moves up: per-message callers
        #: compare ``len(tracker.fired)`` to act only when it changed.
        self.fired: Set[Hashable] = set()

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def add_vote(self, block_id: Hashable, voter: int) -> bool:
        """Count one vote; return whether it was new (duplicates: ``False``)."""
        voters = self._voters
        have = voters.get(block_id, 0)
        grown = have | 1 << voter
        if grown == have:
            return False
        voters[block_id] = grown
        if grown.bit_count() >= self.threshold:
            self.fired.add(block_id)
        return True

    def add_voters(self, block_id: Hashable, voters: int) -> bool:
        """Merge a certificate's voter bitmask; return whether any was new.

        Hot path of certificate gossip: at ``n`` replicas every certificate
        carries O(n) voters and is received n times, so the all-duplicates
        case (nearly every call) costs one ``|`` and one compare.  A block
        first named here still takes its place in first-vote order.
        """
        have = self._voters.setdefault(block_id, 0)
        grown = have | voters
        if grown == have:
            return False
        self._voters[block_id] = grown
        if grown.bit_count() >= self.threshold:
            self.fired.add(block_id)
        return True

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def mask(self, block_id: Hashable) -> int:
        """The voter bitmask recorded for ``block_id`` (0 if none)."""
        return self._voters.get(block_id, 0)

    def voters(self, block_id: Hashable) -> FrozenSet[int]:
        """The distinct voters recorded for ``block_id`` (a view of :meth:`mask`)."""
        return mask_voters(self._voters.get(block_id, 0))

    def count(self, block_id: Hashable) -> int:
        """Number of distinct voters recorded for ``block_id``."""
        return self._voters.get(block_id, 0).bit_count()

    def count_outside(self, block_id: Hashable, excluded: int) -> int:
        """Number of distinct voters for ``block_id`` outside the mask ``excluded``.

        Lets callers compute ``|voters(b) ∪ excluded|`` as
        ``excluded.bit_count() + count_outside(b, excluded)`` without
        materialising the union (the fast-path unlock check does this).
        """
        return (self._voters.get(block_id, 0) & ~excluded).bit_count()

    def reached(self, block_id: Hashable) -> bool:
        """Whether ``block_id``'s tally is at or above the threshold."""
        return block_id in self.fired

    def blocks(self) -> List[Hashable]:
        """Blocks with at least one vote, in first-vote order."""
        return list(self._voters)

    def reached_blocks(self) -> List[Hashable]:
        """Blocks at or above the threshold, in first-vote order."""
        return [block_id for block_id in self._voters if block_id in self.fired]

    def fired_count(self) -> int:
        """Number of blocks that have reached the threshold (O(1));
        equals ``len(reached_blocks())`` at all times, see :attr:`fired`."""
        return len(self.fired)

    def equivocators(self) -> FrozenSet[int]:
        """Voters observed supporting more than one distinct block.

        This is evidence of misbehaviour only for vote kinds where honest
        replicas vote at most once (fast votes, finalization votes,
        Streamlet/HotStuff notarization votes) — ICC-family notarization
        votes may honestly support several same-round blocks.
        """
        seen = culprits = 0
        for voters in self._voters.values():
            culprits |= seen & voters
            seen |= voters
        return mask_voters(culprits)

    def evidence(self, voter: int) -> Tuple[Hashable, ...]:
        """The distinct blocks ``voter`` supported (sorted; evidence record)."""
        return tuple(sorted((block_id for block_id, voters in self._voters.items()
                             if voters >> voter & 1), key=repr))


class CertificateCollector:
    """Per-replica vote trackers keyed by ``(round, kind)``.

    One :class:`QuorumTracker` is created lazily per key; the threshold is
    fixed on first access (protocol quorums are static for a run).
    """

    __slots__ = ("_trackers",)

    def __init__(self) -> None:
        self._trackers: Dict[Tuple[int, Hashable], QuorumTracker] = {}

    def tracker(self, round_k: int, kind: Hashable, threshold: int) -> QuorumTracker:
        """The tracker of ``(round, kind)``, created on first use."""
        key = (round_k, kind)
        tracker = self._trackers.get(key)
        if tracker is None:
            tracker = self._trackers[key] = QuorumTracker(threshold)
        return tracker
