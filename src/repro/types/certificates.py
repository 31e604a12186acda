"""Certificates: aggregated votes proving protocol facts.

The paper aggregates vote multisets into four kinds of certificates:

* **Notarization** (Section 4) — proof that a quorum notarization-voted for a
  block; required before a block may be extended and gates round advancement.
* **Finalization** (Section 4) — proof that a quorum finalization-voted for a
  block; the block is *SP-finalized* (explicitly finalized via the slow path).
* **Fast finalization** (Definition 6.2 / Addition 4) — proof that ``n - p``
  replicas fast-voted for a rank-0 block; the block is *FP-finalized*.
* **Unlock proof** (Definition 7.7) — a collection of fast votes proving a
  block is *unlocked* according to Definition 7.6, i.e. safe to extend.

Certificates are value objects: the voter set is explicit so quorum sizes are
checked by the recipient (``verify``).  They carry no signature: the cost of
aggregating and verifying the BLS multi-signature is charged by the ``crypto``
compute model (:mod:`repro.runtime.compute`).  Voter sets are stored as ``int``
bitmasks (:mod:`repro.types.votes`); constructors take any iterable of ids
and ``voters`` / ``support`` / ``total_voters`` give ``frozenset`` views.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet, Iterable, Optional, Tuple

from repro.types.blocks import BlockId
from repro.types.votes import Vote, VoteKind, mask_voters, voter_mask


class CertificateError(Exception):
    """Raised when a certificate is constructed from inconsistent votes."""


@dataclass(frozen=True, init=False)
class Certificate:
    """Base certificate: a set of voters attesting something about a block.

    Args:
        round: round of the certified block.
        block_id: identifier of the certified block.
        voters: the replicas whose votes are aggregated (any iterable of ids).
        mask: the voters as a bitmask, for builders that hold one already.
    """

    round: int
    block_id: BlockId
    #: Voter bitmask: bit ``i`` set iff replica ``i`` is among the voters.
    mask: int

    #: Vote kind this certificate aggregates; overridden by subclasses.
    VOTE_KIND = VoteKind.NOTARIZATION

    def __init__(self, round: int, block_id: BlockId, voters: Iterable[int] = (),
                 *, mask: Optional[int] = None) -> None:
        set_field = object.__setattr__
        set_field(self, "round", round)
        set_field(self, "block_id", block_id)
        set_field(self, "mask", voter_mask(voters) if mask is None else mask)

    @classmethod
    def from_votes(cls, votes: Iterable[Vote]) -> "Certificate":
        """Aggregate ``votes`` (all of this certificate's kind, same block).

        Raises:
            CertificateError: if the votes are empty, of mixed kind, or refer
                to different blocks/rounds.
        """
        votes = list(votes)
        if not votes:
            raise CertificateError("cannot build a certificate from zero votes")
        rounds = {vote.round for vote in votes}
        blocks = {vote.block_id for vote in votes}
        kinds = {vote.kind for vote in votes}
        if kinds != {cls.VOTE_KIND}:
            raise CertificateError(
                f"{cls.__name__} expects {cls.VOTE_KIND.value} votes, got {sorted(k.value for k in kinds)}"
            )
        if len(rounds) != 1 or len(blocks) != 1:
            raise CertificateError("votes refer to different blocks or rounds")
        return cls(
            round=rounds.pop(),
            block_id=blocks.pop(),
            voters=(vote.voter for vote in votes),
        )

    @property
    def voters(self) -> FrozenSet[int]:
        """The replicas whose votes are aggregated (a set view of ``mask``)."""
        return mask_voters(self.mask)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def verify(self, threshold: int) -> bool:
        """Check the certificate carries at least ``threshold`` distinct voters.

        That the voters are replicas at all (``mask >> n == 0``) is the
        receiving handler's check: a certificate does not know ``n``.
        """
        return self.mask.bit_count() >= threshold


class Notarization(Certificate):
    """Proof that a quorum notarization-voted for the block."""

    VOTE_KIND = VoteKind.NOTARIZATION


class Finalization(Certificate):
    """Proof of SP-finalization: a quorum of finalization votes."""

    VOTE_KIND = VoteKind.FINALIZATION


class FastFinalization(Certificate):
    """Proof of FP-finalization: ``n - p`` fast votes for a rank-0 block."""

    VOTE_KIND = VoteKind.FAST


@dataclass(frozen=True, init=False)
class UnlockProof:
    """Proof that a block is unlocked (Definition 7.7).

    Unlike the other certificates, an unlock proof may aggregate fast votes
    for *several different* blocks of the same round: Condition 2 of
    Definition 7.6 unlocks every block of the round once more than ``f + p``
    fast-vote support exists outside the best rank-0 block.

    Args:
        round: the round whose block(s) are unlocked.
        block_id: the block the proof is attached to (the notarized block the
            sender extends / forwards).
        votes_by_block: fast-vote voters (any iterable of ids) keyed by the
            block they support.
        masks_by_block: the same as ``(block id, voter bitmask)`` pairs, for
            builders that hold masks already.
    """

    round: int
    block_id: BlockId
    #: Fast-vote voter bitmasks keyed by the block they support.
    masks_by_block: Tuple[Tuple[BlockId, int], ...]

    def __init__(self, round: int, block_id: BlockId,
                 votes_by_block: Iterable[Tuple[BlockId, Iterable[int]]] = (),
                 *, masks_by_block: Optional[Tuple[Tuple[BlockId, int], ...]] = None) -> None:
        if masks_by_block is None:
            masks_by_block = tuple((bid, voter_mask(voters)) for bid, voters in votes_by_block)
        set_field = object.__setattr__
        set_field(self, "round", round)
        set_field(self, "block_id", block_id)
        set_field(self, "masks_by_block", masks_by_block)

    @cached_property
    def total_mask(self) -> int:
        """Bitmask of all distinct voters in the proof.

        Derived on first use and memoised in ``__dict__``, outside ``==`` /
        ``hash`` / ``repr``, so a proof restored field by field (the wire
        codec) needs no constructor call.
        """
        total = 0
        for _, mask in self.masks_by_block:
            total |= mask
        return total

    @classmethod
    def from_fast_votes(cls, round: int, block_id: BlockId,
                        votes: Iterable[Vote]) -> "UnlockProof":
        """Build an unlock proof from a collection of fast votes of ``round``."""
        by_block: dict = {}
        for vote in votes:
            if vote.kind is not VoteKind.FAST:
                raise CertificateError("unlock proofs aggregate fast votes only")
            if vote.round != round:
                raise CertificateError("unlock proof votes must belong to one round")
            by_block[vote.block_id] = by_block.get(vote.block_id, 0) | 1 << vote.voter
        return cls(round=round, block_id=block_id,
                   masks_by_block=tuple(sorted(by_block.items())))

    def support(self, block_id: BlockId) -> FrozenSet[int]:
        """Return the fast-vote support recorded for ``block_id``."""
        for bid, mask in self.masks_by_block:
            if bid == block_id:
                return mask_voters(mask)
        return frozenset()

    def total_voters(self) -> FrozenSet[int]:
        """All distinct voters across every block in the proof (a view of
        ``total_mask``; ``len(proof)`` takes the size without building it)."""
        return mask_voters(self.total_mask)

    def __len__(self) -> int:
        return self.total_mask.bit_count()
