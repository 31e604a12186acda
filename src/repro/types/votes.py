"""Votes cast by replicas over blocks.

Banyan uses three vote kinds (Sections 4, 6, 7 of the paper):

* **Notarization vote** — "I validated block *b* in round *k*"; ``n - f`` of
  them (ICC) or ``ceil((n+f+1)/2)`` (Banyan, Algorithm 2 line 45) make the
  block *notarized*.
* **Fast vote** — broadcast for the *first* block a replica notarization-votes
  for in a round (Definition 6.2 / Addition 3); ``n - p`` fast votes for a
  rank-0 block FP-finalize it, and fast votes also drive the *unlock*
  conditions of Definition 7.6.
* **Finalization vote** — sent when a replica notarization-voted for no other
  block in the round (Algorithm 2 line 51); a quorum of them SP-finalizes the
  block.

The baseline protocols reuse the same vote objects where applicable (e.g.
HotStuff votes are modelled as notarization votes).

**Voter sets** are ``int`` bitmasks — replica ids are dense ``0..n-1``, so
bit ``i`` stands for replica ``i``: a merge is ``|``, "adds nothing new" is
``new & ~have == 0``, a size is ``int.bit_count()``, and none allocates a
set.  :func:`voter_mask` / :func:`mask_voters` convert at the boundary.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List

from repro.types.blocks import BlockId


def voter_mask(voters: Iterable[int]) -> int:
    """The bitmask of a collection of (non-negative) replica ids."""
    mask = 0
    for voter in voters:
        mask |= 1 << voter
    return mask


def voter_ids(mask: int) -> List[int]:
    """The replica ids whose bits are set in ``mask``, ascending."""
    voters = []
    while mask:
        low = mask & -mask
        voters.append(low.bit_length() - 1)
        mask ^= low
    return voters


def mask_voters(mask: int) -> FrozenSet[int]:
    """The replica ids whose bits are set in ``mask``, as a set."""
    return frozenset(voter_ids(mask))


class VoteKind(enum.Enum):
    """The kind of a vote."""

    NOTARIZATION = "notarization"
    FAST = "fast"
    FINALIZATION = "finalization"


@dataclass(frozen=True, kw_only=True)
class Vote:
    """Base class for all votes.

    Attributes:
        kind: the vote kind.
        round: round number the voted block belongs to.
        block_id: identifier of the voted block.
        voter: replica id casting the vote.
    """

    kind: VoteKind
    round: int
    block_id: BlockId
    voter: int


@dataclass(frozen=True, kw_only=True)
class NotarizationVote(Vote):
    """A notarization vote; ``kind`` is fixed to :attr:`VoteKind.NOTARIZATION`."""

    kind: VoteKind = VoteKind.NOTARIZATION


@dataclass(frozen=True, kw_only=True)
class FastVote(Vote):
    """A fast vote; ``kind`` is fixed to :attr:`VoteKind.FAST`."""

    kind: VoteKind = VoteKind.FAST


@dataclass(frozen=True, kw_only=True)
class FinalizationVote(Vote):
    """A finalization vote; ``kind`` is fixed to :attr:`VoteKind.FINALIZATION`."""

    kind: VoteKind = VoteKind.FINALIZATION


def make_vote(kind: VoteKind, round: int, block_id: BlockId, voter: int) -> Vote:
    """Construct the concrete vote subclass for ``kind``."""
    if kind is VoteKind.NOTARIZATION:
        return NotarizationVote(round=round, block_id=block_id, voter=voter)
    if kind is VoteKind.FAST:
        return FastVote(round=round, block_id=block_id, voter=voter)
    if kind is VoteKind.FINALIZATION:
        return FinalizationVote(round=round, block_id=block_id, voter=voter)
    raise ValueError(f"unknown vote kind: {kind!r}")
