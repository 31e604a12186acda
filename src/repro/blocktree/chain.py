"""The finalized chain: a replica's totally ordered output.

Once a block is explicitly finalized (via the slow or the fast path), it and
all of its not-yet-finalized ancestors are appended to the finalized chain
(Algorithm 2 line 59: "output payloads of the last ``k - kMax`` blocks in the
chain ending at ``b``").  The chain checks the consistency properties the
safety proof relies on: heights strictly increase along the chain and each
appended segment extends the previous chain head.

The chain is the replica's view of its output, not the output itself: the
output is the commit stream, and a replica that never revisits a round
releases the blocks below it (:meth:`FinalizedChain.release_below`), keeping
the head that every later segment must extend.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.types.blocks import Block, BlockId, genesis_block


class ChainConsistencyError(Exception):
    """Raised when an append would violate chain consistency."""


class FinalizedChain:
    """Ordered list of the finalized blocks still held, oldest first.

    It starts at genesis; :meth:`release_below` drops a prefix.  Positions,
    lengths and the prefix comparisons refer to the blocks held.
    """

    def __init__(self) -> None:
        self._blocks: List[Block] = [genesis_block()]
        self._ids = {self._blocks[0].id}

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self):
        return iter(self._blocks)

    def __contains__(self, block_id: BlockId) -> bool:
        return block_id in self._ids

    @property
    def head(self) -> Block:
        """The most recently finalized block."""
        return self._blocks[-1]

    @property
    def height(self) -> int:
        """Round number of the chain head."""
        return self._blocks[-1].round

    def blocks(self) -> List[Block]:
        """Return a copy of the held chain, oldest first."""
        return list(self._blocks)

    def block_at(self, index: int) -> Block:
        """Return the block at held position ``index`` (0 = the oldest held,
        genesis until a release)."""
        return self._blocks[index]

    def append_segment(self, segment: Iterable[Block]) -> List[Block]:
        """Append a finalized segment (oldest first) extending the head.

        Blocks already held are skipped, so callers may pass a path that
        overlaps the held chain.  Returns the blocks actually appended.

        Raises:
            ChainConsistencyError: if the segment does not extend the current
                head or heights do not strictly increase.
        """
        appended: List[Block] = []
        for block in segment:
            if block.id in self._ids:
                continue
            head = self._blocks[-1]
            if block.parent_id != head.id:
                raise ChainConsistencyError(
                    f"block at round {block.round} does not extend chain head "
                    f"(round {head.round})"
                )
            if block.round <= head.round:
                raise ChainConsistencyError(
                    f"non-increasing round {block.round} after {head.round}"
                )
            self._blocks.append(block)
            self._ids.add(block.id)
            appended.append(block)
        return appended

    def release_below(self, round: int) -> None:
        """Drop the blocks of rounds below ``round``, always keeping the head."""
        blocks = self._blocks
        count = 0
        while count < len(blocks) - 1 and blocks[count].round < round:
            self._ids.discard(blocks[count].id)
            count += 1
        del blocks[:count]

    def prefix_of(self, other: "FinalizedChain") -> bool:
        """Return whether this chain is a prefix of ``other`` (or equal)."""
        if len(self) > len(other):
            return False
        return all(mine.id == theirs.id for mine, theirs in zip(self._blocks, other._blocks))

    def common_prefix_length(self, other: "FinalizedChain") -> int:
        """Return the length of the longest common prefix with ``other``."""
        length = 0
        for mine, theirs in zip(self._blocks, other._blocks):
            if mine.id != theirs.id:
                break
            length += 1
        return length

    def consistent_with(self, other: "FinalizedChain") -> bool:
        """Return whether one of the two chains is a prefix of the other.

        This is the safety property SMR requires of honest replicas.
        """
        return self.prefix_of(other) or other.prefix_of(self)

    def last_finalized_round(self) -> int:
        """Round of the newest finalized block (0 for a fresh chain)."""
        return self._blocks[-1].round
