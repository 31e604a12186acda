"""The per-replica block tree.

The block tree is the central data structure of ICC/Banyan: a tree of blocks
rooted at genesis, to which one or more notarized blocks are added per round
(= tree height).  Each replica has a partial view; blocks can arrive out of
order (a child before its parent), so the tree tolerates "orphan" insertions
and resolves parents lazily.

Status flags tracked per block:

* ``notarized`` — a notarization certificate is known;
* ``unlocked`` — the block satisfies Definition 7.6 (safe to extend);
* ``finalized`` — explicitly or implicitly finalized.

A replica that never revisits a round releases its blocks
(:meth:`BlockTree.release_round`), so the tree holds a window of rounds, not
the chain.  A released finalized block leaves only its id in the notarized
and finalized sets, so status queries about the committed output stay true.
"""

from __future__ import annotations

from typing import Container, Dict, List, Optional, Set

from repro.types.blocks import Block, BlockId, genesis_block


class BlockTreeError(Exception):
    """Raised on structurally invalid block-tree operations."""


class BlockTree:
    """Stores the blocks a replica has received, indexed by id and round.

    The genesis block is inserted automatically and starts out notarized,
    unlocked, and finalized (base case of the deadlock-freeness induction,
    Theorem 8.2).
    """

    def __init__(self) -> None:
        genesis = genesis_block()
        self._blocks: Dict[BlockId, Block] = {genesis.id: genesis}
        self._by_round: Dict[int, List[BlockId]] = {genesis.round: [genesis.id]}
        self._children: Dict[BlockId, List[BlockId]] = {}
        self._notarized: Set[BlockId] = {genesis.id}
        self._unlocked: Set[BlockId] = {genesis.id}
        self._finalized: Set[BlockId] = {genesis.id}
        self._genesis_id = genesis.id

    # ------------------------------------------------------------------ #
    # Insertion and lookup
    # ------------------------------------------------------------------ #

    @property
    def genesis_id(self) -> BlockId:
        """Block id of the genesis block."""
        return self._genesis_id

    def add_block(self, block: Block) -> bool:
        """Insert ``block`` into the tree.

        Returns ``True`` if the block was new, ``False`` if it was already
        present.  Blocks whose parent has not arrived yet are still stored;
        ancestry queries simply stop at the missing link until it arrives.

        Raises:
            BlockTreeError: if a non-genesis block has no parent id.
        """
        if block.id in self._blocks:
            return False
        if block.parent_id is None and not block.is_genesis():
            raise BlockTreeError("non-genesis block must reference a parent")
        self._blocks[block.id] = block
        self._by_round.setdefault(block.round, []).append(block.id)
        if block.parent_id is not None:
            self._children.setdefault(block.parent_id, []).append(block.id)
        return True

    def __contains__(self, block_id: BlockId) -> bool:
        return block_id in self._blocks

    def get(self, block_id: BlockId) -> Optional[Block]:
        """Return the block with ``block_id`` or ``None`` if unknown."""
        return self._blocks.get(block_id)

    def block(self, block_id: BlockId) -> Block:
        """Return the block with ``block_id``.

        Raises:
            KeyError: if the block is unknown.
        """
        return self._blocks[block_id]

    def blocks_at_round(self, round: int) -> List[Block]:
        """Return all known blocks at ``round`` (insertion order)."""
        return [self._blocks[bid] for bid in self._by_round.get(round, [])]

    def children(self, block_id: BlockId) -> List[Block]:
        """Return the known children of ``block_id``."""
        return [self._blocks[bid] for bid in self._children.get(block_id, [])]

    def height(self) -> int:
        """Return the maximum round for which a block is known."""
        return max(self._by_round)

    def __len__(self) -> int:
        return len(self._blocks)

    def release_round(self, round: int) -> None:
        """Forget the blocks of ``round``: each block, its round index entry,
        its children entry and its unlocked flag.  A finalized block keeps
        its id in the notarized and finalized sets (one string per committed
        block, not the block); any other block leaves no trace."""
        for block_id in self._by_round.pop(round, ()):
            del self._blocks[block_id]
            self._children.pop(block_id, None)
            self._unlocked.discard(block_id)
            if block_id not in self._finalized:
                self._notarized.discard(block_id)

    # ------------------------------------------------------------------ #
    # Status flags
    # ------------------------------------------------------------------ #

    def mark_notarized(self, block_id: BlockId) -> None:
        """Mark ``block_id`` as notarized."""
        self._require_known(block_id)
        self._notarized.add(block_id)

    def mark_unlocked(self, block_id: BlockId) -> None:
        """Mark ``block_id`` as unlocked (Definition 7.6)."""
        self._require_known(block_id)
        self._unlocked.add(block_id)

    def mark_finalized(self, block_id: BlockId) -> None:
        """Mark ``block_id`` as finalized; finalized blocks are also unlocked."""
        self._require_known(block_id)
        self._finalized.add(block_id)
        self._unlocked.add(block_id)

    def is_notarized(self, block_id: BlockId) -> bool:
        """Return whether ``block_id`` is notarized."""
        return block_id in self._notarized

    def is_unlocked(self, block_id: BlockId) -> bool:
        """Return whether ``block_id`` is unlocked."""
        return block_id in self._unlocked

    def is_finalized(self, block_id: BlockId) -> bool:
        """Return whether ``block_id`` is finalized."""
        return block_id in self._finalized

    def notarized_at_round(self, round: int) -> List[Block]:
        """Return the notarized blocks known at ``round``."""
        return [b for b in self.blocks_at_round(round) if self.is_notarized(b.id)]

    def notarized_and_unlocked_at_round(self, round: int) -> List[Block]:
        """Return blocks at ``round`` that are both notarized and unlocked."""
        return [
            b
            for b in self.blocks_at_round(round)
            if self.is_notarized(b.id) and self.is_unlocked(b.id)
        ]

    # ------------------------------------------------------------------ #
    # Ancestry
    # ------------------------------------------------------------------ #

    def parent(self, block_id: BlockId) -> Optional[Block]:
        """Return the parent block, or ``None`` if unknown or genesis."""
        block = self._blocks.get(block_id)
        if block is None or block.parent_id is None:
            return None
        return self._blocks.get(block.parent_id)

    def ancestors(self, block_id: BlockId, include_self: bool = False) -> List[Block]:
        """Return the ancestors of ``block_id`` from parent up to genesis.

        The walk stops early if a parent has not been received yet.
        """
        result: List[Block] = []
        block = self._blocks.get(block_id)
        if block is None:
            return result
        if include_self:
            result.append(block)
        current = block
        while current.parent_id is not None:
            parent = self._blocks.get(current.parent_id)
            if parent is None:
                break
            result.append(parent)
            current = parent
        return result

    def chain_to(self, block_id: BlockId,
                 finalized: Container[BlockId] = ()) -> List[Block]:
        """Return the chain ending at ``block_id`` (inclusive), oldest first.

        ``finalized`` is the set of blocks the caller already holds as
        finalized (a :class:`repro.blocktree.chain.FinalizedChain` will do):
        the walk stops below the first of them, so only the suffix above it
        is returned and a finalization costs its own segment, not the
        height.  Without it the chain starts at genesis.

        Raises:
            BlockTreeError: if the block, or an ancestor the walk needs, has
                not arrived.
        """
        path: List[Block] = []
        current_id: Optional[BlockId] = block_id
        while current_id is not None and current_id not in finalized:
            block = self._blocks.get(current_id)
            if block is None:
                if not path:
                    raise BlockTreeError(f"unknown block {block_id[:8]}")
                raise BlockTreeError(f"chain to {block_id[:8]} is missing ancestors")
            path.append(block)
            current_id = block.parent_id
        path.reverse()
        return path

    def is_ancestor(self, ancestor_id: BlockId, descendant_id: BlockId) -> bool:
        """Return whether ``ancestor_id`` lies on the path genesis → descendant.

        A block's round exceeds its parent's on every chain a protocol
        builds, so the walk stops at the candidate's round, not at genesis.
        """
        ancestor = self._blocks.get(ancestor_id)
        current = self._blocks.get(descendant_id)
        if ancestor is None:
            return ancestor_id == descendant_id
        while current is not None and current.round > ancestor.round:
            current = self._blocks.get(current.parent_id)
        return current is not None and current.id == ancestor_id

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #

    def _require_known(self, block_id: BlockId) -> None:
        if block_id not in self._blocks:
            raise BlockTreeError(f"block {block_id[:8]} not in tree")
