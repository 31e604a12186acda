"""Unit tests for the block tree and the finalized chain."""

from __future__ import annotations

import pytest

from repro.blocktree.chain import ChainConsistencyError, FinalizedChain
from repro.blocktree.tree import BlockTree, BlockTreeError
from repro.types.blocks import Block, genesis_block


def _block(round, proposer=0, rank=0, parent=None, payload=b""):
    parent_id = parent.id if isinstance(parent, Block) else parent
    return Block(round=round, proposer=proposer, rank=rank, parent_id=parent_id, payload=payload)


def _chain_blocks(length):
    """A linear chain of ``length`` blocks on top of genesis."""
    blocks = []
    parent = genesis_block()
    for round in range(1, length + 1):
        block = _block(round, proposer=round % 3, parent=parent)
        blocks.append(block)
        parent = block
    return blocks


class TestBlockTree:
    def test_genesis_is_present_and_final(self):
        tree = BlockTree()
        genesis = genesis_block()
        assert genesis.id in tree
        assert tree.is_notarized(genesis.id)
        assert tree.is_unlocked(genesis.id)
        assert tree.is_finalized(genesis.id)

    def test_add_block_returns_true_once(self):
        tree = BlockTree()
        block = _block(1, parent=genesis_block())
        assert tree.add_block(block)
        assert not tree.add_block(block)

    def test_non_genesis_without_parent_rejected(self):
        tree = BlockTree()
        with pytest.raises(BlockTreeError):
            tree.add_block(Block(round=3, proposer=0, rank=0, parent_id=None))

    def test_blocks_at_round(self):
        tree = BlockTree()
        a = _block(1, proposer=0, parent=genesis_block())
        b = _block(1, proposer=1, rank=1, parent=genesis_block())
        tree.add_block(a)
        tree.add_block(b)
        assert {blk.id for blk in tree.blocks_at_round(1)} == {a.id, b.id}

    def test_children(self):
        tree = BlockTree()
        a = _block(1, parent=genesis_block())
        b = _block(2, parent=a)
        tree.add_block(a)
        tree.add_block(b)
        assert [child.id for child in tree.children(a.id)] == [b.id]

    def test_orphan_block_can_be_inserted(self):
        tree = BlockTree()
        a = _block(1, parent=genesis_block())
        b = _block(2, parent=a)
        tree.add_block(b)  # parent not yet inserted
        assert b.id in tree
        assert tree.parent(b.id) is None
        tree.add_block(a)
        assert tree.parent(b.id).id == a.id

    def test_status_flags_are_independent_until_finalized(self):
        tree = BlockTree()
        block = _block(1, parent=genesis_block())
        tree.add_block(block)
        assert not tree.is_notarized(block.id)
        tree.mark_notarized(block.id)
        assert tree.is_notarized(block.id)
        assert not tree.is_unlocked(block.id)
        tree.mark_unlocked(block.id)
        assert tree.is_unlocked(block.id)
        assert not tree.is_finalized(block.id)

    def test_finalized_implies_unlocked(self):
        tree = BlockTree()
        block = _block(1, parent=genesis_block())
        tree.add_block(block)
        tree.mark_finalized(block.id)
        assert tree.is_unlocked(block.id)

    def test_marking_unknown_block_raises(self):
        tree = BlockTree()
        with pytest.raises(BlockTreeError):
            tree.mark_notarized("missing")

    def test_notarized_and_unlocked_filters(self):
        tree = BlockTree()
        a = _block(1, proposer=0, parent=genesis_block())
        b = _block(1, proposer=1, rank=1, parent=genesis_block())
        tree.add_block(a)
        tree.add_block(b)
        tree.mark_notarized(a.id)
        tree.mark_notarized(b.id)
        tree.mark_unlocked(a.id)
        assert [blk.id for blk in tree.notarized_at_round(1)] == [a.id, b.id]
        assert [blk.id for blk in tree.notarized_and_unlocked_at_round(1)] == [a.id]

    def test_ancestors_and_chain_to(self):
        tree = BlockTree()
        blocks = _chain_blocks(4)
        for block in blocks:
            tree.add_block(block)
        ancestors = tree.ancestors(blocks[-1].id)
        assert [b.round for b in ancestors] == [3, 2, 1, 0]
        path = tree.chain_to(blocks[-1].id)
        assert [b.round for b in path] == [0, 1, 2, 3, 4]

    def test_chain_to_unknown_block_raises(self):
        tree = BlockTree()
        with pytest.raises(BlockTreeError):
            tree.chain_to("missing")

    def test_chain_to_with_missing_ancestor_raises(self):
        tree = BlockTree()
        blocks = _chain_blocks(3)
        tree.add_block(blocks[1])
        tree.add_block(blocks[2])
        with pytest.raises(BlockTreeError):
            tree.chain_to(blocks[2].id)

    def test_chain_to_returns_only_the_suffix_above_what_is_finalized(self):
        tree = BlockTree()
        blocks = _chain_blocks(6)
        for block in blocks:
            tree.add_block(block)
        finalized = {genesis_block().id, blocks[0].id, blocks[1].id, blocks[2].id}
        assert tree.chain_to(blocks[5].id, finalized) == blocks[3:]
        assert tree.chain_to(blocks[2].id, finalized) == []
        # A FinalizedChain is such a set.
        chain = FinalizedChain()
        chain.append_segment(blocks[:4])
        assert tree.chain_to(blocks[5].id, chain) == blocks[4:]
        # A fork is returned from where it leaves the finalized blocks.
        fork = _block(5, proposer=2, rank=1, parent=blocks[1])
        tree.add_block(fork)
        assert tree.chain_to(fork.id, finalized) == [fork]

    def test_chain_to_stops_at_the_finalized_blocks_not_at_genesis(self):
        """The walk behind a finalization is as long as its segment: a gap
        below the finalized height is neither visited nor an error, one
        above it still is."""
        blocks = _chain_blocks(6)
        tree = BlockTree()
        for block in blocks[2:]:              # rounds 1 and 2 never arrived
            tree.add_block(block)
        assert tree.chain_to(blocks[5].id, {blocks[2].id}) == blocks[3:]
        with pytest.raises(BlockTreeError, match="missing ancestors"):
            tree.chain_to(blocks[5].id, {blocks[0].id})

    def test_is_ancestor_walks_no_further_than_the_candidates_round(self):
        blocks = _chain_blocks(50)
        tree = BlockTree()
        for block in blocks:
            tree.add_block(block)
        lookups = []

        class Counting(dict):
            def get(self, key, default=None):
                lookups.append(key)
                return super().get(key, default)

        tree._blocks = Counting(tree._blocks)
        assert tree.is_ancestor(blocks[46].id, blocks[49].id)
        assert len(lookups) <= 6               # not the 50 a walk to genesis takes
        fork = _block(48, proposer=2, rank=1, parent=blocks[45])
        tree.add_block(fork)
        assert not tree.is_ancestor(blocks[46].id, fork.id)
        assert not tree.is_ancestor("unknown", blocks[49].id)
        assert tree.is_ancestor("unknown", "unknown")

    def test_is_ancestor(self):
        tree = BlockTree()
        blocks = _chain_blocks(3)
        for block in blocks:
            tree.add_block(block)
        fork = _block(2, proposer=2, rank=1, parent=blocks[0])
        tree.add_block(fork)
        assert tree.is_ancestor(blocks[0].id, blocks[2].id)
        assert tree.is_ancestor(blocks[2].id, blocks[2].id)
        assert not tree.is_ancestor(blocks[1].id, fork.id)

    def test_height_tracks_max_round(self):
        tree = BlockTree()
        assert tree.height() == 0
        for block in _chain_blocks(5):
            tree.add_block(block)
        assert tree.height() == 5

    def test_len_counts_blocks(self):
        tree = BlockTree()
        for block in _chain_blocks(3):
            tree.add_block(block)
        assert len(tree) == 4  # genesis + 3

    def test_released_round_keeps_nothing(self):
        tree = BlockTree()
        kept, dropped = _block(1, parent=genesis_block()), _block(1, 1, 1, genesis_block())
        child = _block(2, parent=kept)
        for block in (kept, dropped, child):
            tree.add_block(block)
            tree.mark_notarized(block.id)
            tree.mark_unlocked(block.id)
        tree.mark_finalized(kept.id)
        tree.release_round(1)
        assert kept.id not in tree and dropped.id not in tree
        assert tree.blocks_at_round(1) == [] and tree.children(kept.id) == []
        # Finalized or not, a released block leaves no status behind.
        for block in (kept, dropped):
            assert not tree.is_notarized(block.id)
            assert not tree.is_unlocked(block.id)
            assert not tree.is_finalized(block.id)
        assert {genesis_block().id, child.id} == tree._notarized == tree._unlocked
        assert tree._finalized == {genesis_block().id}
        # The next round still stands; its walk stops at the released parent.
        assert child.id in tree and tree.parent(child.id) is None
        assert tree.chain_to(child.id, {kept.id}) == [child]


class TestFinalizedChain:
    def test_starts_with_genesis(self):
        chain = FinalizedChain()
        assert len(chain) == 1
        assert chain.head.is_genesis()
        assert chain.height == 0

    def test_append_segment(self):
        chain = FinalizedChain()
        blocks = _chain_blocks(3)
        appended = chain.append_segment(blocks)
        assert [b.round for b in appended] == [1, 2, 3]
        assert chain.head.id == blocks[-1].id
        assert chain.height == 3

    def test_append_skips_already_present_blocks(self):
        chain = FinalizedChain()
        blocks = _chain_blocks(3)
        chain.append_segment(blocks[:2])
        appended = chain.append_segment(blocks)  # full path again
        assert [b.round for b in appended] == [3]

    def test_append_rejects_non_extending_block(self):
        chain = FinalizedChain()
        blocks = _chain_blocks(2)
        chain.append_segment(blocks)
        stranger = _block(3, proposer=5, parent="not-the-head")
        with pytest.raises(ChainConsistencyError):
            chain.append_segment([stranger])

    def test_append_rejects_non_increasing_round(self):
        chain = FinalizedChain()
        blocks = _chain_blocks(2)
        chain.append_segment(blocks)
        bad = Block(round=2, proposer=9, rank=0, parent_id=chain.head.id)
        with pytest.raises(ChainConsistencyError):
            chain.append_segment([bad])

    def test_prefix_and_consistency(self):
        blocks = _chain_blocks(4)
        short = FinalizedChain()
        short.append_segment(blocks[:2])
        long = FinalizedChain()
        long.append_segment(blocks)
        assert short.prefix_of(long)
        assert not long.prefix_of(short)
        assert short.consistent_with(long)
        assert long.consistent_with(short)

    def test_inconsistent_chains_detected(self):
        blocks = _chain_blocks(2)
        chain_a = FinalizedChain()
        chain_a.append_segment(blocks)
        fork = _block(1, proposer=3, rank=1, parent=genesis_block())
        chain_b = FinalizedChain()
        chain_b.append_segment([fork])
        assert not chain_a.consistent_with(chain_b)
        assert chain_a.common_prefix_length(chain_b) == 1  # genesis only

    def test_contains(self):
        chain = FinalizedChain()
        blocks = _chain_blocks(2)
        chain.append_segment(blocks)
        assert blocks[0].id in chain
        assert "missing" not in chain

    def test_release_below_keeps_the_head(self):
        chain = FinalizedChain()
        blocks = _chain_blocks(4)
        chain.append_segment(blocks)
        chain.release_below(3)
        assert [b.round for b in chain] == [3, 4]
        assert blocks[1].id not in chain and blocks[2].id in chain
        chain.release_below(10)
        assert [b.round for b in chain] == [4] and chain.head.id == blocks[-1].id
        successor = _block(5, parent=blocks[-1])
        assert chain.append_segment([successor]) == [successor]

    def test_block_at_and_iteration(self):
        chain = FinalizedChain()
        blocks = _chain_blocks(3)
        chain.append_segment(blocks)
        assert chain.block_at(0).is_genesis()
        assert [b.round for b in chain] == [0, 1, 2, 3]
        assert chain.last_finalized_round() == 3
