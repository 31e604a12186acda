"""Blocks and block identifiers.

A block (Algorithm 1, line 25) is ``(k, u, hash(b_p), payload, signature_u)``:
the round number, the proposer, the hash of the extended parent block, the
payload, and the proposer's signature.  We additionally carry the proposer's
rank in the round (derived from the beacon permutation) because several
protocol rules — the fast path in particular — treat rank-0 blocks specially.

Payloads are opaque byte strings, or values that render one on demand
(``bytes(payload)``, e.g. a client workload's
:class:`repro.workload.transactions.TxBatch`), which hash exactly as the bytes
they render; their size drives the bandwidth component of the network model
used in the evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Optional, SupportsBytes, Union

from repro.crypto.hashing import hash_hex

#: Hex digest string uniquely identifying a block.
BlockId = str

#: Conventional identifier used as the genesis block's proposer.
GENESIS_PROPOSER = -1

#: Round number of the genesis block.
GENESIS_ROUND = 0


@dataclass(frozen=True)
class Block:
    """A proposed block in the block-tree.

    Attributes:
        round: the round (block-tree height) the block belongs to.
        proposer: replica id of the proposer.
        rank: the proposer's rank in this round's leader permutation
            (0 = leader).  The genesis block has rank 0 by convention.
        parent_id: block id of the parent this block extends (``None`` only
            for genesis).
        payload: opaque transaction payload bytes, or an object rendering
            them through ``bytes(payload)`` (the simulator's client batches:
            the block id is the same either way, and no block holds the
            batch's rendered bytes).
        payload_size: logical payload size in bytes used by the bandwidth
            model.  For synthetic workloads the actual ``payload`` bytes may
            be a short placeholder while ``payload_size`` carries the size the
            experiment sweeps over; when left at ``None`` it defaults to
            ``len(payload)``.
    """

    round: int
    proposer: int
    rank: int
    parent_id: Optional[BlockId]
    payload: Union[bytes, SupportsBytes] = b""
    payload_size: Optional[int] = None

    @property
    def size(self) -> int:
        """Logical size of the block payload in bytes."""
        return self.payload_size if self.payload_size is not None else len(self.payload)

    @cached_property
    def id(self) -> BlockId:
        """The block identifier (hash of the block contents).

        Memoised on the instance: the fields are frozen, and the memo sits
        in ``__dict__`` outside ``==`` / ``hash`` / ``repr``, so
        distinct-but-equal blocks stay equal by value and report equal ids.
        """
        return _content_id((self.round, self.proposer, self.rank,
                            self.parent_id, self.payload, self.payload_size))

    def is_genesis(self) -> bool:
        """Return whether this is the genesis block."""
        return self.parent_id is None and self.round == GENESIS_ROUND

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Block(round={self.round}, proposer={self.proposer}, rank={self.rank}, "
            f"id={self.id[:8]}, parent={(self.parent_id or 'None')[:8]}, size={self.size})"
        )


@lru_cache(maxsize=256)
def _content_id(contents: tuple) -> BlockId:
    """Hash of a block's field tuple, shared across equal instances.

    The simulator hands every replica the *same* ``Block``, so its memo
    makes this a once-per-block call; the cluster decodes a fresh instance
    per received copy, and this cache keeps those from re-hashing the
    payload.  Bounded — the keys hold the payload (the cluster's bytes; in
    a simulated client workload a batch of ids, not its rendered bytes),
    and only blocks still in flight need to hit.
    """
    return hash_hex(contents)


_GENESIS = Block(
    round=GENESIS_ROUND,
    proposer=GENESIS_PROPOSER,
    rank=0,
    parent_id=None,
    payload=b"genesis",
)


def genesis_block() -> Block:
    """Return the canonical genesis block shared by all replicas."""
    return _GENESIS
