"""A payload source that builds proposals from real pending transactions.

The seed reproduction fills proposals with the paper's synthetic workload —
"a bit vector randomly generated by the leader" of a fixed logical size
(:class:`repro.smr.mempool.PayloadSource`).  When a client workload is
attached, proposals should instead carry the transactions actually waiting
in the proposer's mempool.  :class:`MempoolPayloadSource` does exactly that:
it asks the :class:`repro.workload.clients.ClientPool` to pop as many of the
proposer's pending transaction ids as fit the block-size budget into one
payload, a :class:`repro.workload.transactions.TxBatch` that renders the
encoded transactions, concatenated, only when hashed — fixed-size rows with
a numpy digit kernel into a row buffer the hash reads in place; the pool
remembers the batch so commits can be matched back to submissions.

Protocols are untouched: they call the same ``payload_for(round, proposer)``
duck-typed interface regardless of which source is wired in, and the
experiment harness falls back to the synthetic source whenever no workload
is configured.
"""

from __future__ import annotations

from typing import Tuple, Union

from repro.workload.clients import ClientPool
from repro.workload.transactions import TxBatch


class MempoolPayloadSource:
    """Builds block payloads from the proposer's pending transactions.

    Args:
        pool: the client pool owning the per-replica mempools.
        max_block_bytes: byte budget per proposal (the block-size limit).
    """

    def __init__(self, pool: ClientPool, max_block_bytes: int = 65_536) -> None:
        if max_block_bytes <= 0:
            raise ValueError("max_block_bytes must be positive")
        self.pool = pool
        self.max_block_bytes = max_block_bytes

    def payload_for(self, round: int, proposer: int) -> Tuple[Union[TxBatch, bytes], int]:
        """Return ``(payload, logical_size)`` for a proposal.

        An empty mempool yields an empty proposal carrying a unique tag (so
        block ids stay distinct) with logical size 0 — empty blocks are
        cheap to ship, which is exactly how an idle SMR system behaves.
        """
        batch = self.pool.build_payload(proposer, round, self.max_block_bytes)
        if batch is not None:
            return batch
        return f"workload:empty:r{round}:p{proposer}".encode("utf-8"), 0
