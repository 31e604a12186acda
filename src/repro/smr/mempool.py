"""Payload sources and the mempool.

The paper's evaluation controls load by varying the size of the payload, "a
bit vector randomly generated by the leader" (Section 9.2).
:class:`PayloadSource` reproduces that workload: each proposal gets a payload
of a configured logical size.  To keep the simulator memory-light, the bytes
stored in a block are a short tag while the logical size (which drives the
bandwidth model) is carried in ``Block.payload_size``.  Runs that order real
transactions wire in their own source instead: client workloads use
:class:`repro.workload.payloads.MempoolPayloadSource`, and the key-value
example drains a :class:`Mempool` through a subclass.

:class:`Mempool` is a small FIFO transaction pool used by the examples to
feed client transactions into proposals.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterable, List, Optional, Tuple


class PayloadSource:
    """Produces per-proposal payloads of a configured logical size.

    Args:
        payload_size: logical payload size in bytes attached to each block;
            callers pass :attr:`repro.protocols.base.ProtocolParams.payload_size`,
            which ``ProtocolParams`` range-checks.
    """

    def __init__(self, payload_size: int = 0) -> None:
        self.payload_size = payload_size

    def payload_for(self, round: int, proposer: int) -> Tuple[bytes, int]:
        """Return ``(payload_bytes, logical_size)`` for a proposal.

        The bytes are unique per (round, proposer) so two different proposals
        never hash to the same block id.
        """
        return f"payload:r{round}:p{proposer}".encode("utf-8"), self.payload_size


class Mempool:
    """A FIFO pool of pending transactions.

    Transactions are opaque byte strings.  ``take(max_bytes)`` pops as many
    transactions as fit in a proposal of the given size budget.

    The pool maintains its total byte count incrementally on ``add`` /
    ``take`` / ``clear`` so capacity and backpressure checks
    (:attr:`total_bytes`) are O(1) rather than a scan of the deque.

    Args:
        max_size: maximum number of pending transactions.
        max_bytes: optional maximum total pending bytes; ``add`` rejects
            transactions that would exceed it (backpressure).
    """

    def __init__(self, max_size: int = 100_000, max_bytes: Optional[int] = None) -> None:
        if max_size <= 0:
            raise ValueError("max_size must be positive")
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive")
        self._queue: Deque[bytes] = deque()
        self._max_size = max_size
        self._max_bytes = max_bytes
        self._total_bytes = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def total_bytes(self) -> int:
        """Total size in bytes of all pending transactions (O(1))."""
        return self._total_bytes

    @property
    def capacity(self) -> int:
        """Maximum number of pending transactions."""
        return self._max_size

    def add(self, transaction: bytes) -> bool:
        """Add a transaction; returns ``False`` if the pool is full."""
        if len(self._queue) >= self._max_size:
            return False
        data = bytes(transaction)
        if self._max_bytes is not None and self._total_bytes + len(data) > self._max_bytes:
            return False
        self._queue.append(data)
        self._total_bytes += len(data)
        return True

    def take(self, max_bytes: int) -> List[bytes]:
        """Pop transactions whose total size fits within ``max_bytes``."""
        return self.drain_batch(max_bytes)[0]

    def drain_batch(self, max_bytes: int,
                    max_count: Optional[int] = None) -> Tuple[List[bytes], int]:
        """Pop a whole proposal's worth of transactions in one call.

        Returns ``(transactions, total_bytes)``: as many whole transactions
        as fit in ``max_bytes`` (and, if given, at most ``max_count`` of
        them), FIFO, with their summed size — so proposal building pays one
        method call per block instead of one per transaction plus a re-scan
        to size the payload.  An oversized head-of-queue transaction (alone
        above ``max_bytes``) is left in place, exactly like :meth:`take`.
        """
        queue = self._queue
        taken: List[bytes] = []
        append = taken.append
        popleft = queue.popleft
        total = 0
        while queue:
            if max_count is not None and len(taken) >= max_count:
                break
            candidate = queue[0]
            if total + len(candidate) > max_bytes and (taken or len(candidate) > max_bytes):
                break
            popleft()
            append(candidate)
            total += len(candidate)
        self._total_bytes -= total
        return taken, total

    def requeue(self, transactions: Iterable[bytes]) -> None:
        """Push transactions back to the *front* of the queue, in order.

        Used to return transactions that were drained into a proposal that
        never committed.  Capacity limits are bypassed: the transactions
        were already accepted once and dropping them here would lose them.
        """
        for transaction in reversed([bytes(t) for t in transactions]):
            self._queue.appendleft(transaction)
            self._total_bytes += len(transaction)

    def peek(self, count: int = 1) -> List[bytes]:
        """Return up to ``count`` transactions without removing them."""
        return [self._queue[i] for i in range(min(count, len(self._queue)))]

    def clear(self) -> None:
        """Drop all pending transactions."""
        self._queue.clear()
        self._total_bytes = 0
