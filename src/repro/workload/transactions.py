"""Client transactions: identity, wire encoding, and lifecycle tracking.

A client transaction is an opaque byte string from the protocols' point of
view — it travels in a block payload and out of the commit stream.  The
workload layer needs to recognise its own transactions on the way out, so
each one is encoded with a small self-describing header
(``tx:<tx_id>:<client_id>:``) padded to the configured logical size.  Inside
the :class:`repro.workload.clients.ClientPool` a pending transaction is only
its integer id, and a proposal's payload is a :class:`TxBatch` of ids that
renders the concatenated transactions (:func:`encode_batch`, joined) only
when ``bytes()`` asks for them — in the simulator, once, while the block id
is hashed.  :func:`split_transactions` recovers every ``(tx_id, client_id)``
pair from a payload of concatenated transactions (the TCP cluster's blocks,
or a rendered batch).

:class:`TxRecord` is the per-transaction view of the submission-side
bookkeeping — when it was submitted, which replica it was routed to, and
when (if ever) it was first observed committed.  The
:class:`repro.workload.clients.ClientPool` stores these as columns and
materialises records on demand.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

_HEADER_PREFIX = b"tx:"
_HEADER = _HEADER_PREFIX + b"%d:%d:"  # % (tx_id, client_id)
_PAD_BYTE = b"\x00"

#: Upper bound on the encoded size of any transaction with a tiny logical
#: size: prefix + two decimal ids (< 2**63 each, 19 digits) + separators.
#: ``len(encode_transaction(...)) <= max(size, MAX_HEADER_BYTES)`` always
#: holds, which is what block-budget validation must bound against.
MAX_HEADER_BYTES = len(_HEADER_PREFIX) + 19 + 1 + 19 + 1


def encode_transaction(tx_id: int, client_id: int, size: int) -> bytes:
    """Encode a transaction as self-identifying bytes of ``size`` bytes.

    The header carries the transaction and client ids; the rest is zero
    padding up to the logical size.  If ``size`` is smaller than the header,
    the header alone is returned (the transaction is then slightly larger
    than requested — ids must survive the trip through a block payload).
    """
    return (_HEADER % (tx_id, client_id)).ljust(size, _PAD_BYTE)


def encode_batch(tx_ids: Iterable[int], client_ids: Iterable[int],
                 size: int) -> List[bytes]:
    """:func:`encode_transaction` of each ``(tx_id, client_id)`` pair, in
    one pass over the two parallel sequences."""
    header, pad = _HEADER, _PAD_BYTE
    return [(header % ids).ljust(size, pad) for ids in zip(tx_ids, client_ids)]


class TxBatch:
    """A block payload of client transactions, held as their ids.

    ``bytes(batch)`` renders exactly the payload the transactions'
    encodings concatenate to, ``b"".join(encode_batch(tx_ids, client_ids,
    tx_size))``, and ``len(batch)`` is its length; nothing keeps the
    rendered bytes.  :func:`repro.crypto.hashing.canonical_encode` encodes a
    batch as those bytes, so a block carrying a batch has the id it would
    have carrying the bytes.

    Equality and hashing are by identity (the ``object`` defaults): a batch
    is one proposal's payload, and comparing contents would render them.

    Args:
        tx_ids: the transaction ids, in payload order.
        client_ids: each transaction's client id, aligned with ``tx_ids``.
        tx_size: the logical size each transaction is padded to.
        nbytes: the rendered length, if the caller knows it (the pool sums
            its size column); computed by rendering once when omitted.
    """

    __slots__ = ("tx_ids", "client_ids", "tx_size", "nbytes")

    def __init__(self, tx_ids: Iterable[int], client_ids: Iterable[int],
                 tx_size: int, nbytes: Optional[int] = None) -> None:
        self.tx_ids = array("q", tx_ids)
        self.client_ids = array("I", client_ids)
        self.tx_size = tx_size
        self.nbytes = len(bytes(self)) if nbytes is None else nbytes

    def __bytes__(self) -> bytes:
        return b"".join(encode_batch(self.tx_ids, self.client_ids, self.tx_size))

    def __len__(self) -> int:
        return self.nbytes


def decode_tx_id(data: bytes) -> Optional[int]:
    """Return the transaction id encoded in ``data``, or ``None``.

    Tolerates arbitrary payload bytes (the synthetic bit-vector workload and
    the ledger examples share the same pipeline), returning ``None`` for
    anything that is not a workload transaction.
    """
    if not data.startswith(_HEADER_PREFIX):
        return None
    parts = data.split(b":", 2)
    if len(parts) < 3:
        return None
    try:
        return int(parts[1])
    except ValueError:
        return None


def split_transactions(payload: bytes) -> List[Tuple[int, int]]:
    """Recover ``(tx_id, client_id)`` pairs from a committed payload.

    Payloads are concatenations of :func:`encode_transaction` outputs (the
    TCP cluster's blocks); non-workload payloads (synthetic tags, empty
    blocks) yield ``[]``.
    """
    pairs: List[Tuple[int, int]] = []
    for chunk in payload.split(_HEADER_PREFIX)[1:]:
        parts = chunk.split(b":", 2)
        if len(parts) < 3:
            continue
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            continue
    return pairs


@dataclass
class TxRecord:
    """Lifecycle record of one submitted transaction.

    Attributes:
        tx_id: globally unique transaction id (assigned by the pool).
        client_id: the submitting client.
        replica_id: the replica whose mempool received the transaction.
        size: encoded size in bytes.
        submit_time: simulation time of submission.
        commit_time: simulation time of the first observed commit of a block
            containing the transaction (``None`` while pending).
        dropped: whether the submission was rejected by mempool
            backpressure (such a transaction never commits).
    """

    tx_id: int
    client_id: int
    replica_id: int
    size: int
    submit_time: float
    commit_time: Optional[float] = None
    dropped: bool = False

    @property
    def latency(self) -> Optional[float]:
        """Submit→commit latency in seconds (``None`` while pending)."""
        if self.commit_time is None:
            return None
        return self.commit_time - self.submit_time
