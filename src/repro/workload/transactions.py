"""Client transactions: identity, wire encoding, and lifecycle tracking.

A client transaction is an opaque byte string from the protocols' point of
view — it travels in a block payload and out of the commit stream.  The
workload layer needs to recognise its own transactions on the way out, so
each one is encoded with a small self-describing header
(``tx:<tx_id>:<client_id>:``) padded to the configured logical size.  Inside
the :class:`repro.workload.clients.ClientPool` a pending transaction is only
its integer id, and a proposal's payload is a :class:`TxBatch` of ids that
renders the concatenated transactions (:func:`encode_batch`, joined) only
when asked — in the simulator, once, while the block id is hashed.  A batch
of fixed-size rows (``tx_size`` at least :data:`MAX_HEADER_BYTES`, ids
non-negative) renders with numpy, a column of digits at a time, into one
row buffer reused from block to block, and the hash reads that buffer in
place; :func:`encode_batch` stays the specification and renders every other
batch.  numpy is imported on first render, so the TCP cluster, which
imports this module for :func:`encode_transaction`, starts without it.
:func:`split_transactions` recovers every ``(tx_id, client_id)`` pair from
a payload of concatenated transactions (the TCP cluster's blocks, or a
rendered batch).

:class:`TxRecord` is the per-transaction view of the submission-side
bookkeeping — when it was submitted, which replica it was routed to, and
when (if ever) it was first observed committed.  The
:class:`repro.workload.clients.ClientPool` stores these as columns and
materialises records on demand.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List, NamedTuple, Optional, Tuple

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


#: ``10**1 … 10**18``: a non-negative id below ``2**63`` has one decimal
#: digit more than the number of these it reaches.
_POWERS_OF_TEN = [10 ** k for k in range(1, 19)]


def _digit_groups(values):
    """``(digits, rows)`` for each decimal length among ``values`` (a numpy
    array, all non-negative): ``rows`` selects the values of that many
    digits — a slice of all of them when they share one length, as they
    nearly always do within a block."""
    import numpy as np

    shortest, longest = len(str(values.min())), len(str(values.max()))
    if shortest == longest:
        return [(shortest, slice(None))]
    lengths = np.searchsorted(_POWERS_OF_TEN, values, "right") + 1
    groups = [(digits, np.flatnonzero(lengths == digits))
              for digits in range(shortest, longest + 1)]
    return [(digits, rows) for digits, rows in groups if len(rows)]


def _write_field(out, rows, column, digits, values):
    """Write ``values`` (``digits`` decimal digits each) and a ``:`` into
    ``out[rows]``, the digits from ``column`` on, one column at a time
    (a division by the scalar 10 per column; 32-bit when it fits)."""
    import numpy as np

    quotient = values.astype(np.uint32 if digits <= 9 else np.uint64)
    for place in range(column + digits - 1, column - 1, -1):
        tens = quotient // 10
        out[rows, place] = quotient - tens * 10 + 48  # + ord("0")
        quotient = tens
    out[rows, column + digits] = 58  # ord(":")


class _RowBuffer:
    """The rows fixed-size batches render into, reused from block to block.

    One ``(capacity, tx_size)`` ``uint8`` matrix, allocated for the largest
    batch seen (a fresh megabyte per block costs as much in page faults as
    the rendering itself).  Every row starts ``tx:`` and nothing past column
    ``dirty`` — the end of the widest header ever written — is ever
    written, so the padding stays zero.  A render builds the headers in a
    small contiguous matrix and copies it over columns ``3:dirty`` of its
    rows in one pass.  The buffer holds one rendered batch at a time: a view
    of it is valid until the next render.  A batch cannot own it, since
    batches are pickled with the commits that carry them.
    """

    __slots__ = ("rows", "dirty")

    def __init__(self) -> None:
        self.rows = None
        self.dirty = len(_HEADER_PREFIX)

    def render(self, tx_ids: array, client_ids: array, tx_size: int):
        """The encodings of the ``tx_size``-byte rows, concatenated, as a
        memoryview of the buffer; ``None`` if an id is negative."""
        import numpy as np

        ids = np.frombuffer(tx_ids, tx_ids.typecode)
        if ids.min() < 0:
            return None
        clients = np.frombuffer(client_ids, client_ids.typecode)
        count, start = len(ids), len(_HEADER_PREFIX)
        rows = self.rows
        if rows is None or rows.shape[1] != tx_size or len(rows) < count:
            grown = 2 * len(rows) if rows is not None and rows.shape[1] == tx_size else 0
            rows = self.rows = np.zeros((max(count, grown), tx_size), np.uint8)
            rows[:, :start] = np.frombuffer(_HEADER_PREFIX, np.uint8)
            self.dirty = start
        # Each distinct client's field ("<digits>:", zero-padded to the
        # widest) is rendered once into a table and gathered per row; small
        # labels index the table directly.
        top = int(clients.max())
        if top < 2 * count:
            labels, which = np.arange(top + 1), clients
        else:
            labels, which = np.unique(clients, return_inverse=True)
        table = np.zeros((len(labels), 10 + 1), np.uint8)  # a uint32 has <= 10 digits
        width = 0
        for digits, members in _digit_groups(labels):
            _write_field(table, members, 0, digits, labels[members])
            width = max(width, digits + 1)
        fields = table[which.reshape(-1), :width]
        groups = _digit_groups(ids)
        end = start + groups[-1][0] + 1 + width
        head = np.zeros((count, max(end, self.dirty) - start), np.uint8)
        for digits, members in groups:
            _write_field(head, members, 0, digits, ids[members])
            head[members, digits + 1:digits + 1 + width] = fields[members]
        rows[:count, start:start + head.shape[1]] = head
        self.dirty = max(self.dirty, end)
        return memoryview(rows[:count].reshape(-1))


_ROWS = _RowBuffer()


class TxBatch:
    """A block payload of client transactions, held as their ids.

    The payload is exactly what the transactions' encodings concatenate to,
    ``b"".join(encode_batch(tx_ids, client_ids, tx_size))``: ``bytes(batch)``
    renders it and returns a copy, :meth:`view` renders it into the shared
    row buffer, and ``len(batch)`` is its length; nothing keeps the rendered
    bytes.  :func:`repro.crypto.hashing.canonical_encode` encodes a batch as
    those bytes (and :func:`repro.crypto.hashing.hash_hex` reads
    :meth:`view` in place), so a block carrying a batch has the id it would
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
        self.nbytes = len(self.view()) if nbytes is None else nbytes

    def view(self):
        """The rendered payload as a bytes-like object.

        Rows of a fixed size (``tx_size`` at least
        :data:`MAX_HEADER_BYTES`, every id non-negative) come back as a
        memoryview of the shared row buffer, valid only until the next
        batch renders; anything else is :func:`encode_batch`, joined.
        """
        if self.tx_size >= MAX_HEADER_BYTES and self.tx_ids:
            rendered = _ROWS.render(self.tx_ids, self.client_ids, self.tx_size)
            if rendered is not None:
                return rendered
        return b"".join(encode_batch(self.tx_ids, self.client_ids, self.tx_size))

    def __bytes__(self) -> bytes:
        return bytes(self.view())

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


class TxRecord(NamedTuple):
    """Lifecycle record of one submitted transaction (a named tuple, so
    :meth:`repro.workload.clients.ClientPool.records` builds each with one
    ``_make`` over its columns).

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
