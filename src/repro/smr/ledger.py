"""A deterministic replicated state machine: a key-value ledger.

SMR totally orders opaque payloads; what downstream users actually want is a
replicated application.  The examples apply finalized payloads to this simple
key-value store so that end-to-end replication (same state on every replica)
can be demonstrated and asserted in tests.

Transactions are ``SET key value`` / ``DEL key`` operations encoded in a tiny
line-based format (:func:`encode_transactions` / :func:`decode_transactions`)
so they survive the trip through a block payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional


@dataclass(frozen=True)
class Transaction:
    """A key-value operation.

    Attributes:
        op: ``"SET"`` or ``"DEL"``.
        key: the key operated on.
        value: the value for ``SET`` (``None`` for ``DEL``).
    """

    op: str
    key: str
    value: Optional[str] = None

    def __post_init__(self) -> None:
        if self.op not in ("SET", "DEL"):
            raise ValueError(f"unsupported op {self.op!r}")
        if self.op == "SET" and self.value is None:
            raise ValueError("SET requires a value")
        if "\n" in self.key or (self.value and "\n" in self.value):
            raise ValueError("keys and values must not contain newlines")


def encode_transactions(transactions: Iterable[Transaction]) -> bytes:
    """Encode transactions into a payload byte string."""
    lines = []
    for transaction in transactions:
        if transaction.op == "SET":
            lines.append(f"SET\t{transaction.key}\t{transaction.value}")
        else:
            lines.append(f"DEL\t{transaction.key}")
    return "\n".join(lines).encode("utf-8")


def decode_transactions(payload: bytes) -> List[Transaction]:
    """Decode a payload back into transactions.

    Unparseable payloads (e.g. the synthetic bit-vector workload) decode to
    an empty list rather than raising, because the ledger must tolerate
    arbitrary ordered payloads.
    """
    try:
        text = payload.decode("utf-8")
    except UnicodeDecodeError:
        return []
    transactions: List[Transaction] = []
    for line in text.splitlines():
        parts = line.split("\t")
        if len(parts) == 3 and parts[0] == "SET":
            transactions.append(Transaction(op="SET", key=parts[1], value=parts[2]))
        elif len(parts) == 2 and parts[0] == "DEL":
            transactions.append(Transaction(op="DEL", key=parts[1]))
    return transactions


class KeyValueLedger:
    """A deterministic key-value state machine fed by finalized payloads."""

    def __init__(self) -> None:
        self._state: Dict[str, str] = {}
        self._applied_transactions = 0

    @property
    def applied_transactions(self) -> int:
        """Number of individual transactions applied so far."""
        return self._applied_transactions

    def apply_payload(self, payload: bytes) -> int:
        """Apply all transactions in ``payload``; returns how many applied."""
        transactions = decode_transactions(payload)
        for transaction in transactions:
            self._apply(transaction)
        self._applied_transactions += len(transactions)
        return len(transactions)

    def _apply(self, transaction: Transaction) -> None:
        if transaction.op == "SET":
            self._state[transaction.key] = transaction.value or ""
        elif transaction.op == "DEL":
            self._state.pop(transaction.key, None)

    def get(self, key: str, default: Optional[str] = None) -> Optional[str]:
        """Return the current value of ``key``."""
        return self._state.get(key, default)

    def snapshot(self) -> Dict[str, str]:
        """Return a copy of the full state."""
        return dict(self._state)

    def state_digest(self) -> int:
        """Return a deterministic digest of the state for cross-replica checks."""
        return hash(tuple(sorted(self._state.items())))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KeyValueLedger):
            return NotImplemented
        return self._state == other._state

    def __len__(self) -> int:
        return len(self._state)
