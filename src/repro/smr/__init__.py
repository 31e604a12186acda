"""SMR harness: payload sources, ledgers, and measurement.

The protocols order opaque payloads; this package provides what surrounds
them in an SMR deployment:

* :mod:`repro.smr.mempool` — payload sources (the paper's workload is a
  leader-generated random bit vector of configurable size) and a simple
  transaction mempool for the examples.
* :mod:`repro.smr.ledger` — a committed ledger applying finalized payloads
  to a deterministic state machine (key-value store), used by the examples
  to show end-to-end replication.
* :mod:`repro.smr.metrics` — latency / throughput / block-interval
  collection matching the paper's measurement methodology (Section 9.2).
* :mod:`repro.smr.quorum` — the shared quorum/certificate engine: vote
  tallies with duplicate suppression, equivocation evidence, and the set
  of blocks at threshold, used by every protocol implementation.
"""

from repro.smr.ledger import KeyValueLedger, Transaction, decode_transactions, encode_transactions
from repro.smr.mempool import Mempool, PayloadSource
from repro.smr.metrics import (
    LatencySample,
    MetricsCollector,
    OccupancySample,
    RunMetrics,
    WorkloadMetrics,
)
from repro.smr.quorum import CertificateCollector, QuorumTracker

__all__ = [
    "CertificateCollector",
    "KeyValueLedger",
    "LatencySample",
    "Mempool",
    "MetricsCollector",
    "OccupancySample",
    "PayloadSource",
    "QuorumTracker",
    "RunMetrics",
    "Transaction",
    "WorkloadMetrics",
    "decode_transactions",
    "encode_transactions",
]
