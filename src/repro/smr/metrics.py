"""Measurement: proposal finalization latency, throughput, block intervals.

The paper's methodology (Section 9.2):

* **latency** — "the average proposal finalization time, measured at the
  respective proposer": the time from when a replica proposes a block until
  that same replica observes the block finalized.
* **throughput** — "the average number of committed bytes per second at any
  (non-faulty) replica".
* Figure 6d additionally reports the **block interval** (time between
  consecutive commits) under crash faults.
* Figure 6c reports the latency **distribution/variance**.

:class:`MetricsCollector` listens to a simulation's commit stream, pairs
commits with the proposal timestamps exposed by the protocols, and produces a
:class:`RunMetrics` summary.

When a client workload (:mod:`repro.workload`) drives the run, the workload
layer additionally produces a :class:`WorkloadMetrics` summary: true
end-to-end submit→commit latency percentiles per transaction, goodput
(committed transactions per second), mempool occupancy over time
(:class:`OccupancySample`), and drop/backpressure counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.stats import mean as _mean
from repro.analysis.stats import percentile as _percentile
from repro.analysis.stats import percentiles as _percentiles
from repro.analysis.stats import variance as _variance
from repro.types.commits import CommitRecord


@dataclass(frozen=True)
class LatencySample:
    """A single proposal-finalization latency measurement.

    Attributes:
        proposer: the replica that proposed (and measured) the block.
        round: the block's round.
        latency: seconds from proposal to the proposer observing finalization.
        finalization_kind: ``"fast"`` or ``"slow"``.
    """

    proposer: int
    round: int
    latency: float
    finalization_kind: str

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready dictionary (inverse of :meth:`from_dict`)."""
        return {
            "proposer": self.proposer,
            "round": self.round,
            "latency": self.latency,
            "finalization_kind": self.finalization_kind,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LatencySample":
        """Rebuild a sample from :meth:`to_dict` output."""
        return cls(
            proposer=int(data["proposer"]),
            round=int(data["round"]),
            latency=float(data["latency"]),
            finalization_kind=str(data["finalization_kind"]),
        )


@dataclass
class RunMetrics:
    """Aggregated metrics of one experiment run.

    Attributes:
        protocol: protocol name.
        duration: measured duration in seconds.
        latency_samples: per-proposal latency samples.
        committed_bytes: total payload bytes committed at the observer replica.
        committed_blocks: total blocks committed at the observer replica.
        block_intervals: times between consecutive commits at the observer.
        fast_finalized: number of commits finalized via the fast path.
        slow_finalized: number of commits finalized via the slow path.
        compute_busy_fractions: per-replica fraction of the run spent with
            the CPU busy handling messages (empty under the default
            zero-compute model).
        compute_queue_wait_s: per-replica total seconds deliveries spent
            waiting for the busy core (empty under zero compute).
    """

    protocol: str
    duration: float
    latency_samples: List[LatencySample] = field(default_factory=list)
    committed_bytes: int = 0
    committed_blocks: int = 0
    block_intervals: List[float] = field(default_factory=list)
    fast_finalized: int = 0
    slow_finalized: int = 0
    compute_busy_fractions: Dict[int, float] = field(default_factory=dict)
    compute_queue_wait_s: Dict[int, float] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Derived statistics
    # ------------------------------------------------------------------ #

    def latencies(self) -> List[float]:
        """All latency samples in seconds."""
        return [sample.latency for sample in self.latency_samples]

    @property
    def mean_latency(self) -> float:
        """Mean proposal finalization latency in seconds."""
        return _mean(self.latencies())

    @property
    def median_latency(self) -> float:
        """Median proposal finalization latency in seconds."""
        return _percentile(self.latencies(), 50)

    @property
    def p95_latency(self) -> float:
        """95th-percentile latency in seconds."""
        return _percentile(self.latencies(), 95)

    @property
    def p99_latency(self) -> float:
        """99th-percentile latency in seconds."""
        return _percentile(self.latencies(), 99)

    @property
    def latency_variance(self) -> float:
        """Sample variance of the latency in seconds squared."""
        return _variance(self.latencies())

    @property
    def latency_stddev(self) -> float:
        """Sample standard deviation of the latency in seconds."""
        return math.sqrt(self.latency_variance)

    @property
    def throughput_bytes_per_s(self) -> float:
        """Committed payload bytes per second at the observer replica."""
        if self.duration <= 0:
            return 0.0
        return self.committed_bytes / self.duration

    @property
    def blocks_per_s(self) -> float:
        """Committed blocks per second at the observer replica."""
        if self.duration <= 0:
            return 0.0
        return self.committed_blocks / self.duration

    @property
    def mean_block_interval(self) -> float:
        """Mean time between consecutive commits at the observer replica."""
        return _mean(self.block_intervals)

    @property
    def fast_path_ratio(self) -> float:
        """Fraction of commits finalized via the fast path."""
        total = self.fast_finalized + self.slow_finalized
        return self.fast_finalized / total if total else 0.0

    @property
    def max_busy_fraction(self) -> float:
        """Largest per-replica CPU busy fraction (0 under zero compute)."""
        return max(self.compute_busy_fractions.values(), default=0.0)

    @property
    def total_compute_queue_wait_s(self) -> float:
        """Total seconds deliveries waited for busy cores, across replicas."""
        return sum(self.compute_queue_wait_s.values())

    def summary(self) -> Dict[str, float]:
        """Return the headline numbers as a dictionary (seconds / bytes)."""
        return {
            "mean_latency_s": self.mean_latency,
            "median_latency_s": self.median_latency,
            "p95_latency_s": self.p95_latency,
            "latency_stddev_s": self.latency_stddev,
            "throughput_bytes_per_s": self.throughput_bytes_per_s,
            "blocks_per_s": self.blocks_per_s,
            "mean_block_interval_s": self.mean_block_interval,
            "fast_path_ratio": self.fast_path_ratio,
            "committed_blocks": float(self.committed_blocks),
            "max_busy_fraction": self.max_busy_fraction,
        }

    def to_dict(self) -> Dict[str, object]:
        """A lossless JSON-ready dictionary (inverse of :meth:`from_dict`).

        The compute fields are emitted only when non-empty, so metrics of
        default (zero-compute) runs serialise exactly as they did before
        the compute layer existed and cached results stay valid.
        """
        data = {
            "protocol": self.protocol,
            "duration": self.duration,
            "latency_samples": [sample.to_dict() for sample in self.latency_samples],
            "committed_bytes": self.committed_bytes,
            "committed_blocks": self.committed_blocks,
            "block_intervals": list(self.block_intervals),
            "fast_finalized": self.fast_finalized,
            "slow_finalized": self.slow_finalized,
        }
        if self.compute_busy_fractions:
            # JSON object keys are strings; from_dict restores the int ids.
            data["compute_busy_fractions"] = {
                str(rid): busy for rid, busy in self.compute_busy_fractions.items()
            }
        if self.compute_queue_wait_s:
            data["compute_queue_wait_s"] = {
                str(rid): wait for rid, wait in self.compute_queue_wait_s.items()
            }
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RunMetrics":
        """Rebuild the metrics from :meth:`to_dict` output."""
        return cls(
            protocol=str(data["protocol"]),
            duration=float(data["duration"]),
            latency_samples=[LatencySample.from_dict(sample)
                             for sample in data.get("latency_samples", [])],
            committed_bytes=int(data["committed_bytes"]),
            committed_blocks=int(data["committed_blocks"]),
            block_intervals=[float(v) for v in data.get("block_intervals", [])],
            fast_finalized=int(data["fast_finalized"]),
            slow_finalized=int(data["slow_finalized"]),
            compute_busy_fractions={
                int(rid): float(busy)
                for rid, busy in data.get("compute_busy_fractions", {}).items()
            },
            compute_queue_wait_s={
                int(rid): float(wait)
                for rid, wait in data.get("compute_queue_wait_s", {}).items()
            },
        )


@dataclass(frozen=True)
class OccupancySample:
    """A point-in-time measurement of the replicas' mempool occupancy.

    Attributes:
        time: simulation time of the sample.
        transactions: total pending transactions across all mempools.
        total_bytes: total pending bytes across all mempools.
        per_replica: pending transaction count per replica id.
    """

    time: float
    transactions: int
    total_bytes: int
    per_replica: Dict[int, int] = field(default_factory=dict)

    @classmethod
    def of(cls, time: float, queues: Dict[int, object]) -> "OccupancySample":
        """Sample ``queues`` (replica id → a pool's queue, anything with
        ``len()`` and ``total_bytes``) at ``time``."""
        per_replica = {rid: len(queue) for rid, queue in sorted(queues.items())}
        return cls(
            time=time,
            transactions=sum(per_replica.values()),
            total_bytes=sum(queue.total_bytes for queue in queues.values()),
            per_replica=per_replica,
        )

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready dictionary (inverse of :meth:`from_dict`)."""
        return {
            "time": self.time,
            "transactions": self.transactions,
            "total_bytes": self.total_bytes,
            # JSON object keys are strings; from_dict restores the int ids.
            "per_replica": {str(rid): count for rid, count in self.per_replica.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "OccupancySample":
        """Rebuild a sample from :meth:`to_dict` output."""
        return cls(
            time=float(data["time"]),
            transactions=int(data["transactions"]),
            total_bytes=int(data["total_bytes"]),
            per_replica={int(rid): int(count)
                         for rid, count in data.get("per_replica", {}).items()},
        )


@dataclass
class WorkloadMetrics:
    """End-to-end client-workload metrics of one run.

    Where :class:`RunMetrics` measures *proposal* finalization latency (the
    paper's Section 9.2 metric), this measures what a client experiences:
    the time from submitting a transaction until the first replica commits a
    block containing it.

    Attributes:
        duration: measured run duration in seconds.
        submitted: transactions submitted by clients.
        committed: transactions observed committed (deduplicated).
        dropped: transactions rejected at submission (mempool backpressure).
        committed_tx_bytes: total bytes of committed transactions.
        latencies: per-transaction submit→commit latencies in seconds.
        occupancy: mempool occupancy samples over time.
    """

    duration: float
    submitted: int = 0
    committed: int = 0
    dropped: int = 0
    committed_tx_bytes: int = 0
    latencies: List[float] = field(default_factory=list)
    occupancy: List[OccupancySample] = field(default_factory=list)

    @property
    def pending(self) -> int:
        """Transactions submitted but neither committed nor dropped."""
        return self.submitted - self.committed - self.dropped

    @property
    def mean_latency(self) -> float:
        """Mean submit→commit latency in seconds."""
        return _mean(self.latencies)

    def latency_percentiles(self, qs: Sequence[float] = (50, 95, 99)) -> List[float]:
        """Submit→commit latency percentiles in seconds, one per ``q`` of
        ``qs`` — from a single sort of the per-transaction latencies."""
        return _percentiles(self.latencies, qs)

    @property
    def p50_latency(self) -> float:
        """Median submit→commit latency in seconds."""
        return self.latency_percentiles((50,))[0]

    @property
    def p95_latency(self) -> float:
        """95th-percentile submit→commit latency in seconds."""
        return self.latency_percentiles((95,))[0]

    @property
    def p99_latency(self) -> float:
        """99th-percentile submit→commit latency in seconds."""
        return self.latency_percentiles((99,))[0]

    @property
    def goodput_tx_per_s(self) -> float:
        """Committed transactions per second."""
        if self.duration <= 0:
            return 0.0
        return self.committed / self.duration

    @property
    def goodput_bytes_per_s(self) -> float:
        """Committed transaction bytes per second."""
        if self.duration <= 0:
            return 0.0
        return self.committed_tx_bytes / self.duration

    @property
    def peak_mempool_depth(self) -> int:
        """Largest total pending-transaction count observed in any sample."""
        return max((sample.transactions for sample in self.occupancy), default=0)

    @property
    def final_mempool_depth(self) -> int:
        """Total pending transactions in the last occupancy sample."""
        return self.occupancy[-1].transactions if self.occupancy else 0

    def summary(self) -> Dict[str, float]:
        """Return the headline workload numbers as a dictionary."""
        p50, p95, p99 = self.latency_percentiles()
        return {
            "submitted_tx": float(self.submitted),
            "committed_tx": float(self.committed),
            "dropped_tx": float(self.dropped),
            "pending_tx": float(self.pending),
            "mean_latency_s": self.mean_latency,
            "p50_latency_s": p50,
            "p95_latency_s": p95,
            "p99_latency_s": p99,
            "goodput_tx_per_s": self.goodput_tx_per_s,
            "goodput_bytes_per_s": self.goodput_bytes_per_s,
            "peak_mempool_depth": float(self.peak_mempool_depth),
            "final_mempool_depth": float(self.final_mempool_depth),
        }

    def to_dict(self) -> Dict[str, object]:
        """A lossless JSON-ready dictionary (inverse of :meth:`from_dict`)."""
        return {
            "duration": self.duration,
            "submitted": self.submitted,
            "committed": self.committed,
            "dropped": self.dropped,
            "committed_tx_bytes": self.committed_tx_bytes,
            "latencies": list(self.latencies),
            "occupancy": [sample.to_dict() for sample in self.occupancy],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "WorkloadMetrics":
        """Rebuild the metrics from :meth:`to_dict` output."""
        return cls(
            duration=float(data["duration"]),
            submitted=int(data["submitted"]),
            committed=int(data["committed"]),
            dropped=int(data["dropped"]),
            committed_tx_bytes=int(data["committed_tx_bytes"]),
            latencies=[float(v) for v in data.get("latencies", [])],
            occupancy=[OccupancySample.from_dict(sample)
                       for sample in data.get("occupancy", [])],
        )


class MetricsCollector:
    """Collects commit records and produces :class:`RunMetrics`.

    Args:
        protocol: protocol name for labelling.
        observer: replica id whose commits define throughput / intervals
            (the paper uses "any non-faulty replica"; pass one explicitly).
        warmup: measurements with commit time below this are discarded so
            start-up transients do not skew averages.
    """

    def __init__(self, protocol: str, observer: int = 0, warmup: float = 0.0) -> None:
        self.protocol = protocol
        self.observer = observer
        self.warmup = warmup
        self._observer_commits: List[CommitRecord] = []
        self._proposer_commits: Dict[int, List[CommitRecord]] = {}

    def on_commit(self, record: CommitRecord) -> None:
        """Commit-stream listener; wire it via ``Simulation.add_commit_listener``."""
        if record.commit_time < self.warmup:
            return
        if record.replica_id == self.observer:
            self._observer_commits.append(record)
        if record.replica_id == record.block.proposer:
            self._proposer_commits.setdefault(record.replica_id, []).append(record)

    def finalize(self, duration: float,
                 proposal_times: Dict[int, Dict[str, float]]) -> RunMetrics:
        """Produce the run metrics.

        Args:
            duration: measured run duration in seconds (excluding warm-up).
            proposal_times: per-replica mapping block id → proposal time, as
                exposed by each protocol's ``proposal_times`` attribute.
        """
        metrics = RunMetrics(protocol=self.protocol, duration=duration)
        previous_commit: Optional[float] = None
        for record in self._observer_commits:
            metrics.committed_blocks += 1
            metrics.committed_bytes += record.block.size
            if record.finalization_kind == "fast":
                metrics.fast_finalized += 1
            else:
                metrics.slow_finalized += 1
            if previous_commit is not None:
                metrics.block_intervals.append(record.commit_time - previous_commit)
            previous_commit = record.commit_time
        for replica_id, records in self._proposer_commits.items():
            times = proposal_times.get(replica_id, {})
            for record in records:
                proposed_at = times.get(record.block.id)
                if proposed_at is None:
                    continue
                metrics.latency_samples.append(
                    LatencySample(
                        proposer=replica_id,
                        round=record.block.round,
                        latency=record.commit_time - proposed_at,
                        finalization_kind=record.finalization_kind,
                    )
                )
        return metrics
