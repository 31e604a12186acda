"""Fluid (aggregated-flow) client workload for million-user simulations.

The exact workload model (:mod:`repro.workload.clients`) submits, encodes
and tracks every transaction individually: at 1e6 clients and WAN rates
that per-transaction work dwarfs the protocol traffic and the run spends
its time bookkeeping arrivals instead of consensus.  The fluid model
replaces the per-transaction stream with aggregated *flows*: once per tick
it draws the number of transactions that arrived at each replica during the
tick from a Poisson distribution matched to the process's instantaneous rate,
and appends a single batch ``[count, submit_mid]`` to that replica's
:class:`FlowQueue`.  One event per (replica, tick) regardless of how many
million clients are behind it.

What is preserved versus the exact model:

* **offered load** — per-tick counts are Poisson with mean
  ``rate(t_mid) * tick / n_replicas``, so the aggregate arrival process has
  the same mean (and, for Poisson arrivals, the same distribution, by
  Poisson thinning/superposition).  Time-varying processes (diurnal,
  flash-crowd) are sampled at the tick midpoint.
* **backpressure** — flow queues enforce the same per-replica capacity
  (transaction count and optional byte limit) as the exact mempools;
  overflow is counted as dropped.
* **proposal building** — :class:`FluidPayloadSource` drains the
  proposer's flow up to the block-byte budget, splitting the head batch if
  needed, exactly as :meth:`repro.smr.mempool.Mempool.drain_batch` does
  for individual transactions.
* **reclaim semantics** — batches drained into a proposal that never
  commits return to the *front* of the flow once the chain has committed
  past the proposal's round (the same gate as
  :meth:`repro.workload.clients.ClientPool.reclaim_uncommitted`).
* **latency accounting** — each committed batch contributes one latency
  sample ``commit_time - submit_mid`` with weight ``count``; the resulting
  :class:`repro.smr.metrics.WorkloadMetrics` carries ``latency_weights``
  and its percentiles are transaction-weighted.

What is approximated: individual submit times collapse to the tick
midpoint (a ±tick/2 error per transaction — keep ``tick`` well below the
commit latency being measured), all transactions share the configured
logical size, and arrivals of non-Poisson processes acquire per-tick
Poisson variance.  ``tests/test_fluid.py`` pins the exact-vs-fluid
agreement on overlapping configurations.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.runtime.simulator import CommitRecord, Simulation
from repro.smr.metrics import OccupancySample, WorkloadMetrics
from repro.workload.arrivals import ArrivalProcess

#: Switch-over mean between Knuth's product method (exact, O(mean) draws)
#: and the rounded-normal approximation (O(1), relative error < 1% at this
#: scale) for Poisson sampling.
_POISSON_NORMAL_CUTOVER = 30.0


def poisson_sample(rng: random.Random, mean: float) -> int:
    """Draw a Poisson-distributed count with the given mean.

    ``random.Random`` has no Poisson sampler and the core library stays
    dependency-free, so: Knuth's product-of-uniforms method for small
    means, and a rounded normal (clamped at zero) above
    ``_POISSON_NORMAL_CUTOVER``, where the normal approximation's error is
    far below the workload's own sampling noise.
    """
    if mean <= 0.0:
        return 0
    if mean < _POISSON_NORMAL_CUTOVER:
        threshold = math.exp(-mean)
        count = 0
        product = rng.random()
        while product > threshold:
            count += 1
            product *= rng.random()
        return count
    value = int(round(rng.gauss(mean, math.sqrt(mean))))
    return value if value > 0 else 0


class FlowQueue:
    """A replica's pending transactions as aggregated FIFO batches.

    Each batch is a mutable ``[count, submit_mid]`` pair: ``count``
    same-size transactions that arrived around simulation time
    ``submit_mid``.  All byte math derives from the uniform ``tx_size``,
    so occupancy and drain budgeting are O(1) in the number of
    transactions (only O(batches) in the worst case for a drain).

    Args:
        tx_size: logical size in bytes of every transaction in the flow.
        capacity: maximum pending transaction count (backpressure bound).
    """

    __slots__ = ("tx_size", "_capacity", "_batches", "_count")

    def __init__(self, tx_size: int, capacity: int) -> None:
        if tx_size <= 0:
            raise ValueError("tx_size must be positive")
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.tx_size = tx_size
        self._capacity = capacity
        self._batches: Deque[List] = deque()
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def total_bytes(self) -> int:
        """Total pending bytes (O(1))."""
        return self._count * self.tx_size

    @property
    def capacity(self) -> int:
        """Maximum pending transaction count."""
        return self._capacity

    def inject(self, count: int, submit_mid: float) -> int:
        """Append a batch of ``count`` arrivals; returns how many fit.

        The overflow beyond capacity is shed (the caller counts it as
        dropped), mirroring :meth:`repro.smr.mempool.Mempool.add` returning
        ``False`` at a full pool.
        """
        if count <= 0:
            return 0
        space = self._capacity - self._count
        accepted = count if count <= space else space
        if accepted > 0:
            self._batches.append([accepted, submit_mid])
            self._count += accepted
        return accepted

    def drain(self, max_bytes: int) -> Tuple[List[List], int, int]:
        """Pop up to ``max_bytes`` worth of transactions, FIFO.

        Returns ``(groups, count, total_bytes)`` where each group is a
        ``[count, submit_mid]`` batch (the head batch is split if only part
        of it fits).  The groups list is what
        :meth:`FluidClientPool.register_payload` tracks for commit
        matching.
        """
        budget = max_bytes // self.tx_size
        if budget <= 0:
            return [], 0, 0
        batches = self._batches
        groups: List[List] = []
        drained = 0
        while batches and budget > 0:
            head = batches[0]
            head_count = head[0]
            if head_count <= budget:
                batches.popleft()
                groups.append(head)
                drained += head_count
                budget -= head_count
            else:
                groups.append([budget, head[1]])
                head[0] = head_count - budget
                drained += budget
                budget = 0
        self._count -= drained
        return groups, drained, drained * self.tx_size

    def requeue(self, groups: List[List]) -> None:
        """Push drained groups back to the *front* of the flow, in order.

        Capacity is bypassed: the transactions were already accepted once
        and dropping them here would lose them (same contract as
        :meth:`repro.smr.mempool.Mempool.requeue`).
        """
        for group in reversed(groups):
            self._batches.appendleft(group)
            self._count += group[0]


class FluidClientPool:
    """Aggregated-flow counterpart of :class:`~repro.workload.clients.ClientPool`.

    Models an arbitrarily large open-loop client population as per-replica
    fluid flows: one injection per (replica, tick) instead of one submission
    per transaction.  Exposes the same seams the experiment harness uses —
    ``attach(simulation, stop_time)``, ``payload_source(...)``,
    ``metrics(duration, warmup)`` — so :func:`repro.eval.experiment.run_experiment`
    treats both pools identically.

    Args:
        arrivals: arrival process whose instantaneous ``rate(now)`` (tx/s,
            aggregate across the population) drives per-tick injections.
        num_clients: modeled population size (metadata only — clients are
            not individually simulated).
        tx_size: logical size in bytes of each transaction.
        mempool_capacity: per-replica pending-transaction limit.
        mempool_max_bytes: optional per-replica pending-byte limit
            (tightens the count limit via the uniform transaction size).
        sample_interval: occupancy sampling period in seconds (``0``
            disables sampling).
        seed: RNG seed for the per-tick Poisson draws.
        tick: injection period in seconds; also the submit-time resolution
            of latency samples.  Keep well below the commit latency.
    """

    def __init__(
        self,
        arrivals: ArrivalProcess,
        num_clients: int = 8,
        tx_size: int = 256,
        mempool_capacity: int = 10_000,
        mempool_max_bytes: Optional[int] = None,
        sample_interval: float = 0.5,
        seed: int = 0,
        tick: float = 0.1,
    ) -> None:
        if arrivals is None:
            raise ValueError("fluid workload requires an arrival process (open loop)")
        if tick <= 0:
            raise ValueError("tick must be positive")
        if tx_size <= 0:
            raise ValueError("tx_size must be positive")
        if mempool_capacity <= 0:
            raise ValueError("mempool_capacity must be positive")
        self.arrivals = arrivals
        self.num_clients = num_clients
        self.tx_size = tx_size
        self.tick = tick
        self.sample_interval = sample_interval
        capacity = mempool_capacity
        if mempool_max_bytes is not None:
            capacity = min(capacity, max(1, mempool_max_bytes // tx_size))
        self._capacity = capacity
        self._rng = random.Random(seed)
        self._flows: Dict[int, FlowQueue] = {}
        self._simulation: Optional[Simulation] = None
        self._stop_time: Optional[float] = None
        #: payload bytes → (drained groups, proposal round); removed on
        #: first commit or reclaim, so bounded by in-flight proposals.
        self._payloads: Dict[bytes, Tuple[List[List], int]] = {}
        #: proposer → unresolved (payload, round) proposals.
        self._in_flight: Dict[int, List[Tuple[bytes, int]]] = {}
        #: Highest committed round observed; gates reclaiming exactly as in
        #: the exact pool.
        self._max_committed_round = 0
        #: per-tick (submit_mid, submitted, dropped) tallies — kept
        #: per-tick (not just totals) so warm-up filtering works.
        self._tick_log: List[Tuple[float, int, int]] = []
        #: committed batches as (latency, count, submit_mid).
        self._committed_groups: List[Tuple[float, int, float]] = []
        self._submitted = 0
        self._committed = 0
        self.dropped = 0
        self._occupancy: List[OccupancySample] = []

    # ------------------------------------------------------------------ #
    # Flows and proposal building (used by FluidPayloadSource)
    # ------------------------------------------------------------------ #

    @property
    def is_open_loop(self) -> bool:
        """Always ``True``: the fluid model is open-loop by construction."""
        return True

    @property
    def submitted(self) -> int:
        """Transactions injected so far (including dropped ones)."""
        return self._submitted

    @property
    def committed(self) -> int:
        """Transactions observed committed so far."""
        return self._committed

    def flow(self, replica_id: int) -> FlowQueue:
        """Return (creating on first use) the flow queue of ``replica_id``."""
        flow = self._flows.get(replica_id)
        if flow is None:
            flow = FlowQueue(self.tx_size, self._capacity)
            self._flows[replica_id] = flow
        return flow

    def register_payload(self, payload: bytes, groups: List[List],
                         proposer: int, round: int) -> None:
        """Remember which flow batches a proposal payload carries."""
        self._payloads[payload] = (groups, round)
        self._in_flight.setdefault(proposer, []).append((payload, round))

    def reclaim_uncommitted(self, proposer: int) -> int:
        """Re-queue the proposer's abandoned batches; returns the tx count.

        Same gate as the exact pool: a proposal is only abandoned once the
        chain has committed at or past its round without including it.
        """
        batches = self._in_flight.get(proposer)
        if not batches:
            return 0
        undecided: List[Tuple[bytes, int]] = []
        reclaimed = 0
        for payload, round in batches:
            entry = self._payloads.get(payload)
            if entry is None:
                continue  # committed: resolved
            if self._max_committed_round < round:
                undecided.append((payload, round))
                continue
            groups, _ = self._payloads.pop(payload)
            self.flow(proposer).requeue(groups)
            reclaimed += sum(group[0] for group in groups)
        if undecided:
            self._in_flight[proposer] = undecided
        else:
            self._in_flight.pop(proposer, None)
        return reclaimed

    def payload_source(self, max_block_bytes: int = 65_536) -> "FluidPayloadSource":
        """Build the payload source that drains this pool's flows."""
        return FluidPayloadSource(self, max_block_bytes=max_block_bytes)

    # ------------------------------------------------------------------ #
    # Attachment and event scheduling
    # ------------------------------------------------------------------ #

    def attach(self, simulation: Simulation, stop_time: float) -> None:
        """Wire the pool into ``simulation`` and start injecting flows."""
        if self._simulation is not None:
            raise RuntimeError("client pool is already attached to a simulation")
        if stop_time <= 0:
            raise ValueError("stop_time must be positive")
        self._simulation = simulation
        self._stop_time = stop_time
        simulation.add_commit_listener(self._on_commit)
        if simulation.now + self.tick <= stop_time:
            simulation.schedule_external(self.tick, self._on_tick)
        if self.sample_interval > 0:
            simulation.schedule_external(self.sample_interval, self._sample_occupancy)

    def _on_tick(self) -> None:
        """Inject one tick's worth of aggregated arrivals at every replica."""
        assert self._simulation is not None
        now = self._simulation.now
        mid = now - self.tick / 2.0
        replica_ids = self._simulation.replica_ids
        mean_per_replica = self.arrivals.rate(mid) * self.tick / len(replica_ids)
        rng = self._rng
        submitted = 0
        dropped = 0
        for replica_id in replica_ids:
            count = poisson_sample(rng, mean_per_replica)
            if count == 0:
                continue
            accepted = self.flow(replica_id).inject(count, mid)
            submitted += count
            dropped += count - accepted
        if submitted:
            self._submitted += submitted
            self.dropped += dropped
            self._tick_log.append((mid, submitted, dropped))
        if now + self.tick <= self._stop_time:
            self._simulation.schedule_external(self.tick, self._on_tick)

    # ------------------------------------------------------------------ #
    # Commit tracking
    # ------------------------------------------------------------------ #

    def _on_commit(self, record: CommitRecord) -> None:
        if record.block.round > self._max_committed_round:
            self._max_committed_round = record.block.round
        entry = self._payloads.pop(record.block.payload, None)
        if entry is None:
            return
        groups, _round = entry
        commit_time = record.commit_time
        for count, submit_mid in groups:
            self._committed_groups.append(
                (commit_time - submit_mid, count, submit_mid)
            )
            self._committed += count

    def _sample_occupancy(self) -> None:
        assert self._simulation is not None
        self._occupancy.append(
            OccupancySample.of(self._simulation.now, self._flows))
        if self._simulation.now + self.sample_interval <= self._stop_time:
            self._simulation.schedule_external(self.sample_interval, self._sample_occupancy)

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def metrics(self, duration: float, warmup: float = 0.0) -> WorkloadMetrics:
        """Build the weighted :class:`WorkloadMetrics` of the run so far.

        Batches are filtered by their *submit* midpoint against ``warmup``,
        matching the exact pool's per-transaction filter; latency samples
        carry their transaction counts as weights.
        """
        submitted = 0
        dropped = 0
        for mid, tick_submitted, tick_dropped in self._tick_log:
            if mid >= warmup:
                submitted += tick_submitted
                dropped += tick_dropped
        latencies: List[float] = []
        weights: List[float] = []
        committed = 0
        for latency, count, submit_mid in self._committed_groups:
            if submit_mid >= warmup:
                latencies.append(latency)
                weights.append(float(count))
                committed += count
        return WorkloadMetrics(
            duration=max(duration, 1e-9),
            submitted=submitted,
            committed=committed,
            dropped=dropped,
            committed_tx_bytes=committed * self.tx_size,
            latencies=latencies,
            latency_weights=weights,
            occupancy=list(self._occupancy),
        )


class FluidPayloadSource:
    """Builds block payloads from the proposer's pending flow.

    The fluid counterpart of
    :class:`repro.workload.payloads.MempoolPayloadSource`: drains the
    proposer's :class:`FlowQueue` up to the block-byte budget and registers
    the drained batches for commit matching.  The payload bytes are a short
    unique tag (the per-source sequence number keeps tags distinct even if
    a Byzantine proposer reuses a round); the logical size carried by the
    block is the drained transaction mass, which is what the bandwidth
    model charges.

    Args:
        pool: the fluid pool owning the per-replica flows.
        max_block_bytes: byte budget per proposal; must fit at least one
            transaction or proposals could never drain the flows.
    """

    def __init__(self, pool: FluidClientPool, max_block_bytes: int = 65_536) -> None:
        if max_block_bytes < pool.tx_size:
            raise ValueError("max_block_bytes must fit at least one transaction")
        self.pool = pool
        self.max_block_bytes = max_block_bytes
        self._seq = 0

    def payload_for(self, round: int, proposer: int) -> Tuple[bytes, int]:
        """Return ``(payload_bytes, logical_size)`` for a proposal."""
        self.pool.reclaim_uncommitted(proposer)
        groups, count, total_bytes = self.pool.flow(proposer).drain(self.max_block_bytes)
        if count == 0:
            return f"fluid:empty:r{round}:p{proposer}".encode("utf-8"), 0
        tag = f"fluid:r{round}:p{proposer}:{self._seq}".encode("utf-8")
        self._seq += 1
        self.pool.register_payload(tag, groups, proposer, round)
        return tag, total_bytes
