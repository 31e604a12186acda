"""Client pools: open- and closed-loop traffic injected into a simulation.

:class:`ClientPool` models the population of clients that submit
transactions to the replicated service.  It plugs into a
:class:`repro.runtime.simulator.Simulation` through two seams:

* **submission** — open-loop arrivals are *admitted lazily*: the pool
  keeps only the stamp of the next arrival, and every point that observes
  a mempool or the counts (building a proposal, the occupancy probe, the
  public accessors) first submits each arrival stamped ``<=`` the clock,
  under its own stamp.  A mempool between two such points is unobservable,
  so this is the run an event per arrival would produce — same rng draws,
  stamps and drop decisions — except that an arrival tied exactly with an
  observing event always goes first.  Closed-loop submissions are clocked
  by commits and stay events (:meth:`Simulation.schedule_external`);
* **completion** — a commit listener watches every replica's commit stream
  and matches committed block payloads back to the pool's transactions,
  yielding true end-to-end submit→commit latency.

A pending transaction is only its id.  Each replica's mempool is a FIFO
queue of ids with O(1) ``len`` / ``total_bytes`` (every encoded size is in
the pool's ``sizes`` column); admission checks the count and byte limits
once per run of ids routed to one replica (per transaction only where the
id header makes sizes vary under a byte limit).  A block's payload is a
:class:`repro.workload.transactions.TxBatch` of the ids
:meth:`ClientPool.build_payload` drained: it renders the bytes
:func:`repro.workload.transactions.encode_transaction` defines only when
asked, which in a simulation is once, while the proposer's block id is
hashed.  No block, chain or pool structure holds a payload's bytes, and a
commit is matched back to its transactions by the batch itself.

From a proposal's drain to the run's report, the per-transaction work is
array work over numpy views of the columns: one gather fetches a batch's
client ids, one NaN mask finds its still-pending ids (for a commit or a
reclaim) and one masked store stamps their commit times, and
:meth:`ClientPool.metrics` builds the latency column and committed bytes
with masks (:meth:`repro.smr.metrics.WorkloadMetrics.from_columns`, where
the TCP cluster's client ends too).  The views end with each call, since an
``array`` that exports a buffer refuses to grow, and numpy is imported
inside those calls, so the TCP cluster (which imports this package) starts
without it.

Two client models are supported:

* **open loop** — an :class:`repro.workload.arrivals.ArrivalProcess` drives
  submissions regardless of commit progress (offered load is external, the
  system must absorb it or shed it via mempool backpressure);
* **closed loop** — a fixed population of clients each submit one
  transaction, wait for it to commit, think for an exponentially
  distributed time, and submit the next (offered load is self-clocked).

Each transaction is routed to one replica's mempool round-robin — the
"clients talk to their local replica" deployment — so a crashed replica's
pending transactions sit in its mempool exactly as they would in practice
(no client-side retry against another replica is modelled; such
transactions stay ``pending`` in the metrics).  Transactions drained into a
proposal that never commits are not lost either: the next time the same
replica proposes, its previous uncommitted batch is re-queued at the front
of its mempool (see :meth:`ClientPool.reclaim_uncommitted`).
"""

from __future__ import annotations

import math
import random
from array import array
from itertools import chain, cycle, islice
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.smr.metrics import OccupancySample, WorkloadMetrics
from repro.types.commits import CommitRecord
from repro.workload.arrivals import ArrivalProcess
from repro.workload.transactions import MAX_HEADER_BYTES, TxBatch, TxRecord, encode_batch

if TYPE_CHECKING:
    from repro.runtime.simulator import Simulation

#: Minimum delay before a closed-loop client retries a rejected submission.
#: A zero-delay retry at a full mempool would re-enqueue an event at the
#: same simulation timestamp forever, starving the (later) proposal events
#: that would drain the pool — a livelock.  The floor guarantees time
#: advances between retries even with ``think_time = 0``.
MIN_RETRY_DELAY = 1e-3

#: The commit-time column's entry for a transaction not yet committed.
_PENDING = array("d", [math.nan])


class _TxMempool:
    """One replica's mempool: the ids of its pending transactions, FIFO.

    Admission and draining follow :class:`repro.smr.mempool.Mempool`
    (``add`` per transaction, ``drain_batch``) over the sizes the pool
    recorded at submission, so no transaction is encoded to be queued.
    The ids sit in a plain list: a proposal pops a whole prefix with one
    ``del`` of a slice, which a deque cannot do.

    Args:
        max_size: maximum number of pending transactions.
        max_bytes: optional maximum total pending bytes.
        sizes: the pool's tx id → encoded size column.
        uniform_size: the size every transaction has, or ``None`` when the
            id header makes sizes vary (a ``tx_size`` below
            :data:`~repro.workload.transactions.MAX_HEADER_BYTES`).
        encode: tx ids → their encoded transactions (for :meth:`peek`).
    """

    def __init__(self, max_size: int, max_bytes: Optional[int], sizes: array,
                 uniform_size: Optional[int],
                 encode: Callable[[Sequence[int]], List[bytes]]) -> None:
        self.ids: List[int] = []
        self.total_bytes = 0
        self.capacity = max_size
        self.max_bytes = max_bytes
        self._sizes = sizes
        self._uniform_size = uniform_size
        self._encode = encode

    def __len__(self) -> int:
        return len(self.ids)

    def add_run(self, tx_ids: range) -> Sequence[int]:
        """Queue ``tx_ids`` in order, each one if the limits admit it at its
        turn; returns the refused ids.

        Nothing drains in between, so with equal sizes the accepted ids are
        a prefix: one count and one byte-budget check decide the run.
        """
        room = self.capacity - len(self.ids)
        if self.max_bytes is not None:
            if self._uniform_size is None:
                return self._add_each(tx_ids)
            room = min(room, (self.max_bytes - self.total_bytes) // self._uniform_size)
        accepted = tx_ids[:max(room, 0)]
        self.ids.extend(accepted)
        self.total_bytes += sum(self._sizes[accepted.start:accepted.stop:accepted.step])
        return tx_ids[len(accepted):]

    def _add_each(self, tx_ids: range) -> List[int]:
        # Under a byte limit with varying sizes, a later, shorter
        # transaction may still fit after a longer one was refused.
        ids, sizes, capacity, max_bytes = self.ids, self._sizes, self.capacity, self.max_bytes
        count, total = len(ids), self.total_bytes
        refused: List[int] = []
        for tx_id in tx_ids:
            size = sizes[tx_id]
            if count < capacity and total + size <= max_bytes:
                ids.append(tx_id)
                count += 1
                total += size
            else:
                refused.append(tx_id)
        self.total_bytes = total
        return refused

    def take(self, max_bytes: int) -> Tuple[List[int], int]:
        """Pop the longest FIFO prefix whose sizes sum to at most
        ``max_bytes``; returns ``(ids, total_bytes)``."""
        ids = self.ids
        if self._uniform_size is not None:
            count = min(len(ids), max_bytes // self._uniform_size)
            total = count * self._uniform_size
        else:
            count = total = 0
            sizes = self._sizes
            for tx_id in ids:
                size = sizes[tx_id]
                if total + size > max_bytes:
                    break
                total += size
                count += 1
        taken = ids[:count]
        del ids[:count]
        self.total_bytes -= total
        return taken, total

    def requeue(self, tx_ids: List[int]) -> None:
        """Push ids back to the *front*, in order, bypassing the limits
        (they were admitted once already)."""
        self.ids[:0] = tx_ids
        self.total_bytes += sum(map(self._sizes.__getitem__, tx_ids))

    def peek(self, count: int = 1) -> List[bytes]:
        """Up to ``count`` pending transactions, as bytes, left queued."""
        return self._encode(self.ids[:count])


def check_pool_settings(num_clients: int, think_time: float, tx_size: int,
                        mempool_capacity: int, mempool_max_bytes: Optional[int],
                        sample_interval: float) -> None:
    """Refuse client-pool settings that would fail mid-run or silently.

    The one copy of these rules: :class:`ClientPool` and
    :class:`repro.workload.spec.WorkloadSpec` both call it.

    Raises:
        ValueError: naming the first setting out of range.
    """
    if num_clients <= 0:
        raise ValueError("num_clients must be positive")
    if not (math.isfinite(think_time) and think_time >= 0):
        raise ValueError("think_time must be finite and non-negative")
    if mempool_capacity <= 0:
        raise ValueError("mempool_capacity must be positive")
    if mempool_max_bytes is not None and mempool_max_bytes <= 0:
        raise ValueError("mempool_max_bytes must be positive when set")
    if not (math.isfinite(sample_interval) and sample_interval >= 0):
        raise ValueError("sample_interval must be finite and non-negative "
                         "(0 disables the probe)")
    if tx_size <= 0:
        raise ValueError("tx_size must be positive")


class ClientPool:
    """A population of clients submitting transactions to the replica set.

    Args:
        arrivals: open-loop arrival process; ``None`` selects the
            closed-loop model.
        num_clients: number of distinct clients.  In the closed-loop model
            this is the concurrency (each client has one transaction in
            flight); in the open-loop model it only labels submissions.
        think_time: closed-loop mean think time between a commit and the
            client's next submission (exponentially distributed; ``0`` means
            immediate resubmission).
        tx_size: logical size in bytes of each encoded transaction.
        mempool_capacity: per-replica mempool transaction-count limit.
        mempool_max_bytes: optional per-replica mempool byte limit.
        sample_interval: period of the mempool occupancy probe in seconds
            (``0`` disables sampling).
        seed: RNG seed for arrivals, think times, and client labelling.

    Raises:
        ValueError: from :func:`check_pool_settings`.
    """

    def __init__(
        self,
        arrivals: Optional[ArrivalProcess] = None,
        num_clients: int = 8,
        think_time: float = 0.5,
        tx_size: int = 256,
        mempool_capacity: int = 10_000,
        mempool_max_bytes: Optional[int] = None,
        sample_interval: float = 0.5,
        seed: int = 0,
    ) -> None:
        check_pool_settings(num_clients, think_time, tx_size, mempool_capacity,
                            mempool_max_bytes, sample_interval)
        self.arrivals = arrivals
        self.num_clients = num_clients
        self.think_time = think_time
        self.tx_size = tx_size
        self.sample_interval = sample_interval
        self._mempool_capacity = mempool_capacity
        self._mempool_max_bytes = mempool_max_bytes
        #: At or above the longest possible id header every transaction is
        #: exactly ``tx_size`` bytes; below it the size depends on the ids.
        self._uniform_size = tx_size if tx_size >= MAX_HEADER_BYTES else None
        self._rng = random.Random(seed)
        self._mempools: Dict[int, _TxMempool] = {}
        self._simulation: Optional[Simulation] = None
        self._replica_ids: Tuple[int, ...] = ()
        self._stop_time = 0.0
        #: Stamp of the next open-loop arrival (``inf``: not attached, or the
        #: closed loop); one past ``stop_time`` is never admitted.
        self._next_arrival = math.inf
        #: Transaction records as columns indexed by tx id (ids count up
        #: from 0 in submission order, so the submit column is sorted; the
        #: replica is a function of the id).
        self._submit_times = array("d")
        self._commit_times = array("d")  # NaN while pending
        self._client_ids = array("I")
        self._sizes = array("I")  # encoded bytes
        self._dropped_ids: List[int] = []  # ascending
        self._committed = 0
        #: Payload batches built here and not yet resolved.  A batch leaves
        #: on its first commit (or when reclaimed), so the set stays bounded
        #: by the number of in-flight proposals.  Membership is by identity,
        #: which resolves exactly what keying by payload bytes would: two
        #: batches render equal bytes only if one re-proposes the ids of an
        #: abandoned one, and a batch is abandoned only after some block at
        #: or past its round committed without it — the chain has decided
        #: that round, so the abandoned block can never commit.
        self._payload_txs: Set[TxBatch] = set()
        #: proposer → its proposals not yet seen resolved, as (batch, round);
        #: entries leave the list once committed or reclaimed.
        self._in_flight: Dict[int, List[Tuple[TxBatch, int]]] = {}
        #: Highest block round observed committed at any replica; gates
        #: reclaiming (a proposal is only abandoned once the chain has
        #: committed past its round without including it).
        self._max_committed_round = 0
        self._occupancy: List[OccupancySample] = []

    # ------------------------------------------------------------------ #
    # Mempools and proposal building (used by MempoolPayloadSource)
    # ------------------------------------------------------------------ #

    @property
    def is_open_loop(self) -> bool:
        """Whether this pool runs the open-loop (arrival-driven) model."""
        return self.arrivals is not None

    @property
    def submitted(self) -> int:
        """Transactions submitted so far (including dropped ones)."""
        self._admit()
        return len(self._submit_times)

    @property
    def dropped(self) -> int:
        """Submissions rejected so far by mempool backpressure."""
        self._admit()
        return len(self._dropped_ids)

    @property
    def committed(self) -> int:
        """Transactions observed committed so far (deduplicated)."""
        return self._committed

    def mempool(self, replica_id: int) -> _TxMempool:
        """Return (creating on first use) the mempool of ``replica_id``.

        It queues transaction ids; ``len``, ``total_bytes`` and ``capacity``
        read as on :class:`repro.smr.mempool.Mempool`, and ``peek(k)``
        returns the first ``k`` transactions' bytes, formatted on demand.
        """
        self._admit()
        return self._mempool(replica_id)

    def _mempool(self, replica_id: int) -> _TxMempool:
        pool = self._mempools.get(replica_id)
        if pool is None:
            pool = self._mempools[replica_id] = _TxMempool(
                self._mempool_capacity, self._mempool_max_bytes, self._sizes,
                self._uniform_size, self._encode)
        return pool

    def _encode(self, tx_ids: Sequence[int]) -> List[bytes]:
        """The encoded transactions of ``tx_ids``, in order."""
        return encode_batch(tx_ids, map(self._client_ids.__getitem__, tx_ids),
                            self.tx_size)

    def build_payload(self, proposer: int, round: int,
                      max_bytes: int) -> Optional[Tuple[TxBatch, int]]:
        """Drain the proposer's next proposal: ``(batch, logical size)``.

        Due arrivals are admitted and the proposer's abandoned batches
        re-queued first; the drained ids become the payload batch, which is
        remembered so its commit can be matched back.  ``None`` when nothing
        is pending.
        """
        self._admit()
        self.reclaim_uncommitted(proposer)
        tx_ids, total_bytes = self._mempool(proposer).take(max_bytes)
        if not tx_ids:
            return None
        import numpy as np

        ids = array("q", tx_ids)
        # One gather from the client column (the view ends with the call).
        clients = np.frombuffer(self._client_ids, "I")[np.frombuffer(ids, "q")]
        batch = TxBatch(ids, array("I", clients.tobytes()), self.tx_size, total_bytes)
        self._payload_txs.add(batch)
        self._in_flight.setdefault(proposer, []).append((batch, round))
        return batch, total_bytes

    def reclaim_uncommitted(self, proposer: int) -> int:
        """Re-queue the proposer's *abandoned* batches, if any.

        A proposal can fail to commit (leader crash mid-round, losing rank,
        asynchrony), and its transactions were already drained from the
        mempool.  Called right before the proposer builds its next payload,
        this pushes the still-uncommitted transactions of its abandoned
        proposals back to the front of its mempool so they are re-proposed
        instead of silently lost.  Returns how many were re-queued.

        A batch counts as abandoned only once some replica has committed a
        block at or past the proposal's round without it — before that the
        block may simply be finalizing late (slow path, lagging commits),
        and reclaiming it would commit the same transactions twice.  Batches
        still under that gate stay tracked for the proposer's next turn.
        """
        batches = self._in_flight.get(proposer)
        if not batches:
            return 0
        undecided: List[Tuple[TxBatch, int]] = []
        reclaimed: List[int] = []
        for batch, round in batches:
            if batch not in self._payload_txs:
                continue  # committed: resolved
            if self._max_committed_round < round:
                undecided.append((batch, round))
                continue
            self._payload_txs.remove(batch)
            reclaimed.extend(self._still_pending(batch))
        if undecided:
            self._in_flight[proposer] = undecided
        else:
            self._in_flight.pop(proposer, None)
        if not reclaimed:
            return 0
        self._mempool(proposer).requeue(reclaimed)
        return len(reclaimed)

    def payload_source(self, max_block_bytes: int = 65_536):
        """Build the payload source that drains this pool's mempools."""
        # Imported lazily: payloads.py imports this module.
        from repro.workload.payloads import MempoolPayloadSource

        return MempoolPayloadSource(self, max_block_bytes=max_block_bytes)

    # ------------------------------------------------------------------ #
    # Attachment and submission
    # ------------------------------------------------------------------ #

    def attach(self, simulation: Simulation, stop_time: float) -> None:
        """Wire the pool into ``simulation`` and start generating traffic.

        Args:
            simulation: the simulation to submit transactions into.
            stop_time: simulation time after which no further submissions or
                occupancy samples happen (commits are still tracked).
        """
        if self._simulation is not None:
            raise RuntimeError("client pool is already attached to a simulation")
        if stop_time <= 0:
            raise ValueError("stop_time must be positive")
        self._simulation = simulation
        self._replica_ids = tuple(simulation.replica_ids)
        self._stop_time = stop_time
        simulation.add_commit_listener(self._on_commit)
        if self.is_open_loop:
            self._next_arrival = simulation.now + self.arrivals.next_interarrival(
                simulation.now, self._rng)
        else:
            for client_id in range(self.num_clients):
                self._schedule_client_submit(client_id, self._think_delay())
        if self.sample_interval > 0:
            simulation.schedule_external(self.sample_interval, self._sample_occupancy)

    def _think_delay(self) -> float:
        if self.think_time <= 0:
            return 0.0
        return self._rng.expovariate(1.0 / self.think_time)

    def _admit(self) -> None:
        """Submit every open-loop arrival stamped at or before the clock;
        runs first wherever a mempool or a count is read or changed."""
        if self._simulation is None:
            return
        horizon = min(self._simulation.now, self._stop_time)
        if self._next_arrival > horizon:
            return
        times, self._next_arrival = self.arrivals.arrivals_until(
            self._next_arrival, horizon, self._rng)
        # Open-loop client labels cycle with the tx id, starting at ``first``
        # without walking the labels before it.
        first = len(self._submit_times) % self.num_clients
        labels = chain(range(first, self.num_clients), range(first))
        self._submit(times, list(islice(cycle(labels), len(times))))

    def _schedule_client_submit(self, client_id: int, delay: float) -> None:
        assert self._simulation is not None
        if self._simulation.now + delay > self._stop_time:
            return
        self._simulation.schedule_external(delay, lambda: self._closed_loop_submit(client_id))

    def _closed_loop_submit(self, client_id: int) -> None:
        if self._submit([self._simulation.now], [client_id]):
            # The local mempool pushed back; the client retries after
            # another think period instead of deadlocking the loop.
            self._schedule_client_submit(
                client_id, max(self._think_delay(), MIN_RETRY_DELAY)
            )

    def _submit(self, times: List[float], client_ids: List[int]) -> int:
        """Submit one transaction per ``(time, client)`` pair, in order;
        returns how many the mempools rejected.

        Transactions are routed to the replicas round-robin by tx id, so a
        batch splits into one independent run per replica.
        """
        first, count = len(self._submit_times), len(times)
        self._submit_times.fromlist(times)
        self._commit_times.extend(_PENDING * count)
        self._client_ids.fromlist(client_ids)
        if self._uniform_size is not None:
            self._sizes.extend(array("I", [self._uniform_size]) * count)
        else:
            self._sizes.extend(map(len, self._encode(range(first, first + count))))
        end, stride = first + count, len(self._replica_ids)
        dropped: List[int] = []
        for start in range(first, min(first + stride, end)):
            mempool = self._mempool(self._replica_ids[start % stride])
            dropped.extend(mempool.add_run(range(start, end, stride)))
        self._dropped_ids.extend(sorted(dropped))
        return len(dropped)

    # ------------------------------------------------------------------ #
    # Commit tracking
    # ------------------------------------------------------------------ #

    def _on_commit(self, record: CommitRecord) -> None:
        if record.block.round > self._max_committed_round:
            self._max_committed_round = record.block.round
        # Every replica commits every block; the first one resolves the
        # batch, which then leaves the set, so the set stays bounded by the
        # number of in-flight proposals rather than growing with the chain.
        # Payloads built elsewhere (the empty-mempool tags) resolve nothing.
        batch = record.block.payload
        if batch not in self._payload_txs:
            return
        self._payload_txs.remove(batch)
        # Not already committed through an earlier proposal.
        newly = self._still_pending(batch, record.commit_time)
        self._committed += len(newly)
        if not self.is_open_loop:
            for tx_id in newly:
                self._schedule_client_submit(self._client_ids[tx_id],
                                             self._think_delay())

    def _still_pending(self, batch: TxBatch,
                       commit_time: Optional[float] = None) -> List[int]:
        """The ids of ``batch`` whose commit time is still NaN, in batch
        order; given ``commit_time``, they are stamped with it.

        One NaN mask and one masked store over numpy views of the columns.
        The views end with the call: an ``array`` exporting a buffer
        refuses to grow.
        """
        import numpy as np

        commit_times = np.frombuffer(self._commit_times, "d")
        ids = np.frombuffer(batch.tx_ids, "q")
        pending = ids[np.isnan(commit_times[ids])]
        if commit_time is not None:
            commit_times[pending] = commit_time
        return pending.tolist()

    def _sample_occupancy(self) -> None:
        assert self._simulation is not None
        self._admit()
        self._occupancy.append(
            OccupancySample.of(self._simulation.now, self._mempools))
        if self._simulation.now + self.sample_interval <= self._stop_time:
            self._simulation.schedule_external(self.sample_interval, self._sample_occupancy)

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    def records(self) -> List[TxRecord]:
        """All transaction records in submission order, materialised from
        the columns on each call: one ``TxRecord._make`` per transaction
        over one ``zip`` of them."""
        self._admit()
        count = len(self._submit_times)
        commit_times = [None if time != time else time  # NaN: pending
                        for time in self._commit_times]
        dropped = [False] * count
        for tx_id in self._dropped_ids:
            dropped[tx_id] = True
        # Round-robin routing: transaction i went to replica i mod n.
        return list(map(TxRecord._make, zip(
            range(count), self._client_ids, cycle(self._replica_ids),
            self._sizes, self._submit_times, commit_times, dropped)))

    def metrics(self, duration: float, warmup: float = 0.0) -> WorkloadMetrics:
        """Build the :class:`WorkloadMetrics` summary of the run so far
        (:meth:`WorkloadMetrics.from_columns` of the pool's columns).

        Args:
            duration: measured duration in seconds (excluding warm-up), the
                denominator of the goodput figures.
            warmup: transactions *submitted* before this time are excluded
                from all counts and latency percentiles.  Occupancy samples
                always cover the full run (the warm-up transient is part of
                the occupancy story).
        """
        self._admit()
        return WorkloadMetrics.from_columns(
            self._submit_times, self._commit_times, self._sizes,
            self._dropped_ids, self._occupancy, duration, warmup)
