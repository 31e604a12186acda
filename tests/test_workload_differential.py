"""Lazy open-loop admission against an event-per-arrival reference.

:class:`repro.workload.clients.ClientPool` admits open-loop arrivals lazily
(no scheduler event per transaction).  :class:`EventPerArrivalPool` below is
the implementation it replaced, reduced to its arrival mechanism: every
arrival is an external event that submits one transaction and schedules the
next.  The two must agree — commit schedule, every metric, every record —
on a generated grid of protocol × latency × arrival kind × mempool capacity
× seed, including drop-heavy cells (every drop decision depends on the
mempool depth at that arrival) and constant-rate × constant-latency cells.

Exact timestamp ties are the one place the two are allowed to differ, and
the tie tests pin how: lazy admission puts an arrival stamped ``t`` before
anything that observes a mempool at ``t`` (the ``<=`` rule), while the
event queue ordered such a pair by which of the two had been scheduled
first.  Ties need float-exact stamps (a constant rate and a probe period
that are both binary fractions); none occurs anywhere on the grid.

The mempools queue transaction ids and format bytes only into a block.
:class:`BytesPathPool` is the mechanism they replaced — every transaction
encoded at submission and queued as bytes in a
:class:`repro.smr.mempool.Mempool` — and the last grid holds the two equal
under byte limits, drops, header-dominated sizes, reclaims and the closed
loop.  Commits are matched by the payload batch either way; the reference
checks that its batch renders exactly the bytes its mempool drained.
"""

from __future__ import annotations

import math
import random
from collections import deque

import pytest

from repro.eval.experiment import ExperimentConfig, run_experiment
from repro.net.faults import CrashSchedule, FaultPlan
from repro.net.latency import ConstantLatency
from repro.protocols.base import ProtocolParams
from repro.smr.mempool import Mempool
from repro.workload.arrivals import (
    ArrivalProcess,
    ConstantRate,
    DiurnalArrivals,
    FlashCrowdArrivals,
    PoissonArrivals,
)
from repro.workload.clients import ClientPool
from repro.workload.spec import WorkloadSpec
from repro.workload.transactions import TxBatch, encode_transaction


class EventPerArrivalPool(ClientPool):
    """Reference open loop: one ``schedule_external`` event per arrival."""

    def attach(self, simulation, stop_time):
        self._simulation = simulation
        self._replica_ids = tuple(simulation.replica_ids)
        self._stop_time = stop_time
        simulation.add_commit_listener(self._on_commit)
        # Before the probe, so that an arrival precedes a same-instant sample.
        self._schedule_next_arrival()
        if self.sample_interval > 0:
            simulation.schedule_external(self.sample_interval, self._sample_occupancy)

    def _admit(self):
        pass  # arrivals are events; nothing is ever pending admission

    def _schedule_next_arrival(self):
        now = self._simulation.now
        delay = self.arrivals.next_interarrival(now, self._rng)
        if now + delay <= self._stop_time:
            self._simulation.schedule_external(delay, self._on_arrival)

    def _on_arrival(self):
        self._submit([self._simulation.now],
                     [len(self._submit_times) % self.num_clients])
        self._schedule_next_arrival()


class _BytesMempool(Mempool):
    """A mempool of encoded transactions plus their ids in queue order."""

    def __init__(self, max_size, max_bytes, encode):
        super().__init__(max_size=max_size, max_bytes=max_bytes)
        self.tx_ids = deque()
        self._encode_one = encode

    def requeue(self, tx_ids):
        super().requeue([self._encode_one(tx_id) for tx_id in tx_ids])
        self.tx_ids.extendleft(reversed(tx_ids))


class BytesPathPool(ClientPool):
    """Reference mempool mechanism: each transaction is encoded when it is
    submitted, offered to its replica's :class:`Mempool` on its own, and a
    proposal joins the drained bytes."""

    def _mempool(self, replica_id):
        pool = self._mempools.get(replica_id)
        if pool is None:
            pool = self._mempools[replica_id] = _BytesMempool(
                self._mempool_capacity, self._mempool_max_bytes,
                lambda tx_id: encode_transaction(tx_id, self._client_ids[tx_id],
                                                 self.tx_size))
        return pool

    def _submit(self, times, client_ids):
        first = len(self._submit_times)
        encoded = [encode_transaction(tx_id, client_id, self.tx_size)
                   for tx_id, client_id in enumerate(client_ids, first)]
        self._submit_times.extend(times)
        self._commit_times.extend([math.nan] * len(times))
        self._client_ids.extend(client_ids)
        self._sizes.extend(map(len, encoded))
        dropped = []
        for tx_id, transaction in enumerate(encoded, first):
            mempool = self._mempool(self._replica_ids[tx_id % len(self._replica_ids)])
            if mempool.add(transaction):
                mempool.tx_ids.append(tx_id)
            else:
                dropped.append(tx_id)
        self._dropped_ids.extend(dropped)
        return len(dropped)

    def build_payload(self, proposer, round, max_bytes):
        self._admit()
        self.reclaim_uncommitted(proposer)
        mempool = self._mempool(proposer)
        transactions, total_bytes = mempool.drain_batch(max_bytes)
        if not transactions:
            return None
        tx_ids = [mempool.tx_ids.popleft() for _ in transactions]
        batch = TxBatch(tx_ids, map(self._client_ids.__getitem__, tx_ids),
                        self.tx_size, total_bytes)
        assert bytes(batch) == b"".join(transactions)
        self._payload_txs.add(batch)
        self._in_flight.setdefault(proposer, []).append((batch, round))
        return batch, total_bytes


class _Spec(WorkloadSpec):
    """A spec that remembers its pool and can build the reference instead."""

    pool_class = ClientPool

    def build_pool(self):
        self.pool = self.pool_class(
            arrivals=self.build_arrivals(), num_clients=self.num_clients,
            think_time=self.think_time, tx_size=self.tx_size,
            mempool_capacity=self.mempool_capacity,
            mempool_max_bytes=self.mempool_max_bytes,
            sample_interval=self.sample_interval, seed=self.seed,
        )
        return self.pool


ARRIVALS = {
    "poisson": dict(arrival="poisson", rate=300.0),
    "constant100": dict(arrival="constant", rate=100.0),
    "constant400": dict(arrival="constant", rate=400.0),
    "constant1000": dict(arrival="constant", rate=1000.0),
    "diurnal": dict(arrival="diurnal", rate=300.0, period=2.0),
    "flash-crowd": dict(arrival="flash-crowd", rate=50.0, burst_rate=1500.0,
                        burst_start=1.0, burst_duration=0.8),
}


def _observe(pool_class, protocol, constant_latency, arrival, capacity, seed,
             faults=None, **overrides):
    """Run one cell; return everything a user of the pool can observe.

    ``constant_latency`` is a one-way delay in seconds, or ``None`` for the
    jittered geo model."""
    # Sized so that either latency model drains roughly 300 tx/s: the
    # faster arrival kinds overflow a 50-entry mempool on both.
    spec = _Spec(**{"mode": "open", "mempool_capacity": capacity, "seed": seed,
                    "max_block_bytes": 8_192 if constant_latency is None else 512,
                    "tx_size": 96, **ARRIVALS[arrival], **overrides})
    spec.pool_class = pool_class
    config = ExperimentConfig(
        protocol, ProtocolParams(n=4, f=1, p=1, rank_delay=0.2), workload=spec,
        latency=(None if constant_latency is None
                 else ConstantLatency(constant_latency)),
        duration=3.0, warmup=0.5, seed=seed,
        faults=faults or FaultPlan.none(),
    )
    captured = []
    result = run_experiment(config, on_simulation=captured.append)
    commits = [(record.replica_id, record.block.id, record.commit_time,
                record.finalization_kind)
               for replica_id, records in sorted(captured[0].all_commits().items())
               for record in records]
    return {
        "commits": commits,
        "metrics": result.workload.to_dict(),
        "records": spec.pool.records(),
        "counts": (spec.pool.submitted, spec.pool.committed, spec.pool.dropped),
        # What is still pending at the end, as transaction bytes.
        "queues": {replica_id: (spec.pool.mempool(replica_id).peek(10**6),
                                spec.pool.mempool(replica_id).total_bytes)
                   for replica_id in range(4)},
        "external_events": captured[0].external_events_scheduled,
    }


@pytest.mark.parametrize("seed", (1, 7))
@pytest.mark.parametrize("capacity", (50, 10_000))
@pytest.mark.parametrize("arrival", sorted(ARRIVALS))
@pytest.mark.parametrize("constant_latency", (None, 0.01))
@pytest.mark.parametrize("protocol", ("banyan", "icc"))
def test_lazy_admission_matches_event_per_arrival(protocol, constant_latency,
                                                  arrival, capacity, seed):
    cell = (protocol, constant_latency, arrival, capacity, seed)
    lazy = _observe(ClientPool, *cell)
    reference = _observe(EventPerArrivalPool, *cell)
    assert lazy["metrics"]["submitted"] > 100
    assert lazy["metrics"]["committed"] > 0
    # The one intended difference: the arrivals are no longer events.
    probes = len(lazy["metrics"]["occupancy"])
    assert lazy.pop("external_events") == probes
    assert reference.pop("external_events") == probes + lazy["counts"][0]
    assert lazy == reference


def test_the_grid_sheds_load():
    """The capacity-50 cells really exercise depth-dependent drops."""
    observed = _observe(ClientPool, "banyan", 0.01, "constant1000", 50, 1)
    assert observed["metrics"]["dropped"] > 500


def test_tiny_transactions_and_byte_limits_match():
    """Encoded size exceeds ``tx_size`` (the id header dominates), and the
    mempool sheds by bytes rather than by count."""
    cell = ("banyan", 0.01, "constant400", 10_000, 3)
    overrides = dict(tx_size=4, mempool_max_bytes=60)
    lazy = _observe(ClientPool, *cell, **overrides)
    reference = _observe(EventPerArrivalPool, *cell, **overrides)
    sizes = {record.size for record in lazy["records"]}
    assert min(sizes) > 4 and len(sizes) > 1
    assert lazy["metrics"]["dropped"] > 0
    assert lazy["metrics"]["committed_tx_bytes"] == sum(
        record.size for record in lazy["records"]
        if record.commit_time is not None and record.submit_time >= 0.5)
    del lazy["external_events"], reference["external_events"]
    assert lazy == reference


def test_reclaim_after_leader_crash_matches(monkeypatch):
    """A proposer crashes holding drained batches and recovers: its next
    proposal re-queues them ahead of the arrivals admitted meanwhile."""
    reclaimed = []
    reclaim = ClientPool.reclaim_uncommitted
    monkeypatch.setattr(
        ClientPool, "reclaim_uncommitted",
        lambda pool, proposer: reclaimed.append(reclaim(pool, proposer)))
    faults = FaultPlan(crash_schedule=CrashSchedule(
        crash_times={0: 0.6}, recover_times={0: 1.6}))
    cell = ("banyan", None, "constant400", 10_000, 5)
    lazy = _observe(ClientPool, *cell, faults=faults)
    assert sum(reclaimed) > 100
    reference = _observe(EventPerArrivalPool, *cell, faults=faults)
    del lazy["external_events"], reference["external_events"]
    assert lazy == reference


def _tie_cell(pool_class, rate):
    """Constant ``rate`` against a 0.5 s probe: float-exact shared stamps."""
    observed = _observe(pool_class, "banyan", 0.125, "constant100", 10_000, 1,
                        rate=rate, sample_interval=0.5)
    del observed["external_events"]
    stamps = {record.submit_time for record in observed["records"]}
    samples = observed["metrics"].pop("occupancy")
    assert all(sample["time"] in stamps for sample in samples)  # ties, all
    return observed, [sample["transactions"] for sample in samples]


def test_tie_with_an_equally_old_probe_matches():
    """2 tx/s: each arrival and the probe it ties with were scheduled at the
    same instant, the arrival first — both pools sample after the arrival."""
    lazy, lazy_depths = _tie_cell(ClientPool, 2.0)
    reference, reference_depths = _tie_cell(EventPerArrivalPool, 2.0)
    assert lazy == reference
    assert lazy_depths == reference_depths


def test_tie_with_an_older_probe_counts_the_arrival():
    """8 tx/s: the event queue ran the probe (scheduled 0.5 s earlier)
    ahead of the arrival it ties with (scheduled 0.125 s earlier), so its
    samples missed that arrival; lazy admission counts it.  Nothing else —
    commits, records, counts — moves."""
    lazy, lazy_depths = _tie_cell(ClientPool, 8.0)
    reference, reference_depths = _tie_cell(EventPerArrivalPool, 8.0)
    assert lazy == reference
    assert lazy_depths == [depth + 1 for depth in reference_depths]


# --------------------------------------------------------------------- #
# Batched arrival sampling against one call per arrival
# --------------------------------------------------------------------- #


class _Alternating(ArrivalProcess):
    """A process without its own batch method: the base class's loop."""

    def next_interarrival(self, now, rng):
        return rng.choice((0.001, 0.0125))

    def rate(self, now):
        return 160.0


@pytest.mark.parametrize("arrivals", [
    PoissonArrivals(20_000.0), PoissonArrivals(3.0), ConstantRate(400.0),
    ConstantRate(7.0), DiurnalArrivals(300.0, period=2.0),
    FlashCrowdArrivals(50.0, burst_rate=1500.0, burst_start=1.0, burst_duration=0.8),
    _Alternating(),
], ids=lambda arrivals: type(arrivals).__name__)
def test_arrivals_until_equals_one_call_per_arrival(arrivals):
    rng_batch, rng_step = random.Random(5), random.Random(5)
    start = step_time = arrivals.next_interarrival(0.0, rng_step)
    rng_batch.setstate(rng_step.getstate())
    for horizon in (0.0, 0.0001, 0.37, 0.37, 1.2, 3.0):
        stamps, start = arrivals.arrivals_until(start, horizon, rng_batch)
        expected = []
        while step_time <= horizon:
            expected.append(step_time)
            step_time += arrivals.next_interarrival(step_time, rng_step)
        assert stamps == expected and start == step_time
        assert rng_batch.getstate() == rng_step.getstate()


# --------------------------------------------------------------------- #
# Id-queue mempools against the bytes path they replaced
# --------------------------------------------------------------------- #


def test_a_shorter_transaction_fits_where_a_longer_one_was_refused():
    """tx 10 (client 10) encodes to 9 bytes and tx 11 (client 0) to 8: under
    an 88-byte limit the first is refused after ten 8-byte transactions,
    and the second still fits."""
    queues = {}
    for pool_class in (ClientPool, BytesPathPool):
        pool = pool_class(arrivals=None, num_clients=11, tx_size=8,
                          mempool_max_bytes=88)
        pool._replica_ids = (0,)
        dropped = pool._submit([0.0] * 13, [tx_id % 11 for tx_id in range(13)])
        queues[pool_class] = (dropped, pool._dropped_ids,
                              pool.mempool(0).peek(99), pool.mempool(0).total_bytes)
    assert queues[ClientPool] == queues[BytesPathPool]
    dropped, dropped_ids, queued, total = queues[ClientPool]
    assert dropped_ids == [10, 12] and total == 88
    assert queued[-1] == encode_transaction(11, 0, 8)


@pytest.mark.parametrize("tx_size", (8, 64))
def test_every_block_budget_drains_what_the_bytes_path_drains(tx_size):
    """Budgets from below one transaction to above the whole queue, each
    boundary met exactly somewhere; sizes vary at 8 B (9 B for tx 10)."""
    for budget in range(1, 14 * max(tx_size, 9)):
        drained = {}
        for pool_class in (ClientPool, BytesPathPool):
            pool = pool_class(arrivals=None, num_clients=11, tx_size=tx_size)
            pool._replica_ids = (0,)
            pool._submit([0.0] * 13, [tx_id % 11 for tx_id in range(13)])
            built = pool.build_payload(0, 1, budget)
            if built is not None:
                built = (bytes(built[0]), built[1])
            drained[pool_class] = (built,
                                   pool.mempool(0).peek(99), pool.mempool(0).total_bytes)
        assert drained[ClientPool] == drained[BytesPathPool], budget


def test_mempool_limits_are_validated():
    for limits in (dict(mempool_capacity=0), dict(mempool_capacity=-1),
                   dict(mempool_max_bytes=0), dict(mempool_max_bytes=-5)):
        with pytest.raises(ValueError, match="mempool_capacity|mempool_max_bytes"):
            ClientPool(**limits)


#: ``(tx_size, mempool_max_bytes)``: equal sizes, equal sizes shed by bytes,
#: header-dominated sizes (they vary with the digit count), and those shed
#: by bytes — where a later, shorter transaction can still fit.
SIZE_LIMITS = [(96, None), (96, 1_500), (8, None), (8, 200)]


@pytest.mark.parametrize("tx_size, max_bytes", SIZE_LIMITS)
@pytest.mark.parametrize("arrival, capacity", [
    ("poisson", 10_000), ("constant1000", 50), ("flash-crowd", 80)])
@pytest.mark.parametrize("constant_latency", (None, 0.01))
def test_id_queues_match_the_bytes_path(constant_latency, arrival, capacity,
                                        tx_size, max_bytes):
    cell = ("banyan", constant_latency, arrival, capacity, 3)
    overrides = dict(tx_size=tx_size, mempool_max_bytes=max_bytes)
    ids = _observe(ClientPool, *cell, **overrides)
    reference = _observe(BytesPathPool, *cell, **overrides)
    assert ids["metrics"]["committed"] > 0
    if max_bytes is not None and arrival != "poisson":
        assert ids["metrics"]["dropped"] > 0
    if tx_size == 8:
        assert len({record.size for record in ids["records"]}) > 1
    assert ids == reference


@pytest.mark.parametrize("tx_size, max_bytes", SIZE_LIMITS)
def test_reclaim_after_a_leader_crash_matches_the_bytes_path(monkeypatch, tx_size,
                                                             max_bytes):
    reclaimed = []
    reclaim = ClientPool.reclaim_uncommitted
    monkeypatch.setattr(
        ClientPool, "reclaim_uncommitted",
        lambda pool, proposer: reclaimed.append(reclaim(pool, proposer)) or reclaimed[-1])
    faults = FaultPlan(crash_schedule=CrashSchedule(
        crash_times={0: 0.6}, recover_times={0: 1.6}))
    cell = ("banyan", None, "constant400", 10_000, 5)
    overrides = dict(tx_size=tx_size, mempool_max_bytes=max_bytes)
    ids = _observe(ClientPool, *cell, faults=faults, **overrides)
    assert sum(reclaimed) > 50
    reference = _observe(BytesPathPool, *cell, faults=faults, **overrides)
    assert ids == reference


@pytest.mark.parametrize("tx_size, max_bytes", SIZE_LIMITS)
@pytest.mark.parametrize("capacity", (4, 10_000))
def test_closed_loop_matches_the_bytes_path(capacity, tx_size, max_bytes):
    cell = ("icc", 0.01, "poisson", capacity, 2)
    overrides = dict(mode="closed", num_clients=24, think_time=0.05,
                     tx_size=tx_size, mempool_max_bytes=max_bytes)
    ids = _observe(ClientPool, *cell, **overrides)
    reference = _observe(BytesPathPool, *cell, **overrides)
    assert ids["metrics"]["committed"] > 0
    assert ids == reference
