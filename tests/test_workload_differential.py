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
the tests at the end pin how: lazy admission puts an arrival stamped ``t``
before anything that observes a mempool at ``t`` (the ``<=`` rule), while
the event queue ordered such a pair by which of the two had been scheduled
first.  Ties need float-exact stamps (a constant rate and a probe period
that are both binary fractions); none occurs anywhere on the grid.
"""

from __future__ import annotations

import pytest

from repro.eval.experiment import ExperimentConfig, run_experiment
from repro.net.faults import CrashSchedule, FaultPlan
from repro.net.latency import ConstantLatency
from repro.protocols.base import ProtocolParams
from repro.workload.clients import ClientPool
from repro.workload.spec import WorkloadSpec


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
    spec = _Spec(mode="open", mempool_capacity=capacity, seed=seed,
                 max_block_bytes=8_192 if constant_latency is None else 512,
                 **{"tx_size": 96, **ARRIVALS[arrival], **overrides})
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
