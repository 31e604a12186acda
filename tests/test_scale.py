"""Tests for the scaling work: WAN matrix, event batching, drain batching.

Four seams of the n=256 scaling PR are pinned here:

* the measured inter-region RTT matrix and the :class:`WanMatrixLatency`
  model built on it (lookup, symmetry, fallback, jitter bounds),
* its wiring through :class:`ExperimentConfig` serialisation — including that default-``geo`` configs keep their
  serialised shape (and hence their result-cache hashes),
* determinism of the batched event loop: ``run()`` (which groups
  same-instant broadcast deliveries into one heap event) must produce
  exactly the same execution as the one-event-at-a-time ``step()`` path,
* the topology's cached derived lookups and the mempool's one-call
  ``drain_batch`` proposal builder.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.eval.experiment import ExperimentConfig, run_experiment
from repro.eval.scenarios import plan_scale_sweep, run_figure
from repro.net.faults import CrashSchedule, FaultPlan
from repro.net.latency import (
    ConstantLatency,
    GeoLatency,
    WanMatrixLatency,
    available_latency_models,
    build_latency_model,
)
from repro.net.topology import (
    AWS_REGIONS,
    AWS_REGION_RTT_MS,
    Datacenter,
    Topology,
    four_global_datacenters,
    region_rtt_ms,
    topology_by_name,
)
from repro.protocols.base import ProtocolParams
from repro.protocols.registry import create_replicas
from repro.runtime.simulator import NetworkConfig, Simulation
from repro.runtime.trace import attach_compute_trace, attach_network_trace
from repro.smr.mempool import Mempool
from repro.workload.clients import ClientPool
from repro.workload.spec import WorkloadSpec
from tests.conftest import PerCopySimulation


class TestRegionRttMatrix:
    def test_matrix_is_symmetric_and_positive(self):
        for (a, b), rtt in AWS_REGION_RTT_MS.items():
            assert rtt > 0
            assert AWS_REGION_RTT_MS[(b, a)] == rtt

    def test_matrix_regions_are_catalogue_entries(self):
        for a, b in AWS_REGION_RTT_MS:
            assert a in AWS_REGIONS and b in AWS_REGIONS

    def test_lookup_helper(self):
        rtt = region_rtt_ms("us-east-1", "eu-west-1")
        assert rtt is not None and 50 < rtt < 150
        assert region_rtt_ms("eu-west-1", "us-east-1") == rtt
        assert region_rtt_ms("us-east-1", "nowhere-1") is None


class TestWanMatrixLatency:
    def test_cross_region_nominal_is_half_the_rtt(self):
        topology = four_global_datacenters(4)
        model = WanMatrixLatency(topology, jitter=0.0)
        a, b = 0, 1
        rtt = region_rtt_ms(topology.datacenter(a).name,
                            topology.datacenter(b).name)
        assert model.delay(a, b, random.Random(0)) == pytest.approx(rtt / 2000.0)

    def test_unmeasured_pair_falls_back_to_distance(self):
        offgrid = Datacenter("測試-offgrid", 10.0, 10.0)
        topology = Topology([AWS_REGIONS["us-east-1"], offgrid])
        model = WanMatrixLatency(topology, jitter=0.0)
        expected = 0.002 + topology.distance_km(0, 1) / 100_000.0
        assert model.delay(0, 1, random.Random(0)) == pytest.approx(expected)

    def test_jitter_bounds_and_expectation(self):
        topology = four_global_datacenters(4)
        model = WanMatrixLatency(topology, jitter=0.10)
        nominal = WanMatrixLatency(topology, jitter=0.0).delay(0, 1, random.Random(0))
        rng = random.Random(42)
        draws = [model.delay(0, 1, rng) for _ in range(500)]
        assert all(nominal <= d <= nominal * 1.10 for d in draws)
        assert model.expected_delay(0, 1) == pytest.approx(nominal * 1.05)

    def test_registry_builds_by_name(self):
        topology = four_global_datacenters(4)
        assert isinstance(build_latency_model("wan-matrix", topology),
                          WanMatrixLatency)
        assert isinstance(build_latency_model("geo", topology), GeoLatency)
        assert available_latency_models() == ["geo", "wan-matrix"]
        with pytest.raises((KeyError, ValueError)):
            build_latency_model("bogus", topology)


class TestLatencyModelSerialization:
    def test_config_round_trips_wan_matrix(self):
        config = ExperimentConfig(protocol="banyan",
                                  params=ProtocolParams(n=4, f=1, p=1),
                                  topology="global4", latency_model="wan-matrix")
        data = config.to_dict()
        assert data["latency_model"] == "wan-matrix"
        assert ExperimentConfig.from_dict(data).latency_model == "wan-matrix"

    def test_default_geo_keeps_the_serialised_shape(self):
        # Pre-existing configs must keep their content hashes: the key only
        # appears when the model is overridden.
        config = ExperimentConfig(protocol="banyan",
                                  params=ProtocolParams(n=4, f=1, p=1))
        assert "latency_model" not in config.to_dict()

    def test_wan_matrix_run_executes(self):
        config = ExperimentConfig(protocol="banyan",
                                  params=ProtocolParams(n=4, f=1, p=1),
                                  duration=4.0, warmup=0.0, seed=2,
                                  latency_model="wan-matrix")
        result = run_experiment(config)
        assert result.metrics.summary()["committed_blocks"] > 0


class TestScaleSweepPlan:
    def test_specs_are_million_user_open_loop_wan_and_resilient(self):
        plan = plan_scale_sweep(replica_counts=(64, 256))
        assert [spec.params.n for spec in plan.specs] == [64, 256]
        for spec in plan.specs:
            n, f, p = spec.params.n, spec.params.f, spec.params.p
            # The fast path needs n >= 3f + 2p + 1 at every benchmarked size.
            assert n >= 3 * f + 2 * p + 1
            assert spec.workload.mode == "open"
            assert spec.workload.num_clients == 1_000_000
            assert spec.workload.rate == 20_000.0
            assert isinstance(spec.workload.build_pool(), ClientPool)
            assert spec.latency_model == "wan-matrix"
            # The whole plan must survive the cache serialisation
            # (content equality: FaultPlan instances compare by identity).
            assert ExperimentConfig.from_dict(spec.to_dict()).to_dict() == spec.to_dict()

    def test_small_sweep_commits_client_transactions(self):
        # At n=16 the sweep's 20k tx/s keeps every leader's FIFO mempool
        # longer than one block, so within 1 s only the oldest transactions
        # commit: the run is measured from t=0, since a 0.25 s warm-up cut
        # would exclude every one of them.
        figure = run_figure(plan_scale_sweep(replica_counts=(16,), duration=1.0,
                                             warmup=0.0))
        (result,) = figure.results
        workload = result.workload
        assert result.config.params.n == 16
        assert workload.submitted > 10_000
        assert workload.committed > 0 and workload.goodput_tx_per_s > 0
        assert workload.p95_latency >= workload.p50_latency > 0


class TestBatchedEventLoopDeterminism:
    """``run()`` batches same-instant deliveries; ``step()`` never does.

    Under a constant-latency network every broadcast's copies arrive at the
    same instant, so the batched path exercises its mbatch grouping on
    every round — the executions must nevertheless be indistinguishable.
    """

    def _simulation(self) -> Simulation:
        params = ProtocolParams(n=4, f=1, p=1, rank_delay=0.2)
        protocols = create_replicas("banyan", params)
        network = NetworkConfig(latency=ConstantLatency(0.03),
                                faults=FaultPlan.none(), seed=7)
        return Simulation(protocols, network)

    @staticmethod
    def _commit_digest(simulation: Simulation):
        return [
            (record.replica_id, record.block.round, record.block.id,
             record.commit_time, record.finalization_kind)
            for replica_id in range(4)
            for record in simulation.commits_for(replica_id)
        ]

    def test_run_matches_single_stepping(self):
        batched = self._simulation()
        batched.run(until=5.0)

        stepped = self._simulation()
        stepped.start()
        while stepped.now <= 5.0 and stepped.step():
            pass

        assert self._commit_digest(batched) == self._commit_digest(stepped)
        assert batched.messages_sent == stepped.messages_sent


class TestSpreadBatchDeterminism:
    """Jittered broadcasts are chained through single "sbatch" heap events.

    Under a jittered latency model arrival instants are pairwise distinct,
    so ``run()`` schedules each broadcast as one chained event instead of n
    per-copy pushes — the execution must nevertheless be indistinguishable
    from the per-copy pipeline (:class:`PerCopySimulation`) and from
    one-event-at-a-time ``step()``, and attaching tracers must not change
    it at all.
    """

    #: Fault plans for the per-copy reference test: none (the row / array
    #: shapes), and a crash window plus random loss (the pairs path, with
    #: drop draws interleaved between propagation draws).
    FAULTS = {
        "none": FaultPlan.none,
        "crash-drops": lambda: FaultPlan(
            crash_schedule=CrashSchedule(crash_times={3: 1.0},
                                         recover_times={3: 3.0}),
            drop_probability=0.05),
    }

    #: Latency models for the observation test: jittered (``sbatch``
    #: chains) and jitter-free (``mbatch`` groups, same-instant ties).
    LATENCIES = {
        "geo-jitter": lambda: GeoLatency(four_global_datacenters(7),
                                         jitter=0.05),
        "const": lambda: ConstantLatency(0.05),
    }

    @classmethod
    def _simulation(cls, compute: str = "zero", transport: str = "direct",
                    faults: str = "none", latency: str = "geo-jitter",
                    simulation=Simulation) -> Simulation:
        params = ProtocolParams(n=7, f=1, p=1, rank_delay=0.2)
        protocols = create_replicas("banyan", params)
        network = NetworkConfig(latency=cls.LATENCIES[latency](),
                                faults=cls.FAULTS[faults](), seed=11,
                                compute=compute, transport=transport,
                                relays=3)
        return simulation(protocols, network)

    @staticmethod
    def _commit_digest(simulation: Simulation):
        return [
            (record.replica_id, record.block.round, record.block.id,
             record.commit_time, record.finalization_kind)
            for replica_id in range(7)
            for record in simulation.commits_for(replica_id)
        ]

    def test_uses_sbatch_not_mbatch_under_jitter(self):
        simulation = self._simulation()
        simulation.run(until=5.0)
        counts = simulation.event_counts()
        assert counts["sbatch"] > 0
        assert counts["sbatch_members"] > counts["sbatch"]
        assert counts["mbatch"] == 0

    def test_zero_jitter_still_groups(self):
        params = ProtocolParams(n=7, f=1, p=1, rank_delay=0.2)
        protocols = create_replicas("banyan", params)
        network = NetworkConfig(latency=ConstantLatency(0.03),
                                faults=FaultPlan.none(), seed=11)
        simulation = Simulation(protocols, network)
        simulation.run(until=5.0)
        counts = simulation.event_counts()
        assert counts["mbatch"] > 0
        assert counts["sbatch"] == 0

    @pytest.mark.parametrize("faults", sorted(FAULTS))
    @pytest.mark.parametrize("transport", ["direct", "contended", "relay"])
    @pytest.mark.parametrize("compute", ["zero", "crypto"])
    def test_matches_per_copy_reference(self, compute, transport, faults):
        chained = self._simulation(compute, transport, faults)
        chained.run(until=5.0)

        reference = self._simulation(compute, transport, faults,
                                     simulation=PerCopySimulation)
        reference.run(until=5.0)
        assert chained.event_counts()["sbatch"] > 0
        assert reference.event_counts()["sbatch"] == 0

        assert self._commit_digest(chained) == self._commit_digest(reference)
        assert chained.messages_sent == reference.messages_sent
        assert chained.messages_delivered == reference.messages_delivered
        assert chained.messages_dropped == reference.messages_dropped
        assert chained.compute_stats() == reference.compute_stats()
        assert chained.transport_stats() == reference.transport_stats()

    @pytest.mark.parametrize("faults", sorted(FAULTS))
    @pytest.mark.parametrize("transport", ["direct", "contended", "relay"])
    @pytest.mark.parametrize("latency", sorted(LATENCIES))
    @pytest.mark.parametrize("compute", ["zero", "crypto"])
    def test_observing_leaves_the_run_unchanged(self, compute, latency,
                                                transport, faults):
        # 4 s covers the crash window, the recovery and its aftermath.
        plain = self._simulation(compute, transport, faults, latency)
        plain.run(until=4.0)

        traced = self._simulation(compute, transport, faults, latency)
        network_log = attach_network_trace(traced)
        compute_log = attach_compute_trace(traced)
        traced.run(until=4.0)
        assert len(network_log) > 0
        assert (len(compute_log) > 0) == (compute != "zero")

        assert self._commit_digest(traced) == self._commit_digest(plain)
        assert traced.messages_sent == plain.messages_sent
        assert traced.messages_delivered == plain.messages_delivered
        assert traced.messages_dropped == plain.messages_dropped
        assert traced.event_counts() == plain.event_counts()
        assert traced.compute_stats() == plain.compute_stats()
        assert traced.transport_stats() == plain.transport_stats()
        assert plain.commits_for(0)

    @pytest.mark.parametrize("compute", ["zero", "crypto"])
    def test_run_matches_single_stepping(self, compute):
        batched = self._simulation(compute)
        batched.run(until=5.0)

        stepped = self._simulation(compute)
        stepped.start()
        while stepped.now <= 5.0 and stepped.step():
            pass

        assert self._commit_digest(batched) == self._commit_digest(stepped)
        # (Not messages_delivered: the stepping loop checks the horizon
        # before each step, so it delivers the first event past 5.0 too —
        # the same artifact the mbatch determinism test above tolerates.)
        assert batched.messages_sent == stepped.messages_sent

    def test_budgeted_run_resumes_mid_chain(self):
        # Tiny budgets force run() to stop between members of a chain and
        # resume on the next call.  Both sides are driven with the same
        # call pattern against an infinite horizon (a finite ``until``
        # clamps the clock forward at every return, which is not a
        # resumable pattern for any event kind).
        def drive(simulation):
            for _ in range(2000):
                simulation.run(until=math.inf, max_events=3)

        chained = self._simulation()
        drive(chained)
        assert chained.event_counts()["sbatch"] > 0

        reference = self._simulation(simulation=PerCopySimulation)
        drive(reference)

        assert self._commit_digest(chained) == self._commit_digest(reference)
        assert chained.messages_delivered == reference.messages_delivered
        assert chained.now == reference.now


class TestTopologyCaches:
    def test_replicas_in_matches_placement(self):
        topology = topology_by_name("worldwide", 19)
        seen = []
        for datacenter in topology.datacenters():
            members = topology.replicas_in(datacenter.name)
            assert members == [i for i in topology.replica_ids
                               if topology.datacenter(i).name == datacenter.name]
            seen.extend(members)
        assert sorted(seen) == topology.replica_ids

    def test_distance_is_symmetric_and_stable(self):
        topology = topology_by_name("global4", 8)
        first = topology.distance_km(0, 5)
        assert topology.distance_km(5, 0) == first
        assert topology.distance_km(0, 5) == first
        assert topology.distance_km(3, 3) == 0.0


class TestMempoolDrainBatch:
    @staticmethod
    def _filled(transactions) -> Mempool:
        mempool = Mempool(max_size=1000)
        for transaction in transactions:
            assert mempool.add(transaction)
        return mempool

    def test_matches_repeated_take(self):
        transactions = [bytes([i]) * (20 + i) for i in range(10)]
        drained = self._filled(transactions)
        taken = self._filled(transactions)
        batch, total = drained.drain_batch(100)
        assert batch == taken.take(100)
        assert total == sum(len(tx) for tx in batch)
        assert len(drained) == len(taken)

    def test_respects_max_count(self):
        mempool = self._filled([b"x" * 10] * 8)
        batch, total = mempool.drain_batch(10_000, max_count=3)
        assert len(batch) == 3 and total == 30
        assert len(mempool) == 5

    def test_oversized_head_is_left_in_place(self):
        mempool = self._filled([b"y" * 500])
        batch, total = mempool.drain_batch(100)
        assert batch == [] and total == 0
        assert len(mempool) == 1


class TestCliLatencyModel:
    def test_run_accepts_the_flag(self, capsys):
        from repro.cli import main
        code = main(["run", "--protocol", "banyan", "--n", "4", "--f", "1",
                     "--p", "1", "--duration", "3", "--payload", "1000",
                     "--latency-model", "wan-matrix"])
        assert code == 0
        assert "banyan" in capsys.readouterr().out

    def test_unknown_model_is_rejected_at_parse_time(self, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit):
            main(["run", "--latency-model", "bogus"])
        assert "--latency-model" in capsys.readouterr().err
