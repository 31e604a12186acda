"""Unit tests for the network substrate: topology, latency, bandwidth, faults."""

from __future__ import annotations

import random

import pytest

from repro.net.bandwidth import BandwidthModel
from repro.net.faults import CrashSchedule, FaultPlan, LossBurst, PartitionPlan
from repro.net.latency import ConstantLatency, GeoLatency, MatrixLatency, UniformLatency
from repro.net.topology import (
    AWS_REGIONS,
    Topology,
    four_global_datacenters,
    four_us_datacenters,
    great_circle_km,
    worldwide_datacenters,
)


class TestTopology:
    def test_four_global_spread_is_5554(self):
        topology = four_global_datacenters(19)
        counts = sorted(len(topology.replicas_in(dc.name)) for dc in topology.datacenters())
        assert counts == [4, 5, 5, 5]

    def test_four_global_with_four_replicas_is_one_each(self):
        topology = four_global_datacenters(4)
        assert all(len(topology.replicas_in(dc.name)) == 1 for dc in topology.datacenters())

    def test_worldwide_uses_19_distinct_datacenters(self):
        topology = worldwide_datacenters(19)
        assert len(topology.datacenters()) == 19

    def test_us_topology_uses_us_regions_only(self):
        topology = four_us_datacenters(19)
        assert all(dc.name.startswith("us-") for dc in topology.datacenters())

    def test_colocated_and_distance(self):
        topology = four_global_datacenters(19)
        assert topology.colocated(0, 4)  # round-robin placement: 0 and 4 share a DC
        assert topology.distance_km(0, 4) >= 0
        assert not topology.colocated(0, 1)
        assert topology.distance_km(0, 1) > 1000

    def test_great_circle_is_symmetric_and_zero_on_self(self):
        a = AWS_REGIONS["us-east-1"]
        b = AWS_REGIONS["ap-southeast-2"]
        assert great_circle_km(a, a) == pytest.approx(0.0)
        assert great_circle_km(a, b) == pytest.approx(great_circle_km(b, a))

    def test_known_distance_sanity(self):
        # Ireland to Frankfurt is roughly 1,000 km.
        distance = great_circle_km(AWS_REGIONS["eu-west-1"], AWS_REGIONS["eu-central-1"])
        assert 800 < distance < 1400

    def test_empty_topology_rejected(self):
        with pytest.raises(ValueError):
            Topology([])

    def test_replica_ids(self):
        assert four_global_datacenters(5).replica_ids == [0, 1, 2, 3, 4]


class TestLatencyModels:
    def test_constant_latency(self):
        model = ConstantLatency(0.1)
        rng = random.Random(0)
        assert model.delay(0, 1, rng) == pytest.approx(0.1)
        assert model.expected_delay(0, 1) == pytest.approx(0.1)
        assert model.delay(0, 0, rng) < 0.1  # self delivery is fast

    def test_constant_latency_rejects_negative(self):
        with pytest.raises(ValueError):
            ConstantLatency(-1)

    def test_uniform_latency_range(self):
        model = UniformLatency(0.01, 0.02)
        rng = random.Random(1)
        samples = [model.delay(0, 1, rng) for _ in range(100)]
        assert all(0.01 <= s <= 0.02 for s in samples)
        assert model.expected_delay(0, 1) == pytest.approx(0.015)

    def test_uniform_latency_validation(self):
        with pytest.raises(ValueError):
            UniformLatency(0.02, 0.01)

    def test_matrix_latency_lookup_and_symmetry(self):
        model = MatrixLatency({(0, 1): 0.05}, default_s=0.2)
        rng = random.Random(0)
        assert model.delay(0, 1, rng) == pytest.approx(0.05)
        assert model.delay(1, 0, rng) == pytest.approx(0.05)
        assert model.delay(0, 2, rng) == pytest.approx(0.2)

    def test_matrix_latency_jitter_bounds(self):
        model = MatrixLatency({(0, 1): 0.1}, jitter=0.5)
        rng = random.Random(0)
        samples = [model.delay(0, 1, rng) for _ in range(100)]
        assert all(0.1 <= s <= 0.15 + 1e-9 for s in samples)

    def test_geo_latency_scales_with_distance(self):
        topology = worldwide_datacenters(19)
        model = GeoLatency(topology, jitter=0.0)
        # Replica 0 (us-east-1) to replica 1 (us-east-2) is much closer than
        # to Sydney (ap-southeast-2, index 16 in the worldwide list).
        near = model.expected_delay(0, 1)
        far = model.expected_delay(0, 16)
        assert near < far
        assert far > 0.05  # trans-pacific one-way delay tens of ms

    def test_geo_latency_colocated_is_local(self):
        topology = four_global_datacenters(19)
        model = GeoLatency(topology, jitter=0.0)
        assert model.expected_delay(0, 4) < 0.005

    def test_geo_latency_jitter_adds_delay(self):
        topology = four_global_datacenters(4)
        model = GeoLatency(topology, jitter=0.2)
        rng = random.Random(0)
        nominal = GeoLatency(topology, jitter=0.0).expected_delay(0, 1)
        samples = [model.delay(0, 1, rng) for _ in range(50)]
        assert all(nominal <= s <= nominal * 1.2 + 1e-9 for s in samples)

    def test_max_expected_delay(self):
        topology = four_global_datacenters(4)
        model = GeoLatency(topology, jitter=0.0)
        worst = model.max_expected_delay([0, 1, 2, 3])
        assert worst == max(
            model.expected_delay(a, b) for a in range(4) for b in range(4) if a != b
        )


class TestBandwidth:
    def test_transfer_time_scales_with_size(self):
        model = BandwidthModel(wan_bytes_per_s=1_000_000, per_message_overhead_s=0.0)
        assert model.transfer_time(0, 1, 500_000) == pytest.approx(0.5)

    def test_lan_is_faster_than_wan(self):
        topology = four_global_datacenters(19)
        model = BandwidthModel(topology=topology)
        assert model.transfer_time(0, 4, 10_000_000) < model.transfer_time(0, 1, 10_000_000)

    def test_overhead_applies_to_empty_messages(self):
        model = BandwidthModel(per_message_overhead_s=0.001)
        assert model.transfer_time(0, 1, 0) == pytest.approx(0.001)

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            BandwidthModel().transfer_time(0, 1, -1)

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            BandwidthModel(wan_bytes_per_s=0)


class TestFaults:
    def test_crash_schedule(self):
        schedule = CrashSchedule(crash_times={1: 5.0, 2: 0.0})
        assert schedule.is_crashed(2, 0.0)
        assert not schedule.is_crashed(1, 4.9)
        assert schedule.is_crashed(1, 5.0)
        assert schedule.crashed_replicas(10.0) == {1, 2}
        assert not schedule.is_crashed(0, 100.0)

    def test_crashed_from_start(self):
        plan = FaultPlan.with_crashed([0, 3])
        assert plan.is_crashed(0, 0.0)
        assert plan.is_crashed(3, 1.0)
        assert not plan.is_crashed(1, 1.0)
        assert plan.correct_replicas([0, 1, 2, 3]) == [1, 2]

    def test_drop_probability_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_probability=1.0)

    def test_random_drops_respect_probability(self):
        plan = FaultPlan(drop_probability=0.5)
        rng = random.Random(0)
        drops = sum(plan.should_drop(0, 1, 0.0, rng) for _ in range(1000))
        assert 350 < drops < 650

    def test_crashed_endpoints_drop_messages(self):
        plan = FaultPlan.with_crashed([2])
        rng = random.Random(0)
        assert plan.should_drop(2, 1, 0.0, rng)
        assert plan.should_drop(1, 2, 0.0, rng)
        assert not plan.should_drop(0, 1, 0.0, rng)

    def test_partition_delays_cross_group_messages_during_window(self):
        partitions = PartitionPlan.single(1.0, 2.0, [0, 1], [2, 3])
        plan = FaultPlan(partitions=partitions)
        rng = random.Random(0)
        # Partitions delay rather than drop (asynchrony before GST).
        assert not plan.should_drop(0, 2, 1.5, rng)
        assert plan.partition_release(0, 2, 1.5) == pytest.approx(2.0)
        assert plan.partition_release(3, 1, 1.5) == pytest.approx(2.0)
        assert plan.partition_release(0, 1, 1.5) is None
        assert plan.partition_release(0, 2, 2.5) is None
        assert plan.partition_release(0, 2, 0.5) is None

    def test_back_to_back_partition_windows_release_after_the_last(self):
        from repro.net.faults import PartitionWindow

        windows = (
            PartitionWindow(start=1.0, end=2.0, group_a=frozenset({0}), group_b=frozenset({1})),
            PartitionWindow(start=2.0, end=3.0, group_a=frozenset({0}), group_b=frozenset({1})),
        )
        plan = FaultPlan(partitions=PartitionPlan(windows=windows))
        assert plan.partition_release(0, 1, 1.5) == pytest.approx(3.0)

    def test_none_plan_drops_nothing(self):
        plan = FaultPlan.none()
        rng = random.Random(0)
        assert not any(plan.should_drop(a, b, 0.0, rng) for a in range(4) for b in range(4))


class TestHalfOpenBoundaries:
    """Every fault interval is half-open ``[start, end)`` — pinned here.

    The same predicate drives the send-time check (``should_drop``) and
    the delivery-time check (the simulator re-testing the receiver), so
    boundary instants behave symmetrically on both sides.
    """

    def test_crash_window_is_half_open(self):
        schedule = CrashSchedule(crash_times={1: 5.0}, recover_times={1: 8.0})
        assert not schedule.is_crashed(1, 4.999)
        assert schedule.is_crashed(1, 5.0)       # crashed at exactly the start
        assert schedule.is_crashed(1, 7.999)
        assert not schedule.is_crashed(1, 8.0)   # alive at exactly the recovery
        assert schedule.crashed_replicas(5.0) == {1}
        assert schedule.crashed_replicas(8.0) == frozenset()
        assert schedule.recover_time(1) == 8.0
        assert schedule.recover_time(0) is None

    def test_send_and_receive_checks_agree_at_the_boundary(self):
        plan = FaultPlan(crash_schedule=CrashSchedule(
            crash_times={2: 5.0}, recover_times={2: 8.0}))
        rng = random.Random(0)
        # Send side at the crash instant: both directions drop.
        assert plan.should_drop(2, 1, 5.0, rng)
        assert plan.should_drop(1, 2, 5.0, rng)
        # Receive side uses the same predicate: crashed at 5.0, up at 8.0.
        assert plan.is_crashed(2, 5.0)
        assert not plan.is_crashed(2, 8.0)
        assert not plan.should_drop(1, 2, 8.0, rng)

    def test_partition_window_is_half_open(self):
        partitions = PartitionPlan.single(1.0, 2.0, [0], [1])
        plan = FaultPlan(partitions=partitions)
        assert not plan.partitions.blocks(0, 1, 0.999)
        assert plan.partitions.blocks(0, 1, 1.0)    # blocked at exactly start
        assert plan.partitions.blocks(0, 1, 1.999)
        assert not plan.partitions.blocks(0, 1, 2.0)  # free at exactly end
        # A held message is released at exactly the window end.
        assert plan.partition_release(0, 1, 1.0) == pytest.approx(2.0)
        assert plan.partition_release(0, 1, 2.0) is None

    def test_loss_burst_window_is_half_open(self):
        burst = LossBurst(start=1.0, end=2.0, probability=1.0)
        assert not burst.covers(0.999)
        assert burst.covers(1.0)
        assert burst.covers(1.999)
        assert not burst.covers(2.0)
        plan = FaultPlan(loss_bursts=(burst,))
        rng = random.Random(0)
        assert plan.should_drop(0, 1, 1.0, rng)
        assert not plan.should_drop(0, 1, 2.0, rng)

    def test_recovery_validation(self):
        with pytest.raises(ValueError):
            CrashSchedule(crash_times={1: 5.0}, recover_times={1: 5.0})
        with pytest.raises(ValueError):
            CrashSchedule(recover_times={1: 5.0})

    @pytest.mark.parametrize("crash_time", (float("nan"), float("inf"), -1.0))
    def test_a_crash_time_must_be_finite_and_non_negative(self, crash_time):
        # NaN used to be accepted and then read as a crash at 0.
        with pytest.raises(ValueError, match=(
                r"^crash time of replica 3 must be finite and non-negative, "
                rf"got {crash_time!r}$")):
            CrashSchedule(crash_times={3: crash_time})

    @pytest.mark.parametrize("recover_time", (float("nan"), float("inf")))
    def test_a_recovery_time_must_be_finite(self, recover_time):
        # NaN used to be accepted and then erased the crash altogether.
        with pytest.raises(ValueError, match=(
                r"^recovery time of replica 3 must be finite, "
                rf"got {recover_time!r}$")):
            CrashSchedule(crash_times={3: 1.0}, recover_times={3: recover_time})

    def test_recovered_replica_counts_as_correct(self):
        plan = FaultPlan(crash_schedule=CrashSchedule(
            crash_times={0: 1.0, 1: 1.0}, recover_times={0: 2.0}))
        assert plan.correct_replicas([0, 1, 2]) == [0, 2]
        assert plan.correct_replicas([0, 1, 2], at_time=1.5) == [2]

    def test_loss_burst_validation(self):
        with pytest.raises(ValueError):
            LossBurst(start=1.0, end=1.0, probability=0.5)
        with pytest.raises(ValueError):
            LossBurst(start=1.0, end=2.0, probability=1.5)

    def test_burst_probability_only_applies_inside_window(self):
        plan = FaultPlan(loss_bursts=(LossBurst(1.0, 2.0, 0.5),))
        rng = random.Random(0)
        inside = sum(plan.should_drop(0, 1, 1.5, rng) for _ in range(1000))
        assert 350 < inside < 650
        assert not any(plan.should_drop(0, 1, 0.5, rng) for _ in range(100))

    def test_recovery_and_bursts_round_trip_and_stay_off_legacy_forms(self):
        plan = FaultPlan(
            crash_schedule=CrashSchedule(crash_times={1: 2.0},
                                         recover_times={1: 4.0}),
            loss_bursts=(LossBurst(1.0, 2.0, 0.25),),
        )
        rebuilt = FaultPlan.from_dict(plan.to_dict())
        assert rebuilt.to_dict() == plan.to_dict()
        assert rebuilt.crash_schedule.recover_times == {1: 4.0}
        assert rebuilt.loss_bursts == plan.loss_bursts
        # A plan without the new fault kinds serialises exactly as before,
        # keeping existing content hashes and cached results valid.
        legacy = FaultPlan.with_crashed([0])
        assert set(legacy.to_dict()) == {"crash_times", "drop_probability",
                                         "partitions"}


class TestCrashRecoveryInSimulation:
    """End-to-end crash/recovery semantics through the simulator."""

    def _simulate(self, crash, recover):
        from repro.net.latency import ConstantLatency
        from repro.protocols.base import ProtocolParams
        from repro.protocols.registry import create_replicas
        from repro.runtime.simulator import NetworkConfig, Simulation

        params = ProtocolParams(n=4, f=1, p=1, rank_delay=0.4, payload_size=1_000)
        replicas = create_replicas("banyan", params)
        faults = FaultPlan(crash_schedule=CrashSchedule(
            crash_times={3: crash},
            recover_times={3: recover} if recover is not None else {},
        ))
        simulation = Simulation(replicas, NetworkConfig(
            latency=ConstantLatency(0.05), faults=faults, seed=2))
        simulation.run(until=15.0)
        return simulation

    def test_replica_stops_and_resumes_receiving(self):
        simulation = self._simulate(crash=3.0, recover=6.0)
        commits = simulation.commits_for(3)
        assert commits, "the replica committed before the crash"
        # No commits during the crash window; the others keep going.
        assert not any(3.0 <= record.commit_time < 6.0 for record in commits)
        assert len(simulation.commits_for(0)) > 10

    def test_recovery_matches_permanent_crash_until_the_recovery_instant(self):
        recovered = self._simulate(crash=3.0, recover=6.0)
        permanent = self._simulate(crash=3.0, recover=None)
        cut = [r.block.id for r in recovered.commits_for(3)
               if r.commit_time < 6.0]
        gone = [r.block.id for r in permanent.commits_for(3)]
        assert cut == gone

    def test_crashed_at_zero_with_recovery_boots_late(self):
        simulation = self._simulate(crash=0.0, recover=2.0)
        protocol = simulation.protocol(3)
        # The deferred on_start ran: the replica entered the protocol and
        # participated after its recovery.
        assert protocol.current_round > 0
        assert len(simulation.commits_for(0)) > 10
