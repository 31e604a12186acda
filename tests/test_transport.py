"""Tests for the transport layer: dissemination strategies and their wiring.

Execution digests live in the golden regression corpus
(``tests/test_golden_corpus.py``), which pins every protocol × transport ×
compute cell plus the original pre-transport-refactor fingerprints; this
file covers the transports' unit behaviour, wiring, and serialization.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from repro.eval.experiment import ExperimentConfig
from repro.eval.scenarios import plan_uplink_contention
from repro.net.bandwidth import BandwidthModel
from repro.net.faults import FaultPlan
from repro.net.latency import ConstantLatency
from repro.net.transport import (
    ContendedUplinkTransport,
    DirectTransport,
    RelayTransport,
    build_transport,
)
from repro.protocols.base import Protocol, ProtocolParams
from repro.runtime.simulator import NetworkConfig, Simulation
from repro.runtime.trace import attach_network_trace


@dataclass(frozen=True)
class Packet:
    """Fixed-size test message."""

    wire_size: int = 100_000


def _models(n=4, latency_s=0.05, drop=0.0):
    latency = ConstantLatency(latency_s)
    bandwidth = BandwidthModel()
    faults = FaultPlan(drop_probability=drop)
    return latency, bandwidth, faults


# --------------------------------------------------------------------- #
# Serialization compatibility
# --------------------------------------------------------------------- #


class TestSpecCompatibility:
    def test_spec_content_hash_unchanged_by_transport_fields(self):
        # The cache key of a default-transport config must be the exact hash
        # the pre-transport code produced, or every existing cache entry
        # and scenario hash would silently invalidate.
        config = ExperimentConfig(
            protocol="banyan",
            params=ProtocolParams(n=4, f=1, p=1, rank_delay=0.6),
            topology="global4", duration=20.0, warmup=2.0, seed=0,
            cell="payload=0",
        )
        assert config.content_hash() == (
            "2d8570f03596f09d8b1a2df02a4ac2c6cf365e41068248ec77624df9638c255b"
        )
        data = config.to_dict()
        assert "transport" not in data
        assert "uplink_mbps" not in data
        assert "relays" not in data


class TestDirectTransportUnits:
    def test_unicast_decomposition_matches_models(self):
        latency, bandwidth, faults = _models()
        transport = DirectTransport(latency, bandwidth, faults)
        rng = random.Random(0)
        delivery = transport.unicast(0, 1, Packet(), 0.0, rng)
        assert delivery.receiver == 1
        assert delivery.transfer_delay == bandwidth.transfer_time(0, 1, 100_000)
        assert delivery.propagation_delay == 0.05
        assert delivery.queue_delay == 0.0
        assert delivery.deliver_at == pytest.approx(
            delivery.transfer_delay + delivery.propagation_delay)

    def test_broadcast_copies_depart_simultaneously(self):
        latency, bandwidth, faults = _models()
        transport = DirectTransport(latency, bandwidth, faults)
        rng = random.Random(0)
        deliveries = transport.broadcast(0, (0, 1, 2, 3), Packet(), 1.0, rng)
        assert [d.receiver for d in deliveries] == [0, 1, 2, 3]
        remote = [d for d in deliveries if d.receiver != 0]
        assert len({d.deliver_at for d in remote}) == 1  # no uplink queueing

    def test_dropped_unicast_returns_none(self):
        latency, bandwidth, _ = _models()
        transport = DirectTransport(latency, bandwidth,
                                    FaultPlan(drop_probability=0.999))
        assert transport.unicast(0, 1, Packet(), 0.0, random.Random(1)) is None


class TestContendedUplinkTransport:
    def test_broadcast_drains_fifo(self):
        latency, bandwidth, faults = _models()
        transport = ContendedUplinkTransport(latency, bandwidth, faults,
                                             uplink_bytes_per_s=1_000_000.0)
        rng = random.Random(0)
        deliveries = transport.broadcast(0, (0, 1, 2, 3), Packet(), 0.0, rng)
        remote = [d for d in deliveries if d.receiver != 0]
        # Constant propagation, so arrival order == serialization order, and
        # each successive copy waits exactly one more wire time.
        wire = bandwidth.per_message_overhead_s + 100_000 / 1_000_000.0
        queues = [d.queue_delay for d in remote]
        assert queues == pytest.approx([0.0, wire, 2 * wire])
        arrivals = [d.deliver_at for d in remote]
        assert arrivals == sorted(arrivals)
        assert arrivals[1] - arrivals[0] == pytest.approx(wire)

    def test_byte_conservation_on_uplink(self):
        # The NIC must stay busy exactly as long as it takes to push every
        # attempted byte: busy time == total bytes / rate (+ overheads).
        latency, bandwidth, faults = _models()
        rate = 2_000_000.0
        transport = ContendedUplinkTransport(latency, bandwidth, faults,
                                             uplink_bytes_per_s=rate)
        rng = random.Random(0)
        copies = 0
        for _ in range(3):
            copies += len([d for d in transport.broadcast(
                0, (0, 1, 2, 3, 4), Packet(), 0.0, rng) if d.receiver != 0])
        stats = transport.stats()
        assert stats["wire_bytes"] == copies * 100_000
        busy = transport._nic_free_at[0]
        expected = copies * (bandwidth.per_message_overhead_s + 100_000 / rate)
        assert busy == pytest.approx(expected)

    def test_self_delivery_bypasses_nic(self):
        latency, bandwidth, faults = _models()
        transport = ContendedUplinkTransport(latency, bandwidth, faults,
                                             uplink_bytes_per_s=1_000.0)
        rng = random.Random(0)
        deliveries = transport.broadcast(0, (0, 1), Packet(), 0.0, rng)
        self_copy = next(d for d in deliveries if d.receiver == 0)
        assert self_copy.queue_delay == 0.0
        assert self_copy.deliver_at < 1.0  # not behind the 100s uplink push

    def test_dropped_copies_do_not_occupy_uplink(self):
        latency, bandwidth, _ = _models()
        transport = ContendedUplinkTransport(latency, bandwidth,
                                             FaultPlan(drop_probability=0.999),
                                             uplink_bytes_per_s=1_000.0)
        assert transport.unicast(0, 1, Packet(), 0.0, random.Random(1)) is None
        assert transport._nic_free_at == {}
        assert transport.stats()["wire_bytes"] == 0

    def test_partition_hold_does_not_reserve_nic(self):
        # A copy held by a partition leaves the NIC immediately; the hold
        # happens in the network, so later sends to unpartitioned peers
        # must not queue behind a future release time.
        from repro.net.faults import PartitionPlan

        latency, bandwidth, _ = _models()
        faults = FaultPlan(partitions=PartitionPlan.single(0.0, 10.0, [0], [1]))
        transport = ContendedUplinkTransport(latency, bandwidth, faults,
                                             uplink_bytes_per_s=1_000_000.0)
        rng = random.Random(0)
        wire = bandwidth.per_message_overhead_s + 0.1
        held = transport.unicast(0, 1, Packet(), 0.0, rng)
        assert held.deliver_at == pytest.approx(10.0 + 0.05)  # released, then flies
        assert held.hold_delay == pytest.approx(10.0 - wire)
        clear = transport.unicast(0, 2, Packet(), 0.0, rng)
        assert clear.queue_delay == pytest.approx(wire)  # behind one wire time,
        assert clear.deliver_at < 1.0                    # not behind the release

    def test_invalid_uplink_rejected(self):
        latency, bandwidth, faults = _models()
        with pytest.raises(ValueError):
            ContendedUplinkTransport(latency, bandwidth, faults,
                                     uplink_bytes_per_s=0.0)

    def test_leader_fanout_cost_grows_with_n(self):
        # The last broadcast copy's queueing delay scales linearly with the
        # receiver count — the leader-bottleneck effect in one assertion.
        latency, bandwidth, faults = _models()
        last_queue = {}
        for n in (4, 8, 16):
            transport = ContendedUplinkTransport(latency, bandwidth, faults,
                                                 uplink_bytes_per_s=1_000_000.0)
            deliveries = transport.broadcast(0, tuple(range(n)), Packet(), 0.0,
                                             random.Random(0))
            last_queue[n] = max(d.queue_delay for d in deliveries)
        assert last_queue[4] < last_queue[8] < last_queue[16]
        wire = bandwidth.per_message_overhead_s + 0.1
        assert last_queue[16] == pytest.approx(14 * wire)


class TestRelayTransport:
    def test_broadcast_reaches_every_replica(self):
        latency, bandwidth, faults = _models()
        transport = RelayTransport(latency, bandwidth, faults, relays=2)
        rng = random.Random(0)
        deliveries = transport.broadcast(0, tuple(range(6)), Packet(), 0.0, rng)
        assert sorted(d.receiver for d in deliveries) == list(range(6))
        via = {d.receiver: d.via for d in deliveries}
        assert via[1] is None and via[2] is None  # the relays, served direct
        assert all(via[r] in (1, 2) for r in (3, 4, 5))

    def test_relayed_copies_pay_two_hops(self):
        latency, bandwidth, faults = _models()
        transport = RelayTransport(latency, bandwidth, faults, relays=1)
        rng = random.Random(0)
        deliveries = transport.broadcast(0, (0, 1, 2), Packet(), 0.0, rng)
        by_receiver = {d.receiver: d for d in deliveries}
        relay_arrival = by_receiver[1].deliver_at
        child = by_receiver[2]
        assert child.via == 1
        assert child.deliver_at == pytest.approx(
            relay_arrival + child.transfer_delay + child.propagation_delay)
        assert child.deliver_at > relay_arrival
        # The upstream leg is recorded as queueing, so the decomposition
        # still sums to the delivery time from the broadcast instant.
        assert child.queue_delay == pytest.approx(relay_arrival)

    def test_crashed_relay_not_selected(self):
        latency, bandwidth, _ = _models()
        faults = FaultPlan.with_crashed([1])
        transport = RelayTransport(latency, bandwidth, faults, relays=1)
        rng = random.Random(0)
        deliveries = transport.broadcast(0, (0, 1, 2, 3), Packet(), 0.0, rng)
        receivers = sorted(d.receiver for d in deliveries)
        assert receivers == [0, 2, 3]  # crashed replica misses out, rest served
        assert all(d.via in (None, 2) for d in deliveries)

    def test_lost_relay_copy_falls_back_to_direct(self):
        latency, bandwidth, faults = _models()
        transport = RelayTransport(latency, bandwidth, faults, relays=1)

        class DropFirst:
            """Drop exactly the first (relay) copy of the broadcast."""

            def __init__(self):
                self.calls = 0

            def is_crashed(self, replica_id, at_time):
                return False

            def should_drop(self, sender, receiver, at_time, rng):
                self.calls += 1
                return self.calls == 1

            def partition_release(self, sender, receiver, at_time):
                return None

        transport.faults = DropFirst()
        transport._trivial_faults = False
        transport._direct.faults = transport.faults
        transport._direct._trivial_faults = False
        deliveries = transport.broadcast(0, (0, 1, 2, 3), Packet(), 0.0,
                                         random.Random(0))
        receivers = sorted(d.receiver for d in deliveries)
        assert receivers == [0, 2, 3]  # relay 1 lost its copy, children survive
        assert all(d.via is None for d in deliveries)  # repair is sender-direct

    def test_lost_relay_fallback_respects_partition_hold(self):
        latency, bandwidth, faults = _models()
        transport = RelayTransport(latency, bandwidth, faults, relays=1)

        class DropRelayPartitionChild:
            """Drop the relay's copy; partition the sender from child 2."""

            def __init__(self):
                self.calls = 0

            def is_crashed(self, replica_id, at_time):
                return False

            def should_drop(self, sender, receiver, at_time, rng):
                self.calls += 1
                return self.calls == 1

            def partition_release(self, sender, receiver, at_time):
                return 7.0 if receiver == 2 else None

        transport.faults = DropRelayPartitionChild()
        transport._trivial_faults = False
        transport._direct.faults = transport.faults
        transport._direct._trivial_faults = False
        deliveries = transport.broadcast(0, (0, 1, 2), Packet(), 0.0,
                                         random.Random(0))
        child = next(d for d in deliveries if d.receiver == 2)
        assert child.via is None  # served by the sender-direct repair path
        assert child.hold_delay == pytest.approx(7.0)
        assert child.deliver_at == pytest.approx(
            7.0 + child.transfer_delay + child.propagation_delay)

    def test_wire_accounting_counts_each_link_once(self):
        latency, bandwidth, faults = _models()
        transport = RelayTransport(latency, bandwidth, faults, relays=1)
        transport.broadcast(0, (0, 1, 2, 3), Packet(), 0.0, random.Random(0))
        stats = transport.stats()
        # A full tree costs n-1 link transmissions, exactly like a direct
        # broadcast: sender→relay, relay→child, relay→child.  The shared
        # first hop is counted once; loopback is not on the wire.
        assert stats["wire_copies"] == 3
        assert stats["wire_bytes"] == 3 * 100_000
        # The tree's payoff: the sender itself transmitted only k=1 copies.
        assert stats["sender_copies"] == 1
        assert stats["sender_bytes"] == 100_000

    def test_invalid_relay_count_rejected(self):
        latency, bandwidth, faults = _models()
        with pytest.raises(ValueError):
            RelayTransport(latency, bandwidth, faults, relays=0)


class TestTransportRegistry:
    def test_build_by_name(self):
        latency, bandwidth, faults = _models()
        assert isinstance(build_transport("direct", latency, bandwidth, faults),
                          DirectTransport)
        contended = build_transport("contended", latency, bandwidth, faults,
                                    uplink_bytes_per_s=5.0)
        assert contended.uplink_bytes_per_s == 5.0
        relay = build_transport("relay", latency, bandwidth, faults, relays=3)
        assert relay.relays == 3

    def test_unknown_name_rejected_with_hint(self):
        latency, bandwidth, faults = _models()
        with pytest.raises(KeyError, match="contended"):
            build_transport("quic", latency, bandwidth, faults)

    def test_instance_adopted_and_reset(self):
        latency, bandwidth, faults = _models()
        instance = ContendedUplinkTransport(latency, bandwidth, faults,
                                            uplink_bytes_per_s=1_000.0)
        instance._nic_free_at[0] = 99.0
        simulation = Simulation(
            {0: _Silent(0, ProtocolParams(n=1, f=0, p=0))},
            NetworkConfig(transport=instance),
        )
        assert simulation.transport is instance
        assert instance._nic_free_at == {}  # reset on adoption


class _Silent(Protocol):
    name = "silent"

    def on_start(self, ctx):
        pass

    def on_message(self, ctx, sender, message):
        pass

    def on_timer(self, ctx, timer):
        pass


class _Flood(Protocol):
    """Replica 0 broadcasts one packet at start; receipts are recorded."""

    name = "flood"

    def __init__(self, replica_id, params):
        super().__init__(replica_id, params)
        self.received = []

    def on_start(self, ctx):
        if self.replica_id == 0:
            ctx.broadcast(Packet())

    def on_message(self, ctx, sender, message):
        self.received.append(ctx.now())

    def on_timer(self, ctx, timer):
        pass


def _flood_simulation(transport, n=4, **network_kwargs):
    params = ProtocolParams(n=n, f=0, p=0)
    protocols = {i: _Flood(i, params) for i in range(n)}
    network = NetworkConfig(latency=ConstantLatency(0.05), transport=transport,
                            **network_kwargs)
    return Simulation(protocols, network), protocols


class TestSimulationIntegration:
    def test_contended_broadcast_staggers_arrivals(self):
        direct_sim, direct = _flood_simulation("direct")
        direct_sim.run_until_idle()
        contended_sim, contended = _flood_simulation(
            "contended", uplink_bytes_per_s=1_000_000.0)
        contended_sim.run_until_idle()
        direct_arrivals = [direct[i].received[0] for i in (1, 2, 3)]
        contended_arrivals = [contended[i].received[0] for i in (1, 2, 3)]
        assert len(set(direct_arrivals)) == 1
        assert len(set(contended_arrivals)) == 3  # serialized, so staggered
        assert min(contended_arrivals) > min(direct_arrivals) - 1e-9

    def test_counters_are_transport_independent(self):
        for transport in ("direct", "contended", "relay"):
            simulation, _ = _flood_simulation(transport)
            simulation.run_until_idle()
            assert simulation.messages_sent == 4
            assert simulation.bytes_sent == 400_000
            assert simulation.messages_delivered == 4

    def test_transport_stats_exposed(self):
        simulation, _ = _flood_simulation("contended",
                                          uplink_bytes_per_s=1_000_000.0)
        simulation.run_until_idle()
        stats = simulation.transport_stats()
        assert stats["transport"] == "contended"
        assert stats["wire_bytes"] == 300_000  # three remote copies
        assert stats["queued_messages"] == 2

    def test_relay_transport_delivers_to_all(self):
        simulation, protocols = _flood_simulation("relay", relays=2)
        simulation.run_until_idle()
        assert all(p.received for p in protocols.values())

    def test_network_trace_records_queueing_separately(self):
        simulation, _ = _flood_simulation("contended",
                                          uplink_bytes_per_s=1_000_000.0)
        log = attach_network_trace(simulation)
        simulation.run_until_idle()
        sends = log.events(kind="net-send")
        assert len(sends) == 4
        queued = [e for e in sends if e.data["queue_s"] > 0]
        assert len(queued) == 2
        for event in sends:
            assert event.data["deliver_at"] == pytest.approx(
                event.time + event.data["hold_s"] + event.data["queue_s"]
                + event.data["transfer_s"] + event.data["propagation_s"])

    def test_network_trace_decomposition_sums_for_relayed_copies(self):
        simulation, _ = _flood_simulation("relay", relays=1)
        log = attach_network_trace(simulation)
        simulation.run_until_idle()
        sends = log.events(kind="net-send")
        assert any(event.data["via"] is not None for event in sends)
        for event in sends:
            assert event.data["deliver_at"] == pytest.approx(
                event.time + event.data["hold_s"] + event.data["queue_s"]
                + event.data["transfer_s"] + event.data["propagation_s"])

    def test_contended_partition_evaluated_at_nic_departure(self):
        # A window that opens after the send but before the copy clears the
        # NIC backlog must still hold the copy.
        from repro.net.faults import PartitionPlan

        latency, bandwidth, _ = _models()
        faults = FaultPlan(partitions=PartitionPlan.single(0.15, 5.0, [0], [1]))
        transport = ContendedUplinkTransport(latency, bandwidth, faults,
                                             uplink_bytes_per_s=1_000_000.0)
        rng = random.Random(0)
        wire = bandwidth.per_message_overhead_s + 0.1
        transport.unicast(0, 2, Packet(), 0.0, rng)  # backlog: NIC busy to ~0.1
        held = transport.unicast(0, 1, Packet(), 0.0, rng)
        # Departure at ~2*wire > 0.15 falls inside the window: held to 5.0.
        assert 2 * wire > 0.15
        assert held.hold_delay == pytest.approx(5.0 - 2 * wire)
        assert held.deliver_at == pytest.approx(5.0 + 0.05)

    def test_network_trace_records_drops(self):
        params = ProtocolParams(n=2, f=0, p=0)
        protocols = {i: _Flood(i, params) for i in range(2)}
        simulation = Simulation(protocols, NetworkConfig(
            latency=ConstantLatency(0.05),
            faults=FaultPlan(drop_probability=0.999), seed=1))
        log = attach_network_trace(simulation)
        simulation.run_until_idle()
        assert log.events(kind="net-drop")


class TestUplinkContentionScenario:
    def test_plan_shape(self):
        plan = plan_uplink_contention(replica_counts=(4, 7), seeds=2)
        assert len(plan.specs) == 2 * 2 * 2  # n × series × replications
        transports = {spec.transport for spec in plan.specs}
        assert transports == {"direct", "contended"}
        assert all(spec.axis == {"n": spec.params.n} for spec in plan.specs)

    def test_contention_gap_grows_with_n(self):
        from repro.eval.runner import run_plan
        from repro.eval.scenarios import figure_from_plan

        plan = plan_uplink_contention(replica_counts=(4, 10), payload_size=200_000,
                                      uplink_mbps=50.0, duration=6.0, warmup=1.0)
        figure = figure_from_plan(plan, run_plan(plan))
        ideal = {row["n"]: row for row in figure.series["banyan (ideal uplink)"]}
        contended = {row["n"]: row
                     for row in figure.series["banyan (contended uplink)"]}
        gap_small = contended[4]["mean_latency_ms"] - ideal[4]["mean_latency_ms"]
        gap_large = contended[10]["mean_latency_ms"] - ideal[10]["mean_latency_ms"]
        assert gap_small > 0
        assert gap_large > gap_small


class TestConfigSerialization:
    def test_config_round_trip_with_transport(self):
        config = ExperimentConfig(
            protocol="banyan", params=ProtocolParams(n=4, f=1, p=1),
            transport="contended", uplink_mbps=50.0,
        )
        data = config.to_dict()
        assert data["transport"] == "contended"
        assert data["uplink_mbps"] == 50.0
        rebuilt = ExperimentConfig.from_dict(data)
        assert (rebuilt.transport, rebuilt.uplink_mbps) == ("contended", 50.0)

    def test_unread_transport_knobs_do_not_change_the_hash(self):
        # A knob the selected transport never consults must not enter the
        # serialised form, or identical experiments would miss the cache.
        contended = ExperimentConfig(protocol="banyan",
                                     params=ProtocolParams(n=4, f=1, p=1),
                                     transport="contended", uplink_mbps=50.0)
        with_relays = ExperimentConfig(protocol="banyan",
                                       params=ProtocolParams(n=4, f=1, p=1),
                                       transport="contended", uplink_mbps=50.0,
                                       relays=5)
        assert with_relays.content_hash() == contended.content_hash()
        direct = ExperimentConfig(protocol="banyan",
                                  params=ProtocolParams(n=4, f=1, p=1))
        direct_with_uplink = ExperimentConfig(protocol="banyan",
                                              params=ProtocolParams(n=4, f=1, p=1),
                                              uplink_mbps=50.0)
        assert direct_with_uplink.content_hash() == direct.content_hash()
        # An explicitly-passed default uplink is the same experiment as None.
        implicit = ExperimentConfig(protocol="banyan",
                                    params=ProtocolParams(n=4, f=1, p=1),
                                    transport="contended")
        explicit = ExperimentConfig(protocol="banyan",
                                    params=ProtocolParams(n=4, f=1, p=1),
                                    transport="contended", uplink_mbps=1000.0)
        assert explicit.content_hash() == implicit.content_hash()

    def test_default_config_omits_transport_keys(self):
        config = ExperimentConfig(protocol="banyan",
                                  params=ProtocolParams(n=4, f=1, p=1))
        data = config.to_dict()
        assert "transport" not in data and "uplink_mbps" not in data
        rebuilt = ExperimentConfig.from_dict(data)
        assert rebuilt.transport == "direct" and rebuilt.relays == 2

    def test_config_round_trip(self):
        config = ExperimentConfig(
            protocol="banyan", params=ProtocolParams(n=4, f=1, p=1),
            transport="relay", relays=4,
        )
        rebuilt = ExperimentConfig.from_dict(config.to_dict())
        assert rebuilt.to_dict() == config.to_dict()
        assert rebuilt.transport == "relay" and rebuilt.relays == 4

    def test_spec_hash_distinguishes_transports(self):
        base = ExperimentConfig(protocol="banyan",
                                params=ProtocolParams(n=4, f=1, p=1))
        contended = ExperimentConfig(protocol="banyan",
                                     params=ProtocolParams(n=4, f=1, p=1),
                                     transport="contended", uplink_mbps=50.0)
        assert base.content_hash() != contended.content_hash()
