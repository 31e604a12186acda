"""Unit tests for the discrete-event simulator and the replica context."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import pytest

from repro.net.faults import FaultPlan
from repro.net.latency import ConstantLatency
from repro.protocols.base import Protocol, ProtocolParams
from repro.runtime.context import ReplicaContext, Timer
from repro.runtime.simulator import NetworkConfig, Simulation
from repro.types.blocks import Block, genesis_block


@dataclass(frozen=True)
class Ping:
    """Minimal test message."""

    value: int
    wire_size: int = 10


class EchoProtocol(Protocol):
    """Test protocol: replica 0 broadcasts a ping; everyone records receipts."""

    name = "echo"

    def __init__(self, replica_id: int, params: ProtocolParams) -> None:
        super().__init__(replica_id, params)
        self.received: List[tuple] = []
        self.timer_fired: List[str] = []

    def on_start(self, ctx: ReplicaContext) -> None:
        if self.replica_id == 0:
            ctx.broadcast(Ping(value=1))
            ctx.set_timer(1.0, "tick", data="payload")

    def on_message(self, ctx: ReplicaContext, sender: int, message) -> None:
        self.received.append((sender, message.value, ctx.now()))

    def on_timer(self, ctx: ReplicaContext, timer: Timer) -> None:
        self.timer_fired.append(timer.name)


class CommitterProtocol(Protocol):
    """Test protocol that commits a block when it receives any message."""

    name = "committer"

    def on_start(self, ctx: ReplicaContext) -> None:
        if self.replica_id == 0:
            ctx.broadcast(Ping(value=7))

    def on_message(self, ctx: ReplicaContext, sender: int, message) -> None:
        block = Block(round=1, proposer=sender, rank=0, parent_id=genesis_block().id)
        ctx.commit([block], finalization_kind="fast")

    def on_timer(self, ctx: ReplicaContext, timer: Timer) -> None:
        pass


def _build(protocol_cls, n=3, latency=None, faults=None, seed=0):
    params = ProtocolParams(n=n, f=0, p=0)
    protocols = {i: protocol_cls(i, params) for i in range(n)}
    network = NetworkConfig(latency=latency or ConstantLatency(0.1), faults=faults or FaultPlan.none(), seed=seed)
    return Simulation(protocols, network), protocols


class TestSimulationBasics:
    def test_broadcast_reaches_every_replica_including_sender(self):
        sim, protocols = _build(EchoProtocol)
        sim.run(until=1.0)
        for replica_id, protocol in protocols.items():
            assert len(protocol.received) == 1
            assert protocol.received[0][0] == 0

    def test_delivery_time_reflects_latency_and_transfer(self):
        sim, protocols = _build(EchoProtocol, latency=ConstantLatency(0.1))
        sim.run(until=1.0)
        __, __, arrival = protocols[1].received[0]
        assert arrival == pytest.approx(0.1, abs=0.01)

    def test_self_delivery_is_faster_than_remote(self):
        sim, protocols = _build(EchoProtocol, latency=ConstantLatency(0.1))
        sim.run(until=1.0)
        self_arrival = protocols[0].received[0][2]
        remote_arrival = protocols[1].received[0][2]
        assert self_arrival < remote_arrival

    def test_timers_fire_at_requested_time(self):
        sim, protocols = _build(EchoProtocol)
        sim.run(until=0.5)
        assert protocols[0].timer_fired == []
        sim.run(until=2.0)
        assert protocols[0].timer_fired == ["tick"]

    def test_run_advances_clock_to_horizon(self):
        sim, _ = _build(EchoProtocol)
        sim.run(until=5.0)
        assert sim.now == pytest.approx(5.0)

    def test_run_until_idle_processes_everything(self):
        sim, protocols = _build(EchoProtocol)
        sim.run_until_idle()
        assert protocols[2].received

    def test_message_and_byte_counters(self):
        sim, _ = _build(EchoProtocol, n=4)
        sim.run(until=2.0)
        assert sim.messages_sent == 4  # broadcast to 4 replicas
        assert sim.messages_delivered == 4
        assert sim.bytes_sent == 40

    def test_determinism_under_fixed_seed(self):
        def commit_times(seed):
            sim, _ = _build(CommitterProtocol, n=4, seed=seed)
            sim.run(until=2.0)
            return [(r.replica_id, r.block.id, r.commit_time) for replica_id in sim.replica_ids
                    for r in sim.commits_for(replica_id)]

        assert commit_times(7) == commit_times(7)

    def test_empty_replica_set_rejected(self):
        with pytest.raises(ValueError):
            Simulation({}, NetworkConfig())

    def test_step_returns_false_when_idle(self):
        sim, _ = _build(EchoProtocol)
        sim.run_until_idle()
        assert sim.step() is False


class TestCommitRecording:
    def test_commit_records_collected_per_replica(self):
        sim, _ = _build(CommitterProtocol, n=3)
        sim.run(until=2.0)
        for replica_id in sim.replica_ids:
            records = sim.commits_for(replica_id)
            assert len(records) == 1
            assert records[0].finalization_kind == "fast"
            assert records[0].replica_id == replica_id

    def test_commit_listener_invoked(self):
        sim, _ = _build(CommitterProtocol, n=3)
        seen = []
        sim.add_commit_listener(lambda record: seen.append(record))
        sim.run(until=2.0)
        assert len(seen) == 3

    def test_all_commits_returns_copy(self):
        sim, _ = _build(CommitterProtocol, n=2)
        sim.run(until=2.0)
        commits = sim.all_commits()
        commits[0].clear()
        assert len(sim.commits_for(0)) == 1


class TestFaultsInSimulation:
    def test_crashed_replica_does_not_receive_or_act(self):
        faults = FaultPlan.with_crashed([2])
        sim, protocols = _build(EchoProtocol, n=3, faults=faults)
        sim.run(until=2.0)
        assert protocols[2].received == []
        assert protocols[1].received  # others still get the broadcast

    def test_crashed_sender_sends_nothing(self):
        faults = FaultPlan.with_crashed([0])
        sim, protocols = _build(EchoProtocol, n=3, faults=faults)
        sim.run(until=2.0)
        assert all(not p.received for p in protocols.values())

    def test_dropped_messages_are_counted(self):
        faults = FaultPlan(drop_probability=0.9)
        sim, _ = _build(EchoProtocol, n=5, faults=faults, seed=3)
        sim.run(until=2.0)
        assert sim.messages_dropped + sim.messages_delivered <= sim.messages_sent
        assert sim.messages_dropped > 0


class TestTimers:
    def test_cancelled_timer_does_not_fire(self):
        params = ProtocolParams(n=1, f=0, p=0)

        class Canceller(Protocol):
            name = "canceller"

            def __init__(self, replica_id, params):
                super().__init__(replica_id, params)
                self.fired = []

            def on_start(self, ctx):
                timer_id = ctx.set_timer(0.5, "a")
                ctx.set_timer(1.0, "b")
                ctx.cancel_timer(timer_id)

            def on_message(self, ctx, sender, message):
                pass

            def on_timer(self, ctx, timer):
                self.fired.append(timer.name)

        protocol = Canceller(0, params)
        sim = Simulation({0: protocol}, NetworkConfig())
        sim.run(until=2.0)
        assert protocol.fired == ["b"]

    def test_negative_timer_delay_rejected(self):
        params = ProtocolParams(n=1, f=0, p=0)

        class BadTimer(Protocol):
            name = "bad"

            def on_start(self, ctx):
                ctx.set_timer(-1.0, "nope")

            def on_message(self, ctx, sender, message):
                pass

            def on_timer(self, ctx, timer):
                pass

        sim = Simulation({0: BadTimer(0, params)}, NetworkConfig())
        with pytest.raises(ValueError):
            sim.start()

    @pytest.mark.parametrize("delay", [float("nan"), float("inf"), -1.0])
    @pytest.mark.parametrize("scheduler", ["heap", "calendar"])
    def test_timer_delay_must_be_finite_and_non_negative(self, scheduler,
                                                         delay):
        # Armed among finite timers, a NaN delay neither fired somewhere
        # in between (heap) nor broke the bucket mapping (calendar): it is
        # refused when armed, by both event queues.
        params = ProtocolParams(n=1, f=0, p=0)

        class MixedTimers(Protocol):
            name = "mixed"

            def on_start(self, ctx):
                ctx.set_timer(2.5, "early")
                ctx.set_timer(delay, "bad")
                ctx.set_timer(3.0, "late")

            def on_message(self, ctx, sender, message):
                pass

            def on_timer(self, ctx, timer):
                pass

        sim = Simulation({0: MixedTimers(0, params)},
                         NetworkConfig(scheduler=scheduler))
        with pytest.raises(ValueError, match="timer delay must be finite"):
            sim.run(until=4.0)
