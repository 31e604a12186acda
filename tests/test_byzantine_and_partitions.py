"""Tests for the Byzantine behaviour modules and partial-synchrony recovery.

Covers the misbehaving replica implementations directly (silent replica,
Twins, delayed stragglers) and the deadlock-freeness property
under temporary network partitions: chain growth resumes once the partition
heals (the paper's distinction between deadlock freeness and liveness,
Remark 5.1).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import pytest

from repro.byzantine.behaviors import (
    DelayedReplica,
    SilentReplica,
    TwinReplica,
    byzantine_factory,
    ensure_protocol_registered,
    fast_vote_equivocators,
)
from repro.chaos.schedule import Fault
from repro.net.faults import FaultPlan, PartitionPlan
from repro.net.latency import ConstantLatency, UniformLatency
from repro.protocols.base import Protocol, ProtocolParams
from repro.protocols.registry import create_replicas
from repro.runtime.simulator import NetworkConfig, Simulation
from tests.conftest import assert_consistent_chains, assert_no_conflicting_rounds, twins


@dataclass(frozen=True)
class _Tagged:
    """A fixed-size test message naming the broadcast it belongs to."""

    tag: object
    wire_size: int = 1000


class _TaggedBroadcaster(Protocol):
    """Broadcasts one tagged message at each configured time and records
    ``(tag, arrival time)`` of everything it receives."""

    name = "tagged-broadcaster"

    def __init__(self, replica_id, params, times=()):
        super().__init__(replica_id, params)
        self.times = list(times)
        self.received = []
        self.send_to = None

    def on_start(self, ctx):
        for at in self.times:
            if at == 0.0:
                ctx.broadcast(_Tagged(at))
            else:
                ctx.set_timer(at, "broadcast", at)

    def on_message(self, ctx, sender, message):
        self.received.append((message.tag, ctx.now()))

    def on_timer(self, ctx, timer):
        if timer.name == "send":
            ctx.send(self.send_to, _Tagged("unicast"))
        else:
            ctx.broadcast(_Tagged(timer.data))


def _tagged_broadcasters(n, times_by_replica):
    params = ProtocolParams(n=n, f=0, p=0)
    return {i: _TaggedBroadcaster(i, params, times_by_replica.get(i, ()))
            for i in range(n)}


def _timer(name):
    from repro.runtime.context import Timer

    return Timer(name=name, fire_time=0.0, data=None, timer_id=0)


class TestSilentReplica:
    def test_silent_replica_sends_nothing(self):
        params = ProtocolParams(n=4, f=1, p=1, rank_delay=0.4, payload_size=1_000)
        replicas = create_replicas("banyan", params, overrides={3: SilentReplica})
        sim = Simulation(replicas, NetworkConfig(latency=ConstantLatency(0.05), seed=2))
        sim.run(until=10.0)
        # The silent replica commits nothing but the others keep going.
        assert sim.commits_for(3) == []
        assert len(sim.commits_for(0)) > 5
        assert_no_conflicting_rounds(sim)

    def test_silent_replica_equivalent_to_crash(self):
        params = ProtocolParams(n=4, f=1, p=1, rank_delay=0.4, payload_size=1_000)

        silent = create_replicas("banyan", params, overrides={3: SilentReplica})
        sim_silent = Simulation(silent, NetworkConfig(latency=ConstantLatency(0.05), seed=2))
        sim_silent.run(until=15.0)

        crashed = create_replicas("banyan", params)
        sim_crashed = Simulation(
            crashed,
            NetworkConfig(latency=ConstantLatency(0.05), seed=2,
                          faults=FaultPlan.with_crashed([3])),
        )
        sim_crashed.run(until=15.0)

        assert abs(len(sim_silent.commits_for(0)) - len(sim_crashed.commits_for(0))) <= 2


class TestTwins:
    def test_byzantine_factory_plants_twins_of_the_wrapped_protocol(self):
        from repro.chaos.broken import BrokenQuorumICC
        from repro.core.banyan import BanyanReplica
        from repro.protocols.hotstuff import HotStuffReplica

        ensure_protocol_registered("icc-broken")
        params = ProtocolParams(n=4, f=1, p=1, rank_delay=0.4)
        fault = Fault(kind="byzantine", replica=0, behavior="twins",
                      group_a=(1,), group_b=(2, 3))
        for protocol, inner in (("banyan", BanyanReplica), ("icc-broken", BrokenQuorumICC),
                                ("hotstuff", HotStuffReplica)):
            replica = byzantine_factory(protocol, fault)(replica_id=0, params=params)
            assert isinstance(replica, TwinReplica)
            assert [type(twin) for twin in replica.twins] == [inner, inner]
            assert replica.proposal_times is replica.twins[0].proposal_times
        silent = Fault(kind="byzantine", replica=0, behavior="silent")
        assert byzantine_factory("banyan", silent) is SilentReplica

    def test_twins_send_each_side_its_own_block(self):
        """Each side receives its own twin's proposal for a round the twinned
        replica leads: two distinct blocks, the second twin's salted."""
        from repro.core.banyan import BanyanReplica
        from repro.types.messages import BlockProposal

        direct = {}  # round -> receiver -> block sent to it by replica 0

        class Recorder(BanyanReplica):
            def on_message(self, ctx, sender, message):
                if (sender == 0 and isinstance(message, BlockProposal)
                        and message.block.proposer == 0):
                    direct.setdefault(message.block.round, {})[self.replica_id] = message.block
                super().on_message(ctx, sender, message)

        params = ProtocolParams(n=4, f=1, p=1, rank_delay=0.4, payload_size=100)
        replicas = create_replicas("banyan", params, overrides={
            0: twins("banyan", (1,), (2, 3)), 1: Recorder, 2: Recorder, 3: Recorder})
        sim = Simulation(replicas, NetworkConfig(latency=ConstantLatency(0.05), seed=1))
        sim.run(until=5.0)
        led = [blocks for blocks in direct.values() if len(blocks) == 3]
        assert len(led) >= 2
        for blocks in led:
            assert blocks[2].id == blocks[3].id != blocks[1].id
            assert not blocks[1].payload.startswith(b"twin:")
            assert blocks[2].payload.startswith(b"twin:")
        assert_no_conflicting_rounds(sim)

    def test_honest_majority_withstands_equivocation_with_p_equals_f(self):
        params = ProtocolParams(n=9, f=2, p=2, rank_delay=0.4, payload_size=1_000)
        replicas = create_replicas("banyan", params, overrides={
            1: twins("banyan", (0, 2, 3, 4), (5, 6, 7, 8))})
        sim = Simulation(replicas, NetworkConfig(latency=ConstantLatency(0.05), seed=5))
        sim.run(until=20.0)
        assert_no_conflicting_rounds(sim)
        honest = [r for r in sim.replica_ids if r != 1]
        assert all(len(sim.commits_for(r)) > 5 for r in honest)


class TestBanyanFastPathUnderAdversaries:
    """The fast path must *degrade* under misbehaviour — never fork.

    The ICC-family tests above exercise the slow path; these plant the same
    adversaries into fast-path (p=1) Banyan configurations and pin the
    dual-mode guarantee: FP-finalization is simply lost in the disturbed
    rounds while the slow machinery keeps the chain growing consistently.
    """

    def test_equivocating_leader_never_fast_finalizes_its_rounds(self):
        # Twin + side holds 4 < n - p = 6 replicas on either side.
        params = ProtocolParams(n=7, f=2, p=1, rank_delay=0.4, payload_size=1_000)
        replicas = create_replicas(
            "banyan", params, overrides={1: twins("banyan", (0, 2, 3), (4, 5, 6))}
        )
        sim = Simulation(replicas, NetworkConfig(latency=ConstantLatency(0.05), seed=3))
        sim.run(until=25.0)
        assert_consistent_chains(sim)
        assert_no_conflicting_rounds(sim)
        honest = [r for r in sim.replica_ids if r != 1]
        # The chain keeps growing through the equivocator's leader rounds.
        assert all(len(sim.commits_for(r)) > 20 for r in honest)
        for replica_id in honest:
            protocol = sim.protocol(replica_id)
            # No round led by the equivocator ever reaches the n - p fast
            # quorum on either of its twins' blocks: the split fast votes
            # make FP-finalization impossible, at every honest replica.
            for round_k, state in protocol._rounds.items():
                if protocol.beacon.leader(round_k) == 1:
                    assert state.fast.fast_finalizable_blocks() == []
            # The quorum engine catches the twins' conflicting fast votes
            # (relayed proposals carry the other twin's).
            assert fast_vote_equivocators(protocol) == frozenset({1})

    def test_equivocator_led_rounds_still_finalize_eventually(self):
        params = ProtocolParams(n=7, f=2, p=1, rank_delay=0.4, payload_size=1_000)
        replicas = create_replicas(
            "banyan", params, overrides={1: twins("banyan", (0, 2, 3), (4, 5, 6))}
        )
        sim = Simulation(replicas, NetworkConfig(latency=ConstantLatency(0.05), seed=3))
        sim.run(until=25.0)
        committed_rounds = {record.block.round for record in sim.commits_for(0)}
        led = [round_k for round_k in committed_rounds
               if sim.protocol(0).beacon.leader(round_k) == 1]
        # One of the twins' blocks wins per led round.
        assert led, "equivocator-led rounds must still enter the chain"

    def test_stragglers_degrade_fast_path_to_slow_without_fork(self):
        params = ProtocolParams(n=7, f=2, p=1, rank_delay=0.4, payload_size=1_000)

        def run(straggler_ids):
            replicas = create_replicas("banyan", params)
            for replica_id in straggler_ids:
                replicas[replica_id] = DelayedReplica(replicas[replica_id],
                                                      extra_delay=1.0)
            sim = Simulation(replicas,
                             NetworkConfig(latency=ConstantLatency(0.05), seed=2))
            sim.run(until=25.0)
            return sim

        baseline = run(())
        degraded = run((5, 6))
        assert_consistent_chains(degraded)
        assert_no_conflicting_rounds(degraded)
        # p = 1 needs all but one replica prompt: without stragglers every
        # commit is FP-finalized, with two of them the n - 1 fast quorum is
        # unreachable and every commit falls back to SP-finalization.
        assert baseline.protocol(0).fast_finalized_count > 20
        assert baseline.protocol(0).slow_finalized_count == 0
        assert degraded.protocol(0).fast_finalized_count == 0
        assert degraded.protocol(0).slow_finalized_count > 20
        # Degraded, not dead: the slow path keeps committing.
        assert all(len(degraded.commits_for(r)) > 20 for r in degraded.replica_ids)


class TestDelayedReplica:
    def test_outbound_messages_are_delayed(self):
        params = ProtocolParams(n=4, f=1, p=1, rank_delay=0.4, payload_size=1_000)
        replicas = create_replicas("banyan", params)
        wrapped = DelayedReplica(replicas[2], extra_delay=0.2)
        replicas[2] = wrapped
        sim = Simulation(replicas, NetworkConfig(latency=ConstantLatency(0.05), seed=1))
        sim.run(until=5.0)
        # The wrapped replica still participates (receives, commits), just late.
        assert len(sim.commits_for(2)) > 0
        assert wrapped.inner.proposal_times  # it proposed in its leader rounds

    def test_zero_delay_behaves_like_honest(self):
        params = ProtocolParams(n=4, f=1, p=1, rank_delay=0.4, payload_size=1_000)

        plain = create_replicas("banyan", params)
        sim_plain = Simulation(plain, NetworkConfig(latency=ConstantLatency(0.05), seed=1))
        sim_plain.run(until=5.0)

        wrapped = create_replicas("banyan", params)
        wrapped[2] = DelayedReplica(wrapped[2], extra_delay=0.0)
        sim_wrapped = Simulation(wrapped, NetworkConfig(latency=ConstantLatency(0.05), seed=1))
        sim_wrapped.run(until=5.0)

        assert len(sim_plain.commits_for(0)) == len(sim_wrapped.commits_for(0))

    def test_negative_delay_rejected(self):
        params = ProtocolParams(n=4, f=1, p=1)
        replicas = create_replicas("banyan", params)
        with pytest.raises(ValueError):
            DelayedReplica(replicas[0], extra_delay=-0.1)

    # One timer and one broadcast per straggler broadcast (it used to be n
    # timers plus n unicasts).  The four executions below were recorded
    # with the per-receiver loop, before it was replaced: deferring the
    # broadcast as a unit must not move a commit, a send or a delivery.
    @pytest.mark.parametrize("transport,compute,digest,sent,delivered", [
        ("direct", "zero", "1c9569a5dfc26580", 24852, 24565),
        ("direct", "crypto", "de6cd8d04c90c549", 12863, 11466),
        ("contended", "zero", "44a17d8a29237803", 23009, 22369),
        ("contended", "crypto", "539ec8adaa8a7032", 12521, 11389),
    ])
    def test_straggler_runs_reproduce_the_per_receiver_executions(
            self, transport, compute, digest, sent, delivered):
        from repro.eval.experiment import ExperimentConfig, run_experiment
        from repro.net.topology import worldwide_datacenters

        config = ExperimentConfig(
            "banyan", ProtocolParams(n=19, f=4, p=4, payload_size=1000),
            topology=worldwide_datacenters(19), latency_model="wan-matrix",
            transport=transport, compute=compute,
            uplink_mbps=100.0 if transport == "contended" else None,
            duration=2.5, warmup=0.0, seed=3, stragglers=4, straggler_delay=0.3)
        captured = []
        run_experiment(config, on_simulation=captured.append)
        sim = captured[0]
        commits = hashlib.sha256()
        for replica_id, records in sorted(sim.all_commits().items()):
            for record in records:
                commits.update(
                    f"{replica_id}|{record.block.id}|{record.commit_time!r}|"
                    f"{record.finalization_kind}\n".encode())
        assert commits.hexdigest()[:16] == digest
        assert (sim.messages_sent, sim.messages_delivered) == (sent, delivered)
        # No per-receiver unicast is left anywhere in the run.
        assert sim.event_counts()["message"] == 0

    def test_deferred_broadcast_is_one_timer_and_one_batch(self):
        n = 6
        replicas = _tagged_broadcasters(n, {0: [0.0]})
        replicas[0] = DelayedReplica(replicas[0], extra_delay=0.3)
        sim = Simulation(replicas, NetworkConfig(
            latency=UniformLatency(0.01, 0.05), seed=4))
        sim.start()
        counts = sim.event_counts()
        assert counts["timer"] == 1 and counts["message"] == 0 and counts["sbatch"] == 0
        sim.run(until=1.0)
        counts = sim.event_counts()
        assert counts["timer"] == 1 and counts["message"] == 0
        assert (counts["sbatch"], counts["sbatch_members"]) == (1, n)
        arrivals = [replicas[i].received for i in range(1, n)]
        assert all(len(got) == 1 and 0.31 <= got[0][1] <= 0.35 for got in arrivals)
        # A unicast is still one timer and one message event of its own.
        replicas[0].inner.send_to = 3
        replicas[0].on_timer(sim._contexts[0], _timer("send"))
        counts = sim.event_counts()
        assert counts["timer"] == 2 and counts["message"] == 0
        sim.run(until=2.0)
        assert sim.event_counts()["message"] == 1
        assert [tag for tag, _ in replicas[3].received] == [0.0, "unicast"]

    def test_window_edges_hold_for_a_deferred_broadcast(self):
        """``[start, end)``: a broadcast initiated at exactly ``start`` or
        just before ``end`` is deferred (and still flushed after the window
        closed); one at exactly ``end``, or before ``start``, is prompt."""
        times = [0.5, 1.0, 1.75, 2.0]

        def arrivals(wrap):
            replicas = _tagged_broadcasters(3, {0: times})
            if wrap:
                replicas[0] = DelayedReplica(replicas[0], extra_delay=0.5,
                                             window=(1.0, 2.0))
            sim = Simulation(replicas, NetworkConfig(latency=ConstantLatency(0.05), seed=1))
            sim.run(until=4.0)
            return dict(replicas[1].received)

        prompt, windowed = arrivals(False), arrivals(True)
        lateness = {tag: windowed[tag] - prompt[tag] for tag in times}
        assert lateness == pytest.approx({0.5: 0.0, 1.0: 0.5, 1.75: 0.5, 2.0: 0.0})

    def test_relay_transport_disseminates_a_late_broadcast_through_the_overlay(self):
        """The behaviour change: a straggler's broadcast used to reach the
        transport as n unicasts, which bypass the relay tree every other
        broadcast uses; flushed as a broadcast, the sender's uplink carries
        one copy per relay, not one per receiver."""
        n = 8
        replicas = _tagged_broadcasters(n, {0: [0.0]})
        replicas[0] = DelayedReplica(replicas[0], extra_delay=0.2)
        sim = Simulation(replicas, NetworkConfig(
            latency=ConstantLatency(0.05), transport="relay", relays=2, seed=1))
        sim.run(until=1.0)
        assert all(len(replicas[i].received) == 1 for i in range(1, n))
        stats = sim.transport_stats()
        assert stats["sender_copies"] == 2
        assert stats["wire_copies"] == n - 1


class TestPartitions:
    """Deadlock freeness: chain growth resumes after a partition heals."""

    def _run_with_partition(self, protocol: str, start: float, end: float):
        params = ProtocolParams(n=4, f=1, p=1, rank_delay=0.4, payload_size=1_000)
        replicas = create_replicas(protocol, params)
        partitions = PartitionPlan.single(start, end, [0, 1], [2, 3])
        network = NetworkConfig(
            latency=ConstantLatency(0.05),
            faults=FaultPlan(partitions=partitions),
            seed=1,
        )
        sim = Simulation(replicas, network)
        sim.run(until=end + 15.0)
        return sim

    @pytest.mark.parametrize("protocol", ["banyan", "icc"])
    def test_no_commits_across_partition_but_recovery_after(self, protocol):
        sim = self._run_with_partition(protocol, start=2.0, end=6.0)
        assert_consistent_chains(sim)
        assert_no_conflicting_rounds(sim)
        commits = sim.commits_for(0)
        assert commits, "the protocol must recover after the partition heals"
        # During a 2-2 split neither side has a quorum of 3, so no block can
        # be finalized inside the partition window.
        during = [r for r in commits if 2.5 < r.commit_time < 6.0]
        assert during == []
        after = [r for r in commits if r.commit_time >= 6.0]
        assert len(after) > 5

    def test_partition_then_catchup_reaches_same_chain(self):
        sim = self._run_with_partition("banyan", start=1.0, end=4.0)
        chains = [[r.block.id for r in sim.commits_for(replica)] for replica in sim.replica_ids]
        shortest = min(len(c) for c in chains)
        assert shortest > 0
        assert all(c[:shortest] == chains[0][:shortest] for c in chains)
