"""Integration tests for the Banyan protocol (the paper's contribution).

These exercise the dual-mode behaviour end to end: fast-path finalization in
good rounds, graceful fallback to the ICC slow path under crashes and
stragglers, and safety under message loss and an equivocating (Twins)
replica.
"""

from __future__ import annotations

import pytest

from repro.byzantine.behaviors import DelayedReplica
from repro.net.faults import FaultPlan
from repro.net.latency import ConstantLatency, UniformLatency
from repro.protocols.base import ProtocolParams
from repro.protocols.registry import create_replicas
from repro.runtime.simulator import NetworkConfig, Simulation
from tests.conftest import (
    assert_consistent_chains,
    assert_no_conflicting_rounds,
    build_simulation,
    twins,
)


class TestBanyanFaultFree:
    def test_all_replicas_commit_and_agree(self):
        sim = build_simulation("banyan", n=4, f=1, p=1)
        sim.run(until=10.0)
        assert_consistent_chains(sim)
        assert_no_conflicting_rounds(sim)
        assert len(sim.commits_for(0)) > 10

    def test_fast_path_used_in_good_rounds(self):
        sim = build_simulation("banyan", n=4, f=1, p=1)
        sim.run(until=10.0)
        kinds = [r.finalization_kind for r in sim.commits_for(0)]
        assert kinds.count("fast") / len(kinds) > 0.9

    def test_banyan_faster_than_icc_in_same_network(self):
        def proposer_latency(protocol_name):
            sim = build_simulation(protocol_name, n=4, f=1, p=1,
                                   latency=ConstantLatency(0.05), seed=2)
            sim.run(until=10.0)
            latencies = []
            for replica_id in sim.replica_ids:
                protocol = sim.protocol(replica_id)
                commits = {r.block.id: r.commit_time for r in sim.commits_for(replica_id)}
                latencies.extend(
                    commits[bid] - t for bid, t in protocol.proposal_times.items() if bid in commits
                )
            return sum(latencies) / len(latencies)

        assert proposer_latency("banyan") < proposer_latency("icc")

    def test_works_at_n19_with_p1_and_p4(self):
        for f, p in [(6, 1), (4, 4)]:
            sim = build_simulation("banyan", n=19, f=f, p=p, rank_delay=0.6,
                                   payload_size=10_000)
            sim.run(until=6.0)
            assert_consistent_chains(sim)
            assert len(sim.commits_for(0)) > 5

    def test_only_leader_blocks_commit_in_synchrony(self):
        sim = build_simulation("banyan", n=4, f=1, p=1)
        sim.run(until=10.0)
        for record in sim.commits_for(0):
            assert record.block.rank == 0

    def test_deterministic_given_seed(self):
        def run(seed):
            sim = build_simulation("banyan", n=4, f=1, p=1, seed=seed)
            sim.run(until=5.0)
            return [(r.block.id, round(r.commit_time, 9), r.finalization_kind)
                    for r in sim.commits_for(0)]

        assert run(11) == run(11)

    def test_fast_and_slow_counts_exposed(self):
        sim = build_simulation("banyan", n=4, f=1, p=1)
        sim.run(until=10.0)
        protocol = sim.protocol(0)
        assert protocol.fast_finalized_count + protocol.slow_finalized_count > 0

    def test_resilience_bound_enforced(self):
        with pytest.raises(ValueError):
            build_simulation("banyan", n=18, f=6, p=1)


class TestBanyanCrashFaults:
    def test_behaves_like_icc_under_crashes(self):
        """Figure 6d's claim: with crash faults there is no fast-path penalty;
        Banyan's progress matches ICC's."""
        faults = FaultPlan.with_crashed([3])

        def committed_rounds(protocol_name):
            sim = build_simulation(protocol_name, n=4, f=1, p=1, faults=faults, seed=5)
            sim.run(until=20.0)
            assert_consistent_chains(sim)
            return [r.block.round for r in sim.commits_for(0)]

        banyan_rounds = committed_rounds("banyan")
        icc_rounds = committed_rounds("icc")
        assert banyan_rounds, "Banyan must keep committing under a crash"
        assert abs(len(banyan_rounds) - len(icc_rounds)) <= 2

    def test_fast_path_disabled_when_too_many_replicas_down(self):
        # With p=1 and one crashed replica, n - p = 3 fast votes can never
        # arrive (only 3 replicas are alive but the crashed one was needed...
        # n=4: alive = 3 = n - p, so the fast path *can* still fire; crash two
        # fewer than quorum? Instead use n=7, p=1 and crash 2 replicas.
        faults = FaultPlan.with_crashed([5, 6])
        sim = build_simulation("banyan", n=7, f=2, p=1, faults=faults)
        sim.run(until=20.0)
        commits = sim.commits_for(0)
        assert commits
        assert all(r.finalization_kind == "slow" for r in commits)
        assert_consistent_chains(sim)

    def test_fast_path_survives_p_crashes(self):
        # With p=4 and up to 4 unresponsive replicas the fast path still fires.
        faults = FaultPlan.with_crashed([15, 16, 17, 18])
        sim = build_simulation("banyan", n=19, f=4, p=4, rank_delay=0.6,
                               payload_size=1_000, faults=faults)
        sim.run(until=8.0)
        commits = sim.commits_for(0)
        assert commits
        fast = sum(1 for r in commits if r.finalization_kind == "fast")
        assert fast / len(commits) > 0.5
        assert_consistent_chains(sim)

    def test_mid_run_crash_preserves_safety(self):
        from repro.net.faults import CrashSchedule

        faults = FaultPlan(crash_schedule=CrashSchedule(crash_times={2: 4.0}))
        sim = build_simulation("banyan", n=4, f=1, p=1, faults=faults)
        sim.run(until=15.0)
        assert_consistent_chains(sim)
        assert_no_conflicting_rounds(sim)

    def test_message_loss_preserves_safety(self):
        sim = build_simulation("banyan", n=4, f=1, p=1,
                               faults=FaultPlan(drop_probability=0.05), seed=9)
        sim.run(until=15.0)
        assert_consistent_chains(sim)
        assert_no_conflicting_rounds(sim)


class TestBanyanStragglers:
    def test_stragglers_beyond_p_force_slow_path_without_penalty(self):
        """With p=1, two slow replicas (more than p) disable the fast path,
        but the protocol falls back to the ICC slow path rather than
        degrading further."""
        params = ProtocolParams(n=7, f=2, p=1, rank_delay=0.4, payload_size=1_000)
        replicas = create_replicas("banyan", params)
        for straggler in (5, 6):
            replicas[straggler] = DelayedReplica(replicas[straggler], extra_delay=0.5)
        sim = Simulation(replicas, NetworkConfig(latency=ConstantLatency(0.05), seed=1))
        sim.run(until=15.0)
        commits = sim.commits_for(0)
        assert commits
        slow = sum(1 for r in commits if r.finalization_kind == "slow")
        assert slow / len(commits) > 0.8
        assert_consistent_chains(sim)

    def test_single_straggler_within_p_budget_keeps_fast_path_at_n4(self):
        """At n=4 and p=1 the fast path fires after 3 replies (the same
        condition as notarization), so one straggler does not disable it —
        exactly the observation of Section 9.3's n=4 experiment."""
        params = ProtocolParams(n=4, f=1, p=1, rank_delay=0.4, payload_size=1_000)
        replicas = create_replicas("banyan", params)
        replicas[3] = DelayedReplica(replicas[3], extra_delay=0.3)
        sim = Simulation(replicas, NetworkConfig(latency=ConstantLatency(0.05), seed=1))
        sim.run(until=15.0)
        commits = sim.commits_for(0)
        assert commits
        fast = sum(1 for r in commits if r.finalization_kind == "fast")
        assert fast / len(commits) > 0.8
        assert_consistent_chains(sim)

    def test_straggler_within_p_budget_keeps_fast_path(self):
        params = ProtocolParams(n=19, f=4, p=4, rank_delay=0.6, payload_size=1_000)
        replicas = create_replicas("banyan", params)
        for straggler in (17, 18):
            replicas[straggler] = DelayedReplica(replicas[straggler], extra_delay=0.5)
        sim = Simulation(replicas, NetworkConfig(latency=ConstantLatency(0.05), seed=1))
        sim.run(until=8.0)
        commits = sim.commits_for(0)
        assert commits
        fast = sum(1 for r in commits if r.finalization_kind == "fast")
        assert fast / len(commits) > 0.5


class TestBanyanByzantine:
    def test_equivocating_leader_does_not_violate_safety(self):
        params = ProtocolParams(n=4, f=1, p=1, rank_delay=0.4, payload_size=1_000)
        replicas = create_replicas(
            "banyan", params, overrides={2: twins("banyan", (0,), (1, 3))}
        )
        sim = Simulation(replicas, NetworkConfig(latency=ConstantLatency(0.05), seed=3))
        sim.run(until=20.0)
        assert_no_conflicting_rounds(sim)
        # Exclude the Byzantine replica when checking chain consistency.
        chains = [[r.block.id for r in sim.commits_for(replica)] for replica in (0, 1, 3)]
        reference = max(chains, key=len)
        for chain in chains:
            assert chain == reference[: len(chain)]
        assert len(sim.commits_for(0)) > 5

    def test_equivocating_leader_blocks_may_skip_its_rounds(self):
        params = ProtocolParams(n=7, f=2, p=1, rank_delay=0.4, payload_size=1_000)
        replicas = create_replicas(
            "banyan", params, overrides={0: twins("banyan", (1, 2, 3), (4, 5, 6))}
        )
        sim = Simulation(replicas, NetworkConfig(latency=ConstantLatency(0.05), seed=4))
        sim.run(until=20.0)
        assert_no_conflicting_rounds(sim)
        honest = [r for r in sim.replica_ids if r != 0]
        chains = [[rec.block.id for rec in sim.commits_for(r)] for r in honest]
        reference = max(chains, key=len)
        for chain in chains:
            assert chain == reference[: len(chain)]

    def test_equivocating_icc_leader_safe_too(self):
        params = ProtocolParams(n=4, f=1, p=1, rank_delay=0.4, payload_size=1_000)
        replicas = create_replicas("icc", params, overrides={1: twins("icc", (0,), (2, 3))})
        sim = Simulation(replicas, NetworkConfig(latency=ConstantLatency(0.05), seed=6))
        sim.run(until=20.0)
        assert_no_conflicting_rounds(sim)


class TestChangeDrivenHandlerPath:
    def test_work_per_delivered_message_stays_change_driven(self, monkeypatch):
        """Timing-free guard on the per-message path (deterministic n=19
        run): round states are built once per round, not per message,
        Definition 7.6 is re-evaluated only for events that can change its
        outcome, and a message's round state is fetched at most once and
        handed down (2.5 fetches per delivery when every helper fetched
        its own) — so a regression to "re-derive everything on every
        delivery" fails here, whatever the machine's speed."""
        from repro.core.fastpath import FastPathState
        from repro.protocols.icc import ICCReplica

        calls = {"_new_round": 0, "evaluate_unlocks": 0, "_round": 0}

        def counted(cls, name):
            original = getattr(cls, name)

            def wrapper(self, *args, **kwargs):
                calls[name] += 1
                return original(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, wrapper)

        counted(ICCReplica, "_new_round")
        counted(FastPathState, "evaluate_unlocks")
        counted(ICCReplica, "_round")
        sim = build_simulation("banyan", n=19, f=6, p=1, rank_delay=0.6,
                               payload_size=10_000)
        sim.run(until=6.0)
        assert len(sim.commits_for(0)) > 20
        delivered = sim.messages_delivered
        assert delivered > 50_000
        assert calls["_new_round"] / delivered < 0.05
        assert 0 < calls["evaluate_unlocks"] / delivered < 0.25
        assert 0 < calls["_round"] / delivered < 1.0
