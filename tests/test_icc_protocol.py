"""Integration tests for the ICC protocol (the slow path of Section 4)."""

from __future__ import annotations

import pytest

from repro.net.faults import FaultPlan
from repro.net.latency import UniformLatency
from tests.conftest import assert_consistent_chains, assert_no_conflicting_rounds, build_simulation


class TestICCFaultFree:
    def test_all_replicas_commit_and_agree(self):
        sim = build_simulation("icc", n=4, f=1)
        sim.run(until=10.0)
        assert_consistent_chains(sim)
        assert_no_conflicting_rounds(sim)
        assert len(sim.commits_for(0)) > 10

    def test_committed_rounds_are_consecutive(self):
        sim = build_simulation("icc", n=4, f=1)
        sim.run(until=10.0)
        rounds = [record.block.round for record in sim.commits_for(0)]
        assert rounds == list(range(1, len(rounds) + 1))

    def test_only_leader_blocks_commit_in_synchrony(self):
        sim = build_simulation("icc", n=4, f=1)
        sim.run(until=10.0)
        for record in sim.commits_for(1):
            # Round-robin rotation: the proposer of round k is k mod n.
            assert record.block.proposer == record.block.round % 4
            assert record.block.rank == 0

    def test_finalization_is_slow_path_only(self):
        sim = build_simulation("icc", n=4, f=1)
        sim.run(until=10.0)
        assert all(r.finalization_kind == "slow" for r in sim.commits_for(2))

    def test_works_at_n19(self, n19_params):
        sim = build_simulation("icc", n=19, f=6, rank_delay=0.6, payload_size=10_000)
        sim.run(until=8.0)
        assert_consistent_chains(sim)
        assert len(sim.commits_for(0)) > 5

    def test_deterministic_given_seed(self):
        def run(seed):
            sim = build_simulation("icc", n=4, f=1, seed=seed,
                                   latency=UniformLatency(0.02, 0.08))
            sim.run(until=5.0)
            return [(r.block.id, round(r.commit_time, 9)) for r in sim.commits_for(0)]

        assert run(3) == run(3)
        assert run(3) != run(4)

    def test_commits_with_jittery_latency(self):
        sim = build_simulation("icc", n=7, f=2, latency=UniformLatency(0.02, 0.08))
        sim.run(until=10.0)
        assert_consistent_chains(sim)
        assert len(sim.commits_for(3)) > 5


class TestICCCrashFaults:
    def test_tolerates_f_crashed_replicas(self):
        sim = build_simulation("icc", n=4, f=1, faults=FaultPlan.with_crashed([3]))
        sim.run(until=20.0)
        assert_consistent_chains(sim)
        assert len(sim.commits_for(0)) > 5
        assert sim.commits_for(3) == []

    def test_crashed_leader_rounds_recover_via_rank_one(self):
        sim = build_simulation("icc", n=4, f=1, rank_delay=0.4,
                               faults=FaultPlan.with_crashed([2]))
        sim.run(until=20.0)
        committed_rounds = {r.block.round for r in sim.commits_for(0)}
        # Rounds led by the crashed replica (round % 4 == 2) still commit,
        # with a block proposed by another replica.
        crashed_led = [r for r in committed_rounds if r % 4 == 2]
        assert crashed_led, "rounds with a crashed leader should still finalize"
        for record in sim.commits_for(0):
            if record.block.round % 4 == 2:
                assert record.block.proposer != 2

    def test_progress_slows_but_continues_with_crashes(self):
        healthy = build_simulation("icc", n=7, f=2)
        healthy.run(until=15.0)
        degraded = build_simulation("icc", n=7, f=2, faults=FaultPlan.with_crashed([5, 6]))
        degraded.run(until=15.0)
        assert len(degraded.commits_for(0)) > 0
        assert len(degraded.commits_for(0)) < len(healthy.commits_for(0))
        assert_consistent_chains(degraded)

    def test_mid_run_crash_preserves_safety(self):
        from repro.net.faults import CrashSchedule

        faults = FaultPlan(crash_schedule=CrashSchedule(crash_times={1: 5.0}))
        sim = build_simulation("icc", n=4, f=1, faults=faults)
        sim.run(until=15.0)
        assert_consistent_chains(sim)
        assert_no_conflicting_rounds(sim)

    def test_message_loss_preserves_safety(self):
        sim = build_simulation("icc", n=4, f=1, faults=FaultPlan(drop_probability=0.05))
        sim.run(until=15.0)
        assert_consistent_chains(sim)
        assert_no_conflicting_rounds(sim)
