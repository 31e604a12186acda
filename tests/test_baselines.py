"""Integration tests for the HotStuff and Streamlet baselines, plus
cross-protocol comparisons of the latency ordering the paper reports."""

from __future__ import annotations

import pytest

from repro.net.faults import CrashSchedule, FaultPlan
from repro.net.latency import ConstantLatency
from tests.conftest import assert_consistent_chains, assert_no_conflicting_rounds, build_simulation


def _mean_proposer_latency(sim) -> float:
    latencies = []
    for replica_id in sim.replica_ids:
        protocol = sim.protocol(replica_id)
        commits = {r.block.id: r.commit_time for r in sim.commits_for(replica_id)}
        latencies.extend(
            commits[bid] - t for bid, t in protocol.proposal_times.items() if bid in commits
        )
    assert latencies, "expected at least one measured proposal"
    return sum(latencies) / len(latencies)


class TestHotStuff:
    def test_commits_and_agrees(self):
        sim = build_simulation("hotstuff", n=4, f=1)
        sim.run(until=10.0)
        assert_consistent_chains(sim)
        assert_no_conflicting_rounds(sim)
        assert len(sim.commits_for(0)) > 10

    def test_views_commit_in_order(self):
        sim = build_simulation("hotstuff", n=4, f=1)
        sim.run(until=10.0)
        rounds = [r.block.round for r in sim.commits_for(1)]
        assert rounds == sorted(rounds)

    def test_leaders_rotate(self):
        sim = build_simulation("hotstuff", n=4, f=1)
        sim.run(until=10.0)
        proposers = {r.block.proposer for r in sim.commits_for(0)}
        assert len(proposers) == 4

    def test_latency_exceeds_three_deltas(self):
        sim = build_simulation("hotstuff", n=4, f=1, latency=ConstantLatency(0.05))
        sim.run(until=10.0)
        assert _mean_proposer_latency(sim) > 3 * 0.05

    def test_recovers_from_crashed_leader_via_timeout(self):
        sim = build_simulation("hotstuff", n=4, f=1, faults=FaultPlan.with_crashed([2]))
        sim.run(until=30.0)
        assert len(sim.commits_for(0)) > 0
        assert_consistent_chains(sim)

    def test_works_at_n19(self):
        sim = build_simulation("hotstuff", n=19, f=6, payload_size=10_000)
        sim.run(until=8.0)
        assert_consistent_chains(sim)
        assert len(sim.commits_for(0)) > 5


class TestStreamlet:
    def test_commits_and_agrees(self):
        sim = build_simulation("streamlet", n=4, f=1)
        sim.run(until=15.0)
        assert_consistent_chains(sim)
        assert_no_conflicting_rounds(sim)
        assert len(sim.commits_for(0)) > 5

    def test_one_block_per_epoch_in_synchrony(self):
        sim = build_simulation("streamlet", n=4, f=1)
        sim.run(until=15.0)
        epochs = [r.block.round for r in sim.commits_for(0)]
        assert len(epochs) == len(set(epochs))
        assert epochs == sorted(epochs)

    def test_latency_is_tied_to_the_epoch_duration(self):
        """Streamlet's finality (three adjacent notarized epochs) means the
        proposer latency is governed by the epoch length 2Δ, not by the true
        network delay δ — which is why it trails the other protocols."""
        rank_delay = 0.4  # epoch duration (2Δ)
        sim = build_simulation("streamlet", n=4, f=1, rank_delay=rank_delay,
                               latency=ConstantLatency(0.05))
        sim.run(until=20.0)
        latency = _mean_proposer_latency(sim)
        assert rank_delay < latency < 3 * rank_delay

    def test_crash_fault_does_not_break_safety(self):
        sim = build_simulation("streamlet", n=4, f=1, faults=FaultPlan.with_crashed([1]))
        sim.run(until=30.0)
        assert_consistent_chains(sim)
        assert_no_conflicting_rounds(sim)

    def test_a_replica_booting_late_joins_the_current_epoch(self):
        # Crashed from t = 0, booted at 2.3 epochs: it enters epoch 3 with
        # its peers and keeps step with them, instead of counting from 1 two
        # epochs behind, where it would never vote for a current proposal.
        faults = FaultPlan(crash_schedule=CrashSchedule(
            crash_times={3: 0.0}, recover_times={3: 0.92}))
        sim = build_simulation("streamlet", n=4, f=1, rank_delay=0.4, faults=faults)
        sim.run(until=0.92)
        assert sim.protocol(3).current_epoch == sim.protocol(0).current_epoch == 3
        sim.run(until=10.0)
        assert sim.protocol(3).current_epoch == sim.protocol(0).current_epoch
        assert_consistent_chains(sim)

    def test_works_at_n19(self):
        sim = build_simulation("streamlet", n=19, f=6, payload_size=10_000)
        sim.run(until=10.0)
        assert_consistent_chains(sim)
        assert len(sim.commits_for(0)) >= 3


class TestCrossProtocolOrdering:
    """The latency ordering the paper's evaluation reports:
    Banyan < ICC < HotStuff, Streamlet (Table 1 / Figure 6)."""

    @pytest.fixture(scope="class")
    def latencies(self):
        results = {}
        for name in ("banyan", "icc", "hotstuff", "streamlet"):
            sim = build_simulation(name, n=4, f=1, p=1, latency=ConstantLatency(0.05), seed=7)
            sim.run(until=15.0)
            results[name] = _mean_proposer_latency(sim)
        return results

    def test_banyan_is_fastest(self, latencies):
        assert latencies["banyan"] == min(latencies.values())

    def test_icc_beats_hotstuff(self, latencies):
        assert latencies["icc"] < latencies["hotstuff"]

    def test_icc_beats_streamlet(self, latencies):
        assert latencies["icc"] < latencies["streamlet"]

    def test_banyan_improvement_over_icc_is_meaningful(self, latencies):
        improvement = (latencies["icc"] - latencies["banyan"]) / latencies["icc"]
        assert improvement > 0.15  # at least ~1 of 3 message delays saved

    def test_all_protocols_commit_identical_round_counts_roughly(self):
        """Block creation latency (chain growth) is similar for Banyan and ICC."""
        counts = {}
        for name in ("banyan", "icc"):
            sim = build_simulation(name, n=4, f=1, p=1, seed=8)
            sim.run(until=10.0)
            counts[name] = len(sim.commits_for(0))
        assert abs(counts["banyan"] - counts["icc"]) <= 2
