"""Tests for the chaos engine: generation, invariants, shrinking, CLI.

Three layers of confidence:

* the *schedule layer* is deterministic, constraint-respecting data;
* the *checker layer* actually fires — a deliberately forked commit stream
  and a deliberately broken protocol both produce violations (the
  checker-of-the-checker tests);
* the *engine layer* shrinks failures to still-failing, 1-minimal
  schedules, serializes them, and replays them bit-for-bit.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import pytest

from repro.chaos import (
    ChaosConfig,
    ChaosSchedule,
    Fault,
    InvariantChecker,
    ScheduleGenerator,
)
from repro.chaos.broken import register_broken_protocols
from repro.chaos.engine import (
    ChaosTrialSpec,
    replay_repro,
    run_chaos,
    run_chaos_schedule,
    run_chaos_trial,
    shrink_schedule,
    write_repro,
)
from repro.types.commits import CommitRecord
from repro.types.blocks import Block, genesis_block


# --------------------------------------------------------------------- #
# Schedule generation
# --------------------------------------------------------------------- #


class TestScheduleGenerator:
    def _generator(self, **kwargs):
        defaults = dict(n=4, f=1, duration=15.0, horizon=8.0)
        defaults.update(kwargs)
        return ScheduleGenerator(**defaults)

    def test_deterministic_per_seed(self):
        generator = self._generator()
        for trial in range(20):
            a = generator.generate(seed=0, trial=trial)
            b = generator.generate(seed=0, trial=trial)
            assert a == b
            assert a.to_dict() == b.to_dict()

    def test_different_seeds_differ(self):
        generator = self._generator()
        schedules = {
            json.dumps(generator.generate(seed=seed, trial=0).to_dict(),
                       sort_keys=True)
            for seed in range(10)
        }
        assert len(schedules) > 1

    def test_respects_fault_budget(self):
        generator = self._generator(f=1)
        for trial in range(50):
            schedule = generator.generate(seed=3, trial=trial)
            byzantine = set(schedule.byzantine())
            crashed = set(schedule.crashed_replicas())
            assert len(byzantine) + len(crashed) <= 1
            assert not byzantine & crashed

    def test_timed_faults_end_by_horizon(self):
        # The horizon is floored at half the duration so short smoke runs
        # still inject faults; assert against the effective value.
        generator = self._generator(duration=10.0, horizon=6.0)
        assert generator.horizon == 6.0
        for trial in range(50):
            for fault in generator.generate(seed=1, trial=trial).faults:
                if fault.kind == "byzantine":
                    continue
                if fault.end is not None:
                    assert fault.end <= 6.0 + 1e-9
                else:
                    assert fault.start <= 6.0 + 1e-9

    def test_schedule_round_trips_through_json(self):
        generator = self._generator()
        for trial in range(20):
            schedule = generator.generate(seed=5, trial=trial)
            rebuilt = ChaosSchedule.from_dict(
                json.loads(json.dumps(schedule.to_dict()))
            )
            assert rebuilt == schedule

    @pytest.mark.parametrize("protocol", ["hotstuff", "streamlet"])
    def test_silent_only_for_protocols_that_do_not_relay_proposals(self, protocol):
        # Twins would stall a replica alone on one side (ROADMAP item 20).
        generator = self._generator(f=4, n=13, protocol=protocol)
        behaviors = set()
        for trial in range(60):
            behaviors.update(fault.behavior for fault in
                             generator.generate(seed=0, trial=trial).byzantine().values())
        assert behaviors == {"silent"}

    def test_drop_removes_exactly_one_fault(self):
        schedule = self._generator().generate(seed=0, trial=4)
        assert len(schedule) >= 2
        smaller = schedule.drop(0)
        assert len(smaller) == len(schedule) - 1
        assert smaller.faults == schedule.faults[1:]


class TestTrialSpec:
    def test_spec_round_trips_and_hashes_stably(self):
        spec = ChaosTrialSpec(protocol="icc", trial=7, seed=3)
        rebuilt = ChaosTrialSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.content_hash() == spec.content_hash()

    def test_distinct_trials_hash_differently(self):
        hashes = {ChaosTrialSpec(trial=t).content_hash() for t in range(10)}
        assert len(hashes) == 10

    def test_schedule_is_pure_function_of_spec(self):
        spec = ChaosTrialSpec(trial=11, seed=2)
        assert spec.schedule() == spec.schedule()

    def test_net_seed_independent_of_schedule_streams(self):
        spec = ChaosTrialSpec(trial=3)
        # Changing generator knobs must not perturb the network stream.
        tweaked = dataclasses.replace(
            spec, config=ChaosConfig(partition_probability=1.0)
        )
        assert spec.net_seed() == tweaked.net_seed()


# --------------------------------------------------------------------- #
# Checker-of-the-checker: the invariants must actually fire
# --------------------------------------------------------------------- #


def _commit(replica, block, time=1.0, kind="slow"):
    return CommitRecord(replica_id=replica, block=block, commit_time=time,
                        finalization_kind=kind)


class TestInvariantChecker:
    def _fork_blocks(self):
        """Two conflicting round-1 children of genesis."""
        genesis = genesis_block()
        left = Block(round=1, proposer=0, rank=0, parent_id=genesis.id,
                     payload=b"left")
        right = Block(round=1, proposer=1, rank=1, parent_id=genesis.id,
                      payload=b"right")
        return left, right

    def test_forked_commit_stream_raises_agreement_and_round_violations(self):
        left, right = self._fork_blocks()
        checker = InvariantChecker(replica_ids=[0, 1])
        checker.on_commit(_commit(0, left))
        checker.on_commit(_commit(1, right))
        invariants = {violation.invariant for violation in checker.violations}
        assert "agreement" in invariants
        assert "round-agreement" in invariants

    def test_fast_conflict_is_labelled_fast_path(self):
        left, right = self._fork_blocks()
        checker = InvariantChecker(replica_ids=[0, 1])
        checker.on_commit(_commit(0, left, kind="fast"))
        checker.on_commit(_commit(1, right, kind="fast"))
        invariants = {violation.invariant for violation in checker.violations}
        assert "fast-path-soundness" in invariants

    def test_non_extending_commit_raises_ancestry_violation(self):
        left, right = self._fork_blocks()
        orphan = Block(round=2, proposer=0, rank=0, parent_id=right.id,
                       payload=b"skip")
        checker = InvariantChecker(replica_ids=[0])
        checker.on_commit(_commit(0, left))
        checker.on_commit(_commit(0, orphan, time=2.0))
        invariants = {violation.invariant for violation in checker.violations}
        assert "certified-ancestry" in invariants

    def test_byzantine_commits_are_ignored(self):
        left, right = self._fork_blocks()
        checker = InvariantChecker(replica_ids=[0, 1], byzantine=[1])
        checker.on_commit(_commit(0, left))
        checker.on_commit(_commit(1, right))  # byzantine — unconstrained
        assert checker.violations == []

    def test_consistent_stream_is_clean(self):
        genesis = genesis_block()
        a = Block(round=1, proposer=0, rank=0, parent_id=genesis.id)
        b = Block(round=2, proposer=1, rank=0, parent_id=a.id)
        checker = InvariantChecker(replica_ids=[0, 1])
        for replica in (0, 1):
            checker.on_commit(_commit(replica, a, time=1.0))
            checker.on_commit(_commit(replica, b, time=2.0))
        assert checker.violations == []

    def test_violation_round_trips_through_json(self):
        left, right = self._fork_blocks()
        checker = InvariantChecker(replica_ids=[0, 1])
        checker.on_commit(_commit(0, left))
        checker.on_commit(_commit(1, right))
        from repro.chaos import Violation

        for violation in checker.violations:
            rebuilt = Violation.from_dict(json.loads(json.dumps(violation.to_dict())))
            assert rebuilt == violation


class TestLivenessJudges:
    """The chaos engine and the real cluster's ``cross_validate`` judge
    bounded liveness by one rule: fed one commit stream under one schedule,
    they return the same liveness verdict."""

    @staticmethod
    def _liveness(violations):
        return sorted((v.replica, v.detail) for v in violations
                      if v.invariant == "liveness")

    @pytest.mark.parametrize("faults", [
        # A recovering crash: clean.
        (Fault(kind="crash", replica=3, start=1.0, end=2.0),),
        # Two permanent crashes with f=1: the quorum is gone from t=0.
        (Fault(kind="crash", replica=2, start=0.0),
         Fault(kind="crash", replica=3, start=0.0)),
        # The same under a loss burst: judged on safety only.
        (Fault(kind="crash", replica=2, start=0.0),
         Fault(kind="crash", replica=3, start=0.0),
         Fault(kind="loss", start=1.0, end=2.0, probability=0.5)),
    ], ids=["recovering-crash", "quorum-loss", "lossy-quorum-loss"])
    def test_engine_and_cluster_judges_agree(self, faults, monkeypatch):
        from repro.chaos import engine
        from repro.cluster.harness import cross_validate

        runs = []

        class Recorded(engine.Simulation):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                runs.append(self)

        monkeypatch.setattr(engine, "Simulation", Recorded)
        spec = ChaosTrialSpec(protocol="banyan", duration=10.0)
        schedule = ChaosSchedule(faults=faults)
        result = run_chaos_schedule(spec, schedule)
        (simulation,) = runs
        records = sorted(
            (record for commits in simulation.all_commits().values()
             for record in commits),
            key=lambda record: (record.commit_time, record.replica_id))
        verdict = cross_validate(records, n=spec.n, schedule=schedule,
                                 duration=spec.duration,
                                 liveness_bound=spec.liveness_bound())
        assert self._liveness(verdict) == self._liveness(result.violations)
        quorum_lost = len(faults) == 2
        assert bool(self._liveness(verdict)) == quorum_lost

    def test_cross_validate_liveness_respects_max_violations(self):
        """A commit-less run of many replicas: both judges stop at the
        checker's violation cap instead of one line per replica."""
        from repro.cluster.harness import cross_validate

        n = 40
        checker = InvariantChecker(range(n))
        checker.check_liveness(0.0, 1.0, 5.0, checker.honest)
        verdict = cross_validate([], n=n, schedule=ChaosSchedule(),
                                 duration=5.0, liveness_bound=1.0)
        assert len(verdict) == len(checker.violations) == checker.max_violations
        assert verdict == checker.violations


# --------------------------------------------------------------------- #
# Engine: honest protocols pass, the broken one fails and shrinks
# --------------------------------------------------------------------- #


class TestChaosEngine:
    def test_honest_trials_have_no_violations(self):
        for trial in range(3):
            for protocol in ("banyan", "icc"):
                result = run_chaos_trial(
                    ChaosTrialSpec(protocol=protocol, trial=trial, duration=10.0)
                )
                assert not result.failed, result.violations
                assert result.stats["honest_commits"] > 0

    def test_trial_is_deterministic(self):
        spec = ChaosTrialSpec(protocol="banyan", trial=1, duration=8.0)
        a = run_chaos_trial(spec)
        b = run_chaos_trial(spec)
        assert a.to_dict() == b.to_dict()

    def test_result_round_trips_through_json(self):
        from repro.chaos.engine import ChaosTrialResult

        result = run_chaos_trial(ChaosTrialSpec(trial=2, duration=6.0))
        rebuilt = ChaosTrialResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert rebuilt.to_dict() == result.to_dict()

    def _failing_trial(self):
        """The first broken-protocol trial that violates an invariant."""
        register_broken_protocols()
        for trial in range(40):
            spec = ChaosTrialSpec(protocol="icc-broken", trial=trial)
            result = run_chaos_trial(spec)
            if result.failed:
                return spec, result
        pytest.fail("expected the broken protocol to fail within 40 trials")

    def test_broken_protocol_fails_and_shrinks_to_minimal_repro(self, tmp_path):
        spec, result = self._failing_trial()
        shrunk, shrunk_result = shrink_schedule(spec, result.schedule)
        # The acceptance bar: a minimal repro of at most 3 faults.
        assert 1 <= len(shrunk) <= 3
        assert len(shrunk) <= len(result.schedule)
        assert shrunk_result.failed

        # Shrinking is sound: the shrunk schedule is a sub-multiset of the
        # original and still fails when re-run from scratch.
        assert all(fault in result.schedule.faults for fault in shrunk.faults)
        assert run_chaos_schedule(spec, shrunk).failed

        # 1-minimality: dropping any remaining fault makes the failure vanish
        # (this is exactly the loop invariant of the shrinker's last pass).
        for index in range(len(shrunk)):
            assert not run_chaos_schedule(spec, shrunk.drop(index)).failed

        # The serialized repro replays bit-for-bit.
        path = str(tmp_path / "repro.json")
        write_repro(path, shrunk_result, original=result.schedule)
        replayed = replay_repro(path)
        assert replayed.failed
        assert [v.to_dict() for v in replayed.violations] == \
            [v.to_dict() for v in shrunk_result.violations]
        data = json.loads(open(path).read())
        assert data["replay"].startswith("banyan-repro chaos --replay")
        assert data["commit_trace_tail"]

    def test_shrink_rejects_passing_schedule(self):
        spec = ChaosTrialSpec(protocol="banyan", trial=0, duration=6.0)
        with pytest.raises(ValueError):
            shrink_schedule(spec, ChaosSchedule())

    def test_run_chaos_parallel_matches_serial_and_caches(self, tmp_path):
        cache = str(tmp_path / "cache")
        kwargs = dict(trials=6, seed=0, protocols=("banyan", "icc"),
                      duration=6.0, shrink=False)
        serial = run_chaos(jobs=1, cache_dir=cache, **kwargs)
        parallel = run_chaos(jobs=2, cache_dir=cache, use_cache=False, **kwargs)
        assert [r.to_dict() for r in serial.results] == \
            [r.to_dict() for r in parallel.results]
        # Every trial is now cached: a re-run must not execute anything.
        events = []
        cached = run_chaos(jobs=1, cache_dir=cache,
                           progress=events.append, **kwargs)
        assert all(event.cached for event in events)
        assert [r.to_dict() for r in cached.results] == \
            [r.to_dict() for r in serial.results]

    def test_run_chaos_writes_repro_for_failures(self, tmp_path):
        register_broken_protocols()
        repro_dir = str(tmp_path / "repros")
        report = run_chaos(trials=40, seed=0, protocols=("icc-broken",),
                           shrink=True, repro_dir=repro_dir)
        assert report.failures
        assert report.repro_paths
        for path in report.repro_paths:
            assert os.path.exists(path)
            assert replay_repro(path).failed

    def test_commit_check_unwraps_straggler_wrappers(self):
        """The notarized-commit check must probe the *inner* protocol.

        A DelayedReplica holds the real tree on ``.inner``; the check runs
        at commit time, while the committer's tree still holds the block
        (its round is released afterwards, and the block with it).
        """
        from repro.byzantine.behaviors import DelayedReplica
        from repro.net.latency import ConstantLatency
        from repro.protocols.base import ProtocolParams
        from repro.protocols.registry import create_replicas
        from repro.runtime.simulator import NetworkConfig, Simulation

        params = ProtocolParams(n=4, f=1, p=1, rank_delay=0.4, payload_size=100)
        replicas = create_replicas("banyan", params)
        replicas[0] = DelayedReplica(replicas[0], extra_delay=0.0)
        simulation = Simulation(replicas, NetworkConfig(
            latency=ConstantLatency(0.05), seed=1))
        planted = []

        def unnotarize_first_commit(record):
            # Registered before the checker, so it runs first: the wrapped
            # replica's first committed block loses its notarization just
            # before the checker looks it up.
            if record.replica_id == 0 and not planted:
                inner = simulation.protocol(0).inner
                assert inner.tree.is_notarized(record.block.id)
                inner.tree._notarized.discard(record.block.id)
                planted.append(record.block.id)

        simulation.add_commit_listener(unnotarize_first_commit)
        checker = InvariantChecker(simulation.replica_ids).attach(simulation)
        simulation.run(until=8.0)
        assert planted and len(simulation.commits_for(0)) > 1
        flagged = [v for v in checker.violations if v.invariant == "notarized-commit"]
        assert [v.replica for v in flagged] == [0]
        assert str(planted[0])[:8] in flagged[0].detail
        # The post-run checks add no second verdict on it.
        violations = checker.finalize(simulation, heal_time=0.0,
                                      liveness_bound=5.0, duration=8.0)
        assert [v for v in violations if v.invariant == "notarized-commit"] == flagged

    def test_checker_fed_by_hand_looks_up_no_block(self):
        """Without :meth:`attach` the checker judges the stream alone (as a
        benchmark replaying a finished run's commits does): the blocks have
        left every tree by then, and no notarized-commit verdict follows."""
        from repro.net.latency import ConstantLatency
        from repro.protocols.base import ProtocolParams
        from repro.protocols.registry import create_replicas
        from repro.runtime.simulator import NetworkConfig, Simulation

        params = ProtocolParams(n=4, f=1, p=1, rank_delay=0.05, payload_size=100)
        simulation = Simulation(create_replicas("banyan", params), NetworkConfig(
            latency=ConstantLatency(0.01), seed=1))
        simulation.run(until=4.0)
        records = sorted((record for commits in simulation.all_commits().values()
                          for record in commits),
                         key=lambda record: (record.commit_time, record.replica_id))
        first = records[0].block
        assert first.id not in simulation.protocol(first.proposer).tree
        checker = InvariantChecker(simulation.replica_ids)
        for record in records:
            checker.on_commit(record)
        assert checker.finalize(simulation, heal_time=0.0, liveness_bound=math.inf,
                                duration=4.0) == []

    def test_oversized_f_is_a_clean_error(self, capsys):
        """--f beyond the resilience bound must not crash schedule sampling."""
        from repro.cli import main

        # Generation clamps its crash draws to the candidate pool, and the
        # protocol construction rejects the unsound bound cleanly.
        code = main(["chaos", "--n", "4", "--f", "6", "--trials", "3"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_straggler_window_limits_delay(self):
        """A straggler phase ends: the replica is prompt outside the window."""
        from repro.byzantine.behaviors import DelayedReplica
        from repro.protocols.base import ProtocolParams
        from repro.protocols.registry import create_replicas

        params = ProtocolParams(n=4, f=1, p=1, rank_delay=0.4, payload_size=100)
        replicas = create_replicas("banyan", params)
        wrapped = DelayedReplica(replicas[2], extra_delay=0.5, window=(1.0, 2.0))
        assert wrapped.window == (1.0, 2.0)
        with pytest.raises(ValueError):
            DelayedReplica(replicas[3], extra_delay=0.5, window=(2.0, 1.0))


class TestChaosCLI:
    def test_chaos_smoke(self, capsys):
        from repro.cli import main

        code = main(["chaos", "--trials", "4", "--duration", "4",
                     "--no-shrink"])
        out = capsys.readouterr().out
        assert code == 0
        assert "zero invariant violations" in out

    def test_chaos_broken_protocol_exits_nonzero_and_replays(self, tmp_path, capsys):
        from repro.cli import main

        repro_dir = str(tmp_path / "repros")
        code = main(["chaos", "--protocol", "icc-broken", "--trials", "20",
                     "--repro-dir", repro_dir])
        out = capsys.readouterr().out
        assert code == 1
        assert "failing trial" in out
        repros = [os.path.join(repro_dir, name) for name in os.listdir(repro_dir)]
        assert repros
        code = main(["chaos", "--replay", repros[0]])
        out = capsys.readouterr().out
        assert code == 1
        assert "violation" in out

    def test_chaos_unknown_protocol_errors(self, capsys):
        from repro.cli import main

        code = main(["chaos", "--protocol", "nosuch", "--trials", "2"])
        assert code == 2
        assert "error" in capsys.readouterr().err
