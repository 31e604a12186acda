"""Tests for experiment plans, the sweep runner, caching, and serialization."""

from __future__ import annotations

import json
import os

import pytest

from repro.eval.experiment import ExperimentConfig, ExperimentResult, run_experiment
from repro.eval.plan import ExperimentPlan, derive_subseed, payload_sweep_plan
from repro.eval.runner import cache_path, run_plan
from repro.eval.scenarios import (
    GLOBAL_RANK_DELAY,
    figure_from_plan,
    plan_figure_6b,
    plan_saturation_sweep,
)
from repro.net.faults import FaultPlan, PartitionPlan
from repro.net.topology import four_global_datacenters
from repro.protocols.base import ProtocolParams
from repro.workload.spec import WorkloadSpec


def _small_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        protocol="banyan",
        params=ProtocolParams(n=4, f=1, p=1, rank_delay=GLOBAL_RANK_DELAY,
                              payload_size=50_000),
        topology="global4",
        duration=5.0,
        warmup=1.0,
        seed=7,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _small_plan(seeds: int = 1) -> ExperimentPlan:
    specs = [
        _small_config(label="banyan (p=1)", cell="payload=50000"),
        _small_config(protocol="icc", label="icc", cell="payload=50000"),
    ]
    return ExperimentPlan(name="test", title="test plan", specs=specs
                          ).with_replications(seeds)


class TestSubSeeds:
    def test_replication_zero_keeps_base_seed(self):
        assert derive_subseed(13, 0, "net") == 13

    def test_deterministic_and_component_independent(self):
        assert derive_subseed(0, 1, "net") == derive_subseed(0, 1, "net")
        assert derive_subseed(0, 1, "net") != derive_subseed(0, 2, "net")
        assert derive_subseed(0, 1, "net") != derive_subseed(0, 1, "workload")
        assert derive_subseed(0, 1, "net") != derive_subseed(1, 1, "net")

    def test_replicated_specs_have_distinct_seeds(self):
        spec = _small_config(workload=WorkloadSpec(rate=20.0, seed=7))
        reps = spec.replicated(3)
        assert [r.replication for r in reps] == [0, 1, 2]
        assert reps[0].seed == 7 and reps[0].workload.seed == 7
        net_seeds = {r.seed for r in reps}
        workload_seeds = {r.workload.seed for r in reps}
        assert len(net_seeds) == 3 and len(workload_seeds) == 3
        # Network and workload randomness must not share derived seeds.
        assert net_seeds.isdisjoint(workload_seeds - {7})

    def test_replications_must_be_positive(self):
        with pytest.raises(ValueError):
            _small_config().replicated(0)


class TestConfigSerialization:
    def test_config_round_trip(self):
        spec = _small_config(
            faults=FaultPlan(drop_probability=0.01,
                             partitions=PartitionPlan.single(1.0, 2.0, [0], [1, 2, 3])),
            workload=WorkloadSpec(rate=25.0, seed=3),
            axis={"crashed_replicas": 2},
            cell="payload=50000",
            stragglers=1,
        )
        restored = ExperimentConfig.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored.to_dict() == spec.to_dict()
        assert restored.content_hash() == spec.content_hash()

    def test_content_hash_sensitivity(self):
        spec = _small_config()
        assert spec.content_hash() == _small_config().content_hash()
        assert spec.content_hash() != _small_config(seed=8).content_hash()
        assert spec.content_hash() != _small_config(duration=6.0).content_hash()
        assert spec.content_hash() != _small_config(replication=1).content_hash()

    def test_topology_object_round_trips_as_placement(self):
        config = ExperimentConfig(
            protocol="icc",
            params=ProtocolParams(n=4, f=1, rank_delay=GLOBAL_RANK_DELAY),
            topology=four_global_datacenters(4),
            duration=5.0,
            seed=3,
        )
        rebuilt = ExperimentConfig.from_dict(config.to_dict())
        assert rebuilt.to_dict() == config.to_dict()
        assert rebuilt.topology == tuple(config.to_dict()["topology"])
        assert [d.name for d in rebuilt.resolved_topology().datacenters()] == \
               [d.name for d in config.resolved_topology().datacenters()]

    def test_observer_is_written_only_when_set(self):
        assert "observer" not in _small_config().to_dict()
        data = _small_config(observer=2).to_dict()
        assert data["observer"] == 2
        assert ExperimentConfig.from_dict(data).observer == 2

    def test_unknown_keys_are_rejected(self):
        data = _small_config().to_dict()
        data["durration"] = 9.0
        data["foreign"] = 1
        with pytest.raises(ValueError, match="durration, foreign"):
            ExperimentConfig.from_dict(data)

    def test_plan_round_trip(self):
        plan = _small_plan(seeds=2)
        restored = ExperimentPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert restored.to_dict() == plan.to_dict()
        assert [s.content_hash() for s in restored.specs] == \
               [s.content_hash() for s in plan.specs]

    def test_named_and_placement_topologies_resolve(self):
        by_name = _small_config(topology="global4").resolved_topology()
        by_placement = _small_config(
            topology=tuple(by_name.datacenter(i).name for i in by_name.replica_ids)
        ).resolved_topology()
        assert [d.name for d in by_placement.datacenters()] == \
               [d.name for d in by_name.datacenters()]


class TestResultSerialization:
    def test_experiment_result_round_trip_lossless(self):
        result = run_experiment(_small_config())
        restored = ExperimentResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored.row() == result.row()
        assert restored.to_dict() == result.to_dict()
        assert restored.metrics.latency_samples == result.metrics.latency_samples

    def test_workload_metrics_round_trip_lossless(self):
        spec = _small_config(
            warmup=0.0,
            workload=WorkloadSpec(rate=30.0, seed=7, sample_interval=0.5),
        )
        result = run_experiment(spec)
        assert result.workload is not None and result.workload.committed > 0
        restored = ExperimentResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert restored.workload.to_dict() == result.workload.to_dict()
        assert restored.workload.occupancy == result.workload.occupancy
        assert restored.row() == result.row()

    def test_latency_override_is_rejected(self):
        from repro.net.latency import ConstantLatency

        config = ExperimentConfig(
            protocol="icc", params=ProtocolParams(n=4, f=1),
            latency=ConstantLatency(0.01),
        )
        with pytest.raises(ValueError):
            config.to_dict()
        with pytest.raises(ValueError):
            config.content_hash()

    def test_non_catalogue_topology_is_rejected(self):
        from repro.net.topology import Datacenter, Topology

        custom = Topology([Datacenter("moon-base-1", 0.0, 0.0)] * 4)
        config = ExperimentConfig(
            protocol="icc", params=ProtocolParams(n=4, f=1), topology=custom,
        )
        with pytest.raises(ValueError):
            config.to_dict()
        # Same name as a catalogue region but different coordinates: silently
        # substituting the catalogue entry would change the network.
        imposter = Topology([Datacenter("us-east-1", 0.0, 0.0)] * 4)
        with pytest.raises(ValueError):
            ExperimentConfig(protocol="icc", params=ProtocolParams(n=4, f=1),
                             topology=imposter).content_hash()


class TestRunner:
    def test_parallel_results_identical_to_serial(self):
        plan = _small_plan(seeds=2)
        serial = run_plan(plan, jobs=1)
        parallel = run_plan(plan, jobs=2)
        assert [r.to_dict() for r in serial] == [r.to_dict() for r in parallel]
        assert [r.row() for r in serial] == [r.row() for r in parallel]

    def test_cache_hit_skips_execution(self, tmp_path):
        plan = _small_plan()
        cache_dir = str(tmp_path / "cache")
        first_events = []
        run_plan(plan, cache_dir=cache_dir, progress=first_events.append)
        assert [e.cached for e in first_events] == [False, False]
        assert all(os.path.exists(cache_path(cache_dir, s)) for s in plan.specs)

        second_events = []
        cached = run_plan(plan, cache_dir=cache_dir, progress=second_events.append)
        assert [e.cached for e in second_events] == [True, True]
        uncached = run_plan(plan)
        assert [r.to_dict() for r in cached] == [r.to_dict() for r in uncached]

    def test_no_cache_flag_reexecutes(self, tmp_path):
        plan = _small_plan()
        cache_dir = str(tmp_path / "cache")
        run_plan(plan, cache_dir=cache_dir)
        events = []
        run_plan(plan, cache_dir=cache_dir, use_cache=False, progress=events.append)
        assert [e.cached for e in events] == [False, False]

    def test_corrupt_cache_entry_is_reexecuted(self, tmp_path):
        plan = _small_plan()
        cache_dir = str(tmp_path / "cache")
        run_plan(plan, cache_dir=cache_dir)
        with open(cache_path(cache_dir, plan.specs[0]), "w") as handle:
            handle.write("{not json")
        events = []
        results = run_plan(plan, cache_dir=cache_dir, progress=events.append)
        assert sorted(e.cached for e in events) == [False, True]
        assert [r.to_dict() for r in results] == [r.to_dict() for r in run_plan(plan)]

    def test_result_order_follows_plan_order(self):
        plan = _small_plan(seeds=2)
        results = run_plan(plan, jobs=2)
        assert [r.label for r in results] == \
               [s.resolved_label() for s in plan.specs]

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            run_plan(_small_plan(), jobs=0)

    def test_progress_counts_monotonic(self):
        events = []
        run_plan(_small_plan(seeds=2), jobs=2, progress=events.append)
        assert [e.completed for e in events] == [1, 2, 3, 4]
        assert all(e.total == 4 for e in events)


class TestAggregation:
    def test_single_replication_rows_unchanged(self):
        plan = plan_figure_6b(payload_sizes=(500_000,), duration=5.0, warmup=1.0)
        figure = figure_from_plan(plan, run_plan(plan))
        direct = run_experiment(plan.specs[0])
        assert figure.series["banyan (p=1)"][0] == direct.row()
        assert not any("_ci95" in key for rows in figure.series.values()
                       for row in rows for key in row)

    def test_replicated_rows_carry_ci_columns(self):
        plan = plan_figure_6b(payload_sizes=(500_000,), duration=5.0, warmup=1.0,
                              seeds=2)
        figure = figure_from_plan(plan, run_plan(plan, jobs=2))
        row = figure.series["banyan (p=1)"][0]
        assert "mean_latency_ms_ci95" in row
        assert row["mean_latency_ms_ci95"] >= 0.0
        assert figure.replications == 2
        rendered = figure.render()
        assert "mean_latency_ms_ci95" in rendered and "2 replications" in rendered

    def test_mean_latency_averages_replications(self):
        plan = plan_figure_6b(payload_sizes=(500_000,), duration=5.0, warmup=1.0,
                              seeds=2)
        figure = figure_from_plan(plan, run_plan(plan))
        per_rep = [r.metrics.mean_latency for r in figure.results
                   if r.label == "banyan (p=1)"]
        assert len(per_rep) == 2
        assert figure.mean_latency("banyan (p=1)", 500_000) == \
               pytest.approx(sum(per_rep) / 2)

    def test_mean_latency_without_payload_uses_first_cell_only(self):
        plan = plan_figure_6b(payload_sizes=(500_000, 1_000_000), duration=5.0,
                              warmup=1.0)
        figure = figure_from_plan(plan, run_plan(plan))
        assert figure.mean_latency("icc") == figure.mean_latency("icc", 500_000)

    def test_axis_metadata_lands_in_rows(self):
        plan = plan_saturation_sweep(rates=(20.0,), duration=5.0)
        figure = figure_from_plan(plan, run_plan(plan))
        (rows,) = figure.series.values()
        assert rows[0]["offered_tx_per_s"] == 20.0

    def test_result_count_mismatch_rejected(self):
        plan = _small_plan()
        with pytest.raises(ValueError):
            figure_from_plan(plan, [])


class TestPayloadSweep:
    def test_payload_sweep_plan_cells(self):
        base = _small_config()
        plan = payload_sweep_plan(base, [10_000, 20_000])
        assert [s.params.payload_size for s in plan.specs] == [10_000, 20_000]
        assert [s.cell for s in plan.specs] == ["payload=10000", "payload=20000"]

    def test_sweep_falls_back_for_latency_override(self):
        from repro.eval.experiment import sweep_payload_sizes
        from repro.net.latency import ConstantLatency

        base = ExperimentConfig(
            protocol="icc",
            params=ProtocolParams(n=4, f=1, rank_delay=GLOBAL_RANK_DELAY),
            duration=5.0, warmup=1.0, latency=ConstantLatency(0.05),
        )
        results = sweep_payload_sizes(base, [10_000, 20_000])
        assert [r.config.params.payload_size for r in results] == [10_000, 20_000]
        assert all(r.metrics.committed_blocks > 0 for r in results)
