"""Tests for the evaluation harness: experiments, Table 1, figure scenarios."""

from __future__ import annotations

import pytest

from repro.analysis.report import format_table, render_series
from repro.analysis.stats import confidence_interval_95, improvement_pct
from repro.eval.experiment import ExperimentConfig, run_experiment, sweep_payload_sizes
from repro.eval.scenarios import (
    GLOBAL_RANK_DELAY,
    plan_ablation_p_sweep,
    plan_ablation_stragglers,
    plan_figure_6b,
    plan_figure_6c,
    plan_figure_6d,
    run_figure,
)
from repro.eval.table1 import TABLE1_SPECS, banyan_beats_or_matches_all, table1_rows
from repro.net.faults import FaultPlan
from repro.net.topology import four_global_datacenters, four_us_datacenters
from repro.protocols.base import ProtocolParams


class TestTable1:
    def test_has_every_protocol_row(self):
        names = {spec.name for spec in TABLE1_SPECS}
        assert {"Banyan", "ICC / Simplex", "Streamlet", "SBFT", "Zelma", "Casper FFG"} <= names
        assert len(TABLE1_SPECS) == 12

    def test_banyan_row_matches_paper_formulas(self):
        rows = {row["protocol"]: row for row in table1_rows(f=6, p=1)}
        banyan = rows["Banyan"]
        assert banyan["finalization_latency"] == "2δ"
        assert banyan["finalization_requirement"] == str(3 * 6 + 1 - 1)  # 3f + p - 1 = 18
        assert banyan["creation_requirement"] == str(2 * 6 + 1)          # 2f + p = 13
        assert banyan["replicas"] == "19"                                 # 3f + 2p - 1
        assert banyan["rotating_leaders"] == "yes"

    def test_icc_row_matches_paper(self):
        rows = {row["protocol"]: row for row in table1_rows(f=6, p=1)}
        icc = rows["ICC / Simplex"]
        assert icc["finalization_latency"] == "3δ"
        assert icc["finalization_requirement"] == "13"
        assert icc["replicas"] == "19"

    def test_f4_p4_configuration(self):
        rows = {row["protocol"]: row for row in table1_rows(f=4, p=4)}
        assert rows["Banyan"]["replicas"] == "19"
        assert rows["Banyan"]["finalization_requirement"] == "15"  # 3f + p - 1

    def test_banyan_has_minimal_finalization_latency(self):
        assert banyan_beats_or_matches_all(f=3, p=2)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            table1_rows(f=0, p=1)
        with pytest.raises(ValueError):
            table1_rows(f=2, p=3)

    def test_rows_render_as_table(self):
        rows = table1_rows(f=1, p=1)
        headers = list(rows[0])
        text = format_table(headers, [[row[h] for h in headers] for row in rows])
        assert "Banyan" in text and "Streamlet" in text


class TestExperimentRunner:
    def test_run_experiment_produces_metrics(self):
        config = ExperimentConfig(
            protocol="banyan",
            params=ProtocolParams(n=4, f=1, p=1, rank_delay=GLOBAL_RANK_DELAY,
                                  payload_size=100_000),
            topology=four_global_datacenters(4),
            duration=8.0,
            warmup=1.0,
        )
        result = run_experiment(config)
        assert result.metrics.committed_blocks > 3
        assert result.metrics.mean_latency > 0
        assert result.messages_sent > 0
        row = result.row()
        assert row["protocol"] == "banyan"
        assert row["payload_bytes"] == 100_000

    def test_topology_size_mismatch_rejected(self):
        config = ExperimentConfig(
            protocol="icc",
            params=ProtocolParams(n=7, f=2),
            topology=four_global_datacenters(4),
        )
        with pytest.raises(ValueError):
            run_experiment(config)

    @pytest.mark.parametrize("duration, warmup, message", [
        (1.0, 5.0, "no measurement window"),
        (-1.0, 0.0, "duration must be finite and > 0"),
        (float("inf"), 2.0, "duration must be finite and > 0"),
    ])
    def test_config_without_a_measurement_window_is_refused(self, duration, warmup,
                                                            message):
        params = ProtocolParams(n=4, f=1, p=1)
        with pytest.raises(ValueError, match=message):
            ExperimentConfig("banyan", params, duration=duration, warmup=warmup)
        # A config mutated after it was built is checked again at the run.
        config = ExperimentConfig("banyan", params, duration=6.0, warmup=1.0)
        config.duration, config.warmup = duration, warmup
        with pytest.raises(ValueError, match=message):
            run_experiment(config)

    @pytest.mark.parametrize("fields, message", [
        (dict(params=ProtocolParams(n=4, f=2, p=1)),
         "n=4 violates the resilience bound n >= 7"),
        (dict(compute="crypto", scheduler="calendar"),
         "scheduler 'calendar' serves only zero-compute"),
        (dict(protocol="nope"), "unknown protocol 'nope'"),
        (dict(params=ProtocolParams(n=4, f=1, p=1, rank_delay=0.0)),
         "rank delay must be positive"),
    ])
    def test_config_that_cannot_run_is_refused(self, fields, message):
        """Refused at construction, so a bad plan cell fails before any
        other cell runs, and again at the run if set afterwards."""
        base = dict(protocol="banyan", params=ProtocolParams(n=4, f=1, p=1),
                    duration=6.0, warmup=1.0)
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**{**base, **fields})
        config = ExperimentConfig(**base)
        for name, value in fields.items():
            setattr(config, name, value)
        with pytest.raises(ValueError, match=message):
            run_experiment(config)

    def test_observer_defaults_to_non_crashed_replica(self):
        config = ExperimentConfig(
            protocol="icc",
            params=ProtocolParams(n=4, f=1, rank_delay=GLOBAL_RANK_DELAY, payload_size=1_000),
            topology=four_global_datacenters(4),
            duration=6.0,
            warmup=1.0,
            faults=FaultPlan.with_crashed([0]),
        )
        result = run_experiment(config)
        assert result.metrics.committed_blocks > 0

    def test_sweep_payload_sizes(self):
        base = ExperimentConfig(
            protocol="icc",
            params=ProtocolParams(n=4, f=1, rank_delay=GLOBAL_RANK_DELAY, payload_size=0),
            topology=four_global_datacenters(4),
            duration=6.0,
            warmup=1.0,
        )
        results = sweep_payload_sizes(base, [10_000, 1_000_000])
        assert [r.config.params.payload_size for r in results] == [10_000, 1_000_000]
        # Larger payloads take longer to finalize (bandwidth term).
        assert results[0].metrics.mean_latency < results[1].metrics.mean_latency

    def test_same_seed_reproduces_results(self):
        config = ExperimentConfig(
            protocol="banyan",
            params=ProtocolParams(n=4, f=1, p=1, rank_delay=GLOBAL_RANK_DELAY,
                                  payload_size=50_000),
            topology=four_global_datacenters(4),
            duration=6.0,
            warmup=1.0,
            seed=13,
        )
        first = run_experiment(config)
        second = run_experiment(config)
        assert first.metrics.mean_latency == pytest.approx(second.metrics.mean_latency)
        assert first.metrics.committed_blocks == second.metrics.committed_blocks


class TestFigureScenarios:
    """Quick versions of the figure scenarios: check the *shape* of results."""

    def test_figure_6b_banyan_beats_icc(self):
        figure = run_figure(plan_figure_6b(payload_sizes=(500_000,), duration=10.0,
                                           warmup=1.0))
        assert figure.improvement_over("icc", "banyan (p=1)", 500_000) > 5.0
        assert figure.mean_latency("hotstuff", 500_000) > figure.mean_latency("icc", 500_000)
        text = figure.render()
        assert "banyan (p=1)" in text and "Figure 6b" in text

    def test_figure_6c_variance_comparable(self):
        figure = run_figure(plan_figure_6c(payload_size=500_000, duration=12.0,
                                           warmup=1.0))
        banyan = next(r for r in figure.results if r.label == "banyan (p=1)")
        icc = next(r for r in figure.results if r.label == "icc")
        assert banyan.metrics.mean_latency < icc.metrics.mean_latency
        # Variance of the same order of magnitude (paper: no increased variance).
        assert banyan.metrics.latency_stddev < icc.metrics.mean_latency

    def test_figure_6d_crashes_degrade_but_do_not_stop(self):
        figure = run_figure(plan_figure_6d(crash_counts=(0, 2), payload_size=20_000,
                                           duration=24.0, warmup=1.0))
        for label in ("banyan (p=1)", "icc"):
            rows = figure.series[label]
            assert rows[0]["committed_blocks"] > rows[1]["committed_blocks"] > 0
            assert rows[1]["block_interval_ms"] > rows[0]["block_interval_ms"]
        # Under crashes Banyan behaves like ICC (same committed blocks +- 10%).
        banyan_crashed = figure.series["banyan (p=1)"][1]["committed_blocks"]
        icc_crashed = figure.series["icc"][1]["committed_blocks"]
        assert abs(banyan_crashed - icc_crashed) <= max(2, 0.1 * icc_crashed)

    def test_ablation_p_sweep_runs(self):
        figure = run_figure(plan_ablation_p_sweep(p_values=(1, 4), payload_size=50_000,
                                                  duration=8.0, warmup=1.0))
        assert len(figure.results) == 2
        for rows in figure.series.values():
            assert rows[0]["committed_blocks"] > 0

    def test_ablation_stragglers_degrades_fast_path(self):
        figure = run_figure(plan_ablation_stragglers(
            straggler_counts=(0, 2), extra_delay=1.0, payload_size=10_000,
            duration=10.0, warmup=1.0))
        rows = figure.series["banyan (p=1)"]
        assert rows[0]["fast_path_ratio"] > rows[1]["fast_path_ratio"]


class TestAnalysisHelpers:
    def test_improvement_pct(self):
        assert improvement_pct(200.0, 150.0) == pytest.approx(25.0)
        assert improvement_pct(0.0, 10.0) == 0.0

    def test_confidence_interval_contains_mean(self):
        low, high = confidence_interval_95([1.0, 2.0, 3.0, 4.0])
        assert low <= 2.5 <= high

    def test_format_table_alignment(self):
        text = format_table(["a", "bbb"], [[1, 2], [333, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_render_series(self):
        text = render_series("Title", {"proto": [{"x": 1, "y": 2}]}, ["x", "y"])
        assert "Title" in text and "[proto]" in text and "1" in text
