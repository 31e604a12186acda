"""Tests for the protocol registry and the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.protocols.base import Protocol, ProtocolParams
from repro.protocols.registry import (
    available_protocols,
    create_replicas,
    protocol_factory,
    register_protocol,
)


class TestRegistry:
    def test_all_four_protocols_available(self):
        assert set(available_protocols()) >= {"banyan", "icc", "hotstuff", "streamlet"}

    def test_factory_lookup(self):
        from repro.core.banyan import BanyanReplica

        assert protocol_factory("banyan") is BanyanReplica

    def test_unknown_protocol_raises_with_hint(self):
        with pytest.raises(KeyError) as excinfo:
            protocol_factory("nope")
        assert "available" in str(excinfo.value)

    def test_create_replicas_builds_full_set(self):
        params = ProtocolParams(n=4, f=1, p=1)
        replicas = create_replicas("banyan", params)
        assert sorted(replicas) == [0, 1, 2, 3]
        assert all(r.params is params for r in replicas.values())

    def test_create_replicas_shares_one_beacon(self):
        params = ProtocolParams(n=4, f=1)
        replicas = create_replicas("icc", params)
        beacons = {id(r.beacon) for r in replicas.values()}
        assert len(beacons) == 1

    def test_overrides_plant_custom_replicas(self):
        class Lazy(Protocol):
            name = "lazy"

            def __init__(self, replica_id, params, **_):
                super().__init__(replica_id, params)

            def on_start(self, ctx):
                pass

            def on_message(self, ctx, sender, message):
                pass

            def on_timer(self, ctx, timer):
                pass

        params = ProtocolParams(n=4, f=1)
        replicas = create_replicas("icc", params, overrides={2: Lazy})
        assert replicas[2].name == "lazy"
        assert replicas[1].name == "icc"

    @pytest.mark.parametrize("name", ["banyan", "icc", "hotstuff", "streamlet"])
    def test_replicas_take_no_key_registry(self, name):
        """Votes are unsigned, so no replica is handed a PKI."""
        params = ProtocolParams(n=4, f=1, p=1)
        factory = protocol_factory(name)
        assert factory(replica_id=0, params=params).replica_id == 0
        with pytest.raises(TypeError):
            factory(replica_id=0, params=params, registry=None)
        with pytest.raises(TypeError):
            create_replicas(name, params, registry=None)

    def test_register_additional_protocol(self):
        from repro.protocols.icc import ICCReplica

        register_protocol("icc-alias", ICCReplica)
        assert "icc-alias" in available_protocols()
        assert protocol_factory("icc-alias") is ICCReplica


class TestCLI:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "banyan" in out and "6a" in out

    def test_table1_command(self, capsys):
        assert main(["table1", "--f", "6", "--p", "1"]) == 0
        out = capsys.readouterr().out
        assert "Banyan" in out and "2δ" in out

    def test_run_command_small(self, capsys):
        assert main([
            "run", "--protocol", "banyan", "--n", "4", "--f", "1", "--p", "1",
            "--payload", "10000", "--duration", "6", "--topology", "global4",
        ]) == 0
        out = capsys.readouterr().out
        assert "mean_latency_ms" in out

    def test_run_command_names_nearest_valid_n(self, capsys):
        """An invalid (n, f, p) is a one-line error naming a valid n, not a
        resilience-bound traceback."""
        assert main(["run", "--protocol", "banyan", "--n", "16"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "n >= 19 (f=6, p=1)" in captured.err
        assert "nearest valid n is 19" in captured.err
        assert main(["run", "--n", "0"]) == 2
        assert "n must be positive" in capsys.readouterr().err

    def test_run_command_refuses_the_calendar_for_a_compute_run(
            self, capsys, monkeypatch):
        """The scheduler module's refusal is one stderr line and exit 2,
        before any run starts — not a traceback from inside the runner."""
        from repro.eval import scenarios

        def no_run(*args, **kwargs):
            raise AssertionError("the run must not start")

        monkeypatch.setattr(scenarios, "run_figure", no_run)
        assert main(["run", "--protocol", "banyan", "--n", "4", "--f", "1",
                     "--p", "1", "--scheduler", "calendar",
                     "--compute", "crypto"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert captured.err.startswith("banyan-repro run: error: ")
        assert "non-zero compute model" in captured.err

    def test_run_command_explains_an_empty_window(self, capsys):
        """A window without commits says so and why next to its all-zero
        row: here the 2 s default warm-up leaves a 1 ms window although the
        first block finalised long before."""
        assert main([
            "run", "--protocol", "banyan", "--n", "4", "--f", "1", "--p", "1",
            "--payload", "1000", "--duration", "2.001",
        ]) == 0
        captured = capsys.readouterr()
        assert "committed_blocks" in captured.out
        assert captured.err.count("\n") == 1
        assert "measurement window" in captured.err
        assert "0.001 s long (--duration 2.001 minus the 2 s warm-up)" in captured.err
        assert "first finalisation came at 0." in captured.err

    def test_run_command_rejects_a_run_inside_the_warmup(self, capsys):
        """No window at all is an error before anything runs, not a zero row."""
        for duration in ("2", "0.5"):
            assert main(["run", "--protocol", "banyan", "--n", "4", "--f", "1",
                         "--p", "1", "--duration", duration]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1
            assert "after the 2 s warm-up" in captured.err
        # The workload scenarios measure from t = 0: any positive
        # duration is a window, and argparse refuses the rest.
        with pytest.raises(SystemExit) as exit_info:
            main(["workload", "flash-crowd", "--duration", "0"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be a positive number, got 0" in captured.err

    @pytest.mark.parametrize("argv", [
        ["figure", "6b", "--duration", "1"],                   # preset 2 s warm-up
        ["figure", "6a", "--duration", "1", "--warmup", "2"],
    ])
    def test_figure_command_rejects_a_run_inside_the_warmup(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert ("--duration 1 leaves no measurement window after the 2 s warm-up"
                in captured.err)

    def test_figure_command_quick(self, capsys):
        assert main(["figure", "6b", "--duration", "6"]) == 0
        out = capsys.readouterr().out
        assert "Figure 6b" in out and "banyan (p=1)" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "9z"])

    def test_figure_command_parallel_replicated_cached(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        argv = ["figure", "6b", "--duration", "5", "--jobs", "2", "--seeds", "2",
                "--cache-dir", cache_dir]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "mean_latency_ms_ci95" in first.out
        assert "(cached)" not in first.err

        # Same invocation again: every cell is served from the cache.
        assert main(argv) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert second.err.count("(cached)") == second.err.count("[")

        # Serial execution renders the identical report (modulo progress).
        assert main(["figure", "6b", "--duration", "5", "--jobs", "1",
                     "--seeds", "2", "--no-cache"]) == 0
        assert capsys.readouterr().out == first.out

    def test_run_profile_out_dumps_pstats(self, capsys, tmp_path):
        import pstats

        path = str(tmp_path / "run.pstats")
        # --profile-out implies --profile: one replication under cProfile,
        # raw stats dumped to the given path for offline analysis.
        assert main([
            "run", "--protocol", "banyan", "--n", "4", "--f", "1", "--p", "1",
            "--payload", "10000", "--duration", "4", "--topology", "global4",
            "--profile-out", path,
        ]) == 0
        captured = capsys.readouterr()
        assert "mean_latency_ms" in captured.out
        assert "scheduled events by kind" in captured.err
        stats = pstats.Stats(path)
        assert stats.stats  # non-empty profile

    def test_run_command_with_seeds(self, capsys):
        assert main([
            "run", "--protocol", "banyan", "--n", "4", "--f", "1", "--p", "1",
            "--payload", "10000", "--duration", "5", "--seeds", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "mean_latency_ms_ci95" in out

    @pytest.mark.parametrize("command", [
        ["figure", "6b"], ["run"], ["workload", "saturation"], ["chaos"],
    ])
    def test_jobs_must_be_positive(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--jobs", "0"])
        assert exit_info.value.code == 2
        assert "argument --jobs: must be a positive integer, got 0" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["figure", "6b"], ["run"], ["workload", "saturation"],
    ])
    def test_seeds_must_be_positive(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--seeds", "0"])
        assert exit_info.value.code == 2
        assert "argument --seeds: must be a positive integer, got 0" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--transport", "relay", "--relays", "0"],
         "argument --relays: must be a positive integer, got 0"),
        (["--transport", "contended", "--uplink-mbps", "0"],
         "argument --uplink-mbps: must be a positive number, got 0"),
        (["--compute", "crypto", "--compute-scale", "-1"],
         "argument --compute-scale: must be a positive number, got -1"),
    ])
    def test_run_rejects_non_positive_transport_and_compute_values(
            self, capsys, flags, message):
        """A usage error (exit 2), not a ValueError traceback from the model."""
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--n", "4", "--f", "1", "--p", "0", "--duration", "3"]
                 + flags)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert message in err

    @pytest.mark.parametrize("command", [["chaos", "--trials", "2"], ["cluster"]])
    @pytest.mark.parametrize("duration", ["0", "-1"])
    def test_chaos_and_cluster_refuse_a_non_positive_duration(
            self, capsys, command, duration):
        with pytest.raises(SystemExit) as exit_info:
            main(command + ["--duration", duration])
        assert exit_info.value.code == 2
        assert (f"argument --duration: must be a positive number, got {duration}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv, message", [
        (["run", "--n", "4", "--f", "1", "--p", "1", "--duration", "inf"],
         "argument --duration: must be a positive number, got inf"),
        (["figure", "6a", "--duration", "nan"],
         "argument --duration: must be a positive number, got nan"),
        (["figure", "6a", "--duration", "1", "--warmup", "-1"],
         "argument --warmup: must be a non-negative number, got -1"),
        (["figure", "6a", "--duration", "3", "--warmup", "inf"],
         "argument --warmup: must be a non-negative number, got inf"),
        (["workload", "saturation", "--duration", "-1"],
         "argument --duration: must be a positive number, got -1"),
        (["table1", "--f", "-1"], "f must be at least 1"),
        (["table1", "--f", "2", "--p", "5"], "p must be in [1, f]"),
    ])
    def test_refuses_inputs_that_hang_or_raise(self, capsys, argv, message):
        """One error line and exit 2, before anything runs: not a hang
        (infinite duration), a stretched window (negative warm-up) or a
        traceback."""
        try:
            code = main(argv)
        except SystemExit as exit_info:
            code = exit_info.code
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1
        assert message in captured.err

    @pytest.mark.parametrize("flags, message", [
        (["--rank-delay", "-1"], "delays must be finite and non-negative"),
        (["--rank-delay", "nan"], "delays must be finite and non-negative"),
        (["--round-timeout", "inf"], "delays must be finite and non-negative"),
        (["--clients", "0", "--rate", "50"],
         "argument --clients: must be a positive integer, got 0"),
        (["--rate", "-5"], "argument --rate: must be a non-negative number, got -5"),
        (["--rate", "nan"], "argument --rate: must be a non-negative number, got nan"),
        (["--payload", "-1"], "payload size must be non-negative"),
        (["--base-port", "70000"], "port 70000 of replica 0 is outside 0-65535"),
        (["--tx-size", "-1", "--rate", "10"],
         "argument --tx-size: must be a positive integer, got -1"),
    ])
    def test_cluster_checks_its_flags_before_spawning(
            self, capsys, monkeypatch, flags, message):
        import repro.cluster.harness as harness

        def spawn(*args, **kwargs):  # pragma: no cover - must not be reached
            raise AssertionError("a cluster was spawned")

        monkeypatch.setattr(harness, "run_local_cluster", spawn)
        try:
            code = main(["cluster", "--n", "4", "--duration", "2"] + flags)
        except SystemExit as exit_info:
            code = exit_info.code
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("error:") == 1
        assert message in captured.err

    @pytest.mark.parametrize("protocol", ["banyan", "all"])
    def test_cluster_checks_the_resilience_bound_before_spawning(
            self, capsys, monkeypatch, protocol):
        import repro.cluster.harness as harness

        def spawn(*args, **kwargs):  # pragma: no cover - must not be reached
            raise AssertionError("a cluster was spawned")

        monkeypatch.setattr(harness, "run_local_cluster", spawn)
        assert main(["cluster", "--protocol", protocol, "--n", "4", "--f", "2",
                     "--duration", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "n=4 violates the resilience bound n >= 7" in captured.err
        assert "the nearest valid n is" in captured.err

    @staticmethod
    def _capture_clusters(monkeypatch, committed_tx=None, measured=True):
        """Replace the cluster run by one that records each config and
        returns a clean run: 5 blocks (with one finalization-latency sample
        unless not ``measured``), and ``committed_tx`` client transactions
        of 10 when the config has a workload."""
        from pathlib import Path

        import repro.cluster.harness as harness
        from repro.eval.experiment import ExperimentResult
        from repro.smr.metrics import LatencySample, RunMetrics, WorkloadMetrics

        configs = []

        def run(config, **_):
            configs.append(config)
            workload = None if config.workload is None else WorkloadMetrics(
                duration=config.duration, submitted=10, committed=committed_tx,
                latencies=[0.1] * committed_tx)
            samples = [LatencySample(proposer=0, round=1, latency=0.2,
                                     finalization_kind="slow")] if measured else []
            experiment = ExperimentResult(
                config, RunMetrics(config.protocol, config.duration, committed_blocks=5,
                                   latency_samples=samples),
                messages_sent=0, bytes_sent=0, workload=workload)
            return harness.ClusterResult(experiment, {0: 0}, [], [], {}, Path("."))

        monkeypatch.setattr(harness, "run_local_cluster", run)
        return configs

    @pytest.mark.parametrize("flags, duration", [([], 6.0), (["--duration", "10"], 10.0)])
    def test_cluster_replay_runs_the_repro_unless_duration_is_given(
            self, tmp_path, monkeypatch, capsys, flags, duration):
        import json

        from repro.chaos.engine import ChaosTrialSpec
        from repro.chaos.schedule import ChaosSchedule

        spec = ChaosTrialSpec(protocol="icc", n=4, f=1, p=1, rank_delay=0.05,
                              round_timeout=0.5, payload_size=7, duration=6.0)
        repro = tmp_path / "repro.json"
        repro.write_text(json.dumps({"spec": spec.to_dict(),
                                     "schedule": ChaosSchedule().to_dict()}))
        configs = self._capture_clusters(monkeypatch)
        assert main(["cluster", "--replay", str(repro), "--seed", "3"] + flags) == 0
        (config,) = configs
        assert (config.protocol, config.params, config.duration) == (
            "icc", spec.params(), duration)
        assert (config.seed, config.warmup, config.workload) == (3, 0.0, None)
        assert "committed_blocks" in capsys.readouterr().out

    def test_cluster_runs_one_config_per_protocol(self, monkeypatch, capsys):
        from repro.workload.spec import WorkloadSpec

        configs = self._capture_clusters(monkeypatch, committed_tx=10)
        assert main(["cluster", "--protocol", "all", "--rate", "200", "--tx-size", "64",
                     "--clients", "3", "--seed", "4", "--duration", "2"]) == 0
        assert [config.protocol for config in configs] == [
            "banyan", "icc", "hotstuff", "streamlet"]
        assert {config.params.rank_delay for config in configs} == {0.05}
        assert configs[0].workload == WorkloadSpec(rate=200.0, tx_size=64,
                                                   num_clients=3, seed=4)
        out = capsys.readouterr().out
        assert "tx_p50_ms" in out and "tx_p99_ms" in out and "violations" in out

    def test_cluster_fails_a_run_in_which_no_transaction_committed(
            self, monkeypatch, capsys):
        self._capture_clusters(monkeypatch, committed_tx=0)
        assert main(["cluster", "--rate", "50", "--duration", "2"]) == 1
        captured = capsys.readouterr()
        assert "committed_tx" in captured.out
        assert captured.err == ("banyan-repro cluster: error: no transaction "
                                "committed in 1 run(s) (banyan); raise --duration\n")

    def test_cluster_fails_a_run_that_measured_no_finalization_latency(
            self, monkeypatch, capsys):
        """Commits without one latency sample mean the proposal times got
        lost on their way out of the nodes: a table of zero latencies is
        not a result."""
        self._capture_clusters(monkeypatch, measured=False)
        assert main(["cluster", "--duration", "2"]) == 1
        captured = capsys.readouterr()
        assert "committed_blocks" in captured.out
        assert captured.err == ("banyan-repro cluster: error: 1 run(s) (banyan) "
                                "committed blocks but measured no finalization "
                                "latency\n")

    def test_workload_command_accepts_runner_flags(self, capsys):
        assert main([
            "workload", "saturation", "--rates", "20", "--duration", "5",
            "--jobs", "2", "--seeds", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "goodput_tx_per_s_ci95" in out

    def test_run_command_with_contended_transport(self, capsys):
        assert main([
            "run", "--protocol", "banyan", "--n", "4", "--f", "1", "--p", "1",
            "--payload", "100000", "--duration", "5",
            "--transport", "contended", "--uplink-mbps", "20",
        ]) == 0
        out = capsys.readouterr().out
        assert "mean_latency_ms" in out

    def test_run_command_rejects_uplink_without_contended(self, capsys):
        assert main([
            "run", "--n", "4", "--f", "1", "--duration", "5",
            "--uplink-mbps", "20",
        ]) == 2
        assert "--transport contended" in capsys.readouterr().err

    def test_run_command_rejects_relays_without_relay_transport(self, capsys):
        assert main([
            "run", "--n", "4", "--f", "1", "--duration", "5", "--relays", "3",
        ]) == 2
        assert "--transport relay" in capsys.readouterr().err

    def test_run_command_rejects_unknown_transport(self):
        with pytest.raises(SystemExit):
            main(["run", "--n", "4", "--f", "1", "--transport", "quic"])

    def test_run_command_with_crypto_compute(self, capsys):
        assert main([
            "run", "--protocol", "banyan", "--n", "4", "--f", "1", "--p", "1",
            "--payload", "10000", "--duration", "5",
            "--compute", "crypto", "--compute-scale", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "busy_frac" in out

    def test_run_command_rejects_scale_without_crypto_compute(self, capsys):
        assert main([
            "run", "--n", "4", "--f", "1", "--duration", "5",
            "--compute-scale", "2",
        ]) == 2
        assert "--compute crypto" in capsys.readouterr().err

    def test_run_command_rejects_unknown_compute(self):
        with pytest.raises(SystemExit):
            main(["run", "--n", "4", "--f", "1", "--compute", "gpu"])

    def test_figure_crypto_listed_and_runs_tiny(self, capsys):
        assert main(["list"]) == 0
        assert "crypto" in capsys.readouterr().out
        assert main(["figure", "crypto", "--duration", "2",
                     "--warmup", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "banyan (free compute)" in out
        assert "banyan (crypto compute)" in out
        assert "busy_frac" in out

    def test_figure_uplink_listed_and_runs_tiny(self, capsys):
        assert main(["list"]) == 0
        assert "uplink" in capsys.readouterr().out
        assert main(["figure", "uplink", "--duration", "2",
                     "--warmup", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "banyan (contended uplink)" in out
        assert "banyan (ideal uplink)" in out
