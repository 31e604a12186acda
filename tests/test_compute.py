"""Tests for the replica compute layer: models, wiring, metrics, scenario.

The byte-for-byte equivalence of the default :class:`ZeroCompute` with the
pre-compute simulator is pinned by the golden digests in
``tests/test_transport.py``; these tests cover the crypto cost model's
arithmetic, the simulator's CPU-timeline semantics (deliveries queue at a
busy core, run()/step() agree), the metrics/trace/serialisation surfaces,
and the network-bound → CPU-bound crossover scenario; the inbox + wake
mechanics are pinned in ``tests/test_cpu_inbox.py``.
"""

from __future__ import annotations

import math

import pytest

from repro.eval.experiment import ExperimentConfig, run_experiment
from repro.eval.runner import run_plan
from repro.eval.scenarios import figure_from_plan, plan_crypto_bound
from repro.net.latency import ConstantLatency
from repro.protocols.base import Protocol, ProtocolParams
from repro.protocols.registry import create_replicas
from repro.runtime.compute import (
    CryptoCostCompute,
    CryptoCostTable,
    ZeroCompute,
    available_compute_models,
    build_compute,
)
from repro.runtime.simulator import NetworkConfig, Simulation
from repro.runtime.trace import attach_compute_trace
from repro.types.blocks import Block, genesis_block
from repro.types.certificates import Notarization
from repro.types.messages import BlockProposal, CertificateMessage, VoteMessage
from repro.types.votes import FastVote, NotarizationVote


def _notarization(voters) -> Notarization:
    return Notarization(round=1, block_id=b"b", voters=frozenset(voters))


class TestCostModel:
    def test_registry(self):
        assert available_compute_models() == ["crypto", "zero"]
        assert isinstance(build_compute("zero"), ZeroCompute)
        crypto = build_compute("crypto", scale=3.0)
        assert isinstance(crypto, CryptoCostCompute)
        assert crypto.scale == 3.0

    def test_unknown_model_rejected_with_hint(self):
        with pytest.raises(KeyError, match="crypto"):
            build_compute("gpu")

    def test_instance_adopted_and_reset(self):
        instance = CryptoCostCompute()
        instance.busy_until[0] = 99.0
        assert build_compute(instance) is instance
        assert instance.busy_until == {}

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            CryptoCostCompute(scale=0.0)

    def test_zero_compute_is_trivial_and_free(self):
        model = ZeroCompute()
        assert model.trivial
        assert model.message_cost(0, 1, VoteMessage(votes=(), sender=1)) == 0.0

    def test_vote_message_cost_scales_with_votes(self):
        table = CryptoCostTable()
        model = CryptoCostCompute(table)
        one = VoteMessage(votes=(NotarizationVote(round=1, block_id=b"b", voter=1),),
                          sender=1)
        two = VoteMessage(votes=(NotarizationVote(round=1, block_id=b"b", voter=1),
                                 FastVote(round=1, block_id=b"b", voter=1)),
                          sender=1)
        assert model.message_cost(0, 1, one) == pytest.approx(
            table.hash_s + table.share_verify_s)
        assert model.message_cost(0, 1, two) == pytest.approx(
            table.hash_s + 2 * table.share_verify_s)

    def test_certificate_cost_scales_with_signer_set(self):
        table = CryptoCostTable()
        model = CryptoCostCompute(table)
        small = CertificateMessage(certificate=_notarization(range(3)), sender=1)
        large = CertificateMessage(certificate=_notarization(range(13)), sender=1)
        delta = (model.message_cost(0, 1, large)
                 - model.message_cost(0, 1, small))
        assert delta == pytest.approx(10 * table.aggregate_verify_per_signer_s)

    def test_proposal_cost_includes_sign_and_attachments(self):
        table = CryptoCostTable()
        model = CryptoCostCompute(table)
        block = Block(round=1, proposer=1, rank=0, parent_id=genesis_block().id)
        bare = BlockProposal(block=block)
        with_parent = BlockProposal(block=block,
                                    parent_notarization=_notarization(range(5)))
        assert model.message_cost(0, 1, bare) == pytest.approx(
            table.hash_s + table.share_verify_s + table.sign_s)
        assert model.message_cost(0, 1, with_parent) == pytest.approx(
            model.message_cost(0, 1, bare) + table.aggregate_verify_base_s
            + 5 * table.aggregate_verify_per_signer_s)

    def test_self_delivery_is_free(self):
        model = CryptoCostCompute()
        message = VoteMessage(votes=(NotarizationVote(round=1, block_id=b"b",
                                                      voter=0),), sender=0)
        assert model.message_cost(0, 0, message) == 0.0
        assert model.message_cost(1, 0, message) > 0.0

    def test_scale_multiplies_every_cost(self):
        message = VoteMessage(votes=(NotarizationVote(round=1, block_id=b"b",
                                                      voter=1),), sender=1)
        base = CryptoCostCompute().message_cost(0, 1, message)
        assert CryptoCostCompute(scale=5.0).message_cost(0, 1, message) == (
            pytest.approx(5.0 * base))


class _Sink(Protocol):
    """Replica 0 records when each delivery is handled."""

    name = "sink"

    def __init__(self, replica_id, params):
        super().__init__(replica_id, params)
        self.handled = []

    def on_start(self, ctx):
        if self.replica_id == 1:
            # Two back-to-back broadcasts: their copies arrive together.
            vote = NotarizationVote(round=1, block_id=b"b", voter=1)
            ctx.broadcast(VoteMessage(votes=(vote,), sender=1))
            ctx.broadcast(VoteMessage(votes=(vote,), sender=1))

    def on_message(self, ctx, sender, message):
        self.handled.append(ctx.now())

    def on_timer(self, ctx, timer):
        pass


class TestSimulatorWiring:
    def _sink_simulation(self, compute, scale=1.0):
        params = ProtocolParams(n=2, f=0, p=0)
        protocols = {i: _Sink(i, params) for i in range(2)}
        network = NetworkConfig(latency=ConstantLatency(0.05), compute=compute,
                                compute_scale=scale)
        return Simulation(protocols, network), protocols

    def test_busy_core_defers_second_delivery(self):
        simulation, protocols = self._sink_simulation("crypto")
        simulation.run_until_idle()
        first, second = protocols[0].handled
        cost = simulation.compute.message_cost(
            0, 1, VoteMessage(votes=(NotarizationVote(round=1, block_id=b"b",
                                                      voter=1),), sender=1))
        # Both copies arrive together; the second waits out the first's cost.
        assert second - first == pytest.approx(cost)
        stats = simulation.compute_stats()
        assert stats["deferred_deliveries"] == 1
        assert stats["cpu_wakes"] == 1
        assert stats["queue_depth_max"] == {0: 1}
        assert stats["waiting"] == {0: 0}
        assert stats["queue_wait_s"][0] == pytest.approx(cost)
        assert stats["busy_s"][0] == pytest.approx(2 * cost)

    def test_zero_compute_delivers_back_to_back(self):
        simulation, protocols = self._sink_simulation("zero")
        simulation.run_until_idle()
        first, second = protocols[0].handled
        assert first == second  # no CPU serialization between the copies
        assert simulation.compute_stats() == {"compute": "zero"}

    def test_step_and_run_agree_under_crypto_compute(self):
        params = ProtocolParams(n=4, f=1, p=1, rank_delay=0.4, payload_size=1_000)

        def run_with(driver):
            simulation = Simulation(
                create_replicas("banyan", params),
                NetworkConfig(latency=ConstantLatency(0.05), seed=1,
                              compute="crypto", compute_scale=2.0),
            )
            driver(simulation)
            return [(r.block.id, f"{r.commit_time:.9f}", r.finalization_kind)
                    for r in simulation.commits_for(0)]

        def stepper(simulation):
            simulation.start()
            while simulation.now < 6.0 and simulation.step():
                pass

        full = run_with(lambda simulation: simulation.run(until=6.0))
        stepped = run_with(stepper)
        # step() overshoots the horizon by at most its final event.
        assert full == stepped[: len(full)] or full[: len(stepped)] == stepped
        assert full

    def test_crypto_compute_is_deterministic(self):
        params = ProtocolParams(n=4, f=1, p=1, rank_delay=0.4, payload_size=1_000)

        def run_once():
            simulation = Simulation(
                create_replicas("banyan", params),
                NetworkConfig(latency=ConstantLatency(0.05), seed=7,
                              compute="crypto"),
            )
            simulation.run(until=8.0)
            return ([(r.block.id, r.commit_time) for r in simulation.commits_for(0)],
                    simulation.compute_stats())

        assert run_once() == run_once()

    def test_crypto_compute_slows_commits(self):
        params = ProtocolParams(n=4, f=1, p=1, rank_delay=0.4, payload_size=1_000)

        def commits(compute, scale):
            simulation = Simulation(
                create_replicas("banyan", params),
                NetworkConfig(latency=ConstantLatency(0.05), seed=1,
                              compute=compute, compute_scale=scale),
            )
            simulation.run(until=8.0)
            return len(simulation.commits_for(0))

        assert commits("crypto", 10.0) < commits("zero", 1.0)

    def test_compute_trace_records_busy_and_wait(self):
        simulation, _ = self._sink_simulation("crypto")
        log = attach_compute_trace(simulation)
        simulation.run_until_idle()
        busy = log.events(kind="cpu-busy")
        waits = log.events(kind="cpu-wait")
        assert len(busy) == 2 and len(waits) == 1
        assert busy[0].data["message"] == "VoteMessage"
        # One event per delivery that waited, emitted when it leaves the
        # inbox: stamped with its arrival, carrying its whole wait and
        # the message type that waited.
        assert waits[0].time == busy[0].time
        assert waits[0].time + waits[0].data["seconds"] == (
            pytest.approx(busy[1].time))
        assert waits[0].data["seconds"] == pytest.approx(busy[0].data["seconds"])
        assert waits[0].data["message"] == "VoteMessage"

    def test_saturated_run_respects_the_horizon(self):
        # Under CPU saturation the delivery backlog must stay queued past
        # ``until`` — not drain at times beyond the horizon (which would
        # contaminate duration-based metrics and push busy fractions > 1).
        params = ProtocolParams(n=7, f=2, p=1, rank_delay=0.4, payload_size=1_000)
        simulation = Simulation(
            create_replicas("banyan", params),
            NetworkConfig(latency=ConstantLatency(0.05), seed=1,
                          compute="crypto", compute_scale=400.0),
        )
        simulation.run(until=5.0)
        assert simulation.now == 5.0
        for records in simulation.all_commits().values():
            assert all(record.commit_time <= 5.0 for record in records)

    def test_custom_compute_model_only_needs_message_cost(self):
        # The documented extension point: subclass ComputeModel, implement
        # message_cost, pass the instance — the timeline bookkeeping is
        # inherited from the base class.
        from repro.runtime.compute import ComputeModel

        class FlatCompute(ComputeModel):
            name = "flat"

            def message_cost(self, receiver, sender, message):
                return 0.001 if receiver != sender else 0.0

        model = FlatCompute()
        params = ProtocolParams(n=2, f=0, p=0)
        simulation = Simulation(
            {i: _Sink(i, params) for i in range(2)},
            NetworkConfig(latency=ConstantLatency(0.05), compute=model),
        )
        simulation.run_until_idle()
        assert model.messages_charged == 2
        assert model.deferred_deliveries == 1
        assert model.busy_s[0] == pytest.approx(0.002)

    def test_compute_trace_silent_under_zero(self):
        simulation, _ = self._sink_simulation("zero")
        log = attach_compute_trace(simulation)
        simulation.run_until_idle()
        assert len(log) == 0


class TestComputeMetricsAndSerialization:
    def _config(self, compute="zero", scale=1.0):
        return ExperimentConfig(
            protocol="banyan",
            params=ProtocolParams(n=4, f=1, p=1, rank_delay=0.6,
                                  payload_size=10_000),
            duration=6.0, warmup=1.0, compute=compute, compute_scale=scale,
        )

    def test_crypto_run_reports_busy_fractions_and_waits(self):
        result = run_experiment(self._config("crypto"))
        metrics = result.metrics
        assert set(metrics.compute_busy_fractions) == {0, 1, 2, 3}
        assert 0.0 < metrics.max_busy_fraction <= 1.0
        assert metrics.total_compute_queue_wait_s >= 0.0
        row = result.row()
        assert row["busy_frac"] == round(metrics.max_busy_fraction, 3)
        assert "cpu_wait_ms" in row

    def test_busy_fraction_stops_at_the_horizon(self):
        # A cost is booked whole when its handling starts; on a saturated
        # run the last one spills past ``duration`` and used to push the
        # fraction above 1 (1.298 for this configuration).
        result = run_experiment(ExperimentConfig(
            "banyan", ProtocolParams(n=7, f=2, p=1, payload_size=1000),
            duration=5, warmup=1, compute="crypto", compute_scale=400))
        assert 0.99 < result.metrics.max_busy_fraction <= 1.0

    def test_zero_run_reports_nothing(self):
        result = run_experiment(self._config("zero"))
        assert result.metrics.compute_busy_fractions == {}
        assert result.metrics.max_busy_fraction == 0.0
        assert "busy_frac" not in result.row()
        # Zero-compute metrics serialise exactly as pre-compute ones did.
        assert "compute_busy_fractions" not in result.metrics.to_dict()

    def test_result_round_trip_with_compute(self):
        from repro.eval.experiment import ExperimentResult

        result = run_experiment(self._config("crypto", scale=2.0))
        rebuilt = ExperimentResult.from_dict(result.to_dict())
        assert rebuilt.row() == result.row()
        assert rebuilt.metrics.compute_busy_fractions == (
            result.metrics.compute_busy_fractions)
        assert rebuilt.config.compute == "crypto"
        assert rebuilt.config.compute_scale == 2.0

    def test_spec_hash_unchanged_by_default_compute(self):
        base = ExperimentConfig(protocol="banyan",
                                params=ProtocolParams(n=4, f=1, p=1))
        explicit = ExperimentConfig(protocol="banyan",
                                    params=ProtocolParams(n=4, f=1, p=1),
                                    compute="zero", compute_scale=1.0)
        assert explicit.content_hash() == base.content_hash()
        assert "compute" not in base.to_dict()
        # A scale the zero model never reads must not change the hash.
        scaled = ExperimentConfig(protocol="banyan",
                                  params=ProtocolParams(n=4, f=1, p=1),
                                  compute_scale=7.0)
        assert scaled.content_hash() == base.content_hash()

    def test_spec_hash_distinguishes_compute_models(self):
        base = ExperimentConfig(protocol="banyan",
                                params=ProtocolParams(n=4, f=1, p=1))
        crypto = ExperimentConfig(protocol="banyan",
                                  params=ProtocolParams(n=4, f=1, p=1),
                                  compute="crypto")
        scaled = ExperimentConfig(protocol="banyan",
                                  params=ProtocolParams(n=4, f=1, p=1),
                                  compute="crypto", compute_scale=2.0)
        assert len({base.content_hash(), crypto.content_hash(),
                    scaled.content_hash()}) == 3

    def test_config_round_trip(self):
        config = ExperimentConfig(protocol="banyan",
                                  params=ProtocolParams(n=4, f=1, p=1),
                                  compute="crypto", compute_scale=3.0)
        rebuilt = ExperimentConfig.from_dict(config.to_dict())
        assert rebuilt.to_dict() == config.to_dict()
        assert (rebuilt.compute, rebuilt.compute_scale) == ("crypto", 3.0)


class TestCryptoBoundScenario:
    def test_plan_shape(self):
        plan = plan_crypto_bound(replica_counts=(4, 7), seeds=2)
        assert len(plan.specs) == 2 * 2 * 2  # n × series × replications
        assert {spec.compute for spec in plan.specs} == {"zero", "crypto"}
        assert all(spec.axis == {"n": spec.params.n} for spec in plan.specs)

    def test_crossover_monotone_in_n(self):
        plan = plan_crypto_bound(replica_counts=(4, 10, 16), duration=6.0,
                                 warmup=1.0)
        figure = figure_from_plan(plan, run_plan(plan))
        free = {row["n"]: row for row in figure.series["banyan (free compute)"]}
        costed = {row["n"]: row
                  for row in figure.series["banyan (crypto compute)"]}
        busy = [costed[n]["busy_frac"] for n in (4, 10, 16)]
        # CPU load rises monotonically with n (the crossover's x-axis)...
        assert busy == sorted(busy) and busy[0] < busy[-1]
        assert not math.isclose(busy[0], busy[-1])
        # ...while free-compute throughput stays network-bound and flat-ish,
        # the costed series falls further behind at every step.
        gaps = [free[n]["blocks_per_s"] - costed[n]["blocks_per_s"]
                for n in (4, 10, 16)]
        assert gaps == sorted(gaps)
        assert gaps[0] >= 0 and gaps[-1] > gaps[0]
