"""Tests for the client workload subsystem and its runtime seams.

Covers the external-event injection API of the simulator (including the
cancelled-timer bookkeeping fix), the mempool's O(1) byte accounting and
edge cases, the client pool's id-queue mempools, arrival processes,
transaction encoding, the workload metrics, the mempool payload source, the
open-/closed-loop client pools, and the two workload scenario presets
(saturation sweep and flash crowd) end to end.
"""

from __future__ import annotations

import gc
import json
import random
from array import array

import pytest

from repro.eval.experiment import ExperimentConfig, run_experiment
from repro.eval.scenarios import plan_flash_crowd, plan_saturation_sweep, run_figure
from repro.net.faults import CrashSchedule, FaultPlan
from repro.net.latency import ConstantLatency
from repro.protocols.base import Protocol, ProtocolParams
from repro.protocols.registry import create_replicas
from repro.runtime.simulator import NetworkConfig, Simulation
from repro.smr.mempool import Mempool
from repro.smr.metrics import OccupancySample, WorkloadMetrics
from repro.types.blocks import Block, _content_id
from repro.workload.arrivals import (
    ConstantRate,
    DiurnalArrivals,
    FlashCrowdArrivals,
    PoissonArrivals,
)
from repro.workload.clients import ClientPool, _TxMempool
from repro.workload.payloads import MempoolPayloadSource
from repro.workload.spec import ARRIVAL_KINDS, WorkloadSpec
from repro.workload.transactions import (
    MAX_HEADER_BYTES, TxBatch, decode_tx_id, encode_batch, encode_transaction,
    split_transactions)


# --------------------------------------------------------------------- #
# Mempool byte accounting and edge cases
# --------------------------------------------------------------------- #


class TestMempoolAccounting:
    def test_total_bytes_tracks_add_and_take(self):
        pool = Mempool()
        pool.add(b"x" * 30)
        pool.add(b"y" * 50)
        assert pool.total_bytes == 80
        taken = pool.take(40)
        assert taken == [b"x" * 30]
        assert pool.total_bytes == 50

    def test_oversized_first_transaction_not_taken_and_bytes_unchanged(self):
        pool = Mempool()
        pool.add(b"z" * 100)
        assert pool.take(50) == []
        assert len(pool) == 1
        assert pool.total_bytes == 100

    def test_clear_resets_byte_count(self):
        pool = Mempool()
        pool.add(b"a" * 10)
        pool.add(b"b" * 20)
        pool.clear()
        assert len(pool) == 0
        assert pool.total_bytes == 0
        # The pool is usable again after clearing.
        assert pool.add(b"c" * 5)
        assert pool.total_bytes == 5

    def test_max_bytes_backpressure(self):
        pool = Mempool(max_bytes=100)
        assert pool.add(b"a" * 60)
        assert not pool.add(b"b" * 60)
        assert pool.add(b"c" * 40)
        assert pool.total_bytes == 100

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            Mempool(max_bytes=0)

    def test_requeue_pushes_to_front_in_order(self):
        pool = Mempool()
        pool.add(b"later")
        pool.requeue([b"first", b"second"])
        assert pool.take(1000) == [b"first", b"second", b"later"]
        assert pool.total_bytes == 0


def _tx_mempool(capacity=100, max_bytes=None, sizes=(256,) * 40, uniform=256):
    return _TxMempool(capacity, max_bytes, array("I", sizes), uniform,
                      lambda tx_ids: [b"%d" % tx_id for tx_id in tx_ids])


class TestTxMempool:
    """The per-replica id queue a client pool admits into and drains from."""

    def test_add_run_and_totals(self):
        mempool = _tx_mempool()
        assert list(mempool.add_run(range(0, 30))) == []
        assert list(mempool.add_run(range(30, 40))) == []
        assert len(mempool) == 40
        assert mempool.total_bytes == 40 * 256

    def test_capacity_refuses_the_overflow_tail(self):
        mempool = _tx_mempool(capacity=25)
        assert list(mempool.add_run(range(0, 20))) == []
        # Only 5 of the next 10 fit; the rest are refused (backpressure).
        assert list(mempool.add_run(range(20, 30))) == list(range(25, 30))
        assert mempool.ids == list(range(25))
        assert mempool.total_bytes == 25 * 256

    def test_byte_limit_refuses_a_strided_run_at_its_turn(self):
        # The pool routes every stride-th id to one replica.
        mempool = _tx_mempool(max_bytes=10 * 256)
        assert list(mempool.add_run(range(0, 40, 3))) == [30, 33, 36, 39]
        assert mempool.ids == list(range(0, 30, 3))
        assert mempool.total_bytes == 10 * 256

    def test_take_pops_the_longest_prefix_within_the_budget(self):
        mempool = _tx_mempool()
        mempool.add_run(range(20))
        assert mempool.take(12 * 256 + 128) == (list(range(12)), 12 * 256)
        assert mempool.ids == list(range(12, 20))
        assert mempool.take(100 * 256) == (list(range(12, 20)), 8 * 256)
        assert len(mempool) == 0 and mempool.total_bytes == 0

    def test_requeue_restores_the_front_bypassing_capacity(self):
        mempool = _tx_mempool(capacity=10)
        mempool.add_run(range(10))
        taken, _ = mempool.take(6 * 256)
        assert list(mempool.add_run(range(10, 16))) == []
        # Reclaiming a failed proposal's transactions must not lose them to
        # the capacity check, and they drain before newer arrivals.
        mempool.requeue(taken)
        assert len(mempool) == 16 and mempool.total_bytes == 16 * 256
        assert mempool.take(16 * 256)[0] == list(range(16))

    def test_varying_sizes_are_taken_by_their_own_bytes(self):
        mempool = _tx_mempool(sizes=(8,) * 10 + (9,) + (8,) * 5, uniform=None)
        mempool.add_run(range(16))
        assert mempool.total_bytes == 15 * 8 + 9
        # Ten 8-byte transactions fill 80 of 88 bytes; the 9-byte one waits.
        assert mempool.take(88) == (list(range(10)), 80)
        assert mempool.take(9) == ([10], 9)
        assert mempool.total_bytes == 5 * 8

    def test_peek_formats_without_dequeuing(self):
        mempool = _tx_mempool()
        mempool.add_run(range(3))
        assert mempool.peek(2) == [b"0", b"1"]
        assert mempool.peek(10) == [b"0", b"1", b"2"]
        assert len(mempool) == 3 and mempool.total_bytes == 3 * 256


# --------------------------------------------------------------------- #
# Arrival processes
# --------------------------------------------------------------------- #


class TestArrivals:
    def test_constant_rate_is_evenly_spaced(self):
        arrivals = ConstantRate(20.0)
        rng = random.Random(0)
        assert arrivals.next_interarrival(0.0, rng) == pytest.approx(0.05)
        assert arrivals.rate(123.0) == 20.0

    def test_poisson_is_seed_deterministic_with_correct_mean(self):
        draws_a = [PoissonArrivals(50.0).next_interarrival(0, random.Random(7))
                   for _ in range(1)]
        draws_b = [PoissonArrivals(50.0).next_interarrival(0, random.Random(7))
                   for _ in range(1)]
        assert draws_a == draws_b
        rng = random.Random(1)
        arrivals = PoissonArrivals(50.0)
        draws = [arrivals.next_interarrival(0, rng) for _ in range(4000)]
        assert sum(draws) / len(draws) == pytest.approx(1 / 50.0, rel=0.1)

    def test_diurnal_rate_follows_the_sine(self):
        arrivals = DiurnalArrivals(100.0, amplitude=0.5, period=40.0)
        assert arrivals.rate(10.0) == pytest.approx(150.0)  # quarter period: peak
        assert arrivals.rate(30.0) == pytest.approx(50.0)   # three quarters: trough
        rng = random.Random(3)
        # Thinning keeps the long-run rate near the base rate.
        count, t = 0, 0.0
        while t < 80.0:
            t += arrivals.next_interarrival(t, rng)
            count += 1
        assert count == pytest.approx(100.0 * 80.0, rel=0.15)

    def test_flash_crowd_rate_window(self):
        arrivals = FlashCrowdArrivals(10.0, burst_rate=200.0,
                                      burst_start=5.0, burst_duration=2.0)
        assert arrivals.rate(4.9) == 10.0
        assert arrivals.rate(5.0) == 200.0
        assert arrivals.rate(6.9) == 200.0
        assert arrivals.rate(7.0) == 10.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0)
        with pytest.raises(ValueError):
            ConstantRate(-1)
        with pytest.raises(ValueError):
            DiurnalArrivals(10.0, amplitude=1.5)
        with pytest.raises(ValueError):
            FlashCrowdArrivals(10.0, burst_rate=20.0, burst_start=0, burst_duration=0)

    def test_non_finite_rates_rejected(self):
        # An infinite rate yields zero inter-arrival times and would freeze
        # the event loop at one timestamp; NaN schedules events at time nan.
        for bad in (float("inf"), float("nan")):
            with pytest.raises(ValueError):
                PoissonArrivals(bad)
            with pytest.raises(ValueError):
                ConstantRate(bad)
            with pytest.raises(ValueError):
                FlashCrowdArrivals(10.0, burst_rate=bad, burst_start=0,
                                   burst_duration=1)

    def test_poisson_window_counts_have_poisson_moments(self):
        # At 3 tx/s the arrivals of each 1 s window are Poisson(3): mean 3,
        # variance 3.  20k windows put both within a few percent.
        arrivals, rng = PoissonArrivals(3.0), random.Random(7)
        stamps, _ = arrivals.arrivals_until(
            arrivals.next_interarrival(0.0, rng), 19_999.0, rng)
        counts = [0] * 20_000
        for stamp in stamps:
            counts[int(stamp)] += 1
        mean = sum(counts) / len(counts)
        assert mean == pytest.approx(3.0, abs=0.1)
        variance = sum((count - mean) ** 2 for count in counts) / len(counts)
        assert variance == pytest.approx(3.0, rel=0.1)

    def test_batch_sampling_holds_the_scale_sweep_rate(self):
        arrivals, rng = PoissonArrivals(20_000.0), random.Random(11)
        stamps, after = arrivals.arrivals_until(0.0, 10.0, rng)
        assert len(stamps) == pytest.approx(200_000, rel=0.01)
        assert stamps == sorted(stamps) and stamps[-1] <= 10.0 < after

    def test_a_start_past_the_horizon_draws_nothing(self):
        for arrivals in (PoissonArrivals(5.0), ConstantRate(5.0),
                         DiurnalArrivals(5.0)):
            rng = random.Random(1)
            state = rng.getstate()
            assert arrivals.arrivals_until(2.0, 1.0, rng) == ([], 2.0)
            assert rng.getstate() == state


# --------------------------------------------------------------------- #
# Transaction encoding
# --------------------------------------------------------------------- #


class TestTransactions:
    def test_roundtrip_and_padding(self):
        encoded = encode_transaction(42, 7, 256)
        assert len(encoded) == 256
        assert decode_tx_id(encoded) == 42

    def test_header_wins_over_tiny_size(self):
        encoded = encode_transaction(123456, 99, 4)
        assert decode_tx_id(encoded) == 123456
        assert len(encoded) >= 4

    def test_garbage_decodes_to_none(self):
        assert decode_tx_id(b"payload:r3:p1") is None
        assert decode_tx_id(b"tx:notanumber:0:") is None
        assert decode_tx_id(b"") is None

    @pytest.mark.parametrize("size", [1, 8, MAX_HEADER_BYTES, 96])
    def test_split_recovers_a_concatenated_batch(self, size):
        tx_ids = [0, 7, 12345, 2**40]
        client_ids = [3, 0, 99, 1]
        payload = b"".join(encode_batch(tx_ids, client_ids, size))
        assert split_transactions(payload) == list(zip(tx_ids, client_ids))

    @pytest.mark.parametrize("size", [8, 256])
    def test_batch_renders_its_transactions(self, size):
        # Ids crossing digit boundaries, up to the largest client id.
        tx_ids = [9, 10, 99, 100, 2**32 - 1, 2**40]
        client_ids = [99, 100, 9, 10, 2**32 - 1, 0]
        rendered = b"".join(encode_batch(tx_ids, client_ids, size))
        batch = TxBatch(tx_ids, client_ids, size)
        assert bytes(batch) == rendered
        assert len(batch) == len(rendered)
        assert len(TxBatch(tx_ids, client_ids, size, nbytes=len(rendered))) == len(rendered)
        assert split_transactions(bytes(batch)) == list(zip(tx_ids, client_ids))

    def test_batches_compare_by_identity(self):
        batch, twin = TxBatch([1, 2], [0, 1], 64), TxBatch([1, 2], [0, 1], 64)
        assert bytes(batch) == bytes(twin)
        assert batch != twin and batch == batch
        assert len({batch, twin}) == 2

    def test_split_ignores_non_workload_payloads(self):
        assert split_transactions(b"cluster:r3:p1") == []
        assert split_transactions(b"") == []
        assert split_transactions(b"tx:notanumber:0:") == []


# --------------------------------------------------------------------- #
# Report helpers
# --------------------------------------------------------------------- #


class TestSparkline:
    def test_scales_to_peak_and_buckets(self):
        from repro.analysis.report import sparkline

        chart = sparkline([0.0, 5.0, 10.0])
        assert len(chart) == 3
        assert chart[0] == " " and chart[-1] == "@"

    def test_negative_values_clamp_to_baseline(self):
        from repro.analysis.report import sparkline

        assert sparkline([-5.0, 1.0]) == " @"
        assert sparkline([-1.0, 9.0])[0] == " "

    def test_empty_and_flat_zero(self):
        from repro.analysis.report import sparkline

        assert sparkline([]) == ""
        assert sparkline([0.0, 0.0]) == "  "

    def test_render_timeseries_labels(self):
        from repro.analysis.report import render_timeseries

        text = render_timeseries("occupancy", [0.0, 1.0, 2.0], [1.0, 4.0, 2.0])
        assert "peak 4" in text
        assert "t=0.0s .. t=2.0s" in text
        with pytest.raises(ValueError):
            render_timeseries("bad", [0.0], [1.0, 2.0])


class TestWorkloadMetrics:
    def test_percentiles_count_repeated_latencies(self):
        # 99 transactions at 1 s, one at 10 s: p50 and p99 are 1 s, p100 10 s.
        metrics = WorkloadMetrics(duration=10.0, submitted=100, committed=100,
                                  latencies=[1.0] * 99 + [10.0])
        assert metrics.latency_percentiles((50, 99, 100)) == [1.0, 1.0, 10.0]
        assert metrics.mean_latency == pytest.approx((99.0 + 10.0) / 100.0)

    def test_counts_and_goodput(self):
        metrics = WorkloadMetrics(duration=4.0, submitted=10, committed=6,
                                  dropped=1, committed_tx_bytes=6 * 256,
                                  latencies=[0.5] * 6)
        assert metrics.pending == 3
        assert metrics.goodput_tx_per_s == 1.5
        assert metrics.goodput_bytes_per_s == 384.0

    def test_an_empty_run_reports_zeros(self):
        metrics = WorkloadMetrics(duration=5.0)
        assert metrics.latency_percentiles() == [0.0, 0.0, 0.0]
        assert metrics.mean_latency == metrics.goodput_tx_per_s == 0.0
        assert metrics.peak_mempool_depth == metrics.final_mempool_depth == 0

    def test_occupancy_peak_and_final_depth(self):
        samples = [OccupancySample(time=t, transactions=count, total_bytes=0)
                   for t, count in ((0.5, 3), (1.0, 40), (1.5, 7))]
        metrics = WorkloadMetrics(duration=2.0, occupancy=samples)
        assert metrics.peak_mempool_depth == 40
        assert metrics.final_mempool_depth == 7

    def test_to_dict_holds_one_latency_per_transaction(self):
        data = WorkloadMetrics(duration=1.0, committed=2, latencies=[0.1, 0.2]).to_dict()
        assert list(data) == ["duration", "submitted", "committed", "dropped",
                              "committed_tx_bytes", "latencies", "occupancy"]
        assert data["latencies"] == [0.1, 0.2]

    def test_json_round_trip_is_lossless(self):
        queues = {1: Mempool(), 0: Mempool()}
        queues[0].add(b"x" * 96)
        queues[1].add(b"y" * 32)
        queues[1].add(b"z" * 32)
        metrics = WorkloadMetrics(duration=10.0, submitted=7, committed=5,
                                  dropped=1, committed_tx_bytes=640,
                                  latencies=[0.5, 0.7, 0.1, 0.3, 0.3],
                                  occupancy=[OccupancySample.of(0.5, queues)])
        rebuilt = WorkloadMetrics.from_dict(json.loads(json.dumps(metrics.to_dict())))
        assert rebuilt == metrics
        assert rebuilt.occupancy[0].per_replica == {0: 1, 1: 2}
        assert rebuilt.summary() == metrics.summary()


# --------------------------------------------------------------------- #
# Simulator: external-event injection and timer bookkeeping
# --------------------------------------------------------------------- #


class _IdleReplica(Protocol):
    """A replica that does nothing; used to drive the simulator directly."""

    name = "idle"

    def on_start(self, ctx):
        self.ctx = ctx

    def on_message(self, ctx, sender, message):
        pass

    def on_timer(self, ctx, timer):
        pass


def _idle_simulation(n: int = 2, faults: FaultPlan = None) -> Simulation:
    params = ProtocolParams(n=n, f=0)
    replicas = {i: _IdleReplica(i, params) for i in range(n)}
    network = NetworkConfig(latency=ConstantLatency(0.01),
                            faults=faults or FaultPlan.none())
    return Simulation(replicas, network)


class TestExternalInjection:
    def test_callbacks_run_at_scheduled_times_in_order(self):
        sim = _idle_simulation()
        fired = []
        sim.schedule_external(2.0, lambda: fired.append(("b", sim.now)))
        sim.schedule_external(1.0, lambda: fired.append(("a", sim.now)))
        sim.run(until=5.0)
        assert fired == [("a", 1.0), ("b", 2.0)]
        assert sim.external_events_scheduled == 2

    def test_callbacks_can_reschedule_themselves(self):
        sim = _idle_simulation()
        ticks = []

        def tick():
            ticks.append(sim.now)
            if sim.now < 3.0:
                sim.schedule_external(1.0, tick)

        sim.schedule_external(1.0, tick)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0, 3.0]

    def test_external_events_survive_crashes(self):
        sim = _idle_simulation(faults=FaultPlan.with_crashed([0, 1]))
        fired = []
        sim.schedule_external(0.5, lambda: fired.append(sim.now))
        sim.run(until=1.0)
        assert fired == [0.5]

    def test_validation(self):
        sim = _idle_simulation()
        with pytest.raises(ValueError):
            sim.schedule_external(-0.1, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_external(float("inf"), lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_external(float("nan"), lambda: None)
        with pytest.raises(TypeError):
            sim.schedule_external(0.1, "not callable")


class TestTimerBookkeeping:
    def test_stale_cancel_does_not_leak(self):
        sim = _idle_simulation()
        sim.start()
        replica = sim.protocol(0)
        timer_id = replica.ctx.set_timer(0.1, "t")
        sim.run(until=1.0)  # the timer fires
        replica.ctx.cancel_timer(timer_id)          # stale cancel: already fired
        replica.ctx.cancel_timer(99999)             # never-armed id
        assert sim._cancelled_timers == set()
        assert sim._pending_timers == set()

    def test_cancelled_timer_does_not_fire_and_sets_drain(self):
        sim = _idle_simulation()
        sim.start()
        replica = sim.protocol(0)
        fired = []
        replica.on_timer = lambda ctx, timer: fired.append(timer.name)
        timer_id = replica.ctx.set_timer(0.5, "doomed")
        replica.ctx.cancel_timer(timer_id)
        sim.run(until=1.0)
        assert fired == []
        assert sim._cancelled_timers == set()
        assert sim._pending_timers == set()


# --------------------------------------------------------------------- #
# Client pools end to end
# --------------------------------------------------------------------- #


def _attached_workload(spec: WorkloadSpec, duration: float, n: int = 4,
                       seed: int = 1, rank_delay: float = 0.4,
                       faults: FaultPlan = None):
    """A banyan simulation with ``spec``'s pool attached, not yet run."""
    params = ProtocolParams(n=n, f=1, p=1, rank_delay=rank_delay)
    pool = spec.build_pool()
    source = MempoolPayloadSource(pool, max_block_bytes=spec.max_block_bytes)
    replicas = create_replicas("banyan", params, payload_source=source)
    network = NetworkConfig(latency=ConstantLatency(0.05), seed=seed,
                            faults=faults or FaultPlan.none())
    sim = Simulation(replicas, network)
    pool.attach(sim, stop_time=duration)
    return sim, pool


def _cached_block_contents():
    """The field tuples keyed in :func:`_content_id`'s ``lru_cache``."""
    cache = next(ref for ref in gc.get_referents(_content_id)
                 if isinstance(ref, dict) and "cache_parameters" not in ref)
    return [key[0] if len(key) == 1 else key for key in cache]


def _workload_simulation(spec: WorkloadSpec, duration: float, n: int = 4,
                         seed: int = 1):
    sim, pool = _attached_workload(spec, duration, n=n, seed=seed)
    sim.run(until=duration)
    return sim, pool


class TestClientPool:
    def test_open_loop_commits_transactions_with_positive_latency(self):
        spec = WorkloadSpec(mode="open", arrival="constant", rate=20.0,
                            tx_size=128, seed=5)
        sim, pool = _workload_simulation(spec, duration=10.0)
        metrics = pool.metrics(10.0)
        assert metrics.submitted > 150
        assert metrics.committed > 100
        assert metrics.dropped == 0
        assert all(latency > 0 for latency in metrics.latencies)
        assert metrics.p95_latency >= metrics.p50_latency > 0
        assert metrics.goodput_tx_per_s > 10
        # Committed block payloads decode back into workload transactions.
        tx_blocks = [record for record in sim.commits_for(0)
                     if decode_tx_id(bytes(record.block.payload)) is not None]
        assert tx_blocks, "no committed block carried client transactions"

    def test_closed_loop_keeps_population_in_flight(self):
        spec = WorkloadSpec(mode="closed", num_clients=6, think_time=0.2,
                            tx_size=128, seed=2)
        sim, pool = _workload_simulation(spec, duration=10.0)
        metrics = pool.metrics(10.0)
        assert metrics.committed >= 6
        # A closed-loop client has at most one transaction outstanding.
        assert metrics.pending <= 6
        assert metrics.dropped == 0

    def test_backpressure_drops_when_mempool_full(self):
        spec = WorkloadSpec(mode="open", arrival="constant", rate=200.0,
                            tx_size=128, mempool_capacity=5,
                            max_block_bytes=256, seed=3)
        _, pool = _workload_simulation(spec, duration=8.0)
        metrics = pool.metrics(8.0)
        assert metrics.dropped > 0
        assert metrics.submitted == metrics.committed + metrics.dropped + metrics.pending

    def test_zero_think_time_with_full_mempool_does_not_livelock(self):
        # Regression: a zero-delay retry on backpressure used to re-enqueue
        # an event at the same timestamp forever, freezing the simulation.
        spec = WorkloadSpec(mode="closed", num_clients=16, think_time=0.0,
                            tx_size=128, mempool_capacity=2,
                            max_block_bytes=256, seed=6)
        _, pool = _workload_simulation(spec, duration=5.0)
        metrics = pool.metrics(5.0)
        assert metrics.committed > 0
        assert metrics.dropped > 0

    def test_occupancy_sampling_covers_the_run(self):
        spec = WorkloadSpec(mode="open", arrival="poisson", rate=30.0,
                            tx_size=128, sample_interval=0.5, seed=4)
        _, pool = _workload_simulation(spec, duration=10.0)
        metrics = pool.metrics(10.0)
        assert len(metrics.occupancy) == 20
        assert metrics.occupancy[-1].time == pytest.approx(10.0)
        assert metrics.peak_mempool_depth >= 0

    def test_pool_cannot_attach_twice(self):
        spec = WorkloadSpec(mode="open", rate=10.0)
        pool = spec.build_pool()
        sim = _idle_simulation()
        pool.attach(sim, stop_time=5.0)
        with pytest.raises(RuntimeError):
            pool.attach(sim, stop_time=5.0)

    def test_uncommitted_proposal_is_reclaimed_on_next_proposal(self):
        # One idle replica, arrivals at 0.1, 0.2, ...; the test plays the
        # proposer (payload_for) and the chain (ctx.commit) itself.
        spec = WorkloadSpec(mode="open", arrival="constant", rate=10.0, tx_size=64)
        pool = spec.build_pool()
        source = MempoolPayloadSource(pool, max_block_bytes=spec.max_block_bytes)
        sim = _idle_simulation(n=1)
        pool.attach(sim, stop_time=5.0)
        sim.start()
        commit = sim.protocol(0).ctx.commit

        def block(round, payload):
            return Block(round=round, proposer=0, rank=0, parent_id=None,
                         payload=payload)

        sim.run(until=0.35)
        payload_a, size_a = source.payload_for(1, 0)
        assert size_a == len(payload_a) == 3 * 64
        assert len(pool.mempool(0)) == 0
        # Round 1 is still undecided: the batch may yet commit, so it is NOT
        # reclaimed and the next proposal goes out empty.
        _, size_undecided = source.payload_for(2, 0)
        assert size_undecided == 0
        # A newer proposal with fresh txs must not orphan the deferred batch.
        sim.run(until=0.45)
        payload_b, size_b = source.payload_for(3, 0)
        assert size_b == 64 and bytes(payload_b) != bytes(payload_a)
        # Once the chain commits past both rounds without either batch, both
        # are abandoned and re-proposed together, oldest first.
        commit([block(3, b"someone else's block")])
        assert pool.committed == 0
        payload_c, _ = source.payload_for(4, 0)
        assert bytes(payload_c) == bytes(payload_a) + bytes(payload_b)
        # Once committed, nothing is reclaimed and proposals go empty.
        commit([block(4, payload_c)])
        assert pool.committed == 4
        _, size_d = source.payload_for(5, 0)
        assert size_d == 0
        assert [record.commit_time for record in pool.records()] == [0.45] * 4

    def test_warmup_filters_early_transactions(self):
        spec = WorkloadSpec(mode="open", arrival="constant", rate=20.0,
                            tx_size=128, seed=5)
        _, pool = _workload_simulation(spec, duration=10.0)
        full = pool.metrics(10.0)
        trimmed = pool.metrics(8.0, warmup=2.0)
        assert 0 < trimmed.submitted < full.submitted
        assert trimmed.committed < full.committed
        assert len(trimmed.latencies) == trimmed.committed
        # Occupancy keeps the full timeline regardless of warm-up.
        assert trimmed.occupancy == full.occupancy

    def test_committed_blocks_hold_batches_not_bytes(self):
        # The pool's payloads are id batches; no block, and no key of the
        # block-id cache, keeps a rendered payload.
        _content_id.cache_clear()
        spec = WorkloadSpec(mode="open", arrival="poisson", rate=5_000.0,
                            max_block_bytes=1_000_000, seed=4)
        sim, pool = _attached_workload(spec, duration=3.0)
        first_commit = {}
        sim.add_commit_listener(
            lambda record: first_commit.setdefault(record.block.id, record.commit_time))
        sim.run(until=3.0)
        records = pool.records()
        resolved = set()
        for record in sim.commits_for(0):
            payload = record.block.payload
            if not isinstance(payload, TxBatch):
                assert split_transactions(payload) == []
                continue
            pairs = split_transactions(bytes(payload))
            assert pairs == list(zip(payload.tx_ids, payload.client_ids))
            for tx_id, client_id in pairs:
                assert records[tx_id].client_id == client_id
                assert records[tx_id].commit_time == first_commit[record.block.id]
            resolved.update(tx_id for tx_id, _ in pairs)
        assert len(resolved) > 5_000
        assert resolved == {tx.tx_id for tx in records if tx.commit_time is not None}
        assert not [item for key in _cached_block_contents() for item in key
                    if isinstance(item, (bytes, bytearray)) and len(item) > 1024]

    def test_payload_map_is_pruned_after_commit(self):
        spec = WorkloadSpec(mode="open", arrival="constant", rate=20.0,
                            tx_size=128, seed=5)
        _, pool = _workload_simulation(spec, duration=10.0)
        # The map holds only still-in-flight proposals, not the whole chain.
        assert len(pool._payload_txs) <= 8

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(mode="sideways")
        with pytest.raises(ValueError):
            WorkloadSpec(arrival="fractal")
        with pytest.raises(ValueError):
            WorkloadSpec(tx_size=2048, max_block_bytes=1024)
        # A tiny tx_size does not bound the *encoded* size (the id header
        # dominates); the block budget must cover the worst case too.
        with pytest.raises(ValueError):
            WorkloadSpec(tx_size=8, max_block_bytes=16)

    @pytest.mark.parametrize("field, value", [
        ("rate", 0.0), ("rate", -5.0), ("rate", float("inf")),
        ("rate", float("nan")), ("num_clients", 0), ("think_time", -0.1),
        ("mempool_capacity", 0), ("sample_interval", -0.5),
        # Each of these used to fail mid-run or pass silently.
        ("think_time", float("nan")), ("think_time", float("inf")),
        ("sample_interval", float("nan")), ("mempool_max_bytes", -1),
    ])
    def test_spec_rejects_bad_numbers_at_construction(self, field, value):
        # Not later in build_arrivals() / the pool constructor — and never
        # silently: a negative sample_interval used to switch the probe off.
        with pytest.raises(ValueError, match=field):
            WorkloadSpec(**{field: value})
        with pytest.raises(ValueError, match=field):
            WorkloadSpec(mode="closed", **{field: value})

    @pytest.mark.parametrize("key, value", [("fluid", True), ("fluid_tick", 0.1)])
    def test_spec_rejects_the_removed_fluid_model(self, key, value):
        # An old plan or cache record must not turn silently into an exact run.
        data = dict(WorkloadSpec().to_dict(), **{key: value})
        with pytest.raises(ValueError, match="fluid client model was removed") as info:
            WorkloadSpec.from_dict(data)
        assert "\n" not in str(info.value)

    def test_spec_serialised_shape_and_hash_are_stable(self):
        # Result caches key on this form: a changed field list or default
        # would silently re-run (or mis-serve) every cached workload cell.
        from repro.eval.plan import canonical_hash
        data = WorkloadSpec().to_dict()
        assert list(data) == [
            "mode", "arrival", "rate", "num_clients", "think_time", "tx_size",
            "max_block_bytes", "mempool_capacity", "mempool_max_bytes",
            "sample_interval", "seed", "period", "amplitude", "burst_rate",
            "burst_start", "burst_duration"]
        assert canonical_hash(data) == (
            "47a4a02d60d080c562c1dba51a73102e3bda692050bdda42daded533d908a4b0")
        closed = WorkloadSpec(mode="closed", num_clients=64, mempool_max_bytes=4096)
        assert canonical_hash(closed.to_dict()) == (
            "26f90c100074910b1a006cfeecd8c0c915625c42c4d76895a46c69c4a9612636")
        assert WorkloadSpec.from_dict(closed.to_dict()) == closed

    @pytest.mark.parametrize("arrival", ARRIVAL_KINDS)
    def test_every_arrival_kind_round_trips_into_a_client_pool(self, arrival):
        spec = WorkloadSpec(arrival=arrival, rate=1000.0, num_clients=1_000_000)
        assert WorkloadSpec.from_dict(spec.to_dict()) == spec
        pool = spec.build_pool()
        assert isinstance(pool, ClientPool) and pool.is_open_loop
        assert pool.num_clients == 1_000_000
        assert pool.arrivals.rate(0.0) > 0

    def test_closed_spec_builds_a_closed_loop_pool(self):
        spec = WorkloadSpec(mode="closed", num_clients=6, think_time=0.2)
        assert spec.build_arrivals() is None
        pool = spec.build_pool()
        assert not pool.is_open_loop and pool.think_time == 0.2

    def test_from_dict_ignores_other_unknown_keys(self):
        spec = WorkloadSpec(rate=75.0)
        assert WorkloadSpec.from_dict(dict(spec.to_dict(), note="x")) == spec

    def test_spec_accepts_the_edge_values(self):
        spec = WorkloadSpec(think_time=0.0, sample_interval=0.0, num_clients=1,
                            mempool_capacity=1)
        sim = _idle_simulation()
        pool = spec.build_pool()
        pool.attach(sim, stop_time=1.0)
        sim.run(until=1.0)
        assert sim.external_events_scheduled == 0  # probe off, no arrival events
        assert pool.metrics(1.0).occupancy == []


class TestMempoolPayloadSource:
    @staticmethod
    def _source(max_block_bytes):
        """One idle replica with ten 256-byte arrivals (t = 0.1 .. 1.0)
        queued; the test plays the proposer and the chain."""
        pool = WorkloadSpec(mode="open", arrival="constant", rate=10.0).build_pool()
        sim = _idle_simulation(n=1)
        pool.attach(sim, stop_time=5.0)
        sim.start()
        sim.run(until=1.05)
        return sim, pool, MempoolPayloadSource(pool, max_block_bytes=max_block_bytes)

    def test_empty_mempool_yields_a_unique_empty_payload(self):
        source = MempoolPayloadSource(WorkloadSpec().build_pool())
        payload, size = source.payload_for(round=1, proposer=0)
        assert (payload, size) == (b"workload:empty:r1:p0", 0)
        assert source.payload_for(round=2, proposer=0)[0] != payload

    def test_proposal_drains_up_to_the_block_budget(self):
        _, pool, source = self._source(4 * 256 + 100)
        payload, size = source.payload_for(round=1, proposer=0)
        assert size == len(payload) == 4 * 256
        assert [decode_tx_id(bytes(payload)[i:]) for i in range(0, size, 256)] == [0, 1, 2, 3]
        assert len(pool.mempool(0)) == 6

    def test_reclaim_waits_until_the_chain_passes_the_round(self):
        sim, pool, source = self._source(10 * 256)
        source.payload_for(round=1, proposer=0)
        assert len(pool.mempool(0)) == 0
        # Round 1 may still commit late: nothing is reclaimed yet.
        assert pool.reclaim_uncommitted(proposer=0) == 0
        sim.protocol(0).ctx.commit([Block(round=1, proposer=0, rank=0,
                                          parent_id=None, payload=b"other")])
        assert pool.reclaim_uncommitted(proposer=0) == 10
        assert len(pool.mempool(0)) == 10
        assert pool.reclaim_uncommitted(proposer=0) == 0

    def test_block_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="max_block_bytes"):
            MempoolPayloadSource(WorkloadSpec().build_pool(), max_block_bytes=0)

    def test_pool_builds_its_own_payload_source(self):
        pool = WorkloadSpec().build_pool()
        source = pool.payload_source(4096)
        assert isinstance(source, MempoolPayloadSource)
        assert source.pool is pool and source.max_block_bytes == 4096


class TestLazyAdmission:
    """Open-loop arrivals are admitted when something looks, not by events:
    however the run is driven and whenever it is read, the pool shows every
    arrival stamped ``<= now`` and nothing later."""

    SPEC = dict(mode="open", arrival="poisson", rate=120.0, tx_size=128,
                mempool_capacity=40, max_block_bytes=1024, seed=9)

    @staticmethod
    def _outcome(sim, pool):
        commits = [(record.replica_id, record.block.id, record.commit_time)
                   for replica_id in sim.replica_ids
                   for record in sim.commits_for(replica_id)]
        return commits, pool.metrics(6.0).to_dict(), pool.records()

    def test_stepped_and_chunked_runs_equal_one_run(self):
        sim, pool = _attached_workload(WorkloadSpec(**self.SPEC), 6.0)
        sim.run(until=6.0)
        whole = self._outcome(sim, pool)
        assert whole[1]["dropped"] > 0 and whole[1]["committed"] > 0

        sim, pool = _attached_workload(WorkloadSpec(**self.SPEC), 6.0)
        for until in (0.3, 0.31, 1.7, 1.7, 4.05, 6.0):
            sim.run(until=until)
        assert self._outcome(sim, pool) == whole

        sim, pool = _attached_workload(WorkloadSpec(**self.SPEC), 6.0)
        while sim.now < 3.0:
            assert sim.step()
        sim.run(until=6.0)
        assert self._outcome(sim, pool) == whole

    def test_reading_mid_run_does_not_change_the_run(self):
        sim, pool = _attached_workload(WorkloadSpec(**self.SPEC), 6.0)
        sim.run(until=6.0)
        whole = self._outcome(sim, pool)

        sim, pool = _attached_workload(WorkloadSpec(**self.SPEC), 6.0)
        for until in (0.5, 2.25, 4.0, 6.0):
            sim.run(until=until)
            assert pool.submitted == pool.committed + pool.dropped + sum(
                record.commit_time is None and not record.dropped
                for record in pool.records())
            pool.metrics(until)
        assert self._outcome(sim, pool) == whole

    def test_counts_and_mempools_show_exactly_the_arrivals_due(self):
        spec = WorkloadSpec(mode="open", arrival="poisson", rate=50.0, seed=3)
        sim = _idle_simulation(n=2)
        pool = spec.build_pool()
        pool.attach(sim, stop_time=4.0)
        sim.run(until=9.0)
        stamps = [record.submit_time for record in pool.records()]
        assert stamps == sorted(stamps) and 150 < len(stamps) < 250
        assert stamps[-1] <= 4.0  # nothing is submitted past stop_time

        sim = _idle_simulation(n=2)
        pool = spec.build_pool()
        pool.attach(sim, stop_time=4.0)
        assert pool.submitted == 0
        for until in (stamps[0], 1.0, stamps[70], 3.999, 4.0, 9.0):
            sim.run(until=until)
            due = sum(1 for stamp in stamps if stamp <= until)
            assert pool.submitted == due
            # Idle replicas never propose: everything admitted is queued,
            # routed round-robin.
            assert len(pool.mempool(0)) == (due + 1) // 2
            assert len(pool.mempool(1)) == due // 2
            assert pool.dropped == 0

    def test_an_arrival_tied_with_the_probe_is_sampled(self):
        # The ``<=`` rule: arrivals are stamped 0.5, 1.0, ... and so is the
        # probe; each sample includes the arrival of its own instant.
        spec = WorkloadSpec(mode="open", arrival="constant", rate=2.0,
                            sample_interval=0.5)
        sim = _idle_simulation(n=2)
        pool = spec.build_pool()
        pool.attach(sim, stop_time=3.0)
        sim.run(until=0.4999)
        assert pool.submitted == 0
        sim.run(until=0.5)
        assert pool.submitted == 1
        sim.run(until=3.0)
        samples = pool.metrics(3.0).occupancy
        assert [(s.time, s.transactions) for s in samples] == [
            (0.5, 1), (1.0, 2), (1.5, 3), (2.0, 4), (2.5, 5), (3.0, 6)]
        # The horizon is inclusive too: the arrival stamped 3.0 is in.
        assert pool.submitted == 6

    def test_reclaim_requeues_ahead_of_pending_arrivals(self, monkeypatch):
        # rank_delay near the network latency: the second-ranked proposer
        # always proposes too and loses, so its batch is abandoned and
        # re-queued at its next turn — while replica 2 is down for a while.
        reclaimed = []
        reclaim = ClientPool.reclaim_uncommitted

        def counting_reclaim(pool, proposer):
            count = reclaim(pool, proposer)
            if count:
                queue = pool.mempool(proposer).peek(count + 1)
                reclaimed.append(count)
                # Re-queued transactions sit in front of every arrival
                # admitted since they were first drained.
                ids = [decode_tx_id(tx) for tx in queue]
                assert ids[:count] == sorted(ids[:count])
                assert all(ids[count - 1] < later for later in ids[count:])
            return count

        monkeypatch.setattr(ClientPool, "reclaim_uncommitted", counting_reclaim)
        faults = FaultPlan(crash_schedule=CrashSchedule(
            crash_times={2: 1.5}, recover_times={2: 3.0}))
        spec = WorkloadSpec(mode="open", arrival="poisson", rate=200.0,
                            tx_size=128, max_block_bytes=2048, seed=4)
        sim, pool = _attached_workload(spec, 6.0, rank_delay=0.06, faults=faults)
        sim.run(until=6.0)
        metrics = pool.metrics(6.0)
        assert sum(reclaimed) > 20
        assert metrics.committed > 300 and metrics.dropped == 0
        assert len(metrics.latencies) == metrics.committed == pool.committed

    def test_open_loop_schedules_no_event_per_arrival(self):
        spec = WorkloadSpec(mode="open", arrival="poisson", rate=30.0,
                            tx_size=128, sample_interval=0.5, seed=4)
        sim, pool = _workload_simulation(spec, duration=10.0)
        assert pool.submitted > 200
        assert sim.external_events_scheduled == len(pool.metrics(10.0).occupancy) == 20


class TestInjectionDeterminism:
    def test_same_seed_produces_identical_commit_schedule(self):
        def commit_schedule():
            spec = WorkloadSpec(mode="open", arrival="poisson", rate=40.0,
                                tx_size=128, seed=11)
            sim, pool = _workload_simulation(spec, duration=10.0, seed=7)
            schedule = [
                (record.replica_id, record.block.id, record.commit_time)
                for replica_id in sim.replica_ids
                for record in sim.commits_for(replica_id)
            ]
            return schedule, pool.metrics(10.0)

        schedule_a, metrics_a = commit_schedule()
        schedule_b, metrics_b = commit_schedule()
        assert schedule_a == schedule_b
        assert metrics_a.latencies == metrics_b.latencies
        assert metrics_a.submitted == metrics_b.submitted

    def test_different_workload_seed_changes_the_schedule(self):
        def latencies(seed):
            spec = WorkloadSpec(mode="open", arrival="poisson", rate=40.0,
                                tx_size=128, seed=seed)
            _, pool = _workload_simulation(spec, duration=10.0, seed=7)
            return pool.metrics(10.0).latencies

        assert latencies(1) != latencies(2)

    def test_open_loop_population_only_labels_transactions(self):
        # A million open-loop clients are labels on the same arrival
        # stream: the population changes no count and no latency.
        def run(num_clients):
            spec = WorkloadSpec(mode="open", arrival="poisson", rate=2_000.0,
                                num_clients=num_clients, tx_size=256, seed=0)
            _, pool = _workload_simulation(spec, duration=4.0, seed=5)
            return pool, pool.metrics(3.0, warmup=1.0)

        small_pool, small = run(64)
        large_pool, large = run(1_000_000)
        assert small.committed > 1_000
        assert (small.submitted, small.committed, small.latencies) == (
            large.submitted, large.committed, large.latencies)
        for pool, num_clients in ((small_pool, 64), (large_pool, 1_000_000)):
            assert all(record.client_id == record.tx_id % num_clients
                       for record in pool.records())

    def test_client_labels_continue_across_admissions(self):
        # About 20 arrivals per read and 7 clients: every admission starts
        # where the last one stopped and wraps within itself.
        spec = WorkloadSpec(mode="open", arrival="poisson", rate=400.0,
                            num_clients=7, seed=2)
        sim = _idle_simulation(n=2)
        pool = spec.build_pool()
        pool.attach(sim, stop_time=2.0)
        for step in range(1, 41):
            sim.run(until=step * 0.05)
            assert pool.submitted > 0
        records = pool.records()
        assert len(records) > 600
        assert [record.client_id for record in records] == [
            record.tx_id % 7 for record in records]


# --------------------------------------------------------------------- #
# Scenario presets (acceptance: saturation sweep and flash crowd)
# --------------------------------------------------------------------- #


class TestWorkloadScenarios:
    def test_saturation_sweep_reports_latency_percentiles_and_goodput(self):
        figure = run_figure(plan_saturation_sweep(rates=(10, 40), duration=10.0, seed=0))
        (label, rows), = figure.series.items()
        assert "banyan" in label
        assert len(rows) == 2
        for row, rate in zip(rows, (10, 40)):
            assert row["offered_tx_per_s"] == rate
            assert row["committed_tx"] > 0
            assert row["tx_p50_ms"] > 0
            assert row["tx_p95_ms"] >= row["tx_p50_ms"]
            assert row["tx_p99_ms"] >= row["tx_p95_ms"]
            assert row["goodput_tx_per_s"] > 0
        # Offered load is absorbed below saturation: goodput tracks the rate.
        assert rows[1]["goodput_tx_per_s"] > rows[0]["goodput_tx_per_s"]
        rendered = figure.render()
        assert "tx_p95_ms" in rendered and "goodput_tx_per_s" in rendered

    def test_saturation_sweep_is_deterministic(self):
        plan = plan_saturation_sweep(rates=(25,), duration=8.0, seed=3)
        rows_a = run_figure(plan).series
        rows_b = run_figure(plan).series
        assert rows_a == rows_b

    def test_flash_crowd_fills_and_drains_the_mempools(self):
        figure = run_figure(plan_flash_crowd(base_rate=10.0, burst_rate=200.0,
                                             burst_start=6.0, burst_duration=3.0,
                                             duration=30.0, seed=0))
        workload = figure.results[0].workload
        assert workload is not None
        samples = workload.occupancy
        assert samples, "flash crowd must sample mempool occupancy"
        pre_burst = max((s.transactions for s in samples if s.time < 6.0), default=0)
        peak = workload.peak_mempool_depth
        final = samples[-1].transactions
        # The spike overwhelms the per-round block budget...
        assert peak > max(pre_burst, 1) * 4
        # ...and the backlog drains once the burst passes.
        assert final < peak / 3
        assert workload.committed > 0

    def test_flash_crowd_is_deterministic(self):
        def occupancy():
            figure = run_figure(plan_flash_crowd(base_rate=10.0, burst_rate=150.0,
                                                 duration=20.0, seed=5))
            return [(s.time, s.transactions)
                    for s in figure.results[0].workload.occupancy]

        assert occupancy() == occupancy()


class TestWorkloadCli:
    def test_inapplicable_flags_are_rejected(self, capsys):
        from repro.cli import main

        assert main(["workload", "saturation", "--burst-rate", "250"]) == 2
        assert "apply only to flash-crowd" in capsys.readouterr().err
        assert main(["workload", "flash-crowd", "--rates", "10,20"]) == 2
        assert "applies only to saturation" in capsys.readouterr().err

    def test_bad_rate_lists_fail_parsing(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["workload", "saturation", "--rates", "abc"])
        with pytest.raises(SystemExit):
            main(["workload", "saturation", "--rates", "10,-5"])
        with pytest.raises(SystemExit):
            main(["workload", "saturation", "--rates", "inf"])
        with pytest.raises(SystemExit):
            main(["workload", "saturation", "--rates", "nan"])

    def test_a_run_without_committed_transactions_fails(self, capsys):
        from repro.cli import main

        # 0.2 s: transactions arrive, none can commit yet.
        assert main(["workload", "saturation", "--rates", "10",
                     "--duration", "0.2"]) == 1
        captured = capsys.readouterr()
        assert "committed_tx" in captured.out  # the table still prints
        assert "no transaction committed" in captured.err
        assert main(["workload", "saturation", "--rates", "10",
                     "--duration", "4"]) == 0

    def test_invalid_config_is_a_friendly_error(self, capsys):
        from repro.cli import main

        assert main(["workload", "saturation", "--tx-size", "70000"]) == 2
        assert "max_block_bytes" in capsys.readouterr().err


class TestExperimentIntegration:
    def test_run_experiment_carries_workload_metrics(self):
        params = ProtocolParams(n=4, f=1, p=1, rank_delay=0.4)
        config = ExperimentConfig(
            protocol="banyan", params=params, duration=10.0, warmup=0.0,
            latency=ConstantLatency(0.05), seed=0,
            workload=WorkloadSpec(mode="open", arrival="poisson", rate=25.0,
                                  tx_size=128, seed=1),
        )
        result = run_experiment(config)
        assert result.workload is not None
        assert result.workload.committed > 0
        row = result.row()
        assert "tx_p95_ms" in row and "goodput_tx_per_s" in row
        summary = result.workload.summary()
        assert summary["committed_tx"] > 0
        assert summary["p99_latency_s"] >= summary["p50_latency_s"]
        # Summary and row take all three percentiles from one sort; the
        # per-percentile properties must read the same values.
        workload = result.workload
        assert (summary["p50_latency_s"], summary["p95_latency_s"],
                summary["p99_latency_s"]) == (
            workload.p50_latency, workload.p95_latency, workload.p99_latency)
        assert row["tx_p99_ms"] == round(workload.p99_latency * 1000, 1)
        with pytest.raises(ValueError):
            workload.latency_percentiles((50, 101))

    def test_run_experiment_without_workload_has_no_workload_metrics(self):
        params = ProtocolParams(n=4, f=1, p=1, rank_delay=0.4, payload_size=1_000)
        config = ExperimentConfig(protocol="banyan", params=params, duration=8.0,
                                  latency=ConstantLatency(0.05))
        result = run_experiment(config)
        assert result.workload is None
        assert "tx_p95_ms" not in result.row()
