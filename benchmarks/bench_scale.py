"""Scale benchmark: event-loop throughput and a million users up to n=256.

Three measurements gate the scaling work:

* **Flood events/sec at n=64/128/256** — the protocol-free broadcast-heavy
  mix of :mod:`benchmarks.bench_simulator`, extended to datacenter-scale
  replica counts and run under two latency models: the zero-jitter
  constant model (event-queue-bound) and the jittered ``wan-matrix``
  model (delay-computation-bound, the case the batched delay tables
  target).  Every cell runs under both event-scheduler backends (the
  reference heap and the calendar queue), so the record gates the
  calendar queue's jittered-hot-path win and its overhead elsewhere.
  This isolates the event queue plus transport; the jittered heap rows
  also carry ``sbatch`` run-ahead.
* **Broadcast-delay copies/sec at n=64/256, per latency model** — a
  transport-only microbench of ``broadcast_times`` across all five
  shipped latency models, gating the row pipeline in isolation.
* **The n=256 gate** — a million open-loop clients offering 20k tx/s over
  the measured WAN RTT matrix at n=256 must complete in under 60 s of
  wall-clock time.

One ``BENCH_bench_scale.json`` record is emitted per run;
``benchmarks/check_trend.py`` compares a fresh record against the committed
baseline and fails CI on a >20% events/sec regression.

Set ``BANYAN_SCALE_SMOKE=1`` to run the reduced CI variant (smaller replica
counts and shorter horizons, recorded as ``BENCH_bench_scale_smoke.json``
so smoke runs are compared against a smoke baseline).
"""

from __future__ import annotations

import gc
import os
import random
import time
from types import SimpleNamespace

from benchmarks.bench_simulator import FloodProtocol
from benchmarks.conftest import emit_bench_record, paper_comparison

from repro.eval.experiment import ExperimentConfig, run_experiment
from repro.net.bandwidth import BandwidthModel
from repro.net.faults import FaultPlan
from repro.net.latency import (
    ConstantLatency,
    GeoLatency,
    MatrixLatency,
    UniformLatency,
    WanMatrixLatency,
)
from repro.net.topology import worldwide_datacenters
from repro.net.transport import DirectTransport
from repro.protocols.base import ProtocolParams
from repro.runtime.simulator import NetworkConfig, Simulation
from repro.workload.spec import WorkloadSpec

#: Environment toggle for the reduced CI variant.
SMOKE_ENV = "BANYAN_SCALE_SMOKE"

#: Wall-clock budget (seconds) for the n=256 million-user run.
GATE_WALL_S = 60.0


def _smoke() -> bool:
    return bool(os.environ.get(SMOKE_ENV))


def _flood_counts() -> tuple:
    return (16, 32, 64) if _smoke() else (64, 128, 256)


def _flood_duration(n: int) -> float:
    # Sized so every run processes >=10^5 deliveries but the n=256 case
    # stays around one million events (n**2 / TICK per simulated second).
    if _smoke():
        return 0.5
    return {64: 4.0, 128: 1.0, 256: 0.25}[n]


#: Latency models the flood runs under: the zero-jitter constant model
#: (the event-queue-bound extreme) and the jittered measured-RTT matrix
#: (the delay-computation-bound extreme the row batching targets).  The
#: ``const`` rows are why the simulator keeps its ``mbatch`` same-instant
#: groups: scheduling jitter-free broadcasts through the ``sbatch`` spill
#: instead passed the golden corpus, the dispatch and scheduler
#: equivalence tests and the cache-key pins unchanged, but made the
#: smoke-size ``const`` flood (0.5 sim-s) 1.5–2.8x slower — median of 5,
#: two alternating rounds on 2 cores: n=64 heap 0.016–0.022 → 0.034 s,
#: n=16 calendar 0.0023–0.0033 → 0.0061–0.0065 s.
FLOOD_MODELS = ("const", "wan-matrix")

#: Event-scheduler backends every flood cell runs under.  Executions are
#: byte-identical between the two (``tests/test_scheduler.py``); the row
#: pairs gate the calendar queue's win on the jittered hot path and its
#: overhead on the queue-bound constant-latency shape.
FLOOD_SCHEDULERS = ("heap", "calendar")


def _flood_network(n: int, model: str, scheduler: str) -> NetworkConfig:
    if model == "const":
        return NetworkConfig(latency=ConstantLatency(0.02),
                             faults=FaultPlan.none(), seed=0,
                             scheduler=scheduler)
    topology = worldwide_datacenters(n)
    return NetworkConfig(latency=WanMatrixLatency(topology),
                         bandwidth=BandwidthModel(topology=topology),
                         faults=FaultPlan.none(), seed=0,
                         scheduler=scheduler)


def _run_flood(n: int, model: str = "const",
               scheduler: str = "heap") -> dict:
    """One broadcast-heavy protocol-free run; returns its throughput row."""
    params = ProtocolParams(n=n, f=0, p=0)
    protocols = {i: FloodProtocol(i, params) for i in range(n)}
    simulation = Simulation(protocols, _flood_network(n, model, scheduler))
    duration = _flood_duration(n)
    # Collect before timing: generational GC scans over the previous
    # cases' heaps otherwise land inside the measured region (worth
    # ~15% on the n=256 row).
    gc.collect()
    start = time.perf_counter()
    simulation.run(until=duration)
    wall = time.perf_counter() - start
    events = simulation.messages_delivered + sum(
        protocol.timer_fires for protocol in protocols.values()
    )
    return {
        "n": n,
        "model": model,
        "scheduler": scheduler,
        "sim_seconds": duration,
        "events": events,
        "wall_s": round(wall, 4),
        "events_per_s": round(events / wall, 1),
    }


#: Shipped latency models covered by the broadcast-delay microbench.
DELAY_MODELS = ("const", "uniform", "matrix", "geo", "wan-matrix")


def _delay_model(name: str, n: int):
    """Build one shipped latency model (plus its topology, when any)."""
    if name == "const":
        return ConstantLatency(0.02), None
    if name == "uniform":
        return UniformLatency(0.01, 0.05), None
    if name == "matrix":
        delays = {
            (a, b): 0.01 + ((a * 31 + b * 7) % 50) / 1000.0
            for a in range(n)
            for b in range(a + 1, n)
        }
        return MatrixLatency(delays, jitter=0.05), None
    topology = worldwide_datacenters(n)
    if name == "geo":
        return GeoLatency(topology), topology
    return WanMatrixLatency(topology), topology


def _delay_counts() -> tuple:
    return (16, 64) if _smoke() else (64, 256)


def _run_broadcast_delay(n: int, model: str) -> dict:
    """Microbench one model's ``broadcast_times`` copies/sec at size n.

    Protocol-free and queue-free: a DirectTransport is driven directly, so
    the row only measures the batched delay-table pipeline (transfer rows,
    nominal rows, jitter application) — the piece the flood profile showed
    dominating at n=256 before batching.
    """
    latency, topology = _delay_model(model, n)
    transport = DirectTransport(latency, BandwidthModel(topology=topology),
                                FaultPlan.none())
    rng = random.Random(0)
    receivers = tuple(range(n))
    message = SimpleNamespace(wire_size=1024)
    # The smoke budget still has to produce a >=50 ms timed region at
    # n=16, or the row is bimodal under the 20% CI trend gate.
    target_copies = 200_000 if _smoke() else 400_000
    rounds = max(1, target_copies // n)
    transport.broadcast_times(0, receivers, message, 0.0, rng)  # warm caches
    now = 0.0
    gc.collect()
    start = time.perf_counter()
    for i in range(rounds):
        transport.broadcast_times(i % n, receivers, message, now, rng)
        now += 0.001
    wall = time.perf_counter() - start
    return {
        "n": n,
        "model": model,
        "broadcasts": rounds,
        "wall_s": round(wall, 4),
        "events_per_s": round(rounds * n / wall, 1),
    }


def _scale_params(n: int) -> ProtocolParams:
    # f = p = (n - 1) // 5 keeps the fast path available (n >= 3f + 2p + 1)
    # at every benchmarked size.
    bound = (n - 1) // 5
    return ProtocolParams(n=n, f=bound, p=bound)


def _workload_config(n: int, duration: float, num_clients: int,
                     rate: float) -> ExperimentConfig:
    return ExperimentConfig(
        protocol="banyan",
        params=_scale_params(n),
        workload=WorkloadSpec(
            mode="open", arrival="poisson", rate=rate,
            num_clients=num_clients, tx_size=256,
            sample_interval=1.0, seed=0,
        ),
        duration=duration,
        warmup=min(1.0, duration / 4),
        seed=1,
        latency_model="wan-matrix",
    )


def _run_workload(n: int, duration: float, num_clients: int,
                  rate: float) -> dict:
    config = _workload_config(n, duration, num_clients, rate)
    gc.collect()
    start = time.perf_counter()
    result = run_experiment(config)
    wall = time.perf_counter() - start
    workload = result.workload
    events = result.messages_sent
    return {
        "n": n,
        "mode": "exact",
        "clients": num_clients,
        "sim_seconds": duration,
        "wall_s": round(wall, 4),
        "events": events,
        "events_per_s": round(events / wall, 1),
        "submitted_tx": workload.submitted,
        "committed_tx": workload.committed,
        "goodput_tx_per_s": round(workload.goodput_tx_per_s, 1),
        "tx_p50_ms": round(workload.p50_latency * 1000, 1),
    }


def _best_of(measure, reps: int = 3) -> dict:
    """Repeat one timed measurement, keep the fastest-wall row.

    Single-shot noise — a GC pause the pre-collect missed, a frequency
    dip, scheduler preemption — only ever *slows* a run down, so the
    fastest of a few repeats is the least-contaminated sample.  This is
    what lets ``check_trend.py`` gate the smoke record at a 20% budget
    instead of the former 50%.
    """
    best = None
    for _ in range(reps):
        row = measure()
        if best is None or row["wall_s"] < best["wall_s"]:
            best = row
    return best


def test_scale_throughput(benchmark) -> None:
    """Flood events/sec, broadcast-delay copies/sec, and the n=256 gate."""
    smoke = _smoke()

    def _measure() -> dict:
        flood = [_best_of(lambda n=n, m=model, s=sched: _run_flood(n, m, s))
                 for model in FLOOD_MODELS
                 for sched in FLOOD_SCHEDULERS
                 for n in _flood_counts()]
        delay = [_best_of(lambda n=n, m=model: _run_broadcast_delay(n, m))
                 for model in DELAY_MODELS for n in _delay_counts()]
        # The acceptance gate: a million modeled users at n=256 (64 in the
        # smoke variant) must complete within the wall-clock budget.
        gate_n = 64 if smoke else 256
        gate_duration = 1.0 if smoke else 0.75
        # The full-size gate run costs 10–20 s of wall a shot; it gates a
        # generous 60 s budget, so one sample is enough there.
        gate = _best_of(lambda: _run_workload(
            gate_n, duration=gate_duration,
            num_clients=1_000_000, rate=20_000.0), reps=3 if smoke else 1)
        gate["under_60s"] = gate["wall_s"] < GATE_WALL_S
        return {"flood": flood, "broadcast_delay": delay, "gate": [gate]}

    series = benchmark.pedantic(_measure, rounds=1, iterations=1)
    total_wall = sum(row["wall_s"] for rows in series.values() for row in rows)
    name = "bench_scale_smoke" if smoke else "bench_scale"
    emit_bench_record(
        name, total_wall,
        SimpleNamespace(figure=name.replace("_", "-"), replications=1,
                        series=series),
    )
    paper_comparison(series["flood"])
    paper_comparison(series["broadcast_delay"])
    paper_comparison(series["gate"])
    assert all(row["events"] > 0 for row in series["flood"])
    assert all(row["events_per_s"] > 0 for row in series["broadcast_delay"])
    gate_row = series["gate"][0]
    assert gate_row["committed_tx"] > 0, "gate run committed nothing"
    if not smoke:
        assert gate_row["under_60s"], (
            f"n=256 million-user run took {gate_row['wall_s']:.1f}s "
            f"(budget {GATE_WALL_S:.0f}s)"
        )
