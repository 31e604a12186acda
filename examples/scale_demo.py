#!/usr/bin/env python3
"""Scale demo: a million modeled users at datacenter-scale replica counts.

Open-loop clients are admitted lazily into per-replica queues of
transaction ids, with no event per transaction, so the workload's cost
follows the offered rate rather than the population.  A million users
offering 20,000 tx/s cost what eight users offering the same rate cost,
and the run time is the protocol's own.

This demo runs Banyan over the measured AWS inter-region RTT matrix
(``latency_model="wan-matrix"``) and shows:

1. **population invariance**: the same seed and rate with 64 and with a
   million clients give the same counts and latencies;
2. the **scale sweep** (n=64 by default; pass ``--full`` for the
   64/128/256 sweep the paper-scale benchmarks use, about 20 s).

Run with::

    python examples/scale_demo.py          # quick (~2 s)
    python examples/scale_demo.py --full   # adds the n=128/256 sweep
"""

from __future__ import annotations

import sys
import time

from repro.eval.experiment import ExperimentConfig, run_experiment
from repro.eval.scenarios import plan_scale_sweep, run_figure
from repro.protocols.base import ProtocolParams
from repro.workload.spec import WorkloadSpec


def run(n: int, num_clients: int, rate: float, duration: float):
    bound = (n - 1) // 5  # keeps the fast path: n >= 3f + 2p + 1
    config = ExperimentConfig(
        protocol="banyan",
        params=ProtocolParams(n=n, f=bound, p=bound),
        workload=WorkloadSpec(mode="open", arrival="poisson", rate=rate,
                              num_clients=num_clients, tx_size=256,
                              sample_interval=1.0, seed=0),
        duration=duration, warmup=min(1.0, duration / 4), seed=1,
        latency_model="wan-matrix",
    )
    start = time.perf_counter()
    workload = run_experiment(config).workload
    wall = time.perf_counter() - start
    print(f"\n=== banyan n={n}, {num_clients:,} clients @ {rate:g} tx/s ===")
    print(f"wall-clock {wall:.1f} s; submitted {workload.submitted}, "
          f"committed {workload.committed}, dropped {workload.dropped}")
    print(f"submit→commit latency: p50 {workload.p50_latency * 1000:.0f} ms, "
          f"p95 {workload.p95_latency * 1000:.0f} ms")
    print(f"goodput: {workload.goodput_tx_per_s:.1f} tx/s")
    return workload


def main() -> None:
    full = "--full" in sys.argv[1:]

    # 1. The population only labels transactions.
    small = run(n=16, num_clients=64, rate=2_000.0, duration=2.0)
    large = run(n=16, num_clients=1_000_000, rate=2_000.0, duration=2.0)
    assert small.committed > 0
    assert (small.submitted, small.committed, small.latencies) == (
        large.submitted, large.committed, large.latencies)
    print("\n64 and 1,000,000 clients: identical counts and latencies")

    # 2. The scale sweep (the benchmark's configuration).
    counts = (64, 128, 256) if full else (64,)
    print(f"\n=== scale sweep, n={counts}, 1,000,000 clients (WAN matrix) ===")
    figure = run_figure(plan_scale_sweep(replica_counts=counts, duration=1.0,
                                         warmup=0.25))
    print(figure.render())
    assert all(result.workload.committed > 0 for result in figure.results)


if __name__ == "__main__":
    main()
