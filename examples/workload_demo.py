#!/usr/bin/env python3
"""Client workload demo: real transactions, end-to-end latency, flash crowds.

The other examples drive the protocols with the paper's synthetic
leader-generated payloads.  This one attaches a client population instead:

1. an **open-loop Poisson** workload — clients submit fixed-size
   transactions to their local replica's mempool at a target rate, Banyan
   proposals drain the mempool, and we report the submit→commit latency
   distribution the clients actually observe;
2. a **closed-loop** population — each client keeps exactly one transaction
   in flight and thinks between requests, the classic interactive-user
   model;
3. a **flash crowd** — a 20× demand spike fills the mempools and the
   backlog drains over the following rounds, visible in the occupancy
   chart.

Run with::

    python examples/workload_demo.py
"""

from __future__ import annotations

from repro.analysis.report import render_timeseries
from repro.eval.experiment import ExperimentConfig, run_experiment
from repro.eval.scenarios import plan_flash_crowd, run_figure
from repro.net.latency import ConstantLatency
from repro.protocols.base import ProtocolParams
from repro.workload.spec import WorkloadSpec


def show(title: str, workload) -> None:
    print(f"\n=== {title} ===")
    print(f"submitted {workload.submitted}, committed {workload.committed}, "
          f"dropped {workload.dropped}, still pending {workload.pending}")
    print(f"submit→commit latency: p50 {workload.p50_latency * 1000:.0f} ms, "
          f"p95 {workload.p95_latency * 1000:.0f} ms, "
          f"p99 {workload.p99_latency * 1000:.0f} ms")
    print(f"goodput: {workload.goodput_tx_per_s:.1f} tx/s "
          f"({workload.goodput_bytes_per_s / 1000:.1f} kB/s)")


def main() -> None:
    params = ProtocolParams(n=4, f=1, p=1, rank_delay=0.4)

    # 1. Open loop: 40 tx/s offered regardless of commit progress.
    open_loop = run_experiment(ExperimentConfig(
        protocol="banyan", params=params, duration=20.0, warmup=0.0,
        latency=ConstantLatency(0.05), seed=42,
        workload=WorkloadSpec(mode="open", arrival="poisson", rate=40.0,
                              tx_size=256, seed=42),
    ))
    show("open loop, Poisson 40 tx/s", open_loop.workload)

    # 2. Closed loop: 12 clients, one transaction in flight each, 300 ms
    #    mean think time — offered load self-clocks to the commit rate.
    closed_loop = run_experiment(ExperimentConfig(
        protocol="banyan", params=params, duration=20.0, warmup=0.0,
        latency=ConstantLatency(0.05), seed=42,
        workload=WorkloadSpec(mode="closed", num_clients=12, think_time=0.3,
                              tx_size=256, seed=42),
    ))
    show("closed loop, 12 clients, 300 ms think time", closed_loop.workload)

    # 3. Flash crowd: 15 tx/s baseline spiking to 250 tx/s for 4 seconds.
    figure = run_figure(plan_flash_crowd(base_rate=15.0, burst_rate=250.0,
                                         burst_start=8.0, burst_duration=4.0,
                                         duration=40.0, seed=42))
    workload = figure.results[0].workload
    show("flash crowd, 15 → 250 tx/s burst", workload)
    samples = workload.occupancy
    print()
    print(render_timeseries(
        "mempool occupancy (the spike fills the pools, the rounds drain them)",
        [sample.time for sample in samples],
        [float(sample.transactions) for sample in samples],
        unit=" tx",
    ))


if __name__ == "__main__":
    main()
