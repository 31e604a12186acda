"""Client-workload benchmarks: saturation sweep and flash crowd.

These go beyond the paper's fixed-payload methodology: an open-loop Poisson
client population offers load in transactions per second, and the measured
quantity is the *client-observed* submit→commit latency and goodput rather
than proposal finalization time.  The saturation sweep shows the capacity
knee (goodput tracks offered load until the block budget saturates, then
latency departs); the flash crowd shows the mempools absorbing a demand
spike and draining afterwards.
"""

from __future__ import annotations

from benchmarks.conftest import print_figure, run_once
from repro.analysis.report import render_timeseries
from repro.eval.scenarios import plan_flash_crowd, plan_saturation_sweep, run_figure

RATES = (15, 60, 240)
DURATION = 25.0


def test_saturation_sweep(benchmark):
    figure = run_once(benchmark, run_figure,
                      plan_saturation_sweep(rates=RATES, duration=DURATION,
                                            max_block_bytes=16_384),
                      record_name="saturation_sweep")
    print_figure(figure)

    (_, rows), = figure.series.items()
    by_rate = {row["offered_tx_per_s"]: row for row in rows}
    # Below saturation the system absorbs the offered load.
    assert by_rate[15]["goodput_tx_per_s"] > 10
    assert by_rate[60]["goodput_tx_per_s"] > by_rate[15]["goodput_tx_per_s"]
    # Past the knee, the backlog shows up as pending work and higher tail
    # latency at the clients.
    assert by_rate[240]["pending_tx"] > by_rate[15]["pending_tx"]
    assert by_rate[240]["tx_p95_ms"] > by_rate[15]["tx_p95_ms"]


def test_flash_crowd(benchmark):
    figure = run_once(benchmark, run_figure,
                      plan_flash_crowd(base_rate=15.0, burst_rate=250.0,
                                       burst_start=8.0, burst_duration=4.0,
                                       duration=40.0),
                      record_name="flash_crowd")
    print_figure(figure)

    workload = figure.results[0].workload
    samples = workload.occupancy
    print()
    print(render_timeseries(
        "mempool occupancy over time",
        [sample.time for sample in samples],
        [float(sample.transactions) for sample in samples],
        unit=" tx",
    ))

    pre_burst = max((s.transactions for s in samples if s.time < 8.0), default=0)
    assert workload.peak_mempool_depth > max(pre_burst, 1) * 4
    assert samples[-1].transactions < workload.peak_mempool_depth / 3
    assert workload.committed > 0
