"""Figure 6d: crash faults, n=19 over 4 US datacenters, 3-second timeout.

The paper's claim: "there are no penalties in trying to take the fast path.
When there are failures, the performance of Banyan is exactly the one of
ICC."  The benchmark crashes 0 and 2 replicas, measures throughput and block
intervals for both protocols, and asserts Banyan tracks ICC under crashes.
"""

from __future__ import annotations

from benchmarks.conftest import paper_comparison, print_figure, run_once
from repro.eval.scenarios import plan_figure_6d, run_figure

CRASH_COUNTS = (0, 2)
DURATION = 40.0
PAYLOAD = 100_000


def test_figure_6d(benchmark):
    figure = run_once(
        benchmark, run_figure,
        plan_figure_6d(crash_counts=CRASH_COUNTS, payload_size=PAYLOAD, duration=DURATION),
        record_name="figure_6d",
    )
    print_figure(figure)

    banyan_rows = {row["crashed_replicas"]: row for row in figure.series["banyan (p=1)"]}
    icc_rows = {row["crashed_replicas"]: row for row in figure.series["icc"]}

    paper_comparison([
        {"crashes": crashes,
         "banyan_blocks": banyan_rows[crashes]["committed_blocks"],
         "icc_blocks": icc_rows[crashes]["committed_blocks"],
         "banyan_interval_ms": banyan_rows[crashes]["block_interval_ms"],
         "icc_interval_ms": icc_rows[crashes]["block_interval_ms"]}
        for crashes in CRASH_COUNTS
    ])

    for crashes in CRASH_COUNTS:
        banyan_row, icc_row = banyan_rows[crashes], icc_rows[crashes]
        assert banyan_row["committed_blocks"] > 0
        # Banyan's progress under crash faults matches ICC's (within 10%).
        assert abs(banyan_row["committed_blocks"] - icc_row["committed_blocks"]) <= max(
            2, 0.1 * icc_row["committed_blocks"]
        )
    # Crashes stretch the block interval (rotating-leader protocols stall for
    # a full timeout whenever a crashed replica is the leader).
    assert banyan_rows[2]["block_interval_ms"] > banyan_rows[0]["block_interval_ms"] * 2
    assert icc_rows[2]["block_interval_ms"] > icc_rows[0]["block_interval_ms"] * 2
