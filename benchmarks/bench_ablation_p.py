"""Ablation: the fast-path parameter p at n=19.

The fast-path parameter p is Banyan's central design knob: p=1 costs
nothing extra in replicas (n >= 3f + 1 unchanged) but requires all-but-one
replicas to respond for the fast path; larger p trades Byzantine resilience
(smaller f at fixed n) for a more robust fast path.  This bench sweeps p and
reports latency and fast-path hit rate.
"""

from __future__ import annotations

from benchmarks.conftest import paper_comparison, print_figure, run_once
from repro.eval.scenarios import plan_ablation_p_sweep, run_figure

P_VALUES = (1, 2, 4)
DURATION = 12.0
PAYLOAD = 400_000


def test_ablation_p_sweep(benchmark):
    figure = run_once(
        benchmark, run_figure,
        plan_ablation_p_sweep(p_values=P_VALUES, payload_size=PAYLOAD, duration=DURATION),
        record_name="ablation_p_sweep",
    )
    print_figure(figure)

    rows = [row for series in figure.series.values() for row in series]
    paper_comparison([
        {"p": row["p"], "f": row["f"], "mean_latency_ms": row["mean_latency_ms"],
         "fast_path_ratio": row["fast_path_ratio"],
         "committed_blocks": row["committed_blocks"]}
        for row in sorted(rows, key=lambda r: r["p"])
    ])

    by_p = {row["p"]: row for row in rows}
    # Every configuration makes progress and uses the fast path.
    for row in rows:
        assert row["committed_blocks"] > 0
        assert row["fast_path_ratio"] > 0.3
    # A larger p never hurts the fast-path hit rate (it only relaxes the
    # number of replicas the fast path must hear from).
    assert by_p[max(P_VALUES)]["fast_path_ratio"] >= by_p[1]["fast_path_ratio"] - 0.05
    # And the p=f configuration is at least as fast as p=1 (Figure 6a's trend).
    assert by_p[max(P_VALUES)]["mean_latency_ms"] <= by_p[1]["mean_latency_ms"] * 1.05
