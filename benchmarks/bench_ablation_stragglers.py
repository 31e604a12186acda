"""Ablation: fast-path hit rate vs. straggler replicas.

Exercises the "integrated dual mode" design choice: when more than p replicas
are slow, the fast path stops firing but — unlike the switching-cost designs
of Figure 2 (Bosco, SBFT) — latency degrades only to the concurrent slow
path.  Stragglers are honest replicas whose outbound messages are delayed by
a full second.
"""

from __future__ import annotations

from benchmarks.conftest import paper_comparison, print_figure, run_once
from repro.eval.scenarios import plan_ablation_stragglers, run_figure

STRAGGLER_COUNTS = (0, 1, 2)
DURATION = 15.0


def test_ablation_stragglers(benchmark):
    figure = run_once(
        benchmark, run_figure,
        plan_ablation_stragglers(straggler_counts=STRAGGLER_COUNTS, extra_delay=1.0,
                                 payload_size=100_000, duration=DURATION),
        record_name="ablation_stragglers",
    )
    print_figure(figure)

    rows = figure.series["banyan (p=1)"]
    paper_comparison([
        {"stragglers": row["stragglers"], "fast_path_ratio": row["fast_path_ratio"],
         "mean_latency_ms": row["mean_latency_ms"],
         "committed_blocks": row["committed_blocks"]}
        for row in rows
    ])

    by_count = {row["stragglers"]: row for row in rows}
    # No stragglers: fast path dominates.
    assert by_count[0]["fast_path_ratio"] > 0.8
    # More stragglers than p: the fast path stops firing...
    assert by_count[2]["fast_path_ratio"] < by_count[0]["fast_path_ratio"]
    # ...but the protocol keeps committing via the slow path, and the latency
    # stays bounded by the slow path rather than by the stragglers' delay.
    assert by_count[2]["committed_blocks"] > 0
    assert by_count[2]["mean_latency_ms"] < 1000.0
