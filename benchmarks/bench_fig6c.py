"""Figure 6c: latency variance of Banyan vs. ICC, n=4, 1 MB payload.

The paper's claim: the large fast-path improvement "does not come at the
cost of higher variance in latency".  The benchmark reproduces the per-
proposal latency distribution for both protocols and compares mean, p95,
and standard deviation.
"""

from __future__ import annotations

from benchmarks.conftest import paper_comparison, print_figure, run_once
from repro.eval.scenarios import plan_figure_6c, run_figure

PAYLOAD = 1_000_000
DURATION = 25.0


def test_figure_6c(benchmark):
    figure = run_once(benchmark, run_figure,
                      plan_figure_6c(payload_size=PAYLOAD, duration=DURATION),
                      record_name="figure_6c")
    print_figure(figure)

    banyan = next(r for r in figure.results if r.label == "banyan (p=1)").metrics
    icc = next(r for r in figure.results if r.label == "icc").metrics

    paper_comparison([
        {"metric": "mean latency (ms)", "banyan": round(banyan.mean_latency * 1000, 1),
         "icc": round(icc.mean_latency * 1000, 1)},
        {"metric": "p95 latency (ms)", "banyan": round(banyan.p95_latency * 1000, 1),
         "icc": round(icc.p95_latency * 1000, 1)},
        {"metric": "stddev (ms)", "banyan": round(banyan.latency_stddev * 1000, 1),
         "icc": round(icc.latency_stddev * 1000, 1)},
        {"metric": "samples", "banyan": len(banyan.latency_samples),
         "icc": len(icc.latency_samples)},
    ])

    # Banyan is faster on average and its distribution does not blow up:
    # the p95 stays below ICC's p95 and the spread stays a small fraction of
    # the mean (the paper's "no increased variance" claim).
    assert banyan.mean_latency < icc.mean_latency
    assert banyan.p95_latency <= icc.p95_latency * 1.05
    assert banyan.latency_stddev < 0.25 * icc.mean_latency
    assert len(banyan.latency_samples) > 10 and len(icc.latency_samples) > 10
