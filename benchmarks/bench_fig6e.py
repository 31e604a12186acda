"""Figure 6e: n=19 replicas spread across a worldwide network, 1 MB payload.

Paper's headline numbers: ICC averages 384 ms; Banyan p=1 reduces that by
5.8% to 362 ms "for free"; Banyan p=4 drops 16% to 324 ms.  In the worldwide
topology the fast path must hear from almost every continent, so the p=1
improvement is smaller than in the 4-datacenter experiments — the benchmark
asserts exactly that ordering.
"""

from __future__ import annotations

from benchmarks.conftest import paper_comparison, print_figure, run_once
from repro.eval.scenarios import plan_figure_6e, run_figure

PAYLOAD = 1_000_000
DURATION = 15.0


def test_figure_6e(benchmark):
    figure = run_once(benchmark, run_figure,
                      plan_figure_6e(payload_sizes=(PAYLOAD,), duration=DURATION),
                      record_name="figure_6e")
    print_figure(figure)

    icc = figure.mean_latency("icc", PAYLOAD)
    banyan_p1 = figure.mean_latency("banyan (p=1)", PAYLOAD)
    banyan_p4 = figure.mean_latency("banyan (p=4)", PAYLOAD)
    improvement_p1 = figure.improvement_over("icc", "banyan (p=1)", PAYLOAD)
    improvement_p4 = figure.improvement_over("icc", "banyan (p=4)", PAYLOAD)

    paper_comparison([
        {"series": "ICC @1MB", "paper_ms": 384, "measured_ms": round(icc * 1000, 1)},
        {"series": "Banyan p=1 @1MB", "paper_ms": 362, "measured_ms": round(banyan_p1 * 1000, 1)},
        {"series": "Banyan p=4 @1MB", "paper_ms": 324, "measured_ms": round(banyan_p4 * 1000, 1)},
        {"series": "Banyan p=1 vs ICC improvement %", "paper_ms": 5.8,
         "measured_ms": round(improvement_p1, 1)},
        {"series": "Banyan p=4 vs ICC improvement %", "paper_ms": 16.0,
         "measured_ms": round(improvement_p4, 1)},
    ])

    # Shape: p=4 > p=1 > 0 improvement; both protocols beat the baselines.
    assert banyan_p1 <= icc
    assert banyan_p4 < banyan_p1
    assert improvement_p4 > improvement_p1
    assert figure.mean_latency("hotstuff", PAYLOAD) > icc
    assert figure.mean_latency("streamlet", PAYLOAD) > icc
