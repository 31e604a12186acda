"""Figure 6a: throughput vs. proposal latency, n=19 over 4 global datacenters.

Paper's headline numbers at 400 KB blocks: ICC averages 239 ms, Banyan p=1
216 ms (~10% better), Banyan p=4 179 ms (~25% better).  The simulated WAN
does not reproduce the absolute milliseconds, but the benchmark asserts the
*shape*: Banyan p=1 beats ICC, Banyan p=4 beats Banyan p=1, and both beat
HotStuff and Streamlet.
"""

from __future__ import annotations

from benchmarks.conftest import paper_comparison, print_figure, run_once
from repro.eval.scenarios import plan_figure_6a, run_figure

PAYLOAD_SIZES = (100_000, 400_000)
DURATION = 15.0


def test_figure_6a(benchmark):
    figure = run_once(benchmark, run_figure,
                      plan_figure_6a(payload_sizes=PAYLOAD_SIZES, duration=DURATION),
                      record_name="figure_6a")
    print_figure(figure)

    at_400k = 400_000
    icc = figure.mean_latency("icc", at_400k)
    banyan_p1 = figure.mean_latency("banyan (p=1)", at_400k)
    banyan_p4 = figure.mean_latency("banyan (p=4)", at_400k)
    hotstuff = figure.mean_latency("hotstuff", at_400k)
    streamlet = figure.mean_latency("streamlet", at_400k)

    paper_comparison([
        {"series": "ICC @400KB", "paper_ms": 239, "measured_ms": round(icc * 1000, 1)},
        {"series": "Banyan p=1 @400KB", "paper_ms": 216, "measured_ms": round(banyan_p1 * 1000, 1)},
        {"series": "Banyan p=4 @400KB", "paper_ms": 179, "measured_ms": round(banyan_p4 * 1000, 1)},
        {"series": "Banyan p=1 vs ICC improvement %", "paper_ms": 9.6,
         "measured_ms": round(figure.improvement_over("icc", "banyan (p=1)", at_400k), 1)},
        {"series": "Banyan p=4 vs ICC improvement %", "paper_ms": 25.1,
         "measured_ms": round(figure.improvement_over("icc", "banyan (p=4)", at_400k), 1)},
    ])

    # Shape assertions (who wins, in which order).
    assert banyan_p1 < icc, "Banyan p=1 must beat ICC"
    assert banyan_p4 < banyan_p1, "Banyan p=4 must beat Banyan p=1"
    assert icc < hotstuff, "ICC must beat HotStuff"
    assert icc < streamlet, "ICC must beat Streamlet"
    # The improvement is meaningful but below the theoretical 33% maximum.
    assert 2.0 < figure.improvement_over("icc", "banyan (p=1)", at_400k) < 33.0
    assert 10.0 < figure.improvement_over("icc", "banyan (p=4)", at_400k) < 33.0
