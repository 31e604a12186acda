#!/usr/bin/env python3
"""Parallel, replicated, cached sweeps over declarative experiment plans.

The evaluation layer separates *what* to run from *how* to run it:

1. a **plan builder** produces the grid of experiment cells as data
   (an `ExperimentPlan` of `ExperimentConfig`s) — here Figure 6b's
   protocol × payload sweep, fanned out over 3 independent replications
   per cell;
2. the **runner** executes the plan across worker processes; every
   simulation is deterministic given its config, so the results (and their
   order) are identical to a serial run;
3. a **result cache** keyed by each config's content hash makes re-runs free:
   the second `run_figure` call below executes zero experiments;
4. the replications aggregate into mean ± 95% CI rows, rendered by the
   figure report.

Run with::

    python examples/parallel_sweep.py
"""

from __future__ import annotations

import os
import tempfile
import time

from repro.eval.scenarios import plan_figure_6b, run_figure

PAYLOADS = (500_000, 1_000_000)
DURATION = 8.0
SEEDS = 3
JOBS = max(1, min(4, os.cpu_count() or 1))


def timed(label: str, plan, **kwargs):
    started = time.perf_counter()
    executed = [0]

    def progress(event):
        executed[0] += 0 if event.cached else 1

    figure = run_figure(plan, progress=progress, **kwargs)
    elapsed = time.perf_counter() - started
    print(f"{label}: {executed[0]}/{len(plan.specs)} cells executed "
          f"in {elapsed:.1f} s")
    return figure


def main() -> None:
    plan = plan_figure_6b(payload_sizes=PAYLOADS, duration=DURATION, seeds=SEEDS)
    print(f"plan 6b: {len(plan.specs)} experiments "
          f"({len(plan.cells())} cells x {SEEDS} replications)\n")

    with tempfile.TemporaryDirectory() as cache_dir:
        figure = timed(f"parallel run (jobs={JOBS})", plan,
                       jobs=JOBS, cache_dir=cache_dir)
        cached = timed("cached re-run", plan, jobs=JOBS, cache_dir=cache_dir)

    assert [r.row() for r in cached.results] == [r.row() for r in figure.results]
    print()
    print(figure.render())
    print()
    print("banyan (p=1) vs icc at 1 MB: "
          f"{figure.improvement_over('icc', 'banyan (p=1)', 1_000_000):.1f}% "
          f"latency improvement (mean of {SEEDS} replications)")


if __name__ == "__main__":
    main()
