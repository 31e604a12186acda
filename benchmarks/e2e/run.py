"""One workload, one result line: the entry point ``BENCHMARK.json`` names.

``python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1``

The ledger's own measurement (``harness.run_sets``) on one workload:

* ``--trace 0``: ``T // spec.CHILD_SECONDS`` fresh full-size children, one
  after the other, and the median of each bounded end-to-end metric over
  them — ``setup_s`` included, since every child sets up from interpreter
  start.
* ``--trace 1``: one untraced child (the base of ``trace.overhead_ratio``),
  one under cProfile, then the layer-call drivers; reports every unbounded
  metric, 0 where one does not apply to the workload.

The last line of standard output is the JSON result; progress goes to
standard error.  With no measurement to report — ``src/`` missing, say —
nothing is printed and the exit code is 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.e2e import harness, spec  # noqa: E402


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks/e2e/run.py")
    parser.add_argument("--workload", required=True, choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    k = 1 if args.trace else max(1, int(args.seconds // spec.CHILD_SECONDS))
    results = harness.run_sets([args.workload], args.seed, k, quick=False,
                               traced=bool(args.trace), log=_log)[0]
    summary = results["workloads"][args.workload]
    for failure in summary["failures"]:
        _log(f"FAILED: {failure}")
    medians = {name: stats["median"] for name, stats in summary["e2e"].items()}

    document = spec.benchmark_json()
    if args.trace:
        values = dict.fromkeys((m["name"] for m in document["per_layer"]), 0.0)
        values.update(medians)
        values.update(summary["per_layer"])
        values.update(results["calls"])
        declared = document["per_layer"]
        complete = bool(medians and summary["per_layer"] and results["calls"])
    else:
        values = medians
        declared = document["end_to_end"]
        complete = all(m["name"] in medians for m in declared)
    if not complete:
        return 1
    print(json.dumps({
        "correct": summary["ops_failed"] == 0,
        "attempted": summary["ops_attempted"],
        "failed": summary["ops_failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
