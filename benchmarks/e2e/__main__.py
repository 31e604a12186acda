"""The perf ledger's command line: ``python -m benchmarks.e2e``.

Default: every workload ``--k`` times (fresh child each, interleaved
round-robin), all end-to-end metrics printed by name with units, outputs
verified, results JSON written.  ``--traced`` adds one cProfile run per
workload (the per-layer table) and the layer-call drivers.  ``--selfcheck``
measures the same tree twice and compares the two sets against the
benchmark's own bounds; ``compare a.json b.json`` does the same for two
results files.  ``--repin`` rewrites ``expected.json`` from a seed-1 run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

from benchmarks.e2e import harness, spec

DEFAULT_OUT = harness.ROOT / ".bench_e2e_work" / "BENCH_bench_e2e.json"


def _write(path: Path, data: Dict[str, object]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


def _failed(results: Dict[str, object]) -> int:
    return sum(summary["ops_failed"] for summary in results["workloads"].values())


def _compare_files(paths: List[str]) -> int:
    loaded = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            loaded.append(json.load(handle))
    try:
        rows = harness.compare(loaded[0], loaded[1])
    except harness.FingerprintMismatch as error:
        print(f"refusing to compare: {error}", file=sys.stderr)
        return 2
    return 1 if harness.print_comparison(rows) else 0


def _repin() -> int:
    expected = harness.load_expected()
    pins = {}
    for name in spec.SIMULATOR_WORKLOADS:
        result = harness.spawn("timed", name, expected["seed"])
        if result is None or result["failures"]:
            print(f"cannot pin {name}: {result and result['failures']}",
                  file=sys.stderr)
            return 1
        pins[name] = harness.pins_of(result)
        print(f"pinned {name}: {pins[name]['digest'][:16]}…")
    expected["workloads"].update(pins)
    _write(harness.EXPECTED, expected)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("command", nargs="*",
                        help="'compare A.json B.json' compares two results files")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--k", type=int, default=5,
                        help="timed repetitions per workload (default 5)")
    parser.add_argument("--traced", action="store_true",
                        help="add the per-layer table and the call drivers")
    parser.add_argument("--quick", action="store_true",
                        help="k=1 and shortened runs (a smoke pass, not a measurement)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="two interleaved sets of the same tree, compared")
    parser.add_argument("--repin", action="store_true",
                        help="rewrite expected.json from a seed-1 run")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help=f"results file (default {DEFAULT_OUT})")
    args = parser.parse_args(argv)

    if args.command:
        if args.command[0] != "compare" or len(args.command) != 3:
            parser.error("the only sub-command is: compare A.json B.json")
        return _compare_files(args.command[1:])

    if args.repin:
        return _repin()

    k = 1 if args.quick else args.k
    sets = harness.run_sets(list(spec.WORKLOADS), args.seed, k, args.quick,
                            args.traced, sets=2 if args.selfcheck else 1)
    results = sets[0]
    harness.print_results(results)
    _write(args.out, results)

    status = 1 if _failed(results) else 0
    if args.selfcheck:
        other = sets[1]
        _write(args.out.with_name(args.out.stem + "_B.json"), other)
        print("\nselfcheck: set A against set B, same tree")
        if harness.print_comparison(harness.compare(results, other, symmetric=True)):
            status = 1
        differences = harness.exact_differences(results, other)
        for difference in differences:
            print(f"NOT IDENTICAL: {difference}")
        if differences or _failed(other):
            status = 1
        if not differences:
            print("simulated outputs and boundary counts identical between the sets")
    return status


if __name__ == "__main__":
    sys.exit(main())
