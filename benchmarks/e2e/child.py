"""One measured run in a fresh interpreter; prints one JSON line.

``python3 benchmarks/e2e/child.py --workload W --seed S --mode timed`` is
what a user's single ``banyan-repro run`` costs: interpreter start, imports,
set-up, the run.  ``--mode traced`` wraps the run in ``cProfile`` and adds
the per-layer attribution; ``--mode calls`` runs the layer-call drivers
instead of a workload.  Any exception — a missing ``src/`` included — ends
the process with a traceback and a non-zero code, and no result line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.e2e.child")
    parser.add_argument("--mode", choices=("timed", "traced", "calls"),
                        default="timed")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.monotonic() at spawn")
    parser.add_argument("--region-s", type=float, default=0.3,
                        help="minimum timed region of each call driver")
    args = parser.parse_args(argv)

    import repro

    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        raise RuntimeError(f"would measure {repro.__file__}, not this checkout's src/")

    if args.mode == "calls":
        from benchmarks.e2e import layers

        result = {"calls": layers.run_drivers(args.seed, args.region_s)}
    else:
        from benchmarks.e2e import workloads

        profiler = None
        if args.mode == "traced":
            import cProfile

            profiler = cProfile.Profile()
        stopwatch = workloads.Stopwatch(args.spawned_at, profiler)
        result = workloads.run(args.workload, args.seed, args.quick, stopwatch)
        if profiler is not None:
            from benchmarks.e2e import trace

            spans = trace.spans_of(profiler)
            result["layers"] = trace.attribute(spans)
            result["boundary_calls"] = trace.boundary_calls(spans)
    result["mode"] = args.mode
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
