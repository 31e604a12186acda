"""Parent-side machinery: spawn measured children, aggregate, verify, compare.

Shared by the ledger (``python -m benchmarks.e2e``) and the one-workload
entry point (``run.py``), which is the same measurement on one workload.  Imports nothing of ``repro``: all measured work
happens in fresh child processes, one at a time.
"""

from __future__ import annotations

import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

from benchmarks.e2e import spec, trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD = HERE / "child.py"
EXPECTED = HERE / "expected.json"

#: No single run may take longer; a hung child is a failed operation.
CHILD_TIMEOUT_S = 150.0


# ---------------------------------------------------------------------- #
# Children
# ---------------------------------------------------------------------- #


def spawn(mode: str, workload: Optional[str] = None, seed: int = 1,
          quick: bool = False, region_s: float = 0.3) -> Optional[Dict[str, object]]:
    """Run one child to completion; its result, or ``None`` if it failed.

    The child's stderr passes through, so a failure shows its traceback.
    """
    command = [sys.executable, str(CHILD), "--mode", mode, "--seed", str(seed),
               "--region-s", str(region_s)]
    if workload is not None:
        command += ["--workload", workload]
    if quick:
        command.append("--quick")
    command += ["--spawned-at", repr(time.monotonic())]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, cwd=str(ROOT),
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"child timed out: {' '.join(command)}", file=sys.stderr)
        return None
    lines = done.stdout.decode("utf-8", "replace").strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"child exited with code {done.returncode}: {' '.join(command)}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


# ---------------------------------------------------------------------- #
# Pinned outputs
# ---------------------------------------------------------------------- #


def load_expected() -> Dict[str, object]:
    with open(EXPECTED, "r", encoding="utf-8") as handle:
        return json.load(handle)


def pins_of(result: Dict[str, object]) -> Dict[str, object]:
    """What ``expected.json`` holds for one run."""
    return {
        "digest": result["digest"],
        "messages_delivered": result["counts"]["messages_delivered"],
        "sim": result["sim"],
    }


def pin_failures(result: Dict[str, object],
                 expected: Dict[str, object]) -> List[str]:
    """Differences between a run and the pinned outputs of its workload.

    Only full-size simulator runs on the pinned seed are compared; other
    seeds are judged by the invariants alone.
    """
    pinned = expected["workloads"].get(result["workload"])
    if pinned is None or result["quick"] or result["seed"] != expected["seed"]:
        return []
    actual = pins_of(result)
    return [
        f"{key}: pinned {pinned[key]!r}, got {actual[key]!r}"
        for key in ("digest", "messages_delivered", "sim")
        if pinned[key] != actual[key]
    ]


def checked(result: Optional[Dict[str, object]], expected: Dict[str, object],
            workload: str) -> Dict[str, object]:
    """A child result with pin failures folded in; a crashed child becomes
    one failed operation with no measurements."""
    if result is None:
        return {"workload": workload, "e2e": {}, "failures": ["run raised"],
                "ops_attempted": 1, "ops_failed": 1, "crashed": True}
    failures = pin_failures(result, expected)
    if failures:
        result["failures"] = result["failures"] + failures
        result["ops_failed"] = result["ops_attempted"]
    return result


# ---------------------------------------------------------------------- #
# Sets of runs
# ---------------------------------------------------------------------- #


def fingerprint(seed: int, k: int, backends: Dict[str, str]) -> Dict[str, object]:
    """Where and on what these numbers were measured."""
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        # Without numpy scheduler="auto" silently picks the heap.
        numpy_version = "absent"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), check=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.decode("ascii").strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "backends": backends,
        "k": k,
        "seed": seed,
        "git_commit": commit,
    }


def aggregate(workload: str, runs: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Medians, quartiles and failure counts of one workload's runs."""
    measured = [run for run in runs if not run.get("crashed")]
    e2e: Dict[str, Dict[str, object]] = {}
    for metric in spec.E2E_METRICS:
        if not metric.applies_to(workload):
            continue
        values = [run["e2e"][metric.name] for run in measured]
        if not values:
            continue
        e2e[metric.name] = dict(spec.summarize(values), unit=metric.unit,
                                better=metric.better, bound=metric.bound,
                                values=values)
    summary: Dict[str, object] = {
        "why": spec.WORKLOADS[workload],
        "e2e": e2e,
        "ops_attempted": sum(run["ops_attempted"] for run in runs),
        "ops_failed": sum(run["ops_failed"] for run in runs),
        "failures": sorted({failure for run in runs for failure in run["failures"]}),
    }
    if measured:
        first = measured[0]
        summary.update(
            backend=first["backend"], sim_duration_s=first["sim_duration_s"],
            counts=first["counts"], digest=first["digest"],
            wall_s=spec.summarize([run["wall_s"] for run in measured]),
        )
        if "tail" in first:
            summary["tail"] = first["tail"]
    return summary


def run_sets(workloads: Sequence[str], seed: int, k: int, quick: bool,
             traced: bool, sets: int = 1, log=print) -> List[Dict[str, object]]:
    """``sets`` complete result sets, their runs interleaved.

    Repetitions go round-robin across workloads, and across sets run by
    run (A1 B1 A2 B2 …): machine speed drifts over minutes, and
    interleaving spreads the drift evenly instead of handing it to
    whichever workload or set ran last.  ``traced`` adds one cProfile run
    per workload and set, whose operations count like any other run's, and
    the layer-call drivers.
    """
    expected = load_expected()
    runs: List[Dict[str, List[Dict[str, object]]]] = [
        {name: [] for name in workloads} for _ in range(sets)
    ]
    for repetition in range(k):
        for name in workloads:
            for index in range(sets):
                result = checked(spawn("timed", name, seed, quick), expected, name)
                runs[index][name].append(result)
                log(f"  run {repetition + 1}/{k} {name}"
                    + (f" [set {'AB'[index]}]" if sets > 1 else "")
                    + (f": wall {result['wall_s']:.3f} s"
                       if not result.get("crashed") else ": FAILED"))
    out = []
    for index in range(sets):
        summaries = {name: aggregate(name, runs[index][name]) for name in workloads}
        if traced:
            for name in workloads:
                summary = summaries[name]
                wall = summary.get("wall_s", {}).get("median", 0.0)
                log(f"  traced {name}" + (f" [set {'AB'[index]}]" if sets > 1 else ""))
                run = checked(spawn("traced", name, seed, quick), expected, name)
                summary["per_layer"] = ({} if run.get("crashed")
                                        else trace.per_layer_metrics(run, wall))
                summary["ops_attempted"] += run["ops_attempted"]
                summary["ops_failed"] += run["ops_failed"]
                summary["failures"] = sorted(
                    set(summary["failures"]) | set(run["failures"]))
        backends = {name: summaries[name].get("backend", "none") for name in workloads}
        out.append({
            "benchmark": "bench_e2e",
            "quick": quick,
            "fingerprint": fingerprint(seed, k, backends),
            "workloads": summaries,
        })
    if traced:
        # Workload-independent, so measured once and shared by the sets.
        log("  layer-call drivers")
        calls = spawn("calls", seed=seed, region_s=0.05 if quick else 0.3)
        for results in out:
            results["calls"] = calls["calls"] if calls else {}
    return out


# ---------------------------------------------------------------------- #
# Comparing two result sets
# ---------------------------------------------------------------------- #


class FingerprintMismatch(ValueError):
    """Two result files were measured on things that cannot be compared."""


def _comparable(a: Dict[str, object], b: Dict[str, object]) -> None:
    fa, fb = a["fingerprint"], b["fingerprint"]
    for key in ("python", "backends"):
        if fa[key] != fb[key]:
            raise FingerprintMismatch(f"{key} differs: {fa[key]!r} vs {fb[key]!r}")
    if (fa["numpy"] == "absent") != (fb["numpy"] == "absent"):
        raise FingerprintMismatch(
            f"numpy presence differs: {fa['numpy']!r} vs {fb['numpy']!r}")


def compare(base: Dict[str, object], candidate: Dict[str, object],
            symmetric: bool = False) -> List[Dict[str, object]]:
    """One row per (end-to-end metric, workload) present in both sets.

    Verdicts: ``unresolved`` when either side's quartile spread is wider
    than the bound; ``outside-bound`` when the candidate's median is worse
    than the base's by more than the bound (with ``symmetric``, when they
    differ by more than the bound either way); else ``ok``.

    Raises:
        FingerprintMismatch: interpreter, numpy presence or scheduler
            backend differ between the two sets.
    """
    _comparable(base, candidate)
    rows = []
    for workload, base_summary in base["workloads"].items():
        other = candidate["workloads"].get(workload)
        if other is None:
            continue
        for metric in spec.E2E_METRICS:
            a = base_summary["e2e"].get(metric.name)
            b = other["e2e"].get(metric.name)
            if a is None or b is None:
                continue
            base_median, cand_median = a["median"], b["median"]
            worse = (cand_median - base_median if metric.better == "lower"
                     else base_median - cand_median)
            change = worse / abs(base_median) if base_median else (
                0.0 if cand_median == base_median else float("inf"))
            widest = max(spec.spread(a["values"]), spec.spread(b["values"]))
            if widest > metric.bound:
                verdict = "unresolved"
            elif (abs(change) if symmetric else change) > metric.bound:
                verdict = "outside-bound"
            else:
                verdict = "ok"
            rows.append({
                "metric": metric.name, "workload": workload, "unit": metric.unit,
                "base": base_median, "candidate": cand_median,
                "worse_by": change, "bound": metric.bound, "spread": widest,
                "verdict": verdict,
            })
    return rows


def exact_differences(base: Dict[str, object],
                      candidate: Dict[str, object]) -> List[str]:
    """Simulated outputs and boundary counts that differ between two sets.

    Only simulator workloads are compared: the cluster runs on real timers,
    so its counts do not repeat.  Self times and ``trace.*`` are timings.
    """
    timings = ("layer.", "trace.", "call.")
    differences = []
    for workload in spec.SIMULATOR_WORKLOADS:
        a = base["workloads"].get(workload)
        b = candidate["workloads"].get(workload)
        if a is None or b is None:
            continue
        for key in ("digest", "counts"):
            if a.get(key) != b.get(key):
                differences.append(f"{workload}: {key} differs")
        for name, value in a.get("per_layer", {}).items():
            if name.startswith(timings) and not name.endswith(".calls"):
                continue
            other = b.get("per_layer", {}).get(name)
            if other != value:
                differences.append(f"{workload}: {name} {value!r} vs {other!r}")
    return differences


def print_comparison(rows: Iterable[Dict[str, object]], log=print) -> bool:
    """Print the verdict table; returns whether any row is outside its bound."""
    outside = False
    log(f"{'metric':<24}{'workload':<22}{'base':>14}{'candidate':>14}"
        f"{'worse by':>10}{'bound':>8}{'spread':>8}  verdict")
    for row in rows:
        outside = outside or row["verdict"] == "outside-bound"
        log(f"{row['metric']:<24}{row['workload']:<22}{row['base']:>14.4f}"
            f"{row['candidate']:>14.4f}{row['worse_by']:>+10.2%}"
            f"{row['bound']:>8.1%}{row['spread']:>8.2%}  {row['verdict']}")
    return outside


# ---------------------------------------------------------------------- #
# Printing one result set
# ---------------------------------------------------------------------- #


def print_results(results: Dict[str, object], log=print) -> None:
    """Every end-to-end metric by name with its unit, per workload; then the
    layer-share table of the traced runs."""
    for workload, summary in results["workloads"].items():
        log(f"\n{workload}  [{summary.get('backend', 'n/a')}; "
            f"ops {summary['ops_attempted']} attempted, "
            f"{summary['ops_failed']} failed]")
        for name, stats in summary["e2e"].items():
            note = ""
            if name == "sim_finalize_tail_ms" and "tail" in summary:
                note = (f"  (p{summary['tail']['percentile']:.1f} of "
                        f"{summary['tail']['samples']} samples)")
            log(f"  {name:<24}{stats['median']:>16.4f} {stats['unit']:<8}"
                f" q1 {stats['q1']:.4f}  q3 {stats['q3']:.4f}"
                f"  min {stats['min']:.4f}  k={stats['k']}{note}")
        for failure in summary["failures"]:
            log(f"  FAILED: {failure}")
    traced = {name: summary["per_layer"]
              for name, summary in results["workloads"].items()
              if summary.get("per_layer")}
    if traced:
        log("\nshare of traced self time by layer (%)")
        log(f"{'layer':<12}" + "".join(f"{name[:14]:>16}" for name in traced))
        for layer in spec.LAYERS:
            log(f"{layer:<12}" + "".join(
                f"{100 * table[f'layer.{layer}.share']:>16.1f}"
                for table in traced.values()))
        log(f"{'traced s':<12}" + "".join(
            f"{table['trace.wall_s']:>16.2f}" for table in traced.values()))
        log(f"{'overhead x':<12}" + "".join(
            f"{table['trace.overhead_ratio']:>16.2f}" for table in traced.values()))
    if results.get("calls"):
        log("\nlayer-call drivers (us per call, best of 3)")
        for name, value in results["calls"].items():
            log(f"  {name:<48}{value:>10.4f}")
