"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    banyan-repro table1 [--f 6 --p 1]
    banyan-repro figure 6a [--duration 20]
    banyan-repro figure 6d --jobs 4 --seeds 5 --cache-dir .banyan-cache
    banyan-repro run --protocol banyan --n 19 --f 6 --p 1 --payload 400000
    banyan-repro run --n 19 --f 6 --transport contended --uplink-mbps 50
    banyan-repro run --n 19 --f 6 --compute crypto --compute-scale 4
    banyan-repro figure uplink --seeds 3 --jobs 4
    banyan-repro figure crypto --jobs 4
    banyan-repro workload saturation --rates 10,30,60,120 --jobs 4
    banyan-repro workload flash-crowd --burst-rate 250
    banyan-repro chaos --trials 200 --seed 0 --jobs 4
    banyan-repro chaos --protocol banyan --trials 50 --shrink
    banyan-repro chaos --replay .banyan-chaos/chaos-repro-icc-broken-seed0-trial13.json
    banyan-repro cluster --n 4 --protocol banyan --duration 5 --check-invariants
    banyan-repro cluster --protocol all --rate 100 --tx-size 256
    banyan-repro cluster --replay .banyan-chaos/chaos-repro-banyan-seed0-trial7.json
    banyan-repro list

The output is plain text: the same rows/series the paper reports, rendered
with :mod:`repro.analysis.report`.  Every experiment-running subcommand
accepts ``--jobs`` (parallel worker processes), ``--seeds`` (independent
replications aggregated into mean ± 95% CI columns), ``--cache-dir``
(skip cells that already ran), and ``--no-cache``; progress is reported on
stderr so stdout stays a clean table.
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys
from typing import List, Optional

from repro.analysis.report import format_table, render_timeseries
from repro.eval import scenarios
from repro.eval.experiment import ExperimentConfig
from repro.eval.plan import ExperimentPlan
from repro.eval.runner import ProgressEvent
from repro.eval.table1 import table1_rows
from repro.net.latency import available_latency_models
from repro.net.topology import TOPOLOGY_FACTORIES
from repro.net.transport import available_transports
from repro.runtime.compute import available_compute_models
from repro.runtime.scheduler import SCHEDULERS
from repro.protocols.base import ProtocolParams
from repro.protocols.registry import available_protocols

_WORKLOADS = {
    "saturation": scenarios.plan_saturation_sweep,
    "flash-crowd": scenarios.plan_flash_crowd,
}


def _finite(cast, noun: str, zero: bool = False):
    """An argparse type: ``cast(text)``, which must be finite and above 0
    (or at least 0 with ``zero``).  Kept beside the configs' own checks:
    its usage error names the flag, which a config cannot see."""
    sign = "non-negative" if zero else "positive"

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {cast.__name__} value {text!r}")
        if not math.isfinite(value) or value < 0 or (value == 0 and not zero):
            raise argparse.ArgumentTypeError(f"must be a {sign} {noun}, got {value:g}")
        return value
    return parse


_positive_int = _finite(int, "integer")
_positive_float = _finite(float, "number")
_non_negative_float = _finite(float, "number", zero=True)


def _rate_list(text: str) -> List[float]:
    """Parse a comma-separated rate list, e.g. ``"10,30,60"``."""
    try:
        rates = [float(rate) for rate in text.split(",") if rate.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid rate list {text!r}")
    if not rates or any(not math.isfinite(rate) or rate <= 0 for rate in rates):
        raise argparse.ArgumentTypeError("rates must be finite positive numbers")
    return rates


def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    """The sweep-runner flags shared by ``figure``, ``run``, and ``workload``."""
    parser.add_argument("--jobs", type=_positive_int, default=1,
                        help="parallel worker processes (default: 1, serial)")
    parser.add_argument("--seeds", type=_positive_int, default=1,
                        help="independent replications per cell; > 1 aggregates "
                             "rows into mean ± 95%% CI columns")
    parser.add_argument("--cache-dir", default=None,
                        help="directory of per-experiment JSON results; "
                             "re-runs skip cells already present")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore cached results (they are still refreshed)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="banyan-repro",
        description="Reproduce the evaluation of 'Banyan: Fast Rotating Leader BFT'.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    table_parser = subparsers.add_parser("table1", help="print the analytic Table 1")
    table_parser.add_argument("--f", type=int, default=1, help="Byzantine bound f")
    table_parser.add_argument("--p", type=int, default=1, help="fast-path parameter p")

    figure_parser = subparsers.add_parser("figure", help="reproduce one evaluation figure")
    figure_parser.add_argument("name", choices=sorted(scenarios.PLAN_BUILDERS),
                               help="figure to reproduce")
    figure_parser.add_argument("--duration", type=_positive_float, default=None,
                               help="simulated duration per experiment (seconds)")
    figure_parser.add_argument("--warmup", type=_non_negative_float, default=None,
                               help="seconds excluded from the measurements "
                                    "(default: the figure's preset)")
    figure_parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    _add_runner_arguments(figure_parser)

    run_parser = subparsers.add_parser("run", help="run a single custom experiment")
    run_parser.add_argument("--protocol", choices=available_protocols(), default="banyan")
    run_parser.add_argument("--n", type=int, default=19)
    run_parser.add_argument("--f", type=int, default=6)
    run_parser.add_argument("--p", type=int, default=1)
    run_parser.add_argument("--payload", type=int, default=400_000, help="payload size in bytes")
    run_parser.add_argument("--duration", type=_positive_float, default=20.0)
    run_parser.add_argument("--topology", choices=sorted(TOPOLOGY_FACTORIES), default="global4")
    run_parser.add_argument("--latency-model", choices=available_latency_models(),
                            default="geo",
                            help="topology latency model: geodesic estimate or "
                                 "the measured inter-region RTT matrix")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--transport", choices=available_transports(),
                            default="direct",
                            help="dissemination strategy (default: direct)")
    run_parser.add_argument("--uplink-mbps", type=_positive_float, default=None,
                            help="per-replica NIC capacity in Mbit/s for the "
                                 "contended transport (default: 1000)")
    run_parser.add_argument("--relays", type=_positive_int, default=None,
                            help="relay fan-out for the relay transport (default: 2)")
    run_parser.add_argument("--compute", choices=available_compute_models(),
                            default="zero",
                            help="replica compute model (default: zero — "
                                 "message handling is free)")
    run_parser.add_argument("--compute-scale", type=_positive_float, default=None,
                            help="cost multiplier for the crypto compute "
                                 "model (default: 1.0)")
    run_parser.add_argument("--scheduler", choices=SCHEDULERS, default="auto",
                            help="event-scheduler backend (default: auto — "
                                 "calendar queue on large jittered "
                                 "zero-compute crash-free runs, binary "
                                 "heap otherwise; executions are "
                                 "byte-identical either way)")
    run_parser.add_argument("--profile", action="store_true",
                            help="run one replication under cProfile and dump "
                                 "the top-25 cumulative functions plus "
                                 "per-event-kind counts to stderr")
    run_parser.add_argument("--profile-out", metavar="PATH", default=None,
                            help="with --profile (implied), also dump the raw "
                                 "pstats data to PATH for offline analysis "
                                 "(python -m pstats PATH / snakeviz)")
    _add_runner_arguments(run_parser)

    workload_parser = subparsers.add_parser(
        "workload", help="run a client-workload scenario (end-to-end tx latency)"
    )
    workload_parser.add_argument("name", choices=sorted(_WORKLOADS),
                                 help="workload scenario to run")
    workload_parser.add_argument("--protocol", choices=available_protocols(),
                                 default=None)
    workload_parser.add_argument("--n", type=int, default=None)
    workload_parser.add_argument("--f", type=int, default=None)
    workload_parser.add_argument("--p", type=int, default=None)
    workload_parser.add_argument("--tx-size", type=int, default=None,
                                 help="transaction size in bytes")
    workload_parser.add_argument("--max-block-bytes", type=int, default=None,
                                 help="per-proposal byte budget drained from the mempool")
    workload_parser.add_argument("--duration", type=_positive_float, default=None,
                                 help="simulated duration (seconds)")
    workload_parser.add_argument("--seed", type=int, default=0)
    workload_parser.add_argument("--rates", type=_rate_list, default=None,
                                 help="saturation sweep rates, e.g. 10,30,60,120 (tx/s)")
    workload_parser.add_argument("--base-rate", type=float, default=None,
                                 help="flash-crowd baseline rate (tx/s)")
    workload_parser.add_argument("--burst-rate", type=float, default=None,
                                 help="flash-crowd burst rate (tx/s)")
    _add_runner_arguments(workload_parser)

    chaos_parser = subparsers.add_parser(
        "chaos",
        help="randomized fault-schedule exploration with invariant checking",
    )
    chaos_parser.add_argument("--trials", type=int, default=50,
                              help="number of seeded trials (default: 50)")
    chaos_parser.add_argument("--seed", type=int, default=0,
                              help="campaign base seed")
    chaos_parser.add_argument("--protocol", default="all",
                              help="protocol to stress, or 'all' to rotate "
                                   "through banyan/icc/hotstuff/streamlet "
                                   "(default: all)")
    chaos_parser.add_argument("--n", type=int, default=4,
                              help="replica count (default: 4)")
    chaos_parser.add_argument("--f", type=int, default=None,
                              help="fault bound (default: largest sound f)")
    chaos_parser.add_argument("--p", type=int, default=1,
                              help="fast-path parameter (default: 1)")
    chaos_parser.add_argument("--duration", type=_positive_float, default=15.0,
                              help="simulated seconds per trial (default: 15; "
                                   "short runs still check safety but may "
                                   "leave no tail for the liveness check)")
    chaos_parser.add_argument("--shrink", action=argparse.BooleanOptionalAction,
                              default=True,
                              help="shrink failing schedules to minimal "
                                   "repros (default: on)")
    chaos_parser.add_argument("--repro-dir", default=".banyan-chaos",
                              help="directory for shrunk-repro JSON files")
    chaos_parser.add_argument("--replay", default=None, metavar="FILE",
                              help="replay a shrunk repro JSON instead of "
                                   "running a campaign")
    chaos_parser.add_argument("--jobs", type=_positive_int, default=1,
                              help="parallel worker processes (default: 1)")
    chaos_parser.add_argument("--cache-dir", default=None,
                              help="directory of per-trial JSON results; "
                                   "re-runs skip trials already present")
    chaos_parser.add_argument("--no-cache", action="store_true",
                              help="ignore cached results (still refreshed)")

    cluster_parser = subparsers.add_parser(
        "cluster",
        help="run a real n-replica TCP cluster on localhost (processes, "
             "sockets, monotonic clocks) and cross-validate it against the "
             "simulator's invariants",
    )
    cluster_parser.add_argument("--protocol", default="banyan",
                                help="protocol to run, or 'all' to run each of "
                                     "banyan/icc/hotstuff/streamlet in turn "
                                     "(default: banyan)")
    cluster_parser.add_argument("--n", type=int, default=4,
                                help="replica count (default: 4)")
    cluster_parser.add_argument("--f", type=int, default=None,
                                help="fault bound (default: largest sound f)")
    cluster_parser.add_argument("--p", type=int, default=None,
                                help="fast-path parameter (default: max(1, f))")
    cluster_parser.add_argument("--duration", type=_positive_float, default=None,
                                help="wall-clock seconds of protocol time "
                                     "(default: 10, or the --replay file's)")
    cluster_parser.add_argument("--rank-delay", type=float, default=0.05,
                                help="per-rank delay 2Δ in seconds "
                                     "(default: 0.05 — localhost is fast)")
    cluster_parser.add_argument("--round-timeout", type=float, default=1.0,
                                help="view/epoch timeout in seconds (default: 1)")
    cluster_parser.add_argument("--payload", type=int, default=0,
                                help="synthetic payload bytes per proposal when "
                                     "the mempool is empty (default: 0)")
    cluster_parser.add_argument("--rate", type=_non_negative_float, default=0.0,
                                help="aggregate open-loop client rate in tx/s "
                                     "(default: 0, no workload clients)")
    cluster_parser.add_argument("--tx-size", type=_positive_int, default=128,
                                help="workload transaction size in bytes (default: 128)")
    cluster_parser.add_argument("--clients", type=_positive_int, default=2,
                                help="workload client labels (default: 2)")
    cluster_parser.add_argument("--seed", type=int, default=0,
                                help="base seed for fault/workload RNGs")
    cluster_parser.add_argument("--base-port", type=int, default=None,
                                help="first TCP port of a contiguous range "
                                     "(default: ask the OS for free ports)")
    cluster_parser.add_argument("--log-dir", default=None,
                                help="directory for per-replica configs, "
                                     "commit logs, and summaries (default: a "
                                     "fresh temp directory)")
    cluster_parser.add_argument("--check-invariants", action="store_true",
                                help="cross-validate the real commit logs "
                                     "against the simulator's invariant "
                                     "checker; violations fail the run")
    cluster_parser.add_argument("--replay", default=None, metavar="FILE",
                                help="replay a shrunk chaos repro JSON at the "
                                     "socket level instead of a clean run")

    subparsers.add_parser("list", help="list available protocols, figures, and workloads")
    return parser


def _print_progress(event: ProgressEvent) -> None:
    """Stderr progress line per completed experiment (stdout stays a table)."""
    spec = event.spec
    suffix = " (cached)" if event.cached else ""
    print(f"[{event.completed}/{event.total}] {spec.resolved_label()}"
          f" {spec.cell or 'run'} rep={spec.replication}{suffix}",
          file=sys.stderr)


def _runner_kwargs(args: argparse.Namespace) -> dict:
    """Translate the shared runner flags into :func:`run_figure` arguments."""
    kwargs = {
        "jobs": args.jobs,
        "cache_dir": args.cache_dir,
        "use_cache": not args.no_cache,
    }
    if args.jobs > 1 or args.seeds > 1 or args.cache_dir is not None:
        kwargs["progress"] = _print_progress
    return kwargs


def _cmd_table1(args: argparse.Namespace) -> int:
    rows = table1_rows(f=args.f, p=args.p)
    headers = ["protocol", "finalization_latency", "finalization_requirement",
               "creation_latency", "creation_requirement", "replicas", "rotating_leaders"]
    print(format_table(headers, [[row[h] for h in headers] for row in rows]))
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    builder = scenarios.PLAN_BUILDERS[args.name]
    # A flag left out falls back to the figure's preset.
    preset = inspect.signature(builder).parameters
    error = _no_window_error(
        preset["duration"].default if args.duration is None else args.duration,
        preset["warmup"].default if args.warmup is None else args.warmup)
    if error is not None:
        print(f"banyan-repro figure: error: {error}", file=sys.stderr)
        return 2
    kwargs = {"seed": args.seed, "seeds": args.seeds}
    if args.duration is not None:
        kwargs["duration"] = args.duration
    if args.warmup is not None:
        kwargs["warmup"] = args.warmup
    figure = scenarios.run_figure(builder(**kwargs), **_runner_kwargs(args))
    print(figure.render())
    return 0


def _empty_window_reason(config) -> str:
    """Why a run's measurement window holds no commit, in one sentence.

    The first finalisation time comes from a replay that listens to the
    commit stream (runs are seeded, so the replay is the run); only this
    rare path pays for it, and the result format stays as it is.
    """
    from repro.eval.experiment import run_experiment

    times: List[float] = []
    run_experiment(config, on_simulation=lambda simulation: simulation.add_commit_listener(
        lambda record: times.append(record.commit_time)))
    when = ("nothing was finalised during the run" if not times
            else f"the first finalisation came at {times[0]:.3f} s")
    return (f"no block was finalised inside the measurement window: it is "
            f"{max(config.duration - config.warmup, 0.0):g} s long (--duration "
            f"{config.duration:g} minus the {config.warmup:g} s warm-up) and "
            f"{when}; raise --duration")


def _no_window_error(duration: float, warmup: float) -> Optional[str]:
    """The error for a run whose warm-up leaves nothing to measure.

    Kept next to the config's own window check: this one names the flag
    (and a figure's preset warm-up), which a config cannot see."""
    if duration > warmup:
        return None
    return (f"--duration {duration:g} leaves no measurement window after "
            f"the {warmup:g} s warm-up; raise --duration above {warmup:g}")


def _cmd_run(args: argparse.Namespace) -> int:
    error = _no_window_error(args.duration, ExperimentConfig.warmup)
    if error is not None:
        print(f"banyan-repro run: error: {error}", file=sys.stderr)
        return 2
    # Flag combinations: a config cannot see which flags were given.
    if args.uplink_mbps is not None and args.transport != "contended":
        print("banyan-repro run: error: --uplink-mbps applies only to "
              "--transport contended", file=sys.stderr)
        return 2
    if args.relays is not None and args.transport != "relay":
        print("banyan-repro run: error: --relays applies only to "
              "--transport relay", file=sys.stderr)
        return 2
    if args.compute_scale is not None and args.compute == "zero":
        print("banyan-repro run: error: --compute-scale applies only to "
              "--compute crypto", file=sys.stderr)
        return 2
    params = ProtocolParams(n=args.n, f=args.f, p=args.p, payload_size=args.payload,
                            rank_delay=scenarios.GLOBAL_RANK_DELAY)
    config = ExperimentConfig(protocol=args.protocol, params=params,
                              topology=args.topology, duration=args.duration,
                              seed=args.seed, transport=args.transport,
                              uplink_mbps=args.uplink_mbps,
                              relays=args.relays if args.relays is not None else 2,
                              compute=args.compute,
                              compute_scale=(args.compute_scale
                                             if args.compute_scale is not None else 1.0),
                              latency_model=args.latency_model,
                              scheduler=args.scheduler)
    if args.profile or args.profile_out:
        return _run_profiled(config, profile_out=args.profile_out)
    plan = ExperimentPlan(name="run", title="custom experiment",
                          specs=[config]).with_replications(args.seeds)
    figure = scenarios.run_figure(plan, **_runner_kwargs(args))
    for result in figure.results:
        if not result.metrics.committed_blocks:
            # The zero row still prints (scripts read it); stderr says why.
            print(f"banyan-repro run: warning: {_empty_window_reason(result.config)}",
                  file=sys.stderr)
    (row,), = (rows for rows in figure.series.values())
    print(format_table(sorted(row), [[row[key] for key in sorted(row)]]))
    return 0


def _run_profiled(config: ExperimentConfig, profile_out: Optional[str] = None) -> int:
    """Run one replication of ``config`` under cProfile.

    The result row prints to stdout as usual; the profile (top 25 by
    cumulative time) and the simulator's per-event-kind counts go to
    stderr, so ``banyan-repro run --profile 2>profile.txt`` separates the
    two.  With ``profile_out`` the raw pstats data is additionally dumped
    to that path (loadable via ``python -m pstats`` or snakeviz).  This
    bypasses the plan runner — the profile must capture the simulation
    itself, not a worker pool.
    """
    import cProfile
    import pstats

    from repro.eval.experiment import run_experiment

    captured = {}
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_experiment(config, on_simulation=lambda sim: captured.update(sim=sim))
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stderr)
    if profile_out:
        stats.dump_stats(profile_out)
    stats.sort_stats("cumulative").print_stats(25)
    counts = captured["sim"].event_counts()
    print("scheduled events by kind:", file=sys.stderr)
    for kind in sorted(counts):
        print(f"  {kind:>16}: {counts[kind]}", file=sys.stderr)
    row = result.row()
    print(format_table(sorted(row), [[row[key] for key in sorted(row)]]))
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    # None-valued flags fall through to the scenario defaults.
    kwargs = {"seed": args.seed, "seeds": args.seeds}
    for name in ("protocol", "n", "f", "p", "tx_size", "max_block_bytes",
                 "duration"):
        value = getattr(args, name)
        if value is not None:
            kwargs[name] = value
    if args.name == "saturation":
        if args.base_rate is not None or args.burst_rate is not None:
            print("banyan-repro workload: error: --base-rate/--burst-rate "
                  "apply only to flash-crowd", file=sys.stderr)
            return 2
        if args.rates is not None:
            kwargs["rates"] = args.rates
    else:
        if args.rates is not None:
            print("banyan-repro workload: error: --rates applies only to "
                  "saturation", file=sys.stderr)
            return 2
        if args.base_rate is not None:
            kwargs["base_rate"] = args.base_rate
        if args.burst_rate is not None:
            kwargs["burst_rate"] = args.burst_rate
    figure = scenarios.run_figure(_WORKLOADS[args.name](**kwargs),
                                  **_runner_kwargs(args))
    print(figure.render())
    # The story behind the table is in the occupancy curves: show them
    # inline, labelled with the offered rate that produced each one.  With
    # --seeds > 1 only the first replication of each cell is charted — the
    # table already carries the cross-replication statistics.
    charted = set()
    for result in figure.results:
        if result.workload is not None and result.workload.occupancy:
            cell = (result.label, result.config.workload.rate)
            if cell in charted:
                continue
            charted.add(cell)
            samples = result.workload.occupancy
            rate = result.config.workload.rate
            print()
            print(render_timeseries(
                f"mempool occupancy over time [{result.label} @ {rate:g} tx/s]",
                [sample.time for sample in samples],
                [float(sample.transactions) for sample in samples],
                unit=" tx",
            ))
    # A cell in which no client transaction committed is a failed run, not
    # a data point: the table above still prints, the exit code says so.
    dead = [result.label for result in figure.results
            if result.workload is not None and result.workload.committed == 0]
    if dead:
        print(f"banyan-repro workload: error: no transaction committed in "
              f"{len(dead)} run(s) ({dead[0]}); raise --duration",
              file=sys.stderr)
        return 1
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    # Imported lazily: the chaos engine pulls in the whole simulator stack,
    # which the table/list subcommands do not need.
    from repro.chaos import engine as chaos_engine

    if args.replay is not None:
        # Kept: "cannot replay" names the file, which a config error does not.
        try:
            result = chaos_engine.replay_repro(args.replay)
        except (OSError, ValueError, KeyError) as exc:
            print(f"banyan-repro chaos: error: cannot replay {args.replay!r}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"replayed {result.spec.protocol} seed={result.spec.seed} "
              f"trial={result.spec.trial} with {len(result.schedule)} fault(s):")
        for line in result.schedule.describe():
            print(f"  - {line}")
        if result.failed:
            print(f"{len(result.violations)} violation(s):")
            for violation in result.violations:
                print(f"  [{violation.invariant}] t={violation.time:.3f}s "
                      f"r{violation.replica}: {violation.detail}")
            return 1
        print("no violations (the repro no longer fails)")
        return 0

    if args.protocol == "all":
        protocols = chaos_engine.DEFAULT_PROTOCOLS
    else:
        protocols = (args.protocol,)
    progress = _print_progress if (args.jobs > 1 or args.cache_dir) else None
    report = chaos_engine.run_chaos(
        trials=args.trials, seed=args.seed, protocols=protocols,
        n=args.n, f=args.f, p=args.p, duration=args.duration,
        jobs=args.jobs, cache_dir=args.cache_dir,
        use_cache=not args.no_cache, shrink=args.shrink,
        repro_dir=args.repro_dir, progress=progress,
    )
    rows = report.summary_rows()
    headers = ["protocol", "trials", "failures", "faults_injected",
               "liveness_checked", "honest_commits"]
    print(format_table(headers, [[row[h] for h in headers] for row in rows]))
    if not report.failures:
        print(f"\n{len(report.results)} trial(s), zero invariant violations.")
        return 0
    print(f"\n{len(report.failures)} failing trial(s):")
    for result in report.failures:
        print(f"  {result.spec.protocol} seed={result.spec.seed} "
              f"trial={result.spec.trial}:")
        for violation in result.violations[:5]:
            print(f"    [{violation.invariant}] t={violation.time:.3f}s "
                  f"r{violation.replica}: {violation.detail}")
    for path in report.repro_paths:
        print(f"  shrunk repro written: {path}")
        print(f"    replay with: banyan-repro chaos --replay {path}")
    return 1


def _cmd_cluster(args: argparse.Namespace) -> int:
    # Imported lazily: the cluster harness pulls in the chaos stack, which
    # the table/list subcommands do not need.
    import json
    from pathlib import Path

    from repro.byzantine import ensure_protocol_registered
    from repro.chaos.engine import DEFAULT_PROTOCOLS, ChaosTrialSpec
    from repro.chaos.schedule import ChaosSchedule
    from repro.cluster.harness import check_cluster_config, fault_bounds, run_local_cluster
    from repro.workload.spec import WorkloadSpec

    schedule = liveness = None
    if args.replay is not None:
        # Kept, as for chaos: "cannot replay" names the file.
        try:
            with open(args.replay, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            spec = ChaosTrialSpec.from_dict(data["spec"])
            schedule = ChaosSchedule.from_dict(data["schedule"])
        except (OSError, ValueError, KeyError) as exc:
            print(f"banyan-repro cluster: error: cannot replay "
                  f"{args.replay!r}: {exc}", file=sys.stderr)
            return 2
        # The repro gives the protocol, the parameters and, unless
        # --duration is given, the duration.
        ensure_protocol_registered(spec.protocol)
        protocols, params, liveness = (spec.protocol,), spec.params(), spec.liveness_bound()
        duration = spec.duration if args.duration is None else args.duration
    else:
        protocols = DEFAULT_PROTOCOLS if args.protocol == "all" else (args.protocol,)
        f, p = fault_bounds(args.n, args.f, args.p)
        params = ProtocolParams(n=args.n, f=f, p=p, rank_delay=args.rank_delay,
                                round_timeout=args.round_timeout,
                                payload_size=args.payload)
        duration = 10.0 if args.duration is None else args.duration
    workload = WorkloadSpec(rate=args.rate, tx_size=args.tx_size, num_clients=args.clients,
                            seed=args.seed) if args.rate > 0 else None
    # The cluster measures the whole run: no warm-up.
    configs = [ExperimentConfig(protocol=protocol, params=params, duration=duration,
                                warmup=0.0, seed=args.seed, workload=workload)
               for protocol in protocols]
    for config in configs:
        # Nothing is spawned unless every protocol's config can run.
        check_cluster_config(config, args.base_port, schedule)
    if args.replay is not None:
        print(f"replaying {spec.protocol} seed={spec.seed} "
              f"trial={spec.trial} against a real {spec.n}-replica cluster, "
              f"{len(schedule)} fault(s):", file=sys.stderr)
        for line in schedule.describe():
            print(f"  - {line}", file=sys.stderr)

    rows, failed = [], []
    for config in configs:
        result = run_local_cluster(
            config, schedule=schedule, liveness_bound=liveness,
            check_invariants=args.check_invariants or args.replay is not None,
            log_dir=(Path(args.log_dir) / config.protocol if args.log_dir else None),
            base_port=args.base_port)
        rows.append(dict(result.experiment.row(), violations=len(result.violations)))
        bad_exit = any(code not in (0, -15) for code in result.exit_codes.values())
        if result.committed_blocks == 0 or result.violations or bad_exit:
            failed.append(result)
            print(f"banyan-repro cluster: {config.protocol} failed (exit codes "
                  f"{result.exit_codes}); commit logs: {result.log_dir}", file=sys.stderr)
    headers = sorted(rows[0])
    print(format_table(headers, [[row[key] for key in headers] for row in rows]))
    for result in failed:
        for violation in result.violations:
            print(f"  {result.experiment.label} [{violation.invariant}] "
                  f"t={violation.time:.3f}s r{violation.replica}: {violation.detail}")
    # As for workload: a run in which no client transaction committed failed.
    dead = [row["protocol"] for row in rows if row.get("committed_tx") == 0]
    if dead:
        print(f"banyan-repro cluster: error: no transaction committed in "
              f"{len(dead)} run(s) ({dead[0]}); raise --duration", file=sys.stderr)
    return 1 if failed or dead else 0


def _cmd_list(_: argparse.Namespace) -> int:
    print("protocols:", ", ".join(available_protocols()))
    print("figures:  ", ", ".join(sorted(scenarios.PLAN_BUILDERS)))
    print("workloads:", ", ".join(sorted(_WORKLOADS)))
    print("latency models:", ", ".join(available_latency_models()))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "table1": _cmd_table1,
        "figure": _cmd_figure,
        "run": _cmd_run,
        "workload": _cmd_workload,
        "chaos": _cmd_chaos,
        "cluster": _cmd_cluster,
        "list": _cmd_list,
    }
    try:
        return handlers[args.command](args)
    except ValueError as exc:
        # Configs check themselves at construction; a refused input is one
        # line and exit 2, whichever command built it.
        print(f"banyan-repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
