"""The six workloads: definitions, one measured run, output verification.

Runs inside the measured child process (``child.py``); the parent never
imports this module, so its import cost is part of the child's ``setup_s``
exactly as a user's ``banyan-repro run`` pays it.  ``repro`` imports are
local to each workload for the same reason: a run sets up only what the
equivalent user command would import.

Every workload is a fixed amount of simulated (or, for the cluster, real
protocol) time; ``--seed`` feeds ``ExperimentConfig.seed`` /
``WorkloadSpec.seed`` / ``NodeConfig.seed`` and the program under test sees
only the inputs generated from it.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import os
import resource
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

from benchmarks.e2e import spec

ROOT = Path(__file__).resolve().parents[2]

#: Scratch directory for the cluster's commit logs — inside the checkout
#: (the benchmark reads and writes nowhere else) and git-ignored.
WORK_DIR = ROOT / ".bench_e2e_work"

#: A transaction still uncommitted at the end failed if it was submitted
#: more than this many simulated seconds before the end.
TX_DEADLINE_SIM_S = 2.0

#: Idle lead before the cluster's coordinated start, so that all four
#: listeners are up; excluded from the run's wall.
CLUSTER_START_LEAD_S = 0.1


@dataclass(frozen=True)
class Size:
    """Simulated duration and warm-up of one run, in seconds."""

    duration: float
    warmup: float = 0.0


#: Run length per workload — the issue's: 6–10 s of wall each on a 2-core
#: 2.1 GHz box, long enough for 20+ finalisations in every measurement window.
FULL: Dict[str, Size] = {
    "banyan_wan64": Size(6.0, 1.0),
    "banyan_slowpath64": Size(5.0, 1.0),
    "flood_wan256": Size(8.0),
    "clients_open4": Size(30.0, 2.0),
    "crypto_contended32": Size(30.0, 2.0),
    "cluster_tcp4": Size(8.0),
}

#: ``--quick``: shortened only as far as every workload still commits.
QUICK: Dict[str, Size] = {
    "banyan_wan64": Size(1.0, 0.2),
    "banyan_slowpath64": Size(1.2, 0.2),
    "flood_wan256": Size(0.3),
    "clients_open4": Size(3.0, 0.5),
    "crypto_contended32": Size(4.0, 0.5),
    "cluster_tcp4": Size(0.8),
}


class Stopwatch:
    """Marks the end of set-up and the timed region of one child run.

    Args:
        spawned_at: the parent's ``time.monotonic()`` just before it
            spawned this process (system-wide clock), so ``setup_s`` covers
            interpreter start and imports.
        profiler: a ``cProfile.Profile`` to enable over the timed region
            (the traced run), or ``None``.
    """

    def __init__(self, spawned_at: float, profiler=None) -> None:
        self.spawned_at = spawned_at
        self.profiler = profiler
        self.setup_s = 0.0
        #: The timed region as measured, and the part of it the run was
        #: busy for (they differ only where a run starts with an idle lead).
        self.region_s = 0.0
        self.wall_s = 0.0
        self.peak_rss_mb = 0.0
        self._started = 0.0

    def start(self) -> None:
        self.setup_s = time.monotonic() - self.spawned_at
        if self.profiler is not None:
            self.profiler.enable()
        self._started = time.perf_counter()

    def stop(self) -> None:
        self.region_s = self.wall_s = time.perf_counter() - self._started
        if self.profiler is not None:
            self.profiler.disable()
        # Read before verification allocates: the peak is the run's own.
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# Simulator workloads built on run_experiment
# ---------------------------------------------------------------------- #


def _experiment_config(name: str, seed: int, size: Size):
    from repro.eval.experiment import ExperimentConfig
    from repro.net.topology import worldwide_datacenters
    from repro.protocols.base import ProtocolParams

    common = dict(duration=size.duration, warmup=size.warmup, seed=seed)
    if name in ("banyan_wan64", "banyan_slowpath64"):
        config = ExperimentConfig(
            "banyan", ProtocolParams(n=64, f=12, p=12, payload_size=1000),
            topology=worldwide_datacenters(64), latency_model="wan-matrix",
            **common,
        )
        if name == "banyan_slowpath64":
            # 13 > p: the n - p fast quorum never assembles.
            config.stragglers = 13
            config.straggler_delay = 0.5
        return config
    if name == "clients_open4":
        return ExperimentConfig(
            "banyan", ProtocolParams(n=4, f=1, p=0),
            workload=_recording_spec(seed), **common,
        )
    if name == "crypto_contended32":
        return ExperimentConfig(
            "banyan", ProtocolParams(n=32, f=6, p=6, payload_size=100_000),
            topology=worldwide_datacenters(32), latency_model="wan-matrix",
            compute="crypto", transport="contended", uplink_mbps=100.0,
            **common,
        )
    raise KeyError(name)


def _recording_spec(seed: int):
    """The open-loop client workload, keeping hold of the pool it builds so
    that per-transaction outcomes can be read after the run."""
    from repro.workload.spec import WorkloadSpec

    class RecordingSpec(WorkloadSpec):
        def build_pool(self):
            self.pool = super().build_pool()
            return self.pool

    return RecordingSpec(
        mode="open", arrival="poisson", rate=20_000.0, num_clients=64,
        tx_size=256, mempool_capacity=100_000, max_block_bytes=1_000_000,
        seed=seed,
    )


def _commit_digest(all_commits: Dict[int, list]) -> str:
    """sha256 over every replica's ``(block_id, commit_time, kind)`` sequence."""
    digest = hashlib.sha256()
    for replica_id in sorted(all_commits):
        for record in all_commits[replica_id]:
            digest.update(
                f"{replica_id}|{record.block.id}|{record.commit_time!r}|"
                f"{record.finalization_kind}\n".encode("ascii")
            )
    return digest.hexdigest()


def _invariant_failures(simulation, all_commits: Dict[int, list],
                        duration: float) -> List[str]:
    """Agreement, certified ancestry and fast-path soundness of a finished run."""
    from repro.chaos.invariants import InvariantChecker

    checker = InvariantChecker(simulation.replica_ids)
    records = [record for commits in all_commits.values() for record in commits]
    records.sort(key=lambda record: (record.commit_time, record.replica_id))
    for record in records:
        checker.on_commit(record)
    # An unreachable liveness deadline: short runs are judged on safety.
    checker.finalize(simulation, heal_time=0.0, liveness_bound=math.inf,
                     duration=duration)
    return [f"{v.invariant} at replica {v.replica}: {v.detail}"
            for v in checker.violations]


def _simulation_counts(simulation) -> Dict[str, float]:
    return {
        "messages_sent": simulation.messages_sent,
        "messages_delivered": simulation.messages_delivered,
        "messages_dropped": simulation.messages_dropped,
        "bytes_sent": simulation.bytes_sent,
    }


def _numeric(stats: Dict[str, object]) -> Dict[str, float]:
    """The numeric entries of a ``*_stats()`` snapshot (JSON-ready)."""
    return {key: value for key, value in stats.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)}


def _simulation_snapshots(simulation, duration: float) -> Dict[str, Dict[str, float]]:
    compute = simulation.compute_stats()
    busy = compute.get("busy_s") or {}
    waits = compute.get("queue_wait_s") or {}
    return {
        "event_counts": simulation.event_counts(),
        "dispatch_counts": simulation.dispatch_counts(),
        "transport_stats": _numeric(simulation.transport_stats()),
        "compute": {
            "busy_frac_max": max(busy.values(), default=0.0) / duration,
            "queue_wait_sim_s": sum(waits.values()),
        },
    }


def _run_experiment_workload(name: str, seed: int, size: Size,
                             stopwatch: Stopwatch) -> Dict[str, object]:
    from repro.eval.experiment import run_experiment

    config = _experiment_config(name, seed, size)
    captured = {}

    def on_simulation(simulation) -> None:
        captured["simulation"] = simulation
        stopwatch.start()

    result = run_experiment(config, on_simulation=on_simulation)
    stopwatch.stop()
    simulation = captured["simulation"]
    wall = stopwatch.wall_s
    metrics = result.metrics
    all_commits = simulation.all_commits()
    commits = len(all_commits[0])  # the observer: lowest-id replica

    latencies = metrics.latencies()
    tail_value, tail_percentile, tail_samples = spec.tail(latencies)
    sim = {
        "sim_finalize_p50_ms": metrics.median_latency * 1000.0,
        "sim_finalize_tail_ms": tail_value * 1000.0,
        "sim_fast_path_ratio": metrics.fast_path_ratio,
    }
    counts = _simulation_counts(simulation)
    counts["commits"] = commits
    e2e = {
        "sim_s_per_wall_s": size.duration / wall,
        "deliveries_per_wall_s": simulation.messages_delivered / wall,
        "commits_per_wall_s": commits / wall,
    }
    failures = _invariant_failures(simulation, all_commits, size.duration)
    if not latencies:
        failures.append("no proposal finalised inside the measurement window")
    ops_attempted, ops_failed = 1, 0

    if result.workload is not None:
        pool = config.workload.pool
        records = pool.records()
        cutoff = size.duration - TX_DEADLINE_SIM_S
        ops_attempted = len(records)
        ops_failed = sum(
            1 for record in records
            if record.dropped
            or (record.commit_time is None and record.submit_time < cutoff)
        )
        sim["sim_tx_p50_ms"] = result.workload.p50_latency * 1000.0
        sim["sim_tx_p99_ms"] = result.workload.p99_latency * 1000.0
        e2e["tx_per_wall_s"] = pool.committed / wall
        counts.update(
            submitted_tx=pool.submitted, committed_tx=pool.committed,
            dropped_tx=pool.dropped,
            peak_mempool_depth=result.workload.peak_mempool_depth,
        )

    return {
        "backend": simulation.scheduler_stats()["backend"],
        "sim_duration_s": size.duration,
        "counts": counts,
        "sim": sim,
        "tail": {"percentile": tail_percentile, "samples": tail_samples},
        "e2e": e2e,
        "digest": _commit_digest(all_commits),
        "snapshots": _simulation_snapshots(simulation, size.duration),
        "failures": failures,
        "ops_attempted": ops_attempted,
        "ops_failed": ops_failed,
    }


# ---------------------------------------------------------------------- #
# flood_wan256
# ---------------------------------------------------------------------- #


def _run_flood(seed: int, size: Size, stopwatch: Stopwatch) -> Dict[str, object]:
    from benchmarks.e2e.flood import FloodProtocol
    from repro.net.faults import FaultPlan
    from repro.net.latency import WanMatrixLatency
    from repro.net.topology import worldwide_datacenters
    from repro.protocols.base import ProtocolParams
    from repro.runtime.simulator import NetworkConfig, Simulation

    n = 256
    params = ProtocolParams(n=n, f=0, p=0)
    protocols = {i: FloodProtocol(i, params) for i in range(n)}
    network = NetworkConfig(
        latency=WanMatrixLatency(worldwide_datacenters(n)),
        faults=FaultPlan.none(), seed=seed, scheduler="auto",
    )
    simulation = Simulation(protocols, network)
    stopwatch.start()
    simulation.run(until=size.duration)
    stopwatch.stop()

    fires = [protocols[i].timer_fires for i in range(n)]
    failures = []
    if simulation.messages_delivered <= 0 or min(fires) <= 0:
        failures.append("flood delivered nothing")
    if simulation.messages_dropped:
        failures.append(f"{simulation.messages_dropped} copies dropped on a fault-free run")
    counts = _simulation_counts(simulation)
    counts["commits"] = 0
    return {
        "backend": simulation.scheduler_stats()["backend"],
        "sim_duration_s": size.duration,
        "counts": counts,
        "sim": {},
        "e2e": {
            "sim_s_per_wall_s": size.duration / stopwatch.wall_s,
            "deliveries_per_wall_s": simulation.messages_delivered / stopwatch.wall_s,
        },
        # No commits to digest: pin the per-replica timer schedule instead.
        "digest": hashlib.sha256(json.dumps(fires).encode("ascii")).hexdigest(),
        "snapshots": _simulation_snapshots(simulation, size.duration),
        "failures": failures,
        "ops_attempted": 1,
        "ops_failed": 0,
    }


# ---------------------------------------------------------------------- #
# cluster_tcp4
# ---------------------------------------------------------------------- #


def _run_cluster(seed: int, size: Size, stopwatch: Stopwatch) -> Dict[str, object]:
    from repro.cluster.harness import LocalCluster, cross_validate
    from repro.cluster.node import ClusterNode

    n = 4
    log_dir = WORK_DIR / f"cluster-{os.getpid()}"
    try:
        # The harness's own cluster description (ports, node configs, log
        # paths, log parsing) — but its nodes run here, gathered on one
        # event loop, instead of as four processes fighting over two cores.
        cluster = LocalCluster(
            "banyan", n, duration=size.duration, log_dir=log_dir, f=1, p=0,
            rank_delay=0.05, round_timeout=1.0, payload_size=1000, seed=seed,
        )
        start_at = time.time() + CLUSTER_START_LEAD_S
        nodes: List[ClusterNode] = []
        for handle in cluster.replicas.values():
            handle.config.start_at = start_at
            nodes.append(ClusterNode(handle.config))

        async def serve() -> List[int]:
            return await asyncio.gather(*(node.run() for node in nodes))

        stopwatch.start()
        lead = max(0.0, start_at - time.time())
        exit_codes = asyncio.run(serve())
        stopwatch.stop()
        stopwatch.wall_s -= lead
        records, errors = cluster.commit_records()
    finally:
        shutil.rmtree(log_dir, ignore_errors=True)

    wall = stopwatch.wall_s
    tcp: Dict[str, int] = {}
    for node in nodes:
        for key, value in node.transport.stats.items():
            tcp[key] = tcp.get(key, 0) + value
    commits = sum(1 for record in records if record.replica_id == 0)

    violations = cross_validate(
        records, n=n, schedule=cluster.schedule, duration=size.duration,
        liveness_bound=size.duration, errors=errors,
    )
    failures = [f"{v.invariant} at replica {v.replica}: {v.detail}"
                for v in violations]
    if any(exit_codes):
        failures.append(f"node exit codes {exit_codes}")
    if commits <= 0:
        failures.append("replica 0 committed nothing")
    if tcp["dropped_backpressure"]:
        failures.append(f"{tcp['dropped_backpressure']} frames dropped to backpressure")

    return {
        "backend": "asyncio",
        "sim_duration_s": size.duration,
        "counts": {
            "messages_sent": tcp["sent_frames"],
            "messages_delivered": tcp["recv_frames"],
            "messages_dropped": tcp["dropped_fault"] + tcp["dropped_backpressure"],
            "bytes_sent": tcp["sent_bytes"],
            "commits": commits,
        },
        "sim": {},
        "e2e": {
            "sim_s_per_wall_s": size.duration / wall,
            "deliveries_per_wall_s": tcp["recv_frames"] / wall,
            "commits_per_wall_s": commits / wall,
        },
        "digest": "",  # real timers: the schedule does not repeat
        "snapshots": {"tcp": tcp},
        "failures": failures,
        "ops_attempted": 1,
        "ops_failed": 0,
    }


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #

_RUNNERS: Dict[str, Callable[[int, Size, Stopwatch], Dict[str, object]]] = {
    "flood_wan256": _run_flood,
    "cluster_tcp4": _run_cluster,
}


def run(name: str, seed: int, quick: bool, stopwatch: Stopwatch) -> Dict[str, object]:
    """One measured run of workload ``name``; returns its result dictionary.

    The result's ``e2e`` holds the end-to-end metrics that apply to the
    workload, ``sim`` its exact simulated outputs, ``failures`` every
    verification failure (a run with any is a failed operation).
    """
    if name not in spec.WORKLOADS:
        raise KeyError(f"unknown workload {name!r}")
    size = (QUICK if quick else FULL)[name]
    runner = _RUNNERS.get(name)
    if runner is not None:
        result = runner(seed, size, stopwatch)
    else:
        result = _run_experiment_workload(name, seed, size, stopwatch)
    result["e2e"].update(result["sim"])
    result["e2e"]["setup_s"] = stopwatch.setup_s
    result["e2e"]["peak_rss_mb"] = stopwatch.peak_rss_mb
    if result["failures"]:
        # The run's outputs cannot be trusted: every operation in it failed.
        result["ops_failed"] = result["ops_attempted"]
    result.update(workload=name, seed=seed, quick=quick,
                  setup_s=stopwatch.setup_s, wall_s=stopwatch.wall_s,
                  region_s=stopwatch.region_s)
    return result
