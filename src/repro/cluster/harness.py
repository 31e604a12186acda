"""Local cluster harness: run the simulator's run description on real
processes, load them, judge them.

This is the orchestration layer behind ``banyan-repro cluster``:

* :class:`LocalCluster` spawns one ``python -m repro.cluster.node`` process
  per replica on localhost, each with its own config file, commit log and
  summary file, and can SIGKILL / restart individual replicas mid-run.
* One asyncio client sends the open-loop schedule :func:`send_schedule`
  draws from a :class:`repro.workload.spec.WorkloadSpec` — the stamps, tx
  ids, client labels and replicas the simulator's
  :class:`repro.workload.clients.ClientPool` submits — as ``ClientSubmit``
  frames, sleeping until each stamp on the nodes' epoch clock.
* :func:`cross_validate` replays the harvested commit logs through the
  *simulator's* :class:`repro.chaos.invariants.InvariantChecker`: agreement,
  certified ancestry, fast-path soundness and the healed-network liveness
  rule.  Commit logs store every content-addressed block field, so the
  rebuilt blocks hash to the ids the replicas actually certified.
* :func:`run_local_cluster` runs an
  :class:`repro.eval.experiment.ExperimentConfig` and returns the
  simulator's :class:`repro.eval.experiment.ExperimentResult`: run metrics
  from the observer's log, and client metrics in which a transaction
  commits at its first commit at any replica.  The experiment layer loads
  numpy and the simulator, so only that call imports it.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import math
import os
import random
import signal
import socket
import subprocess
import sys
import tempfile
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.chaos.invariants import (
    InvariantChecker, Violation, liveness_bound as default_liveness_bound)
from repro.chaos.schedule import ChaosSchedule
from repro.cluster.node import NodeConfig
from repro.cluster.wire import ClientSubmit, Hello, encode_frame
from repro.net.faults import FaultPlan
from repro.protocols.base import ProtocolParams
from repro.smr.metrics import MetricsCollector, OccupancySample, RunMetrics, WorkloadMetrics
from repro.types.blocks import Block
from repro.types.commits import CommitRecord
from repro.workload.transactions import encode_transaction, split_transactions

if TYPE_CHECKING:
    from repro.eval.experiment import ExperimentConfig, ExperimentResult
    from repro.workload.spec import WorkloadSpec

#: Wall-clock lead the harness gives nodes to import, bind sockets and
#: connect before the coordinated protocol start.  Four interpreters on two
#: cores need about a second; a node that boots late starts its epoch
#: clock late, and Streamlet (epochs of one ``rank_delay``) then never sees
#: three consecutive epochs notarized.
DEFAULT_START_DELAY_S = 2.0

#: Extra wall-clock slack allowed for a node process to exit after its
#: protocol horizon elapsed.
SHUTDOWN_GRACE_S = 20.0

def pick_free_ports(count: int) -> List[int]:
    """Reserve ``count`` distinct free TCP ports on localhost."""
    sockets = []
    try:
        for _ in range(count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind(("127.0.0.1", 0))
            sockets.append(sock)
        return [sock.getsockname()[1] for sock in sockets]
    finally:
        for sock in sockets:
            sock.close()


def local_peers(n: int, base_port: Optional[int] = None) -> Dict[int, Tuple[str, int]]:
    """Replica id → localhost address: ports ``base_port + id``, or free
    ports the OS picks when ``base_port`` is ``None``."""
    ports = pick_free_ports(n) if base_port is None else [base_port + rid for rid in range(n)]
    return {rid: ("127.0.0.1", ports[rid]) for rid in range(n)}


def fault_bounds(n: int, f: Optional[int] = None,
                 p: Optional[int] = None) -> Tuple[int, int]:
    """``(f, p)`` with the cluster defaults filled in: the largest sound
    ``f`` for ``n``, and ``p = max(1, f)``."""
    f = (n - 1) // 3 if f is None else f
    return f, (max(1, f) if p is None else p)


@dataclass
class ReplicaHandle:
    """One spawned replica process and its on-disk artifacts."""

    replica_id: int
    config: NodeConfig
    config_path: Path
    commit_log: Path
    summary_path: Path
    stdio_path: Path
    process: Optional[subprocess.Popen] = None
    kills: int = 0


class LocalCluster:
    """An n-replica cluster of real processes on localhost.

    Args:
        protocol: registered protocol name.
        n: replica count.
        duration: protocol-time horizon each node runs for.
        log_dir: directory for configs, commit logs, summaries, stdio.
        seed: base seed (fault RNGs).
        schedule: optional chaos schedule replayed at the socket layer.
        start_delay: wall-clock lead before the coordinated start.
        base_port: first port of a contiguous range; ``None`` asks the OS
            for free ports.
        workload: the client workload whose ``max_block_bytes`` and
            ``mempool_capacity`` size the nodes' mempools and whose
            ``sample_interval`` paces their occupancy samples; ``None``
            keeps :class:`NodeConfig`'s defaults (no samples).
        params: the other :class:`ProtocolParams` fields; ``f`` and ``p``
            default as :func:`fault_bounds` says.
    """

    def __init__(
        self,
        protocol: str,
        n: int,
        *,
        duration: float,
        log_dir: Path,
        seed: int = 0,
        schedule: Optional[ChaosSchedule] = None,
        start_delay: float = DEFAULT_START_DELAY_S,
        base_port: Optional[int] = None,
        workload: Optional[WorkloadSpec] = None,
        **params: object,
    ) -> None:
        f, p = fault_bounds(n, params.pop("f", None), params.pop("p", None))
        protocol_params = ProtocolParams(n=n, f=f, p=p, seed=seed, **params)
        mempool = {} if workload is None else {
            "max_block_bytes": workload.max_block_bytes,
            "mempool_capacity": workload.mempool_capacity,
            "sample_interval": workload.sample_interval}
        self.duration = duration
        self.log_dir = Path(log_dir)
        self.schedule = schedule or ChaosSchedule()
        self.start_delay = start_delay
        self.start_at: float = 0.0
        self.peers = local_peers(n, base_port)
        # Every NodeConfig checks itself here, before anything is spawned.
        self.replicas: Dict[int, ReplicaHandle] = {}
        for rid in range(n):
            commit_log = self.log_dir / f"replica-{rid}.commits.jsonl"
            summary = self.log_dir / f"replica-{rid}.summary.json"
            stdio = self.log_dir / f"replica-{rid}.stdio.log"
            config = NodeConfig(
                replica_id=rid,
                protocol=protocol,
                params=protocol_params,
                peers=self.peers,
                duration=duration,
                commit_log=str(commit_log),
                summary_path=str(summary),
                schedule=self.schedule.to_dict() if len(self.schedule) else None,
                **mempool,
            )
            self.replicas[rid] = ReplicaHandle(
                replica_id=rid, config=config,
                config_path=self.log_dir / f"replica-{rid}.config.json",
                commit_log=commit_log, summary_path=summary, stdio_path=stdio,
            )
        self.log_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ #
    # Process control
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Write configs and spawn every replica with a shared start instant."""
        self.start_at = time.time() + self.start_delay
        for handle in self.replicas.values():
            handle.config.start_at = self.start_at
            handle.config_path.write_text(
                json.dumps(handle.config.to_dict(), indent=2) + "\n",
                encoding="utf-8")
        for handle in self.replicas.values():
            self._spawn(handle)

    def _spawn(self, handle: ReplicaHandle) -> None:
        src_dir = str(Path(__file__).resolve().parents[2])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        stdio = open(handle.stdio_path, "a", encoding="utf-8")
        try:
            handle.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cluster.node",
                 "--config", str(handle.config_path)],
                stdout=stdio, stderr=subprocess.STDOUT, env=env,
            )
        finally:
            stdio.close()

    def kill(self, replica_id: int) -> None:
        """SIGKILL one replica process (a *real* crash, not a simulated one)."""
        handle = self.replicas[replica_id]
        if handle.process is not None and handle.process.poll() is None:
            handle.process.send_signal(signal.SIGKILL)
            handle.process.wait()
        handle.kills += 1

    def restart(self, replica_id: int) -> None:
        """Respawn a killed replica with its original config.

        The restarted process re-derives the cluster epoch from the
        ``start_at`` already in the past, so its clock and fault windows
        stay aligned with the survivors; its protocol state starts fresh.
        """
        self._spawn(self.replicas[replica_id])

    def wait(self, timeout: Optional[float] = None) -> Dict[int, int]:
        """Wait for every process to exit; returns replica id → exit code.

        Processes still alive at the deadline are SIGKILLed and reported
        with their (negative) signal code.
        """
        if timeout is None:
            timeout = (self.start_at - time.time()) + self.duration + SHUTDOWN_GRACE_S
        deadline = time.time() + timeout
        codes: Dict[int, int] = {}
        for rid, handle in sorted(self.replicas.items()):
            if handle.process is None:
                continue
            remaining = max(0.0, deadline - time.time())
            try:
                codes[rid] = handle.process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                handle.process.send_signal(signal.SIGKILL)
                codes[rid] = handle.process.wait()
        return codes

    def stop(self) -> None:
        """Terminate any replica processes still running."""
        for handle in self.replicas.values():
            if handle.process is not None and handle.process.poll() is None:
                handle.process.terminate()
                try:
                    handle.process.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    handle.process.send_signal(signal.SIGKILL)
                    handle.process.wait()

    # ------------------------------------------------------------------ #
    # Harvest
    # ------------------------------------------------------------------ #

    def commit_records(self) -> Tuple[List[CommitRecord], List[Dict[str, object]]]:
        """Parse all commit logs into simulator-shaped records.

        Returns ``(records, errors)``: records sorted by commit time, and
        any ``error`` lines nodes wrote (protocol exceptions in a real run).
        Blocks are rebuilt from their logged fields; ids are recomputed
        from content, so invariant checks operate on the real chains.
        """
        records, errors, _ = self.read_commit_logs()
        return records, errors

    def read_commit_logs(self) -> Tuple[List[CommitRecord], List[Dict[str, object]],
                                        Dict[int, Dict[str, float]]]:
        """:meth:`commit_records` plus the proposal times the logs carry:
        replica id → block id → ``proposed_at`` of each own block the
        replica committed (the metrics pipeline's latency input)."""
        records: List[CommitRecord] = []
        errors: List[Dict[str, object]] = []
        proposal_times: Dict[int, Dict[str, float]] = {}
        for handle in self.replicas.values():
            if not handle.commit_log.exists():
                continue
            with open(handle.commit_log, "r", encoding="utf-8") as lines:
                for line in lines:
                    line = line.strip()
                    if not line:
                        continue
                    entry = json.loads(line)
                    if entry.get("type") == "error":
                        errors.append(entry)
                        continue
                    if entry.get("type") != "commit":
                        continue
                    block = Block(
                        round=int(entry["round"]),
                        proposer=int(entry["proposer"]),
                        rank=int(entry["rank"]),
                        parent_id=entry["parent_id"],
                        payload=bytes.fromhex(entry["payload"]),
                        payload_size=int(entry["payload_size"]),
                    )
                    replica = int(entry["replica"])
                    records.append(CommitRecord(
                        replica_id=replica,
                        block=block,
                        commit_time=float(entry["t"]),
                        finalization_kind=str(entry["kind"]),
                    ))
                    if "proposed_at" in entry:
                        proposal_times.setdefault(replica, {})[block.id] = float(
                            entry["proposed_at"])
        records.sort(key=lambda record: (record.commit_time, record.replica_id))
        return records, errors, proposal_times

    def summaries(self) -> Dict[int, Dict[str, object]]:
        """Load every replica's end-of-run summary (missing files skipped)."""
        out: Dict[int, Dict[str, object]] = {}
        for rid, handle in sorted(self.replicas.items()):
            if handle.summary_path.exists():
                with open(handle.summary_path, "r", encoding="utf-8") as fh:
                    out[rid] = json.load(fh)
        return out


# ---------------------------------------------------------------------- #
# Workload client
# ---------------------------------------------------------------------- #


def send_schedule(spec: WorkloadSpec, n: int,
                  horizon: float) -> List[Tuple[float, int, int, int]]:
    """The open-loop client's sends: ``(stamp, tx id, client, replica)``.

    The same list a :class:`repro.workload.clients.ClientPool` of ``spec``
    submits into an n-replica simulation that runs until ``horizon``: the
    arrivals drawn from ``random.Random(spec.seed)`` from time 0, tx ``i``
    labelled client ``i mod num_clients`` and sent to replica ``i mod n``.
    """
    rng = random.Random(spec.seed)
    arrivals = spec.build_arrivals()
    stamps, _ = arrivals.arrivals_until(arrivals.next_interarrival(0.0, rng),
                                        horizon, rng)
    return [(stamp, tx_id, tx_id % spec.num_clients, tx_id % n)
            for tx_id, stamp in enumerate(stamps)]


async def _send(sends: List[Tuple[float, int, int, int]],
                peers: Dict[int, Tuple[str, int]], tx_size: int,
                start_at: float) -> List[int]:
    """Send each transaction of ``sends`` at its stamp; returns the ids that
    no connection took.

    Stamps are on the nodes' epoch clock: monotonic seconds since
    ``start_at``, translated once, as each node does.  The client sleeps
    until a stamp, never for a gap, so time spent sending (or waiting on a
    full socket buffer) is not added to the schedule.
    """
    loop = asyncio.get_running_loop()
    epoch = loop.time() + (start_at - time.time())
    writers: Dict[int, asyncio.StreamWriter] = {}
    failed: List[int] = []
    try:
        for stamp, tx_id, client, replica in sends:
            delay = epoch + stamp - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            frame = encode_frame(-1 - client, ClientSubmit(
                encode_transaction(tx_id, client, tx_size), client_id=client))
            try:
                writer = writers.get(replica)
                if writer is None:
                    _, writer = await asyncio.open_connection(*peers[replica])
                    writer.write(encode_frame(-1, Hello(sender=-1, role="client")))
                    writers[replica] = writer
                writer.write(frame)
                await writer.drain()
            except (ConnectionError, OSError):
                # Replica down (crash window / SIGKILL): the transaction is
                # dropped, and the replica's next one reconnects.
                failed.append(tx_id)
                if replica in writers:
                    writers.pop(replica).close()
    finally:
        for writer in writers.values():
            writer.close()
    return failed


def _client_metrics(config: ExperimentConfig, sends: List[Tuple[float, int, int, int]],
                    failed: List[int], records: List[CommitRecord],
                    summaries: Dict[int, Dict[str, object]]) -> WorkloadMetrics:
    """The clients' :class:`WorkloadMetrics`, from the same columns a
    :class:`repro.workload.clients.ClientPool` keeps.

    A transaction's commit time is its first commit at any replica
    (``records`` are sorted by commit time); a failed send that no block
    carries is a dropped transaction.  The nodes' mempool samples, taken
    on one epoch clock, merge by tick into one :class:`OccupancySample`
    each.
    """
    count, tx_size = len(sends), config.workload.tx_size
    commit_times = array("d", [math.nan]) * count
    for record in records:
        for tx_id, _ in split_transactions(record.block.payload):
            if 0 <= tx_id < count and math.isnan(commit_times[tx_id]):
                commit_times[tx_id] = record.commit_time
    return WorkloadMetrics.from_columns(
        array("d", [stamp for stamp, *_ in sends]), commit_times,
        array("I", [len(encode_transaction(tx_id, client, tx_size))
                    for _, tx_id, client, _ in sends]),
        [tx_id for tx_id in failed if math.isnan(commit_times[tx_id])],
        _occupancy(config.workload.sample_interval, summaries),
        config.duration - config.warmup, config.warmup)


def _occupancy(interval: float,
               summaries: Dict[int, Dict[str, object]]) -> List[OccupancySample]:
    """The nodes' ``(tick, transactions, bytes)`` samples, one
    :class:`OccupancySample` per tick, at ``tick * interval``."""
    ticks: Dict[int, Dict[int, Tuple[int, int]]] = {}
    for rid, summary in sorted(summaries.items()):
        for tick, transactions, size in summary.get("occupancy", ()):
            ticks.setdefault(tick, {})[rid] = (transactions, size)
    return [OccupancySample(time=tick * interval,
                            transactions=sum(count for count, _ in by_replica.values()),
                            total_bytes=sum(size for _, size in by_replica.values()),
                            per_replica={rid: count for rid, (count, _) in by_replica.items()})
            for tick, by_replica in sorted(ticks.items())]


# ---------------------------------------------------------------------- #
# Cross-validation and metrics
# ---------------------------------------------------------------------- #


def cross_validate(
    records: Iterable[CommitRecord],
    *,
    n: int,
    schedule: ChaosSchedule,
    duration: float,
    liveness_bound: float,
    errors: Iterable[Dict[str, object]] = (),
    exclude: Iterable[int] = (),
    summaries: Optional[Dict[int, Dict[str, object]]] = None,
) -> List[Violation]:
    """Judge a real cluster's commit logs with the simulator's invariants.

    The online checks (agreement, round-agreement, certified ancestry,
    fast-path soundness) replay the merged commit stream through
    :class:`InvariantChecker` exactly as the chaos engine wires it into a
    simulation, and the checker judges bounded liveness by the engine's
    own rule: once every timed fault healed, each eligible replica —
    honest, never crash-faulted, not ``exclude``-d (e.g. a
    SIGKILLed-and-restarted process, whose fresh chain legitimately
    restarts from genesis) — must commit within the bound.  Loss-burst
    schedules are safety-only, as in the simulator.

    ``summaries`` (replica id → end-of-run node summary) adds the transport's
    own verdict: a frame a node could not decode, or one it dropped because
    a peer's queue overflowed, is a ``transport`` violation of that node —
    no schedule asks for either, a SIGKILLed (``exclude``-d) peer aside.
    """
    exclude = set(exclude)
    byzantine = set(schedule.byzantine()) | exclude
    checker = InvariantChecker(range(n), byzantine=byzantine)
    for record in records:
        checker.on_commit(record)
    checker.check_liveness(
        schedule.heal_time(), liveness_bound, duration,
        checker.liveness_eligible(schedule, liveness_bound, duration))
    violations = list(checker.violations)
    for entry in errors:
        violations.append(Violation(
            invariant="execution-error",
            time=float(entry.get("t", duration)),
            replica=int(entry.get("replica", -1)),
            detail=str(entry.get("detail", "protocol raised")),
        ))

    # Frames queued for a killed (excluded) process have nowhere to go.
    counters = ("decode_errors",) if exclude else ("decode_errors", "dropped_backpressure")
    for replica, summary in sorted((summaries or {}).items()):
        stats = summary.get("transport", {})
        for counter in counters:
            if stats.get(counter):
                violations.append(Violation(
                    invariant="transport", time=duration, replica=replica,
                    detail=f"{counter} = {stats[counter]}"))

    return violations


def _run_metrics(config: ExperimentConfig, records: List[CommitRecord],
                 proposal_times: Dict[int, Dict[str, float]]) -> RunMetrics:
    """Feed real commit logs through the simulator's metrics pipeline; the
    observer is ``config.observer``, else replica 0."""
    collector = MetricsCollector(config.resolved_label(), warmup=config.warmup,
                                 observer=config.observer or 0)
    for record in records:
        collector.on_commit(record)
    return collector.finalize(max(config.duration - config.warmup, 1e-9), proposal_times)


# ---------------------------------------------------------------------- #
# One-call orchestration
# ---------------------------------------------------------------------- #


#: :class:`ExperimentConfig` fields only the simulator can honour; the
#: cluster refuses any of them away from its default.
_SIMULATOR_ONLY = ("topology", "latency", "latency_model", "transport",
                   "uplink_mbps", "relays", "compute", "compute_scale",
                   "scheduler", "stragglers", "straggler_delay")


def check_cluster_config(config: ExperimentConfig,
                         base_port: Optional[int] = None,
                         schedule: Optional[ChaosSchedule] = None) -> None:
    """Raise a one-line ``ValueError`` unless the cluster can run ``config``
    as the simulator would: no simulator-only setting, no fault plan (the
    cluster's fault input is a chaos ``schedule``), an open-loop workload
    without a mempool byte limit, and node configs that check out, the
    schedule's Byzantine plants included."""
    defaults = {field.name: field.default for field in dataclasses.fields(config)}
    for name in _SIMULATOR_ONLY:
        if getattr(config, name) != defaults[name]:
            raise ValueError(f"the cluster cannot run {name}="
                             f"{getattr(config, name)!r}: only the simulator can")
    if config.faults.to_dict() != FaultPlan.none().to_dict():
        raise ValueError("the cluster takes its faults as a chaos schedule, "
                         "not as a fault plan")
    workload = config.workload
    if workload is not None and workload.mode != "open":
        raise ValueError(f"the cluster cannot run {workload.mode}-loop clients: "
                         "its client is open-loop")
    if workload is not None and workload.mempool_max_bytes is not None:
        raise ValueError("the cluster cannot run mempool_max_bytes: its "
                         "mempools limit transactions only")
    NodeConfig(replica_id=0, protocol=config.protocol, params=config.params,
               peers=local_peers(config.params.n, base_port),
               schedule=schedule.to_dict() if schedule else None)


@dataclass
class ClusterResult:
    """Everything one real-cluster run produced.

    ``experiment`` is the run as the simulator reports it; its message and
    byte counts are the nodes' transport counters (``sent_frames``,
    ``sent_bytes``).
    """

    experiment: ExperimentResult
    exit_codes: Dict[int, int]
    records: List[CommitRecord]
    violations: List[Violation]
    summaries: Dict[int, Dict[str, object]]
    log_dir: Path

    @property
    def committed_blocks(self) -> int:
        return self.experiment.metrics.committed_blocks


def run_local_cluster(
    config: ExperimentConfig,
    *,
    schedule: Optional[ChaosSchedule] = None,
    liveness_bound: Optional[float] = None,
    check_invariants: bool = True,
    log_dir: Optional[Path] = None,
    base_port: Optional[int] = None,
    exclude: Iterable[int] = (),
) -> ClusterResult:
    """Run ``config`` on a real local cluster and judge it.

    Spawns the cluster, drives ``config.workload`` (if any) with the
    open-loop client, waits for the horizon, then harvests the commit logs
    into an :class:`ExperimentResult` and (when ``check_invariants``)
    cross-validates the real committed sequences against the simulator's
    invariant checker.  ``config.seed`` seeds the nodes.

    Raises:
        ValueError: from :func:`check_cluster_config`, before any node is
            spawned.
    """
    # Imported here: the experiment layer loads numpy and the simulator.
    from repro.eval.experiment import ExperimentResult

    check_cluster_config(config, base_port, schedule)
    params = dataclasses.asdict(config.params)
    n, workload = params.pop("n"), config.workload
    del params["seed"]
    schedule = schedule or ChaosSchedule()
    if log_dir is None:
        log_dir = Path(tempfile.mkdtemp(prefix=f"banyan-cluster-{config.protocol}-"))
    if liveness_bound is None:
        liveness_bound = default_liveness_bound(
            n, config.params.rank_delay, config.params.round_timeout)
    cluster = LocalCluster(
        config.protocol, n, duration=config.duration, log_dir=log_dir,
        seed=config.seed, schedule=schedule, base_port=base_port,
        workload=workload, **params)
    sends = [] if workload is None else send_schedule(workload, n, config.duration)
    cluster.start()
    try:
        failed = asyncio.run(_send(sends, cluster.peers, workload.tx_size,
                                   cluster.start_at)) if sends else []
        exit_codes = cluster.wait()
    finally:
        cluster.stop()
    records, errors, proposal_times = cluster.read_commit_logs()
    summaries = cluster.summaries()
    violations: List[Violation] = []
    if check_invariants:
        violations = cross_validate(
            records, n=n, schedule=schedule, duration=config.duration,
            liveness_bound=liveness_bound, errors=errors, exclude=exclude,
            summaries=summaries,
        )
    sent = [summary.get("transport", {}) for summary in summaries.values()]
    experiment = ExperimentResult(
        config, _run_metrics(config, records, proposal_times),
        messages_sent=sum(stats.get("sent_frames", 0) for stats in sent),
        bytes_sent=sum(stats.get("sent_bytes", 0) for stats in sent),
        workload=(None if workload is None
                  else _client_metrics(config, sends, failed, records, summaries)))
    return ClusterResult(
        experiment=experiment, exit_codes=exit_codes, records=records,
        violations=violations, summaries=summaries, log_dir=log_dir,
    )
