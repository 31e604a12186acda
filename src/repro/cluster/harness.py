"""Local cluster harness: spawn real replica processes, load them, judge them.

This is the orchestration layer behind ``banyan-repro cluster``:

* :class:`LocalCluster` spawns one ``python -m repro.cluster.node`` process
  per replica on localhost, each with its own config file, commit log and
  summary file, and can SIGKILL / restart individual replicas mid-run.
* :func:`run_workload` drives open-loop Poisson clients over the same wire
  protocol the replicas speak (``ClientSubmit`` frames), assigning each
  transaction to one replica round-robin so blocks carry real client bytes.
* :func:`cross_validate` replays the harvested commit logs through the
  *simulator's* :class:`repro.chaos.invariants.InvariantChecker` — the real
  cluster's committed sequences must satisfy the exact agreement /
  certified-ancestry / fast-path-soundness checks the chaos engine applies
  to simulated runs, plus the same healed-network liveness rule.  Commit
  logs store every content-addressed block field, so the reconstructed
  blocks hash to the ids the replicas actually certified; the checker is
  judging the real chains, not copies of a summary.
* :func:`run_local_cluster` ties it together and produces a
  :class:`ClusterResult` with :class:`repro.smr.metrics.RunMetrics`
  harvested from the observer replica's log — the same report machinery
  the simulator feeds.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import signal
import socket
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.chaos.invariants import InvariantChecker, Violation
from repro.chaos.schedule import ChaosSchedule
from repro.cluster.node import NodeConfig
from repro.cluster.wire import ClientSubmit, Hello, encode_frame
from repro.smr.metrics import MetricsCollector, RunMetrics
from repro.types.blocks import Block
from repro.types.commits import CommitRecord
from repro.workload.transactions import encode_transaction, split_transactions

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
        n / f / p: replica count, fault bound, fast-path parameter.
        duration: protocol-time horizon each node runs for.
        log_dir: directory for configs, commit logs, summaries, stdio.
        rank_delay / round_timeout / payload_size: protocol parameters.
        seed: base seed (fault RNGs).
        schedule: optional chaos schedule replayed at the socket layer.
        start_delay: wall-clock lead before the coordinated start.
        max_block_bytes: per-proposal mempool drain budget.
        base_port: first port of a contiguous range; ``None`` asks the OS
            for free ports.
    """

    def __init__(
        self,
        protocol: str,
        n: int,
        *,
        duration: float,
        log_dir: Path,
        f: Optional[int] = None,
        p: Optional[int] = None,
        rank_delay: float = 0.05,
        round_timeout: float = 1.0,
        payload_size: int = 0,
        seed: int = 0,
        schedule: Optional[ChaosSchedule] = None,
        start_delay: float = DEFAULT_START_DELAY_S,
        max_block_bytes: int = 65_536,
        base_port: Optional[int] = None,
    ) -> None:
        self.protocol = protocol
        self.n = n
        self.f, self.p = fault_bounds(n, f, p)
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
                n=n, f=self.f, p=self.p,
                peers=self.peers,
                seed=seed,
                rank_delay=rank_delay,
                round_timeout=round_timeout,
                payload_size=payload_size,
                duration=duration,
                commit_log=str(commit_log),
                summary_path=str(summary),
                schedule=self.schedule.to_dict() if len(self.schedule) else None,
                max_block_bytes=max_block_bytes,
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
        records: List[CommitRecord] = []
        errors: List[Dict[str, object]] = []
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
                    records.append(CommitRecord(
                        replica_id=int(entry["replica"]),
                        block=block,
                        commit_time=float(entry["t"]),
                        finalization_kind=str(entry["kind"]),
                    ))
        records.sort(key=lambda record: (record.commit_time, record.replica_id))
        return records, errors

    def summaries(self) -> Dict[int, Dict[str, object]]:
        """Load every replica's end-of-run summary (missing files skipped)."""
        out: Dict[int, Dict[str, object]] = {}
        for rid, handle in sorted(self.replicas.items()):
            if handle.summary_path.exists():
                with open(handle.summary_path, "r", encoding="utf-8") as fh:
                    out[rid] = json.load(fh)
        return out


# ---------------------------------------------------------------------- #
# Workload clients
# ---------------------------------------------------------------------- #


@dataclass
class WorkloadResult:
    """What the open-loop clients did and what happened to it.

    Attributes:
        submitted: transactions sent (tx id → epoch-time of submission).
        committed: tx id → epoch-time of first commit (observer replica).
        latencies: submit→commit seconds for every committed transaction.
    """

    submitted: Dict[int, float] = field(default_factory=dict)
    committed: Dict[int, float] = field(default_factory=dict)
    latencies: List[float] = field(default_factory=list)

    @property
    def commit_ratio(self) -> float:
        if not self.submitted:
            return 0.0
        return len(self.committed) / len(self.submitted)


async def _client_task(client_id: int, peers: Sequence[Tuple[str, int]],
                       rate: float, tx_size: float, start_at: float,
                       end_at: float, submitted: Dict[int, float],
                       seed: int) -> None:
    """One open-loop Poisson client: exponential gaps, round-robin targets.

    Open-loop means arrivals do not wait for commits — the schedule is
    fixed by the rate, so a slow cluster builds queueing delay instead of
    silently throttling the workload (the honest way to measure latency).
    """
    rng = random.Random((seed << 8) ^ client_id)
    writers: Dict[int, asyncio.StreamWriter] = {}
    tx_counter = 0
    target = 0
    delay = start_at - time.time()
    if delay > 0:
        await asyncio.sleep(delay)
    try:
        while time.time() < end_at:
            tx_id = client_id * 1_000_000 + tx_counter
            tx_counter += 1
            tx = encode_transaction(tx_id, client_id, int(tx_size))
            frame = encode_frame(-1 - client_id,
                                 ClientSubmit(transaction=tx,
                                              client_id=client_id))
            replica = target % len(peers)
            target += 1
            writer = writers.get(replica)
            try:
                if writer is None:
                    host, port = peers[replica]
                    _, writer = await asyncio.open_connection(host, port)
                    writer.write(encode_frame(-1 - client_id,
                                              Hello(sender=-1 - client_id,
                                                    role="client")))
                    writers[replica] = writer
                writer.write(frame)
                await writer.drain()
                submitted[tx_id] = time.time() - start_at
            except (ConnectionError, OSError):
                # Replica down (crash window / SIGKILL): drop the tx and
                # retry the connection on this client's next visit.
                stale = writers.pop(replica, None)
                if stale is not None:
                    try:
                        stale.close()
                    except Exception:
                        pass
            await asyncio.sleep(rng.expovariate(rate))
    finally:
        for writer in writers.values():
            try:
                writer.close()
            except Exception:
                pass


def run_workload(peers: Dict[int, Tuple[str, int]], *, rate: float,
                 tx_size: int, start_at: float, duration: float,
                 clients: int = 2, seed: int = 0) -> Dict[int, float]:
    """Run the open-loop clients until the horizon; returns submit times.

    ``rate`` is the aggregate transactions/second, split evenly over
    ``clients`` independent Poisson processes.

    Raises:
        ValueError: if ``tx_size`` is not positive.
    """
    if tx_size <= 0:
        raise ValueError(f"tx_size must be positive, got {tx_size}")
    submitted: Dict[int, float] = {}
    ordered = [peers[rid] for rid in sorted(peers)]
    per_client = max(rate / max(1, clients), 1e-9)
    end_at = start_at + duration

    async def _main() -> None:
        await asyncio.gather(*(
            _client_task(cid, ordered, per_client, tx_size, start_at,
                         end_at, submitted, seed)
            for cid in range(clients)
        ))

    asyncio.run(_main())
    return submitted


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
    simulation.  The liveness rule mirrors the engine: once every timed
    fault healed, each eligible replica — honest, never crash-faulted, not
    ``exclude``-d (e.g. a SIGKILLed-and-restarted process, whose fresh
    chain legitimately restarts from genesis) — must commit within the
    bound.  Loss-burst schedules are safety-only, as in the simulator.

    ``summaries`` (replica id → end-of-run node summary) adds the transport's
    own verdict: a frame a node could not decode, or one it dropped because
    a peer's queue overflowed, is a ``transport`` violation of that node —
    no schedule asks for either, a SIGKILLed (``exclude``-d) peer aside.
    """
    records = list(records)
    exclude = set(exclude)
    byzantine = set(schedule.byzantine()) | exclude
    checker = InvariantChecker(range(n), byzantine=byzantine)
    for record in records:
        checker.on_commit(record)
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

    heal_time = schedule.heal_time()
    crashed = set(schedule.crashed_replicas())
    lossy = any(fault.kind == "loss" for fault in schedule.faults)
    liveness_checkable = not lossy and heal_time + liveness_bound <= duration
    if liveness_checkable:
        last_commit: Dict[int, float] = {}
        for record in records:
            last_commit[record.replica_id] = max(
                last_commit.get(record.replica_id, 0.0), record.commit_time)
        for replica in checker.honest:
            if replica in crashed:
                continue
            last = last_commit.get(replica)
            if last is None or last <= heal_time:
                violations.append(Violation(
                    invariant="liveness",
                    time=duration,
                    replica=replica,
                    detail=(f"no commit after faults healed at {heal_time:g}s "
                            f"(bound {liveness_bound:g}s)"),
                ))
    return violations


def harvest_metrics(protocol: str, records: Iterable[CommitRecord],
                    summaries: Dict[int, Dict[str, object]], *,
                    duration: float, observer: int = 0) -> RunMetrics:
    """Feed real commit logs through the simulator's metrics pipeline."""
    collector = MetricsCollector(protocol, observer=observer)
    for record in records:
        collector.on_commit(record)
    proposal_times = {
        rid: {block_id: float(t)
              for block_id, t in summary.get("proposal_times", {}).items()}
        for rid, summary in summaries.items()
    }
    return collector.finalize(duration, proposal_times)


def workload_outcome(submitted: Dict[int, float],
                     records: Iterable[CommitRecord],
                     observer: int = 0) -> WorkloadResult:
    """Match submitted transactions against one replica's committed blocks."""
    result = WorkloadResult(submitted=dict(submitted))
    for record in records:
        if record.replica_id != observer:
            continue
        for tx_id, _client in split_transactions(record.block.payload):
            if tx_id in result.committed or tx_id not in result.submitted:
                continue
            result.committed[tx_id] = record.commit_time
            result.latencies.append(record.commit_time
                                    - result.submitted[tx_id])
    return result


# ---------------------------------------------------------------------- #
# One-call orchestration
# ---------------------------------------------------------------------- #


@dataclass
class ClusterResult:
    """Everything one real-cluster run produced."""

    protocol: str
    exit_codes: Dict[int, int]
    records: List[CommitRecord]
    violations: List[Violation]
    metrics: RunMetrics
    workload: WorkloadResult
    summaries: Dict[int, Dict[str, object]]
    log_dir: Path

    @property
    def committed_blocks(self) -> int:
        return self.metrics.committed_blocks

    @property
    def ok(self) -> bool:
        """Healthy run: at least one commit and no invariant violations."""
        return self.committed_blocks > 0 and not self.violations


def run_local_cluster(
    protocol: str,
    n: int = 4,
    *,
    duration: float = 10.0,
    f: Optional[int] = None,
    p: Optional[int] = None,
    rank_delay: float = 0.05,
    round_timeout: float = 1.0,
    payload_size: int = 0,
    seed: int = 0,
    rate: float = 0.0,
    tx_size: int = 128,
    clients: int = 2,
    schedule: Optional[ChaosSchedule] = None,
    liveness_bound: Optional[float] = None,
    check_invariants: bool = True,
    log_dir: Optional[Path] = None,
    base_port: Optional[int] = None,
    exclude: Iterable[int] = (),
) -> ClusterResult:
    """Run one full real-cluster experiment and judge it.

    Spawns the cluster, optionally drives an open-loop workload, waits for
    the horizon, then harvests commit logs into metrics, matches workload
    latencies, and (when ``check_invariants``) cross-validates the real
    committed sequences against the simulator's invariant checker.
    """
    schedule = schedule or ChaosSchedule()
    if log_dir is None:
        log_dir = Path(tempfile.mkdtemp(prefix=f"banyan-cluster-{protocol}-"))
    if liveness_bound is None:
        liveness_bound = round_timeout + 2 * n * rank_delay + 2.0
    cluster = LocalCluster(
        protocol, n, duration=duration, log_dir=log_dir, f=f, p=p,
        rank_delay=rank_delay, round_timeout=round_timeout,
        payload_size=payload_size, seed=seed, schedule=schedule,
        base_port=base_port,
    )
    cluster.start()
    submitted: Dict[int, float] = {}
    try:
        if rate > 0:
            submitted = run_workload(
                cluster.peers, rate=rate, tx_size=tx_size,
                start_at=cluster.start_at, duration=duration,
                clients=clients, seed=seed,
            )
        exit_codes = cluster.wait()
    finally:
        cluster.stop()
    records, errors = cluster.commit_records()
    summaries = cluster.summaries()
    violations: List[Violation] = []
    if check_invariants:
        violations = cross_validate(
            records, n=n, schedule=schedule, duration=duration,
            liveness_bound=liveness_bound, errors=errors, exclude=exclude,
            summaries=summaries,
        )
    metrics = harvest_metrics(protocol, records, summaries,
                              duration=duration)
    workload = workload_outcome(submitted, records)
    return ClusterResult(
        protocol=protocol, exit_codes=exit_codes, records=records,
        violations=violations, metrics=metrics, workload=workload,
        summaries=summaries, log_dir=log_dir,
    )
