"""One protocol replica as a real process over TCP.

``python -m repro.cluster.node --config node.json`` runs a single replica:
the same sans-io protocol object the simulator drives, served by a
:class:`repro.runtime.context.ReplicaContext` filled from the node: sends go
through :class:`repro.cluster.tcp_transport.TcpTransport`, timers are
monotonic-clock ``call_later`` callbacks, and commits append to a JSONL
commit log the harness harvests after the run (a loop turn's lines
are written and flushed together; an error line at once).

**Clocks.**  All replicas share a *cluster epoch*: the coordinated start
instant (``start_at``, unix time) the harness writes into every node
config.  ``ReplicaContext.now()`` returns monotonic seconds since that
epoch — wall-clock adjustments cannot move protocol time backwards, and
fault-schedule windows line up across processes.

**Fault replay.**  A chaos schedule in the config is interpreted at the
socket layer (:class:`repro.cluster.faults.SocketFaultInjector`) and at
the dispatch layer: while this replica is inside one of its own crash
windows, inbound messages and timers are discarded — matching the
simulator's semantics, where a crashed replica executes nothing and loses
the timers that came due while it was down.  A replica crashed at time 0
with a recovery boots late, exactly like the simulator.  Byzantine plants
in the schedule swap in the same misbehaving replica factories the chaos
engine uses.

**Workload.**  Clients submit transactions as
:class:`repro.cluster.wire.ClientSubmit` frames; they land in a local
mempool drained into proposals by :class:`MempoolSource`, so committed
payloads carry real client bytes end-to-end.
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import sys
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from repro.beacon import RoundRobinBeacon
from repro.byzantine import byzantine_factory, ensure_protocol_registered
from repro.chaos.schedule import ChaosSchedule
from repro.cluster.faults import SocketFaultInjector
from repro.cluster.tcp_transport import TcpTransport
from repro.cluster.wire import ClientSubmit
from repro.protocols.base import ProtocolParams, innermost
from repro.protocols.registry import check_protocol, create_replicas
from repro.runtime.context import ReplicaContext, Timer, check_delay
from repro.smr.mempool import Mempool
from repro.types.blocks import Block

#: Exit code when the protocol object raised during execution.
EXIT_PROTOCOL_ERROR = 3


@dataclass
class NodeConfig:
    """Everything one replica process needs, JSON-serialisable.

    Its JSON form is flat: the :class:`ProtocolParams` fields sit beside
    the node's own keys.

    Attributes:
        replica_id: this node's replica id.
        protocol: registered protocol name.
        params: protocol parameters; ``params.seed`` also seeds the node's
            fault-injection RNG.
        peers: replica id → ``(host, port)`` for every replica (self
            included; the node binds its own entry).
        duration: seconds of protocol time to run after the epoch.
        start_at: unix time of the coordinated cluster start; every node
            begins its protocol at this instant.
        commit_log: path of the JSONL commit log to append to.
        summary_path: path of the end-of-run summary JSON.
        schedule: optional chaos schedule to replay at the socket layer
            (:meth:`repro.chaos.schedule.ChaosSchedule.to_dict` form).
        max_block_bytes: per-proposal byte budget drained from the mempool.
        mempool_capacity: the client mempool's transaction-count limit.
        sample_interval: period in seconds of the mempool occupancy samples
            taken from the epoch on; 0 takes none.
    """

    replica_id: int
    protocol: str
    params: ProtocolParams
    peers: Dict[int, Tuple[str, int]]
    duration: float = 10.0
    start_at: float = 0.0
    commit_log: str = "commit.log"
    summary_path: str = ""
    schedule: Optional[Dict[str, object]] = None
    max_block_bytes: int = 65_536
    mempool_capacity: int = 100_000
    sample_interval: float = 0.0

    def __post_init__(self) -> None:
        """Raise a one-line ``ValueError`` unless the node can run: valid
        protocol parameters for a registered protocol, this replica among
        ``peers``, every port one ``bind()`` accepts, a mempool that holds
        a transaction, a finite non-negative sample interval, and a
        decodable schedule whose Byzantine plants can be built."""
        ensure_protocol_registered(self.protocol)
        check_protocol(self.protocol, self.params)
        if self.mempool_capacity <= 0:
            raise ValueError(f"mempool_capacity must be positive, got {self.mempool_capacity}")
        check_delay(self.sample_interval, "sample_interval")
        if self.replica_id not in self.peers:
            raise ValueError(f"replica {self.replica_id} is not in peers")
        for rid, (_, port) in sorted(self.peers.items()):
            if not 0 <= port <= 65535:
                raise ValueError(f"port {port} of replica {rid} is outside 0-65535")
        if self.schedule:
            # Building a plant runs its checks (behaviour, twins split).
            for replica, fault in ChaosSchedule.from_dict(self.schedule).byzantine().items():
                byzantine_factory(self.protocol, fault)(replica_id=replica, params=self.params)

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready dictionary (inverse of :meth:`from_dict`)."""
        return {
            "replica_id": self.replica_id,
            "protocol": self.protocol,
            **dataclasses.asdict(self.params),
            "peers": {str(rid): list(addr) for rid, addr in self.peers.items()},
            "duration": self.duration,
            "start_at": self.start_at,
            "commit_log": self.commit_log,
            "summary_path": self.summary_path,
            "schedule": self.schedule,
            "max_block_bytes": self.max_block_bytes,
            "mempool_capacity": self.mempool_capacity,
            "sample_interval": self.sample_interval,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "NodeConfig":
        """Rebuild a config from :meth:`to_dict` output; a protocol
        parameter left out takes :class:`ProtocolParams`' default."""
        return cls(
            replica_id=int(data["replica_id"]),
            protocol=str(data["protocol"]),
            params=ProtocolParams.from_dict(
                {**data, "n": int(data["n"]), "f": int(data["f"]), "p": int(data["p"])}),
            peers={int(rid): (str(addr[0]), int(addr[1]))
                   for rid, addr in data["peers"].items()},
            duration=float(data.get("duration", 10.0)),
            start_at=float(data.get("start_at", 0.0)),
            commit_log=str(data.get("commit_log", "commit.log")),
            summary_path=str(data.get("summary_path", "")),
            schedule=data.get("schedule"),
            max_block_bytes=int(data.get("max_block_bytes", 65_536)),
            mempool_capacity=int(data.get("mempool_capacity", 100_000)),
            sample_interval=float(data.get("sample_interval", 0.0)),
        )


class MempoolSource:
    """Payload source draining this node's client mempool into proposals.

    With no pending client transactions the node proposes a synthetic
    payload of the configured logical size (the paper's bit-vector
    workload), or an empty uniquely-tagged block when ``payload_size`` is
    0 — an idle SMR system ships cheap empty blocks.
    """

    def __init__(self, mempool: Mempool, max_block_bytes: int,
                 payload_size: int = 0) -> None:
        self.mempool = mempool
        self.max_block_bytes = max_block_bytes
        self.payload_size = payload_size

    def payload_for(self, round: int, proposer: int) -> Tuple[bytes, int]:
        """Return ``(payload_bytes, logical_size)`` for a proposal."""
        transactions = self.mempool.take(self.max_block_bytes)
        if transactions:
            payload = b"".join(transactions)
            return payload, len(payload)
        tag = f"cluster:r{round}:p{proposer}".encode("utf-8")
        return tag, self.payload_size


class ClusterNode:
    """One replica process: protocol + transport + timers + commit log."""

    def __init__(self, config: NodeConfig) -> None:
        self.config = config
        self.schedule = (ChaosSchedule.from_dict(config.schedule)
                         if config.schedule else ChaosSchedule())
        self.injector = SocketFaultInjector(self.schedule, config.replica_id,
                                            seed=config.params.seed)
        #: Whether a crash window may mute this replica (never, on an idle plan).
        self._crashes = not self.injector.idle
        self.mempool = Mempool(max_size=config.mempool_capacity)
        self._source = MempoolSource(self.mempool, config.max_block_bytes,
                                     config.params.payload_size)
        self.protocol = self._build_protocol()
        self.transport = TcpTransport(
            replica_id=config.replica_id,
            peers=config.peers,
            on_message=self._on_message,
            clock=self.now,
            injector=self.injector,
            on_client_submit=self._on_client_submit,
        )
        ids = tuple(range(config.params.n))
        self._context = ReplicaContext(
            config.replica_id, ids, now=self.now, send=self.transport.send,
            broadcast=partial(self.transport.broadcast, replica_ids=ids),
            set_timer=self.arm_timer, cancel_timer=self.cancel_timer,
            commit=self.record_commit)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._epoch_monotonic: float = 0.0
        self._timer_handles: Dict[int, asyncio.TimerHandle] = {}
        self._next_timer_id = 1
        self._log_handle = None
        #: Commit-log lines of this loop turn, written and flushed together.
        self._log_lines: List[str] = []
        self._commits = 0
        self._client_submissions = 0
        self._client_rejections = 0
        #: ``(tick, transactions, bytes)`` of the mempool at each
        #: ``tick * sample_interval`` on the epoch clock.
        self._occupancy: List[Tuple[int, int, int]] = []
        self._sampler: Optional[asyncio.TimerHandle] = None
        self._error: Optional[str] = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def _build_protocol(self):
        """Build this node's replica (honest, or a planted byzantine one)."""
        ensure_protocol_registered(self.config.protocol)
        overrides = {}
        fault = self.schedule.byzantine().get(self.config.replica_id)
        if fault is not None:
            overrides[self.config.replica_id] = byzantine_factory(
                self.config.protocol, fault)
        replicas = create_replicas(
            self.config.protocol,
            self.config.params,
            beacon=RoundRobinBeacon(list(range(self.config.params.n))),
            payload_source=self._source,
            replica_ids=[self.config.replica_id],
            overrides=overrides,
        )
        return replicas[self.config.replica_id]

    # ------------------------------------------------------------------ #
    # Clock and timers
    # ------------------------------------------------------------------ #

    def now(self) -> float:
        """Monotonic seconds since the cluster epoch (may be negative
        before the coordinated start)."""
        if self._loop is None:
            return 0.0
        return self._loop.time() - self._epoch_monotonic

    def arm_timer(self, delay: float, name: str, data: Any = None) -> int:
        if self._loop is None:
            raise RuntimeError("node not started")
        check_delay(delay, "timer delay")
        timer_id = self._next_timer_id
        self._next_timer_id += 1
        timer = Timer(name=name, fire_time=self.now() + delay, data=data,
                      timer_id=timer_id)
        handle = self._loop.call_later(delay, self._fire_timer, timer)
        self._timer_handles[timer_id] = handle
        return timer_id

    def cancel_timer(self, timer_id: int) -> None:
        handle = self._timer_handles.pop(timer_id, None)
        if handle is not None:
            handle.cancel()

    def _fire_timer(self, timer: Timer) -> None:
        self._timer_handles.pop(timer.timer_id, None)
        # Timers that come due inside a crash window are lost, like the
        # simulator's.
        if self._crashes and self.injector.self_crashed(self.now()):
            return
        self._guarded(self.protocol.on_timer, self._context, timer)

    # ------------------------------------------------------------------ #
    # Dispatch
    # ------------------------------------------------------------------ #

    def _on_message(self, sender: int, message: Any) -> None:
        if self._crashes and self.injector.self_crashed(self.now()):
            return
        self._guarded(self.protocol.on_message, self._context, sender, message)

    def _on_client_submit(self, submit: ClientSubmit) -> None:
        self._client_submissions += 1
        if not self.mempool.add(submit.transaction):
            self._client_rejections += 1

    def _guarded(self, callback, *args) -> None:
        """Run a protocol callback; a raise is a finding, not a crash loop."""
        if self._error is not None:
            return
        try:
            callback(*args)
        except Exception as exc:
            self._error = f"{type(exc).__name__}: {exc}"
            self._log_line({"type": "error", "t": round(self.now(), 6),
                            "replica": self.config.replica_id,
                            "detail": self._error})
            self._flush_log()

    # ------------------------------------------------------------------ #
    # Commit log
    # ------------------------------------------------------------------ #

    def record_commit(self, blocks, finalization_kind: str = "slow") -> None:
        """Log each committed block; the node's own block takes its proposal
        time with it (``proposed_at``), so the node keeps none."""
        now = round(self.now(), 6)
        replica_id = self.config.replica_id
        proposal_times = self.protocol.proposal_times
        for block in blocks:
            self._commits += 1
            line = {
                "type": "commit",
                "t": now,
                "replica": replica_id,
                "kind": finalization_kind,
                "round": block.round,
                "proposer": block.proposer,
                "rank": block.rank,
                "parent_id": block.parent_id,
                "payload": block.payload.hex(),
                "payload_size": block.payload_size,
            }
            if block.proposer == replica_id:
                proposed_at = proposal_times.pop(block.id, None)
                if proposed_at is not None:
                    line["proposed_at"] = proposed_at
            self._log_line(line)

    def _log_line(self, record: Dict[str, object]) -> None:
        if self._log_handle is None:
            return
        if not self._log_lines:
            self._loop.call_soon(self._flush_log)
        self._log_lines.append(json.dumps(record, sort_keys=True) + "\n")

    def _flush_log(self) -> None:
        """Write the buffered lines with one ``write`` and one ``flush``."""
        if self._log_lines and self._log_handle is not None:
            self._log_handle.write("".join(self._log_lines))
            self._log_handle.flush()
        self._log_lines.clear()

    # ------------------------------------------------------------------ #
    # Run loop
    # ------------------------------------------------------------------ #

    async def run(self) -> int:
        """Serve the replica until the configured duration; returns the
        process exit code."""
        self._loop = asyncio.get_running_loop()
        config = self.config
        start_at = config.start_at or (time.time() + 0.2)
        # Translate the shared unix start instant onto the monotonic clock
        # once; now() never consults the (steppable) wall clock again.
        self._epoch_monotonic = self._loop.time() + (start_at - time.time())
        self._log_handle = open(config.commit_log, "a", encoding="utf-8")
        host, port = config.peers[config.replica_id]
        await self.transport.start(host, port)

        delay_to_start = start_at - time.time()
        if delay_to_start > 0:
            await asyncio.sleep(delay_to_start)

        plan = self.injector.schedule.to_fault_plan()
        if plan.is_crashed(config.replica_id, 0.0):
            # Crashed from the very start: boot at the recovery instant, or
            # never (the process idles so peers see a live-but-mute socket).
            recover = plan.crash_schedule.recover_time(config.replica_id)
            if recover is not None:
                self._loop.call_later(recover, self._boot)
        else:
            self._boot()
        if config.sample_interval > 0:
            self._schedule_sample(1)

        remaining = config.duration - self.now()
        if remaining > 0:
            await asyncio.sleep(remaining)
        if self._sampler is not None:
            self._sampler.cancel()
        await self.transport.stop()
        for handle in self._timer_handles.values():
            handle.cancel()
        self._timer_handles.clear()
        self._write_summary()
        self._flush_log()
        if self._log_handle is not None:
            self._log_handle.close()
            self._log_handle = None
        return EXIT_PROTOCOL_ERROR if self._error is not None else 0

    def _boot(self) -> None:
        self._guarded(self.protocol.on_start, self._context)

    def _schedule_sample(self, tick: int) -> None:
        """Arm the occupancy sample at ``tick * sample_interval`` on the
        epoch clock, unless that is past the run's end (as the simulator's
        client pool samples)."""
        at = tick * self.config.sample_interval
        if at <= self.config.duration:
            self._sampler = self._loop.call_at(
                self._epoch_monotonic + at, self._sample_mempool, tick)

    def _sample_mempool(self, tick: int) -> None:
        self._occupancy.append((tick, len(self.mempool), self.mempool.total_bytes))
        self._schedule_sample(tick + 1)

    def _write_summary(self) -> None:
        if not self.config.summary_path:
            return
        protocol = innermost(self.protocol)
        tree = getattr(protocol, "tree", None)
        summary = {
            "replica_id": self.config.replica_id,
            "protocol": self.config.protocol,
            "commits": self._commits,
            # What the replica still holds at the end: flat in run length
            # where rounds are released (ICC, Banyan).
            "held_blocks": None if tree is None else len(tree),
            "held_rounds": getattr(protocol, "held_rounds", None),
            "client_submissions": self._client_submissions,
            "client_rejections": self._client_rejections,
            "occupancy": self._occupancy,
            "transport": dict(self.transport.stats),
            "error": self._error,
        }
        with open(self.config.summary_path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")


def load_config(path: str) -> NodeConfig:
    """Read and check a node's JSON configuration.

    Raises:
        ValueError: naming the problem, if the file cannot be read, is not
            a JSON object, lacks a field, or holds an invalid one.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ValueError(f"{path} is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path} is not a JSON object")
    try:
        # NodeConfig checks itself; only the file's shape is judged here.
        return NodeConfig.from_dict(data)
    except KeyError as exc:
        raise ValueError(f"{path}: missing field {exc}") from None
    except (AttributeError, IndexError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: invalid field: {exc}") from None


def main(argv=None) -> int:
    """Entry point of ``python -m repro.cluster.node``.

    A configuration :func:`load_config` refuses exits 2 with one line on
    stderr, before any socket opens.
    """
    parser = argparse.ArgumentParser(
        prog="repro.cluster.node",
        description="Run one protocol replica over real TCP sockets.",
    )
    parser.add_argument("--config", required=True,
                        help="path of the node's JSON configuration")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config)
    except ValueError as exc:
        print(f"repro.cluster.node: {exc}", file=sys.stderr)
        return 2
    node = ClusterNode(config)
    return asyncio.run(node.run())


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
