"""Asyncio real-time runtime.

Runs the same sans-io protocol objects under ``asyncio``: each replica is a
task consuming an inbox queue, messages travel through an in-memory router
that sleeps for the modelled delay before delivery, and timers are
``call_later`` callbacks.  This backend exists to demonstrate that the
protocol layer is runtime-agnostic and to support the asyncio example; the
benchmarks use the deterministic discrete-event simulator instead, because
wall-clock sleeps would make them slow and noisy.

Time can be compressed with ``time_scale``: a scale of 0.1 runs modelled
delays at 10x speed, keeping relative timing intact.

Messages round-trip through the :mod:`repro.cluster.wire` binary encoding
on every hop: this in-memory router and the real TCP transport share one
serialization path, so a message the asyncio stub can route is exactly a
message the cluster runtime can put on a socket.
"""

from __future__ import annotations

import asyncio
import random
from functools import partial
from typing import Any, Callable, Dict, List, Optional

from repro.cluster.wire import decode_envelope, encode_envelope
from repro.runtime.context import ReplicaContext, Timer, check_delay
from repro.runtime.simulator import NetworkConfig
from repro.types.blocks import Block
from repro.types.commits import CommitRecord
from repro.types.messages import Message


class AsyncioRuntime:
    """Drives protocol replicas in real (scaled) time under asyncio.

    Args:
        protocols: mapping replica id → protocol instance.
        network: network substrate configuration (latency/bandwidth/faults).
        time_scale: wall-clock seconds per modelled second (e.g. 0.1 runs
            10x faster than modelled time).
    """

    def __init__(
        self,
        protocols: Dict[int, Any],
        network: Optional[NetworkConfig] = None,
        time_scale: float = 1.0,
    ) -> None:
        if not protocols:
            raise ValueError("runtime needs at least one replica")
        if time_scale <= 0:
            raise ValueError("time_scale must be positive")
        self._protocols = dict(protocols)
        self.replica_ids: List[int] = sorted(self._protocols)
        self.network = network or NetworkConfig()
        self.time_scale = time_scale
        self._rng = random.Random(self.network.seed)
        ids = tuple(self.replica_ids)
        self._contexts = {
            r: ReplicaContext(
                r, ids, now=self.model_time,
                send=partial(self._route, r),
                broadcast=partial(self._route_all, r),
                set_timer=partial(self._arm_timer, r),
                cancel_timer=self._cancel_timer,
                commit=partial(self._record_commit, r))
            for r in ids
        }
        self._commits: Dict[int, List[CommitRecord]] = {r: [] for r in self.replica_ids}
        self._commit_listeners: List[Callable[[CommitRecord], None]] = []
        self._timer_handles: Dict[int, asyncio.TimerHandle] = {}
        self._next_timer_id = 1
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._start_time: float = 0.0

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def commits_for(self, replica_id: int) -> List[CommitRecord]:
        """Return the commit records of ``replica_id``."""
        return list(self._commits[replica_id])

    def all_commits(self) -> Dict[int, List[CommitRecord]]:
        """Return commit records for every replica."""
        return {r: list(records) for r, records in self._commits.items()}

    def add_commit_listener(self, listener: Callable[[CommitRecord], None]) -> None:
        """Register a callback invoked on every commit."""
        self._commit_listeners.append(listener)

    def model_time(self) -> float:
        """Current modelled time in seconds since the runtime started."""
        if self._loop is None:
            return 0.0
        return (self._loop.time() - self._start_time) / self.time_scale

    async def run(self, duration: float) -> None:
        """Start every replica and run for ``duration`` modelled seconds."""
        self._loop = asyncio.get_running_loop()
        self._start_time = self._loop.time()
        for replica_id in self.replica_ids:
            if self.network.faults.is_crashed(replica_id, 0.0):
                continue
            self._protocols[replica_id].on_start(self._contexts[replica_id])
        await asyncio.sleep(duration * self.time_scale)
        for handle in self._timer_handles.values():
            handle.cancel()
        self._timer_handles.clear()

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _route(self, sender: int, receiver: int, message: Message) -> None:
        if self._loop is None:
            return
        now = self.model_time()
        if self.network.faults.should_drop(sender, receiver, now, self._rng):
            return
        # The modelled transfer time is driven by the *logical* wire size
        # (payloads may be virtual), so compute it before serialising.
        size = getattr(message, "wire_size", 0)
        delay = self.network.bandwidth.transfer_time(sender, receiver, size)
        delay += self.network.latency.delay(sender, receiver, self._rng)
        envelope = encode_envelope(sender, message)
        self._loop.call_later(
            delay * self.time_scale, self._deliver, receiver, envelope
        )

    def _route_all(self, sender: int, message: Message) -> None:
        for receiver in self.replica_ids:
            self._route(sender, receiver, message)

    def _deliver(self, receiver: int, envelope: bytes) -> None:
        if self.network.faults.is_crashed(receiver, self.model_time()):
            return
        sender, message = decode_envelope(envelope)
        self._protocols[receiver].on_message(self._contexts[receiver], sender, message)

    def _arm_timer(self, replica_id: int, delay: float, name: str,
                   data: Any = None) -> int:
        if self._loop is None:
            raise RuntimeError("runtime not started")
        check_delay(delay, "timer delay")
        timer_id = self._next_timer_id
        self._next_timer_id += 1
        timer = Timer(
            name=name, fire_time=self.model_time() + delay, data=data, timer_id=timer_id
        )
        handle = self._loop.call_later(
            delay * self.time_scale, self._fire_timer, replica_id, timer
        )
        self._timer_handles[timer_id] = handle
        return timer_id

    def _cancel_timer(self, timer_id: int) -> None:
        handle = self._timer_handles.pop(timer_id, None)
        if handle is not None:
            handle.cancel()

    def _fire_timer(self, replica_id: int, timer: Timer) -> None:
        self._timer_handles.pop(timer.timer_id, None)
        if self.network.faults.is_crashed(replica_id, self.model_time()):
            return
        self._protocols[replica_id].on_timer(self._contexts[replica_id], timer)

    def _record_commit(self, replica_id: int, blocks,
                       finalization_kind: str = "slow") -> None:
        now = self.model_time()
        for block in blocks:
            record = CommitRecord(
                replica_id=replica_id,
                block=block,
                commit_time=now,
                finalization_kind=finalization_kind,
            )
            self._commits[replica_id].append(record)
            for listener in self._commit_listeners:
                listener(record)
