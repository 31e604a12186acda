"""Asyncio TCP transport: real sockets behind the protocol's send seam.

One :class:`TcpTransport` serves one replica process.  It owns:

* a listening server for inbound frames (peers and workload clients);
* one *sender task* per peer, which on each wake-up writes whatever that
  peer's bounded outbound queue holds as one ``write`` + one ``drain`` over
  a persistent connection, reconnecting with exponential backoff when the
  peer is down or restarting;
* the socket-level fault seam: every outbound frame is judged by the
  optional :class:`repro.cluster.faults.SocketFaultInjector` (drop, or
  delay then send — frame by frame, also inside a batch), and every inbound
  frame is re-judged at delivery time, mirroring the simulator's
  send-time/delivery-time fault symmetry.  An injector whose schedule holds
  no socket-level fault is not consulted at all.

**Backpressure.**  Each peer's outbound queue is bounded.  When a peer is
unreachable long enough for its queue to fill, the *oldest* frame is
dropped to admit the newest — consensus messages supersede their
predecessors (a newer certificate subsumes an older vote), so freshness
beats completeness, and a slow peer can never make a replica buffer
unboundedly (the failure mode a naive ``writer.write`` loop has).

**Framing.**  Everything on the wire is a :mod:`repro.cluster.wire` frame;
a broadcast is encoded once and every peer's queue shares the bytes.  A
message to this replica itself is handed over as the (immutable) object on
the next loop turn, like the simulator's loopback.  What keeps local and
remote deliveries interchangeable is the codec's round-trip property
(``decode(encode(m)) == m`` with the exact classes, for every encodable
``m`` — ``tests/test_wire.py``), not a second trip through it.

The transport is deliberately sans-protocol: it moves ``(sender, message)``
envelopes and leaves meaning to the callbacks the node wires in.
"""

from __future__ import annotations

import asyncio
import logging
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional, Tuple

from repro.cluster.faults import SocketFaultInjector
from repro.cluster.wire import (
    ClientSubmit,
    FrameDecoder,
    Hello,
    WireError,
    encode_frame,
)

logger = logging.getLogger(__name__)

#: Initial reconnect backoff, seconds.
INITIAL_BACKOFF_S = 0.05

#: Backoff ceiling, seconds.
MAX_BACKOFF_S = 2.0

#: Default per-peer outbound queue depth.
DEFAULT_QUEUE_LIMIT = 4096


class TcpTransport:
    """TCP fan-out for one replica.

    Args:
        replica_id: this node's replica id.
        peers: mapping peer replica id → ``(host, port)``; may include this
            replica's own entry (self-sends never touch a socket).
        on_message: callback ``(sender, message)`` for delivered protocol
            frames; runs on the event loop.
        clock: zero-argument callable returning the cluster epoch time in
            seconds (shared across processes, used for fault windows).
        injector: optional socket-level fault injector.
        on_client_submit: optional callback for :class:`ClientSubmit`
            frames from workload clients.
        queue_limit: per-peer outbound queue depth.
    """

    def __init__(
        self,
        replica_id: int,
        peers: Mapping[int, Tuple[str, int]],
        on_message: Callable[[int, Any], None],
        clock: Callable[[], float],
        injector: Optional[SocketFaultInjector] = None,
        on_client_submit: Optional[Callable[[ClientSubmit], None]] = None,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
    ) -> None:
        if queue_limit <= 0:
            raise ValueError("queue_limit must be positive")
        self.replica_id = replica_id
        self.peers = {peer: address for peer, address in peers.items()
                      if peer != replica_id}
        self._on_message = on_message
        self._clock = clock
        # A schedule without socket-level faults judges nothing: skip it.
        self._injector = None if injector is None or injector.idle else injector
        self._on_client_submit = on_client_submit
        self._queue_limit = queue_limit
        #: Per peer: the frames waiting for its sender task (oldest first)
        #: and the event that wakes the task when the first one arrives.
        self._queues: Dict[int, Deque[bytes]] = {}
        self._wakeups: Dict[int, asyncio.Event] = {}
        self._sender_tasks: Dict[int, asyncio.Task] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopped = False
        #: Observability counters, harvested into the node's summary.
        self.stats: Dict[str, int] = {
            "sent_frames": 0, "sent_bytes": 0, "sent_batches": 0,
            "recv_frames": 0, "recv_bytes": 0,
            "dropped_fault": 0, "dropped_backpressure": 0,
            "reconnects": 0, "decode_errors": 0,
        }

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def start(self, host: str, port: int) -> None:
        """Bind the listening server and launch one sender task per peer."""
        self._loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(self._serve_connection,
                                                  host, port)
        for peer in sorted(self.peers):
            self._queues[peer] = deque()
            self._wakeups[peer] = asyncio.Event()
            self._sender_tasks[peer] = self._loop.create_task(
                self._sender_loop(peer)
            )

    async def stop(self) -> None:
        """Cancel sender tasks and close the server."""
        self._stopped = True
        for task in self._sender_tasks.values():
            task.cancel()
        if self._sender_tasks:
            await asyncio.gather(*self._sender_tasks.values(),
                                 return_exceptions=True)
        self._sender_tasks.clear()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------ #
    # Sending
    # ------------------------------------------------------------------ #

    def send(self, receiver: int, message: Any) -> None:
        """Enqueue ``message`` for ``receiver`` (callable from callbacks)."""
        self.broadcast(message, (receiver,))

    def broadcast(self, message: Any, replica_ids) -> None:
        """Send ``message`` to every replica in ``replica_ids`` (incl. self).

        The message is encoded once; a copy for this replica itself skips
        the codec and is delivered on the next loop iteration.
        """
        frame = None
        for receiver in replica_ids:
            if receiver == self.replica_id:
                if self._loop is not None:
                    self._loop.call_soon(self._dispatch, receiver, message)
                continue
            queue = self._queues.get(receiver)
            if queue is None:
                continue
            if frame is None:
                frame = encode_frame(self.replica_id, message)
            if len(queue) >= self._queue_limit:
                # Drop the oldest frame: the newest protocol state supersedes it.
                queue.popleft()
                self.stats["dropped_backpressure"] += 1
            queue.append(frame)
            self._wakeups[receiver].set()

    async def _next_batch(self, peer: int) -> List[bytes]:
        """Wait for frames to ``peer`` and return those due now, in order.

        Every frame gets its own fault verdict.  A straggler's delay is
        served frame by frame, as if each were written alone: the delayed
        frame closes the batch.
        """
        queue, wakeup = self._queues[peer], self._wakeups[peer]
        batch: List[bytes] = []
        while not batch:
            while not queue:
                wakeup.clear()
                await wakeup.wait()
            if self._injector is None:
                batch = list(queue)
                queue.clear()
            while queue:
                frame = queue.popleft()
                verdict = self._injector.outbound(peer, self._clock())
                if verdict is None:
                    self.stats["dropped_fault"] += 1
                    continue
                batch.append(frame)
                if verdict > 0:
                    await asyncio.sleep(verdict)
                    break
        return batch

    async def _sender_loop(self, peer: int) -> None:
        """Drain one peer's queue over a persistent, self-healing connection."""
        host, port = self.peers[peer]
        backoff = INITIAL_BACKOFF_S
        batch: List[bytes] = []
        writer: Optional[asyncio.StreamWriter] = None
        try:
            while not self._stopped:
                if writer is None:
                    try:
                        _, writer = await asyncio.open_connection(host, port)
                    except OSError:
                        await asyncio.sleep(backoff)
                        backoff = min(backoff * 2, MAX_BACKOFF_S)
                        continue
                    backoff = INITIAL_BACKOFF_S
                    self.stats["reconnects"] += 1
                    writer.write(encode_frame(
                        self.replica_id, Hello(sender=self.replica_id)))
                try:
                    if not batch:
                        batch = await self._next_batch(peer)
                    data = b"".join(batch)
                    writer.write(data)
                    await writer.drain()
                    self.stats["sent_batches"] += 1
                    self.stats["sent_frames"] += len(batch)
                    self.stats["sent_bytes"] += len(data)
                    batch = []
                except (ConnectionError, OSError):
                    # Keep the batch; retry it once the peer is back.
                    self._close_writer(writer)
                    writer = None
        except asyncio.CancelledError:
            pass
        finally:
            self._close_writer(writer)

    @staticmethod
    def _close_writer(writer: Optional[asyncio.StreamWriter]) -> None:
        if writer is not None:
            try:
                writer.close()
            except Exception:  # pragma: no cover - teardown best-effort
                pass

    # ------------------------------------------------------------------ #
    # Receiving
    # ------------------------------------------------------------------ #

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        """Read frames from one inbound connection until EOF or WireError."""
        decoder = FrameDecoder()
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                self.stats["recv_bytes"] += len(data)
                for sender, message in decoder.feed(data):
                    self.stats["recv_frames"] += 1
                    self._dispatch(sender, message)
        except WireError as exc:
            self.stats["decode_errors"] += 1
            logger.warning("replica %d: dropping connection after wire error: %s",
                           self.replica_id, exc)
        except (ConnectionError, OSError):
            pass
        finally:
            self._close_writer(writer)

    def _dispatch(self, sender: int, message: Any) -> None:
        if isinstance(message, Hello):
            return
        if isinstance(message, ClientSubmit):
            if self._on_client_submit is not None:
                self._on_client_submit(message)
            return
        if self._injector is not None and not self._injector.inbound(
                sender, self._clock()):
            self.stats["dropped_fault"] += 1
            return
        self._on_message(sender, message)
