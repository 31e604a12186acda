"""Asyncio TCP transport: real sockets behind the protocol's send seam.

One :class:`TcpTransport` serves one replica process on
:class:`asyncio.Protocol` callbacks — no task wake-up per read or write.
Each accepted connection (peer or workload client) reads into a reused
buffer that feeds its own :class:`repro.cluster.wire.FrameDecoder`, and
dispatches every completed frame inline; an undecodable stream closes that
connection only.  Sends go to bounded per-peer queues, and the first send
of a loop turn schedules **one flush** (``call_soon``) that writes each
connected peer's queue as one ``transport.write``, then delivers the turn's
copies to this replica itself: the (immutable) object, like the simulator's
loopback — the codec's round-trip property (``tests/test_wire.py``) keeps
the two interchangeable.  A peer whose socket buffer is full
(``pause_writing``) keeps its frames queued; an unreachable one is dialled
with exponential backoff by a connector task that exists only while it is
down.  A full queue drops its *oldest* frame — a newer certificate subsumes
an older vote — so a slow peer never makes a replica buffer unboundedly.

**Faults.**  The flush judges every outbound frame by the optional
:class:`repro.cluster.faults.SocketFaultInjector` (drop, or hold the batch up
to and including a delayed frame for its delay), and every inbound frame is
re-judged at delivery time, mirroring the simulator.  An injector whose
schedule holds no socket-level fault is not consulted at all.
"""

from __future__ import annotations

import asyncio
import logging
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Mapping, Optional, Set, Tuple

from repro.cluster.faults import SocketFaultInjector
from repro.cluster.wire import ClientSubmit, FrameDecoder, Hello, WireError, encode_frame

logger = logging.getLogger(__name__)

#: Initial reconnect backoff, seconds.
INITIAL_BACKOFF_S = 0.05

#: Backoff ceiling, seconds.
MAX_BACKOFF_S = 2.0

#: Default per-peer outbound queue depth.
DEFAULT_QUEUE_LIMIT = 4096

#: Most bytes one read takes from an inbound connection.
RECV_BUFFER_BYTES = 65536


class _Inbound(asyncio.BufferedProtocol):
    """One accepted connection: reads land in its own reused buffer (no
    allocation per read), and their frames are dispatched inline."""

    def __init__(self, owner: "TcpTransport") -> None:
        self.owner = owner
        self.decoder = FrameDecoder()
        self.buffer = memoryview(bytearray(RECV_BUFFER_BYTES))
        self.transport: Optional[asyncio.Transport] = None

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.owner._inbound.add(self)

    def connection_lost(self, exc) -> None:
        self.owner._inbound.discard(self)

    def get_buffer(self, sizehint: int) -> memoryview:
        return self.buffer

    def buffer_updated(self, nbytes: int) -> None:
        owner, stats = self.owner, self.owner.stats
        stats["recv_bytes"] += nbytes
        try:
            for sender, message in self.decoder.feed(self.buffer[:nbytes]):
                stats["recv_frames"] += 1
                owner._dispatch(sender, message)
        except WireError as exc:
            stats["decode_errors"] += 1
            logger.warning("replica %d: dropping connection after wire error: %s",
                           owner.replica_id, exc)
            self.transport.close()


class _Outbound(asyncio.Protocol):
    """One peer: its bounded frame queue and, while connected, its socket."""

    def __init__(self, owner: "TcpTransport", peer: int) -> None:
        self.owner = owner
        self.peer = peer
        self.queue: Deque[bytes] = deque()
        self.transport: Optional[asyncio.Transport] = None
        self.paused = False     # the socket buffer is above its high-water mark
        self.held = False       # a straggler-delayed batch is waiting out its delay
        self.connector: Optional[asyncio.Task] = None

    def connection_made(self, transport) -> None:
        owner = self.owner
        self.transport, self.paused = transport, False
        transport.write(encode_frame(owner.replica_id, Hello(sender=owner.replica_id)))
        owner.stats["reconnects"] += 1
        owner._schedule_flush()

    def connection_lost(self, exc) -> None:
        self.transport = None
        self.owner._connect(self)

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        self.owner._schedule_flush()


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

    def __init__(self, replica_id: int, peers: Mapping[int, Tuple[str, int]],
                 on_message: Callable[[int, Any], None], clock: Callable[[], float],
                 injector: Optional[SocketFaultInjector] = None,
                 on_client_submit: Optional[Callable[[ClientSubmit], None]] = None,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT) -> None:
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
        self._outbound: Dict[int, _Outbound] = {}
        self._inbound: Set[_Inbound] = set()
        #: This turn's messages to this replica itself, delivered by the flush.
        self._local: List[Any] = []
        self._flush_pending = False
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopped = True
        #: Observability counters, harvested into the node's summary.
        self.stats: Dict[str, int] = dict.fromkeys((
            "sent_frames", "sent_bytes", "sent_batches", "recv_frames", "recv_bytes",
            "dropped_fault", "dropped_backpressure", "reconnects", "decode_errors"), 0)

    async def start(self, host: str, port: int) -> None:
        """Bind the listening server and start dialling every peer."""
        self._loop = asyncio.get_running_loop()
        self._stopped = False
        self._server = await self._loop.create_server(lambda: _Inbound(self), host, port)
        for peer in sorted(self.peers):
            self._outbound[peer] = _Outbound(self, peer)
            self._connect(self._outbound[peer])

    async def stop(self) -> None:
        """Close every connection and the server; nothing is delivered after."""
        self._stopped = True
        self._local.clear()
        for peer in self._outbound.values():
            if peer.connector is not None:
                peer.connector.cancel()
            if peer.transport is not None:
                peer.transport.close()
        for inbound in self._inbound:
            inbound.transport.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await asyncio.sleep(0)  # let cancelled dials and closed sockets finish

    def _connect(self, peer: _Outbound) -> None:
        if not self._stopped:
            peer.connector = self._loop.create_task(self._dial(peer))

    async def _dial(self, peer: _Outbound) -> None:
        """Connect to ``peer``, retrying with exponential backoff."""
        backoff = INITIAL_BACKOFF_S
        while True:
            try:
                await self._loop.create_connection(lambda: peer, *self.peers[peer.peer])
                return
            except OSError:
                await asyncio.sleep(backoff)
                backoff = min(backoff * 2, MAX_BACKOFF_S)

    def send(self, receiver: int, message: Any) -> None:
        """Enqueue ``message`` for ``receiver`` (callable from callbacks)."""
        self.broadcast(message, (receiver,))

    def broadcast(self, message: Any, replica_ids) -> None:
        """Send ``message`` to every replica in ``replica_ids``, encoded once;
        the copy for this replica itself skips the codec (see :meth:`_flush`)."""
        if self._stopped:
            return
        frame = None
        for receiver in replica_ids:
            if receiver == self.replica_id:
                self._local.append(message)
                continue
            peer = self._outbound.get(receiver)
            if peer is None:
                continue
            if frame is None:
                frame = encode_frame(self.replica_id, message)
            queue = peer.queue
            if len(queue) >= self._queue_limit:
                # Drop the oldest frame: the newest protocol state supersedes it.
                queue.popleft()
                self.stats["dropped_backpressure"] += 1
            queue.append(frame)
        self._schedule_flush()

    def _schedule_flush(self) -> None:
        if not self._flush_pending:
            self._flush_pending = True
            self._loop.call_soon(self._flush)

    def _flush(self) -> None:
        """Write each writable peer's queue as one batch, then deliver the turn's
        self copies in order.  With an injector each frame gets its own verdict;
        a delayed frame closes its batch, which is held back for the delay."""
        self._flush_pending = False
        injector = self._injector
        for peer in self._outbound.values():
            queue = peer.queue
            if not queue or peer.transport is None or peer.paused or peer.held:
                continue
            if injector is None:
                self._write(peer, queue)
                queue.clear()
                continue
            batch: List[bytes] = []
            while queue and not peer.held:
                verdict = injector.outbound(peer.peer, self._clock())
                frame = queue.popleft()
                if verdict is None:
                    self.stats["dropped_fault"] += 1
                    continue
                batch.append(frame)
                if verdict > 0:
                    peer.held = True
                    self._loop.call_later(verdict, self._release, peer, batch)
            if batch and not peer.held:
                self._write(peer, batch)
        local, self._local = self._local, []
        for message in local:
            self._dispatch(self.replica_id, message)

    def _release(self, peer: _Outbound, batch: List[bytes]) -> None:
        """Send a straggler-held batch once its delay has passed."""
        peer.held = False
        if peer.transport is None:
            peer.queue.extendleft(reversed(batch))  # re-judged once reconnected
        else:
            self._write(peer, batch)
        self._schedule_flush()

    def _write(self, peer: _Outbound, batch) -> None:
        data = b"".join(batch)
        peer.transport.write(data)
        self.stats["sent_batches"] += 1
        self.stats["sent_frames"] += len(batch)
        self.stats["sent_bytes"] += len(data)

    def _dispatch(self, sender: int, message: Any) -> None:
        if isinstance(message, (Hello, ClientSubmit)):
            if isinstance(message, ClientSubmit) and self._on_client_submit is not None:
                self._on_client_submit(message)
        elif self._injector is None or self._injector.inbound(sender, self._clock()):
            self._on_message(sender, message)
        else:
            self.stats["dropped_fault"] += 1
