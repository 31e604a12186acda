"""The TCP transport's send path, in one process over loopback.

What the cluster's speed rests on — one encode per broadcast, one write per
peer per loop turn — must not cost what its fault replay rests on: a verdict
per frame, drop-oldest backpressure (also against a peer that stops
reading), in-order retry after a reconnect, per-frame accounting, and a
stopped transport that delivers nothing.  Each test wires two (or one) real
:class:`TcpTransport` endpoints on localhost sockets.
"""

import asyncio
import time

import pytest

import repro.cluster.tcp_transport as tcp_transport
from repro.chaos.schedule import ChaosSchedule, Fault
from repro.cluster.faults import SocketFaultInjector
from repro.cluster.harness import pick_free_ports
from repro.cluster.tcp_transport import TcpTransport
from repro.cluster.wire import ClientSubmit, FrameDecoder, Hello, encode_frame
from repro.types.messages import VoteMessage
from repro.types.votes import NotarizationVote

HOST = "127.0.0.1"


def _message(index):
    return VoteMessage(votes=(NotarizationVote(round=index, block_id="b", voter=0),),
                       sender=0)


def _rounds(received):
    return [message.votes[0].round for _, message in received]


async def _until(condition, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        await asyncio.sleep(0.01)


class _Pair:
    """Replica 0 sending to replica 1; the receiver starts on demand."""

    def __init__(self, schedule=ChaosSchedule(), clock=lambda: 1.0, **sender_options):
        self.port, = pick_free_ports(1)
        self.received = []
        self.sender = TcpTransport(
            0, {1: (HOST, self.port)}, lambda *_: None, clock=clock,
            injector=SocketFaultInjector(schedule, 0, seed=7), **sender_options)
        self.receiver = TcpTransport(
            1, {}, lambda sender, message: self.received.append((sender, message)),
            clock=clock)

    async def __aenter__(self):
        await self.sender.start(HOST, 0)
        return self

    async def __aexit__(self, *_):
        await self.sender.stop()
        await self.receiver.stop()

    async def start_receiver(self):
        await self.receiver.start(HOST, self.port)


def test_frames_queued_while_the_peer_is_down_arrive_in_order_in_few_writes():
    async def scenario():
        async with _Pair() as pair:
            for index in range(500):
                pair.sender.send(1, _message(index))
            await asyncio.sleep(0.2)        # connection attempts fail meanwhile
            assert pair.sender.stats["sent_frames"] == 0
            await pair.start_receiver()
            await _until(lambda: len(pair.received) == 500)
            return pair

    pair = asyncio.run(scenario())
    assert _rounds(pair.received) == list(range(500))
    assert {sender for sender, _ in pair.received} == {0}
    # The connection's Hello is received (and counted) but not "sent".
    assert pair.sender.stats["sent_frames"] == 500
    assert pair.receiver.stats["recv_frames"] == 500 + 1
    hello = len(encode_frame(0, Hello(sender=0)))
    assert pair.receiver.stats["recv_bytes"] == pair.sender.stats["sent_bytes"] + hello
    assert 1 <= pair.sender.stats["sent_batches"] <= 10
    assert pair.sender.stats["dropped_backpressure"] == 0


def test_a_loss_burst_judges_every_frame_of_a_batch():
    burst = ChaosSchedule(faults=(Fault(kind="loss", start=0.0, end=10.0,
                                        probability=0.5),))

    async def scenario():
        async with _Pair(schedule=burst) as pair:
            await pair.start_receiver()
            for index in range(2000):
                pair.sender.send(1, _message(index))
            stats = pair.sender.stats
            await _until(lambda: stats["sent_frames"] + stats["dropped_fault"] == 2000)
            await _until(lambda: len(pair.received) == stats["sent_frames"])
            return pair

    pair = asyncio.run(scenario())
    delivered = _rounds(pair.received)
    assert 850 <= len(delivered) <= 1150            # p = 0.5, sd ≈ 22
    assert delivered == sorted(delivered)            # survivors keep their order
    assert pair.sender.stats["dropped_fault"] == 2000 - len(delivered)
    assert pair.sender.stats["sent_batches"] < 200   # and still went out in batches


def test_a_straggler_window_delays_each_frame_not_each_batch():
    slow = ChaosSchedule(faults=(Fault(kind="straggler", replica=0, start=0.0,
                                       end=10.0, delay=0.05),))
    arrivals = []

    async def scenario():
        async with _Pair(schedule=slow) as pair:
            await pair.start_receiver()
            pair.receiver._on_message = lambda *_: arrivals.append(time.monotonic())
            sent_at = time.monotonic()
            for index in range(5):
                pair.sender.send(1, _message(index))
            await _until(lambda: len(arrivals) == 5)
            return pair, sent_at

    pair, sent_at = asyncio.run(scenario())
    assert pair.sender.stats["sent_batches"] == 5    # a delayed frame goes alone
    assert arrivals[0] - sent_at >= 0.05
    assert all(later - earlier >= 0.04 for earlier, later in zip(arrivals, arrivals[1:]))


def test_queue_overflow_still_drops_the_oldest():
    async def scenario():
        async with _Pair(queue_limit=8) as pair:
            for index in range(20):
                pair.sender.send(1, _message(index))
            assert pair.sender.stats["dropped_backpressure"] == 12
            await pair.start_receiver()
            await _until(lambda: len(pair.received) == 8)
            return pair

    pair = asyncio.run(scenario())
    assert _rounds(pair.received) == list(range(12, 20))
    assert pair.sender.stats["sent_frames"] == 8


def test_a_receiver_restart_mid_stream_keeps_every_frame_in_order():
    async def scenario():
        async with _Pair() as pair:
            await pair.start_receiver()
            for index in range(100):
                pair.sender.send(1, _message(index))
            await _until(lambda: len(pair.received) == 100)
            await pair.receiver.stop()
            await asyncio.sleep(0.2)        # the sender sees its connection close
            for index in range(100, 300):
                pair.sender.send(1, _message(index))
            await asyncio.sleep(0.2)        # reconnect attempts fail meanwhile
            assert len(pair.received) == 100
            await pair.start_receiver()     # same port
            for index in range(300, 400):
                pair.sender.send(1, _message(index))
            await _until(lambda: len(pair.received) == 400)
            return pair

    pair = asyncio.run(scenario())
    assert _rounds(pair.received) == list(range(400))
    assert {sender for sender, _ in pair.received} == {0}
    assert pair.sender.stats["reconnects"] == 2
    assert pair.sender.stats["sent_frames"] == len(pair.received)
    assert pair.receiver.stats["recv_frames"] == 400 + 2     # one Hello per connection
    assert pair.sender.stats["dropped_backpressure"] == 0


def test_frames_larger_than_one_read_arrive_whole():
    # Each read reuses one receive buffer: a frame split across reads must
    # not keep a view into it.
    submitted = []
    big = tcp_transport.RECV_BUFFER_BYTES * 3 + 7

    async def scenario():
        async with _Pair() as pair:
            pair.receiver._on_client_submit = submitted.append
            await pair.start_receiver()
            for index in range(3):
                pair.sender.send(1, ClientSubmit(transaction=bytes([index]) * big,
                                                 client_id=index))
            await _until(lambda: len(submitted) == 3)

    asyncio.run(scenario())
    assert [(submit.client_id, submit.transaction) for submit in submitted] == [
        (index, bytes([index]) * big) for index in range(3)]


def test_a_stopped_receiver_delivers_nothing_more():
    async def scenario():
        async with _Pair() as pair:
            await pair.start_receiver()
            pair.sender.send(1, _message(0))
            await _until(lambda: pair.received)
            await pair.receiver.stop()
            for index in range(1, 20):
                pair.sender.send(1, _message(index))
            pair.receiver.send(1, _message(99))     # nor a copy to itself
            await asyncio.sleep(0.3)
            return pair

    pair = asyncio.run(scenario())
    assert _rounds(pair.received) == [0]


class _Sink(asyncio.Protocol):
    """A bare server-side peer that accepts and reads nothing until resumed."""

    def __init__(self):
        self.decoder = FrameDecoder()
        self.messages = []
        self.transport = None

    def connection_made(self, transport):
        self.transport = transport
        transport.pause_reading()

    def data_received(self, data):
        self.messages.extend(message for _, message in self.decoder.feed(data))


def test_a_peer_that_never_reads_costs_a_bounded_queue():
    limit = 32
    payload = b"x" * 65536          # the socket buffers hold a few MiB: ~100 frames

    async def scenario():
        sink = _Sink()
        port, = pick_free_ports(1)
        server = await asyncio.get_running_loop().create_server(lambda: sink, HOST, port)
        sender = TcpTransport(0, {1: (HOST, port)}, lambda *_: None, clock=lambda: 1.0,
                              queue_limit=limit)
        await sender.start(HOST, 0)
        peer = sender._outbound[1]
        try:
            await _until(lambda: peer.transport is not None)
            high = peer.transport.get_write_buffer_limits()[1]
            frame = len(encode_frame(0, ClientSubmit(transaction=payload)))
            sent = 0
            while sender.stats["dropped_backpressure"] < 4 * limit:
                assert sent < 5000, "the socket never filled up"
                sender.send(1, ClientSubmit(transaction=payload, client_id=sent))
                sent += 1
                await asyncio.sleep(0)      # one loop turn: one flush
                assert len(peer.queue) <= limit
                # At most one batch beyond the high-water mark sits in user space.
                assert peer.transport.get_write_buffer_size() <= high + limit * frame
            assert peer.paused
            sink.transport.resume_reading()
            await _until(lambda: len(sink.messages) == 1 + sender.stats["sent_frames"])
            return sink, sender, sent
        finally:
            await sender.stop()
            if sink.transport is not None:
                sink.transport.close()
            server.close()

    sink, sender, sent = asyncio.run(scenario())
    assert isinstance(sink.messages[0], Hello)
    arrived = [message.client_id for message in sink.messages[1:]]
    assert arrived == sorted(set(arrived))                  # in order, no repeats
    assert arrived[-limit:] == list(range(sent - limit, sent))   # the oldest were dropped
    assert len(arrived) + sender.stats["dropped_backpressure"] == sent


def test_one_broadcast_encodes_once_and_hands_the_object_to_self(monkeypatch):
    encoded = []
    real_encode = tcp_transport.encode_frame

    def counting_encode(sender, message):
        encoded.append(message)
        return real_encode(sender, message)

    monkeypatch.setattr(tcp_transport, "encode_frame", counting_encode)
    local = []
    message = _message(3)

    async def scenario():
        peers = {peer: (HOST, port)
                 for peer, port in zip((1, 2, 3), pick_free_ports(3))}  # nobody listens
        transport = TcpTransport(0, peers, lambda sender, received:
                                 local.append((sender, received)), clock=lambda: 1.0)
        await transport.start(HOST, 0)
        try:
            transport.broadcast(message, range(4))
            assert local == []                  # next loop turn, like a socket frame
            await _until(lambda: local)
            return [list(peer.queue) for peer in transport._outbound.values()]
        finally:
            await transport.stop()

    queues = asyncio.run(scenario())
    assert encoded == [message]
    assert local == [(0, message)] and local[0][1] is message
    assert [len(queue) for queue in queues] == [1, 1, 1]
    assert queues[0][0] is queues[1][0] is queues[2][0]   # one frame, shared


def test_unicast_to_self_and_to_unknown_peer():
    local = []

    async def scenario():
        transport = TcpTransport(0, {}, lambda *args: local.append(args),
                                 clock=lambda: 1.0)
        await transport.start(HOST, 0)
        try:
            transport.send(9, _message(1))      # no such peer: silently nothing
            transport.send(0, _message(2))
            await _until(lambda: local)
        finally:
            await transport.stop()

    asyncio.run(scenario())
    assert _rounds(local) == [2]


# --------------------------------------------------------------------- #
# The idle fault plan
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("fault, idle", [
    (None, True),
    (Fault(kind="byzantine", replica=2, behavior="silent"), True),
    (Fault(kind="crash", replica=3, start=1.0, end=2.0), False),
    (Fault(kind="partition", start=1.0, end=2.0, group_a=(0,), group_b=(1,)), False),
    (Fault(kind="loss", start=1.0, end=2.0, probability=0.1), False),
    (Fault(kind="straggler", replica=1, start=1.0, end=2.0, delay=0.1), False),
], ids=lambda value: getattr(value, "kind", value))
def test_injector_is_idle_exactly_without_socket_level_faults(fault, idle):
    schedule = ChaosSchedule(faults=(fault,) if fault else ())
    # Another replica's straggler phase still makes the plan non-idle here:
    # idleness is a property of the schedule, not of who asks.
    assert SocketFaultInjector(schedule, 0).idle is idle


def test_an_idle_injector_is_never_consulted():
    class Tripwire(SocketFaultInjector):
        def outbound(self, receiver, now):
            raise AssertionError("idle plan consulted per frame")

        inbound = self_crashed = outbound

    received = []

    async def direct():
        port, = pick_free_ports(1)
        receiver = TcpTransport(1, {}, lambda *args: received.append(args),
                                clock=lambda: 1.0,
                                injector=Tripwire(ChaosSchedule(), 1))
        sender = TcpTransport(0, {1: (HOST, port)}, lambda *_: None, clock=lambda: 1.0,
                              injector=Tripwire(ChaosSchedule(), 0))
        await receiver.start(HOST, port)
        await sender.start(HOST, 0)
        try:
            for index in range(10):
                sender.send(1, _message(index))
            await _until(lambda: len(received) == 10)
        finally:
            await sender.stop()
            await receiver.stop()

    asyncio.run(direct())
    assert _rounds(received) == list(range(10))
