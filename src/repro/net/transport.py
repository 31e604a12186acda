"""The transport layer: how bytes move from a sender to its receivers.

Every message a replica sends passes through exactly one :class:`Transport`,
which composes the three network sub-models (propagation delay from
:mod:`repro.net.latency`, serialization time from
:mod:`repro.net.bandwidth`, loss/hold from :mod:`repro.net.faults`) into a
:class:`Delivery` per receiver: *when* the message arrives and *where the
time went* (partition hold, uplink queueing, wire transfer, propagation).
The simulator owns the event queue and the counters; the transport owns all
message timing — swapping dissemination strategies never touches the
protocols or the event loop.

Three strategies are provided:

* :class:`DirectTransport` — the classic model: every copy of a broadcast
  departs at the send instant, paying ``transfer + propagation``
  independently.  This is the default and reproduces the pre-transport
  simulator executions bit-for-bit.
* :class:`ContendedUplinkTransport` — a per-replica NIC with finite uplink
  capacity: a sender's outgoing copies serialize *sequentially*, so an
  n-way broadcast's last copy waits for the first n−1 to drain.  This is
  the effect that turns a single leader into a bandwidth bottleneck and
  makes leader fan-out cost scale with n.
* :class:`RelayTransport` — dissemination trees: a broadcast goes to ``k``
  relay replicas which re-forward to the rest, trading one hop of extra
  latency for O(k) sender fan-out.

Each strategy prices a broadcast one reference way — per-copy ``unicast``
for Direct and Contended, the tree ``broadcast`` for Relay — plus at most
one fault-free fast shape that equals it bit for bit, rng draws and
counters included: an aligned arrival row, or Direct's numpy array.
``broadcast_times`` is derived from the two, as aligned ``(times,
targets)``; only Direct overrides it, for
faults that never interleave drop draws with propagation draws (crashes,
partitions, any fault under a jitter-free model).

Transports are selected by name through
:class:`repro.runtime.simulator.NetworkConfig` (``transport="contended"``)
and built by :func:`build_transport`; custom strategies subclass
:class:`Transport` and can be passed as instances.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as _np

from repro.net.bandwidth import BandwidthModel
from repro.net.faults import FaultPlan
from repro.net.latency import LatencyModel
from repro.types.messages import Message


class Delivery:
    """One scheduled message arrival, with its delay decomposition.

    Attributes:
        receiver: the replica the copy arrives at.
        deliver_at: absolute simulation time of the arrival.
        hold_delay: time the copy was held back by a partition window.
        queue_delay: time the copy spent waiting before its final hop began
            — sender-uplink queueing under
            :class:`ContendedUplinkTransport`, the whole upstream
            (sender→relay) leg for forwarded copies under
            :class:`RelayTransport`, and always 0 under
            :class:`DirectTransport`.
        transfer_delay: serialization time onto the wire (the final hop's,
            for relayed copies).
        propagation_delay: one-way propagation time (the final hop's, for
            relayed copies).
        via: id of the relay that forwarded the copy, or ``None`` for a
            direct copy.

    Invariant (relied on by the network trace): ``deliver_at ==`` the send
    time ``+ hold_delay + queue_delay + transfer_delay +
    propagation_delay``.
    """

    __slots__ = ("receiver", "deliver_at", "hold_delay", "queue_delay",
                 "transfer_delay", "propagation_delay", "via")

    def __init__(self, receiver: int, deliver_at: float, hold_delay: float = 0.0,
                 queue_delay: float = 0.0, transfer_delay: float = 0.0,
                 propagation_delay: float = 0.0, via: Optional[int] = None) -> None:
        self.receiver = receiver
        self.deliver_at = deliver_at
        self.hold_delay = hold_delay
        self.queue_delay = queue_delay
        self.transfer_delay = transfer_delay
        self.propagation_delay = propagation_delay
        self.via = via

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Delivery(receiver={self.receiver}, deliver_at={self.deliver_at:.6f}, "
                f"queue={self.queue_delay:.6f}, via={self.via})")


class Transport(ABC):
    """Strategy interface owning the full send pipeline.

    A transport is consulted once per logical send: :meth:`unicast` for a
    point-to-point message, :meth:`broadcast` for an all-replica message.
    Both return where and when copies arrive; a dropped copy is simply
    absent (``None`` / missing from the list).  The caller (the simulator)
    does the accounting and event scheduling.

    The contract: one reference pricing (the base :meth:`broadcast` loops
    :meth:`unicast` per copy, or a subclass overrides it), at most one
    fault-free fast shape that reproduces it exactly
    (:meth:`broadcast_arrival_row` / :meth:`broadcast_arrival_array`), and
    a derived :meth:`broadcast_times`; the simulator schedules broadcasts
    from :meth:`broadcast` (tracing), :meth:`broadcast_arrival_array` and
    :meth:`broadcast_times` only.  ``rng`` is drawn in a fixed
    per-receiver order so that a fixed seed reproduces the execution.
    """

    def __init__(self, latency: LatencyModel, bandwidth: BandwidthModel,
                 faults: FaultPlan) -> None:
        self.latency = latency
        self.bandwidth = bandwidth
        self.faults = faults
        # Hoisted once: a fault plan with no crashes, drops, bursts, or
        # partitions lets the per-message hot path skip three calls per copy.
        self._trivial_faults = (
            not faults.crash_schedule.crash_times
            and faults.drop_probability == 0.0
            and not faults.partitions.windows
            and not faults.loss_bursts
        )
        # Row-path gates, also hoisted.  Transfer rows may only be cached
        # when the bandwidth model is the stock pure-function one — a
        # subclass could be stateful or time-varying, so it keeps the
        # per-copy call pattern.  Latency rows come from the model's own
        # batched API (with a scalar-equivalent base fallback), so they are
        # always safe; `jitter_free` additionally means zero rng draws.
        self._latency_jitter_free = bool(getattr(latency, "jitter_free", False))
        self._cacheable_bandwidth = type(bandwidth) is BandwidthModel
        self._transfer_row_cache: Dict[Tuple[int, int], Tuple[Tuple[int, ...], List[float]]] = {}
        self._transfer_array_cache: Dict[Tuple[int, int], tuple] = {}

    def _transfer_row(self, sender: int, receivers: Sequence[int],
                      size: int) -> List[float]:
        """Per-destination transfer times, cached per ``(sender, size)``.

        Only called on the row path (stock bandwidth model), where
        ``transfer_time`` is a pure function of the pair and size.  The
        cached row is validated against ``receivers`` (identity first — the
        simulator passes the same replica-id tuple every broadcast) so a
        different receiver set rebuilds rather than misprices.
        """
        key = (sender, size)
        entry = self._transfer_row_cache.get(key)
        if entry is not None and (entry[0] is receivers or entry[0] == receivers):
            return entry[1]
        # Only reached for the stock bandwidth model (the row-path gate),
        # whose transfer_row shares one template per sender datacenter.
        row = self.bandwidth.transfer_row(sender, receivers, size)
        self._transfer_row_cache[key] = (tuple(receivers), row)
        return row

    @abstractmethod
    def unicast(self, sender: int, receiver: int, message: Message, now: float,
                rng: random.Random) -> Optional[Delivery]:
        """Schedule one ``sender → receiver`` copy; ``None`` if dropped."""

    def broadcast(self, sender: int, receivers: Sequence[int], message: Message,
                  now: float, rng: random.Random) -> List[Delivery]:
        """Schedule one copy per receiver (the sender included); drops omitted."""
        deliveries = []
        for receiver in receivers:
            delivery = self.unicast(sender, receiver, message, now, rng)
            if delivery is not None:
                deliveries.append(delivery)
        return deliveries

    def broadcast_times(self, sender: int, receivers: Sequence[int],
                        message: Message, now: float, rng: random.Random
                        ) -> Tuple[Sequence[float], Sequence[int]]:
        """:meth:`broadcast` reduced to aligned ``(times, targets)``.

        Per-copy order, drops removed: the fault-free row with
        ``receivers`` when the transport has one, else both read off
        :meth:`broadcast`.  Overrides must consume ``rng`` and mutate
        transport state (NIC queues, counters) exactly as
        :meth:`broadcast` would — the golden corpus pins this.
        """
        row = self.broadcast_arrival_row(sender, receivers, message, now, rng)
        if row is not None:
            return row, receivers
        deliveries = self.broadcast(sender, receivers, message, now, rng)
        return ([delivery.deliver_at for delivery in deliveries],
                [delivery.receiver for delivery in deliveries])

    def broadcast_arrival_row(self, sender: int, receivers: Sequence[int],
                              message: Message, now: float,
                              rng: random.Random) -> Optional[List[float]]:
        """Arrival times aligned with ``receivers``, or ``None``.

        The densest broadcast shape: when no copy can be dropped or held
        the result is one float per receiver, positionally aligned with
        ``receivers`` — the simulator then groups deliveries without
        materialising ``(receiver, time)`` tuples.  ``None`` means the
        transport cannot guarantee the aligned no-drop shape here (faults
        active, custom models) and leaves ``rng`` untouched; the base
        :meth:`broadcast_times` then falls back to :meth:`broadcast`.
        Overrides must consume ``rng`` exactly as :meth:`broadcast` would.
        """
        return None

    def broadcast_arrival_array(self, sender: int, receivers: Sequence[int],
                                message: Message, now: float,
                                rng: random.Random):
        """:meth:`broadcast_arrival_row` as a numpy float64 array, or ``None``.

        Same aligned no-drop contract and the same arithmetic bit-for-bit
        (numpy elementwise float64 add/multiply are IEEE-exactly-rounded,
        identical to the scalar ops), but built with whole-row vector ops.
        ``None`` whenever the configuration cannot take the array path;
        implementations must decide *before* consuming any rng draws so
        the simulator's :meth:`broadcast_times` fallback sees an untouched
        stream.
        """
        return None

    def reset(self) -> None:
        """Clear inter-simulation state (NIC queues, counters)."""

    def stats(self) -> Dict[str, object]:
        """Transport-specific counters (wire bytes, queueing), for reports."""
        return {}


class DirectTransport(Transport):
    """Ideal point-to-point dissemination (the pre-transport semantics).

    Every copy departs at the send instant and arrives after
    ``transfer_time + propagation_delay``; a broadcast is n independent
    unicasts.  Given the same seed, models, and fault plan, executions are
    identical to the original in-simulator pipeline — the rng is consumed
    in the same per-receiver order and the arrival times are computed with
    the same arithmetic.
    """

    name = "direct"

    def unicast(self, sender: int, receiver: int, message: Message, now: float,
                rng: random.Random) -> Optional[Delivery]:
        """Independent copy: ``now (+ hold) + transfer + propagation``."""
        size = getattr(message, "wire_size", 0)
        send_time = now
        hold = 0.0
        if not self._trivial_faults:
            faults = self.faults
            if faults.should_drop(sender, receiver, now, rng):
                return None
            release = faults.partition_release(sender, receiver, now)
            if release is not None:
                # Partition = period of asynchrony: the message is held back
                # and starts travelling once the partition heals.
                send_time = release
                hold = release - now
        transfer = self.bandwidth.transfer_time(sender, receiver, size)
        propagation = self.latency.delay(sender, receiver, rng)
        return Delivery(receiver, send_time + transfer + propagation,
                        hold, 0.0, transfer, propagation)

    def broadcast_times(self, sender: int, receivers: Sequence[int],
                        message: Message, now: float, rng: random.Random
                        ) -> Tuple[Sequence[float], Sequence[int]]:
        """Survivors first, for faults that never interleave drop draws with
        propagation draws (crashes, partitions, any fault under a
        jitter-free model): the per-copy loop draws propagation only for
        survivors, so one ``delay_row`` over them takes the same draws.
        Anything else takes the base row / per-copy pricing."""
        faults = self.faults
        if self._trivial_faults or (not self._latency_jitter_free
                                    and faults.drop_draws_rng(now)):
            return super().broadcast_times(sender, receivers, message, now, rng)
        size = getattr(message, "wire_size", 0)
        survivors = [receiver for receiver in receivers
                     if not faults.should_drop(sender, receiver, now, rng)]
        propagation_row = self.latency.delay_row(sender, survivors, rng)
        transfer_time = self.bandwidth.transfer_time
        times: List[float] = []
        append = times.append
        for receiver, propagation in zip(survivors, propagation_row):
            send_time = now
            release = faults.partition_release(sender, receiver, now)
            if release is not None:
                send_time = release
            append(send_time + transfer_time(sender, receiver, size)
                   + propagation)
        return times, survivors

    def broadcast_arrival_row(self, sender: int, receivers: Sequence[int],
                              message: Message, now: float,
                              rng: random.Random) -> Optional[List[float]]:
        """The flood hot path: one cached-row add per receiver.

        With trivial faults and the stock bandwidth model nothing can drop
        or hold, so the whole broadcast is ``now + transfer[i] +
        propagation[i]`` over cached rows — zero model, fault, or transfer
        calls, and zero rng draws for jitter-free latency models (one
        ``random()`` per receiver otherwise, via ``delay_row``).
        """
        if not self._trivial_faults or not self._cacheable_bandwidth:
            return None
        size = getattr(message, "wire_size", 0)
        transfer_row = self._transfer_row(sender, receivers, size)
        propagation_row = self.latency.delay_row(sender, receivers, rng)
        return [now + transfer + propagation
                for transfer, propagation in zip(transfer_row, propagation_row)]

    def broadcast_arrival_array(self, sender: int, receivers: Sequence[int],
                                message: Message, now: float,
                                rng: random.Random):
        """Vectorized :meth:`broadcast_arrival_row`.

        ``(now + transfer) + propagation`` evaluated as two elementwise
        float64 adds, preserving the scalar path's left-to-right rounding.
        The jitter draws (inside ``delay_row_array``) are made one scalar
        ``rng.random()`` at a time in receiver order, so the stream matches
        the scalar path exactly.  All gates — including the latency model's
        — are checked before any draw, so returning ``None`` leaves the rng
        untouched for the :meth:`broadcast_times` fallback.
        """
        if not self._trivial_faults or not self._cacheable_bandwidth:
            return None
        latency = self.latency
        if self._latency_jitter_free:
            nominal_row_array = getattr(latency, "nominal_row_array", None)
            if nominal_row_array is None:
                return None
            propagation_arr = nominal_row_array(sender, receivers)
        else:
            delay_row_array = getattr(latency, "delay_row_array", None)
            if delay_row_array is None:
                return None
            propagation_arr = delay_row_array(sender, receivers, rng)
        if propagation_arr is None:
            return None
        size = getattr(message, "wire_size", 0)
        # ``(now + transfer) + propagation`` with the second add done in
        # place on the fresh left-hand temporary (never the cached rows).
        arrivals = now + self._transfer_array(sender, receivers, size)
        arrivals += propagation_arr
        return arrivals

    def _transfer_array(self, sender: int, receivers: Sequence[int], size: int):
        """:meth:`_transfer_row` as a cached numpy array (same validation)."""
        key = (sender, size)
        entry = self._transfer_array_cache.get(key)
        if entry is not None and (entry[0] is receivers or entry[0] == receivers):
            return entry[1]
        arr = _np.asarray(self._transfer_row(sender, receivers, size),
                          dtype=_np.float64)
        self._transfer_array_cache[key] = (tuple(receivers), arr)
        return arr


class ContendedUplinkTransport(Transport):
    """Sender-uplink contention: outgoing bytes serialize on one NIC queue.

    Each replica has a single uplink of ``uplink_bytes_per_s``; a copy can
    start serializing only once the sender's previously queued bytes have
    drained (FIFO).  A broadcast therefore drains sequentially: copy ``i``
    of an n-way broadcast waits for the first ``i−1`` copies, so a leader's
    proposal fan-out costs ``(n−1) · size / uplink`` of sender time rather
    than being free — the effect that separates rotating-leader fast paths
    from single-leader bottleneck protocols.

    Self-deliveries are loopback and bypass the NIC.  Dropped copies do not
    occupy the uplink (loss is modelled end-to-end, as in
    :class:`DirectTransport`).  Per-copy wire time is
    ``per_message_overhead + size / uplink_bytes_per_s``, reusing the
    bandwidth model's overhead term; propagation comes from the latency
    model as usual.
    """

    name = "contended"

    #: Default uplink capacity: 1 Gbit/s, the paper's instance uplink.
    DEFAULT_UPLINK_BYTES_PER_S = 125_000_000.0

    def __init__(self, latency: LatencyModel, bandwidth: BandwidthModel,
                 faults: FaultPlan,
                 uplink_bytes_per_s: Optional[float] = None) -> None:
        super().__init__(latency, bandwidth, faults)
        if uplink_bytes_per_s is None:
            uplink_bytes_per_s = self.DEFAULT_UPLINK_BYTES_PER_S
        if uplink_bytes_per_s <= 0:
            raise ValueError("uplink capacity must be positive")
        self.uplink_bytes_per_s = float(uplink_bytes_per_s)
        self._nic_free_at: Dict[int, float] = {}
        self.reset()

    def reset(self) -> None:
        """Clear the NIC queues and counters."""
        self._nic_free_at.clear()
        self._wire_bytes = 0
        self._queued_messages = 0
        self._queue_delay_total = 0.0
        self._queue_delay_max = 0.0

    def stats(self) -> Dict[str, object]:
        """Uplink counters: wire bytes, copies that queued, queueing delay."""
        return {
            "transport": self.name,
            "uplink_bytes_per_s": self.uplink_bytes_per_s,
            "wire_bytes": self._wire_bytes,
            "queued_messages": self._queued_messages,
            "queue_delay_total_s": self._queue_delay_total,
            "queue_delay_max_s": self._queue_delay_max,
        }

    def unicast(self, sender: int, receiver: int, message: Message, now: float,
                rng: random.Random) -> Optional[Delivery]:
        """Copy through the sender's NIC queue (loopback for self-sends).

        A partition holds the copy *after* it leaves the NIC (the period of
        asynchrony is in the network, not the sender): the uplink drains
        from ``now`` regardless, so partitioned traffic never reserves the
        NIC from a future release time while the link sits idle.  Partition
        membership is evaluated at the NIC-departure time, so a copy whose
        backlog pushes its departure into a later partition window is held
        like any other message travelling at that time.
        """
        size = getattr(message, "wire_size", 0)
        faults = None
        if not self._trivial_faults:
            faults = self.faults
            if faults.should_drop(sender, receiver, now, rng):
                return None
        propagation = self.latency.delay(sender, receiver, rng)
        if receiver == sender:
            # Loopback: no uplink involved; charge only the LAN-side transfer.
            transfer = self.bandwidth.transfer_time(sender, receiver, size)
            done = now + transfer
            hold = 0.0
            if faults is not None:
                release = faults.partition_release(sender, receiver, done)
                if release is not None:
                    hold = release - done
                    done = release
            return Delivery(receiver, done + propagation,
                            hold, 0.0, transfer, propagation)
        transfer = (self.bandwidth.per_message_overhead_s
                    + size / self.uplink_bytes_per_s)
        start = self._nic_free_at.get(sender, 0.0)
        if start < now:
            start = now
        queue = start - now
        done = start + transfer
        self._nic_free_at[sender] = done
        self._wire_bytes += size
        if queue > 0.0:
            self._queued_messages += 1
            self._queue_delay_total += queue
            if queue > self._queue_delay_max:
                self._queue_delay_max = queue
        hold = 0.0
        if faults is not None:
            release = faults.partition_release(sender, receiver, done)
            if release is not None:
                hold = release - done
                done = release
        return Delivery(receiver, done + propagation,
                        hold, queue, transfer, propagation)

    def broadcast_arrival_row(self, sender: int, receivers: Sequence[int],
                              message: Message, now: float,
                              rng: random.Random) -> Optional[List[float]]:
        """The fault-free NIC drain: :meth:`unicast` per copy, hoisted.

        Every copy of one broadcast has the same wire size, so the drain is
        one running ``nic += transfer`` sum with one dict store at the end.
        The arithmetic is bit-identical: after the first wire copy the NIC
        free time always exceeds ``now``, so ``max(free, now)`` degenerates
        to the running sum; one ``delay_row`` takes the per-copy draws.
        """
        if not self._trivial_faults:
            return None
        size = getattr(message, "wire_size", 0)
        propagation_row = self.latency.delay_row(sender, receivers, rng)
        transfer = (self.bandwidth.per_message_overhead_s
                    + size / self.uplink_bytes_per_s)
        nic = self._nic_free_at.get(sender, 0.0)
        if nic < now:
            nic = now
        wire_copies = 0
        queued = 0
        queue_total = self._queue_delay_total
        queue_max = self._queue_delay_max
        row: List[float] = []
        append = row.append
        for receiver, propagation in zip(receivers, propagation_row):
            if receiver == sender:
                append(now + self.bandwidth.transfer_time(sender, receiver, size)
                       + propagation)
                continue
            queue = nic - now
            nic += transfer
            wire_copies += 1
            if queue > 0.0:
                queued += 1
                queue_total += queue
                if queue > queue_max:
                    queue_max = queue
            append(nic + propagation)
        if wire_copies:
            self._nic_free_at[sender] = nic
            self._wire_bytes += wire_copies * size
            self._queued_messages += queued
            self._queue_delay_total = queue_total
            self._queue_delay_max = queue_max
        return row


class RelayTransport(Transport):
    """Dissemination trees: broadcasts fan out through ``k`` relay replicas.

    A broadcast sends direct copies to the sender itself and to the first
    ``k`` live non-sender receivers (the relays); every remaining receiver
    is assigned to a relay round-robin and gets its copy *forwarded*: it
    arrives at ``relay_arrival + transfer(relay, receiver) +
    propagation(relay, receiver)``.  The sender thus puts only ``k`` copies
    on its uplink regardless of n, at the price of one extra hop for the
    non-relay receivers.

    Robustness choices (kept deliberately simple):

    * random loss is decided once end-to-end per receiver, with the same
      ``sender → receiver`` draw a direct broadcast would use, so loss
      rates are comparable across transports;
    * crashed relays are never selected, and if a relay's own copy is lost
      the sender falls back to serving that relay's children directly — a
      one-shot stand-in for the retransmission a real dissemination layer
      would perform, so a lost relay never silences its whole subtree.

    Unicasts do not use relays; they behave exactly like
    :class:`DirectTransport`.
    """

    name = "relay"

    def __init__(self, latency: LatencyModel, bandwidth: BandwidthModel,
                 faults: FaultPlan, relays: int = 2) -> None:
        super().__init__(latency, bandwidth, faults)
        if relays < 1:
            raise ValueError("relay count must be positive")
        self.relays = relays
        self.reset()
        self._direct = DirectTransport(latency, bandwidth, faults)

    def reset(self) -> None:
        """Clear the wire counters."""
        self._wire_copies = 0
        self._wire_bytes = 0
        self._sender_copies = 0
        self._sender_bytes = 0

    def stats(self) -> Dict[str, object]:
        """Wire counters for the tree.

        ``wire_copies``/``wire_bytes`` count per-link transmissions: every
        delivery is exactly one new transmission (a forwarded child reuses
        the already-counted sender→relay hop), so a full tree costs the
        same n−1 transmissions a direct broadcast does.  The tree's payoff
        is in ``sender_copies``/``sender_bytes`` — the share transmitted by
        the *original sender*, O(k) per broadcast instead of O(n).
        """
        return {
            "transport": self.name,
            "relays": self.relays,
            "wire_copies": self._wire_copies,
            "wire_bytes": self._wire_bytes,
            "sender_copies": self._sender_copies,
            "sender_bytes": self._sender_bytes,
        }

    def unicast(self, sender: int, receiver: int, message: Message, now: float,
                rng: random.Random) -> Optional[Delivery]:
        """Point-to-point messages skip the tree entirely."""
        delivery = self._direct.unicast(sender, receiver, message, now, rng)
        if delivery is not None and receiver != sender:
            self._count_wire(sender=True, size=getattr(message, "wire_size", 0))
        return delivery

    def _count_wire(self, sender: bool, size: int) -> None:
        """Record one link transmission (``sender=True`` if the original
        sender transmitted it, as opposed to a relay)."""
        self._wire_copies += 1
        self._wire_bytes += size
        if sender:
            self._sender_copies += 1
            self._sender_bytes += size

    def broadcast(self, sender: int, receivers: Sequence[int], message: Message,
                  now: float, rng: random.Random) -> List[Delivery]:
        """Two-hop dissemination through the relay set.

        The rng order is fixed and documented: first the relays' direct
        copies (in receiver order), then one end-to-end drop draw plus one
        final-hop propagation draw per remaining receiver (in receiver
        order) — so executions are reproducible under a fixed seed.
        """
        size = getattr(message, "wire_size", 0)
        faults = self.faults
        relay_ids = [
            receiver for receiver in receivers
            if receiver != sender and not faults.is_crashed(receiver, now)
        ][: self.relays]
        if not relay_ids:
            deliveries = self._direct.broadcast(sender, receivers, message, now, rng)
            for delivery in deliveries:
                if delivery.receiver != sender:
                    self._count_wire(sender=True, size=size)
            return deliveries
        deliveries: List[Delivery] = []
        arrivals: Dict[int, float] = {}  # relay id -> arrival time (None if lost)
        for relay in relay_ids:
            delivery = self._direct.unicast(sender, relay, message, now, rng)
            if delivery is not None:
                arrivals[relay] = delivery.deliver_at
                deliveries.append(delivery)
                self._count_wire(sender=True, size=size)
        transfer_time = self.bandwidth.transfer_time
        delay = self.latency.delay
        child_index = 0
        for receiver in receivers:
            if receiver == sender:
                # Loopback: delivered, but never on the wire.
                delivery = self._direct.unicast(sender, receiver, message, now, rng)
                if delivery is not None:
                    deliveries.append(delivery)
                continue
            if receiver in relay_ids:
                continue
            relay = relay_ids[child_index % len(relay_ids)]
            child_index += 1
            if not self._trivial_faults and faults.should_drop(
                    sender, receiver, now, rng):
                continue
            forward_at = arrivals.get(relay)
            if forward_at is None:
                # The relay's copy was lost: the sender serves this child
                # directly (modelling repair/retransmission), with the same
                # partition hold a direct send would observe.
                send_time = now
                hold = 0.0
                if not self._trivial_faults:
                    release = faults.partition_release(sender, receiver, now)
                    if release is not None:
                        send_time = release
                        hold = release - now
                transfer = transfer_time(sender, receiver, size)
                propagation = delay(sender, receiver, rng)
                deliveries.append(Delivery(receiver,
                                           send_time + transfer + propagation,
                                           hold, 0.0, transfer, propagation))
                self._count_wire(sender=True, size=size)
                continue
            start = forward_at
            if not self._trivial_faults:
                release = faults.partition_release(relay, receiver, forward_at)
                if release is not None:
                    start = release
            transfer = transfer_time(relay, receiver, size)
            propagation = delay(relay, receiver, rng)
            # Decomposition: the whole upstream (sender→relay) leg is the
            # copy's queue_delay, the relay-side partition wait its hold —
            # so the Delivery invariant (components sum to deliver_at from
            # the broadcast instant) holds for forwarded copies too.
            deliveries.append(Delivery(receiver, start + transfer + propagation,
                                       start - forward_at, forward_at - now,
                                       transfer, propagation, via=relay))
            # One new transmission: the relay→child hop.  The sender→relay
            # hop was counted once when the relay's own copy was scheduled.
            self._count_wire(sender=False, size=size)
        return deliveries


#: Transport registry, keyed by the names accepted by
#: :class:`repro.runtime.simulator.NetworkConfig` and the CLI.
TRANSPORTS = {
    "direct": DirectTransport,
    "contended": ContendedUplinkTransport,
    "relay": RelayTransport,
}


def available_transports() -> List[str]:
    """The registered transport names, sorted."""
    return sorted(TRANSPORTS)


def build_transport(transport, latency: LatencyModel, bandwidth: BandwidthModel,
                    faults: FaultPlan, uplink_bytes_per_s: Optional[float] = None,
                    relays: int = 2) -> Transport:
    """Build (or adopt) the transport selected by a network configuration.

    Args:
        transport: a registered name (``"direct"``, ``"contended"``,
            ``"relay"``) or an already-constructed :class:`Transport`
            instance (adopted as-is after a :meth:`Transport.reset`).
        latency: propagation-delay model.
        bandwidth: transfer-time model.
        faults: fault plan consulted on every send.
        uplink_bytes_per_s: NIC capacity for ``"contended"`` (``None``
            selects the 1 Gbit/s default).
        relays: relay fan-out for ``"relay"``.

    Raises:
        KeyError: for an unknown transport name.
    """
    if isinstance(transport, Transport):
        transport.reset()
        return transport
    try:
        factory = TRANSPORTS[transport]
    except KeyError:
        available = ", ".join(available_transports())
        raise KeyError(
            f"unknown transport {transport!r} (available: {available})"
        ) from None
    if factory is ContendedUplinkTransport:
        return ContendedUplinkTransport(latency, bandwidth, faults,
                                        uplink_bytes_per_s=uplink_bytes_per_s)
    if factory is RelayTransport:
        return RelayTransport(latency, bandwidth, faults, relays=relays)
    return factory(latency, bandwidth, faults)
