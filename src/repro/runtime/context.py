"""The replica context: everything a protocol may do to the outside world.

A protocol state machine never touches sockets, clocks, or queues directly.
It receives a :class:`ReplicaContext` and uses it to read the time, send and
broadcast messages, arm timers, and report committed blocks.  Every runtime
(discrete-event simulation, asyncio, a cluster node) fills the same record
with its own callables, so protocol code is identical under each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Tuple

from repro.types.messages import Message


@dataclass(frozen=True)
class Timer:
    """A timer event delivered back to the protocol.

    Attributes:
        name: protocol-chosen label, e.g. ``"proposal"`` or ``"round-timeout"``.
        fire_time: absolute time at which the timer fires.
        data: optional protocol-chosen payload (e.g. the round number).
        timer_id: unique id assigned by the runtime (used for cancellation).
    """

    name: str
    fire_time: float
    data: Any = None
    timer_id: int = field(default=-1, compare=False)


def check_delay(delay: float, what: str) -> None:
    """Raise a one-line ``ValueError`` unless ``delay`` is finite and >= 0.

    The one rule for every delay a run schedules: timers in each runtime,
    the simulator's external events and a straggler's extra delay.  NaN
    fails it too (every comparison with NaN is false).
    """
    if not (math.isfinite(delay) and delay >= 0):
        raise ValueError(f"{what} must be finite and non-negative, got {delay!r}")


class ReplicaContext:
    """Everything a protocol may do to its environment, as one record.

    A runtime builds one per replica from its own callables, and a wrapper
    (tracer, straggler) builds one whose callables wrap another context's.
    The contracts every runtime keeps:

    * ``replica_id`` — the id of the replica the context belongs to;
      ``replica_ids`` — every replica id in the system, sorted, as an
      immutable sequence shared across contexts (never mutate it).
    * ``now()`` — the current time in seconds.
    * ``send(receiver, message)`` — send ``message`` to one replica;
      ``broadcast(message)`` — send it to every replica, this one included.
    * ``set_timer(delay, name, data=None)`` — arm a timer firing ``delay``
      seconds from now (refused by :func:`check_delay` unless finite and
      non-negative); returns its id.  ``cancel_timer(timer_id)`` cancels
      it, and is a no-op for a timer that already fired.
    * ``commit(blocks, finalization_kind="slow")`` — report newly finalized
      blocks, oldest first.  ``finalization_kind`` is ``"fast"`` if the
      newest block was FP-finalized, ``"slow"`` otherwise; implicitly
      finalized ancestors inherit the kind of the explicit finalization
      that committed them.
    """

    __slots__ = ("replica_id", "replica_ids", "now", "send", "broadcast",
                 "set_timer", "cancel_timer", "commit")

    def __init__(self, replica_id: int, replica_ids: Tuple[int, ...], *,
                 now: Callable[[], float],
                 send: Callable[[int, Message], None],
                 broadcast: Callable[[Message], None],
                 set_timer: Callable[..., int],
                 cancel_timer: Callable[[int], None],
                 commit: Callable[..., None]) -> None:
        self.replica_id = replica_id
        self.replica_ids = replica_ids
        self.now = now
        self.send = send
        self.broadcast = broadcast
        self.set_timer = set_timer
        self.cancel_timer = cancel_timer
        self.commit = commit
