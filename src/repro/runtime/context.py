"""The replica context: everything a protocol may do to the outside world.

A protocol state machine never touches sockets, clocks, or queues directly.
It receives a :class:`ReplicaContext` and uses it to read the time, send and
broadcast messages, arm timers, and report committed blocks.  Both execution
backends (discrete-event simulation and asyncio) implement this interface, so
protocol code is identical under either.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

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


class ReplicaContext(ABC):
    """Interface through which a protocol interacts with its environment."""

    @property
    @abstractmethod
    def replica_id(self) -> int:
        """The id of the replica this context belongs to."""

    @property
    @abstractmethod
    def replica_ids(self) -> Sequence[int]:
        """All replica ids in the system (sorted).

        Implementations may return an immutable sequence (the simulator
        hands out a cached tuple); callers must not mutate it.
        """

    @abstractmethod
    def now(self) -> float:
        """Return the current time in seconds."""

    @abstractmethod
    def send(self, receiver: int, message: Message) -> None:
        """Send ``message`` to a single replica."""

    @abstractmethod
    def broadcast(self, message: Message) -> None:
        """Send ``message`` to every replica, including this one."""

    @abstractmethod
    def set_timer(self, delay: float, name: str, data: Any = None) -> int:
        """Arm a timer firing ``delay`` seconds from now; returns its id."""

    @abstractmethod
    def cancel_timer(self, timer_id: int) -> None:
        """Cancel a previously armed timer (no-op if already fired)."""

    @abstractmethod
    def commit(self, blocks, finalization_kind: str = "slow") -> None:
        """Report newly finalized blocks, oldest first.

        Args:
            blocks: the finalized blocks being output, in chain order.
            finalization_kind: ``"fast"`` if the newest block was FP-finalized,
                ``"slow"`` otherwise.  Implicitly finalized ancestors inherit
                the kind of the explicit finalization that committed them.
        """
