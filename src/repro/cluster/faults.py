"""Socket-level fault injection: chaos schedules against live processes.

The chaos engine (:mod:`repro.chaos`) expresses faults as data — crash
windows, partitions, loss bursts, stragglers — and the simulator interprets
them inside its event loop.  :class:`SocketFaultInjector` interprets the
*same* :class:`repro.chaos.schedule.ChaosSchedule` inside the TCP
transport, so a shrunk chaos repro JSON replays against real processes:

* **crashes** mute the replica in both directions during the crash window
  (the process stays alive — a socket-level crash is a replica that neither
  sends nor receives, which is exactly the simulator's model);
* **partitions** drop traffic between the two groups during the window
  (TCP retransmission is below our frame layer, so a dropped frame is a
  lost message, matching the sim's partition-as-asynchrony only in effect:
  the protocols re-announce state on every round, which is how they
  recover in both backends);
* **loss bursts** drop each frame with the burst's probability;
* **stragglers** add the configured extra outbound delay to every frame
  the replica sends during the window.

Time is the cluster's shared epoch clock (seconds since the coordinated
start instant), so windows line up across processes to within OS clock
skew — milliseconds on one host, where local clusters run.

Drop decisions draw from a per-process seeded RNG; real-network execution
is not bit-for-bit deterministic anyway (socket scheduling is not), so the
seed only makes the *marginal* loss rate reproducible.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.chaos.schedule import ChaosSchedule
from repro.net.faults import FaultPlan


class SocketFaultInjector:
    """Per-node interpreter of a chaos schedule at the socket layer.

    Args:
        schedule: the fault schedule to replay.
        replica_id: the replica this injector's node runs.
        seed: RNG seed for probabilistic drops (mixed with the replica id
            so nodes draw independent streams).
    """

    def __init__(self, schedule: ChaosSchedule, replica_id: int,
                 seed: int = 0) -> None:
        self.schedule = schedule
        self.replica_id = replica_id
        self._plan: FaultPlan = schedule.to_fault_plan()
        self._stragglers = [fault for fault in schedule.stragglers()
                            if fault.replica == replica_id]
        self._rng = random.Random((seed << 16) ^ (replica_id * 0x9E3779B1))

    @property
    def idle(self) -> bool:
        """Whether the schedule holds no socket-level fault (no crash,
        partition, loss burst or straggler): every frame would pass
        untouched, so callers need not ask frame by frame."""
        return all(fault.kind == "byzantine" for fault in self.schedule.faults)

    @classmethod
    def none(cls, replica_id: int) -> "SocketFaultInjector":
        """An injector with no faults (every frame passes untouched)."""
        return cls(ChaosSchedule(), replica_id)

    def outbound(self, receiver: int, now: float) -> Optional[float]:
        """Judge one outbound frame at epoch time ``now``.

        Returns ``None`` when the frame must be dropped, otherwise the
        extra delay in seconds (0.0 for an untouched frame).
        """
        if self._plan.should_drop(self.replica_id, receiver, now, self._rng):
            return None
        if self._plan.partitions.blocks(self.replica_id, receiver, now):
            return None
        delay = 0.0
        for fault in self._stragglers:
            if fault.start <= now < (fault.end if fault.end is not None
                                     else float("inf")):
                delay += fault.delay
        return delay

    def inbound(self, sender: int, now: float) -> bool:
        """Whether an arriving frame may be delivered to the protocol.

        Mirrors the simulator's delivery-time check: a frame arriving while
        the receiver is inside a crash window is dropped even if it was
        sent before the window opened.
        """
        return not self._plan.is_crashed(self.replica_id, now)

    def self_crashed(self, now: float) -> bool:
        """Whether this node's replica is inside a crash window."""
        return self._plan.is_crashed(self.replica_id, now)
