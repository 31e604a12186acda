"""The protocol-free flood: every replica broadcasts on a periodic timer.

A copy of ``benchmarks/bench_simulator.py``'s ``FloodProtocol`` — that file
lies outside this benchmark's ``paths``, so it cannot be imported from here.
With no protocol logic in the way, the run is scheduler + dispatch loop +
latency/transport sampling and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.protocols.base import Protocol, ProtocolParams

#: Broadcast period per replica, in simulated seconds.
TICK = 0.05


@dataclass(frozen=True)
class Blast:
    """Fixed-size benchmark message."""

    wire_size: int = 1024


class FloodProtocol(Protocol):
    """Every replica broadcasts on a periodic timer; receipts are ignored."""

    name = "flood"

    def __init__(self, replica_id: int, params: ProtocolParams) -> None:
        super().__init__(replica_id, params)
        self.timer_fires = 0

    def on_start(self, ctx) -> None:
        ctx.set_timer(TICK, "tick")

    def on_message(self, ctx, sender, message) -> None:
        pass

    def on_timer(self, ctx, timer) -> None:
        self.timer_fires += 1
        ctx.broadcast(Blast())
        ctx.set_timer(TICK, "tick")
