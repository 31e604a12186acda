"""Declarative workload configuration for the experiment harness and CLI.

:class:`WorkloadSpec` is the serialisable description of a client workload:
which client model (open or closed loop), which arrival process and rate,
transaction size, block budget, and mempool limits.  The experiment layer
(:mod:`repro.eval.experiment`) turns a spec into a live
:class:`repro.workload.clients.ClientPool` plus
:class:`repro.workload.payloads.MempoolPayloadSource` pair, keeping the
protocol and runtime layers unaware of how traffic is generated.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.workload.arrivals import (
    ArrivalProcess,
    ConstantRate,
    DiurnalArrivals,
    FlashCrowdArrivals,
    PoissonArrivals,
    _check_rate,
)
from repro.workload.clients import ClientPool
from repro.workload.transactions import MAX_HEADER_BYTES

#: Arrival process names accepted by :attr:`WorkloadSpec.arrival`.
ARRIVAL_KINDS = ("poisson", "constant", "diurnal", "flash-crowd")

#: Client models accepted by :attr:`WorkloadSpec.mode`.
MODES = ("open", "closed")


@dataclass
class WorkloadSpec:
    """Configuration of one client workload.

    Attributes:
        mode: ``"open"`` (arrival-process-driven) or ``"closed"``
            (fixed client population with think times).
        arrival: arrival process kind for the open-loop model, one of
            :data:`ARRIVAL_KINDS`.
        rate: mean arrival rate in tx/s (open loop).
        num_clients: client population size.
        think_time: mean think time in seconds (closed loop).
        tx_size: logical transaction size in bytes.
        max_block_bytes: per-proposal byte budget drained from the mempool.
        mempool_capacity: per-replica mempool transaction-count limit.
        mempool_max_bytes: optional per-replica mempool byte limit.
        sample_interval: mempool occupancy sampling period in seconds.
        seed: workload RNG seed (arrivals, think times).
        period: diurnal cycle length in seconds.
        amplitude: diurnal relative swing in ``[0, 1]``.
        burst_rate: flash-crowd rate during the burst window, in tx/s.
        burst_start: flash-crowd burst start time in seconds.
        burst_duration: flash-crowd burst length in seconds.
    """

    mode: str = "open"
    arrival: str = "poisson"
    rate: float = 50.0
    num_clients: int = 8
    think_time: float = 0.5
    tx_size: int = 256
    max_block_bytes: int = 65_536
    mempool_capacity: int = 10_000
    mempool_max_bytes: Optional[int] = None
    sample_interval: float = 0.5
    seed: int = 0
    period: float = 30.0
    amplitude: float = 0.8
    burst_rate: float = 400.0
    burst_start: float = 8.0
    burst_duration: float = 4.0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "open" and self.arrival not in ARRIVAL_KINDS:
            raise ValueError(
                f"arrival must be one of {ARRIVAL_KINDS}, got {self.arrival!r}"
            )
        _check_rate(self.rate, "rate")
        if self.num_clients <= 0:
            raise ValueError("num_clients must be positive")
        if not (math.isfinite(self.think_time) and self.think_time >= 0):
            raise ValueError("think_time must be finite and non-negative")
        if self.mempool_capacity <= 0:
            raise ValueError("mempool_capacity must be positive")
        if self.mempool_max_bytes is not None and self.mempool_max_bytes <= 0:
            raise ValueError("mempool_max_bytes must be positive when set")
        if not (math.isfinite(self.sample_interval) and self.sample_interval >= 0):
            raise ValueError("sample_interval must be finite and non-negative "
                             "(0 disables the probe)")
        if self.tx_size <= 0:
            raise ValueError("tx_size must be positive")
        if max(self.tx_size, MAX_HEADER_BYTES) > self.max_block_bytes:
            # An oversized head-of-queue transaction would wedge the mempool
            # forever (take() refuses transactions above the budget).  The
            # bound is on the worst-case *encoded* size: a tiny tx_size still
            # yields a header of up to MAX_HEADER_BYTES bytes.
            raise ValueError(
                "max_block_bytes must be at least "
                f"max(tx_size, {MAX_HEADER_BYTES}) to fit every transaction"
            )

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready dictionary (inverse of :meth:`from_dict`)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "WorkloadSpec":
        """Rebuild a spec from :meth:`to_dict` output (unknown keys ignored).

        Raises:
            ValueError: if ``data`` selects the removed aggregated-flow
                client model, rather than silently running the exact one.
        """
        if "fluid" in data or "fluid_tick" in data:
            raise ValueError("the fluid client model was removed; drop the "
                             "'fluid' / 'fluid_tick' keys to run the exact model")
        names = {field.name for field in dataclasses.fields(cls)}
        return cls(**{key: value for key, value in data.items() if key in names})

    def build_arrivals(self) -> Optional[ArrivalProcess]:
        """Build the arrival process (``None`` for the closed-loop model)."""
        if self.mode != "open":
            return None
        if self.arrival == "poisson":
            return PoissonArrivals(self.rate)
        if self.arrival == "constant":
            return ConstantRate(self.rate)
        if self.arrival == "diurnal":
            return DiurnalArrivals(self.rate, amplitude=self.amplitude,
                                   period=self.period)
        return FlashCrowdArrivals(self.rate, burst_rate=self.burst_rate,
                                  burst_start=self.burst_start,
                                  burst_duration=self.burst_duration)

    def build_pool(self) -> ClientPool:
        """Build a fresh client pool for one run of this spec."""
        return ClientPool(
            arrivals=self.build_arrivals(),
            num_clients=self.num_clients,
            think_time=self.think_time,
            tx_size=self.tx_size,
            mempool_capacity=self.mempool_capacity,
            mempool_max_bytes=self.mempool_max_bytes,
            sample_interval=self.sample_interval,
            seed=self.seed,
        )
