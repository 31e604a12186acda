"""Transaction arrival processes for open-loop workload generation.

An :class:`ArrivalProcess` answers one question: given the current
simulation time, how long until the next client transaction arrives?  All
randomness flows through the caller-supplied :class:`random.Random`, so a
seeded generator produces the same arrival schedule on every run.
:meth:`ArrivalProcess.arrivals_until` asks it for every stamp up to a
horizon at once; the two fixed-rate processes answer that with a local loop
that makes the same draws and does the same arithmetic as calling
:meth:`~ArrivalProcess.next_interarrival` once per arrival.

Four processes cover the workload shapes the evaluation needs:

* :class:`ConstantRate` — a fixed inter-arrival time (deterministic offered
  load, the open-loop analogue of the paper's fixed payload sweep).
* :class:`PoissonArrivals` — memoryless arrivals at a fixed mean rate, the
  standard open-loop saturation workload.
* :class:`DiurnalArrivals` — a sine-modulated Poisson process mimicking a
  day/night demand cycle.
* :class:`FlashCrowdArrivals` — a baseline Poisson rate with a burst window
  at a much higher rate (a "flash crowd" spike).

The time-varying processes are non-homogeneous Poisson processes sampled by
thinning (Lewis & Shedler): candidate arrivals are drawn at the peak rate
and accepted with probability ``rate(t) / peak_rate``.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from typing import List, Tuple


def _check_rate(value: float, what: str = "arrival rate") -> float:
    """Validate a rate parameter: finite and strictly positive."""
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"{what} must be a finite positive number, got {value!r}")
    return value


class ArrivalProcess(ABC):
    """An arrival process: produces successive transaction inter-arrival times."""

    @abstractmethod
    def next_interarrival(self, now: float, rng: random.Random) -> float:
        """Return the time from ``now`` until the next arrival (seconds)."""

    @abstractmethod
    def rate(self, now: float) -> float:
        """Return the instantaneous arrival rate at ``now`` (tx/s)."""

    def arrivals_until(self, start: float, horizon: float,
                       rng: random.Random) -> Tuple[List[float], float]:
        """Every arrival stamp from ``start`` (itself an arrival) up to and
        including ``horizon``, plus the first stamp past it.

        Equal, draw for draw, to stepping :meth:`next_interarrival` from
        ``start``; the stamps list is empty when ``start > horizon``.
        """
        stamps: List[float] = []
        time = start
        while time <= horizon:
            stamps.append(time)
            time += self.next_interarrival(time, rng)
        return stamps, time


class ConstantRate(ArrivalProcess):
    """Arrivals at exactly ``rate`` transactions per second, evenly spaced."""

    def __init__(self, rate: float) -> None:
        self._rate = _check_rate(rate)

    def next_interarrival(self, now: float, rng: random.Random) -> float:
        return 1.0 / self._rate

    def rate(self, now: float) -> float:
        return self._rate

    def arrivals_until(self, start: float, horizon: float,
                       rng: random.Random) -> Tuple[List[float], float]:
        stamps: List[float] = []
        append, gap, time = stamps.append, 1.0 / self._rate, start
        while time <= horizon:
            append(time)
            time += gap
        return stamps, time


class PoissonArrivals(ArrivalProcess):
    """Memoryless (exponential inter-arrival) arrivals at a fixed mean rate."""

    def __init__(self, rate: float) -> None:
        self._rate = _check_rate(rate)

    def next_interarrival(self, now: float, rng: random.Random) -> float:
        return rng.expovariate(self._rate)

    def rate(self, now: float) -> float:
        return self._rate

    def arrivals_until(self, start: float, horizon: float,
                       rng: random.Random) -> Tuple[List[float], float]:
        # ``-log(1.0 - random()) / rate`` is ``Random.expovariate`` spelled
        # out, so the draws and the floats are the same as one call per gap.
        stamps: List[float] = []
        append, draw, log, rate = stamps.append, rng.random, math.log, self._rate
        time = start
        while time <= horizon:
            append(time)
            time += -log(1.0 - draw()) / rate
        return stamps, time


class _ModulatedPoisson(ArrivalProcess):
    """Non-homogeneous Poisson process sampled by thinning.

    Subclasses define :meth:`rate` and the peak rate bound; candidates are
    drawn at the peak rate and accepted with probability ``rate / peak``.
    """

    def __init__(self, peak_rate: float) -> None:
        self._peak_rate = _check_rate(peak_rate, "peak rate")

    def next_interarrival(self, now: float, rng: random.Random) -> float:
        elapsed = 0.0
        while True:
            elapsed += rng.expovariate(self._peak_rate)
            if rng.random() * self._peak_rate <= self.rate(now + elapsed):
                return elapsed


class DiurnalArrivals(_ModulatedPoisson):
    """Sine-modulated Poisson arrivals: a synthetic day/night demand cycle.

    The instantaneous rate is::

        base_rate * (1 + amplitude * sin(2π * (t + phase) / period))

    clamped at zero, so ``amplitude = 1`` swings from silence to twice the
    base rate over one period.

    Args:
        base_rate: mean arrival rate in tx/s.
        amplitude: relative swing in ``[0, 1]``.
        period: cycle length in (simulated) seconds.
        phase: offset into the cycle at ``t = 0``, in seconds.
    """

    def __init__(self, base_rate: float, amplitude: float = 0.8,
                 period: float = 60.0, phase: float = 0.0) -> None:
        _check_rate(base_rate, "base rate")
        if not 0.0 <= amplitude <= 1.0:
            raise ValueError("amplitude must be in [0, 1]")
        if period <= 0:
            raise ValueError("period must be positive")
        super().__init__(base_rate * (1.0 + amplitude))
        self._base_rate = base_rate
        self._amplitude = amplitude
        self._period = period
        self._phase = phase

    def rate(self, now: float) -> float:
        angle = 2.0 * math.pi * (now + self._phase) / self._period
        return max(0.0, self._base_rate * (1.0 + self._amplitude * math.sin(angle)))


class FlashCrowdArrivals(_ModulatedPoisson):
    """Poisson arrivals with a burst window at a much higher rate.

    Outside ``[burst_start, burst_start + burst_duration)`` the process runs
    at ``base_rate``; inside the window it runs at ``burst_rate``.  Used to
    drive the flash-crowd scenario where mempools fill during the spike and
    drain afterwards.
    """

    def __init__(self, base_rate: float, burst_rate: float,
                 burst_start: float, burst_duration: float) -> None:
        _check_rate(base_rate, "base rate")
        _check_rate(burst_rate, "burst rate")
        if burst_duration <= 0:
            raise ValueError("burst duration must be positive")
        super().__init__(max(base_rate, burst_rate))
        self._base_rate = base_rate
        self._burst_rate = burst_rate
        self._burst_start = burst_start
        self._burst_end = burst_start + burst_duration

    def rate(self, now: float) -> float:
        if self._burst_start <= now < self._burst_end:
            return self._burst_rate
        return self._base_rate
