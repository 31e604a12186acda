"""Fault injection: crashes (with recovery), message loss, and partitions.

The paper's crash-fault experiment (Section 9.4, Figure 6d) kills a subset of
replicas and measures throughput and block intervals; the protocol analysis
also requires tolerating asynchrony (arbitrary message delay/loss before GST)
and Byzantine replicas (handled separately in :mod:`repro.byzantine`).

A :class:`FaultPlan` combines:

* a :class:`CrashSchedule` — which replicas crash (and optionally recover)
  and when;
* a drop probability — uniform random message loss;
* a tuple of :class:`LossBurst` windows — time-bounded message-loss storms
  on top of the uniform probability;
* a :class:`PartitionPlan` — time windows during which two groups of
  replicas cannot exchange messages (used to model periods of asynchrony).

**Boundary semantics.**  Every fault interval in this module is half-open,
``[start, end)``: a fault is active at exactly its start instant and
inactive at exactly its end instant.  Concretely,

* a replica with ``crash_times[r] = t`` is crashed at ``t`` itself, and one
  with ``recover_times[r] = t'`` is alive again at exactly ``t'`` (the
  crash window is ``[t, t')``, or ``[t, ∞)`` without a recovery);
* a :class:`PartitionWindow` separates its groups during ``[start, end)``
  — a message travelling at exactly ``end`` is unaffected;
* a :class:`LossBurst` applies its loss probability during ``[start, end)``.

The same rule is applied on both sides of a message's life: the *send-time*
check (:meth:`FaultPlan.should_drop`, consulted by the transport) and the
*delivery-time* check (the simulator re-testing the receiver when the copy
arrives) use the identical :meth:`FaultPlan.is_crashed` predicate, so a
crash at time ``t`` symmetrically kills sends departing at ``t`` and
deliveries arriving at ``t``.  A copy already in flight when its receiver
crashes is dropped on arrival; a copy arriving at or after the receiver's
recovery instant is delivered.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class CrashSchedule:
    """Replica crash (and optional recovery) times.

    Attributes:
        crash_times: mapping replica id → simulation time (seconds) at which
            the replica stops sending and receiving.  A time of 0 means the
            replica is down from the start.
        recover_times: mapping replica id → time at which a crashed replica
            comes back up.  The crash window is half-open,
            ``[crash_times[r], recover_times[r])``; replicas without an
            entry stay down forever.  Recovery models a restart with
            durable protocol state: the replica resumes with the state it
            had at the crash instant, but timers that fired while it was
            down are lost (the runtime simply never delivers them).
    """

    crash_times: Dict[int, float] = field(default_factory=dict)
    recover_times: Dict[int, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # NaN fails both checks (every comparison with NaN is false), which
        # is_crashed would otherwise misread.
        for replica_id, crash_time in self.crash_times.items():
            if not (math.isfinite(crash_time) and crash_time >= 0):
                raise ValueError(
                    f"crash time of replica {replica_id} must be finite and "
                    f"non-negative, got {crash_time!r}"
                )
        for replica_id, recover_time in self.recover_times.items():
            if not math.isfinite(recover_time):
                raise ValueError(
                    f"recovery time of replica {replica_id} must be finite, "
                    f"got {recover_time!r}"
                )
            crash_time = self.crash_times.get(replica_id)
            if crash_time is None:
                raise ValueError(
                    f"replica {replica_id} has a recovery but no crash time"
                )
            if recover_time <= crash_time:
                raise ValueError(
                    f"replica {replica_id} must recover strictly after crashing"
                )

    @classmethod
    def crashed_from_start(cls, replica_ids: Iterable[int]) -> "CrashSchedule":
        """Crash the given replicas before the experiment begins."""
        return cls(crash_times={replica_id: 0.0 for replica_id in replica_ids})

    def is_crashed(self, replica_id: int, at_time: float) -> bool:
        """Return whether ``replica_id`` is crashed at ``at_time``.

        The crash window is half-open: crashed at exactly the crash time,
        alive again at exactly the recovery time.
        """
        crash_time = self.crash_times.get(replica_id)
        if crash_time is None or at_time < crash_time:
            return False
        recover_time = self.recover_times.get(replica_id)
        return recover_time is None or at_time < recover_time

    def recover_time(self, replica_id: int) -> Optional[float]:
        """Return when ``replica_id`` recovers, or ``None`` if it never does."""
        return self.recover_times.get(replica_id)

    def crashed_replicas(self, at_time: float) -> FrozenSet[int]:
        """Return the set of replicas crashed at ``at_time``."""
        return frozenset(
            replica_id
            for replica_id in self.crash_times
            if self.is_crashed(replica_id, at_time)
        )


@dataclass(frozen=True)
class LossBurst:
    """A time window during which messages are additionally lost.

    Models a loss storm (a flapping switch, a congested peering link): every
    message sent during ``[start, end)`` is dropped with ``probability``,
    *on top of* the plan's uniform drop probability.

    Attributes:
        start: burst start (inclusive).
        end: burst end (exclusive).
        probability: per-message loss probability inside the window.
    """

    start: float
    end: float
    probability: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("loss-burst probability must be in [0, 1]")
        if self.end <= self.start:
            raise ValueError("loss-burst window must have positive length")

    def covers(self, at_time: float) -> bool:
        """Return whether ``at_time`` falls inside the half-open window."""
        return self.start <= at_time < self.end


@dataclass(frozen=True)
class PartitionWindow:
    """A time window during which two replica groups are disconnected.

    The window is half-open: the partition separates its groups at exactly
    ``start`` and no longer separates them at exactly ``end``.
    """

    start: float
    end: float
    group_a: FrozenSet[int]
    group_b: FrozenSet[int]

    def separates(self, sender: int, receiver: int, at_time: float) -> bool:
        """Return whether the partition blocks ``sender → receiver`` at ``at_time``."""
        if not (self.start <= at_time < self.end):
            return False
        return (sender in self.group_a and receiver in self.group_b) or (
            sender in self.group_b and receiver in self.group_a
        )


@dataclass(frozen=True)
class PartitionPlan:
    """A collection of partition windows."""

    windows: Tuple[PartitionWindow, ...] = ()

    @classmethod
    def single(cls, start: float, end: float, group_a: Sequence[int],
               group_b: Sequence[int]) -> "PartitionPlan":
        """Create a plan with one partition window."""
        return cls(
            windows=(
                PartitionWindow(
                    start=start,
                    end=end,
                    group_a=frozenset(group_a),
                    group_b=frozenset(group_b),
                ),
            )
        )

    def blocks(self, sender: int, receiver: int, at_time: float) -> bool:
        """Return whether any window blocks the message."""
        return any(window.separates(sender, receiver, at_time) for window in self.windows)


class FaultPlan:
    """Combined fault injection consulted by the network on every message."""

    def __init__(
        self,
        crash_schedule: Optional[CrashSchedule] = None,
        drop_probability: float = 0.0,
        partitions: Optional[PartitionPlan] = None,
        loss_bursts: Sequence[LossBurst] = (),
    ) -> None:
        if not 0.0 <= drop_probability < 1.0:
            raise ValueError("drop probability must be in [0, 1)")
        self.crash_schedule = crash_schedule or CrashSchedule()
        self.drop_probability = drop_probability
        self.partitions = partitions or PartitionPlan()
        self.loss_bursts: Tuple[LossBurst, ...] = tuple(loss_bursts)

    @classmethod
    def none(cls) -> "FaultPlan":
        """A plan with no faults."""
        return cls()

    @classmethod
    def with_crashed(cls, replica_ids: Iterable[int]) -> "FaultPlan":
        """A plan in which the given replicas are crashed from the start."""
        return cls(crash_schedule=CrashSchedule.crashed_from_start(replica_ids))

    def is_crashed(self, replica_id: int, at_time: float) -> bool:
        """Return whether ``replica_id`` is crashed at ``at_time``."""
        return self.crash_schedule.is_crashed(replica_id, at_time)

    def should_drop(self, sender: int, receiver: int, at_time: float,
                    rng: random.Random) -> bool:
        """Decide whether a ``sender → receiver`` message at ``at_time`` is lost.

        Crashed endpoints and random loss (uniform or burst) drop the
        message.  Partitions do *not* drop — in the partially synchronous
        model a partition is a period of asynchrony during which messages
        are arbitrarily delayed but eventually delivered; see
        :meth:`partition_release`.

        The rng is consulted only for the probabilistic checks that apply
        at ``at_time`` (the uniform draw when ``drop_probability > 0``, one
        draw per covering burst), so executions without those faults
        consume the stream exactly as before.
        """
        if self.is_crashed(sender, at_time) or self.is_crashed(receiver, at_time):
            return True
        if self.drop_probability > 0 and rng.random() < self.drop_probability:
            return True
        for burst in self.loss_bursts:
            if burst.covers(at_time) and rng.random() < burst.probability:
                return True
        return False

    def drop_draws_rng(self, at_time: float) -> bool:
        """Whether :meth:`should_drop` may consume the rng at ``at_time``.

        True when the uniform drop probability is active or a loss burst
        covers ``at_time``.  Crash and partition checks never draw, so when
        this is False a batched caller may reorder fault checks relative to
        propagation sampling without perturbing the rng stream.
        """
        if self.drop_probability > 0:
            return True
        for burst in self.loss_bursts:
            if burst.covers(at_time):
                return True
        return False

    def partition_release(self, sender: int, receiver: int, at_time: float) -> Optional[float]:
        """Return when a partition-blocked message may start travelling.

        ``None`` means the message is not blocked at ``at_time``.  Otherwise
        the earliest time at which no partition window separates the two
        replicas is returned (messages are held back, not lost, modelling a
        period of asynchrony before GST).  Windows are half-open, so a
        blocked message is released at exactly the blocking window's end.
        """
        release = at_time
        blocked = True
        # Windows may chain back to back; iterate until no window blocks.
        for _ in range(len(self.partitions.windows) + 1):
            blocked = False
            for window in self.partitions.windows:
                if window.separates(sender, receiver, release):
                    release = max(release, window.end)
                    blocked = True
            if not blocked:
                break
        if release <= at_time:
            return None
        return release

    def correct_replicas(self, replica_ids: Sequence[int], at_time: float = float("inf")) -> List[int]:
        """Return the replicas not crashed at ``at_time`` (default: the end
        of time, i.e. replicas that are eventually up — a replica with a
        recovery time counts as correct)."""
        return [r for r in replica_ids if not self.is_crashed(r, at_time)]

    # ------------------------------------------------------------------ #
    # Serialization (for experiment plans and result caches)
    # ------------------------------------------------------------------ #

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready dictionary (inverse of :meth:`from_dict`).

        Replica ids become string keys (JSON objects) and partition groups
        become sorted lists, so equal plans serialize identically — the
        experiment cache keys on this representation.  The recovery and
        loss-burst fields are emitted only when non-empty, so plans written
        before those faults existed serialize (and content-hash) exactly as
        they always did.
        """
        data: Dict[str, object] = {
            "crash_times": {
                str(replica_id): crash_time
                for replica_id, crash_time in sorted(self.crash_schedule.crash_times.items())
            },
            "drop_probability": self.drop_probability,
            "partitions": [
                {
                    "start": window.start,
                    "end": window.end,
                    "group_a": sorted(window.group_a),
                    "group_b": sorted(window.group_b),
                }
                for window in self.partitions.windows
            ],
        }
        if self.crash_schedule.recover_times:
            data["recover_times"] = {
                str(replica_id): recover_time
                for replica_id, recover_time in sorted(self.crash_schedule.recover_times.items())
            }
        if self.loss_bursts:
            data["loss_bursts"] = [
                {"start": burst.start, "end": burst.end,
                 "probability": burst.probability}
                for burst in self.loss_bursts
            ]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        crash_times = {
            int(replica_id): float(crash_time)
            for replica_id, crash_time in data.get("crash_times", {}).items()
        }
        recover_times = {
            int(replica_id): float(recover_time)
            for replica_id, recover_time in data.get("recover_times", {}).items()
        }
        windows = tuple(
            PartitionWindow(
                start=float(window["start"]),
                end=float(window["end"]),
                group_a=frozenset(int(r) for r in window["group_a"]),
                group_b=frozenset(int(r) for r in window["group_b"]),
            )
            for window in data.get("partitions", [])
        )
        bursts = tuple(
            LossBurst(start=float(burst["start"]), end=float(burst["end"]),
                      probability=float(burst["probability"]))
            for burst in data.get("loss_bursts", [])
        )
        return cls(
            crash_schedule=CrashSchedule(crash_times=crash_times,
                                         recover_times=recover_times),
            drop_probability=float(data.get("drop_probability", 0.0)),
            partitions=PartitionPlan(windows=windows),
            loss_bursts=bursts,
        )
