"""Randomized fault schedules: what the chaos engine throws at a run.

A :class:`ChaosSchedule` is an explicit, JSON-serialisable list of fault
events — crashes with optional recoveries, partition windows, loss bursts,
straggler phases, and planted Byzantine replicas.  Schedules come from two
places:

* :class:`ScheduleGenerator` samples one from a seeded RNG, drawing each
  fault family from an independent stream
  (:func:`repro.eval.seeds.derive_subseed`), under constraints that keep the
  configuration honest-majority: at most ``f`` replicas are ever Byzantine
  or crashed, and every timed fault heals before the *fault horizon* so the
  run ends with a quiet tail in which liveness can be checked;
* a shrunk repro JSON (:mod:`repro.chaos.engine`) round-trips through
  :meth:`ChaosSchedule.from_dict` for replay.

Every fault window follows the half-open ``[start, end)`` convention of
:mod:`repro.net.faults`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.eval.seeds import derive_subseed
from repro.net.faults import (
    CrashSchedule,
    FaultPlan,
    LossBurst,
    PartitionPlan,
    PartitionWindow,
)

#: Byzantine behaviours the generator can plant.  ``"equivocate"`` is only
#: available for protocols with an equivocating variant (banyan, icc);
#: ``"silent"`` works everywhere.
BYZANTINE_BEHAVIORS = ("equivocate", "silent")


def trial_stream_index(trial: int) -> int:
    """The replication index chaos streams derive from, for one trial.

    Offset so that index 0 (which :func:`repro.eval.seeds.derive_subseed`
    passes through unchanged) is never used — every chaos stream is
    properly hashed and mutually independent.
    """
    return trial * 7919 + 1


@dataclass(frozen=True)
class Fault:
    """One fault event of a schedule.

    A single tagged record keeps schedules trivially JSON-serialisable and
    makes shrinking uniform (drop any one event, regardless of kind).

    Attributes:
        kind: ``"crash"``, ``"partition"``, ``"loss"``, ``"straggler"``, or
            ``"byzantine"``.
        start: activation time (crash time, window start); 0 for byzantine
            plants, which are active from the beginning.
        end: heal time — recovery instant for a recovering crash, window
            end for partitions/bursts/stragglers, ``None`` for permanent
            faults (unrecovered crash, byzantine plant).
        replica: the affected replica (crash, straggler, byzantine).
        group_a / group_b: the two sides of a partition.
        probability: loss probability of a burst.
        delay: extra outbound delay of a straggler phase, in seconds.
        behavior: byzantine behaviour name (see :data:`BYZANTINE_BEHAVIORS`).
    """

    kind: str
    start: float = 0.0
    end: Optional[float] = None
    replica: Optional[int] = None
    group_a: Tuple[int, ...] = ()
    group_b: Tuple[int, ...] = ()
    probability: float = 0.0
    delay: float = 0.0
    behavior: str = ""

    def describe(self) -> str:
        """A one-line human-readable description."""
        if self.kind == "crash":
            heal = f", recovers at {self.end:g}s" if self.end is not None else ", permanent"
            return f"crash r{self.replica} at {self.start:g}s{heal}"
        if self.kind == "partition":
            return (f"partition {list(self.group_a)} | {list(self.group_b)} "
                    f"during [{self.start:g}s, {self.end:g}s)")
        if self.kind == "loss":
            return (f"loss burst p={self.probability:g} "
                    f"during [{self.start:g}s, {self.end:g}s)")
        if self.kind == "straggler":
            return (f"straggler r{self.replica} +{self.delay:g}s "
                    f"during [{self.start:g}s, {self.end:g}s)")
        if self.kind == "byzantine":
            return f"byzantine r{self.replica} ({self.behavior})"
        return f"unknown fault {self.kind!r}"

    def heal_time(self) -> float:
        """When the disturbance is over, for the liveness deadline.

        Permanent crashes heal at their start (the surviving quorum
        re-stabilises after the crash, within the protocol's timeout — the
        liveness bound accounts for the timeout itself); byzantine plants
        never disturb liveness of the honest majority, so they contribute 0.
        """
        if self.kind == "byzantine":
            return 0.0
        if self.end is not None:
            return self.end
        return self.start

    def to_dict(self) -> Dict[str, object]:
        """A compact JSON-ready dictionary (inverse of :meth:`from_dict`)."""
        data: Dict[str, object] = {"kind": self.kind}
        if self.kind != "byzantine":
            data["start"] = self.start
        if self.end is not None:
            data["end"] = self.end
        if self.replica is not None:
            data["replica"] = self.replica
        if self.group_a:
            data["group_a"] = sorted(self.group_a)
            data["group_b"] = sorted(self.group_b)
        if self.kind == "loss":
            data["probability"] = self.probability
        if self.kind == "straggler":
            data["delay"] = self.delay
        if self.behavior:
            data["behavior"] = self.behavior
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Fault":
        """Rebuild a fault from :meth:`to_dict` output."""
        return cls(
            kind=str(data["kind"]),
            start=float(data.get("start", 0.0)),
            end=float(data["end"]) if data.get("end") is not None else None,
            replica=int(data["replica"]) if data.get("replica") is not None else None,
            group_a=tuple(int(r) for r in data.get("group_a", ())),
            group_b=tuple(int(r) for r in data.get("group_b", ())),
            probability=float(data.get("probability", 0.0)),
            delay=float(data.get("delay", 0.0)),
            behavior=str(data.get("behavior", "")),
        )


@dataclass(frozen=True)
class ChaosSchedule:
    """An ordered collection of fault events for one trial."""

    faults: Tuple[Fault, ...] = ()

    def __len__(self) -> int:
        return len(self.faults)

    def drop(self, index: int) -> "ChaosSchedule":
        """A copy of the schedule without fault ``index`` (for shrinking)."""
        return ChaosSchedule(
            faults=self.faults[:index] + self.faults[index + 1:]
        )

    def heal_time(self) -> float:
        """When the last timed disturbance is over (0 for no faults)."""
        return max((fault.heal_time() for fault in self.faults), default=0.0)

    def byzantine(self) -> Dict[int, str]:
        """Planted byzantine replicas: replica id → behaviour name."""
        return {
            fault.replica: fault.behavior
            for fault in self.faults
            if fault.kind == "byzantine"
        }

    def stragglers(self) -> List[Fault]:
        """The straggler-phase events."""
        return [fault for fault in self.faults if fault.kind == "straggler"]

    def crashed_replicas(self) -> List[int]:
        """Replicas that crash at some point (recovering or not)."""
        return [fault.replica for fault in self.faults if fault.kind == "crash"]

    def to_fault_plan(self) -> FaultPlan:
        """Materialise the network-level faults as a :class:`FaultPlan`.

        Straggler and byzantine events are replica-level (applied when the
        replica set is built) and do not appear in the plan.
        """
        crash_times: Dict[int, float] = {}
        recover_times: Dict[int, float] = {}
        windows: List[PartitionWindow] = []
        bursts: List[LossBurst] = []
        for fault in self.faults:
            if fault.kind == "crash":
                crash_times[fault.replica] = fault.start
                if fault.end is not None:
                    recover_times[fault.replica] = fault.end
            elif fault.kind == "partition":
                windows.append(PartitionWindow(
                    start=fault.start, end=fault.end,
                    group_a=frozenset(fault.group_a),
                    group_b=frozenset(fault.group_b),
                ))
            elif fault.kind == "loss":
                bursts.append(LossBurst(start=fault.start, end=fault.end,
                                        probability=fault.probability))
        return FaultPlan(
            crash_schedule=CrashSchedule(crash_times=crash_times,
                                         recover_times=recover_times),
            partitions=PartitionPlan(windows=tuple(windows)),
            loss_bursts=tuple(bursts),
        )

    def describe(self) -> List[str]:
        """One line per fault, in schedule order."""
        return [fault.describe() for fault in self.faults]

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready dictionary (inverse of :meth:`from_dict`)."""
        return {"faults": [fault.to_dict() for fault in self.faults]}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ChaosSchedule":
        """Rebuild a schedule from :meth:`to_dict` output."""
        return cls(faults=tuple(
            Fault.from_dict(fault) for fault in data.get("faults", [])
        ))


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs of the schedule generator (all probabilities per trial).

    The defaults aim for *rich but survivable* timelines: most trials carry
    two to five overlapping faults, never more than ``f`` replicas are
    simultaneously Byzantine-or-crashed, and every timed fault ends before
    the fault horizon so the tail of the run is quiet.
    """

    #: Probability that a trial plants one Byzantine replica.
    byzantine_probability: float = 0.4
    #: Probability that a crashed replica recovers (vs. staying down).
    recovery_probability: float = 0.7
    #: Probability of sampling at least one partition window.
    partition_probability: float = 0.6
    #: Probability of sampling at least one loss burst.
    loss_probability: float = 0.5
    #: Probability of sampling at least one straggler phase.
    straggler_probability: float = 0.5
    #: Maximum loss probability inside a burst.
    max_loss: float = 0.3
    #: Maximum extra outbound delay of a straggler phase, in seconds.
    max_straggler_delay: float = 1.0
    #: Earliest fault activation (leaves the run a short fault-free head).
    min_start: float = 0.5

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready dictionary (inverse of :meth:`from_dict`)."""
        return {
            "byzantine_probability": self.byzantine_probability,
            "recovery_probability": self.recovery_probability,
            "partition_probability": self.partition_probability,
            "loss_probability": self.loss_probability,
            "straggler_probability": self.straggler_probability,
            "max_loss": self.max_loss,
            "max_straggler_delay": self.max_straggler_delay,
            "min_start": self.min_start,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ChaosConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        return cls(**{
            key: float(data[key]) for key in cls().to_dict() if key in data
        })


class ScheduleGenerator:
    """Samples :class:`ChaosSchedule` instances from a seed.

    Each fault family draws from its own RNG stream derived via
    :func:`repro.eval.seeds.derive_subseed` from ``(seed, trial)``, so
    changing e.g. the partition knobs never perturbs which replicas crash —
    schedules stay maximally stable under config tweaks, and a given
    ``(seed, trial)`` always regenerates the identical schedule.

    Args:
        n: replica count of the target configuration.
        f: Byzantine bound; the generator never makes more than ``f``
            replicas simultaneously faulty (byzantine + crashed).
        duration: simulated run length, seconds.
        horizon: last instant at which a timed fault may still be active
            (every window ends at or before it).  Callers set it to
            ``duration - liveness_bound`` so the tail is checkable; it is
            clamped to at least half the run so short smoke runs still
            inject faults (their tails are simply too short to assert
            liveness on).
        config: generator knobs.
        protocol: protocol name, used to pick an available byzantine
            behaviour (equivocation needs a banyan/icc variant).
    """

    def __init__(self, n: int, f: int, duration: float, horizon: float,
                 config: Optional[ChaosConfig] = None,
                 protocol: str = "banyan") -> None:
        if n <= 0 or f < 0:
            raise ValueError("need n > 0 and f >= 0")
        self.n = n
        self.f = f
        self.duration = duration
        self.horizon = max(min(horizon, duration), duration * 0.5)
        self.config = config or ChaosConfig()
        self.protocol = protocol

    def _stream(self, seed: int, trial: int, component: str) -> random.Random:
        return random.Random(derive_subseed(seed, trial_stream_index(trial), component))

    def _window(self, rng: random.Random, min_len: float = 0.4,
                max_len: float = 2.5) -> Tuple[float, float]:
        """A half-open window inside ``[min_start, horizon)``."""
        start = rng.uniform(self.config.min_start, max(self.config.min_start,
                                                       self.horizon - min_len))
        length = rng.uniform(min_len, max_len)
        end = min(start + length, self.horizon)
        if end <= start:
            end = min(start + min_len, self.horizon)
        return start, max(end, start + 1e-3)

    def generate(self, seed: int, trial: int) -> ChaosSchedule:
        """Sample the schedule of ``(seed, trial)`` (pure function of both)."""
        cfg = self.config
        faults: List[Fault] = []
        faulty_budget = self.f  # byzantine + crashed replicas, combined
        replica_ids = list(range(self.n))

        byz_rng = self._stream(seed, trial, "chaos-byzantine")
        byzantine: List[int] = []
        if faulty_budget > 0 and byz_rng.random() < cfg.byzantine_probability:
            replica = byz_rng.choice(replica_ids)
            if self.protocol in ("banyan", "icc") or \
                    self.protocol.endswith("-broken"):
                behavior = byz_rng.choice(BYZANTINE_BEHAVIORS)
            else:
                behavior = "silent"
            faults.append(Fault(kind="byzantine", replica=replica,
                                behavior=behavior))
            byzantine.append(replica)
            faulty_budget -= 1

        crash_rng = self._stream(seed, trial, "chaos-crash")
        crash_candidates = [r for r in replica_ids if r not in byzantine]
        # Clamp to the candidate pool so an oversized user-supplied f never
        # draws from an empty list (the per-trial protocol construction
        # still rejects unsound f/n combinations with a clean ValueError).
        crash_count = crash_rng.randint(0, min(faulty_budget,
                                               len(crash_candidates)))
        crashed: List[int] = []
        for _ in range(crash_count):
            replica = crash_rng.choice(
                [r for r in crash_candidates if r not in crashed]
            )
            crashed.append(replica)
            start, end = self._window(crash_rng, min_len=0.8, max_len=3.0)
            if crash_rng.random() < cfg.recovery_probability:
                faults.append(Fault(kind="crash", replica=replica,
                                    start=start, end=end))
            else:
                faults.append(Fault(kind="crash", replica=replica, start=start))

        part_rng = self._stream(seed, trial, "chaos-partition")
        if part_rng.random() < cfg.partition_probability:
            for _ in range(part_rng.randint(1, 2)):
                members = list(replica_ids)
                part_rng.shuffle(members)
                cut = part_rng.randint(1, self.n - 1)
                start, end = self._window(part_rng)
                faults.append(Fault(kind="partition", start=start, end=end,
                                    group_a=tuple(sorted(members[:cut])),
                                    group_b=tuple(sorted(members[cut:]))))

        loss_rng = self._stream(seed, trial, "chaos-loss")
        if loss_rng.random() < cfg.loss_probability:
            for _ in range(loss_rng.randint(1, 2)):
                start, end = self._window(loss_rng)
                faults.append(Fault(
                    kind="loss", start=start, end=end,
                    probability=round(loss_rng.uniform(0.05, cfg.max_loss), 3),
                ))

        strag_rng = self._stream(seed, trial, "chaos-straggler")
        if strag_rng.random() < cfg.straggler_probability:
            candidates = [r for r in replica_ids
                          if r not in byzantine and r not in crashed]
            count = min(strag_rng.randint(1, 2), len(candidates))
            for replica in strag_rng.sample(candidates, count):
                start, end = self._window(strag_rng, min_len=0.5, max_len=2.0)
                faults.append(Fault(
                    kind="straggler", replica=replica, start=start, end=end,
                    delay=round(strag_rng.uniform(0.2, cfg.max_straggler_delay), 3),
                ))

        return ChaosSchedule(faults=tuple(faults))
