"""The chaos engine: run seeded fault schedules, check invariants, shrink.

One *trial* is fully described by a :class:`ChaosTrialSpec` — protocol,
sizing, duration, base seed, and trial index.  The trial's fault schedule is
a pure function of the spec (:meth:`ChaosTrialSpec.schedule`), its network
jitter seed is derived independently, and the whole execution is
deterministic — which buys three things:

* trials fan out through the generic plan runner
  (:func:`repro.eval.runner.run_plan`) with process parallelism and
  content-hash caching, exactly like figure sweeps;
* a failing trial can be *shrunk*: faults are dropped one at a time and the
  trial re-run until no single fault can be removed without the failure
  disappearing — a greedy 1-minimal repro, Jepsen/ddmin style;
* the shrunk repro serialises to a small JSON file that replays bit-for-bit
  (:func:`replay_repro`), on any machine, via
  ``banyan-repro chaos --replay <file>``.

Runs use a constant 50 ms one-way latency (no jitter), so the only
randomness in a trial is the schedule itself plus message-loss draws.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.byzantine.behaviors import (
    DelayedReplica,
    byzantine_factory,
    ensure_protocol_registered,
)
from repro.chaos.invariants import (
    InvariantChecker, Violation, liveness_bound, liveness_checkable)
from repro.chaos.schedule import (
    ChaosConfig,
    ChaosSchedule,
    ScheduleGenerator,
    trial_stream_index,
)
from repro.eval.runner import ProgressCallback, run_plan
from repro.eval.seeds import canonical_hash, derive_subseed
from repro.net.latency import ConstantLatency
from repro.protocols.base import ProtocolParams
from repro.protocols.registry import check_protocol, create_replicas
from repro.runtime.simulator import NetworkConfig, Simulation
from repro.runtime.trace import TraceLog, attach_commit_trace

#: Version tag mixed into every chaos content hash; bump when execution
#: semantics change so stale cached trial results are not reused.
CHAOS_FORMAT = 1

#: The protocols a default chaos run rotates through.
DEFAULT_PROTOCOLS = ("banyan", "icc", "hotstuff", "streamlet")

#: One-way propagation delay of every chaos run, seconds.
CHAOS_LATENCY_S = 0.05


@dataclass(frozen=True)
class ChaosTrialSpec:
    """One chaos trial, fully described by data (picklable, hashable).

    Attributes:
        protocol: registered protocol name (test-only broken variants end
            in ``"-broken"`` and are registered on demand).
        n / f / p: replica count, fault bound, fast-path parameter.
        rank_delay: per-rank delay of the protocol parameters.
        round_timeout: view/recovery timeout (kept short so post-fault
            recovery fits the liveness bound).
        payload_size: proposal payload bytes (small — chaos runs probe
            correctness, not throughput).
        duration: simulated run length, seconds.
        seed: base seed of the campaign.
        trial: trial index; schedule and jitter streams derive from
            ``(seed, trial)``.
        config: schedule-generator knobs.
    """

    protocol: str = "banyan"
    n: int = 4
    f: int = 1
    p: int = 1
    rank_delay: float = 0.4
    round_timeout: float = 1.5
    payload_size: int = 1_000
    duration: float = 15.0
    seed: int = 0
    trial: int = 0
    config: ChaosConfig = field(default_factory=ChaosConfig)

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #

    def params(self) -> ProtocolParams:
        """The protocol parameters of the trial."""
        return ProtocolParams(n=self.n, f=self.f, p=self.p,
                              rank_delay=self.rank_delay,
                              round_timeout=self.round_timeout,
                              payload_size=self.payload_size)

    def liveness_bound(self) -> float:
        """Seconds a healed network gets to produce a commit everywhere
        (:func:`repro.chaos.invariants.liveness_bound`)."""
        return liveness_bound(self.n, self.rank_delay, self.round_timeout)

    def fault_horizon(self) -> float:
        """Last instant at which a timed fault may still be active."""
        return max(self.duration - self.liveness_bound(), self.duration * 0.5)

    def schedule(self) -> ChaosSchedule:
        """The trial's fault schedule (pure function of the spec)."""
        generator = ScheduleGenerator(
            n=self.n, f=self.f, duration=self.duration,
            horizon=self.fault_horizon(), config=self.config,
            protocol=self.protocol,
        )
        return generator.generate(self.seed, self.trial)

    def net_seed(self) -> int:
        """The network-jitter/loss seed (independent of the schedule streams)."""
        return derive_subseed(self.seed, trial_stream_index(self.trial), "chaos-net")

    # ------------------------------------------------------------------ #
    # Runner protocol (duck-typed by repro.eval.runner.run_plan)
    # ------------------------------------------------------------------ #

    def resolved_label(self) -> str:
        """Progress-line label."""
        return f"chaos {self.protocol}"

    @property
    def cell(self) -> str:
        """Progress-line cell identifier."""
        return f"trial={self.trial}"

    @property
    def replication(self) -> int:
        """Progress-line replication index (chaos trials have none)."""
        return 0

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready dictionary (inverse of :meth:`from_dict`)."""
        return {
            "protocol": self.protocol,
            "n": self.n, "f": self.f, "p": self.p,
            "rank_delay": self.rank_delay,
            "round_timeout": self.round_timeout,
            "payload_size": self.payload_size,
            "duration": self.duration,
            "seed": self.seed,
            "trial": self.trial,
            "config": self.config.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ChaosTrialSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(
            protocol=str(data["protocol"]),
            n=int(data["n"]), f=int(data["f"]), p=int(data["p"]),
            rank_delay=float(data["rank_delay"]),
            round_timeout=float(data["round_timeout"]),
            payload_size=int(data["payload_size"]),
            duration=float(data["duration"]),
            seed=int(data["seed"]),
            trial=int(data["trial"]),
            config=ChaosConfig.from_dict(data.get("config", {})),
        )

    def content_hash(self) -> str:
        """Cache key: stable digest of the spec's canonical JSON form."""
        return canonical_hash({"format": CHAOS_FORMAT, "chaos": self.to_dict()})


@dataclass
class ChaosTrialResult:
    """Outcome of one chaos trial.

    Attributes:
        spec: the trial's spec.
        schedule: the fault schedule that ran (the generated one, or a
            shrunk/replayed one).
        violations: invariant violations observed (empty = trial passed).
        stats: observability counters (honest commits, messages, heal
            time, whether the liveness deadline fit inside the run).
    """

    spec: ChaosTrialSpec
    schedule: ChaosSchedule
    violations: List[Violation] = field(default_factory=list)
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        """Whether any invariant was violated."""
        return bool(self.violations)

    def to_dict(self) -> Dict[str, object]:
        """A lossless JSON-ready dictionary (inverse of :meth:`from_dict`)."""
        return {
            "spec": self.spec.to_dict(),
            "schedule": self.schedule.to_dict(),
            "violations": [violation.to_dict() for violation in self.violations],
            "stats": dict(self.stats),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ChaosTrialResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            spec=ChaosTrialSpec.from_dict(data["spec"]),
            schedule=ChaosSchedule.from_dict(data.get("schedule", {})),
            violations=[Violation.from_dict(v) for v in data.get("violations", [])],
            stats=dict(data.get("stats", {})),
        )


# --------------------------------------------------------------------- #
# Trial execution
# --------------------------------------------------------------------- #


def run_chaos_schedule(spec: ChaosTrialSpec,
                       schedule: ChaosSchedule) -> ChaosTrialResult:
    """Run one trial under an explicit schedule and check every invariant.

    This is the single execution path shared by fresh trials
    (``schedule=spec.schedule()``), shrinking candidates, and replays.
    Every run records the tail of its commit trace in
    ``stats["commit_tail"]``, so a failing result can be serialized as a
    repro without re-simulating.
    """
    ensure_protocol_registered(spec.protocol)
    byzantine = schedule.byzantine()
    overrides = {
        replica: byzantine_factory(spec.protocol, behavior)
        for replica, behavior in byzantine.items()
    }
    replicas = create_replicas(spec.protocol, spec.params(), overrides=overrides)
    for fault in schedule.stragglers():
        replicas[fault.replica] = DelayedReplica(
            replicas[fault.replica], extra_delay=fault.delay,
            window=(fault.start, fault.end),
        )
    network = NetworkConfig(
        latency=ConstantLatency(CHAOS_LATENCY_S),
        faults=schedule.to_fault_plan(),
        seed=spec.net_seed(),
    )
    simulation = Simulation(replicas, network)
    checker = InvariantChecker(simulation.replica_ids,
                               byzantine=byzantine).attach(simulation)
    trace = attach_commit_trace(simulation, TraceLog())
    error: Optional[BaseException] = None
    try:
        simulation.run(until=spec.duration)
    except Exception as exc:
        # A replica blowing up mid-run (e.g. the ledger refusing a
        # conflicting segment) is a finding, not a tooling error: record
        # it and judge whatever state the run reached.
        error = exc

    heal_time = schedule.heal_time()
    bound = spec.liveness_bound()
    violations = list(checker.violations)
    if error is not None:
        violations.append(Violation(
            invariant="execution-error", time=simulation.now, replica=-1,
            detail=f"{type(error).__name__}: {error}",
        ))
    else:
        violations = checker.finalize(
            simulation, heal_time=heal_time, liveness_bound=bound,
            duration=spec.duration,
            never_crashed=checker.liveness_eligible(schedule, bound, spec.duration),
        )
    stats = {
        "honest_commits": sum(
            len(simulation.commits_for(replica)) for replica in checker.honest
        ),
        "messages_sent": simulation.messages_sent,
        "messages_dropped": simulation.messages_dropped,
        "heal_time": heal_time,
        "fault_count": len(schedule),
        "liveness_checked": liveness_checkable(schedule, bound, spec.duration),
        "commit_tail": trace.render().splitlines()[-20:],
    }
    return ChaosTrialResult(spec=spec, schedule=schedule,
                            violations=list(violations), stats=stats)


def run_chaos_trial(spec: ChaosTrialSpec) -> ChaosTrialResult:
    """Run one trial under its generated schedule."""
    return run_chaos_schedule(spec, spec.schedule())


def _execute_trial_serialized(spec_data: Dict[str, object]) -> Dict[str, object]:
    """Worker entry point for :func:`repro.eval.runner.run_plan`."""
    return run_chaos_trial(ChaosTrialSpec.from_dict(spec_data)).to_dict()


# --------------------------------------------------------------------- #
# Shrinking
# --------------------------------------------------------------------- #


def shrink_schedule(spec: ChaosTrialSpec, schedule: ChaosSchedule,
                    max_runs: int = 100,
                    failing_result: Optional[ChaosTrialResult] = None,
                    ) -> Tuple[ChaosSchedule, ChaosTrialResult]:
    """Greedily minimise a failing schedule; returns (schedule, its result).

    Faults are dropped one at a time; a drop is kept whenever the trial
    still fails without that fault.  The loop restarts after every
    successful drop and terminates when no single fault can be removed —
    the result is 1-minimal (within the ``max_runs`` re-execution budget).
    The returned result is the minimal schedule's own run, so its
    violations describe exactly the repro that is serialized.

    Callers that already executed ``schedule`` pass its result as
    ``failing_result`` to skip the initial verification run.
    """
    result = (failing_result if failing_result is not None
              else run_chaos_schedule(spec, schedule))
    if not result.failed:
        raise ValueError("cannot shrink a passing schedule")
    runs = 0
    improved = True
    while improved and runs < max_runs:
        improved = False
        for index in range(len(schedule)):
            candidate = schedule.drop(index)
            runs += 1
            candidate_result = run_chaos_schedule(spec, candidate)
            if candidate_result.failed:
                schedule, result = candidate, candidate_result
                improved = True
                break
            if runs >= max_runs:
                break
    return schedule, result


def write_repro(path: str, result: ChaosTrialResult,
                original: Optional[ChaosSchedule] = None) -> str:
    """Serialize a (shrunk) failing trial to a replayable JSON file.

    The file contains everything needed to reproduce the failure — spec,
    minimal schedule, the violations it produced, a commit-trace tail for
    orientation — plus the original schedule it was shrunk from and the
    replay command.  The tail comes from the result's own run
    (``stats["commit_tail"]``), so nothing is re-simulated here.
    """
    data = {
        "spec": result.spec.to_dict(),
        "schedule": result.schedule.to_dict(),
        "schedule_description": result.schedule.describe(),
        "violations": [violation.to_dict() for violation in result.violations],
        "stats": dict(result.stats),
        "original_schedule": original.to_dict() if original is not None else None,
        "commit_trace_tail": list(result.stats.get("commit_tail", [])),
        "replay": f"banyan-repro chaos --replay {path}",
    }
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=2)
    return path


def replay_repro(path: str) -> ChaosTrialResult:
    """Re-run the trial stored in a repro JSON file, bit-for-bit."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    spec = ChaosTrialSpec.from_dict(data["spec"])
    schedule = ChaosSchedule.from_dict(data["schedule"])
    return run_chaos_schedule(spec, schedule)


# --------------------------------------------------------------------- #
# The campaign driver
# --------------------------------------------------------------------- #


@dataclass
class ChaosReport:
    """Outcome of a chaos campaign.

    Attributes:
        results: one :class:`ChaosTrialResult` per trial, in trial order.
        repro_paths: JSON files written for shrunk failures.
    """

    results: List[ChaosTrialResult] = field(default_factory=list)
    repro_paths: List[str] = field(default_factory=list)

    @property
    def failures(self) -> List[ChaosTrialResult]:
        """The failing trials."""
        return [result for result in self.results if result.failed]

    def summary_rows(self) -> List[Dict[str, object]]:
        """One aggregate row per protocol, for the CLI table."""
        by_protocol: Dict[str, List[ChaosTrialResult]] = {}
        for result in self.results:
            by_protocol.setdefault(result.spec.protocol, []).append(result)
        rows = []
        for protocol in sorted(by_protocol):
            results = by_protocol[protocol]
            rows.append({
                "protocol": protocol,
                "trials": len(results),
                "failures": sum(1 for r in results if r.failed),
                "faults_injected": sum(r.stats.get("fault_count", 0) for r in results),
                "liveness_checked": sum(
                    1 for r in results if r.stats.get("liveness_checked")
                ),
                "honest_commits": sum(
                    r.stats.get("honest_commits", 0) for r in results
                ),
            })
        return rows


def build_trials(trials: int, seed: int,
                 protocols: Sequence[str] = DEFAULT_PROTOCOLS,
                 n: int = 4, f: Optional[int] = None, p: int = 1,
                 duration: float = 15.0,
                 config: Optional[ChaosConfig] = None) -> List[ChaosTrialSpec]:
    """The specs of a campaign: ``trials`` cells rotating over ``protocols``."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if f is None:
        f = max(1, (n - 1) // 3)
    config = config or ChaosConfig()
    return [
        ChaosTrialSpec(protocol=protocols[trial % len(protocols)],
                       n=n, f=f, p=p, duration=duration,
                       seed=seed, trial=trial, config=config)
        for trial in range(trials)
    ]


def run_chaos(trials: int = 50, seed: int = 0,
              protocols: Sequence[str] = DEFAULT_PROTOCOLS,
              n: int = 4, f: Optional[int] = None, p: int = 1,
              duration: float = 15.0, jobs: int = 1,
              cache_dir: Optional[str] = None, use_cache: bool = True,
              shrink: bool = True, repro_dir: Optional[str] = None,
              config: Optional[ChaosConfig] = None,
              progress: Optional[ProgressCallback] = None) -> ChaosReport:
    """Run a chaos campaign: generate, execute, check, and shrink.

    Trials fan out through :func:`repro.eval.runner.run_plan` — parallel
    over ``jobs`` worker processes, cached per trial content hash — and
    each failing trial is then shrunk in-process to a 1-minimal schedule
    that is serialized to ``repro_dir`` as a replayable JSON file.

    Returns the :class:`ChaosReport`; callers decide what a failure means
    (the CLI exits non-zero, CI uploads the repro files).
    """
    for protocol in protocols:
        ensure_protocol_registered(protocol)
    specs = build_trials(trials, seed, protocols=protocols, n=n, f=f, p=p,
                         duration=duration, config=config)
    # An unknown protocol or an unsound (n, f, p) is refused before any trial.
    for spec in specs[:len(protocols)]:
        check_protocol(spec.protocol, spec.params())
    results = run_plan(
        specs, jobs=jobs, cache_dir=cache_dir, use_cache=use_cache,
        progress=progress,
        execute=_execute_trial_serialized,
        decode=ChaosTrialResult.from_dict,
    )
    report = ChaosReport(results=list(results))
    if shrink and repro_dir is not None:
        for result in report.failures:
            shrunk, shrunk_result = shrink_schedule(
                result.spec, result.schedule, failing_result=result)
            path = os.path.join(
                repro_dir,
                f"chaos-repro-{result.spec.protocol}"
                f"-seed{result.spec.seed}-trial{result.spec.trial}.json",
            )
            report.repro_paths.append(
                write_repro(path, shrunk_result, original=result.schedule)
            )
    return report
