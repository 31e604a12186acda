"""Machine-checked invariants: what every chaos run must satisfy.

The :class:`InvariantChecker` hooks into the simulator's existing listener
seams (:meth:`repro.runtime.simulator.Simulation.add_commit_listener`) and
judges the execution online, then once more post-run:

* **agreement** — all honest replicas finalize one chain: the commit at
  position ``i`` of every honest replica is the same block (prefix
  consistency), and no round finalizes two different blocks anywhere;
* **certified ancestry** — each honest commit extends the replica's
  previous commit (``parent_id`` linkage back to genesis) and, when the
  checker is attached to a simulation, the committed block is notarized in
  the committer's block tree at commit time (the tree releases it with its
  round afterwards);
* **fast-path soundness** — no round ever has two fast-finalizable blocks
  at any honest replica, fast-finalized rounds never conflict, and
  fast-vote equivocation evidence (Banyan's ``fast_path_verdicts``) only
  ever names planted Byzantine replicas;
* **bounded liveness** — once the last fault heals, every honest replica
  that never crashed commits again within the configured bound (checked
  only when the run leaves enough quiet tail after the heal).

Violations are collected as data (:class:`Violation`), never asserts, so
the chaos engine can count, report, shrink, and serialize them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional

from repro.protocols.base import innermost
from repro.types.blocks import genesis_block
from repro.types.commits import CommitRecord

if TYPE_CHECKING:
    from repro.chaos.schedule import ChaosSchedule
    from repro.runtime.simulator import Simulation


@dataclass(frozen=True)
class Violation:
    """One observed invariant violation.

    Attributes:
        invariant: invariant name (``"agreement"``, ``"round-agreement"``,
            ``"certified-ancestry"``, ``"notarized-commit"``,
            ``"fast-path-soundness"``, ``"equivocation-evidence"``,
            ``"liveness"``).
        time: simulation time at which the violation was detected (the end
            of the run for post-run checks).
        replica: the replica at which it was observed.
        detail: human-readable description.
    """

    invariant: str
    time: float
    replica: int
    detail: str

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready dictionary (inverse of :meth:`from_dict`)."""
        return {"invariant": self.invariant, "time": self.time,
                "replica": self.replica, "detail": self.detail}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Violation":
        """Rebuild a violation from :meth:`to_dict` output."""
        return cls(invariant=str(data["invariant"]), time=float(data["time"]),
                   replica=int(data["replica"]), detail=str(data["detail"]))


def liveness_bound(n: int, rank_delay: float, round_timeout: float) -> float:
    """Seconds a healed network gets to produce a commit everywhere.

    One recovery timeout (the in-flight round may have a crashed or
    partitioned-away leader), a full leader rotation of rank delays (twice,
    for the notarization echo), and a two-second cushion for propagation
    and certificate exchange.
    """
    return round_timeout + 2 * n * rank_delay + 2.0


def liveness_checkable(schedule: "ChaosSchedule", liveness_bound: float,
                       duration: float) -> bool:
    """Whether a run of ``duration`` under ``schedule`` is judged on bounded
    liveness: its quiet tail must reach the deadline, and it must hold no
    loss burst.

    Bounded liveness is a *model* guarantee: after GST, channels deliver
    eventually (partitions delay, crashes silence).  A loss burst destroys
    messages forever — outside the model, where none of the protocols
    retransmit — so schedules containing one are checked for safety only.
    """
    lossy = any(fault.kind == "loss" for fault in schedule.faults)
    return not lossy and schedule.heal_time() + liveness_bound <= duration


class InvariantChecker:
    """Online + post-run invariant checking for one simulation.

    Attach with :meth:`attach` before running; read :attr:`violations`
    after.  A checker fed commit records by hand, without :meth:`attach`,
    judges the commit stream alone: it has no tree to look blocks up in.
    Byzantine replicas are excluded from every honesty-scoped check (their
    commits are unconstrained — a Byzantine replica may claim anything),
    but evidence checks still reference them: honest replicas must never
    be *flagged* as equivocators.

    Args:
        replica_ids: all replica ids of the simulation.
        byzantine: planted Byzantine replica ids (excluded from honesty
            checks).
        max_violations: stop recording after this many violations (a broken
            run would otherwise flood the report with one violation per
            commit).
    """

    def __init__(self, replica_ids: Iterable[int],
                 byzantine: Iterable[int] = (),
                 max_violations: int = 25) -> None:
        self.replica_ids = sorted(replica_ids)
        self.byzantine: FrozenSet[int] = frozenset(byzantine)
        self.honest = [r for r in self.replica_ids if r not in self.byzantine]
        self.max_violations = max_violations
        self.violations: List[Violation] = []
        self._genesis_id = genesis_block().id
        #: Per-honest-replica committed chain (block ids, commit order).
        self._chains: Dict[int, List[object]] = {r: [] for r in self.honest}
        #: The longest honest chain seen so far; every honest chain must be
        #: one of its prefixes.
        self._canonical: List[object] = []
        #: Round → first finalized block id (across honest replicas).
        self._round_block: Dict[int, object] = {}
        #: Rounds somebody fast-finalized (for fast-path conflict labelling).
        self._fast_rounds: Dict[int, object] = {}
        self._last_commit_time: Dict[int, float] = {}
        #: The simulation :meth:`attach` registered on, whose replicas'
        #: trees :meth:`on_commit` reads (``None`` when fed by hand).
        self._simulation: Optional[Simulation] = None

    # ------------------------------------------------------------------ #
    # Online checks
    # ------------------------------------------------------------------ #

    def attach(self, simulation: Simulation) -> "InvariantChecker":
        """Register the commit listener on ``simulation``; returns self."""
        self._simulation = simulation
        simulation.add_commit_listener(self.on_commit)
        return self

    def _record(self, invariant: str, time: float, replica: int, detail: str) -> None:
        if len(self.violations) < self.max_violations:
            self.violations.append(Violation(
                invariant=invariant, time=time, replica=replica, detail=detail,
            ))

    def on_commit(self, record: CommitRecord) -> None:
        """Commit-stream listener (wired via ``add_commit_listener``)."""
        replica = record.replica_id
        if replica in self.byzantine:
            return
        block = record.block
        chain = self._chains[replica]
        short = str(block.id)[:8]

        # Certified ancestry: each commit extends the previous one.
        expected_parent = chain[-1] if chain else self._genesis_id
        if block.parent_id != expected_parent:
            self._record(
                "certified-ancestry", record.commit_time, replica,
                f"block {short} (round {block.round}) does not extend the "
                f"replica's previous commit",
            )

        # Agreement: honest chains are prefixes of one another.
        position = len(chain)
        if position < len(self._canonical):
            if self._canonical[position] != block.id:
                self._record(
                    "agreement", record.commit_time, replica,
                    f"chain position {position} is {short}, another honest "
                    f"replica finalized a different block there",
                )
        else:
            self._canonical.append(block.id)

        # Round agreement: one finalized block per round, ever.
        existing = self._round_block.get(block.round)
        if existing is None:
            self._round_block[block.round] = block.id
        elif existing != block.id:
            fast = (record.finalization_kind == "fast"
                    or block.round in self._fast_rounds)
            self._record(
                "fast-path-soundness" if fast else "round-agreement",
                record.commit_time, replica,
                f"round {block.round} finalized two different blocks"
                + (" (fast path involved)" if fast else ""),
            )
        if record.finalization_kind == "fast":
            self._fast_rounds.setdefault(block.round, block.id)

        # Certified ancestry, part two: the committed block is notarized in
        # the committer's own tree (the certificate chain exists).  Judged
        # now, while the tree still holds the block; unwrapped, or a wrapper
        # (straggler, tracer) would be probed instead of the replica.
        if self._simulation is not None:
            tree = innermost(self._simulation.protocol(replica)).tree
            if not tree.is_notarized(block.id):
                self._record(
                    "notarized-commit", record.commit_time, replica,
                    f"committed block {short} has no notarization in the "
                    f"committer's tree",
                )

        chain.append(block.id)
        self._last_commit_time[replica] = record.commit_time

    # ------------------------------------------------------------------ #
    # Post-run checks
    # ------------------------------------------------------------------ #

    def finalize(self, simulation: Simulation, heal_time: float,
                 liveness_bound: float, duration: float,
                 never_crashed: Optional[Iterable[int]] = None) -> List[Violation]:
        """Run the post-run checks; returns the full violation list.

        Args:
            simulation: the finished simulation.
            heal_time: when the last timed fault healed.
            liveness_bound: seconds within which a quiet network must
                produce a commit at every eligible replica.
            duration: the run's horizon.
            never_crashed: honest replicas that never crashed — the set
                bounded liveness is asserted on (a recovered replica may
                legitimately be stuck waiting for ancestors it missed;
                defaults to all honest replicas).
        """
        eligible = set(self.honest if never_crashed is None else never_crashed)
        eligible -= self.byzantine

        for replica in self.honest:
            # Unwrap, or the state-level check below would silently probe
            # a wrapper (straggler, tracer) and find nothing.
            protocol = innermost(simulation.protocol(replica))

            # Fast-path soundness at the state level: a round must never
            # accumulate two fast-finalizable blocks, and equivocation
            # evidence must only ever name planted byzantine replicas.
            verdicts = getattr(protocol, "fast_path_verdicts", None)
            if verdicts is not None:
                flagged, conflicts = verdicts()
                if not flagged <= self.byzantine:
                    wrongly = sorted(flagged - self.byzantine)
                    self._record(
                        "equivocation-evidence", duration, replica,
                        f"honest replicas {wrongly} flagged as fast-vote "
                        f"equivocators",
                    )
                for round_k in conflicts:
                    self._record(
                        "fast-path-soundness", duration, replica,
                        f"round {round_k} has several fast-finalizable blocks",
                    )

        self.check_liveness(heal_time, liveness_bound, duration, eligible)
        return self.violations

    def liveness_eligible(self, schedule: "ChaosSchedule", liveness_bound: float,
                          duration: float) -> List[int]:
        """The replicas bounded liveness is asserted on under ``schedule``:
        honest ones that never crashed (a recovered replica may legitimately
        be stuck waiting for ancestors it missed), or none when the schedule
        is not :func:`liveness_checkable`."""
        if not liveness_checkable(schedule, liveness_bound, duration):
            return []
        crashed = set(schedule.crashed_replicas())
        return [r for r in self.honest if r not in crashed]

    def check_liveness(self, heal_time: float, liveness_bound: float,
                       duration: float, eligible: Iterable[int]) -> None:
        """Bounded liveness: if the run's quiet tail reaches
        ``heal_time + liveness_bound``, every ``eligible`` replica must have
        committed after ``heal_time``."""
        if heal_time + liveness_bound > duration:
            return
        for replica in sorted(eligible):
            last = self._last_commit_time.get(replica)
            if last is None or last <= heal_time:
                self._record(
                    "liveness", duration, replica,
                    f"no commit after the last fault healed at "
                    f"{heal_time:g}s (bound {liveness_bound:g}s)",
                )
