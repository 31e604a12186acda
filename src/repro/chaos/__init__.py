"""Chaos engine: randomized fault-schedule exploration with invariant checks.

Where :mod:`tests` pins a handful of hand-written adversarial scenarios,
this package *generates* them: seeded fault timelines (crashes and
recoveries, overlapping partitions, loss bursts, straggler phases, planted
Byzantine replicas) are thrown at every protocol and each run is judged
against machine-checked safety and liveness invariants.  Failures shrink to
1-minimal schedules serialized as replayable JSON repros.

Entry points:

* :func:`repro.chaos.engine.run_chaos` — run a campaign (parallel, cached);
* :func:`repro.chaos.engine.replay_repro` — re-run a shrunk repro file;
* ``banyan-repro chaos`` — the CLI front end.

This ``__init__`` exports only the schedule and invariant types; the engine
runs the simulator, so import its names from :mod:`repro.chaos.engine`.
"""

from repro.chaos.invariants import InvariantChecker, Violation
from repro.chaos.schedule import (
    ChaosConfig,
    ChaosSchedule,
    Fault,
    ScheduleGenerator,
)

__all__ = [
    "ChaosConfig",
    "ChaosSchedule",
    "Fault",
    "InvariantChecker",
    "ScheduleGenerator",
    "Violation",
]
