#!/usr/bin/env python3
"""Chaos engine demo: seeded fault storms, invariants, and failure shrinking.

Three acts:

1. a **chaos campaign** against the honest protocols — seeded schedules of
   crashes (with recoveries), overlapping partitions, loss bursts,
   straggler phases, and planted Byzantine replicas, every run checked
   against the agreement / ancestry / fast-path / liveness invariants;
2. a **planted bug** — the test-only ``icc-broken`` variant lowers the
   notarization quorum below the intersection bound, and the campaign
   catches it forking under a partition;
3. **shrinking** — the failing schedule is minimised fault by fault until
   only what the failure needs remains, then serialized to a JSON repro
   and replayed bit-for-bit.

Run with::

    python examples/chaos_demo.py
"""

from __future__ import annotations

import os
import tempfile

from repro.chaos.engine import (
    ChaosTrialSpec,
    replay_repro,
    run_chaos,
    run_chaos_trial,
    shrink_schedule,
    write_repro,
)
from repro.chaos.broken import register_broken_protocols


def act_one_honest_campaign() -> None:
    print("=" * 72)
    print("Act 1: 40 seeded trials across the four honest protocols")
    print("=" * 72)
    report = run_chaos(trials=40, seed=0, duration=12.0, shrink=False)
    for row in report.summary_rows():
        print(f"  {row['protocol']:<10} trials={row['trials']:<3} "
              f"failures={row['failures']:<2} "
              f"faults injected={row['faults_injected']:<4} "
              f"liveness-checked={row['liveness_checked']}")
    assert not report.failures, "honest protocols must satisfy every invariant"
    print("  -> zero invariant violations.\n")


def act_two_planted_bug() -> tuple:
    print("=" * 72)
    print("Act 2: the same storms against a deliberately broken protocol")
    print("=" * 72)
    register_broken_protocols()
    for trial in range(40):
        spec = ChaosTrialSpec(protocol="icc-broken", trial=trial)
        result = run_chaos_trial(spec)
        if result.failed:
            print(f"  trial {trial} fails with {len(result.schedule)} scheduled fault(s):")
            for line in result.schedule.describe():
                print(f"    - {line}")
            violation = result.violations[0]
            print(f"  first violation: [{violation.invariant}] "
                  f"t={violation.time:.2f}s r{violation.replica}")
            print(f"    {violation.detail}\n")
            return spec, result
    raise SystemExit("expected the broken quorum to fork within 40 trials")


def act_three_shrink_and_replay(spec, result) -> None:
    print("=" * 72)
    print("Act 3: shrink to a minimal repro, serialize, replay")
    print("=" * 72)
    shrunk, shrunk_result = shrink_schedule(spec, result.schedule)
    print(f"  {len(result.schedule)} fault(s) shrank to {len(shrunk)}:")
    for line in shrunk.describe():
        print(f"    - {line}")
    path = os.path.join(tempfile.mkdtemp(prefix="banyan-chaos-"), "repro.json")
    write_repro(path, shrunk_result, original=result.schedule)
    print(f"  repro written to {path}")
    replayed = replay_repro(path)
    assert replayed.failed, "a repro must fail on replay"
    print(f"  replayed: {len(replayed.violations)} violation(s), bit-for-bit.")
    print(f"  (CLI equivalent: banyan-repro chaos --replay {path})")


def main() -> None:
    act_one_honest_campaign()
    spec, result = act_two_planted_bug()
    act_three_shrink_and_replay(spec, result)


if __name__ == "__main__":
    main()
