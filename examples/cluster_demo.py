#!/usr/bin/env python3
"""Real-cluster demo: the simulator's protocols over actual TCP sockets.

Three acts:

1. a **healthy cluster** — the simulator's run description (an
   ``ExperimentConfig`` with an open-loop ``WorkloadSpec``) run by four real
   replica processes over localhost TCP: the result is the simulator's
   ``ExperimentResult``, and the committed sequences are cross-validated
   against the simulator's invariant checker;
2. a **kill and restart** — one replica is SIGKILLed mid-run (a real
   process death, not a simulated one) and later restarted; the surviving
   quorum keeps committing throughout;
3. a **socket-level chaos replay** — the chaos engine's fault-schedule
   format replayed as real frame drops: two permanent crashes take the
   quorum away and the liveness invariant catches it, exactly as it would
   in the simulator.

Run with::

    python examples/cluster_demo.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.chaos.schedule import ChaosSchedule, Fault
from repro.cluster.harness import LocalCluster, cross_validate, run_local_cluster
from repro.eval.experiment import ExperimentConfig
from repro.protocols.base import ProtocolParams
from repro.workload.spec import WorkloadSpec

RANK_DELAY = 0.05
ROUND_TIMEOUT = 0.5
PARAMS = ProtocolParams(n=4, f=1, p=1, rank_delay=RANK_DELAY,
                        round_timeout=ROUND_TIMEOUT)


def act_one_healthy_cluster(workdir: Path) -> None:
    print("=" * 72)
    print("Act 1: 4 real replica processes, banyan over TCP, 40 tx/s clients")
    print("=" * 72)
    config = ExperimentConfig(
        protocol="banyan", params=PARAMS, duration=5.0, warmup=0.0,
        workload=WorkloadSpec(rate=40.0, tx_size=128, num_clients=2))
    result = run_local_cluster(config, log_dir=workdir / "healthy")
    metrics, workload = result.experiment.metrics, result.experiment.workload
    print(f"  replica exit codes: {result.exit_codes}")
    print(f"  committed blocks (observer): {metrics.committed_blocks} "
          f"({metrics.fast_finalized} fast / {metrics.slow_finalized} slow)")
    print(f"  workload: {workload.committed}/{workload.submitted} "
          f"transactions committed")
    if workload.committed:
        print(f"  median submit->first commit: {1000 * workload.p50_latency:.1f} ms")
    print(f"  invariant violations: {len(result.violations)}")
    assert result.committed_blocks > 0 and not result.violations, \
        "a healthy cluster must commit cleanly"
    print("  -> real TCP execution satisfies the simulator's invariants.\n")


def act_two_kill_and_restart(workdir: Path) -> None:
    print("=" * 72)
    print("Act 2: SIGKILL replica 3 mid-run, restart it 1.5 s later")
    print("=" * 72)
    duration = 7.0
    cluster = LocalCluster(
        "banyan", 4, duration=duration, log_dir=workdir / "kill",
        rank_delay=RANK_DELAY, round_timeout=ROUND_TIMEOUT,
    )
    cluster.start()
    try:
        time.sleep(max(0.0, cluster.start_at + 2.0 - time.time()))
        cluster.kill(3)
        print("  replica 3 SIGKILLed at t~2.0s")
        time.sleep(1.5)
        cluster.restart(3)
        print("  replica 3 restarted at t~3.5s")
        cluster.wait()
    finally:
        cluster.stop()
    records, errors = cluster.commit_records()
    for rid in range(3):
        last = max(r.commit_time for r in records if r.replica_id == rid)
        print(f"  survivor {rid}: last commit at t={last:.2f}s")
    violations = cross_validate(
        records, n=4, schedule=ChaosSchedule(), duration=duration,
        liveness_bound=ROUND_TIMEOUT + 8 * RANK_DELAY + 2.0,
        errors=errors, exclude=(3,),
    )
    assert not violations, violations
    print("  -> the surviving quorum never stopped; invariants hold.\n")


def act_three_chaos_replay(workdir: Path) -> None:
    print("=" * 72)
    print("Act 3: replay a quorum-killing chaos schedule at the socket level")
    print("=" * 72)
    schedule = ChaosSchedule(faults=(
        Fault(kind="crash", replica=2, start=0.0),
        Fault(kind="crash", replica=3, start=0.0),
    ))
    for line in schedule.describe():
        print(f"  - {line}")
    config = ExperimentConfig(protocol="banyan", params=PARAMS, duration=5.0,
                              warmup=0.0)
    result = run_local_cluster(config, schedule=schedule,
                               log_dir=workdir / "replay")
    print(f"  committed blocks: {result.committed_blocks}")
    for violation in result.violations:
        print(f"  [{violation.invariant}] r{violation.replica}: "
              f"{violation.detail}")
    assert {v.invariant for v in result.violations} == {"liveness"}
    print("  -> two of four replicas down: the liveness invariant "
          "catches the stalled cluster.\n")


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="banyan-cluster-demo-") as tmp:
        workdir = Path(tmp)
        act_one_healthy_cluster(workdir)
        act_two_kill_and_restart(workdir)
        act_three_chaos_replay(workdir)
    print("Demo complete: same protocol objects, real processes and sockets.")


if __name__ == "__main__":
    main()
