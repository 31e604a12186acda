#!/usr/bin/env python3
"""Fault-tolerance demo: crashes, stragglers, and an equivocating replica.

Three scenarios on a 7-replica Banyan deployment (f=2, p=1):

1. **Crash faults** — two replicas are down from the start.  Rounds led by a
   crashed replica stall for the timeout, but the chain keeps growing and the
   fast path is simply skipped (no penalty, as in Figure 6d).
2. **Stragglers** — two honest replicas are slow.  With more than ``p``
   stragglers the fast path stops firing and finalization falls back to the
   concurrent ICC slow path.
3. **Equivocating replica (Twins)** — a Byzantine replica runs as two honest
   twins, each talking to one half of the network, so it proposes, votes and
   certifies twice whenever it can.  Safety holds: no two honest replicas
   ever finalize different blocks for the same round.

Run with::

    python examples/fault_tolerance_demo.py
"""

from __future__ import annotations

from typing import Dict, List

from repro import NetworkConfig, ProtocolParams, Simulation
from repro.byzantine.behaviors import DelayedReplica, TwinReplica
from repro.net.faults import FaultPlan
from repro.net.latency import ConstantLatency
from repro.protocols.registry import create_replicas, protocol_factory

PARAMS = ProtocolParams(n=7, f=2, p=1, rank_delay=0.4, payload_size=10_000)


def summarize(title: str, simulation: Simulation, exclude: List[int] = ()) -> None:
    honest = [rid for rid in simulation.replica_ids if rid not in exclude]
    commits = simulation.commits_for(honest[0])
    fast = sum(1 for r in commits if r.finalization_kind == "fast")
    chains = [[r.block.id for r in simulation.commits_for(rid)] for rid in honest]
    shortest = min(len(c) for c in chains)
    consistent = all(c[:shortest] == chains[0][:shortest] for c in chains)
    rounds_by_block: Dict[int, set] = {}
    for rid in honest:
        for record in simulation.commits_for(rid):
            rounds_by_block.setdefault(record.block.round, set()).add(record.block.id)
    no_conflicts = all(len(ids) == 1 for ids in rounds_by_block.values())
    print(f"--- {title}")
    print(f"    committed blocks: {len(commits)}  (fast path: {fast}, slow path: {len(commits) - fast})")
    print(f"    chains consistent across honest replicas: {consistent}")
    print(f"    at most one finalized block per round:    {no_conflicts}")
    assert consistent and no_conflicts


def crash_scenario() -> None:
    replicas = create_replicas("banyan", PARAMS)
    faults = FaultPlan.with_crashed([5, 6])
    simulation = Simulation(replicas, NetworkConfig(latency=ConstantLatency(0.05),
                                                    faults=faults, seed=1))
    simulation.run(until=30.0)
    summarize("two crashed replicas (within f=2)", simulation, exclude=[5, 6])


def straggler_scenario() -> None:
    replicas = create_replicas("banyan", PARAMS)
    for straggler in (5, 6):
        replicas[straggler] = DelayedReplica(replicas[straggler], extra_delay=1.0)
    simulation = Simulation(replicas, NetworkConfig(latency=ConstantLatency(0.05), seed=2))
    simulation.run(until=30.0)
    summarize("two stragglers (more than p=1): slow-path fallback", simulation)


def equivocation_scenario() -> None:
    replicas = create_replicas("banyan", PARAMS)
    replicas[0] = TwinReplica(0, PARAMS, factory=protocol_factory("banyan"),
                              split=((1, 2, 3), (4, 5, 6)))
    simulation = Simulation(replicas, NetworkConfig(latency=ConstantLatency(0.05), seed=3))
    simulation.run(until=30.0)
    summarize("equivocating replica 0 (twins split 1,2,3 | 4,5,6)", simulation, exclude=[0])


def main() -> None:
    crash_scenario()
    straggler_scenario()
    equivocation_scenario()
    print("all three fault scenarios preserved safety and liveness")


if __name__ == "__main__":
    main()
