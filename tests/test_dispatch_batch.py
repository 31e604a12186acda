"""Event loops: run-ahead vs the per-copy reference, calendar vs heap.

Every delivery is one ``on_message`` call; the loops differ only in how
they reach the next event.  Pinned here:

* ``sbatch`` run-ahead (a jittered broadcast's chain delivered member
  after member without heap round trips) must produce executions
  byte-identical to the reference that schedules one ``message`` event
  per copy (:class:`PerCopySimulation`), across protocols, compute
  models, fault plans, and bounded and unbounded runs;
* the calendar-queue loop must replay the heap loop's execution across
  the same protocols, without compute and with or without message loss
  (the runs the calendar queue serves), also when a run is cut into
  budget chunks;
* ``run()`` must match single-stepping at n=64 with jitter and compute.
"""

from __future__ import annotations

import pytest

from repro.net.faults import CrashSchedule, FaultPlan
from repro.net.latency import GeoLatency
from repro.net.topology import four_global_datacenters
from repro.protocols.base import ProtocolParams
from repro.protocols.registry import create_replicas
from repro.runtime.simulator import NetworkConfig, Simulation
from tests.conftest import PerCopySimulation

PROTOCOLS = ("banyan", "icc", "hotstuff", "streamlet")
N = 7
HORIZON = 6.0


def _fault_plan(fault: str) -> FaultPlan:
    if fault == "none":
        return FaultPlan.none()
    if fault == "crash":
        # One permanent crash plus one crash-and-recover, timed to provoke
        # view/round timeouts.
        return FaultPlan(crash_schedule=CrashSchedule(
            crash_times={1: 0.5, 2: 1.8}, recover_times={2: 3.2}))
    if fault == "loss":
        return FaultPlan(drop_probability=0.05)
    raise ValueError(fault)


def _simulation(protocol: str, compute: str, fault: str,
                scheduler: str = "auto", simulation=Simulation) -> Simulation:
    # Jittered latency: broadcasts ride sbatch chains, so run-ahead fires
    # (jitter-free latency schedules no sbatch).  At n=7 ``"auto"`` is the
    # heap.
    params = ProtocolParams(n=N, f=1, p=1, rank_delay=0.2)
    protocols = create_replicas(protocol, params)
    network = NetworkConfig(
        latency=GeoLatency(four_global_datacenters(N), jitter=0.05),
        faults=_fault_plan(fault), seed=11, compute=compute,
        scheduler=scheduler)
    return simulation(protocols, network)


def _commit_digest(simulation: Simulation, n: int = N):
    return [
        (record.replica_id, record.block.round, record.block.id,
         record.commit_time, record.finalization_kind)
        for replica_id in range(n)
        for record in simulation.commits_for(replica_id)
    ]


def _execution_digest(simulation: Simulation, n: int = N, events=True):
    digest = {
        "commits": _commit_digest(simulation, n),
        "sent": simulation.messages_sent,
        "delivered": simulation.messages_delivered,
        "dropped": simulation.messages_dropped,
        "compute": simulation.compute_stats(),
        "now": simulation.now,
    }
    if events:
        # Event tallies differ by construction from the per-copy
        # reference, which schedules no batch events.
        digest["events"] = simulation.event_counts()
    return digest


class TestSweepScalarEquivalence:
    """Run-ahead dispatch vs the per-copy reference."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("compute", ["zero", "crypto"])
    @pytest.mark.parametrize("fault", ["none", "crash", "loss"])
    def test_byte_identical_executions(self, protocol, compute, fault):
        default = _simulation(protocol, compute, fault)
        default.run(until=HORIZON)

        reference = _simulation(protocol, compute, fault,
                                simulation=PerCopySimulation)
        reference.run(until=HORIZON)

        # The comparison must not be vacuous: run-ahead fired on the
        # default side only, and every cell commits.
        assert default.dispatch_counts()["runahead_members"] > 0
        assert reference.dispatch_counts()["runahead_members"] == 0
        assert (_execution_digest(default, events=False)
                == _execution_digest(reference, events=False))
        assert default.commits_for(0)

    def test_chunked_sbatch_run_matches_the_reference(self):
        # Bounded runs exercise the budget exits, including run-ahead's
        # own; chunked runs on either side must replay the unbounded
        # execution.
        def chunked(simulation) -> Simulation:
            simulation = _simulation("banyan", "crypto", "none",
                                     simulation=simulation)
            while simulation.now < HORIZON:
                simulation.run(until=HORIZON, max_events=97)
            return simulation

        default, reference = chunked(Simulation), chunked(PerCopySimulation)
        plain = _simulation("banyan", "crypto", "none")
        plain.run(until=HORIZON)
        assert default.dispatch_counts()["runahead_members"] > 0
        assert _execution_digest(default) == _execution_digest(plain)
        assert (_execution_digest(reference, events=False)
                == _execution_digest(plain, events=False))


# --------------------------------------------------------------------- #
# Calendar loop vs heap loop, with and without message loss
# --------------------------------------------------------------------- #


class TestCalendarMatchesHeap:
    """The calendar loop replays the heap loop's execution, loss included."""

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("compute", ["zero"])
    @pytest.mark.parametrize("fault", ["none", "loss"])
    def test_byte_identical_executions(self, protocol, compute, fault):
        heap = _simulation(protocol, compute, fault, scheduler="heap")
        heap.run(until=HORIZON)
        calendar = _simulation(protocol, compute, fault, scheduler="calendar")
        calendar.run(until=HORIZON)

        assert heap.scheduler_stats()["backend"] == "heap"
        assert calendar.scheduler_stats()["backend"] == "calendar"
        assert _execution_digest(calendar) == _execution_digest(heap)
        assert heap.commits_for(0)

    def test_chunked_calendar_run_matches_heap(self):
        # A budget cut can land inside a calendar burst or at the walk
        # front; resuming must replay the unbounded execution.
        calendar = _simulation("banyan", "zero", "loss",
                               scheduler="calendar")
        while calendar.now < HORIZON:
            calendar.run(until=HORIZON, max_events=97)
        heap = _simulation("banyan", "zero", "loss", scheduler="heap")
        heap.run(until=HORIZON)
        assert _execution_digest(calendar) == _execution_digest(heap)
        assert heap.messages_dropped > 0


# --------------------------------------------------------------------- #
# run() vs step() at scale (n ≥ 64 with jitter and compute)
# --------------------------------------------------------------------- #


class TestRunVsStepAtScale:
    def test_n64_run_matches_single_stepping(self):
        n = 64

        def build() -> Simulation:
            params = ProtocolParams(n=n, f=10, p=10, rank_delay=0.2)
            protocols = create_replicas("banyan", params)
            network = NetworkConfig(
                latency=GeoLatency(four_global_datacenters(n), jitter=0.05),
                faults=FaultPlan.none(), seed=11, compute="crypto")
            return Simulation(protocols, network)

        batched = build()
        batched.run(until=1.2)
        assert batched.event_counts()["sbatch"] > 0

        stepped = build()
        stepped.start()
        while stepped.now <= 1.2 and stepped.step():
            pass

        assert _commit_digest(batched, n) == _commit_digest(stepped, n)
        assert batched.messages_sent == stepped.messages_sent
        assert batched.compute_stats() == stepped.compute_stats()
