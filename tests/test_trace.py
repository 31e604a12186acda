"""Tests for the execution-tracing module."""

from __future__ import annotations

import pytest

from repro.net.latency import ConstantLatency
from repro.protocols.base import ProtocolParams
from repro.protocols.registry import create_replicas
from repro.runtime.simulator import NetworkConfig, Simulation
from repro.runtime.trace import ProtocolTracer, TraceLog, trace_replicas


def _traced_simulation(protocol="banyan", n=4, seed=1):
    params = ProtocolParams(n=n, f=1, p=1, rank_delay=0.4, payload_size=1_000)
    replicas = create_replicas(protocol, params)
    log = TraceLog()
    traced = trace_replicas(replicas, shared_log=log)
    sim = Simulation(traced, NetworkConfig(latency=ConstantLatency(0.05), seed=seed))
    return sim, log


class TestTracing:
    def test_trace_records_all_event_kinds(self):
        sim, log = _traced_simulation()
        sim.run(until=3.0)
        counts = log.counts_by_kind()
        for kind in ("start", "recv", "broadcast", "commit"):
            assert counts.get(kind, 0) > 0, f"expected {kind} events"
        assert counts["start"] == 4

    def test_tracing_does_not_change_behaviour(self):
        def committed(traced: bool):
            params = ProtocolParams(n=4, f=1, p=1, rank_delay=0.4, payload_size=1_000)
            replicas = create_replicas("banyan", params)
            if traced:
                replicas = trace_replicas(replicas)
            sim = Simulation(replicas, NetworkConfig(latency=ConstantLatency(0.05), seed=3))
            sim.run(until=5.0)
            return [(r.block.id, round(r.commit_time, 9)) for r in sim.commits_for(0)]

        assert committed(traced=False) == committed(traced=True)

    @pytest.mark.parametrize("tracer_outside", [True, False],
                             ids=["trace-over-delay", "delay-over-trace"])
    def test_composed_wrappers_do_not_change_behaviour(self, tracer_outside):
        """A tracer and a straggler's delaying wrapper stacked on one
        replica: every replica commits what the untraced set commits."""
        from repro.byzantine import DelayedReplica

        def committed(traced: bool):
            params = ProtocolParams(n=4, f=1, p=1, rank_delay=0.4, payload_size=1_000)
            replicas = create_replicas("banyan", params)
            if traced and not tracer_outside:
                replicas[3] = ProtocolTracer(replicas[3])
            replicas[3] = DelayedReplica(replicas[3], extra_delay=0.3)
            if traced and tracer_outside:
                replicas = trace_replicas(replicas)
            sim = Simulation(replicas, NetworkConfig(latency=ConstantLatency(0.05), seed=3))
            sim.run(until=6.0)
            return [(r.replica_id, r.block.id, r.commit_time, r.finalization_kind)
                    for commits in sim.all_commits().values() for r in commits]

        plain = committed(traced=False)
        assert plain
        assert committed(traced=True) == plain

    def test_filtering_by_replica_and_kind(self):
        sim, log = _traced_simulation()
        sim.run(until=3.0)
        commits_r2 = log.events(kind="commit", replica_id=2)
        assert commits_r2
        assert all(e.replica_id == 2 and e.kind == "commit" for e in commits_r2)
        assert len(log.events(kind="commit")) >= len(commits_r2)

    def test_between_filters_by_time(self):
        sim, log = _traced_simulation()
        sim.run(until=4.0)
        early = log.between(0.0, 1.0)
        late = log.between(3.0, 4.0)
        assert early and late
        assert all(event.time < 1.0 for event in early)
        assert all(3.0 <= event.time < 4.0 for event in late)

    def test_render_produces_one_line_per_event(self):
        sim, log = _traced_simulation()
        sim.run(until=1.0)
        text = log.render(limit=10)
        assert len(text.splitlines()) == 10
        assert "broadcast" in log.render()

    def test_commit_events_carry_structured_data(self):
        sim, log = _traced_simulation()
        sim.run(until=3.0)
        commit = log.events(kind="commit")[0]
        assert commit.data is not None
        assert commit.data["kind"] in ("fast", "slow")
        assert commit.data["rounds"]

    def test_tracer_exposes_inner_proposal_times(self):
        sim, log = _traced_simulation()
        sim.run(until=3.0)
        tracer = sim.protocol(1)
        assert isinstance(tracer, ProtocolTracer)
        assert tracer.proposal_times is tracer.inner.proposal_times
        assert tracer.proposal_times  # replica 1 led round 1

    def test_separate_logs_when_not_shared(self):
        params = ProtocolParams(n=4, f=1, p=1, rank_delay=0.4, payload_size=1_000)
        replicas = create_replicas("icc", params)
        tracers = {rid: ProtocolTracer(proto) for rid, proto in replicas.items()}
        sim = Simulation(tracers, NetworkConfig(latency=ConstantLatency(0.05), seed=1))
        sim.run(until=2.0)
        assert all(len(tracer.log) > 0 for tracer in tracers.values())
        assert len({id(t.log) for t in tracers.values()}) == 4
