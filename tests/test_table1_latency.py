"""The paper's Table 1 latencies, measured exactly.

On a network where every message takes the same one-way delay δ, a
proposer observes its block finalized after a fixed number of message
hops: Banyan's fast path takes two (proposal, fast votes), ICC's slow path
three (proposal, notarization votes, finalization votes), and Banyan falls
back to those three once more than ``p`` replicas are down.  With at most
``p`` down Banyan mixes both: a round whose fast quorum forms finalizes in
two hops, the others in three.  Each hop also
costs the :class:`repro.net.bandwidth.BandwidthModel` transfer time of the
message that completes it, priced from that message's ``wire_size``.  So
every proposer-observed latency must equal ``k·δ`` plus those ``k``
transfer times, to floating-point precision: a shift far smaller than a
δ-wide band fails here.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

import pytest

from repro.net.faults import CrashSchedule, FaultPlan
from repro.net.latency import ConstantLatency
from repro.protocols.base import ProtocolParams
from repro.protocols.registry import create_replicas
from repro.runtime.simulator import NetworkConfig, Simulation
from repro.types.messages import BlockProposal, VoteMessage
from repro.types.votes import VoteKind

DELTA = 0.05

#: Vote kinds whose messages form the hops after the proposal.
HOPS = {
    "fast": (VoteKind.FAST,),
    "slow": (VoteKind.NOTARIZATION, VoteKind.FINALIZATION),
}


@pytest.mark.parametrize("protocol, n, f, p, crashed, kinds", [
    pytest.param("banyan", 4, 1, 1, (), {"fast"}, id="banyan-4-1-1"),
    pytest.param("banyan", 6, 1, 2, (), {"fast"}, id="banyan-6-1-2"),
    pytest.param("banyan", 9, 2, 2, (), {"fast"}, id="banyan-9-2-2"),
    pytest.param("icc", 4, 1, 1, (), {"slow"}, id="icc-4-1-1"),
    pytest.param("icc", 7, 2, 1, (), {"slow"}, id="icc-7-2-1"),
    # At most p replicas down: both paths occur, each on its own latency.
    pytest.param("banyan", 4, 1, 1, (3,), {"fast", "slow"},
                 id="banyan-4-1-1-one-down"),
    pytest.param("banyan", 6, 1, 2, (4,), {"fast", "slow"},
                 id="banyan-6-1-2-one-down"),
    pytest.param("banyan", 9, 2, 2, (8,), {"fast", "slow"},
                 id="banyan-9-2-2-one-down"),
    pytest.param("banyan", 9, 2, 2, (7, 8), {"fast", "slow"},
                 id="banyan-9-2-2-two-down"),
    # p + 1 replicas down: the n - p fast quorum cannot form.
    pytest.param("banyan", 9, 2, 2, (6, 7, 8), {"slow"}, id="banyan-9-2-2-three-down"),
])
def test_every_commit_lands_on_the_table1_latency(protocol, n, f, p, crashed, kinds):
    params = ProtocolParams(n=n, f=f, p=p, rank_delay=0.4, payload_size=0)
    faults = FaultPlan(crash_schedule=CrashSchedule(
        crash_times={replica: 0.0 for replica in crashed}))
    sim = Simulation(create_replicas(protocol, params), NetworkConfig(
        latency=ConstantLatency(DELTA, local_delay_s=0), faults=faults, seed=1))

    # Wire sizes of each block's proposal and of the vote messages other
    # replicas sent for it (the proposer's own vote reaches it first, so
    # the quorum completes on the others').  A listener sees every send.
    proposals: Dict[str, BlockProposal] = {}
    vote_sizes: Dict[Tuple[str, VoteKind], Set[int]] = {}

    def record(sender, receiver, message, send_time, delivery):
        if isinstance(message, BlockProposal) and message.relayed_by is None:
            proposals[message.block.id] = message
        elif isinstance(message, VoteMessage):
            for vote in message.votes:
                if vote.voter != proposals[vote.block_id].block.proposer:
                    vote_sizes.setdefault((vote.block_id, vote.kind), set()).add(
                        message.wire_size)

    sim.add_delivery_listener(record)
    sim.run(until=5.0)

    bandwidth = sim.network.bandwidth
    checked = 0
    seen = set()
    for replica in sim.replica_ids:
        if replica in crashed:
            continue
        proposed = sim.protocol(replica).proposal_times
        for commit in sim.commits_for(replica):
            kind = commit.finalization_kind
            assert kind in kinds
            block = commit.block
            if block.proposer != replica:
                continue
            hops = [{proposals[block.id].wire_size}]
            hops += [vote_sizes[block.id, vote_kind] for vote_kind in HOPS[kind]]
            assert all(len(sizes) == 1 for sizes in hops), hops
            expected = len(hops) * DELTA + sum(
                bandwidth.transfer_time(replica, (replica + 1) % n, size)
                for (size,) in hops)
            assert commit.commit_time - proposed[block.id] == pytest.approx(
                expected, rel=0, abs=1e-9)
            checked += 1
            seen.add(kind)
    assert checked >= 10
    assert seen == kinds
