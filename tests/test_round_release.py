"""Round state is released behind the finalized height, without a trace.

ICC / Banyan keep one ``_RoundState`` per round, which owns the round's two
vote tallies and (Banyan) its ``FastPathState`` and proposer fast votes.
It is dropped ``ROUND_WINDOW`` rounds below ``min(k_max, current_round)`` —
below anything a replica still sends about — together with the blocks of
the round below it, so per-round memory is flat in the length of a run.  The contract pinned here: the state is bounded, a
message naming a released round is dropped at the door, and releasing
changes nothing an observer can see (the reference is the same replica
with the release step switched off).
"""

import pytest

from repro.byzantine.behaviors import DelayedReplica
from repro.core.banyan import BanyanReplica
from repro.net.faults import CrashSchedule, FaultPlan
from repro.net.latency import ConstantLatency, GeoLatency
from repro.net.topology import topology_by_name
from repro.protocols.base import ProtocolParams
from repro.protocols.icc import ROUND_WINDOW, ICCReplica
from repro.protocols.registry import create_replicas
from repro.runtime.simulator import NetworkConfig, Simulation
from repro.types.blocks import Block
from repro.types.certificates import (
    FastFinalization,
    Finalization,
    Notarization,
    UnlockProof,
)
from repro.types.messages import BlockProposal, CertificateMessage, VoteMessage
from repro.types.votes import VoteKind, make_vote
from tests.conftest import twins
from tests.test_protocol_units import FakeContext

N = 4
#: Rounds held at any time: the window, the rounds between the finalized
#: height and the current round, and one a faster peer already talks about.
HELD = ROUND_WINDOW + 4


class _BanyanKeepsEveryRound(BanyanReplica):
    def _release_rounds(self):
        pass


class _ICCKeepsEveryRound(ICCReplica):
    def _release_rounds(self):
        pass


REFERENCE = {"banyan": _BanyanKeepsEveryRound, "icc": _ICCKeepsEveryRound}


def _simulation(protocol, latency, faults=None, straggler=None, reference=False, seed=3):
    params = ProtocolParams(n=N, f=1, p=1, rank_delay=0.1, payload_size=500)
    overrides = {r: REFERENCE[protocol] for r in range(N)} if reference else None
    replicas = create_replicas(protocol, params, overrides=overrides)
    if straggler is not None:
        replicas[2] = DelayedReplica(replicas[2], 0.15, window=straggler)
    return Simulation(replicas, NetworkConfig(latency=latency, seed=seed,
                                              faults=faults or FaultPlan.none()))


def _inner(protocol):
    return getattr(protocol, "inner", protocol)


def _container_sizes(replica):
    """Entries held by each dict, set and list attribute of ``replica``."""
    return {name: len(value) for name, value in vars(replica).items()
            if isinstance(value, (dict, set, list))}


@pytest.mark.parametrize("protocol", ["banyan", "icc"])
def test_round_state_is_bounded_after_500_rounds(protocol):
    sim = _simulation(protocol, ConstantLatency(0.005))
    sim.run(until=12.0)
    for replica in sim.replica_ids:
        state = sim.protocol(replica)
        assert state.k_max > 500
        assert state._floor == min(state.k_max, state.current_round) - ROUND_WINDOW
        assert len(state._rounds) <= HELD
        assert min(state._rounds) >= state._floor
        # Every other container is bounded too; only the proposal log (one
        # entry per own block, the latency measurement's input) grows.
        sizes = _container_sizes(state)
        assert sizes.pop("proposal_times") > 0
        assert max(sizes.values()) <= HELD, sizes
        # Blocks leave with their round: the tree and the chain hold a
        # window, genesis included while it is in it, and so do the tree's
        # status sets, committed ids included ...
        assert len(state.tree) <= HELD + 1
        assert len(state.chain) <= HELD + 1
        tree = _container_sizes(state.tree)
        assert max(tree.values()) <= HELD + 1, tree
        # ... and the output still streamed every finalized block.
        assert len(sim.commits_for(replica)) == state.k_max


def _stale_messages(round_k, block_id):
    voters = range(3)
    votes = VoteMessage(votes=tuple(make_vote(kind, round_k, block_id, 1)
                                    for kind in VoteKind), sender=1)
    proof = UnlockProof(round=round_k, block_id=block_id,
                        votes_by_block=((block_id, voters),))
    certificates = [
        CertificateMessage(certificate=cls(round=round_k, block_id=block_id, voters=voters),
                           unlock_proof=proof, sender=1)
        for cls in (Notarization, Finalization, FastFinalization)]
    fork = Block(round=round_k, proposer=1, rank=1, parent_id=block_id, payload=b"late")
    proposal = BlockProposal(
        block=fork, parent_notarization=Notarization(
            round=round_k - 1, block_id=block_id, voters=voters),
        parent_unlock_proof=UnlockProof(round=round_k - 1, block_id=block_id,
                                        votes_by_block=((block_id, voters),)),
        fast_vote=make_vote(VoteKind.FAST, round_k, fork.id, 1))
    return [votes, *certificates, proposal]


def _committed_id(sim, replica, round_k):
    """The id of the block ``replica`` committed at ``round_k``."""
    return next(record.block.id for record in sim.commits_for(replica)
                if record.block.round == round_k)


@pytest.mark.parametrize("protocol", ["banyan", "icc"])
def test_messages_naming_a_released_round_allocate_and_send_nothing(protocol):
    sim = _simulation(protocol, ConstantLatency(0.005))
    sim.run(until=2.0)
    replica = sim.protocol(0)
    assert replica._floor > 10
    released = replica._floor - 1
    block_id = _committed_id(sim, 0, released)
    ctx = FakeContext(0, N)

    def held():
        return (sorted(replica._rounds), _container_sizes(replica), len(replica.tree),
                dict(replica._orphans), dict(replica._pending_finalizations))

    before = held()
    for message in _stale_messages(released, block_id):
        replica.on_message(ctx, 1, message)
    replica.on_timer(ctx, type("T", (), {"name": "notarize", "data": released})())
    assert held() == before
    assert ctx.broadcasts == [] and ctx.sent == [] and ctx.timers == []
    assert ctx.committed == []
    # The same messages about a round still held do reach its tallies.
    live = replica._floor
    live_id = _committed_id(sim, 0, live)
    tally = replica._rounds[live].notarization
    replica.on_message(ctx, 1, VoteMessage(
        votes=(make_vote(VoteKind.NOTARIZATION, live, live_id + "'", 1),), sender=1))
    assert tally.count(live_id + "'") == 1


@pytest.mark.parametrize("split", [((0, 2, 3), (4, 5, 6)), ((0,), (2, 3, 4, 5, 6))])
def test_a_released_round_leaves_its_fast_path_verdicts_behind(split):
    """Equivocation evidence and fast-path soundness are judged after the
    run; a released round's share of both must survive it.  Relayed
    proposals carry the other twin's fast vote, so even the replica alone
    on one side catches replica 1."""
    from repro.byzantine.behaviors import fast_vote_equivocators

    params = ProtocolParams(n=7, f=2, p=1, rank_delay=0.1, payload_size=500)
    replicas = create_replicas("banyan", params, overrides={1: twins("banyan", *split)})
    sim = Simulation(replicas, NetworkConfig(latency=ConstantLatency(0.01), seed=3))
    sim.run(until=8.0)
    for replica in (r for r in sim.replica_ids if r != 1):
        protocol = sim.protocol(replica)
        led_by_1 = [k for k in range(1, protocol._floor) if protocol.beacon.leader(k) == 1]
        assert len(led_by_1) > 5 and not set(led_by_1) & set(protocol._rounds)
        assert protocol.released_fast_equivocators == {1}
        assert fast_vote_equivocators(protocol) == frozenset({1})
        assert protocol.released_fast_conflicts == []


SCHEDULES = {
    "straggler": dict(straggler=(1.0, 3.0)),
    "crash-recover": dict(faults=FaultPlan(crash_schedule=CrashSchedule(
        crash_times={3: 1.0}, recover_times={3: 2.5}))),
}
LATENCIES = {
    "constant": lambda: ConstantLatency(0.01),
    "geo": lambda: GeoLatency(topology_by_name("us4", N)),
}


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("latency", LATENCIES)
@pytest.mark.parametrize("protocol", ["banyan", "icc"])
def test_releasing_rounds_is_invisible(protocol, latency, schedule):
    """Released vs never released: same commits at the same instants, same
    messages, same bytes — only the memory differs."""
    def observe(reference):
        sim = _simulation(protocol, LATENCIES[latency](), reference=reference,
                          **SCHEDULES[schedule])
        sim.run(until=5.0)
        commits = [(r.replica_id, r.block.id, r.commit_time, r.finalization_kind)
                   for replica in sim.replica_ids for r in sim.commits_for(replica)]
        # Replica 3 is the one that crashes: back up, it waits for ancestors
        # it missed, its finalized height stands still and so does its floor.
        held = max(len(_inner(sim.protocol(r))._rounds) for r in (0, 1, 2))
        return commits, sim.messages_sent, sim.event_counts(), sim.transport_stats(), held

    *released, held = observe(reference=False)
    *kept, kept_held = observe(reference=True)
    assert released == kept
    assert len(released[0]) > 4 * 40          # every replica ran well past the window
    assert held <= HELD + 2 < kept_held
