"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from functools import partial
from typing import Dict, Iterable, List, Optional

import pytest

from repro.byzantine import TwinReplica
from repro.net.faults import FaultPlan
from repro.net.latency import ConstantLatency, LatencyModel
from repro.protocols.base import Protocol, ProtocolParams
from repro.protocols.registry import create_replicas, protocol_factory
from repro.runtime.simulator import NetworkConfig, Simulation


def build_simulation(
    protocol: str,
    n: int = 4,
    f: int = 1,
    p: int = 1,
    rank_delay: float = 0.4,
    payload_size: int = 1_000,
    latency: Optional[LatencyModel] = None,
    faults: Optional[FaultPlan] = None,
    seed: int = 1,
    overrides: Optional[Dict[int, object]] = None,
) -> Simulation:
    """Build a ready-to-run simulation of ``n`` replicas of ``protocol``."""
    params = ProtocolParams(
        n=n, f=f, p=p, rank_delay=rank_delay, payload_size=payload_size,
    )
    replicas = create_replicas(protocol, params, overrides=overrides)
    network = NetworkConfig(
        latency=latency or ConstantLatency(0.05),
        faults=faults or FaultPlan.none(),
        seed=seed,
    )
    return Simulation(replicas, network)


def twins(protocol: str, side_a: Iterable[int], side_b: Iterable[int]):
    """The ``overrides`` factory of a Twins replica of ``protocol`` whose
    twins talk to ``side_a`` and ``side_b``."""
    return partial(TwinReplica, factory=protocol_factory(protocol),
                   split=(tuple(side_a), tuple(side_b)))


class PerCopySimulation(Simulation):
    """The reference schedule: one ``message`` event per broadcast copy.

    Every broadcast is priced by the transport's reference ``broadcast``
    and each surviving copy is pushed as its own event under its own seq,
    so no ``sbatch`` chain, run-ahead or ``mbatch`` group is ever formed.
    :class:`Simulation` must replay this execution byte for byte.
    """

    def _broadcast_message(self, sender, message) -> None:
        receivers = self._replica_id_tuple
        self._messages_sent += len(receivers)
        self._bytes_sent += getattr(message, "wire_size", 0) * len(receivers)
        deliveries = self._transport.broadcast(sender, receivers, message,
                                               self.now, self._rng)
        self._messages_dropped += len(receivers) - len(deliveries)
        self._event_kind_counts["message"] += len(deliveries)
        for delivery in deliveries:
            self._push((delivery.deliver_at, next(self._seq), "message",
                        delivery.receiver, (sender, message)))


def committed_ids(simulation: Simulation, replica_id: int) -> List[str]:
    """Block ids committed by ``replica_id`` in commit order."""
    return [record.block.id for record in simulation.commits_for(replica_id)]


def assert_consistent_chains(simulation: Simulation) -> None:
    """Assert every pair of replicas committed consistent prefixes."""
    chains = [committed_ids(simulation, replica_id) for replica_id in simulation.replica_ids]
    reference = max(chains, key=len)
    for chain in chains:
        assert chain == reference[: len(chain)], "committed chains diverge"


def assert_no_conflicting_rounds(simulation: Simulation) -> None:
    """Assert no two replicas committed different blocks for the same round."""
    by_round: Dict[int, str] = {}
    for replica_id in simulation.replica_ids:
        for record in simulation.commits_for(replica_id):
            existing = by_round.get(record.block.round)
            if existing is None:
                by_round[record.block.round] = record.block.id
            else:
                assert existing == record.block.id, (
                    f"round {record.block.round} finalized two different blocks"
                )


@pytest.fixture
def small_params() -> ProtocolParams:
    """Default 4-replica parameters used across unit tests."""
    return ProtocolParams(n=4, f=1, p=1, rank_delay=0.4, payload_size=1_000)


@pytest.fixture
def n19_params() -> ProtocolParams:
    """The paper's 19-replica configuration with f=6, p=1."""
    return ProtocolParams(n=19, f=6, p=1, rank_delay=0.6, payload_size=10_000)
