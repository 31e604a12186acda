"""The golden regression corpus: one digest per execution-semantics cell.

Every protocol × transport × compute combination runs a short deterministic
simulation whose commit schedule is digested and pinned.  Any change to rng
consumption order, arithmetic, event sequencing, transport timing, or
compute charging in *any* cell shows up as a digest mismatch here — this
file replaces the per-PR golden tests that used to be scattered across
``tests/test_transport.py`` (transport refactor) and the compute suite.

Two legacy cells are kept verbatim from the transport-refactor goldens
(they additionally cover random message loss and byte accounting, which the
grid cells do not): their digests were captured on the commit *before* the
transport layer existed, so they also pin DirectTransport's equivalence
with the original in-simulator pipeline.

Four client-workload cells (open/poisson, open/constant into 50-entry
mempools, open/flash-crowd, closed loop) additionally pin a hash of the
full ``WorkloadMetrics``; they were captured on the event-per-arrival
client pool, before open-loop arrivals became lazily admitted.

Regenerating after an *intentional* semantics change: run each cell and
paste the new digests (see ``_execution_digest``), and say so in the
commit message — a digest edit without a deliberate semantics change is a
bug by definition.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.net.bandwidth import BandwidthModel
from repro.net.faults import FaultPlan
from repro.net.latency import GeoLatency
from repro.net.topology import four_global_datacenters
from repro.protocols.base import ProtocolParams
from repro.protocols.registry import create_replicas
from repro.runtime.simulator import NetworkConfig, Simulation

PROTOCOLS = ("banyan", "icc", "hotstuff", "streamlet")
TRANSPORTS = ("direct", "contended", "relay")
COMPUTES = ("zero", "crypto")

#: Pinned digests, keyed by (protocol, transport, compute).
GOLDEN_DIGESTS = {
    ("banyan", "direct", "zero"):
        "b9a734c4a624f1c7317a274fcf51bd2d872eac99cd07410bc456761104c841a5",
    ("banyan", "direct", "crypto"):
        "847cd3a435af938d387cb81ffd6660e8ccb19c64578e2abf1197fa767d2df6cf",
    ("banyan", "contended", "zero"):
        "555379c5c125832e4ee538d4c91a8fbcc841d2b981929bc06f07c12db7d4dc77",
    ("banyan", "contended", "crypto"):
        "eb754bb0f477d6ea0e80348fd22a45213328f62634ca0599e2201ba81436001e",
    ("banyan", "relay", "zero"):
        "a115e491e041fb29e247366e9a97c185d4c83bccd4b95daf0f4f5ff943ff1eb7",
    ("banyan", "relay", "crypto"):
        "865c26217203fc1b805b1b45325a0413bfad6ee5d56b3574ef686fe7f0f83af0",
    ("icc", "direct", "zero"):
        "150c0289c8dd5033a1a496dac23046bf461fef991453af44e9696103bd33ba05",
    ("icc", "direct", "crypto"):
        "57219ddddbf4f3ce86f9d253c9d689ebb13ae31e04c59871a7aee24e349c28cc",
    ("icc", "contended", "zero"):
        "50affe5e627054d2544414b832390dd87296bc963724581f99191426f5994b79",
    ("icc", "contended", "crypto"):
        "f225ae131d338d856ddae161ba6039ca7f5b2aed8c413430033b3c5f113d260c",
    ("icc", "relay", "zero"):
        "10b0288c6401cbdb6ff5cb7d242ef9d53e1d5c884a43d7d38d44876b09d71936",
    ("icc", "relay", "crypto"):
        "ad74c8c1b83d68d2e256f756fa4347be7fa67a0244b17538d4dbc2fcd8d880b2",
    ("hotstuff", "direct", "zero"):
        "fbeb7d08ae6553afbf1bbdb524b494a75d0f3b4938f1956ba5196e75cbafb56e",
    ("hotstuff", "direct", "crypto"):
        "b89181720e011e83dac581858247df53ff27e1cef60da086fc1364409b0b3519",
    ("hotstuff", "contended", "zero"):
        "3ea22fda3bc27073f313f065fce2ae467b60fb710bddae3d8ca7e96ee68497b2",
    ("hotstuff", "contended", "crypto"):
        "cf9fde338464dcaef67b36cf89dafa6883d7b3a62fea823dd1f05ad2f4a22578",
    ("hotstuff", "relay", "zero"):
        "ef8f358640443594ce041250196620eb10713aa5e06922145274c54d31962862",
    ("hotstuff", "relay", "crypto"):
        "25254845a68bd6d834144fb71242edc898b9892bc206ed5158a4299ce14a1e8f",
    ("streamlet", "direct", "zero"):
        "917781c76a80d2e57f7096956b812047dbe72ceb6f00d531625e8f3fe200f082",
    ("streamlet", "direct", "crypto"):
        "52bf3b3a4ffac1674540a62eca194ebd82a54402abc6b2d5ac5f2281364a6fc0",
    ("streamlet", "contended", "zero"):
        "4145b3521d0dcd375fc9736f875530551bf661632df09d1e7480c95e059321a5",
    ("streamlet", "contended", "crypto"):
        "283b7b9d2ef95ec19d8058ea9173e62eb443c32757d1a259334e846f309dbeac",
    ("streamlet", "relay", "zero"):
        "591e96a074a6251bd90f9ec586c3e6de5bf686787100148e34b25366ff16f94b",
    ("streamlet", "relay", "crypto"):
        "24c578650a3e684207210bd1f8ec377a136f27ed731cf7364117c4b718fae7e3",
}


def _commit_digest(simulation: Simulation) -> str:
    """Digest a finished simulation's full commit schedule."""
    commits = []
    for replica_id in simulation.replica_ids:
        for record in simulation.commits_for(replica_id):
            commits.append((
                record.replica_id, record.block.round, record.block.proposer,
                f"{record.commit_time:.9f}", record.finalization_kind,
                str(record.block.id),
            ))
    return hashlib.sha256(repr(commits).encode()).hexdigest()


def _execution_digest(protocol: str, transport: str, compute: str,
                      scheduler: str = "auto") -> str:
    """Run one corpus cell: n=4 on the global topology, 8 simulated seconds.

    ``scheduler`` forces an event-queue backend; both backends replay the
    same ``(time, seq)`` total order, so every cell's digest must be
    invariant to it (pinned by ``tests/test_scheduler.py``).
    """
    params = ProtocolParams(n=4, f=1, p=1, rank_delay=0.6, payload_size=50_000)
    topology = four_global_datacenters(4)
    network = NetworkConfig(
        latency=GeoLatency(topology),
        bandwidth=BandwidthModel(topology=topology),
        seed=7,
        transport=transport,
        # 50 Mbit/s: low enough that broadcasts genuinely queue on the NIC.
        uplink_bytes_per_s=6_250_000.0 if transport == "contended" else None,
        relays=2,
        compute=compute,
        scheduler=scheduler,
    )
    simulation = Simulation(create_replicas(protocol, params), network)
    simulation.run(until=8.0)
    return _commit_digest(simulation)


@pytest.mark.parametrize("compute", COMPUTES)
@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_execution_digest_is_pinned(protocol, transport, compute):
    assert _execution_digest(protocol, transport, compute) == \
        GOLDEN_DIGESTS[(protocol, transport, compute)], (
            f"{protocol}/{transport}/{compute} execution changed — if this "
            f"is an intentional semantics change, regenerate the corpus "
            f"digests and say so in the commit message"
        )


def test_corpus_covers_the_full_grid():
    assert set(GOLDEN_DIGESTS) == {
        (protocol, transport, compute)
        for protocol in PROTOCOLS
        for transport in TRANSPORTS
        for compute in COMPUTES
    }
    # Distinct cells describe distinct executions.
    assert len(set(GOLDEN_DIGESTS.values())) == len(GOLDEN_DIGESTS)


class TestLegacyPreRefactorGoldens:
    """The two transport-refactor goldens, kept for their extra coverage.

    Captured before the transport layer existed; they additionally pin
    random-loss rng consumption and the byte/message accounting.
    """

    def _fingerprint(self, protocol, faults, seed, latency_kind, duration):
        params = ProtocolParams(n=4, f=1, p=1, rank_delay=0.6, payload_size=50_000)
        topology = four_global_datacenters(4)
        if latency_kind == "geo":
            latency = GeoLatency(topology)
            bandwidth = BandwidthModel(topology=topology)
        else:
            from repro.net.latency import ConstantLatency

            latency = ConstantLatency(0.05)
            bandwidth = BandwidthModel()
        simulation = Simulation(
            create_replicas(protocol, params),
            NetworkConfig(latency=latency, bandwidth=bandwidth, faults=faults,
                          seed=seed),
        )
        simulation.run(until=duration)
        return _commit_digest(simulation), simulation

    def test_banyan_with_drops_and_geo_latency(self):
        digest, simulation = self._fingerprint(
            "banyan", FaultPlan(drop_probability=0.02), seed=3,
            latency_kind="geo", duration=12.0,
        )
        assert digest == ("ceedd047eb2937151dcb633359b0e1fc"
                          "beff1d582b231e8427a7d1cc90b7a8b8")
        assert simulation.bytes_sent == 54_428_736
        assert simulation.messages_sent == 5_208
        assert simulation.messages_delivered == 5_054
        assert simulation.messages_dropped == 106

    def test_icc_faultless_constant_latency(self):
        digest, simulation = self._fingerprint(
            "icc", FaultPlan.none(), seed=0,
            latency_kind="const", duration=10.0,
        )
        assert digest == ("7ab2125db439432d731e3dab43d192fe"
                          "144fe383f697afa041d7a98be6d74a73")
        assert simulation.bytes_sent == 81_584_448


# --------------------------------------------------------------------- #
# Client-workload cells: commit schedule plus the full WorkloadMetrics
# --------------------------------------------------------------------- #

#: One spec per client model / arrival shape.  ``open-drops`` runs a
#: constant 1000 tx/s into 50-entry mempools, so most submissions are shed
#: and every drop decision depends on the mempool depth at that instant.
WORKLOAD_CELLS = {
    "open-poisson": dict(mode="open", arrival="poisson", rate=300.0),
    "open-drops": dict(mode="open", arrival="constant", rate=1000.0,
                       mempool_capacity=50, max_block_bytes=8_192),
    "open-flash-crowd": dict(mode="open", arrival="flash-crowd", rate=60.0,
                             burst_rate=900.0, burst_start=3.0,
                             burst_duration=1.5, mempool_capacity=80),
    "closed": dict(mode="closed", num_clients=24, think_time=0.1,
                   mempool_capacity=4),
}

#: Pinned ``(commit digest, sha256 of WorkloadMetrics.to_dict())`` per
#: cell, captured on the event-per-arrival client pool.
WORKLOAD_GOLDENS = {
    "closed": (
        "ccbb6fc58a8780d5eefa05344dfc3906d8ac5f1db9113568a9cc5db03c70d33a",
        "fd2d486ee3202d383ed82d0361f9e91c5bbe9456c3cccfda8ad0700bf97eb26c"),
    "open-drops": (
        "3b847d7da97576651a06bfa65b7641f6a791aee8af919289e327b954df30df18",
        "a5c80c9b313a1386bdbe73d6004dcf53cafb15a7b300d9a440d26457a356d68f"),
    "open-flash-crowd": (
        "3489171bd7c41074f64a6c0c32ab3f30fa92842e1a7007419a6e015e7d674d3b",
        "75bd941b474d0e36ee6f9d4b7420bccb39e03a2da8dd54a7024eff0c4fe4ba0a"),
    "open-poisson": (
        "ac536b7e141e71168c7baac6d17259ae26d7e537f4cd9093bc071b67f2a0e9b7",
        "1cb4ac3dc4719a419bd168ca615f1686f3da89db8daeb9ac13a91e1962184c99"),
}


def _workload_digests(cell: str):
    from repro.eval.experiment import ExperimentConfig, run_experiment
    from repro.workload.spec import WorkloadSpec

    config = ExperimentConfig(
        "banyan", ProtocolParams(n=4, f=1, p=1),
        workload=WorkloadSpec(tx_size=128, seed=11, **WORKLOAD_CELLS[cell]),
        duration=8.0, warmup=1.0, seed=7,
    )
    captured = []
    result = run_experiment(config, on_simulation=captured.append)
    metrics = json.dumps(result.workload.to_dict(), sort_keys=True)
    return (_commit_digest(captured[0]),
            hashlib.sha256(metrics.encode()).hexdigest())


@pytest.mark.parametrize("cell", sorted(WORKLOAD_CELLS))
def test_workload_execution_is_pinned(cell):
    assert _workload_digests(cell) == WORKLOAD_GOLDENS[cell], (
        f"workload cell {cell} changed — commit schedule or client-side "
        f"metrics (latencies, counts, occupancy samples) differ"
    )
