"""Real-cluster tests: liveness over actual TCP, crash-kill recovery, and
socket-level chaos replay.

These spawn genuine ``python -m repro.cluster.node`` subprocesses talking
over localhost sockets with monotonic-clock timers — the full distance
from the simulator.  Horizons are kept short (a few wall-clock seconds per
cluster) with a small ``rank_delay``, which localhost latency easily
supports.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.chaos.invariants import liveness_bound
from repro.chaos.schedule import ChaosSchedule, Fault
from repro.cluster.harness import (
    LocalCluster,
    cross_validate,
    encode_transaction,
    run_local_cluster,
    send_schedule,
    split_transactions,
)
from repro.cluster.node import ClusterNode, MempoolSource, NodeConfig, load_config, main
from repro.eval.experiment import ExperimentConfig
from repro.net.faults import FaultPlan
from repro.protocols.base import ProtocolParams, innermost
from repro.protocols.icc import ROUND_WINDOW
from repro.smr.mempool import Mempool
from repro.workload.spec import WorkloadSpec

# Cluster-wide timing used by every test: fast ranks (localhost), a short
# recovery timeout, and a horizon that leaves a checkable liveness tail
# (liveness bound = round_timeout + 2·n·rank_delay + 2).
RANK_DELAY = 0.05
ROUND_TIMEOUT = 0.5
N = 4
PARAMS = ProtocolParams(n=N, f=1, p=1, rank_delay=RANK_DELAY,
                        round_timeout=ROUND_TIMEOUT)


def cluster_config(protocol="banyan", duration=4.0, **fields):
    """A cluster run of ``protocol`` on the tests' timing, measured whole."""
    return ExperimentConfig(protocol=protocol, params=PARAMS, duration=duration,
                            warmup=0.0, **fields)


# --------------------------------------------------------------------- #
# Pure helpers (no processes)
# --------------------------------------------------------------------- #


def test_malformed_frame_is_a_counted_decode_error_not_a_dead_server():
    """A certificate whose voter mask is longer than any replica id allows
    is malformed input: the codec must reject it (the connection is dropped
    and counted), not let an exception escape the connection task."""
    import asyncio

    from repro.cluster.tcp_transport import TcpTransport
    from repro.cluster.wire import WIRE_MAGIC, WIRE_VERSION, encode_frame
    from repro.types.messages import VoteMessage
    from repro.types.votes import NotarizationVote

    good = encode_frame(1, VoteMessage(
        votes=(NotarizationVote(round=1, block_id="b", voter=1),), sender=1))
    # From replica 1: a notarization of block "b" claiming a 65535-byte mask.
    envelope = bytes.fromhex("00000001" "05" "0000000000000001" "0001" "ffff") + b"b\x00"
    bad = bytes([WIRE_MAGIC, WIRE_VERSION]) + len(envelope).to_bytes(4, "big") + envelope
    received = []

    async def scenario():
        loop = asyncio.get_running_loop()
        failures = []
        loop.set_exception_handler(lambda _, context: failures.append(context))
        transport = TcpTransport(0, {}, lambda sender, message: received.append(sender),
                                 clock=time.time)
        await transport.start("127.0.0.1", 0)
        port = transport._server.sockets[0].getsockname()[1]
        try:
            for payload in (good + bad + good, good):
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                writer.write(payload)
                await writer.drain()
                # The node closes a connection it can no longer parse; a
                # healthy one stays open until we close it.
                if bad in payload:
                    assert await asyncio.wait_for(reader.read(), timeout=5) == b""
                writer.close()
                await writer.wait_closed()
            for _ in range(100):
                if len(received) == 2:
                    break
                await asyncio.sleep(0.01)
        finally:
            await transport.stop()
        return transport.stats, failures

    stats, failures = asyncio.run(scenario())
    assert failures == []           # no task died of an unhandled exception
    assert stats["decode_errors"] == 1
    assert received == [1, 1]       # the frame before it, and a later connection
    assert stats["recv_frames"] == 2


def test_transport_counters_are_part_of_the_verdict():
    """A node's undecodable frames and backpressure drops used to sit in its
    summary JSON; ``cross_validate`` now turns them into violations."""
    def verdict(stats, **options):
        return [(v.invariant, v.replica, v.detail) for v in cross_validate(
            [], n=N, schedule=ChaosSchedule(), duration=5.0, liveness_bound=10.0,
            summaries={2: {"transport": stats}}, **options)]

    assert verdict({"decode_errors": 0, "dropped_backpressure": 0}) == []
    assert verdict({"decode_errors": 3, "dropped_backpressure": 7}) == [
        ("transport", 2, "decode_errors = 3"),
        ("transport", 2, "dropped_backpressure = 7"),
    ]
    # Frames queued for a SIGKILLed peer have nowhere to go: not a finding.
    assert verdict({"decode_errors": 1, "dropped_backpressure": 7}, exclude=(3,)) == [
        ("transport", 2, "decode_errors = 1"),
    ]


@pytest.mark.parametrize("fields, message", [
    ({"topology": "global4"}, "cannot run topology='global4'"),
    ({"latency_model": "wan-matrix"}, "cannot run latency_model='wan-matrix'"),
    ({"transport": "contended"}, "cannot run transport='contended'"),
    ({"compute": "crypto"}, "cannot run compute='crypto'"),
    ({"scheduler": "heap"}, "cannot run scheduler='heap'"),
    ({"stragglers": 1}, "cannot run stragglers=1"),
    ({"faults": FaultPlan.with_crashed([3])}, "faults as a chaos schedule"),
    ({"workload": WorkloadSpec(mode="closed")}, "cannot run closed-loop clients"),
    ({"workload": WorkloadSpec(mempool_max_bytes=4096)}, "cannot run mempool_max_bytes"),
], ids=lambda value: next(iter(value)) if isinstance(value, dict) else None)
def test_cluster_refuses_what_only_the_simulator_runs_before_spawning(
        fields, message, tmp_path):
    with pytest.raises(ValueError, match=message) as refusal:
        run_local_cluster(cluster_config(duration=1.0, **fields), log_dir=tmp_path)
    assert "\n" not in str(refusal.value)
    assert not list(tmp_path.glob("replica-*.stdio.log"))


@pytest.mark.parametrize("spec", [
    WorkloadSpec(rate=300.0, num_clients=3, seed=5),
    WorkloadSpec(arrival="flash-crowd", rate=40.0, burst_rate=600.0,
                 burst_start=0.5, burst_duration=0.5, num_clients=5, seed=2),
], ids=["poisson", "flash-crowd"])
def test_cluster_client_sends_what_the_simulator_pool_submits(spec):
    """The cluster's ``(stamp, tx id, client, replica)`` schedule is the
    one a ``ClientPool`` of the same spec submits in a simulation run to
    the same horizon."""
    from repro.net.latency import ConstantLatency
    from repro.protocols.registry import create_replicas
    from repro.runtime.simulator import NetworkConfig, Simulation

    horizon = 2.0
    pool = spec.build_pool()
    replicas = create_replicas("banyan", PARAMS, payload_source=pool.payload_source(
        max_block_bytes=spec.max_block_bytes))
    simulation = Simulation(replicas, NetworkConfig(latency=ConstantLatency(0.01)))
    pool.attach(simulation, stop_time=horizon)
    simulation.run(until=horizon)
    submitted = [(record.submit_time, record.tx_id, record.client_id, record.replica_id)
                 for record in pool.records()]
    assert len(submitted) > 100
    assert send_schedule(spec, N, horizon) == submitted


def test_node_mempool_samples_merge_by_tick():
    """Each node's ``(tick, transactions, bytes)`` samples become one
    occupancy sample per tick; a node without samples (``sample_interval``
    0, or no summary) adds nothing."""
    from repro.cluster.harness import _occupancy
    from repro.smr.metrics import OccupancySample

    summaries = {0: {"occupancy": [[1, 2, 128], [2, 0, 0]]},
                 1: {"occupancy": [[1, 1, 64], [2, 3, 192], [3, 1, 64]]},
                 2: {"occupancy": []}, 3: {}}
    assert _occupancy(0.5, summaries) == [
        OccupancySample(time=0.5, transactions=3, total_bytes=192, per_replica={0: 2, 1: 1}),
        OccupancySample(time=1.0, transactions=3, total_bytes=192, per_replica={0: 0, 1: 3}),
        OccupancySample(time=1.5, transactions=1, total_bytes=64, per_replica={1: 1}),
    ]
    assert _occupancy(0.5, {0: {"occupancy": []}}) == []


def test_transaction_header_roundtrip():
    tx = encode_transaction(421, 7, 128)
    assert len(tx) == 128
    assert split_transactions(tx) == [(421, 7)]
    assert split_transactions(tx + encode_transaction(9, 1, 64)) \
        == [(421, 7), (9, 1)]
    assert split_transactions(b"cluster:r3:p1") == []


def test_mempool_source_drains_and_falls_back():
    mempool = Mempool()
    source = MempoolSource(mempool, max_block_bytes=256, payload_size=0)
    mempool.add(encode_transaction(1, 0, 100))
    mempool.add(encode_transaction(2, 0, 100))
    mempool.add(encode_transaction(3, 0, 100))
    payload, size = source.payload_for(4, 2)
    # Two 100-byte transactions fit the 256-byte budget; the third waits.
    assert [tx_id for tx_id, _ in split_transactions(payload)] == [1, 2]
    assert size == 200
    payload, _ = source.payload_for(5, 3)
    assert split_transactions(payload) == [(3, 0)]
    # Empty mempool: synthetic round-tagged payload of logical size 0.
    payload, size = source.payload_for(6, 0)
    assert payload == b"cluster:r6:p0" and size == 0


def test_commit_log_is_written_once_per_loop_turn_and_at_once_on_error(tmp_path):
    import asyncio

    from repro.cluster.node import ClusterNode
    from repro.types.blocks import Block

    log = tmp_path / "commit.log"
    node = ClusterNode(NodeConfig(replica_id=0, protocol="banyan", params=PARAMS,
                                  peers={0: ("127.0.0.1", 0)}, commit_log=str(log)))
    blocks = [Block(round=r, proposer=r % N, rank=0, parent_id="g", payload=b"tx")
              for r in (1, 2)]

    def divide_by_zero():
        return 1 / 0

    async def scenario():
        node._loop = asyncio.get_running_loop()
        with open(log, "a", encoding="utf-8") as handle:
            node._log_handle = handle
            node.record_commit(blocks, "fast")
            node.record_commit(blocks[:1], "slow")
            assert log.read_text() == ""            # buffered within the turn
            await asyncio.sleep(0)
            turn = log.read_text()
            node._guarded(divide_by_zero)            # an error is written at once
            return turn, log.read_text()

    turn, final = asyncio.run(scenario())
    lines = [json.loads(line) for line in turn.splitlines()]
    assert [(line["round"], line["kind"]) for line in lines] == [
        (1, "fast"), (2, "fast"), (1, "slow")]
    assert turn.splitlines()[0] == json.dumps(lines[0], sort_keys=True)
    error = json.loads(final[len(turn):])
    assert error["type"] == "error" and "ZeroDivisionError" in error["detail"]


@pytest.mark.parametrize("delay", [float("nan"), float("inf"), -1.0])
def test_node_refuses_a_timer_delay_the_simulator_refuses(delay):
    import asyncio

    from repro.cluster.node import ClusterNode

    node = ClusterNode(NodeConfig(replica_id=0, protocol="banyan", params=PARAMS,
                                  peers={0: ("127.0.0.1", 0)}))

    async def scenario():
        node._loop = asyncio.get_running_loop()
        with pytest.raises(ValueError, match="timer delay must be finite"):
            node.arm_timer(delay, "bad")
        assert not node._timer_handles

    asyncio.run(scenario())


def test_streamlet_boots_on_a_node_just_before_an_epoch_boundary():
    """A node's clock moves between reads; booting 1.5 µs before an epoch
    ends, with the clock 1 µs later on every read, must still arm the end
    of the current epoch with a non-negative delay."""
    import asyncio

    from repro.cluster.node import ClusterNode
    from repro.protocols.base import innermost

    node = ClusterNode(NodeConfig(replica_id=0, protocol="streamlet", params=PARAMS,
                                  peers={0: ("127.0.0.1", 0)}))
    streamlet = innermost(node.protocol)
    if streamlet.beacon.leader(1) == 0:  # a leader would broadcast to no peers
        node = ClusterNode(NodeConfig(replica_id=1, protocol="streamlet", params=PARAMS,
                                      peers={1: ("127.0.0.1", 0)}))
        streamlet = innermost(node.protocol)
    boundary = streamlet.epoch_duration

    class SteppingClock:
        def __init__(self, loop):
            self.loop, self.reads = loop, 0

        def time(self):
            self.reads += 1
            return boundary - 1.5e-6 + 1e-6 * (self.reads - 1)

        def call_later(self, delay, callback, *args):
            return self.loop.call_later(delay, callback, *args)

    async def scenario():
        node._loop = SteppingClock(asyncio.get_running_loop())
        node._boot()
        assert node._error is None
        assert streamlet.current_epoch == 1
        assert len(node._timer_handles) == 1
        for handle in node._timer_handles.values():
            handle.cancel()

    asyncio.run(scenario())


def test_node_config_roundtrip():
    config = NodeConfig(
        replica_id=2, protocol="banyan", params=PARAMS,
        peers={0: ("127.0.0.1", 9000), 1: ("127.0.0.1", 9001),
               2: ("127.0.0.1", 9002), 3: ("127.0.0.1", 9003)},
        schedule=ChaosSchedule(faults=(
            Fault(kind="crash", replica=1, start=1.0, end=2.0),
        )).to_dict(),
    )
    restored = NodeConfig.from_dict(json.loads(json.dumps(config.to_dict())))
    assert restored == config


@pytest.mark.parametrize("signed", [True, False])
def test_node_config_written_with_the_retired_signing_key_loads(signed):
    """A node config saved with ``"sign_messages"`` loads as the same node:
    votes are unsigned either way."""
    config = NodeConfig(replica_id=0, protocol="icc", params=PARAMS,
                        peers={0: ("127.0.0.1", 9000)})
    saved = dict(config.to_dict(), sign_messages=signed)
    assert "sign_messages" not in config.to_dict()
    assert NodeConfig.from_dict(json.loads(json.dumps(saved))) == config


def test_every_protocol_parameter_reaches_the_node(tmp_path):
    """A node runs the ``ProtocolParams`` it was given, through its JSON
    file, and a flat config in the earlier format still loads."""
    params = ProtocolParams(n=N, f=1, p=1, rank_delay=RANK_DELAY, seed=7,
                            relay_proposals=False, adaptive_delays=True)
    config = NodeConfig(replica_id=1, protocol="banyan", params=params,
                        peers={1: ("127.0.0.1", 0)}, mempool_capacity=50)
    path = tmp_path / "node.json"
    path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
    loaded = load_config(str(path))
    assert loaded == config
    node = ClusterNode(loaded)
    assert innermost(node.protocol).params == params
    assert node.mempool.capacity == 50

    earlier = {"replica_id": 1, "protocol": "banyan", "n": 4, "f": 1, "p": 1,
               "peers": {"1": ["127.0.0.1", 0]}, "seed": 7, "rank_delay": 0.05,
               "round_timeout": 1.0, "payload_size": 0, "duration": 3.0,
               "start_at": 0.0, "commit_log": "c.jsonl", "summary_path": "",
               "schedule": None, "max_block_bytes": 65536}
    assert NodeConfig.from_dict(earlier) == NodeConfig(
        replica_id=1, protocol="banyan", peers={1: ("127.0.0.1", 0)},
        params=ProtocolParams(n=4, f=1, p=1, rank_delay=0.05, round_timeout=1.0,
                              seed=7),
        duration=3.0, commit_log="c.jsonl")


#: Modules a cluster process never runs: numpy, the simulator and its event
#: queue, the WAN latency tables, the experiment layer and the chaos engine.
SIMULATOR_MODULES = (
    "numpy",
    "repro.runtime.simulator",
    "repro.runtime.scheduler",
    "repro.net.latency",
    "repro.eval.experiment",
    "repro.chaos.engine",
)

#: Every public name of the top-level package and the module defining it.
TOP_LEVEL_NAMES = {
    "BanyanReplica": "repro.core.banyan",
    "ExperimentConfig": "repro.eval.experiment",
    "HotStuffReplica": "repro.protocols.hotstuff",
    "ICCReplica": "repro.protocols.icc",
    "NetworkConfig": "repro.runtime.simulator",
    "Protocol": "repro.protocols.base",
    "ProtocolParams": "repro.protocols.base",
    "Simulation": "repro.runtime.simulator",
    "StreamletReplica": "repro.protocols.streamlet",
    "__version__": "repro",
    "run_experiment": "repro.eval.experiment",
}

_IMPORT_PROBE = """
import importlib, json, sys
import repro, repro.cluster.node, repro.cluster.harness
loaded = sorted(set(sys.argv[2:]) & set(sys.modules))
defining = json.loads(sys.argv[1])
wrong = sorted(
    name for name in repro.__all__
    if getattr(repro, name) is not getattr(importlib.import_module(defining[name]), name)
    or getattr(getattr(repro, name), "__module__", defining[name]) != defining[name]
)
print(json.dumps({"loaded": loaded, "all": sorted(repro.__all__), "wrong": wrong}))
"""


def test_cluster_processes_import_neither_numpy_nor_the_simulator():
    """A node process, the harness and a bare ``import repro`` load only
    what they run; the top-level names still resolve, lazily, to the
    objects their defining modules export."""
    env = dict(os.environ)
    src_dir = str(Path(__import__("repro").__file__).resolve().parents[1])
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, json.dumps(TOP_LEVEL_NAMES),
         *SIMULATOR_MODULES],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    probe = json.loads(out)
    assert probe["loaded"] == []
    assert probe["all"] == sorted(TOP_LEVEL_NAMES)
    assert probe["wrong"] == []


_VALID_CONFIG = {"replica_id": 0, "protocol": "banyan", "n": 4, "f": 1, "p": 1,
                 "peers": {str(r): ["127.0.0.1", 9000 + r] for r in range(4)}}


@pytest.mark.parametrize("content, expected", [
    pytest.param(None, "cannot read", id="missing-file"),
    pytest.param("{not json", "not JSON", id="not-json"),
    pytest.param("[1, 2]", "not a JSON object", id="not-an-object"),
    pytest.param('{"bad": 1}', "missing field 'replica_id'", id="missing-field"),
    pytest.param(json.dumps({**_VALID_CONFIG, "n": "four"}), "invalid", id="n-not-int"),
    pytest.param(json.dumps({**_VALID_CONFIG, "peers": [1]}), "invalid", id="peers-not-map"),
    pytest.param(json.dumps({**_VALID_CONFIG, "f": -1}), "f must be non-negative",
                 id="negative-f"),
    pytest.param(json.dumps({**_VALID_CONFIG, "schedule": {"faults": [
        {"kind": "crash", "replica": 1, "start": "soon"}]}}), "invalid", id="bad-schedule"),
    pytest.param(json.dumps({**_VALID_CONFIG, "replica_id": 7}),
                 "replica 7 is not in peers", id="self-not-in-peers"),
    pytest.param(json.dumps({**_VALID_CONFIG, "protocol": "paxos"}),
                 "unknown protocol 'paxos'", id="unknown-protocol"),
    pytest.param(json.dumps({**_VALID_CONFIG, "f": 2}),
                 "n=4 violates the resilience bound n >= 7", id="unsound-f"),
    pytest.param(json.dumps({**_VALID_CONFIG, "peers": {
        str(r): ["127.0.0.1", 70000 + r] for r in range(4)}}),
                 "port 70000 of replica 0 is outside 0-65535", id="port-out-of-range"),
    pytest.param(json.dumps({**_VALID_CONFIG, "mempool_capacity": 0}),
                 "mempool_capacity must be positive, got 0", id="empty-mempool"),
    pytest.param(json.dumps({**_VALID_CONFIG, "sample_interval": -1}),
                 "sample_interval must be finite and non-negative", id="negative-sample-interval"),
    pytest.param(json.dumps({**_VALID_CONFIG, "schedule": {"faults": [
        {"kind": "byzantine", "replica": 1, "behavior": "equivocate"}]}}),
                 "'twins' replaced 'equivocate'", id="retired-equivocate"),
    pytest.param(json.dumps({**_VALID_CONFIG, "schedule": {"faults": [
        {"kind": "byzantine", "replica": 1, "behavior": "twins",
         "group_a": [0], "group_b": [2]}]}}),
                 "twins split of replica 1", id="twins-split-missing-a-replica"),
])
def test_node_refuses_a_bad_config_with_one_line(content, expected, tmp_path, capsys):
    """``python -m repro.cluster.node`` on a config it cannot use exits 2
    with one line on stderr, before it opens a socket."""
    path = tmp_path / "node.json"
    if content is not None:
        path.write_text(content, encoding="utf-8")
    assert main(["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("repro.cluster.node: ")
    assert expected in err


# --------------------------------------------------------------------- #
# Live clusters
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("protocol", ["banyan", "icc", "hotstuff", "streamlet"])
def test_cluster_commits_within_deadline(protocol, tmp_path):
    """An n=4 cluster of real processes commits blocks for every protocol,
    and the committed sequences satisfy the simulator's invariants."""
    result = run_local_cluster(cluster_config(protocol), log_dir=tmp_path / protocol)
    assert result.exit_codes == {rid: 0 for rid in range(N)}, \
        f"node failures: {result.exit_codes}"
    assert result.committed_blocks >= 1, \
        f"{protocol}: no commits at the observer within the deadline"
    assert result.violations == [], \
        f"{protocol}: invariants violated: {result.violations}"
    # Every replica committed (liveness at each node, not just the observer).
    committed_by = {record.replica_id for record in result.records}
    assert committed_by == set(range(N))
    if protocol in ("banyan", "icc"):
        # Blocks leave with their round: a node holds a window, not its chain.
        for summary in result.summaries.values():
            assert summary["held_blocks"] <= ROUND_WINDOW + 8
            assert summary["held_rounds"] <= ROUND_WINDOW + 8


def test_cluster_workload_latency(tmp_path):
    """Open-loop clients get their transactions committed end-to-end, and
    the run reports as the simulator's does, mempool occupancy included."""
    spec = WorkloadSpec(rate=40.0, tx_size=64, num_clients=2, sample_interval=0.05)
    config = cluster_config(workload=spec)
    result = run_local_cluster(config, log_dir=tmp_path)
    assert result.violations == []
    workload = result.experiment.workload
    assert workload.submitted == len(send_schedule(spec, N, config.duration)) > 0
    assert workload.committed > 0.5 * workload.submitted
    assert workload.dropped == 0
    assert workload.latencies and min(workload.latencies) > 0
    assert workload.committed_tx_bytes == 64 * workload.committed
    assert result.experiment.metrics.latency_samples  # simulator-shaped RunMetrics
    assert result.experiment.messages_sent > 0 and result.experiment.bytes_sent > 0
    assert {"tx_p50_ms", "tx_p99_ms", "committed_blocks"} <= set(result.experiment.row())
    # Every node samples its mempool at each tick of the shared epoch clock
    # (a proposal drains it within milliseconds on loopback, so a sample
    # is mostly 0: 50 ms ticks catch a pending transaction).
    ticks = [sample.time / spec.sample_interval for sample in workload.occupancy]
    assert ticks == pytest.approx(list(range(1, len(ticks) + 1))) and len(ticks) >= 70
    assert workload.peak_mempool_depth > 0


def test_cluster_survives_sigkill_and_restart(tmp_path):
    """SIGKILL one replica mid-run, restart it, and require the surviving
    quorum to keep committing throughout; the restarted process rejoins
    the network (its fresh chain is excluded from ancestry checks)."""
    duration = 7.0
    cluster = LocalCluster(
        "banyan", N, duration=duration, log_dir=tmp_path,
        rank_delay=RANK_DELAY, round_timeout=ROUND_TIMEOUT,
    )
    cluster.start()
    try:
        kill_at = cluster.start_at + 2.0
        time.sleep(max(0.0, kill_at - time.time()))
        cluster.kill(3)
        time.sleep(1.5)
        cluster.restart(3)
        exit_codes = cluster.wait()
    finally:
        cluster.stop()
    records, errors = cluster.commit_records()
    assert errors == []
    assert all(exit_codes[rid] == 0 for rid in range(3)), exit_codes
    # The survivors kept committing *after* the kill.
    for rid in range(3):
        later = [r for r in records
                 if r.replica_id == rid and r.commit_time > 3.5]
        assert later, f"replica {rid} stopped committing after the kill"
    violations = cross_validate(
        records, n=N, schedule=ChaosSchedule(), duration=duration,
        liveness_bound=liveness_bound(N, RANK_DELAY, ROUND_TIMEOUT),
        errors=errors, exclude=(3,),
    )
    assert violations == [], violations


def test_cluster_replays_chaos_schedule_to_expected_verdict(tmp_path):
    """A replayed fault schedule produces the verdict the fault model
    predicts: a recovering crash stays clean; losing the quorum (two
    permanent crashes with f=1) trips the liveness invariant and nothing
    else."""
    benign = ChaosSchedule(faults=(
        Fault(kind="crash", replica=3, start=1.0, end=2.0),
    ))
    result = run_local_cluster(cluster_config(duration=6.0), schedule=benign,
                               log_dir=tmp_path / "benign")
    assert result.committed_blocks >= 1
    assert result.violations == [], result.violations

    # Crashes at t=0 so no in-flight certificate can sneak a commit past
    # the heal instant — the verdict is deterministic: the two survivors
    # never reach quorum and never commit.
    quorum_loss = ChaosSchedule(faults=(
        Fault(kind="crash", replica=2, start=0.0),
        Fault(kind="crash", replica=3, start=0.0),
    ))
    result = run_local_cluster(cluster_config(duration=6.0), schedule=quorum_loss,
                               log_dir=tmp_path / "quorum-loss")
    assert result.violations, "quorum loss must trip the liveness check"
    assert {v.invariant for v in result.violations} == {"liveness"}
    assert result.committed_blocks == 0


def test_cluster_cli_replays_repro_file(tmp_path, capsys):
    """``banyan-repro cluster --replay`` consumes the chaos engine's shrunk
    repro JSON format and reports the real-cluster verdict via exit code."""
    from repro.chaos.engine import ChaosTrialSpec
    from repro.cli import main

    spec = ChaosTrialSpec(protocol="banyan", n=N, f=1, p=1,
                          rank_delay=RANK_DELAY, round_timeout=ROUND_TIMEOUT,
                          payload_size=0, duration=6.0)
    schedule = ChaosSchedule(faults=(
        Fault(kind="crash", replica=2, start=0.0),
        Fault(kind="crash", replica=3, start=0.0),
    ))
    repro = tmp_path / "repro.json"
    repro.write_text(json.dumps({
        "spec": spec.to_dict(),
        "schedule": schedule.to_dict(),
    }), encoding="utf-8")
    code = main(["cluster", "--replay", str(repro), "--duration", "6",
                 "--log-dir", str(tmp_path / "logs")])
    out = capsys.readouterr().out
    assert code == 1
    assert "liveness" in out
