"""Layer-call drivers: µs per call of one public function, on fixed inputs.

Workload-independent companions of the traced table: each driver loops a
fixed-count batch over one layer's public entry point, with inputs drawn
from ``--seed``.  A batch is repeated until the timed region is long
enough (``region_s``), the region is timed three times, and the best is
reported — the cost of the call itself, with as little of the machine's
noise as three tries allow.
"""

from __future__ import annotations

import itertools
import random
import time
from typing import Callable, Dict, Tuple

from repro.blocktree.tree import BlockTree
from repro.cluster.wire import FrameDecoder, encode_frame
from repro.core.fastpath import FastPathState
from repro.net.bandwidth import BandwidthModel
from repro.net.faults import FaultPlan
from repro.net.latency import WanMatrixLatency
from repro.net.topology import worldwide_datacenters
from repro.net.transport import ContendedUplinkTransport, DirectTransport
from repro.runtime.scheduler import build_scheduler
from repro.smr.mempool import Mempool
from repro.smr.quorum import CertificateCollector, QuorumTracker
from repro.types.blocks import Block, genesis_block
from repro.types.messages import BlockProposal, VoteMessage
from repro.types.votes import VoteKind, make_vote

#: A driver: ``(batch, operations per batch)``; ``batch()`` is re-runnable.
Driver = Tuple[Callable[[], None], int]

# Thresholds of the n=64, f=p=12 headline configuration.
_N, _F, _P = 64, 12, 12
_QUORUM = _N - _F
_UNLOCK_THRESHOLD = _F + _P
_FAST_QUORUM = _N - _P


def _block_ids(rng: random.Random, count: int):
    return ["%016x" % rng.getrandbits(64) for _ in range(count)]


def _quorum_add_vote(rng: random.Random) -> Driver:
    blocks = _block_ids(rng, 16)
    voters = list(range(_N))
    rng.shuffle(voters)

    def batch() -> None:
        tracker = QuorumTracker(_QUORUM)
        for block_id in blocks:
            for voter in voters:
                tracker.add_vote(block_id, voter)

    return batch, len(blocks) * _N


def _quorum_tracker(rng: random.Random) -> Driver:
    lookups = [(round_k, kind) for round_k in range(32)
               for kind in ("notarization", "fast", "finalization")] * 16
    rng.shuffle(lookups)

    def batch() -> None:
        collector = CertificateCollector()
        for round_k, kind in lookups:
            collector.tracker(round_k, kind, _QUORUM)

    return batch, len(lookups)


def _fastpath_vote_and_evaluate(rng: random.Random) -> Driver:
    blocks = _block_ids(rng, 8)
    voters = list(range(_N))
    rng.shuffle(voters)

    def batch() -> None:
        for block_id in blocks:
            state = FastPathState(_UNLOCK_THRESHOLD, _FAST_QUORUM)
            state.record_block(block_id, 0)
            for voter in voters:
                state.record_fast_vote(block_id, voter)
                state.evaluate_unlocks()

    return batch, len(blocks) * _N


def _vote_message(rng: random.Random, votes: int) -> VoteMessage:
    block_id = _block_ids(rng, 1)[0]
    return VoteMessage(
        votes=tuple(make_vote(VoteKind.NOTARIZATION, 7, block_id, voter)
                    for voter in range(votes)),
        sender=0,
    )


def _broadcast(transport_cls, rng: random.Random, **kwargs) -> Driver:
    topology = worldwide_datacenters(_N)
    transport = transport_cls(WanMatrixLatency(topology),
                              BandwidthModel(topology=topology),
                              FaultPlan.none(), **kwargs)
    receivers = tuple(range(_N))
    message = _vote_message(rng, 1)
    delay_rng = random.Random(rng.getrandbits(32))

    def batch() -> None:
        transport.reset()
        now = 0.0
        for sender in receivers:
            transport.broadcast_times(sender, receivers, message, now, delay_rng)
            now += 0.01

    return batch, _N * _N


def _latency_wan_row(rng: random.Random) -> Driver:
    n = 256
    latency = WanMatrixLatency(worldwide_datacenters(n))
    receivers = tuple(range(n))
    delay_rng = random.Random(rng.getrandbits(32))

    def batch() -> None:
        for sender in receivers:
            latency.delay_row(sender, receivers, delay_rng)

    return batch, n * n


def _scheduler_push_pop(backend: str, rng: random.Random) -> Driver:
    times = [rng.uniform(0.0, 2.0) for _ in range(4096)]

    def batch() -> None:
        seq = itertools.count()
        scheduler = build_scheduler(backend, seq)
        for t in times:
            scheduler.push((t, next(seq), "timer", 0, None))
        for _ in times:
            scheduler.pop()

    return batch, len(times)


def _wire_encode(message) -> Driver:
    def batch() -> None:
        for _ in range(64):
            encode_frame(3, message)

    return batch, 64


def _wire_decode(message) -> Driver:
    frame = encode_frame(3, message)

    def batch() -> None:
        for _ in range(64):
            for _envelope in FrameDecoder().feed(frame):
                pass

    return batch, 64


def _proposal(rng: random.Random) -> BlockProposal:
    block = Block(round=7, proposer=3, rank=0, parent_id=genesis_block().id,
                  payload=rng.randbytes(100_000))
    return BlockProposal(block=block)


def _mempool_add_drain(rng: random.Random) -> Driver:
    transactions = [rng.randbytes(256) for _ in range(4096)]

    def batch() -> None:
        pool = Mempool(max_size=100_000)
        for transaction in transactions:
            pool.add(transaction)
        while pool.take(65_536):
            pass

    return batch, len(transactions)


def _blocktree_add_block(rng: random.Random) -> Driver:
    chain = []
    parent_id = genesis_block().id
    for round_k in range(1, 513):
        block = Block(round=round_k, proposer=round_k % _N, rank=0,
                      parent_id=parent_id, payload=rng.randbytes(16))
        chain.append(block)
        parent_id = block.id

    def batch() -> None:
        tree = BlockTree()
        for block in chain:
            tree.add_block(block)

    return batch, len(chain)


def _drivers(seed: int) -> Dict[str, Driver]:
    rng = random.Random(seed)
    votes = _vote_message(rng, 13)
    proposal = _proposal(rng)
    return {
        "call.quorum.add_vote_us": _quorum_add_vote(rng),
        "call.quorum.tracker_us": _quorum_tracker(rng),
        "call.fastpath.vote_and_evaluate_us": _fastpath_vote_and_evaluate(rng),
        "call.transport.direct_broadcast_us_per_copy": _broadcast(
            DirectTransport, rng),
        "call.transport.contended_broadcast_us_per_copy": _broadcast(
            ContendedUplinkTransport, rng, uplink_bytes_per_s=100 * 125_000.0),
        "call.latency.wan_row_us_per_copy": _latency_wan_row(rng),
        "call.scheduler.heap_push_pop_us": _scheduler_push_pop("heap", rng),
        "call.scheduler.calendar_push_pop_us": _scheduler_push_pop("calendar", rng),
        "call.wire.encode_vote_us": _wire_encode(votes),
        "call.wire.decode_vote_us": _wire_decode(votes),
        "call.wire.encode_proposal_us": _wire_encode(proposal),
        "call.wire.decode_proposal_us": _wire_decode(proposal),
        "call.mempool.add_drain_us_per_tx": _mempool_add_drain(rng),
        "call.blocktree.add_block_us": _blocktree_add_block(rng),
    }


def _time_driver(batch: Callable[[], None], operations: int,
                 region_s: float) -> float:
    """Best-of-3 µs per operation over regions of at least ``region_s``."""
    batch()  # warm caches; also the calibration run's warm-up
    started = time.perf_counter()
    batch()
    once = max(time.perf_counter() - started, 1e-6)
    repeats = max(1, int(region_s / once) + 1)
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        for _ in range(repeats):
            batch()
        best = min(best, time.perf_counter() - started)
    return best / (repeats * operations) * 1e6


def run_drivers(seed: int, region_s: float = 0.3) -> Dict[str, float]:
    """Run all fourteen drivers; returns metric name → µs per call."""
    return {name: _time_driver(batch, operations, region_s)
            for name, (batch, operations) in _drivers(seed).items()}
