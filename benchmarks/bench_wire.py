"""Wire-format benchmark: encode/decode throughput of cluster traffic.

Every message a real cluster moves crosses :mod:`repro.cluster.wire` twice
(encode at the sender, decode at the receiver), and the in-memory asyncio
runtime round-trips through it too — so serialization throughput bounds
the whole non-simulated execution mode.  This bench measures messages/s
and MB/s for the three protocol message shapes, built as a Banyan replica
builds them (:mod:`repro.core.banyan`):

* **vote** — one replica's :class:`VoteMessage`: its notarization vote and
  its fast vote for the round's first block (Addition 3), the chattiest
  shape, broadcast by every replica for every block;
* **certificate** — a :class:`CertificateMessage` carrying a quorum
  notarization and the block's unlock proof (Addition 1);
* **proposal** — a rank-0 :class:`BlockProposal` with a 100 kB payload, the
  parent's notarization and unlock proof and the proposer's fast vote (the
  byte-heavy shape, dominated by memcpy).

Each run emits one ``BENCH_bench_wire.json`` record so the serialization
path's trajectory is tracked across commits alongside the other benches.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

from benchmarks.conftest import emit_bench_record, paper_comparison

from repro.cluster.wire import decode_envelope, encode_envelope
from repro.types.blocks import Block
from repro.types.certificates import Notarization, UnlockProof
from repro.types.messages import BlockProposal, CertificateMessage, VoteMessage
from repro.types.votes import VoteKind, make_vote

#: Replica count, quorum and fast quorum of the benchmarked messages (the
#: paper's n=19 with Banyan's ``⌈(n+f+1)/2⌉`` = 13 quorum and, at p=1,
#: ``n - p`` = 18 fast votes).
N_REPLICAS = 19
QUORUM = 13
FAST_QUORUM = 18

#: Proposal payload bytes (the paper's subnet workload scale).
PROPOSAL_PAYLOAD = 100_000

#: Encode/decode iterations per shape.
ITERATIONS = 2_000

_BLOCK_ID = "a3f1" * 16


def _unlock_proof(round_k: int) -> UnlockProof:
    return UnlockProof(round=round_k, block_id=_BLOCK_ID,
                       votes_by_block=((_BLOCK_ID, range(FAST_QUORUM)),))


def _vote_message() -> VoteMessage:
    return VoteMessage(
        votes=(make_vote(VoteKind.NOTARIZATION, 12, _BLOCK_ID, 3),
               make_vote(VoteKind.FAST, 12, _BLOCK_ID, 3)),
        sender=3,
    )


def _certificate_message() -> CertificateMessage:
    return CertificateMessage(
        certificate=Notarization(round=12, block_id=_BLOCK_ID, voters=range(QUORUM)),
        unlock_proof=_unlock_proof(12),
        sender=3,
    )


def _proposal_message() -> BlockProposal:
    block = Block(round=12, proposer=3, rank=0, parent_id=_BLOCK_ID,
                  payload=b"\xab" * PROPOSAL_PAYLOAD)
    return BlockProposal(
        block=block,
        parent_notarization=Notarization(round=11, block_id=_BLOCK_ID,
                                         voters=range(QUORUM)),
        parent_unlock_proof=_unlock_proof(11),
        fast_vote=make_vote(VoteKind.FAST, 12, block.id, 3),
    )


def _run_shapes() -> list:
    """Time encode and decode per message shape; return throughput rows."""
    shapes = [
        ("vote", _vote_message()),
        ("certificate", _certificate_message()),
        ("proposal", _proposal_message()),
    ]
    rows = []
    for name, message in shapes:
        envelope = encode_envelope(3, message)
        assert decode_envelope(envelope) == (3, message)  # lossless first

        start = time.perf_counter()
        for _ in range(ITERATIONS):
            encode_envelope(3, message)
        encode_wall = time.perf_counter() - start

        start = time.perf_counter()
        for _ in range(ITERATIONS):
            decode_envelope(envelope)
        decode_wall = time.perf_counter() - start

        mb = len(envelope) * ITERATIONS / 1e6
        rows.append({
            "shape": name,
            "bytes_per_msg": len(envelope),
            "encode_msgs_per_s": round(ITERATIONS / encode_wall, 1),
            "decode_msgs_per_s": round(ITERATIONS / decode_wall, 1),
            "encode_mb_per_s": round(mb / encode_wall, 2),
            "decode_mb_per_s": round(mb / decode_wall, 2),
            "wall_s": round(encode_wall + decode_wall, 6),
        })
    return rows


def test_wire_encode_decode_throughput(benchmark) -> None:
    """Messages/s and MB/s of the cluster wire format per message shape."""
    rows = benchmark.pedantic(_run_shapes, rounds=1, iterations=1)
    total_wall = sum(row["wall_s"] for row in rows)
    emit_bench_record(
        "bench_wire", total_wall,
        SimpleNamespace(figure="bench-wire", replications=1,
                        series={"wire": rows}),
    )
    paper_comparison(rows)
    by_shape = {row["shape"]: row for row in rows}
    # Sanity floors: consensus-control shapes must stay comfortably above
    # the block rate a local cluster sustains (hundreds of blocks/s, each
    # fanning out ~n² votes), and byte-heavy proposals must move payload
    # bytes at memcpy-like rates, not per-byte rates.
    assert by_shape["vote"]["encode_msgs_per_s"] > 2_000
    assert by_shape["vote"]["decode_msgs_per_s"] > 2_000
    assert by_shape["proposal"]["encode_mb_per_s"] > 50
