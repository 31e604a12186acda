"""Unit tests for the SMR harness: payload sources, mempool, ledger, metrics."""

from __future__ import annotations

import pytest

from repro.smr.ledger import KeyValueLedger, Transaction, decode_transactions, encode_transactions
from repro.smr.mempool import Mempool, PayloadSource
from repro.smr.metrics import MetricsCollector, RunMetrics
from repro.types.blocks import Block
from repro.types.commits import CommitRecord


class TestPayloadSource:
    def test_logical_size_is_configured_size(self):
        source = PayloadSource(payload_size=400_000)
        payload, size = source.payload_for(1, 0)
        assert size == 400_000
        assert len(payload) < 100  # tag only, not materialised

    def test_payloads_are_unique_per_round_and_proposer(self):
        source = PayloadSource(payload_size=100)
        assert source.payload_for(1, 0)[0] != source.payload_for(1, 1)[0]
        assert source.payload_for(1, 0)[0] != source.payload_for(2, 0)[0]


class TestMempool:
    def test_fifo_order(self):
        pool = Mempool()
        pool.add(b"a")
        pool.add(b"b")
        assert pool.take(100) == [b"a", b"b"]

    def test_take_respects_byte_budget(self):
        pool = Mempool()
        for transaction in (b"x" * 40, b"y" * 40, b"z" * 40):
            pool.add(transaction)
        taken = pool.take(90)
        assert taken == [b"x" * 40, b"y" * 40]
        assert len(pool) == 1

    def test_single_oversized_transaction_not_taken(self):
        pool = Mempool()
        pool.add(b"x" * 100)
        assert pool.take(50) == []
        assert len(pool) == 1

    def test_capacity_limit(self):
        pool = Mempool(max_size=2)
        assert pool.add(b"a")
        assert pool.add(b"b")
        assert not pool.add(b"c")
        assert len(pool) == 2

    def test_peek_does_not_remove(self):
        pool = Mempool()
        pool.add(b"a")
        pool.add(b"b")
        assert pool.peek(2) == [b"a", b"b"]
        assert len(pool) == 2

    def test_clear(self):
        pool = Mempool()
        pool.add(b"a")
        pool.clear()
        assert len(pool) == 0

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Mempool(max_size=0)


class TestLedger:
    def test_encode_decode_roundtrip(self):
        transactions = [
            Transaction(op="SET", key="alice", value="10"),
            Transaction(op="DEL", key="bob"),
        ]
        assert decode_transactions(encode_transactions(transactions)) == transactions

    def test_apply_payload_updates_state(self):
        ledger = KeyValueLedger()
        ledger.apply_payload(encode_transactions([Transaction(op="SET", key="k", value="v")]))
        assert ledger.get("k") == "v"
        assert ledger.applied_transactions == 1

    def test_delete_removes_key(self):
        ledger = KeyValueLedger()
        ledger.apply_payload(encode_transactions([
            Transaction(op="SET", key="k", value="v"),
            Transaction(op="DEL", key="k"),
        ]))
        assert ledger.get("k") is None

    def test_garbage_payload_applies_nothing(self):
        ledger = KeyValueLedger()
        applied = ledger.apply_payload(b"\xff\xfe random bytes")
        assert applied == 0
        assert len(ledger) == 0

    def test_same_payload_sequence_gives_equal_state(self):
        payloads = [
            encode_transactions([Transaction(op="SET", key=f"k{i}", value=str(i))])
            for i in range(5)
        ]
        a, b = KeyValueLedger(), KeyValueLedger()
        for payload in payloads:
            a.apply_payload(payload)
            b.apply_payload(payload)
        assert a == b
        assert a.state_digest() == b.state_digest()

    def test_different_order_gives_different_digest_when_conflicting(self):
        set1 = encode_transactions([Transaction(op="SET", key="k", value="1")])
        set2 = encode_transactions([Transaction(op="SET", key="k", value="2")])
        a, b = KeyValueLedger(), KeyValueLedger()
        a.apply_payload(set1)
        a.apply_payload(set2)
        b.apply_payload(set2)
        b.apply_payload(set1)
        assert a.get("k") == "2" and b.get("k") == "1"
        assert a != b

    def test_invalid_transactions_rejected(self):
        with pytest.raises(ValueError):
            Transaction(op="NOPE", key="k")
        with pytest.raises(ValueError):
            Transaction(op="SET", key="k")
        with pytest.raises(ValueError):
            Transaction(op="SET", key="k\n", value="v")

    def test_snapshot_is_a_copy(self):
        ledger = KeyValueLedger()
        ledger.apply_payload(encode_transactions([Transaction(op="SET", key="a", value="1")]))
        snapshot = ledger.snapshot()
        snapshot["a"] = "tampered"
        assert ledger.get("a") == "1"


def _record(replica_id, proposer, round, commit_time, kind="slow", size=100):
    block = Block(round=round, proposer=proposer, rank=0, parent_id="parent",
                  payload=b"", payload_size=size)
    return CommitRecord(replica_id=replica_id, block=block, commit_time=commit_time,
                        finalization_kind=kind)


class TestMetrics:
    def test_latency_measured_at_proposer(self):
        collector = MetricsCollector(protocol="banyan", observer=0)
        block_record = _record(replica_id=1, proposer=1, round=1, commit_time=2.0, kind="fast")
        collector.on_commit(block_record)
        metrics = collector.finalize(
            duration=10.0,
            proposal_times={1: {block_record.block.id: 1.7}},
        )
        assert metrics.latency_samples[0].latency == pytest.approx(0.3)
        assert metrics.latency_samples[0].finalization_kind == "fast"

    def test_throughput_counts_observer_bytes_only(self):
        collector = MetricsCollector(protocol="icc", observer=0)
        collector.on_commit(_record(0, proposer=1, round=1, commit_time=1.0, size=500))
        collector.on_commit(_record(0, proposer=2, round=2, commit_time=2.0, size=500))
        collector.on_commit(_record(3, proposer=1, round=1, commit_time=1.0, size=500))
        metrics = collector.finalize(duration=10.0, proposal_times={})
        assert metrics.committed_blocks == 2
        assert metrics.throughput_bytes_per_s == pytest.approx(100.0)

    def test_block_intervals(self):
        collector = MetricsCollector(protocol="icc", observer=0)
        for i, t in enumerate([1.0, 1.5, 2.5]):
            collector.on_commit(_record(0, proposer=1, round=i + 1, commit_time=t))
        metrics = collector.finalize(duration=10.0, proposal_times={})
        assert metrics.block_intervals == [pytest.approx(0.5), pytest.approx(1.0)]
        assert metrics.mean_block_interval == pytest.approx(0.75)

    def test_warmup_commits_excluded(self):
        collector = MetricsCollector(protocol="icc", observer=0, warmup=5.0)
        collector.on_commit(_record(0, proposer=0, round=1, commit_time=1.0))
        collector.on_commit(_record(0, proposer=0, round=2, commit_time=6.0))
        metrics = collector.finalize(duration=10.0, proposal_times={})
        assert metrics.committed_blocks == 1

    def test_fast_path_ratio(self):
        collector = MetricsCollector(protocol="banyan", observer=0)
        collector.on_commit(_record(0, proposer=1, round=1, commit_time=1.0, kind="fast"))
        collector.on_commit(_record(0, proposer=1, round=2, commit_time=2.0, kind="slow"))
        metrics = collector.finalize(duration=10.0, proposal_times={})
        assert metrics.fast_path_ratio == pytest.approx(0.5)

    def test_summary_keys(self):
        metrics = RunMetrics(protocol="x", duration=1.0)
        summary = metrics.summary()
        assert {"mean_latency_s", "throughput_bytes_per_s", "fast_path_ratio"} <= set(summary)

    def test_empty_metrics_are_zero(self):
        metrics = RunMetrics(protocol="x", duration=0.0)
        assert metrics.mean_latency == 0.0
        assert metrics.throughput_bytes_per_s == 0.0
        assert metrics.latency_stddev == 0.0
        assert metrics.fast_path_ratio == 0.0

    def test_percentiles_ordering(self):
        metrics = RunMetrics(protocol="x", duration=1.0)
        from repro.smr.metrics import LatencySample
        for i in range(100):
            metrics.latency_samples.append(
                LatencySample(proposer=0, round=i, latency=float(i), finalization_kind="slow")
            )
        assert metrics.median_latency <= metrics.p95_latency <= metrics.p99_latency
