"""Unit tests for the canonical encoding and hashing."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import canonical_encode, digest, hash_hex
from repro.types.blocks import Block
from repro.workload.transactions import MAX_HEADER_BYTES, TxBatch, encode_batch


@dataclass
class _Node:
    """A dataclass whose fields hold arbitrary nested values."""

    label: Any
    children: Any


_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
            | st.text(max_size=8) | st.binary(max_size=16))
#: Set members and dict keys must be hashable.
_HASHABLE = st.recursive(
    _SCALARS, lambda inner: st.tuples(inner, inner) | st.frozensets(inner, max_size=3),
    max_leaves=6)
_VALUES = st.recursive(
    _SCALARS | st.binary(max_size=16).map(bytearray),
    lambda inner: (
        st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
        | st.sets(_HASHABLE, max_size=4) | st.frozensets(_HASHABLE, max_size=4)
        | st.dictionaries(_HASHABLE, inner, max_size=4)
        | st.builds(_Node, inner, inner)),
    max_leaves=24)


class TestStreamedHashing:
    """``digest`` / ``hash_hex`` stream the encoding into SHA-256;
    :func:`canonical_encode` stays the specification they must equal."""

    @settings(max_examples=300, deadline=None)
    @given(_VALUES)
    def test_streamed_hash_equals_hash_of_the_encoding(self, value):
        encoded = canonical_encode(value)
        assert hash_hex(value) == hashlib.sha256(encoded).hexdigest()
        assert digest(value) == hashlib.sha256(encoded).digest()

    def test_unsupported_nested_type_still_raises(self):
        with pytest.raises(TypeError):
            hash_hex((1, [b"x", object()]))

    def test_megabyte_payload_block_id_is_unchanged(self):
        # Pinned from the block id before hashing streamed the payload.
        block = Block(round=7, proposer=2, rank=1, parent_id="ab" * 32,
                      payload=bytes(range(256)) * 4096)
        assert len(block.payload) == 1 << 20
        assert block.id == ("6976051051a819b0745eaa63b0aebe8f"
                            "1ddaec59a0f3c8dce1bd5f5933a1d29e")


#: Ids crossing decimal digit boundaries, up to the largest client id.
_TX_IDS = [9, 10, 99, 100, 999, 1000, 2**32 - 1, 2**40]
_CLIENT_IDS = [9, 10, 99, 100, 2**32 - 1, 0, 1, 2**32 - 2]


def _ids_below(bound):
    """Ids in ``[0, bound)`` of every decimal length: a length first, then
    an id of that length."""
    longest = len(str(bound - 1))
    return st.integers(1, longest).flatmap(lambda digits: st.integers(
        10 ** (digits - 1) if digits > 1 else 0, min(10 ** digits, bound) - 1))


class TestBatchPayloads:
    """A :class:`TxBatch` payload hashes exactly as the bytes it renders:
    the 256 B uniform path and the 8 B path, where the id header makes
    sizes vary."""

    @pytest.mark.parametrize("tx_size", [256, 8])
    def test_batch_encodes_and_hashes_as_its_bytes(self, tx_size):
        batch = TxBatch(_TX_IDS, _CLIENT_IDS, tx_size)
        rendered = b"".join(encode_batch(_TX_IDS, _CLIENT_IDS, tx_size))
        assert bytes(batch) == rendered
        assert canonical_encode(batch) == canonical_encode(rendered)
        assert hash_hex(("p", batch, 3)) == hash_hex(("p", rendered, 3))
        assert digest(batch) == digest(rendered)

    @settings(max_examples=200, deadline=None)
    @given(rows=st.lists(st.tuples(_ids_below(2**63), _ids_below(2**32)), max_size=300),
           tx_size=st.sampled_from([MAX_HEADER_BYTES - 1, MAX_HEADER_BYTES, 256, 1000]))
    def test_batch_renders_and_hashes_as_the_joined_encodings(self, rows, tx_size):
        tx_ids = [tx_id for tx_id, _ in rows]
        client_ids = [client_id for _, client_id in rows]
        rendered = b"".join(encode_batch(tx_ids, client_ids, tx_size))
        batch = TxBatch(tx_ids, client_ids, tx_size)
        assert bytes(batch) == rendered
        assert len(batch) == len(rendered)
        assert hash_hex(("p", batch, 3)) == hashlib.sha256(
            canonical_encode(("p", rendered, 3))).hexdigest()

    def test_the_shared_row_buffer_leaks_no_rows(self):
        # Long ids, then short ids over more rows, then the long ids again:
        # every render must clear what the previous one wrote, and a copy
        # taken earlier must not change.
        wide_ids, wide_clients = [2**63 - 1 - k for k in range(50)], [2**32 - 1] * 50
        wide = TxBatch(wide_ids, wide_clients, 256)
        narrow = TxBatch(range(80), [7] * 80, 256)
        first = bytes(wide)
        assert first == b"".join(encode_batch(wide_ids, wide_clients, 256))
        assert bytes(narrow) == b"".join(encode_batch(range(80), [7] * 80, 256))
        assert bytes(wide) == first
        assert hash_hex(narrow) == hash_hex(bytes(narrow))

    def test_negative_ids_render_through_the_specification(self):
        batch = TxBatch([-(2**63), 5], [0, 1], MAX_HEADER_BYTES)
        assert bytes(batch) == b"".join(encode_batch([-(2**63), 5], [0, 1],
                                                     MAX_HEADER_BYTES))

    @pytest.mark.parametrize("tx_size", [256, 8])
    def test_block_id_is_the_id_of_the_rendered_payload(self, tx_size):
        batch = TxBatch(_TX_IDS, _CLIENT_IDS, tx_size)

        def block(payload):
            return Block(round=4, proposer=1, rank=0, parent_id="cd" * 32,
                         payload=payload, payload_size=len(payload))

        assert block(batch).id == block(bytes(batch)).id
        assert canonical_encode(block(batch)) == canonical_encode(block(bytes(batch)))
        assert hash_hex(block(batch)) == hash_hex(block(bytes(batch)))


class TestCanonicalEncode:
    def test_none(self):
        assert canonical_encode(None) == b"\x00N"

    def test_bools_are_distinct_from_ints(self):
        assert canonical_encode(True) != canonical_encode(1)
        assert canonical_encode(False) != canonical_encode(0)

    def test_int_and_str_do_not_collide(self):
        assert canonical_encode(1) != canonical_encode("1")

    def test_bytes_and_str_do_not_collide(self):
        assert canonical_encode(b"abc") != canonical_encode("abc")

    def test_tuple_vs_flat_values(self):
        assert canonical_encode((1, 2)) != canonical_encode((12,))

    def test_list_and_tuple_encode_identically(self):
        assert canonical_encode([1, 2, 3]) == canonical_encode((1, 2, 3))

    def test_set_is_order_independent(self):
        assert canonical_encode({3, 1, 2}) == canonical_encode({2, 3, 1})

    def test_frozenset_matches_set(self):
        assert canonical_encode(frozenset({1, 2})) == canonical_encode({1, 2})

    def test_dict_is_order_independent(self):
        assert canonical_encode({"a": 1, "b": 2}) == canonical_encode({"b": 2, "a": 1})

    def test_dataclass_encoding_includes_field_values(self):
        block_a = Block(round=1, proposer=0, rank=0, parent_id="x", payload=b"a")
        block_b = Block(round=1, proposer=0, rank=0, parent_id="x", payload=b"b")
        assert canonical_encode(block_a) != canonical_encode(block_b)

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            canonical_encode(object())

    def test_nested_structures(self):
        value = {"key": [(1, "two"), {"three": b"3"}]}
        assert canonical_encode(value) == canonical_encode(value)


class TestDigest:
    def test_digest_is_32_bytes(self):
        assert len(digest("hello")) == 32

    def test_digest_is_deterministic(self):
        assert digest(("a", 1, b"x")) == digest(("a", 1, b"x"))

    def test_digest_differs_for_different_values(self):
        assert digest("a") != digest("b")

    def test_hash_hex_is_hex_of_digest(self):
        assert bytes.fromhex(hash_hex("payload")) == digest("payload")

    def test_hash_hex_length(self):
        assert len(hash_hex(12345)) == 64
