"""Versioned, length-prefixed binary wire format for cluster traffic.

The simulator passes message *objects* between replicas; a real cluster
passes *bytes*.  This module defines the byte encoding: a small tag-based
binary format with lossless encode/decode for every type a protocol may put
on the wire — :class:`repro.types.blocks.Block`, every vote subclass, every
certificate (notarization / finalization / fast finalization / unlock
proof), signatures and aggregates, and the three top-level message shapes
(:class:`repro.types.messages.BlockProposal`,
:class:`repro.types.messages.VoteMessage`,
:class:`repro.types.messages.CertificateMessage`) — plus the two
cluster-control shapes (:class:`Hello`, :class:`ClientSubmit`).

**Framing.**  A frame is ``magic (1) | version (1) | length (4, BE) |
payload``.  The payload is an *envelope*: the sender's replica id followed
by one tagged object.  :class:`FrameDecoder` incrementally splits a TCP
byte stream back into envelopes.

**Integers** are LEB128 varints (zigzag for signed values), **strings** are
length-prefixed UTF-8, and optionals either carry a presence byte or use
the ``NONE`` tag.  Every read is bounds-checked: truncated or corrupted
input raises :class:`WireError` — never ``IndexError``/``struct.error`` —
so a node can drop a bad peer instead of crashing.

The format is deliberately independent of :mod:`pickle` (unsafe across
trust boundaries, unstable across interpreters) and of
:func:`repro.crypto.hashing.canonical_encode` (which is one-way).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Tuple

from repro.crypto.aggregate import AggregateSignature
from repro.crypto.signatures import Signature
from repro.types.blocks import Block
from repro.types.certificates import (
    Certificate,
    FastFinalization,
    Finalization,
    Notarization,
    UnlockProof,
)
from repro.types.messages import BlockProposal, CertificateMessage, VoteMessage
from repro.types.votes import Vote, VoteKind, make_vote, voter_ids

#: First byte of every frame.
WIRE_MAGIC = 0xB7

#: Format version; bump on any incompatible encoding change.
WIRE_VERSION = 1

#: Upper bound on a frame payload — a corrupt length prefix must not make a
#: node allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Upper bound on a replica id in a certificate's voter list: voter sets
#: decode into ``int`` bitmasks with one bit per id, and a corrupt or
#: hostile id must not make a node allocate a gigantic integer.
MAX_VOTER_ID = 1 << 16

_FRAME_HEADER = struct.Struct(">BBI")

#: Frame overhead in bytes (magic + version + length prefix).
FRAME_HEADER_SIZE = _FRAME_HEADER.size


class WireError(Exception):
    """Raised for any malformed, truncated, or unsupported wire input."""


# --------------------------------------------------------------------- #
# Cluster-control message shapes
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Hello:
    """Connection handshake: who is on the other end of the socket.

    Attributes:
        sender: replica id (or client id) of the connecting endpoint.
        role: ``"replica"`` or ``"client"``.
    """

    sender: int
    role: str = "replica"


@dataclass(frozen=True)
class ClientSubmit:
    """A workload client submitting one transaction to a replica's mempool."""

    transaction: bytes
    client_id: int = 0


# --------------------------------------------------------------------- #
# Type tags
# --------------------------------------------------------------------- #

_TAG_NONE = 0x00
_TAG_BLOCK = 0x01
_TAG_VOTE = 0x02
_TAG_SIGNATURE = 0x03
_TAG_AGGREGATE = 0x04
_TAG_NOTARIZATION = 0x05
_TAG_FINALIZATION = 0x06
_TAG_FAST_FINALIZATION = 0x07
_TAG_UNLOCK_PROOF = 0x08
_TAG_BLOCK_PROPOSAL = 0x10
_TAG_VOTE_MESSAGE = 0x11
_TAG_CERTIFICATE_MESSAGE = 0x12
_TAG_HELLO = 0x20
_TAG_CLIENT_SUBMIT = 0x21

_VOTE_KIND_CODES = {
    VoteKind.NOTARIZATION: 0,
    VoteKind.FAST: 1,
    VoteKind.FINALIZATION: 2,
}
_VOTE_KINDS_BY_CODE = {code: kind for kind, code in _VOTE_KIND_CODES.items()}

_CERTIFICATE_TAGS = {
    Notarization: _TAG_NOTARIZATION,
    Finalization: _TAG_FINALIZATION,
    FastFinalization: _TAG_FAST_FINALIZATION,
}


# --------------------------------------------------------------------- #
# Primitive writers
# --------------------------------------------------------------------- #


def _w_uvarint(out: bytearray, value: int) -> None:
    if value < 0:
        raise WireError(f"cannot encode negative value {value} as unsigned")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _w_ivarint(out: bytearray, value: int) -> None:
    # Zigzag: small negative ints stay small on the wire.
    _w_uvarint(out, value << 1 if value >= 0 else ((-value) << 1) - 1)


def _w_bytes(out: bytearray, value: bytes) -> None:
    _w_uvarint(out, len(value))
    out += value


def _w_str(out: bytearray, value: str) -> None:
    _w_bytes(out, value.encode("utf-8"))


def _w_bool(out: bytearray, value: bool) -> None:
    out.append(1 if value else 0)


# --------------------------------------------------------------------- #
# Bounds-checked reader
# --------------------------------------------------------------------- #


class _Reader:
    """Sequential bounds-checked reads over one payload buffer."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def uvarint(self) -> int:
        result = 0
        shift = 0
        while True:
            if self._pos >= len(self._data):
                raise WireError("truncated varint")
            byte = self._data[self._pos]
            self._pos += 1
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > 640:
                raise WireError("varint too long")

    def ivarint(self) -> int:
        encoded = self.uvarint()
        return (encoded >> 1) ^ -(encoded & 1)

    def bytes_(self) -> bytes:
        length = self.uvarint()
        if self._pos + length > len(self._data):
            raise WireError("truncated byte string")
        value = self._data[self._pos:self._pos + length]
        self._pos += length
        return bytes(value)

    def str_(self) -> str:
        try:
            return self.bytes_().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise WireError(f"invalid UTF-8 string: {exc}") from exc

    def byte(self) -> int:
        if self._pos >= len(self._data):
            raise WireError("truncated payload")
        value = self._data[self._pos]
        self._pos += 1
        return value

    def bool_(self) -> bool:
        value = self.byte()
        if value not in (0, 1):
            raise WireError(f"invalid boolean byte {value:#x}")
        return bool(value)

    def finish(self) -> None:
        if self._pos != len(self._data):
            raise WireError(
                f"{len(self._data) - self._pos} trailing byte(s) after payload"
            )


# --------------------------------------------------------------------- #
# Per-type encoders
# --------------------------------------------------------------------- #


def _encode_optional_uint(out: bytearray, value: Optional[int]) -> None:
    if value is None:
        _w_bool(out, False)
    else:
        _w_bool(out, True)
        _w_uvarint(out, value)


def _decode_optional_uint(reader: _Reader) -> Optional[int]:
    return reader.uvarint() if reader.bool_() else None


def _encode_optional_str(out: bytearray, value: Optional[str]) -> None:
    if value is None:
        _w_bool(out, False)
    else:
        _w_bool(out, True)
        _w_str(out, value)


def _decode_optional_str(reader: _Reader) -> Optional[str]:
    return reader.str_() if reader.bool_() else None


def _encode_block(out: bytearray, block: Block) -> None:
    _w_uvarint(out, block.round)
    _w_ivarint(out, block.proposer)
    _w_uvarint(out, block.rank)
    _encode_optional_str(out, block.parent_id)
    _w_bytes(out, block.payload)
    _encode_optional_uint(out, block.payload_size)


def _decode_block(reader: _Reader) -> Block:
    return Block(
        round=reader.uvarint(),
        proposer=reader.ivarint(),
        rank=reader.uvarint(),
        parent_id=_decode_optional_str(reader),
        payload=reader.bytes_(),
        payload_size=_decode_optional_uint(reader),
    )


def _encode_vote(out: bytearray, vote: Vote) -> None:
    out.append(_VOTE_KIND_CODES[vote.kind])
    _w_uvarint(out, vote.round)
    _w_str(out, vote.block_id)
    _w_ivarint(out, vote.voter)
    _encode_obj(out, vote.signature)


def _decode_vote(reader: _Reader) -> Vote:
    code = reader.byte()
    kind = _VOTE_KINDS_BY_CODE.get(code)
    if kind is None:
        raise WireError(f"unknown vote kind code {code:#x}")
    round_k = reader.uvarint()
    block_id = reader.str_()
    voter = reader.ivarint()
    signature = _decode_obj(reader)
    if signature is not None and not isinstance(signature, Signature):
        raise WireError("vote signature field holds a non-signature object")
    return make_vote(kind, round_k, block_id, voter, signature)


def _encode_signature(out: bytearray, signature: Signature) -> None:
    _w_ivarint(out, signature.signer)
    _w_bytes(out, signature.tag)
    _w_bytes(out, signature.message_digest)


def _decode_signature(reader: _Reader) -> Signature:
    return Signature(signer=reader.ivarint(), tag=reader.bytes_(),
                     message_digest=reader.bytes_())


def _encode_aggregate(out: bytearray, aggregate: AggregateSignature) -> None:
    _w_uvarint(out, len(aggregate.shares))
    for signer, share in aggregate.shares:
        _w_ivarint(out, signer)
        _encode_signature(out, share)


def _decode_aggregate(reader: _Reader) -> AggregateSignature:
    count = reader.uvarint()
    shares = tuple(
        (reader.ivarint(), _decode_signature(reader)) for _ in range(count)
    )
    return AggregateSignature(shares=shares)


def _encode_voters(out: bytearray, mask: int) -> None:
    """A voter bitmask as the format's sorted id list (format unchanged)."""
    voters = voter_ids(mask)
    _w_uvarint(out, len(voters))
    for voter in voters:
        _w_ivarint(out, voter)


def _decode_voters(reader: _Reader) -> int:
    """A voter id list as a bitmask; ids outside ``0..MAX_VOTER_ID`` are malformed."""
    mask = 0
    for _ in range(reader.uvarint()):
        voter = reader.ivarint()
        if not 0 <= voter <= MAX_VOTER_ID:
            raise WireError(f"voter id {voter} out of range")
        mask |= 1 << voter
    return mask


def _encode_certificate(out: bytearray, certificate: Certificate) -> None:
    _w_uvarint(out, certificate.round)
    _w_str(out, certificate.block_id)
    _encode_voters(out, certificate.mask)
    _encode_obj(out, certificate.aggregate)


def _decode_certificate(reader: _Reader, cls: type) -> Certificate:
    round_k = reader.uvarint()
    block_id = reader.str_()
    mask = _decode_voters(reader)
    aggregate = _decode_obj(reader)
    if aggregate is not None and not isinstance(aggregate, AggregateSignature):
        raise WireError("certificate aggregate field holds a non-aggregate object")
    return cls(round=round_k, block_id=block_id, mask=mask,
               aggregate=aggregate)


def _encode_unlock_proof(out: bytearray, proof: UnlockProof) -> None:
    _w_uvarint(out, proof.round)
    _w_str(out, proof.block_id)
    _w_uvarint(out, len(proof.masks_by_block))
    for block_id, mask in proof.masks_by_block:
        _w_str(out, block_id)
        _encode_voters(out, mask)


def _decode_unlock_proof(reader: _Reader) -> UnlockProof:
    round_k = reader.uvarint()
    block_id = reader.str_()
    entries: List[Tuple[str, int]] = []
    for _ in range(reader.uvarint()):
        entry_id = reader.str_()
        entries.append((entry_id, _decode_voters(reader)))
    return UnlockProof(round=round_k, block_id=block_id,
                       masks_by_block=tuple(entries))


def _encode_proposal(out: bytearray, proposal: BlockProposal) -> None:
    _encode_block(out, proposal.block)
    _encode_obj(out, proposal.parent_notarization)
    _encode_obj(out, proposal.parent_unlock_proof)
    _encode_obj(out, proposal.fast_vote)
    if proposal.relayed_by is None:
        _w_bool(out, False)
    else:
        _w_bool(out, True)
        _w_ivarint(out, proposal.relayed_by)


def _decode_proposal(reader: _Reader) -> BlockProposal:
    block = _decode_block(reader)
    notarization = _decode_obj(reader)
    unlock_proof = _decode_obj(reader)
    fast_vote = _decode_obj(reader)
    relayed_by = reader.ivarint() if reader.bool_() else None
    if notarization is not None and not isinstance(notarization, Notarization):
        raise WireError("proposal parent_notarization holds a wrong type")
    if unlock_proof is not None and not isinstance(unlock_proof, UnlockProof):
        raise WireError("proposal parent_unlock_proof holds a wrong type")
    if fast_vote is not None and not isinstance(fast_vote, Vote):
        raise WireError("proposal fast_vote holds a wrong type")
    return BlockProposal(block=block, parent_notarization=notarization,
                         parent_unlock_proof=unlock_proof,
                         fast_vote=fast_vote, relayed_by=relayed_by)


def _encode_vote_message(out: bytearray, message: VoteMessage) -> None:
    _w_uvarint(out, len(message.votes))
    for vote in message.votes:
        _encode_vote(out, vote)
    _w_ivarint(out, message.sender)


def _decode_vote_message(reader: _Reader) -> VoteMessage:
    votes = tuple(_decode_vote(reader) for _ in range(reader.uvarint()))
    return VoteMessage(votes=votes, sender=reader.ivarint())


def _encode_certificate_message(out: bytearray, message: CertificateMessage) -> None:
    _encode_obj(out, message.certificate)
    _encode_obj(out, message.unlock_proof)
    _w_ivarint(out, message.sender)


def _decode_certificate_message(reader: _Reader) -> CertificateMessage:
    certificate = _decode_obj(reader)
    unlock_proof = _decode_obj(reader)
    sender = reader.ivarint()
    if certificate is not None and not isinstance(
            certificate, (Notarization, Finalization, FastFinalization)):
        raise WireError("certificate message carries a non-certificate object")
    if unlock_proof is not None and not isinstance(unlock_proof, UnlockProof):
        raise WireError("certificate message unlock_proof holds a wrong type")
    return CertificateMessage(certificate=certificate,
                              unlock_proof=unlock_proof, sender=sender)


def _encode_hello(out: bytearray, hello: Hello) -> None:
    _w_ivarint(out, hello.sender)
    _w_str(out, hello.role)


def _decode_hello(reader: _Reader) -> Hello:
    return Hello(sender=reader.ivarint(), role=reader.str_())


def _encode_client_submit(out: bytearray, submit: ClientSubmit) -> None:
    _w_bytes(out, submit.transaction)
    _w_ivarint(out, submit.client_id)


def _decode_client_submit(reader: _Reader) -> ClientSubmit:
    return ClientSubmit(transaction=reader.bytes_(), client_id=reader.ivarint())


# --------------------------------------------------------------------- #
# Tagged object dispatch
# --------------------------------------------------------------------- #


def _encode_obj(out: bytearray, obj: Any) -> None:
    """Append one tagged object (the format's recursive unit)."""
    if obj is None:
        out.append(_TAG_NONE)
    elif isinstance(obj, BlockProposal):
        out.append(_TAG_BLOCK_PROPOSAL)
        _encode_proposal(out, obj)
    elif isinstance(obj, VoteMessage):
        out.append(_TAG_VOTE_MESSAGE)
        _encode_vote_message(out, obj)
    elif isinstance(obj, CertificateMessage):
        out.append(_TAG_CERTIFICATE_MESSAGE)
        _encode_certificate_message(out, obj)
    elif isinstance(obj, Block):
        out.append(_TAG_BLOCK)
        _encode_block(out, obj)
    elif isinstance(obj, Vote):
        out.append(_TAG_VOTE)
        _encode_vote(out, obj)
    elif isinstance(obj, UnlockProof):
        out.append(_TAG_UNLOCK_PROOF)
        _encode_unlock_proof(out, obj)
    elif isinstance(obj, Signature):
        out.append(_TAG_SIGNATURE)
        _encode_signature(out, obj)
    elif isinstance(obj, AggregateSignature):
        out.append(_TAG_AGGREGATE)
        _encode_aggregate(out, obj)
    elif isinstance(obj, Hello):
        out.append(_TAG_HELLO)
        _encode_hello(out, obj)
    elif isinstance(obj, ClientSubmit):
        out.append(_TAG_CLIENT_SUBMIT)
        _encode_client_submit(out, obj)
    elif type(obj) in _CERTIFICATE_TAGS:
        out.append(_CERTIFICATE_TAGS[type(obj)])
        _encode_certificate(out, obj)
    elif isinstance(obj, Certificate):
        # A Certificate subclass the wire format does not know (e.g. a
        # test-only variant) must fail loudly, not silently mis-tag.
        raise WireError(f"cannot encode certificate type {type(obj).__name__}")
    else:
        raise WireError(f"cannot encode object of type {type(obj).__name__}")


def _decode_obj(reader: _Reader) -> Any:
    tag = reader.byte()
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_BLOCK_PROPOSAL:
        return _decode_proposal(reader)
    if tag == _TAG_VOTE_MESSAGE:
        return _decode_vote_message(reader)
    if tag == _TAG_CERTIFICATE_MESSAGE:
        return _decode_certificate_message(reader)
    if tag == _TAG_BLOCK:
        return _decode_block(reader)
    if tag == _TAG_VOTE:
        return _decode_vote(reader)
    if tag == _TAG_UNLOCK_PROOF:
        return _decode_unlock_proof(reader)
    if tag == _TAG_SIGNATURE:
        return _decode_signature(reader)
    if tag == _TAG_AGGREGATE:
        return _decode_aggregate(reader)
    if tag == _TAG_HELLO:
        return _decode_hello(reader)
    if tag == _TAG_CLIENT_SUBMIT:
        return _decode_client_submit(reader)
    if tag == _TAG_NOTARIZATION:
        return _decode_certificate(reader, Notarization)
    if tag == _TAG_FINALIZATION:
        return _decode_certificate(reader, Finalization)
    if tag == _TAG_FAST_FINALIZATION:
        return _decode_certificate(reader, FastFinalization)
    raise WireError(f"unknown wire tag {tag:#x}")


# --------------------------------------------------------------------- #
# Public API
# --------------------------------------------------------------------- #


def encode_payload(obj: Any) -> bytes:
    """Encode a single object (no sender, no frame header)."""
    out = bytearray()
    _encode_obj(out, obj)
    return bytes(out)


def decode_payload(data: bytes) -> Any:
    """Decode a single object; trailing bytes raise :class:`WireError`."""
    reader = _Reader(data)
    obj = _decode_obj(reader)
    reader.finish()
    return obj


def encode_envelope(sender: int, message: Any) -> bytes:
    """Encode ``(sender, message)`` — the payload of one frame."""
    out = bytearray()
    _w_ivarint(out, sender)
    _encode_obj(out, message)
    return bytes(out)


def decode_envelope(data: bytes) -> Tuple[int, Any]:
    """Decode one envelope payload back into ``(sender, message)``."""
    reader = _Reader(data)
    sender = reader.ivarint()
    message = _decode_obj(reader)
    reader.finish()
    return sender, message


def encode_frame(sender: int, message: Any) -> bytes:
    """Encode ``(sender, message)`` as one self-delimiting wire frame."""
    payload = encode_envelope(sender, message)
    if len(payload) > MAX_FRAME_BYTES:
        raise WireError(f"frame payload of {len(payload)} bytes exceeds the "
                        f"{MAX_FRAME_BYTES}-byte limit")
    return _FRAME_HEADER.pack(WIRE_MAGIC, WIRE_VERSION, len(payload)) + payload


class FrameDecoder:
    """Incremental splitter of a TCP byte stream into envelopes.

    Feed arbitrary chunks; complete frames come out as ``(sender, message)``
    pairs.  A partial frame simply waits for more bytes; a corrupt header
    (bad magic, unsupported version, oversized length) or a malformed
    payload raises :class:`WireError` — the caller should drop the
    connection, since the stream can no longer be re-synchronised.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def buffered_bytes(self) -> int:
        """Bytes waiting for the rest of their frame."""
        return len(self._buffer)

    def feed(self, data: bytes) -> Iterator[Tuple[int, Any]]:
        """Add ``data`` to the buffer and yield every completed envelope."""
        self._buffer += data
        while len(self._buffer) >= FRAME_HEADER_SIZE:
            magic, version, length = _FRAME_HEADER.unpack_from(self._buffer)
            if magic != WIRE_MAGIC:
                raise WireError(f"bad frame magic {magic:#x}")
            if version != WIRE_VERSION:
                raise WireError(f"unsupported wire version {version}")
            if length > MAX_FRAME_BYTES:
                raise WireError(f"frame length {length} exceeds the "
                                f"{MAX_FRAME_BYTES}-byte limit")
            end = FRAME_HEADER_SIZE + length
            if len(self._buffer) < end:
                return
            payload = bytes(self._buffer[FRAME_HEADER_SIZE:end])
            del self._buffer[:end]
            yield decode_envelope(payload)
