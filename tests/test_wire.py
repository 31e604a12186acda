"""Wire-format tests: fuzzed round-trip identity and typed failure modes.

The cluster runtime is only as trustworthy as its serialization: a field
silently dropped or reordered on the wire would corrupt consensus state in
ways no socket-level test reliably catches.  So the core property here is
*round-trip identity over randomized structures* — for every encodable
type, ``decode(encode(x)) == x`` (dataclass equality is field-wise, and
block ids are content hashes, so identity extends to the id level).

The negative half: every truncation of a valid payload and every corrupted
frame header must raise :class:`WireError` — never ``IndexError``,
``struct.error``, or a silently wrong object.
"""

import random

import pytest

from repro.cluster.wire import (
    FRAME_HEADER_SIZE,
    MAX_FRAME_BYTES,
    WIRE_MAGIC,
    WIRE_VERSION,
    ClientSubmit,
    FrameDecoder,
    Hello,
    WireError,
    decode_envelope,
    decode_payload,
    encode_envelope,
    encode_frame,
    encode_payload,
)
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
from repro.types.votes import VoteKind, make_vote

# --------------------------------------------------------------------- #
# Randomized structure generators
# --------------------------------------------------------------------- #


def _rand_block_id(rng):
    return "".join(rng.choice("0123456789abcdef") for _ in range(16))


def _rand_signature(rng):
    return Signature(
        signer=rng.randrange(-4, 64),
        tag=rng.randbytes(rng.randrange(0, 40)),
        message_digest=rng.randbytes(rng.randrange(0, 40)),
    )


def _rand_aggregate(rng):
    return AggregateSignature(shares=tuple(
        (rng.randrange(0, 64), _rand_signature(rng))
        for _ in range(rng.randrange(0, 5))
    ))


def _rand_block(rng):
    return Block(
        round=rng.randrange(0, 1 << 40),
        proposer=rng.randrange(-2, 64),
        rank=rng.randrange(0, 64),
        parent_id=None if rng.random() < 0.2 else _rand_block_id(rng),
        payload=rng.randbytes(rng.randrange(0, 200)),
        payload_size=None if rng.random() < 0.5 else rng.randrange(0, 1 << 30),
    )


def _rand_vote(rng):
    return make_vote(
        rng.choice(list(VoteKind)),
        rng.randrange(0, 1 << 20),
        _rand_block_id(rng),
        rng.randrange(-4, 64),
        None if rng.random() < 0.5 else _rand_signature(rng),
    )


def _rand_certificate(rng):
    cls = rng.choice([Notarization, Finalization, FastFinalization])
    return cls(
        round=rng.randrange(0, 1 << 20),
        block_id=_rand_block_id(rng),
        voters=frozenset(rng.sample(range(64), rng.randrange(0, 8))),
        aggregate=None if rng.random() < 0.5 else _rand_aggregate(rng),
    )


def _rand_unlock_proof(rng):
    return UnlockProof(
        round=rng.randrange(0, 1 << 20),
        block_id=_rand_block_id(rng),
        votes_by_block=tuple(
            (_rand_block_id(rng),
             frozenset(rng.sample(range(64), rng.randrange(0, 6))))
            for _ in range(rng.randrange(0, 4))
        ),
    )


def _rand_notarization(rng):
    return Notarization(
        round=rng.randrange(0, 1 << 20),
        block_id=_rand_block_id(rng),
        voters=frozenset(rng.sample(range(64), rng.randrange(0, 8))),
        aggregate=None if rng.random() < 0.5 else _rand_aggregate(rng),
    )


def _rand_proposal(rng):
    return BlockProposal(
        block=_rand_block(rng),
        parent_notarization=(None if rng.random() < 0.3
                             else _rand_notarization(rng)),
        parent_unlock_proof=(None if rng.random() < 0.5
                             else _rand_unlock_proof(rng)),
        fast_vote=None if rng.random() < 0.5 else _rand_vote(rng),
        relayed_by=None if rng.random() < 0.5 else rng.randrange(-2, 64),
    )


def _rand_vote_message(rng):
    return VoteMessage(
        votes=tuple(_rand_vote(rng) for _ in range(rng.randrange(0, 6))),
        sender=rng.randrange(-2, 64),
    )


def _rand_certificate_message(rng):
    return CertificateMessage(
        certificate=None if rng.random() < 0.2 else _rand_certificate(rng),
        unlock_proof=None if rng.random() < 0.5 else _rand_unlock_proof(rng),
        sender=rng.randrange(-2, 64),
    )


def _rand_hello(rng):
    return Hello(sender=rng.randrange(-1000, 64),
                 role=rng.choice(["replica", "client"]))


def _rand_client_submit(rng):
    return ClientSubmit(transaction=rng.randbytes(rng.randrange(0, 300)),
                        client_id=rng.randrange(0, 1 << 16))


GENERATORS = [
    _rand_block,
    _rand_vote,
    _rand_signature,
    _rand_aggregate,
    _rand_certificate,
    _rand_unlock_proof,
    _rand_proposal,
    _rand_vote_message,
    _rand_certificate_message,
    _rand_hello,
    _rand_client_submit,
]


def _rand_message(rng):
    return rng.choice(GENERATORS)(rng)


# --------------------------------------------------------------------- #
# Round-trip identity
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("generator", GENERATORS,
                         ids=lambda g: g.__name__.lstrip("_"))
def test_roundtrip_identity_fuzzed(generator):
    rng = random.Random(hash(generator.__name__) & 0xFFFF)
    for _ in range(200):
        obj = generator(rng)
        decoded = decode_payload(encode_payload(obj))
        assert decoded == obj
        assert type(decoded) is type(obj)


def test_roundtrip_preserves_block_id():
    # Block ids are content hashes: identity must survive serialization at
    # the id level, or certified chains would not cross the wire.
    rng = random.Random(7)
    for _ in range(100):
        block = _rand_block(rng)
        assert decode_payload(encode_payload(block)).id == block.id


def test_roundtrip_vote_subclasses():
    # make_vote yields distinct subclasses per kind; decode must restore
    # the exact subclass, not the base Vote.
    for kind in VoteKind:
        vote = make_vote(kind, 3, "abcd", 2, None)
        decoded = decode_payload(encode_payload(vote))
        assert type(decoded) is type(vote)
        assert decoded == vote


def test_envelope_roundtrip_fuzzed():
    rng = random.Random(11)
    for _ in range(300):
        sender = rng.randrange(-1000, 1000)
        message = _rand_message(rng)
        assert decode_envelope(encode_envelope(sender, message)) \
            == (sender, message)


def test_none_payload_roundtrip():
    assert decode_payload(encode_payload(None)) is None


def test_large_varint_fields_roundtrip():
    block = Block(round=2**200, proposer=-(2**80), rank=0, parent_id=None)
    assert decode_payload(encode_payload(block)) == block


def test_unknown_certificate_subclass_rejected():
    class Weird(Certificate):
        pass

    with pytest.raises(WireError):
        encode_payload(Weird(round=1, block_id="x", voters=frozenset()))


def test_unencodable_object_rejected():
    with pytest.raises(WireError):
        encode_payload(object())


# --------------------------------------------------------------------- #
# Truncation and corruption
# --------------------------------------------------------------------- #


def test_every_truncation_raises_wire_error():
    rng = random.Random(13)
    for _ in range(40):
        payload = encode_payload(_rand_message(rng))
        for cut in range(len(payload)):
            with pytest.raises(WireError):
                decode_payload(payload[:cut])


def test_trailing_garbage_raises_wire_error():
    payload = encode_payload(Hello(sender=1))
    with pytest.raises(WireError):
        decode_payload(payload + b"\x00")


def test_random_garbage_never_escapes_wire_error():
    rng = random.Random(17)
    for _ in range(500):
        garbage = rng.randbytes(rng.randrange(0, 80))
        try:
            decode_payload(garbage)
        except WireError:
            pass
        # Any non-WireError exception (IndexError, struct.error, …)
        # propagates and fails the test.


def _certificate_payload(voter_bytes):
    """A notarization for block "b" of round 1 whose one voter id is the
    given varint bytes (tag, round, block id, voter count, voter, no
    aggregate)."""
    return b"\x05\x01\x01b\x01" + voter_bytes + b"\x00"


def test_voter_list_is_the_sorted_id_list_it_always_was():
    certificate = Notarization(round=1, block_id="b", voters={3})
    assert encode_payload(certificate) == _certificate_payload(b"\x06")
    assert decode_payload(_certificate_payload(b"\x06")) == certificate
    # Sorted ids, whatever order the constructor saw them in.
    many = encode_payload(Notarization(round=1, block_id="b", voters=[9, 0, 5]))
    assert many == b"\x05\x01\x01b\x03" + bytes([0, 10, 18]) + b"\x00"


@pytest.mark.parametrize("voter_bytes", [
    b"\x01",                        # zigzag -1
    b"\xff" * 9 + b"\x01",          # a 64-bit id: a mask of 2**61 bytes
])
def test_out_of_range_voter_ids_are_malformed_input(voter_bytes):
    """Voter sets decode into bitmasks: a negative id has no bit, and a
    huge one must not be allocated."""
    with pytest.raises(WireError, match="voter id"):
        decode_payload(_certificate_payload(voter_bytes))
    proof = b"\x08\x01\x01b\x01\x01b\x01" + voter_bytes
    with pytest.raises(WireError, match="voter id"):
        decode_payload(proof)
    envelope = b"\x00" + _certificate_payload(voter_bytes)  # from replica 0
    frame = bytes([WIRE_MAGIC, WIRE_VERSION]) + len(envelope).to_bytes(4, "big") + envelope
    with pytest.raises(WireError, match="voter id"):
        list(FrameDecoder().feed(frame))


def test_unbounded_varint_rejected():
    with pytest.raises(WireError):
        decode_payload(b"\x01" + b"\xff" * 200)


# --------------------------------------------------------------------- #
# Frames and streaming decode
# --------------------------------------------------------------------- #


def test_frame_decoder_reassembles_byte_by_byte():
    rng = random.Random(19)
    messages = [(rng.randrange(0, 8), _rand_message(rng)) for _ in range(30)]
    stream = b"".join(encode_frame(s, m) for s, m in messages)
    decoder = FrameDecoder()
    out = []
    for i in range(len(stream)):
        out.extend(decoder.feed(stream[i:i + 1]))
    assert out == messages
    assert decoder.buffered_bytes == 0


def test_frame_decoder_random_chunking():
    rng = random.Random(23)
    messages = [(rng.randrange(0, 8), _rand_message(rng)) for _ in range(50)]
    stream = b"".join(encode_frame(s, m) for s, m in messages)
    decoder = FrameDecoder()
    out = []
    position = 0
    while position < len(stream):
        step = rng.randrange(1, 200)
        out.extend(decoder.feed(stream[position:position + step]))
        position += step
    assert out == messages


def test_frame_decoder_bad_magic():
    frame = bytearray(encode_frame(0, Hello(sender=0)))
    frame[0] ^= 0xFF
    with pytest.raises(WireError):
        list(FrameDecoder().feed(bytes(frame)))


def test_frame_decoder_bad_version():
    frame = bytearray(encode_frame(0, Hello(sender=0)))
    assert frame[1] == WIRE_VERSION
    frame[1] = WIRE_VERSION + 1
    with pytest.raises(WireError):
        list(FrameDecoder().feed(bytes(frame)))


def test_frame_decoder_oversized_length():
    header = bytes([WIRE_MAGIC, WIRE_VERSION]) \
        + (MAX_FRAME_BYTES + 1).to_bytes(4, "big")
    with pytest.raises(WireError):
        list(FrameDecoder().feed(header))


def test_frame_decoder_partial_frame_waits():
    frame = encode_frame(3, Hello(sender=3))
    decoder = FrameDecoder()
    assert list(decoder.feed(frame[:FRAME_HEADER_SIZE + 1])) == []
    assert decoder.buffered_bytes == FRAME_HEADER_SIZE + 1
    assert list(decoder.feed(frame[FRAME_HEADER_SIZE + 1:])) \
        == [(3, Hello(sender=3))]


def test_frame_decoder_corrupt_payload():
    frame = bytearray(encode_frame(0, Hello(sender=0)))
    frame[-1] = 0xFE  # smash the last payload byte (role string)
    with pytest.raises(WireError):
        list(FrameDecoder().feed(bytes(frame)))
