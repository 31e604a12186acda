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

The format itself is pinned too: one frame per message class, byte for
byte, so the layout cannot drift without this file changing.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.wire import (
    FRAME_HEADER_SIZE,
    MAX_FRAME_BYTES,
    MAX_VOTER_ID,
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
from repro.types.votes import FastVote, NotarizationVote, VoteKind, make_vote

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


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), generator=st.sampled_from(GENERATORS),
       sender=st.integers(-(2**31) + 1, 2**31 - 1))
def test_roundtrip_identity_hypothesis(seed, generator, sender):
    """The same generators, driven (and shrunk) by Hypothesis: payload,
    envelope and frame all restore the exact object."""
    obj = generator(random.Random(seed))
    decoded = decode_payload(encode_payload(obj))
    assert decoded == obj and type(decoded) is type(obj)
    assert decode_envelope(encode_envelope(sender, obj)) == (sender, obj)
    assert list(FrameDecoder().feed(encode_frame(sender, obj))) == [(sender, obj)]


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


@pytest.mark.parametrize("obj", [
    Block(round=2**64, proposer=0, rank=0, parent_id=None),       # round: u64
    Block(round=2**200, proposer=-(2**80), rank=0, parent_id=None),
    Block(round=-1, proposer=0, rank=0, parent_id=None),
    Block(round=1, proposer=2**31, rank=0, parent_id=None),       # ids: i32
    Block(round=1, proposer=0, rank=2**32, parent_id=None),       # rank: u32
    Block(round=1, proposer=0, rank=0, parent_id=None,
          payload_size=2**64 - 1),                                # the absent marker
    Block(round=1, proposer=0, rank=0, parent_id="x" * 0xFFFF),   # id: < 64 KiB
    BlockProposal(block=Block(round=1, proposer=0, rank=0, parent_id=None),
                  relayed_by=-(2**31)),                           # the absent marker
    Hello(sender=0, role="r" * 0x10000),
    Notarization(round=1, block_id="b", mask=1 << (MAX_VOTER_ID + 8)),
    Notarization(round=1, block_id="b", mask=-1),
    VoteMessage(votes=(make_vote(VoteKind.FAST, 1, "b", 0),) * 0x10000, sender=0),
], ids=lambda obj: type(obj).__name__)
def test_out_of_domain_values_are_refused_at_encode(obj):
    """v1's varints carried any integer; a fixed-width slot has a domain,
    and a value outside it is a ``WireError`` where it is encoded — never a
    ``struct.error``, never a silently truncated field."""
    with pytest.raises(WireError):
        encode_payload(obj)
    with pytest.raises(WireError):
        encode_frame(0, obj)


def test_domain_edges_roundtrip():
    block = Block(round=2**64 - 1, proposer=-(2**31) + 1, rank=2**32 - 1,
                  parent_id="x" * 0xFFFE, payload_size=2**64 - 2)
    assert decode_payload(encode_payload(block)) == block
    widest = Notarization(round=0, block_id="", mask=1 << MAX_VOTER_ID)
    assert decode_payload(encode_payload(widest)) == widest


def test_misplaced_object_is_refused_at_encode():
    """A field admits only its classes: what would not decode does not encode."""
    with pytest.raises(WireError, match="does not belong"):
        encode_payload(VoteMessage(votes=(Hello(sender=1),), sender=0))
    with pytest.raises(WireError, match="does not belong"):
        encode_payload(BlockProposal(block=None))


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


def test_every_truncated_envelope_raises_wire_error():
    rng = random.Random(29)
    for _ in range(40):
        envelope = encode_envelope(rng.randrange(-4, 64), _rand_message(rng))
        for cut in range(len(envelope)):
            with pytest.raises(WireError):
                decode_envelope(envelope[:cut])


def test_trailing_garbage_raises_wire_error():
    rng = random.Random(31)
    for _ in range(100):
        message = _rand_message(rng)
        with pytest.raises(WireError):
            decode_payload(encode_payload(message) + b"\x00")
        with pytest.raises(WireError):
            decode_envelope(encode_envelope(1, message) + rng.randbytes(3))


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32), flips=st.lists(
    st.tuples(st.integers(0, 10**6), st.integers(1, 255)), min_size=1, max_size=4))
def test_corrupted_valid_payloads_raise_only_wire_error(seed, flips):
    """Mutations of *valid* encodings reach deeper than random bytes do."""
    payload = bytearray(encode_payload(_rand_message(random.Random(seed))))
    for position, mask in flips:
        payload[position % len(payload)] ^= mask
    try:
        decode_payload(bytes(payload))
    except WireError:
        pass


def test_random_garbage_never_escapes_wire_error():
    rng = random.Random(17)
    for _ in range(500):
        garbage = rng.randbytes(rng.randrange(0, 80))
        framed = bytes([WIRE_MAGIC, WIRE_VERSION, 0, 0, 0, len(garbage)]) + garbage
        for decode, data in ((decode_payload, garbage), (decode_envelope, garbage),
                             (lambda data: list(FrameDecoder().feed(data)), framed)):
            try:
                decode(data)
            except WireError:
                pass
        # Any non-WireError exception (IndexError, struct.error, …)
        # propagates and fails the test.


# --------------------------------------------------------------------- #
# The v2 layout, byte for byte
# --------------------------------------------------------------------- #

_SIGNATURE = Signature(signer=2, tag=b"T", message_digest=b"DD")

#: ``(sender, message, frame hex)``: frame header ``b7 02 | length u32``,
#: envelope ``sender i32 | tag | header slots | variable parts in field order``.
PINNED_FRAMES = [
    (1, Hello(sender=1),
     "b70200000012" "00000001" "20" "00000001" "0007" + b"replica".hex()),
    (-3, ClientSubmit(transaction=b"tx", client_id=2),
     "b7020000000f" "fffffffd" "21" "00000002" "00000002" + b"tx".hex()),
    (2, VoteMessage(votes=(NotarizationVote(round=5, block_id="ab", voter=2),
                           FastVote(round=5, block_id="ab", voter=2,
                                    signature=_SIGNATURE)), sender=2),
     "b70200000040" "00000002" "11" "0002" "00000002"
     # vote: tag, kind, round, id length, voter, id, signature (none)
     "02" "00" "0000000000000005" "0002" "00000002" "6162" "00"
     "02" "01" "0000000000000005" "0002" "00000002" "6162"
     # signature: tag, signer, tag length, digest length, tag, digest
     "03" "00000002" "00000001" "00000002" "54" "4444"),
    (0, CertificateMessage(
        certificate=Finalization(
            round=5, block_id="ab", voters=[0, 1, 9],
            aggregate=AggregateSignature(shares=((2, _SIGNATURE),))),
        unlock_proof=UnlockProof(round=5, block_id="ab",
                                 votes_by_block=(("ab", [0, 3]),)),
        sender=0),
     "b70200000047" "00000000" "12" "00000000"
     # finalization: round, id length, mask length, id, mask 0b10_0000_0011
     "06" "0000000000000005" "0002" "0002" "6162" "0203"
     # aggregate: share count, then (signer, tagged signature) records
     "04" "0001" "00000002" "03" "00000002" "00000001" "00000002" "54" "4444"
     # unlock proof: round, id length, entry count, id, (id, mask) records
     "08" "0000000000000005" "0002" "0001" "6162" "0002" "0001" "6162" "09"),
    (3, BlockProposal(
        block=Block(round=6, proposer=3, rank=1, parent_id="ab", payload=b"xyz",
                    payload_size=1000),
        parent_notarization=Notarization(round=5, block_id="ab", voters=[0, 1, 2]),
        relayed_by=1),
     "b70200000040" "00000003" "10" "00000001"
     # block: round, proposer, rank, parent length, payload length, size
     "01" "0000000000000006" "00000003" "00000001" "0002" "00000003"
     "00000000000003e8" "6162" "78797a"
     # notarization (no aggregate), no unlock proof, no fast vote
     "05" "0000000000000005" "0002" "0001" "6162" "07" "00" "00" "00"),
]


@pytest.mark.parametrize("sender, message, frame_hex", PINNED_FRAMES,
                         ids=lambda value: type(value).__name__)
def test_v2_frame_bytes_are_pinned(sender, message, frame_hex):
    frame = bytes.fromhex(frame_hex)
    assert encode_frame(sender, message) == frame
    assert list(FrameDecoder().feed(frame)) == [(sender, message)]


def test_absent_optionals_use_their_markers():
    block = Block(round=1, proposer=-1, rank=0, parent_id=None)
    assert encode_payload(block) == bytes.fromhex(
        "01" "0000000000000001" "ffffffff" "00000000" "ffff" "00000000"
        "ffffffffffffffff")
    proposal = encode_payload(BlockProposal(block=block))
    assert proposal[:5] == bytes.fromhex("10" "80000000")


def test_voter_mask_is_one_big_endian_integer():
    many = encode_payload(Notarization(round=1, block_id="b", voters=[9, 0, 5]))
    assert many == bytes.fromhex("05" "0000000000000001" "0001" "0002" "62" "0221" "00")
    none = encode_payload(Notarization(round=1, block_id="b", voters=[]))
    assert none == bytes.fromhex("05" "0000000000000001" "0001" "0000" "62" "00")
    assert decode_payload(none).mask == 0


def _certificate_payload(mask_length, mask_bytes=b""):
    """A notarization of block "b" whose mask claims ``mask_length`` bytes."""
    return (bytes.fromhex("05" "0000000000000001" "0001")
            + mask_length.to_bytes(2, "big") + b"b" + mask_bytes + b"\x00")


def test_over_long_mask_is_refused_before_it_is_built():
    """Voter sets decode into ``int`` bitmasks: a length beyond
    ``MAX_VOTER_ID`` bits is malformed input, refused on its length alone —
    whether or not the frame even holds that many bytes."""
    limit = MAX_VOTER_ID // 8 + 1
    fits = _certificate_payload(limit, b"\x01" + bytes(limit - 1))
    assert decode_payload(fits).mask == 1 << MAX_VOTER_ID
    for payload in (_certificate_payload(limit + 1, bytes(limit + 1)),
                    _certificate_payload(0xFFFF)):
        with pytest.raises(WireError, match="voter mask"):
            decode_payload(payload)
    proof = (bytes.fromhex("08" "0000000000000001" "0001" "0001") + b"b"
             + bytes.fromhex("0001") + (limit + 1).to_bytes(2, "big") + b"b"
             + bytes(limit + 1))
    with pytest.raises(WireError, match="voter mask"):
        decode_payload(proof)
    envelope = bytes(4) + _certificate_payload(limit + 1, bytes(limit + 1))
    frame = bytes([WIRE_MAGIC, WIRE_VERSION]) + len(envelope).to_bytes(4, "big") + envelope
    with pytest.raises(WireError, match="voter mask"):
        list(FrameDecoder().feed(frame))


def test_length_beyond_the_frame_is_refused_before_allocation():
    """A 4 GiB payload length in a 40-byte frame is a truncation, not a
    4 GiB slice."""
    block = bytes.fromhex("01" "0000000000000001" "00000000" "00000000" "ffff"
                          "ffffffff" "ffffffffffffffff")
    with pytest.raises(WireError, match="truncated Block.payload"):
        decode_payload(block)
    votes = bytes.fromhex("11" "ffff" "00000000")  # 65535 votes, none present
    with pytest.raises(WireError, match="truncated"):
        decode_payload(votes)


def test_tag_is_checked_against_its_field_before_it_is_decoded():
    """A field's tag is judged before the object behind it is decoded, so
    hostile nesting (a vote whose signature is a vote whose …) costs one
    frame, not the interpreter's stack."""
    vote = bytes.fromhex("02" "00" "0000000000000001" "0001" "00000000" "62")
    with pytest.raises(WireError, match="unexpected wire tag 0x2"):
        decode_payload(vote * 100_000 + b"\x00")
    proposal_without_block = bytes.fromhex("10" "80000000" "00" "00" "00" "00")
    with pytest.raises(WireError, match="unexpected wire tag 0x0"):
        decode_payload(proposal_without_block)
    with pytest.raises(WireError, match="unexpected wire tag 0x99"):
        decode_payload(b"\x99")


def test_unknown_vote_kind_rejected():
    vote = bytes.fromhex("02" "03" "0000000000000001" "0001" "00000000" "62" "00")
    with pytest.raises(WireError, match="vote kind"):
        decode_payload(vote)


def test_invalid_utf8_rejected():
    with pytest.raises(WireError, match="UTF-8"):
        decode_payload(bytes.fromhex("20" "00000001" "0002" "fffe"))


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


def test_frame_decoder_keeps_what_an_abandoned_feed_did_not_yield():
    frames = [encode_frame(index, Hello(sender=index)) for index in range(3)]
    decoder = FrameDecoder()
    feed = decoder.feed(b"".join(frames) + frames[0][:5])
    assert next(feed) == (0, Hello(sender=0))
    feed.close()                                   # the consumer walked away
    assert list(decoder.feed(frames[0][5:])) == [
        (1, Hello(sender=1)), (2, Hello(sender=2)), (0, Hello(sender=0))]
    assert decoder.buffered_bytes == 0


def test_frame_decoder_corrupt_payload():
    frame = bytearray(encode_frame(0, Hello(sender=0)))
    frame[-1] = 0xFE  # smash the last payload byte (role string)
    with pytest.raises(WireError):
        list(FrameDecoder().feed(bytes(frame)))
