"""Versioned, length-prefixed binary wire format for cluster traffic (v3).

The simulator passes message *objects* between replicas; a real cluster
passes *bytes*.  This module defines the byte encoding, with lossless
encode/decode for every type a protocol may put on the wire —
:class:`repro.types.blocks.Block`, every vote subclass, every certificate
(notarization / finalization / fast finalization / unlock proof), and
the three top-level message shapes
(:class:`repro.types.messages.BlockProposal`,
:class:`repro.types.messages.VoteMessage`,
:class:`repro.types.messages.CertificateMessage`) — plus the two
cluster-control shapes (:class:`Hello`, :class:`ClientSubmit`).  Votes
and certificates carry no signatures (README, Design notes,
"Substitutions"): a vote is its kind, round, block id and voter, and a
certificate its round, block id and voter mask.

**Framing.**  A frame is ``magic u8 | version u8 | length u32 | envelope``
and an envelope is ``sender i32 | object``.  :class:`FrameDecoder`
incrementally splits a TCP byte stream back into envelopes.

**Objects.**  An object is a tag byte (``0x00`` = none), one fixed-width
big-endian header holding a slot per field of the class's row in
:data:`_TABLE`, then the variable part of each field in field order.  The
table is the only description of a layout: the encoder and the decoder of
a class are both generated from its row (:func:`_compile`), one
``pack`` / ``unpack_from`` per object, so a field cannot be written one way
and read another.  The field kinds:

==========  ===========  ================================================
field kind  header slot  after the header; bound
==========  ===========  ================================================
``Q``       u64          rounds, sizes; ``0 .. 2**64 - 1``
``I``       u32          ranks
``i``       i32          replica / client ids (clients are negative)
``?Q``      u64          optional; ``2**64 - 1`` = absent
``?i``      i32          optional; ``-2**31`` = absent
``kind``    u8           vote kind code 0 / 1 / 2
``str``     u16 length   UTF-8 bytes; length below ``0xFFFF``
``?str``    u16 length   optional; ``0xFFFF`` = absent
``bytes``   u32 length   raw bytes; bounded by the frame
``mask``    u16 length   a voter bitmask as one big-endian integer; at
                         most ``MAX_VOTER_ID // 8 + 1`` bytes, checked
                         before the integer is built
(classes)   —            one tagged object; the tag is checked against
                         the field's classes *before* it is decoded, so
                         nesting depth is bounded by the type structure
[element]   u16 count    that many elements: tagged objects, or the
                         untagged ``(a, b)`` pair records of a row
==========  ===========  ================================================

Every read is bounds-checked against the enclosing frame: truncated,
trailing or corrupted input raises :class:`WireError` — never
``IndexError`` / ``struct.error`` — so a node can drop a bad peer instead
of crashing.  A value outside its slot's domain (a round of ``2**64``, an
id string of 64 KiB) is a :class:`WireError` at *encode*.  Decoded
dataclasses are restored field by field, as :mod:`pickle` does (no
constructor runs; derived attributes such as
:attr:`repro.types.certificates.UnlockProof.total_mask` are computed on
first use).  The id strings of one decoder are interned: votes,
certificates and proofs of a round all name the same few blocks, so a
repeated id is one dictionary hit and one shared ``str``.  The table is
bounded by ``_INTERN_LIMIT`` (cleared when full), because a replica never
looks back more than its round window: a long run does not grow it.

The format is deliberately independent of :mod:`pickle` (unsafe across
trust boundaries, unstable across interpreters) and of
:func:`repro.crypto.hashing.canonical_encode` (which is one-way).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.types.blocks import Block
from repro.types.certificates import (
    Certificate,
    FastFinalization,
    Finalization,
    Notarization,
    UnlockProof,
)
from repro.types.messages import BlockProposal, CertificateMessage, VoteMessage
from repro.types.votes import (
    FastVote,
    FinalizationVote,
    NotarizationVote,
    Vote,
    VoteKind,
)

#: First byte of every frame.
WIRE_MAGIC = 0xB7

#: Format version; bump on any incompatible encoding change.
WIRE_VERSION = 3

#: Upper bound on a frame payload — a corrupt length prefix must not make a
#: node allocate gigabytes.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Upper bound on a replica id in a voter set: voter sets are ``int``
#: bitmasks with one bit per id, and a corrupt or hostile length must not
#: make a node build a gigantic integer (enforced per mask byte).
MAX_VOTER_ID = 1 << 16

_MAX_MASK_BYTES = MAX_VOTER_ID // 8 + 1

_FRAME_HEADER = struct.Struct(">BBI")
_SENDER = struct.Struct(">i")

#: Frame overhead in bytes (magic + version + length prefix).
FRAME_HEADER_SIZE = _FRAME_HEADER.size

#: The header values that stand for an absent optional field.
_NO_STR, _NO_I32, _NO_U64 = 0xFFFF, -(1 << 31), (1 << 64) - 1

#: Interned id strings one decoder holds before it forgets them all.  One
#: connection names about one new block id per round and nothing older than
#: the receiver's round window (``repro.protocols.icc.ROUND_WINDOW``), so
#: this covers many windows while keeping a table small.
_INTERN_LIMIT = 256


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
# The field table
# --------------------------------------------------------------------- #

_VOTE_KINDS = (VoteKind.NOTARIZATION, VoteKind.FAST, VoteKind.FINALIZATION)
_VOTE_KIND_CODES = {kind: code for code, kind in enumerate(_VOTE_KINDS)}
_VOTE_CLASSES = {VoteKind.NOTARIZATION: NotarizationVote, VoteKind.FAST: FastVote,
                 VoteKind.FINALIZATION: FinalizationVote}

_OPTIONAL = type(None)
_CERTIFICATE_FIELDS = (("round", "Q"), ("block_id", "str"), ("mask", "mask"))

#: Records: the untagged pairs that sequence fields hold.
_SUPPORT = (None, tuple, (("block_id", "str"), ("mask", "mask")))

#: ``(tag, class, fields)`` per encodable class; a field is ``(name, kind)``
#: with the kinds of the module docstring.  A subclass not listed travels
#: as its listed base, except certificates (see :func:`_encode_obj`).
_TABLE = (
    (0x10, BlockProposal, (
        ("block", (Block,)),
        ("parent_notarization", (Notarization, _OPTIONAL)),
        ("parent_unlock_proof", (UnlockProof, _OPTIONAL)),
        ("fast_vote", (Vote, _OPTIONAL)),
        ("relayed_by", "?i"))),
    (0x11, VoteMessage, (("votes", [(Vote,)]), ("sender", "i"))),
    (0x12, CertificateMessage, (
        ("certificate", (Notarization, Finalization, FastFinalization, _OPTIONAL)),
        ("unlock_proof", (UnlockProof, _OPTIONAL)),
        ("sender", "i"))),
    (0x01, Block, (
        ("round", "Q"), ("proposer", "i"), ("rank", "I"), ("parent_id", "?str"),
        ("payload", "bytes"), ("payload_size", "?Q"))),
    (0x02, Vote, (("kind", "kind"), ("round", "Q"), ("block_id", "str"), ("voter", "i"))),
    (0x05, Notarization, _CERTIFICATE_FIELDS),
    (0x06, Finalization, _CERTIFICATE_FIELDS),
    (0x07, FastFinalization, _CERTIFICATE_FIELDS),
    (0x08, UnlockProof, (
        ("round", "Q"), ("block_id", "str"), ("masks_by_block", [_SUPPORT]))),
    (0x20, Hello, (("sender", "i"), ("role", "str"))),
    (0x21, ClientSubmit, (("transaction", "bytes"), ("client_id", "i"))),
)

# --------------------------------------------------------------------- #
# From table rows to codecs
# --------------------------------------------------------------------- #

# What the generated code calls, by the names it is generated with.


def _restore(cls: type, state: Dict[str, Any]) -> Any:
    """An instance of dataclass ``cls`` holding ``state`` (no ``__init__``)."""
    obj = object.__new__(cls)
    obj.__dict__.update(state)
    return obj


def _vote_kind(code: int) -> VoteKind:
    if code >= len(_VOTE_KINDS):
        raise WireError(f"unknown vote kind code {code:#x}")
    return _VOTE_KINDS[code]


def _optional(value: Optional[int], absent: int) -> int:
    if value == absent:
        raise WireError(f"{value} is the absent marker of its field")
    return absent if value is None else value


def _optional_text(value: Optional[str]) -> Optional[bytes]:
    if value is None:
        return None
    raw = value.encode("utf-8")
    if len(raw) >= _NO_STR:
        raise WireError(f"string of {len(raw)} bytes is too long")
    return raw


def _mask_bytes(mask: int) -> bytes:
    raw = mask.to_bytes((mask.bit_length() + 7) // 8, "big")
    if len(raw) > _MAX_MASK_BYTES:
        raise WireError(f"voter mask of {len(raw)} bytes names ids above {MAX_VOTER_ID}")
    return raw


def _intern(ids: Dict[bytes, str], raw: bytes) -> str:
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireError(f"invalid UTF-8 string: {exc}") from exc
    if len(ids) >= _INTERN_LIMIT:
        ids.clear()
    ids[raw] = text
    return text


def _indent(source: str) -> str:
    return "".join("    " + line + "\n" for line in source.splitlines())


_READ = """\
stop = pos + {f}
if stop > end:
    raise WireError("truncated {cls}.{f}")
{f} = data[pos:stop]
pos = stop
"""
_READ_STR = _READ + "{f} = ids.get({f}) or intern(ids, {f})\n"
_SEQUENCE = """\
elements = []
for _ in range({{f}}):
    element, pos = {decode}
    elements.append(element)
{{f}} = tuple(elements)
"""

#: Per field kind: its header slot, then source templates — a statement
#: that readies the value before the header is packed, the expression that
#: fills the slot, the statement that appends what follows the header, and
#: the statements that turn the unpacked slot ``{f}`` into the field value.
#: ``{v}`` is the value being encoded.
_KINDS = {
    **{code: (code, "", "{v}", "", "") for code in "QIi"},
    "?Q": ("Q", "", "optional({v}, NO_U64)", "",
           "if {f} == NO_U64:\n    {f} = None\n"),
    "?i": ("i", "", "optional({v}, NO_I32)", "",
           "if {f} == NO_I32:\n    {f} = None\n"),
    "kind": ("B", "", "KIND_CODES[{v}]", "", "{f} = vote_kind({f})\n"),
    "str": ("H", "{f} = {v}.encode()", "len({f})", "out.append({f})", _READ_STR),
    "?str": ("H", "{f} = optional_text({v})", "NO_STR if {f} is None else len({f})",
             "if {f} is not None:\n    out.append({f})",
             "if {f} == NO_STR:\n    {f} = None\nelse:\n" + _indent(_READ_STR)),
    "bytes": ("I", "", "len({v})", "out.append({v})", _READ),
    "mask": ("H", "{f} = mask_bytes({v})", "len({f})", "out.append({f})",
             "if {f} > MAX_MASK_BYTES:\n"
             "    raise WireError('voter mask of %d bytes names ids above %d' "
             "% ({f}, MAX_VOTER_ID))\n" + _READ + "{f} = from_bytes({f}, 'big')\n"),
    # One tagged object of the classes whose tags are ``{f}_tags`` ...
    "object": ("", "", "", "encode_obj({v}, out, {f}_tags)",
               "{f}, pos = decode_obj(data, pos, end, ids, {f}_tags)\n"),
    # ... which, where it may be absent, usually is ...
    "?object": ("", "", "", "encode_obj({v}, out, {f}_tags)",
                "if pos < end and not data[pos]:\n    {f} = None\n    pos += 1\nelse:\n"
                "    {f}, pos = decode_obj(data, pos, end, ids, {f}_tags)\n"),
    # ... a counted run of them ...
    "objects": ("H", "", "len({v})",
                "for element in {v}:\n    encode_obj(element, out, {f}_tags)",
                _SEQUENCE.format(decode="decode_obj(data, pos, end, ids, {f}_tags)")),
    # ... and a counted run of untagged records.
    "records": ("H", "", "len({v})",
                "for element in {v}:\n    {f}_encode(element, out)",
                _SEQUENCE.format(decode="{f}_decode(data, pos, end, ids)")),
}

_HELPERS = {
    "WireError": WireError, "KIND_CODES": _VOTE_KIND_CODES, "vote_kind": _vote_kind,
    "optional": _optional, "optional_text": _optional_text, "mask_bytes": _mask_bytes,
    "intern": _intern, "from_bytes": int.from_bytes,
    "NO_STR": _NO_STR, "NO_I32": _NO_I32, "NO_U64": _NO_U64,
    "MAX_MASK_BYTES": _MAX_MASK_BYTES, "MAX_VOTER_ID": MAX_VOTER_ID,
}


def _compile(tag: Optional[int], cls: type, fields: tuple) -> Tuple[Callable, Callable]:
    """The ``encode(obj, out)`` and ``decode(data, pos, end, ids)`` of one row.

    Generated from the row's fields the way :mod:`dataclasses` generates
    ``__init__``: straight-line code around one ``pack`` / ``unpack_from``,
    the same for every class, so the table is the only place a class's
    layout is written down.
    """
    scope = dict(_HELPERS, cls=cls, encode_obj=_encode_obj, decode_obj=_decode_obj,
                 restore=_restore, VOTE_CLASSES=_VOTE_CLASSES)
    codes, ready, slots, follow, finish = "", "", [], "", ""
    for index, (name, kind) in enumerate(fields):
        if isinstance(kind, list):  # a sequence: of records, or of tagged objects
            if kind[0][0] is None:
                scope[name + "_encode"], scope[name + "_decode"] = _compile(*kind[0])
                kind = "records"
            else:
                kind, scope[name + "_tags"] = "objects", _tags(kind[0])
        elif isinstance(kind, tuple):
            kind, scope[name + "_tags"] = ("?object" if _OPTIONAL in kind else "object",
                                           _tags(kind))
        code, before, slot, after, decoded = _KINDS[kind]
        names = {"f": name, "cls": cls.__name__,
                 "v": f"obj[{index}]" if cls is tuple else f"obj.{name}"}
        codes += code
        if code:
            slots.append((name, slot.format(**names)))
        ready += _indent(before.format(**names))
        follow += _indent(after.format(**names))
        finish += _indent(decoded.format(**names))
    header = struct.Struct(">" + ("" if tag is None else "B") + codes)
    scope.update(pack=header.pack, unpack=struct.Struct(">" + codes).unpack_from)
    packed = ", ".join(([str(tag)] if tag is not None else []) + [slot for _, slot in slots])
    state = ", ".join(f"{name!r}: {name}" for name, _ in fields)
    built = ("(" + ", ".join(name for name, _ in fields) + ")" if cls is tuple
             else f"restore({'VOTE_CLASSES[kind]' if cls is Vote else 'cls'}, {{{state}}})")
    source = (
        f"def encode(obj, out):\n{ready}    out.append(pack({packed}))\n{follow}\n"
        f"def decode(data, pos, end, ids):\n"
        f"    stop = pos + {header.size - (tag is not None)}\n"
        f"    if stop > end:\n"
        f"        raise WireError('truncated {cls.__name__}')\n"
        f"    {''.join(name + ', ' for name, _ in slots)} = unpack(data, pos)\n"
        f"    pos = stop\n{finish}    return {built}, pos\n")
    # The source is built from this module's table alone.
    exec(compile(source, f"<wire codec of {cls.__name__}>", "exec"), scope)
    return scope["encode"], scope["decode"]


def _tags(classes: tuple) -> frozenset:
    """The tags a field of ``classes`` admits (0 = none, where optional)."""
    return frozenset(
        0 if cls is _OPTIONAL else tag for cls in classes
        for tag, other, _ in _TABLE if cls is _OPTIONAL or issubclass(other, cls))


def _encode_obj(obj: Any, out: List[bytes], admitted: Optional[frozenset] = None) -> None:
    """Append one tagged object (the format's recursive unit) to ``out``."""
    if obj is None:
        tag, encode = 0, None
    else:
        codec = _BY_CLASS.get(obj.__class__)
        if codec is None:
            # A Certificate subclass the format does not know (e.g. a
            # test-only variant) must fail loudly, not travel as its base.
            codec = next((codec for cls, codec in _BY_CLASS.items()
                          if isinstance(obj, cls) and not isinstance(obj, Certificate)), None)
            if codec is None:
                raise WireError(f"cannot encode object of type {type(obj).__name__}")
        tag, encode = codec
    if admitted is not None and tag not in admitted:
        raise WireError(f"a {type(obj).__name__} does not belong in this field")
    if encode is None:
        out.append(b"\x00")
    else:
        encode(obj, out)


def _decode_obj(data: bytes, pos: int, end: int, ids: Dict[bytes, str],
                admitted: frozenset) -> Tuple[Any, int]:
    """Decode the tagged object at ``data[pos:end]`` if its tag is one of
    ``admitted``; returns it and the position after it."""
    if pos >= end:
        raise WireError("truncated payload")
    tag = data[pos]
    if tag not in admitted:
        raise WireError(f"unexpected wire tag {tag:#x}")
    if tag == 0:
        return None, pos + 1
    return _BY_TAG[tag](data, pos + 1, end, ids)


_BY_CLASS: Dict[type, Tuple[int, Callable]] = {}
_BY_TAG: Dict[int, Callable] = {}
for _tag, _cls, _fields in _TABLE:
    _encode, _BY_TAG[_tag] = _compile(_tag, _cls, _fields)
    _BY_CLASS[_cls] = (_tag, _encode)
_BY_CLASS.update((cls, _BY_CLASS[Vote]) for cls in _VOTE_CLASSES.values())
_ANY_TAG = frozenset(_BY_TAG) | {0}


def _encoded(sender: Optional[int], obj: Any, framed: bool) -> bytes:
    out: List[bytes] = [b""]
    try:
        if sender is not None:
            out.append(_SENDER.pack(sender))
        _encode_obj(obj, out)
    except (struct.error, OverflowError) as exc:
        raise WireError(f"value outside its wire field's domain: {exc}") from exc
    if framed:
        length = sum(map(len, out))
        if length > MAX_FRAME_BYTES:
            raise WireError(f"frame payload of {length} bytes exceeds the "
                            f"{MAX_FRAME_BYTES}-byte limit")
        out[0] = _FRAME_HEADER.pack(WIRE_MAGIC, WIRE_VERSION, length)
    return b"".join(out)


def _decoded(data: bytes, pos: int, end: int, ids: Dict[bytes, str]) -> Any:
    obj, pos = _decode_obj(data, pos, end, ids, _ANY_TAG)
    if pos != end:
        raise WireError(f"{end - pos} trailing byte(s) after payload")
    return obj


# --------------------------------------------------------------------- #
# Public API
# --------------------------------------------------------------------- #


def encode_payload(obj: Any) -> bytes:
    """Encode a single object (no sender, no frame header)."""
    return _encoded(None, obj, framed=False)


def decode_payload(data: bytes) -> Any:
    """Decode a single object; trailing bytes raise :class:`WireError`."""
    data = bytes(data)
    return _decoded(data, 0, len(data), {})


def encode_envelope(sender: int, message: Any) -> bytes:
    """Encode ``(sender, message)`` — the payload of one frame."""
    return _encoded(sender, message, framed=False)


def decode_envelope(data: bytes, pos: int = 0, end: Optional[int] = None,
                    ids: Optional[Dict[bytes, str]] = None) -> Tuple[int, Any]:
    """Decode one envelope payload back into ``(sender, message)``.

    ``pos`` / ``end`` delimit the envelope inside a larger ``bytes`` buffer
    (the frame decoder reads frames in place) and ``ids`` is the caller's
    table of interned id strings.
    """
    if end is None:
        data = bytes(data)
        end = len(data)
    if pos + _SENDER.size > end:
        raise WireError("truncated envelope")
    sender, = _SENDER.unpack_from(data, pos)
    return sender, _decoded(data, pos + _SENDER.size, end, {} if ids is None else ids)


def encode_frame(sender: int, message: Any) -> bytes:
    """Encode ``(sender, message)`` as one self-delimiting wire frame."""
    return _encoded(sender, message, framed=True)


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
        self._ids: Dict[bytes, str] = {}

    @property
    def buffered_bytes(self) -> int:
        """Bytes waiting for the rest of their frame."""
        return len(self._buffer)

    @staticmethod
    def _frame_end(data, pos: int) -> int:
        """Where the frame whose header starts at ``pos`` ends."""
        magic, version, length = _FRAME_HEADER.unpack_from(data, pos)
        if magic != WIRE_MAGIC:
            raise WireError(f"bad frame magic {magic:#x}")
        if version != WIRE_VERSION:
            raise WireError(f"unsupported wire version {version}")
        if length > MAX_FRAME_BYTES:
            raise WireError(f"frame length {length} exceeds the "
                            f"{MAX_FRAME_BYTES}-byte limit")
        return pos + FRAME_HEADER_SIZE + length

    def feed(self, data: bytes) -> Iterator[Tuple[int, Any]]:
        """Add ``data`` to the stream and yield every completed envelope.

        Frames are decoded in place out of ``data``; only the bytes of an
        incomplete frame are kept, and copied once it completes.
        """
        pending = self._buffer
        if pending:
            pending += data
            if (len(pending) < FRAME_HEADER_SIZE
                    or len(pending) < self._frame_end(pending, 0)):
                return
            data = bytes(pending)
            pending.clear()
        elif not isinstance(data, bytes):
            data = bytes(data)
        pos, size = 0, len(data)
        try:
            while size - pos >= FRAME_HEADER_SIZE:
                end = self._frame_end(data, pos)
                if end > size:
                    break
                start, pos = pos + FRAME_HEADER_SIZE, end
                yield decode_envelope(data, start, end, self._ids)
        finally:
            pending += data[pos:]  # also if the consumer stops early
