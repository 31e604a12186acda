"""Collision-resistant hashing over protocol objects.

Protocol messages and blocks are plain dataclasses / tuples / primitives.
To hash them deterministically we define a small canonical encoding and run
SHA-256 over it.  The encoding is intentionally simple and explicit rather
than relying on ``pickle`` (whose output is not stable across interpreter
versions) or ``repr``.

:func:`canonical_encode` is the specification.  :func:`digest` and
:func:`hash_hex` feed the same bytes to SHA-256 piece by piece instead of
building them, so hashing a block reads its payload once and copies nothing.
A payload that renders its bytes on demand (a type defining ``__bytes__``,
such as :class:`repro.workload.transactions.TxBatch`) is encoded exactly as
those bytes, so it hashes as the payload it stands for; one that also
offers ``view()`` is hashed from that buffer in place, without the copy
``bytes()`` makes.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields, is_dataclass
from typing import Any, Callable

_SEPARATOR = b"\x1f"
_LIST_OPEN = b"\x02"
_LIST_CLOSE = b"\x03"
_NONE = b"\x00N"


def canonical_encode(value: Any) -> bytes:
    """Encode ``value`` into a canonical byte string.

    Supported value types are the ones protocol objects are built from:
    ``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes``, tuples,
    lists, frozensets/sets (sorted by their encoding), dicts (sorted by
    encoded key), dataclasses (encoded as their field name/value pairs), and
    any other value whose type defines ``__bytes__`` (encoded as
    ``bytes(value)``, the same as that ``bytes`` object).

    Raises:
        TypeError: if the value contains an unsupported type.
    """
    if value is None:
        return _NONE
    if isinstance(value, bool):
        return b"b1" if value else b"b0"
    if isinstance(value, int):
        return b"i" + str(value).encode("ascii")
    if isinstance(value, float):
        return b"f" + repr(value).encode("ascii")
    if isinstance(value, str):
        return b"s" + value.encode("utf-8")
    if isinstance(value, (bytes, bytearray)):
        return b"y" + bytes(value)
    if is_dataclass(value) and not isinstance(value, type):
        parts = [b"d" + type(value).__name__.encode("utf-8")]
        for field in fields(value):
            parts.append(
                field.name.encode("utf-8")
                + _SEPARATOR
                + canonical_encode(getattr(value, field.name))
            )
        return _LIST_OPEN + _SEPARATOR.join(parts) + _LIST_CLOSE
    if isinstance(value, (tuple, list)):
        encoded_items = [canonical_encode(item) for item in value]
        return _LIST_OPEN + b"t" + _SEPARATOR.join(encoded_items) + _LIST_CLOSE
    if isinstance(value, (set, frozenset)):
        encoded_items = sorted(canonical_encode(item) for item in value)
        return _LIST_OPEN + b"e" + _SEPARATOR.join(encoded_items) + _LIST_CLOSE
    if isinstance(value, dict):
        encoded_items = sorted(
            canonical_encode(key) + _SEPARATOR + canonical_encode(val)
            for key, val in value.items()
        )
        return _LIST_OPEN + b"m" + _SEPARATOR.join(encoded_items) + _LIST_CLOSE
    if hasattr(type(value), "__bytes__"):
        return b"y" + bytes(value)
    raise TypeError(f"cannot canonically encode value of type {type(value)!r}")


def _feed(value: Any, update: Callable[[bytes], None]) -> None:
    """Pass :func:`canonical_encode` of ``value`` to ``update`` in pieces.

    Bytes, sequences and dataclasses are streamed, the type checks in the
    specification's order; scalars, sets and dicts (whose items are sorted
    by their encodings) are small and passed as their whole encoding, and a
    value rendering ``__bytes__`` passes its ``view()`` — a buffer read in
    place and not kept — if it has one, else its bytes.
    """
    if isinstance(value, (bytes, bytearray)):
        update(b"y")
        update(value)
    elif value is None or isinstance(value, (int, float, str)):
        update(canonical_encode(value))
    elif is_dataclass(value) and not isinstance(value, type):
        update(_LIST_OPEN + b"d" + type(value).__name__.encode("utf-8"))
        for field in fields(value):
            update(_SEPARATOR + field.name.encode("utf-8") + _SEPARATOR)
            _feed(getattr(value, field.name), update)
        update(_LIST_CLOSE)
    elif isinstance(value, (tuple, list)):
        update(_LIST_OPEN + b"t")
        for index, item in enumerate(value):
            if index:
                update(_SEPARATOR)
            _feed(item, update)
        update(_LIST_CLOSE)
    elif hasattr(type(value), "__bytes__"):
        view = getattr(value, "view", None)
        update(b"y")
        update(bytes(value) if view is None else view())
    else:
        update(canonical_encode(value))


def _sha256_of(value: Any) -> "hashlib._Hash":
    sha = hashlib.sha256()
    _feed(value, sha.update)
    return sha


def digest(value: Any) -> bytes:
    """Return the 32-byte SHA-256 digest of the canonical encoding of ``value``."""
    return _sha256_of(value).digest()


def hash_hex(value: Any) -> str:
    """Return the hex SHA-256 digest of the canonical encoding of ``value``,
    streamed into the hash (a bytes payload is read in place, not copied)."""
    return _sha256_of(value).hexdigest()
