"""Simulated cryptographic substrate.

The Banyan protocol relies on a public-key infrastructure, secure digital
signatures, collision-resistant hashing, and BLS multi-signature aggregation
(Section 3 of the paper).  This package provides functional, deterministic
stand-ins for those primitives:

* :mod:`repro.crypto.hashing` — collision-resistant hashing of protocol
  objects (SHA-256 over a canonical encoding).
* :mod:`repro.crypto.keys` — key pairs and a :class:`KeyRegistry` acting as
  the PKI.
* :mod:`repro.crypto.signatures` — per-replica signatures (HMAC-SHA256 over
  the message digest keyed by the private key) and verification against the
  registry.
* :mod:`repro.crypto.aggregate` — aggregate ("BLS-like") multi-signatures:
  a container of individual signature shares that verifies each share and
  tracks the signer set, mirroring how the paper combines notarization /
  fast / finalization votes into certificates.  Verification is memoized
  per registry and :func:`repro.crypto.aggregate.verify_many` batches
  repeated certificate checks.

The substitution, and what the protocols leave unchecked, is documented in
the README (Design notes, "Substitutions"): the protocol only needs
unforgeable, attributable votes and the ability to combine them; the exact
pairing-based construction is irrelevant to the reproduced behaviour.
"""

from repro.crypto.aggregate import AggregateSignature, AggregationError, verify_many
from repro.crypto.hashing import digest, hash_hex
from repro.crypto.keys import KeyPair, KeyRegistry, generate_keypair
from repro.crypto.signatures import Signature, SignatureError, sign, verify

__all__ = [
    "AggregateSignature",
    "AggregationError",
    "KeyPair",
    "KeyRegistry",
    "Signature",
    "SignatureError",
    "digest",
    "generate_keypair",
    "hash_hex",
    "sign",
    "verify",
    "verify_many",
]
