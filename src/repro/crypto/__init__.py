"""Hashing substrate.

The Banyan protocol relies on a public-key infrastructure, secure digital
signatures, collision-resistant hashing, and BLS multi-signature aggregation
(Section 3 of the paper).  Of these, only hashing is computed here:

* :mod:`repro.crypto.hashing` — collision-resistant hashing of protocol
  objects (SHA-256 over a canonical encoding); block ids are its digests.

Votes and certificates carry no signatures: a vote names its voter and a
certificate its voters' bitmask, and the protocols need nothing more than
attributable votes that combine into certificates.  The *cost* of signing
and of verifying shares and aggregates is charged by the ``crypto`` compute
model (:mod:`repro.runtime.compute`).  The README documents the
substitution (Design notes, "Substitutions").
"""

from repro.crypto.hashing import digest, hash_hex

__all__ = ["digest", "hash_hex"]
