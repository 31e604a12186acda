"""Byzantine and faulty replica behaviours.

The paper's safety analysis (Section 8) is about Byzantine voters: the fast
quorum ``n - p`` and the bound ``n >= 3f + 2p - 1``.  Plant these through
``overrides`` of :func:`repro.protocols.registry.create_replicas`:

* :class:`SilentReplica` — never sends anything (an always-crashed replica);
* :class:`TwinReplica` — Twins: two honest instances under one identity,
  each talking to one side of a split, so it equivocates in any protocol;
* :class:`DelayedReplica` — an honest replica whose sends are late.

:func:`byzantine_factory` maps a chaos schedule's byzantine fault
(``silent``, or ``twins`` with its split) to the factory to plant, and
:func:`ensure_protocol_registered` registers the test-only ``-broken``
variants on demand; the chaos engine and the cluster nodes share both.
"""

from repro.byzantine.behaviors import (
    DelayedReplica,
    SilentReplica,
    TwinReplica,
    byzantine_factory,
    ensure_protocol_registered,
)

__all__ = [
    "DelayedReplica",
    "SilentReplica",
    "TwinReplica",
    "byzantine_factory",
    "ensure_protocol_registered",
]
