"""Byzantine and faulty replica behaviours.

The safety analysis of the paper (Section 8) covers equivocating leaders and
arbitrary misbehaviour.  This package provides misbehaving replica
implementations that can be planted into a replica set (via the ``overrides``
argument of :func:`repro.protocols.registry.create_replicas`) to exercise the
honest replicas' defences in tests:

* :class:`SilentReplica` — never sends anything (an always-crashed replica).
* :class:`EquivocatingLeaderReplica` — proposes two conflicting blocks
  whenever it is the leader.
* :class:`DelayedReplica` — an honest replica whose outbound messages are
  delayed by a fixed amount (a straggler).

:func:`byzantine_factory` maps a chaos schedule's byzantine behaviour to the
factory to plant, and :func:`ensure_protocol_registered` registers the
test-only ``-broken`` protocol variants on demand; the chaos engine and the
cluster nodes share both.
"""

from repro.byzantine.behaviors import (
    DelayedReplica,
    EquivocatingLeaderReplica,
    SilentReplica,
    byzantine_factory,
    ensure_protocol_registered,
    make_equivocating_banyan,
    make_equivocating_icc,
)

__all__ = [
    "DelayedReplica",
    "EquivocatingLeaderReplica",
    "SilentReplica",
    "byzantine_factory",
    "ensure_protocol_registered",
    "make_equivocating_banyan",
    "make_equivocating_icc",
]
