"""Deliberately broken protocol variants — the chaos engine's crash dummies.

These exist *only* to prove the chaos pipeline end to end: a protocol with a
real (planted) safety bug must make ``run_chaos`` report violations and
shrink the failure to a minimal schedule.  They are registered on demand
(``<base>-broken`` names) and must never be used outside tests, examples,
and chaos self-checks.
"""

from __future__ import annotations

from repro.core.banyan import BanyanReplica
from repro.protocols.icc import ICCReplica
from repro.protocols.registry import available_protocols, register_protocol


class BrokenQuorumICC(ICCReplica):
    """ICC with an unsound notarization/finalization quorum.

    The quorum is lowered to ``⌊n/2⌋`` — below the intersection bound — so
    two disjoint replica groups can each notarize and finalize their own
    block for the same round.  Fault-free runs usually survive (the rank-0
    leader is unique and honest), but a partition that splits the replicas
    into two proposer-bearing halves lets both sides finalize conflicting
    chains: exactly the class of bug the agreement invariant exists to
    catch, and a failure that shrinking should reduce to the one partition
    window that triggers it.
    """

    name = "icc-broken"

    @property
    def notarization_quorum(self) -> int:
        return max(1, self.params.n // 2)

    @property
    def finalization_quorum(self) -> int:
        return max(1, self.params.n // 2)


class BrokenFastQuorumBanyan(BanyanReplica):
    """Banyan with a fast quorum one below ``n - p``.

    The paper proves the fast path safe with ``n - p`` fast votes (Section
    8, with ``n >= 3f + 2p - 1``); one vote fewer lets a block be
    FP-finalized on one side of an equivocating replica while the other
    side finalizes a conflicting block of the same round.  A Twins replica
    (:class:`repro.byzantine.TwinReplica`) splitting the others reaches it
    at n=4 without any partition.
    """

    name = "banyan-broken"

    def __init__(self, replica_id, params, beacon=None, payload_source=None) -> None:
        super().__init__(replica_id, params, beacon, payload_source)
        # Read once at construction (a property override is not consulted).
        self._fast_quorum = max(1, params.fast_quorum - 1)


#: The planted variants, by registered name.
BROKEN_PROTOCOLS = {
    "icc-broken": BrokenQuorumICC,
    "banyan-broken": BrokenFastQuorumBanyan,
}


def register_broken_protocols() -> None:
    """Register the broken variants (idempotent; called on demand)."""
    registered = available_protocols()
    for name, factory in BROKEN_PROTOCOLS.items():
        if name not in registered:
            register_protocol(name, factory)
