"""Beacons producing the per-round leader permutation.

A beacon maps a round number to a permutation of replica ids; the replica at
position 0 is the round's leader, and the position of a replica is its *rank*
(Section 4: "the permutation defines a different rank r ∈ [0, n−1] for each
replica").
"""

from __future__ import annotations

import hashlib
import random
from abc import ABC, abstractmethod
from typing import Dict, List, Sequence


class Beacon(ABC):
    """Deterministic source of per-round leader permutations."""

    def __init__(self, replica_ids: Sequence[int]) -> None:
        if len(set(replica_ids)) != len(replica_ids):
            raise ValueError("replica ids must be unique")
        if not replica_ids:
            raise ValueError("at least one replica is required")
        self._replica_ids: List[int] = list(replica_ids)

    @property
    def replica_ids(self) -> List[int]:
        """The replica ids the beacon permutes."""
        return list(self._replica_ids)

    @property
    def n(self) -> int:
        """Number of replicas."""
        return len(self._replica_ids)

    @abstractmethod
    def permutation(self, round: int) -> List[int]:
        """Return the ordered permutation of replica ids for ``round``."""

    def leader(self, round: int) -> int:
        """Return the rank-0 replica of ``round``."""
        return self.permutation(round)[0]

    def rank(self, round: int, replica_id: int) -> int:
        """Return the rank of ``replica_id`` in ``round``.

        Raises:
            ValueError: if the replica is not part of the beacon's set.
        """
        permutation = self.permutation(round)
        try:
            return permutation.index(replica_id)
        except ValueError as exc:
            raise ValueError(f"replica {replica_id} not known to the beacon") from exc

    def ranks(self, round: int) -> Dict[int, int]:
        """Return the full replica-id → rank mapping for ``round``."""
        return {replica_id: rank for rank, replica_id in enumerate(self.permutation(round))}


class RoundRobinBeacon(Beacon):
    """Round-robin leader rotation, as used in the paper's evaluation.

    In round ``k`` the leader is the replica at index ``k mod n`` of the
    (sorted) replica list, and ranks continue cyclically from the leader.
    Round 0 is the genesis round and is never proposed in, but the mapping is
    defined for it anyway.
    """

    def __init__(self, replica_ids: Sequence[int]) -> None:
        super().__init__(replica_ids)
        self._position = {rid: index for index, rid in enumerate(self._replica_ids)}

    def permutation(self, round: int) -> List[int]:
        """Return the rotation of the replica list starting at ``round mod n``."""
        offset = round % self.n
        return self._replica_ids[offset:] + self._replica_ids[:offset]

    def rank(self, round: int, replica_id: int) -> int:
        """Rank by arithmetic on the rotation (checked per received proposal)."""
        position = self._position.get(replica_id)
        if position is None:
            raise ValueError(f"replica {replica_id} not known to the beacon")
        return (position - round) % len(self._replica_ids)


class SeededPermutationBeacon(Beacon):
    """Pseudo-random permutation per round, derived from a shared seed.

    Models the "safe and live random beacon" the paper assumes: every replica
    derives the same permutation because the seed is shared, and the
    permutation is unpredictable without the seed.
    """

    def __init__(self, replica_ids: Sequence[int], seed: int = 0) -> None:
        super().__init__(replica_ids)
        self._seed = seed

    def permutation(self, round: int) -> List[int]:
        """Return the seeded pseudo-random permutation for ``round``."""
        material = f"{self._seed}:{round}".encode("utf-8")
        round_seed = int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
        rng = random.Random(round_seed)
        permutation = list(self._replica_ids)
        rng.shuffle(permutation)
        return permutation
