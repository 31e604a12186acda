"""Commit records: one block output by one replica.

Every runtime that drives protocol replicas — the simulator, the asyncio
runtime, a cluster's harvested commit logs — reports a commit as a
:class:`CommitRecord`, and every consumer (metrics, invariant checks, the
client workload) reads that one type.  It lives here, beside
:class:`repro.types.blocks.Block`, so the consumers do not import a runtime.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.types.blocks import Block


@dataclass(frozen=True)
class CommitRecord:
    """A block committed (finalized and output) by a replica.

    Attributes:
        replica_id: the committing replica.
        block: the finalized block.
        commit_time: simulation time of the commit.
        finalization_kind: ``"fast"`` or ``"slow"``.
    """

    replica_id: int
    block: Block
    commit_time: float
    finalization_kind: str
