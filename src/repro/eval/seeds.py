"""Content hashes and sub-seeds shared by experiment plans and chaos trials.

Both the plan runner and the chaos engine key result caches on
:func:`canonical_hash` and expand a base seed with :func:`derive_subseed`.
This module imports nothing from :mod:`repro`, so a caller that needs a
seed or a hash does not load the experiment layer (and with it the
simulator).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict

#: Version tag mixed into every content hash; bump when the execution
#: semantics change so stale cached results are not reused.
PLAN_FORMAT = 1


def canonical_hash(payload: Dict[str, object]) -> str:
    """Stable hex digest of a JSON-ready payload's canonical form.

    The payload is serialised with sorted keys and minimal separators, so
    two semantically equal payloads digest identically across processes and
    platforms.  Both experiment configs and chaos trial specs key their
    result caches on this.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def derive_subseed(base_seed: int, replication: int, component: str) -> int:
    """Derive an independent sub-seed for one replication of one component.

    The derivation hashes ``base_seed : replication : component`` with
    SHA-256, so distinct replications and distinct components (for example
    ``"net"`` jitter versus ``"workload"`` arrivals) receive uncorrelated
    seeds, while the mapping is stable across processes and platforms.

    Replication 0 returns ``base_seed`` unchanged: a single-replication plan
    reproduces exactly the run a plain :func:`repro.eval.experiment.run_experiment`
    call with the base seed would produce.
    """
    if replication == 0:
        return base_seed
    digest = hashlib.sha256(
        f"{base_seed}:{replication}:{component}".encode("utf-8")
    ).hexdigest()
    return int(digest[:12], 16)
