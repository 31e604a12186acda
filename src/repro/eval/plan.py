"""Declarative experiment plans: *what* to run, separated from *how*.

An :class:`ExperimentPlan` is an ordered list of
:class:`repro.eval.experiment.ExperimentConfig` cells plus presentation
metadata.  A config is picklable and JSON-serialisable as long as it names
its topology (or gives a catalogue placement) and carries no latency-model
override, and its ``series`` / ``cell`` / ``replication`` / ``axis`` fields
place its result in a figure.  The paper's figures are plan builders
(:mod:`repro.eval.scenarios`), and a single engine executes any plan
serially or in parallel with caching (:mod:`repro.eval.runner`).

Two properties make the split work:

* **content hashing** — :meth:`ExperimentConfig.content_hash` is a stable
  digest (:func:`repro.eval.seeds.canonical_hash`) of the config's
  canonical JSON form, so the runner can cache results on disk and skip
  cells that already ran, across processes and invocations;
* **sub-seed derivation** — :func:`repro.eval.seeds.derive_subseed`
  deterministically expands a base seed into independent per-replication,
  per-component seeds, so network jitter and workload arrivals are
  uncorrelated across replications while every run stays reproducible.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.eval.experiment import ExperimentConfig
# The plan's hashing and seeding vocabulary, defined in a leaf module so the
# chaos engine and the experiment config can share it without this one.
from repro.eval.seeds import PLAN_FORMAT, canonical_hash, derive_subseed  # noqa: F401


@dataclass
class ExperimentPlan:
    """An ordered collection of experiment configs plus figure metadata.

    The config order is the result order: the runner returns one
    :class:`repro.eval.experiment.ExperimentResult` per config, in plan order,
    regardless of how many worker processes executed them.

    Attributes:
        name: plan identifier (e.g. ``"6a"``).
        title: human-readable description.
        specs: the experiment cells, replications expanded.
        columns: report columns; ``None`` selects the figure default.
        replications: replications per cell (bookkeeping for rendering).
    """

    name: str
    title: str
    specs: List[ExperimentConfig] = field(default_factory=list)
    columns: Optional[List[str]] = None
    replications: int = 1

    def __len__(self) -> int:
        return len(self.specs)

    def with_replications(self, replications: int) -> "ExperimentPlan":
        """A copy of the plan with every cell fanned out over sub-seeds.

        Replications of one cell stay adjacent in the plan order, so results
        group naturally and a partially cached plan re-runs contiguous gaps.
        """
        specs: List[ExperimentConfig] = []
        for config in self.specs:
            specs.extend(config.replicated(replications))
        return ExperimentPlan(
            name=self.name,
            title=self.title,
            specs=specs,
            columns=list(self.columns) if self.columns is not None else None,
            replications=replications,
        )

    def cells(self) -> List[Tuple[str, str]]:
        """Distinct ``(series, cell)`` pairs in first-occurrence order."""
        seen: List[Tuple[str, str]] = []
        for config in self.specs:
            key = (config.resolved_series(), config.cell)
            if key not in seen:
                seen.append(key)
        return seen

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready dictionary (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "title": self.title,
            "specs": [config.to_dict() for config in self.specs],
            "columns": list(self.columns) if self.columns is not None else None,
            "replications": self.replications,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        columns = data.get("columns")
        return cls(
            name=str(data["name"]),
            title=str(data["title"]),
            specs=[ExperimentConfig.from_dict(config) for config in data.get("specs", [])],
            columns=list(columns) if columns is not None else None,
            replications=int(data.get("replications", 1)),
        )


def payload_sweep_plan(base: ExperimentConfig, payload_sizes: Sequence[int],
                       name: str = "payload-sweep",
                       title: str = "payload-size sweep") -> ExperimentPlan:
    """Build a plan varying ``base`` over payload sizes (one cell per size)."""
    specs = [
        dataclasses.replace(
            base,
            params=dataclasses.replace(base.params, payload_size=size),
            cell=f"payload={size}",
        )
        for size in payload_sizes
    ]
    return ExperimentPlan(name=name, title=title, specs=specs)
