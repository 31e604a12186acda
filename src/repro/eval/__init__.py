"""Evaluation harness: plans, the sweep runner, scenarios, Table 1.

* :mod:`repro.eval.experiment` — a single experiment run: protocol +
  topology + workload → :class:`repro.smr.metrics.RunMetrics`.  Its
  :class:`ExperimentConfig` is also one plan cell: picklable,
  JSON-serialisable and content-hashed.
* :mod:`repro.eval.plan` — :class:`ExperimentPlan`, an ordered list of
  configs, with deterministic per-replication sub-seeds.
* :mod:`repro.eval.runner` — the engine executing any plan serially or in
  parallel, with a per-cell JSON result cache and progress callbacks.
* :mod:`repro.eval.table1` — the analytic protocol-comparison table
  (Table 1 of the paper).
* :mod:`repro.eval.scenarios` — one plan builder per evaluation figure
  (6a–6e) plus the ablations and workload scenarios, and
  :func:`run_figure`, which runs a plan into the series the paper plots,
  with mean ± 95% CI columns when replicated.
"""

from repro.eval.experiment import (
    ExperimentConfig,
    ExperimentResult,
    run_experiment,
    sweep_payload_sizes,
)
from repro.eval.plan import ExperimentPlan, derive_subseed, payload_sweep_plan
from repro.eval.runner import ProgressEvent, run_plan
from repro.eval.scenarios import (
    PLAN_BUILDERS,
    FigureResult,
    figure_from_plan,
    plan_flash_crowd,
    plan_saturation_sweep,
    plan_scale_sweep,
    run_figure,
)
from repro.eval.table1 import TABLE1_SPECS, ProtocolSpec, table1_rows

__all__ = [
    "ExperimentConfig",
    "ExperimentPlan",
    "ExperimentResult",
    "FigureResult",
    "PLAN_BUILDERS",
    "ProgressEvent",
    "ProtocolSpec",
    "TABLE1_SPECS",
    "derive_subseed",
    "figure_from_plan",
    "payload_sweep_plan",
    "plan_flash_crowd",
    "plan_saturation_sweep",
    "plan_scale_sweep",
    "run_experiment",
    "run_figure",
    "run_plan",
    "sweep_payload_sizes",
    "table1_rows",
]
