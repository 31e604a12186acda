"""Evaluation harness: plans, the sweep runner, scenarios, Table 1.

* :mod:`repro.eval.experiment` — a single experiment run: protocol +
  topology + workload → :class:`repro.smr.metrics.RunMetrics`.  Its
  :class:`ExperimentConfig` is also one plan cell: picklable,
  JSON-serialisable and content-hashed.
* :mod:`repro.eval.plan` — :class:`ExperimentPlan`, an ordered list of
  configs, with deterministic per-replication sub-seeds.
* :mod:`repro.eval.seeds` — the content hash and sub-seed derivation that
  plans and chaos trials share; it imports nothing from :mod:`repro`.
* :mod:`repro.eval.runner` — the engine executing any plan serially or in
  parallel, with a per-cell JSON result cache and progress callbacks.
* :mod:`repro.eval.table1` — the analytic protocol-comparison table
  (Table 1 of the paper).
* :mod:`repro.eval.scenarios` — one plan builder per evaluation figure
  (6a–6e) plus the ablations and workload scenarios, and
  :func:`run_figure`, which runs a plan into the series the paper plots,
  with mean ± 95% CI columns when replicated.

This ``__init__`` imports nothing: import names from the submodules above.
"""
