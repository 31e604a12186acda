"""End-to-end perf ledger: six real workloads with per-layer attribution.

``python -m benchmarks.e2e`` runs the ledger (see ``README.md`` here);
``python3 benchmarks/e2e/run.py`` is the one-workload entry point named by
the root ``BENCHMARK.json``.  Nothing in this package is imported by
``src/`` — every layer is measured from outside, through public entry
points.
"""
