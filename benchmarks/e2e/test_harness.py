"""Harness checks for the e2e benchmark (``pytest benchmarks``; not tier-1).

The benchmark's own contract: the layer map is total, every name agrees
between ``BENCHMARK.json`` and the code, a ``--quick`` pass emits every
declared metric with no failed operation, the pinned headline outputs have
the shape the workloads were chosen for, and the driver entry point fails
cleanly where there is no program to measure.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import harness, spec, trace

ROOT = harness.ROOT
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
#: The end-to-end metrics ``BENCHMARK.json`` bounds: those of every workload.
BOUNDED = {m.name for m in spec.E2E_METRICS if m.workloads is None}


def _benchmark_json():
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


# ---------------------------------------------------------------------- #
# Layer map
# ---------------------------------------------------------------------- #


def test_layer_map_is_total():
    """Every src/repro/**/*.py resolves to exactly one known layer."""
    files = list(trace.source_files())
    assert files, "src/repro not found"
    for relative in files:
        assert trace.layer_of_source(relative) in spec.LAYERS, relative


def test_layer_map_has_no_stale_entries():
    files = set(trace.source_files())
    assert set(trace.FILE_LAYERS) <= files
    for directory in trace.DIR_LAYERS:
        assert any(path.startswith(directory + "/") for path in files), directory
    # A directory rule and a file rule never both decide one file's layer
    # differently by accident: file rules only exist outside ruled directories.
    for relative in trace.FILE_LAYERS:
        assert relative.split("/", 1)[0] not in trace.DIR_LAYERS, relative


def test_unmapped_module_is_an_error():
    with pytest.raises(KeyError):
        trace.layer_of_source("newpackage/module.py")
    with pytest.raises(KeyError):
        trace.layer_of_source("runtime/brand_new.py")


# ---------------------------------------------------------------------- #
# Names: BENCHMARK.json and the code agree
# ---------------------------------------------------------------------- #


def test_names_are_well_formed_and_unique():
    names = (list(spec.WORKLOADS) + [m.name for m in spec.E2E_METRICS]
             + [m.name for m in spec.PER_LAYER_METRICS])
    for name in names:
        assert NAME.match(name), name
    assert len(names) == len(set(names))
    assert len(spec.E2E_METRICS) == 11
    assert len(spec.PER_LAYER_METRICS) == 109


def test_benchmark_json_matches_spec():
    doc = _benchmark_json()
    assert doc == spec.benchmark_json()
    assert doc["paths"] == ["benchmarks/e2e"]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in doc["workloads"])
    # Bounded: exactly the end-to-end metrics every workload reports.
    assert {m["name"] for m in doc["end_to_end"]} == BOUNDED
    # All eleven are named, the other seven without a bound.
    named = {m["name"] for m in doc["end_to_end"] + doc["per_layer"]}
    assert {m.name for m in spec.E2E_METRICS + spec.PER_LAYER_METRICS} == named
    every = ([w["name"] for w in doc["workloads"]]
             + [m["name"] for m in doc["end_to_end"] + doc["per_layer"]])
    assert len(every) == len(set(every))
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in doc["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
    assert all(unit.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert 1 <= len(doc["per_layer"]) <= 128
    assert 1 <= doc["run_seconds"] // spec.CHILD_SECONDS


# ---------------------------------------------------------------------- #
# A quick pass emits everything
# ---------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def quick_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "--quick", "--traced",
         "--out", str(out)],
        cwd=str(ROOT), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        timeout=600, check=False,
    )
    assert done.returncode == 0, done.stdout.decode("utf-8", "replace")
    with open(out, "r", encoding="utf-8") as handle:
        return json.load(handle), done.stdout.decode("utf-8", "replace")


def test_quick_pass_emits_every_declared_metric(quick_results):
    results, printed = quick_results
    assert set(results["workloads"]) == set(spec.WORKLOADS)
    for workload, summary in results["workloads"].items():
        assert summary["ops_attempted"] >= 1, workload
        assert summary["ops_failed"] == 0, (workload, summary["failures"])
        expected = {m.name for m in spec.E2E_METRICS if m.applies_to(workload)}
        assert set(summary["e2e"]) == expected, workload
        # What BENCHMARK.json bounds comes from every workload and is never 0.
        assert BOUNDED <= expected
        assert all(summary["e2e"][name]["median"] > 0 for name in BOUNDED)
        for name in expected:
            assert name in printed
        layer_names = {m.name for m in spec.layer_metrics() + spec.BOUNDARY_METRICS}
        assert set(summary["per_layer"]) == layer_names, workload
        total = sum(summary["per_layer"][f"layer.{layer}.self_s"]
                    for layer in spec.LAYERS)
        assert total == pytest.approx(summary["per_layer"]["trace.wall_s"], rel=0.02)
    assert set(results["calls"]) == {m.name for m in spec.CALL_METRICS}
    assert all(value > 0 for value in results["calls"].values())


def test_fingerprint_is_recorded(quick_results):
    results, _ = quick_results
    fingerprint = results["fingerprint"]
    assert {"python", "numpy", "nproc", "backends", "k", "seed",
            "git_commit"} <= set(fingerprint)
    assert set(fingerprint["backends"]) == set(spec.WORKLOADS)
    assert fingerprint["backends"]["cluster_tcp4"] == "asyncio"


def test_workloads_stress_different_layers(quick_results):
    results, _ = quick_results

    def share(workload, *layers):
        table = results["workloads"][workload]["per_layer"]
        return sum(table[f"layer.{layer}.share"] for layer in layers)

    protocol_stack = ("protocol", "quorum", "fastpath", "blocktree")
    assert share("banyan_wan64", *protocol_stack) >= 0.60
    assert share("banyan_slowpath64", *protocol_stack) >= 0.60
    assert share("flood_wan256", *protocol_stack) <= 0.02
    assert share("flood_wan256", "scheduler", "dispatch", "simulator",
                 "latency", "transport") >= 0.85
    assert share("crypto_contended32", "dispatch", "compute", "simulator",
                 "transport") >= 0.35
    assert share("clients_open4", "workload", "metrics") >= 0.40
    assert share("cluster_tcp4", "wire", "cluster") >= 0.40
    crypto = results["workloads"]["crypto_contended32"]["per_layer"]
    assert crypto["dispatch.sweeps"] == 0  # compute charging suppresses fusion


# ---------------------------------------------------------------------- #
# Pinned outputs have the shape the workloads were chosen for
# ---------------------------------------------------------------------- #


def test_pinned_outputs():
    expected = harness.load_expected()
    assert expected["seed"] == 1
    assert set(expected["workloads"]) == set(spec.SIMULATOR_WORKLOADS)
    sim = {name: pins["sim"] for name, pins in expected["workloads"].items()}
    assert sim["banyan_wan64"]["sim_fast_path_ratio"] > 0.8
    assert sim["banyan_slowpath64"]["sim_fast_path_ratio"] == 0.0
    for name in spec.PROTOCOL_SIM_WORKLOADS:
        assert set(sim[name]) == {
            m.name for m in spec.E2E_METRICS
            if m.bound == spec.EXACT and m.applies_to(name)}


def test_pin_mismatch_is_a_failed_operation():
    expected = harness.load_expected()
    pins = expected["workloads"]["banyan_wan64"]
    run = {"workload": "banyan_wan64", "seed": 1, "quick": False,
           "digest": pins["digest"], "sim": dict(pins["sim"]),
           "counts": {"messages_delivered": pins["messages_delivered"]},
           "failures": [], "ops_attempted": 1, "ops_failed": 0}
    assert harness.checked(dict(run), expected, "banyan_wan64")["ops_failed"] == 0
    moved = dict(run, digest="0" * 64)
    assert harness.checked(moved, expected, "banyan_wan64")["ops_failed"] == 1
    other_seed = dict(run, digest="0" * 64, seed=2)
    assert harness.checked(other_seed, expected, "banyan_wan64")["ops_failed"] == 0


def test_heap_and_calendar_backends_agree_on_the_headline_run():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from benchmarks.e2e import workloads
    from repro.eval.experiment import run_experiment

    digests = {}
    for backend in ("heap", "calendar"):
        config = workloads._experiment_config(
            "banyan_wan64", 1, workloads.QUICK["banyan_wan64"])
        config.scheduler = backend
        captured = {}
        run_experiment(config, on_simulation=lambda sim: captured.update(sim=sim))
        assert captured["sim"].scheduler_stats()["backend"] == backend
        digests[backend] = workloads._commit_digest(captured["sim"].all_commits())
    assert digests["heap"] == digests["calendar"]


# ---------------------------------------------------------------------- #
# compare
# ---------------------------------------------------------------------- #


def _result_set(values, backend="heap", numpy="2.0"):
    return {
        "fingerprint": {"python": "CPython 3.11.7", "numpy": numpy,
                        "backends": {"flood_wan256": backend}},
        "workloads": {"flood_wan256": {"e2e": {
            "deliveries_per_wall_s": dict(spec.summarize(values), values=values),
        }}},
    }


def test_compare_verdicts():
    base = _result_set([100.0, 101.0, 99.0, 100.0, 100.5])
    same = _result_set([99.0, 100.0, 100.0, 101.0, 99.5])
    slower = _result_set([80.0, 81.0, 79.0, 80.0, 80.5])
    noisy = _result_set([60.0, 100.0, 140.0, 80.0, 120.0])
    assert [row["verdict"] for row in harness.compare(base, same)] == ["ok"]
    assert [row["verdict"] for row in harness.compare(base, slower)] == ["outside-bound"]
    assert [row["verdict"] for row in harness.compare(slower, base)] == ["ok"]
    assert [row["verdict"] for row in harness.compare(
        slower, base, symmetric=True)] == ["outside-bound"]
    assert [row["verdict"] for row in harness.compare(base, noisy)] == ["unresolved"]


def test_compare_refuses_different_fingerprints():
    base = _result_set([100.0, 101.0])
    with pytest.raises(harness.FingerprintMismatch):
        harness.compare(base, _result_set([100.0, 101.0], backend="calendar"))
    with pytest.raises(harness.FingerprintMismatch):
        harness.compare(base, _result_set([100.0, 101.0], numpy="absent"))


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, percentile, count = spec.tail([float(i) for i in range(1000)])
    assert (value, count) == (989.0, 1000)
    assert percentile == pytest.approx(99.0)
    # Too few samples for a tail: floored at the median.
    assert spec.tail([1.0, 2.0, 3.0, 4.0])[0] == 3.0
    assert spec.tail([])[2] == 0


# ---------------------------------------------------------------------- #
# The driver entry point
# ---------------------------------------------------------------------- #


def test_driver_fails_cleanly_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's own files: non-zero exit, no
    result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "benchmarks" / "e2e", tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "banyan_wan64",
         "--seed", "1", "--seconds", "2", "--trace", "0"],
        cwd=str(tmp_path), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        timeout=120, check=False, env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert done.stdout.strip() == b""
