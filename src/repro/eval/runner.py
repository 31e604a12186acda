"""Plan execution: serial or process-parallel, with a JSON result cache.

``run_plan`` is the single engine behind every figure, ablation, and sweep:
it takes an :class:`repro.eval.plan.ExperimentPlan` (or a bare list of
configs) and returns one :class:`repro.eval.experiment.ExperimentResult` per
config **in plan order**, regardless of execution order.  Three orthogonal
features:

* **parallelism** — ``jobs=N`` fans uncached cells out over a
  :class:`concurrent.futures.ProcessPoolExecutor`; each simulation is
  deterministic given its config, so parallel results are byte-identical to
  serial ones;
* **caching** — with a ``cache_dir``, each finished cell is written to
  ``<cache_dir>/<content_hash>.json`` (atomically) and re-running a plan
  skips every completed cell, making sweep invocations resumable;
* **progress** — an optional callback receives a :class:`ProgressEvent`
  per completed cell (cached or executed), for CLI progress lines.

The engine is deliberately duck-typed over its cell/result types: a cell
needs ``to_dict()`` and ``content_hash()`` (plus ``resolved_label``,
``cell``, ``replication`` for progress lines), and the ``execute`` /
``decode`` hooks translate between cell dictionaries and result objects.
The defaults run :class:`repro.eval.experiment.ExperimentConfig` cells; the
chaos engine (:mod:`repro.chaos.engine`) reuses the same parallelism,
caching, and ordering for its fault-schedule trials by passing its own
hooks.
"""

from __future__ import annotations

import json
import os
import tempfile
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.eval.experiment import ExperimentConfig, ExperimentResult, run_experiment
from repro.eval.plan import ExperimentPlan

#: Signature of the progress callback accepted by :func:`run_plan`.
ProgressCallback = Callable[["ProgressEvent"], None]


@dataclass(frozen=True)
class ProgressEvent:
    """One completed cell, reported to the progress callback.

    Attributes:
        completed: cells finished so far (cached + executed).
        total: total cells in the plan.
        spec: the cell that just finished (an :class:`ExperimentConfig`,
            or a chaos trial spec).
        cached: whether the result came from the cache.
    """

    completed: int
    total: int
    spec: ExperimentConfig
    cached: bool


def _execute_serialized(config_data: Dict[str, object]) -> Dict[str, object]:
    """Worker entry point: dict in, dict out, so only JSON-ready data crosses
    the process boundary and every parallel result passes through the same
    serialisation layer the cache uses."""
    return run_experiment(ExperimentConfig.from_dict(config_data)).to_dict()


def cache_path(cache_dir: str, spec) -> str:
    """The cache file that holds (or would hold) the cell's result."""
    return os.path.join(cache_dir, f"{spec.content_hash()}.json")


def _cache_load(cache_dir: str, spec, decode):
    """Load a cached result; ``None`` on miss or an unreadable/corrupt file."""
    path = cache_path(cache_dir, spec)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        return decode(data)
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _cache_store(cache_dir: str, spec, data: Dict[str, object]) -> None:
    """Atomically write a result record (temp file + rename), best-effort."""
    path = cache_path(cache_dir, spec)
    try:
        os.makedirs(cache_dir, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            "w", encoding="utf-8", dir=cache_dir, suffix=".tmp", delete=False
        )
        with handle:
            json.dump(data, handle)
        os.replace(handle.name, path)
    except OSError:
        # A read-only or full cache directory degrades to uncached operation.
        pass


def run_plan(
    plan: Union[ExperimentPlan, Sequence[ExperimentConfig]],
    jobs: int = 1,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    progress: Optional[ProgressCallback] = None,
    execute: Optional[Callable[[Dict[str, object]], Dict[str, object]]] = None,
    decode: Optional[Callable[[Dict[str, object]], object]] = None,
) -> List[ExperimentResult]:
    """Execute every cell of ``plan`` and return results in plan order.

    Args:
        plan: an :class:`ExperimentPlan` or a plain config sequence.
        jobs: worker processes; 1 executes in-process (no pool).
        cache_dir: directory of per-cell JSON result files; ``None``
            disables caching entirely.
        use_cache: when False, cached results are ignored (they are still
            rewritten after execution, refreshing the cache).
        progress: optional per-cell completion callback.
        execute: worker entry point — a picklable, module-level callable
            taking a cell dictionary and returning a result dictionary.
            Defaults to running the cell as an experiment.  Custom cell
            types (e.g. chaos trials) supply their own.
        decode: rebuilds a result object from a result dictionary (cache
            hits and worker returns both pass through it).  Defaults to
            :meth:`ExperimentResult.from_dict`.

    Returns:
        One result object per cell, ordered like the plan — identical for
        any ``jobs`` value.
    """
    specs = list(plan.specs if isinstance(plan, ExperimentPlan) else plan)
    if jobs < 1:
        raise ValueError("jobs must be positive")
    if execute is None:
        execute = _execute_serialized
    if decode is None:
        decode = ExperimentResult.from_dict
    total = len(specs)
    results: List[Optional[object]] = [None] * total
    completed = 0

    def report(index: int, cached: bool) -> None:
        if progress is not None:
            progress(ProgressEvent(
                completed=completed, total=total, spec=specs[index], cached=cached,
            ))

    pending: List[int] = []
    for index, spec in enumerate(specs):
        cached = None
        if cache_dir is not None and use_cache:
            cached = _cache_load(cache_dir, spec, decode)
        if cached is not None:
            results[index] = cached
            completed += 1
            report(index, cached=True)
        else:
            pending.append(index)

    def finish(index: int, data: Dict[str, object]) -> None:
        nonlocal completed
        if cache_dir is not None:
            _cache_store(cache_dir, specs[index], data)
        results[index] = decode(data)
        completed += 1
        report(index, cached=False)

    if jobs == 1 or len(pending) <= 1:
        for index in pending:
            finish(index, execute(specs[index].to_dict()))
    else:
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            futures = {
                pool.submit(execute, specs[index].to_dict()): index
                for index in pending
            }
            outstanding = set(futures)
            while outstanding:
                done, outstanding = wait(outstanding, return_when=FIRST_COMPLETED)
                for future in done:
                    finish(futures[future], future.result())

    return [result for result in results if result is not None]
