"""Per-layer attribution of a ``cProfile`` run, from outside ``src/``.

The traced run wraps ``Simulation.run`` (or the gathered ``ClusterNode.run``s)
in ``cProfile``.  Every profiled function is a span with caller edges:

* a function defined in a file this repository owns is charged, self time
  and call count, to the layer that owns the file (:func:`layer_of_source`);
* a *foreign* function — C builtin, stdlib, numpy, dataclass-generated
  ``<string>`` code — is charged to the layers of its direct callers in
  proportion to the caller-edge self times, resolved transitively
  when the caller is itself foreign; what cannot be resolved goes to
  ``other``.

Boundary counts are call counts of the named public functions, taken at
the layer boundary (calls arriving from another layer), so a wrapper and
the method it forwards to inside one layer count once.
"""

from __future__ import annotations

import asyncio
import functools
import os
import selectors
import socket
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from benchmarks.e2e.spec import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC_REPRO = ROOT / "src" / "repro"

#: Layer of each directory of ``src/repro`` (files not listed one by one).
DIR_LAYERS: Dict[str, str] = {
    "protocols": "protocol",
    "beacon": "protocol",
    "byzantine": "protocol",
    "blocktree": "blocktree",
    "types": "blocktree",
    "crypto": "crypto",
    "workload": "workload",
    "analysis": "metrics",
    "eval": "other",
    "chaos": "other",
}

#: Layer of each file that its directory does not decide.
FILE_LAYERS: Dict[str, str] = {
    "__init__.py": "other",
    "cli.py": "other",
    "runtime/__init__.py": "simulator",
    "runtime/scheduler.py": "scheduler",
    "runtime/dispatch.py": "dispatch",
    "runtime/simulator.py": "simulator",
    "runtime/context.py": "simulator",
    "runtime/trace.py": "simulator",
    "runtime/compute.py": "compute",
    "runtime/asyncio_runtime.py": "cluster",
    "net/__init__.py": "transport",
    "net/transport.py": "transport",
    "net/bandwidth.py": "transport",
    "net/faults.py": "transport",
    "net/latency.py": "latency",
    "net/topology.py": "latency",
    "core/__init__.py": "protocol",
    "core/banyan.py": "protocol",
    "core/adaptive.py": "protocol",
    "core/fastpath.py": "fastpath",
    "smr/__init__.py": "blocktree",
    "smr/ledger.py": "blocktree",
    "smr/quorum.py": "quorum",
    "smr/mempool.py": "workload",
    "smr/metrics.py": "metrics",
    "cluster/__init__.py": "cluster",
    "cluster/wire.py": "wire",
    "cluster/node.py": "cluster",
    "cluster/tcp_transport.py": "cluster",
    "cluster/harness.py": "cluster",
    "cluster/faults.py": "cluster",
}

#: Filename prefix of the exec-compiled event loops of ``runtime/dispatch.py``.
_DISPATCH_LOOP_PREFIX = "<dispatch-loop"

#: The event loop is the cluster runtime's scheduler, as
#: ``runtime/scheduler.py`` is the simulator's: stdlib frames under these
#: paths are owned by ``cluster`` rather than split among callers.
_CLUSTER_STDLIB = (
    os.path.dirname(asyncio.__file__) + os.sep,
    selectors.__file__,
    socket.__file__,
)

#: Frames of the benchmark's own flood protocol: a protocol handler that
#: lives outside ``src/``, so its time is ``other`` but its calls still
#: cross the dispatch → handler boundary.
_FLOOD_SOURCE = str(HERE / "flood.py")


def layer_of_source(relative: str) -> str:
    """Layer owning ``src/repro/<relative>``.

    Raises:
        KeyError: if no rule covers the file — a new module must be added
            to the map, it cannot fall into ``other`` unnoticed.
    """
    layer = FILE_LAYERS.get(relative)
    if layer is not None:
        return layer
    top = relative.split("/", 1)[0]
    if "/" in relative and top in DIR_LAYERS:
        return DIR_LAYERS[top]
    raise KeyError(f"src/repro/{relative} is not in the layer map")


@functools.lru_cache(maxsize=None)
def owner_layer(filename: str) -> Optional[str]:
    """Layer owning a profiled function's file; ``None`` for foreign code."""
    if filename.startswith(_DISPATCH_LOOP_PREFIX):
        return "dispatch"
    if filename.startswith(str(SRC_REPRO) + os.sep):
        relative = os.path.relpath(filename, SRC_REPRO).replace(os.sep, "/")
        return layer_of_source(relative)
    if filename.startswith(str(HERE) + os.sep):
        return "other"
    if filename.startswith(_CLUSTER_STDLIB[0]) or filename in _CLUSTER_STDLIB[1:]:
        return "cluster"
    return None


# ---------------------------------------------------------------------- #
# Spans
# ---------------------------------------------------------------------- #


@dataclass
class Span:
    """One profiled function: where it lives, how often it ran, its self
    time, and per direct caller ``key → [calls, self seconds]``."""

    filename: str
    name: str
    calls: int = 0
    self_s: float = 0.0
    callers: Dict[object, List[float]] = field(default_factory=dict)


def spans_of(profiler) -> Dict[object, Span]:
    """The spans of a finished ``cProfile.Profile``, keyed by code object.

    Read from ``getstats()`` rather than ``pstats``: pstats keys functions
    by ``(file, line, name)``, so the dataclass-generated ``__init__`` /
    ``__eq__`` / ``__hash__`` of different classes — all ``<string>:2`` —
    overwrite one another and their time disappears from the total.
    """
    spans: Dict[object, Span] = {}

    def span(code) -> Span:
        found = spans.get(code)
        if found is None:
            if isinstance(code, str):  # a C builtin
                found = Span("~", code)
            else:
                found = Span(code.co_filename, code.co_name)
            spans[code] = found
        return found

    for entry in profiler.getstats():
        caller = span(entry.code)
        caller.calls += entry.callcount
        caller.self_s += entry.inlinetime
        for sub in entry.calls or ():
            edge = span(sub.code).callers.setdefault(entry.code, [0, 0.0])
            edge[0] += sub.callcount
            edge[1] += sub.inlinetime
    return spans


# ---------------------------------------------------------------------- #
# Self time and calls per layer
# ---------------------------------------------------------------------- #


def attribute(spans: Dict[object, Span]) -> Dict[str, Dict[str, float]]:
    """Charge every span's self time and calls to a layer.

    Returns ``layer → {"self_s", "calls"}`` over all of :data:`LAYERS`;
    the self times sum to the profile's total time.
    """
    shares: Dict[object, Dict[str, float]] = {}
    resolving = set()

    def share_of(key) -> Dict[str, float]:
        known = shares.get(key)
        if known is not None:
            return known
        owner = owner_layer(spans[key].filename)
        if owner is not None:
            result = {owner: 1.0}
        elif key in resolving:
            return {"other": 1.0}  # call cycle among foreign frames
        else:
            resolving.add(key)
            callers = spans[key].callers
            weights = {caller: edge[1] for caller, edge in callers.items()}
            if sum(weights.values()) <= 0.0:
                weights = {caller: float(edge[0]) for caller, edge in callers.items()}
            total = sum(weights.values())
            result = {}
            for caller, weight in weights.items():
                for layer, part in share_of(caller).items():
                    result[layer] = result.get(layer, 0.0) + part * weight / total
            if not result:
                result = {"other": 1.0}  # called from no profiled frame
            resolving.discard(key)
        shares[key] = result
        return result

    layers = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for key, span in spans.items():
        owner = owner_layer(span.filename)
        if owner is not None:
            layers[owner]["calls"] += span.calls
        for layer, part in share_of(key).items():
            layers[layer]["self_s"] += span.self_s * part
    return layers


# ---------------------------------------------------------------------- #
# Boundary counts
# ---------------------------------------------------------------------- #

#: count name → (callee layer, callee function names).  A call counts when
#: it arrives from a frame of another layer.
_BOUNDARY_CALLS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "protocol.on_message_calls": ("protocol", ("on_message",)),
    "protocol.on_messages_calls": ("protocol", ("on_messages",)),
    "protocol.on_timer_calls": ("protocol", ("on_timer",)),
    "quorum.tracker_calls": ("quorum", ("tracker",)),
    "quorum.add_vote_calls": ("quorum", ("add_vote", "add_votes", "add_voters")),
    "fastpath.evaluate_unlocks_calls": ("fastpath", ("evaluate_unlocks",)),
    "fastpath.record_vote_calls": (
        "fastpath", ("record_fast_vote", "merge_fast_votes")),
    "transport.broadcast_calls": ("transport", (
        "broadcast", "broadcast_times", "broadcast_arrival_row",
        "broadcast_arrival_array")),
    "transport.unicast_calls": ("transport", ("unicast",)),
    "latency.row_calls": ("latency", (
        "delay_row", "delay_row_array", "nominal_row", "nominal_row_array",
        "expected_row")),
    "latency.scalar_calls": ("latency", ("delay", "expected_delay")),
    "scheduler.push_calls": ("scheduler", ("push", "requeue_front")),
    "scheduler.pop_calls": ("scheduler", ("pop",)),
    "scheduler.spill_calls": ("scheduler", ("spill",)),
    "wire.encode_calls": ("wire", ("encode_frame", "encode_envelope",
                                   "encode_payload")),
}

#: Counted whoever calls: socket frames reach ``decode_envelope`` through
#: the ``FrameDecoder.feed`` generator, itself a wire-layer frame (and one
#: that cProfile enters once per resumption, not once per frame).
_INNER_CALLS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "wire.decode_calls": ("wire", ("decode_envelope", "decode_payload")),
}

#: ``heapq`` builtins issued by the event loop's own frames: the heap
#: backend pushes and pops through them, bypassing the scheduler object.
_LOOP_LAYERS = ("scheduler", "dispatch", "simulator")
_HEAP_OPS = {
    "<built-in method _heapq.heappush>": ("scheduler.push_calls",),
    "<built-in method _heapq.heappop>": ("scheduler.pop_calls",),
    "<built-in method _heapq.heappushpop>": (
        "scheduler.push_calls", "scheduler.pop_calls"),
    "<built-in method _heapq.heapreplace>": (
        "scheduler.push_calls", "scheduler.pop_calls"),
}


def _boundary_layer(filename: str) -> Optional[str]:
    """:func:`owner_layer`, except that the flood workload's handlers sit
    on the protocol side of the dispatch → handler boundary."""
    return "protocol" if filename == _FLOOD_SOURCE else owner_layer(filename)


def boundary_calls(spans: Dict[object, Span]) -> Dict[str, int]:
    """Calls of the named public functions that cross into their layer."""
    counts = {name: 0 for name in (*_BOUNDARY_CALLS, *_INNER_CALLS)}
    for span in spans.values():
        for count_name in _HEAP_OPS.get(span.name, ()) if span.filename == "~" else ():
            counts[count_name] += sum(
                edge[0] for caller, edge in span.callers.items()
                if owner_layer(spans[caller].filename) in _LOOP_LAYERS
            )
        layer = _boundary_layer(span.filename)
        for count_name, (callee_layer, names) in _BOUNDARY_CALLS.items():
            if layer == callee_layer and span.name in names:
                counts[count_name] += sum(
                    edge[0] for caller, edge in span.callers.items()
                    if _boundary_layer(spans[caller].filename) != layer
                )
        for count_name, (callee_layer, names) in _INNER_CALLS.items():
            if layer == callee_layer and span.name in names:
                counts[count_name] += span.calls
    return counts


# ---------------------------------------------------------------------- #
# The per-layer metric set of one traced run
# ---------------------------------------------------------------------- #


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(traced: Dict[str, object],
                      untraced_wall_s: float) -> Dict[str, float]:
    """Every layer and boundary metric of one traced child result.

    Args:
        traced: the child's result dictionary (``--mode traced``).
        untraced_wall_s: median wall of the untraced runs of the same
            workload — the base of ``trace.overhead_ratio``.
    """
    layers: Dict[str, Dict[str, float]] = traced["layers"]
    calls: Dict[str, int] = traced["boundary_calls"]
    snapshots: Dict[str, Dict[str, float]] = traced["snapshots"]
    counts: Dict[str, float] = traced["counts"]
    total_self = sum(layer["self_s"] for layer in layers.values())

    out: Dict[str, float] = {}
    for name in LAYERS:
        out[f"layer.{name}.self_s"] = layers[name]["self_s"]
        out[f"layer.{name}.share"] = _ratio(layers[name]["self_s"], total_self)
        out[f"layer.{name}.calls"] = layers[name]["calls"]
    out.update(calls)

    dispatch = snapshots.get("dispatch_counts", {})
    for key in ("sweeps", "swept_messages", "runahead_members"):
        out[f"dispatch.{key}"] = dispatch.get(key, 0)
    events = snapshots.get("event_counts", {})
    for key in ("message", "mbatch", "sbatch", "timer", "external"):
        out[f"events.{key}"] = events.get(key, 0)
    out["events.batch_factor"] = _ratio(
        events.get("mbatch_members", 0) + events.get("sbatch_members", 0),
        events.get("mbatch", 0) + events.get("sbatch", 0),
    )
    for key in ("messages_sent", "messages_delivered", "messages_dropped",
                "bytes_sent"):
        out[f"net.{key}"] = counts.get(key, 0)
    compute = snapshots.get("compute", {})
    out["compute.busy_frac_max"] = compute.get("busy_frac_max", 0.0)
    out["compute.queue_wait_sim_s"] = compute.get("queue_wait_sim_s", 0.0)
    out["transport.uplink_wait_sim_s"] = snapshots.get(
        "transport_stats", {}).get("queue_delay_total_s", 0.0)
    for key in ("submitted_tx", "committed_tx", "dropped_tx",
                "peak_mempool_depth"):
        out[f"workload.{key}"] = counts.get(key, 0)
    tcp = snapshots.get("tcp", {})
    for key in ("sent_frames", "recv_frames", "sent_bytes",
                "dropped_backpressure", "reconnects"):
        out[f"cluster.{key}"] = tcp.get(key, 0)

    commits = counts.get("commits", 0)
    handler_calls = sum(calls[f"protocol.{hook}_calls"]
                        for hook in ("on_message", "on_messages", "on_timer"))
    out["per_commit.deliveries"] = _ratio(counts.get("messages_delivered", 0), commits)
    out["per_commit.bytes"] = _ratio(counts.get("bytes_sent", 0), commits)
    out["per_commit.handler_calls"] = _ratio(handler_calls, commits)
    out["per_commit.quorum_calls"] = _ratio(
        calls["quorum.tracker_calls"] + calls["quorum.add_vote_calls"], commits)
    out["trace.wall_s"] = traced["region_s"]
    out["trace.overhead_ratio"] = _ratio(traced["wall_s"], untraced_wall_s)
    return out


def source_files() -> Iterable[str]:
    """Every ``src/repro/**/*.py``, relative to ``src/repro``."""
    for path in sorted(SRC_REPRO.rglob("*.py")):
        yield path.relative_to(SRC_REPRO).as_posix()
