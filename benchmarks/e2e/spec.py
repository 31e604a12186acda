"""Names, units, directions and bounds of everything the benchmark reports.

Pure data: importing this module imports nothing of ``repro``, so the
parent process that spawns the measured children stays light and
``test_harness.py`` can hold ``BENCHMARK.json`` to these tables.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

#: Workload name → the one-line reason it is in the benchmark.
WORKLOADS: Dict[str, str] = {
    "banyan_wan64": (
        "Headline run: banyan n=64 on the WAN matrix; protocol handler, quorum, "
        "fast path and block tree do ~80% of the work, the event loop ~18%."
    ),
    "banyan_slowpath64": (
        "Same run with 13 stragglers (> p), the injected fault: no fast quorum, "
        "every block takes the slow path while evaluate_unlocks still runs per vote."
    ),
    "flood_wan256": (
        "Protocol-free broadcast flood at n=256: only scheduler, dispatch loop, "
        "latency and transport run, so protocol-layer changes predict no change here."
    ),
    "clients_open4": (
        "Open-loop Poisson clients, 20k tx/s into n=4: client pool and mempool "
        "do ~70% of the work, the protocol stack ~7%."
    ),
    "crypto_contended32": (
        "Crypto compute charging plus a contended 100 Mbit/s uplink at n=32: the "
        "scalar per-copy delivery path with sweep fusion off."
    ),
    "cluster_tcp4": (
        "Four real TCP nodes in one process over loopback, closed loop, no injected "
        "delay: wire codec plus asyncio transport dominate, CPU-bound."
    ),
}

#: The five workloads that run on the deterministic simulator.
SIMULATOR_WORKLOADS = tuple(name for name in WORKLOADS if name != "cluster_tcp4")
#: The four simulator workloads that run a consensus protocol.
PROTOCOL_SIM_WORKLOADS = tuple(
    name for name in SIMULATOR_WORKLOADS if name != "flood_wan256"
)

#: Relative bound that stands for "exact" — simulated outputs may not move.
EXACT = 0.001


@dataclass(frozen=True)
class Metric:
    """One reported metric.

    ``bound`` is the share of the baseline median by which the metric may
    worsen before it counts as a regression (``None`` for per-layer
    metrics, which carry no bound).  ``workloads`` lists where an
    end-to-end metric applies (``None`` = everywhere).
    """

    name: str
    unit: str
    better: str
    bound: Optional[float] = None
    workloads: Optional[Tuple[str, ...]] = None

    def applies_to(self, workload: str) -> bool:
        return self.workloads is None or workload in self.workloads


#: The eleven end-to-end metrics.  The four that apply to every workload
#: (``workloads=None``) are ``BENCHMARK.json``'s ``end_to_end`` list: its
#: driver wants each bounded metric from every workload, never 0, and steady
#: across *different* seeds, which rules out the rates that need commits or
#: clients and the exact ``sim_*`` outputs (they move with the seed, and
#: ``sim_fast_path_ratio`` is 0.0 by design on ``banyan_slowpath64``).  Those
#: seven are listed there unbounded; ``correct`` enforces their exactness.
E2E_METRICS: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    # Protocol seconds on the cluster, which runs in real time: ~1 there
    # unless the nodes overrun their shutdown.
    Metric("sim_s_per_wall_s", "sim-s/s", "higher", 0.10),
    Metric("deliveries_per_wall_s", "1/s", "higher", 0.10),
    Metric("commits_per_wall_s", "1/s", "higher", 0.10,
           PROTOCOL_SIM_WORKLOADS + ("cluster_tcp4",)),
    Metric("tx_per_wall_s", "1/s", "higher", 0.10, ("clients_open4",)),
    Metric("peak_rss_mb", "MiB", "lower", 0.05),
    Metric("sim_finalize_p50_ms", "sim-ms", "lower", EXACT, PROTOCOL_SIM_WORKLOADS),
    Metric("sim_finalize_tail_ms", "sim-ms", "lower", EXACT, PROTOCOL_SIM_WORKLOADS),
    Metric("sim_fast_path_ratio", "ratio", "higher", EXACT, PROTOCOL_SIM_WORKLOADS),
    Metric("sim_tx_p50_ms", "sim-ms", "lower", EXACT, ("clients_open4",)),
    Metric("sim_tx_p99_ms", "sim-ms", "lower", EXACT, ("clients_open4",)),
)

#: Layers, named after this repository's modules (see ``trace.py``).
LAYERS: Tuple[str, ...] = (
    "scheduler", "dispatch", "simulator", "compute", "transport", "latency",
    "protocol", "quorum", "fastpath", "blocktree", "crypto", "workload",
    "metrics", "wire", "cluster", "other",
)

#: Boundary counts and waiting times read off the traced run.
BOUNDARY_METRICS: Tuple[Metric, ...] = tuple(
    Metric(name, unit, better) for name, unit, better in (
        ("protocol.on_message_calls", "count", "lower"),
        ("protocol.on_messages_calls", "count", "lower"),
        ("protocol.on_timer_calls", "count", "lower"),
        ("quorum.tracker_calls", "count", "lower"),
        ("quorum.add_vote_calls", "count", "lower"),
        ("fastpath.evaluate_unlocks_calls", "count", "lower"),
        ("fastpath.record_vote_calls", "count", "lower"),
        ("transport.broadcast_calls", "count", "lower"),
        ("transport.unicast_calls", "count", "lower"),
        ("latency.row_calls", "count", "lower"),
        ("latency.scalar_calls", "count", "lower"),
        ("scheduler.push_calls", "count", "lower"),
        ("scheduler.pop_calls", "count", "lower"),
        ("scheduler.spill_calls", "count", "lower"),
        ("dispatch.sweeps", "count", "higher"),
        ("dispatch.swept_messages", "count", "higher"),
        ("dispatch.runahead_members", "count", "higher"),
        ("events.message", "count", "lower"),
        ("events.mbatch", "count", "lower"),
        ("events.sbatch", "count", "lower"),
        ("events.timer", "count", "lower"),
        ("events.external", "count", "lower"),
        ("events.batch_factor", "ratio", "higher"),
        ("net.messages_sent", "count", "lower"),
        ("net.messages_delivered", "count", "lower"),
        ("net.messages_dropped", "count", "lower"),
        ("net.bytes_sent", "bytes", "lower"),
        ("compute.busy_frac_max", "ratio", "lower"),
        ("compute.queue_wait_sim_s", "sim-s", "lower"),
        ("transport.uplink_wait_sim_s", "sim-s", "lower"),
        ("workload.submitted_tx", "count", "higher"),
        ("workload.committed_tx", "count", "higher"),
        ("workload.dropped_tx", "count", "lower"),
        ("workload.peak_mempool_depth", "count", "lower"),
        ("wire.encode_calls", "count", "lower"),
        ("wire.decode_calls", "count", "lower"),
        ("cluster.sent_frames", "count", "lower"),
        ("cluster.recv_frames", "count", "lower"),
        ("cluster.sent_bytes", "bytes", "lower"),
        ("cluster.dropped_backpressure", "count", "lower"),
        ("cluster.reconnects", "count", "lower"),
        ("per_commit.deliveries", "1/commit", "lower"),
        ("per_commit.bytes", "bytes/commit", "lower"),
        ("per_commit.handler_calls", "1/commit", "lower"),
        ("per_commit.quorum_calls", "1/commit", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    )
)

#: Layer-call drivers (``layers.py``): µs per call on fixed inputs.
CALL_METRICS: Tuple[Metric, ...] = tuple(
    Metric(name, "us", "lower") for name in (
        "call.quorum.add_vote_us",
        "call.quorum.tracker_us",
        "call.fastpath.vote_and_evaluate_us",
        "call.transport.direct_broadcast_us_per_copy",
        "call.transport.contended_broadcast_us_per_copy",
        "call.latency.wan_row_us_per_copy",
        "call.scheduler.heap_push_pop_us",
        "call.scheduler.calendar_push_pop_us",
        "call.wire.encode_vote_us",
        "call.wire.decode_vote_us",
        "call.wire.encode_proposal_us",
        "call.wire.decode_proposal_us",
        "call.mempool.add_drain_us_per_tx",
        "call.blocktree.add_block_us",
    )
)


def layer_metrics() -> Tuple[Metric, ...]:
    """``layer.<L>.self_s`` / ``.share`` / ``.calls`` for every layer."""
    out: List[Metric] = []
    for layer in LAYERS:
        out.append(Metric(f"layer.{layer}.self_s", "s", "lower"))
        out.append(Metric(f"layer.{layer}.share", "ratio", "lower"))
        out.append(Metric(f"layer.{layer}.calls", "count", "lower"))
    return tuple(out)


#: The 109 per-layer metrics of the issue, in reporting order.
PER_LAYER_METRICS: Tuple[Metric, ...] = (
    layer_metrics() + BOUNDARY_METRICS + CALL_METRICS
)

#: ``BENCHMARK.json``'s ``run_seconds``, and what one full-size child takes
#: of it, set-up included: ``run.py`` measures ``seconds // CHILD_SECONDS``
#: fresh children (k=2), which is what fits the driver's 136 invocations
#: into its 57 minutes without shortening a run.
RUN_SECONDS = 18
CHILD_SECONDS = 9.0

#: Bound of every metric ``BENCHMARK.json`` bounds — its driver's maximum.
#: The driver compares single medians taken minutes apart, refuses the
#: benchmark when ten seeds spread wider than the bound, and has no
#: ``unresolved`` verdict.  The builder's box drifts in speed by 15-35% over
#: minutes: two ten-seed sweeps of full-size runs, half an hour apart, gave
#: quartile spreads of 3-19% on the rates, and their medians moved by up to
#: 20% (and the closed-loop cluster's RSS, which follows its commit rate, by
#: 13%).  The ledger's 10% / 5% would have the driver refuse the benchmark
#: or a later change at random.  The ledger keeps them: its sets are
#: interleaved run by run, and it can answer ``unresolved``.
DRIVER_BOUND = 0.25


def benchmark_json() -> Dict[str, object]:
    """The ``BENCHMARK.json`` document, built from the tables above."""
    bounded = [m for m in E2E_METRICS if m.workloads is None]
    unbounded = PER_LAYER_METRICS + tuple(
        m for m in E2E_METRICS if m.workloads is not None)
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": DRIVER_BOUND} for m in bounded],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in unbounded],
    }


# ---------------------------------------------------------------------- #
# Statistics shared by the ledger, the driver and ``compare``
# ---------------------------------------------------------------------- #


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for exact data)."""
    q1, _, q3 = quartiles(values)
    median = statistics.median(values)
    return abs(q3 - q1) / abs(median) if median else 0.0


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, sample_count)``.  With fewer than ~22
    samples that percentile would fall below the median, which is no tail
    at all, so it is floored at the median.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if not count:
        return 0.0, 0.0, 0
    index = max(count - 11, count // 2)
    return ordered[index], 100.0 * (index + 1) / count, count


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, min and k of one metric's repetitions."""
    q1, _, q3 = quartiles(values)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "k": len(values),
    }
