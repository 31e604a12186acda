"""Per-figure scenario presets (Figures 6a–6e) and ablations, as plans.

Each figure of the paper is a ``plan_*`` builder returning the declarative
:class:`repro.eval.plan.ExperimentPlan` — the grid of protocol × payload ×
fault × workload cells, optionally fanned out over ``seeds`` independent
replications.  :func:`run_figure` executes any plan through
:func:`repro.eval.runner.run_plan` (serially or with ``jobs`` worker
processes, optionally cached in ``cache_dir``) and aggregates the
replications into a :class:`FigureResult`, with mean ± 95% CI columns when
more than one replication ran::

    figure = run_figure(plan_figure_6a(duration=10.0, seeds=3), jobs=4)

Durations default to values that keep the full suite runnable on a laptop;
pass ``duration`` / payload sizes explicitly to run longer sweeps.

Protocol line-ups follow Section 9:

* n = 19 experiments compare Banyan (f=6, p=1), Banyan (f=4, p=4), ICC
  (f=6), HotStuff (f=6), and Streamlet (f=6) — n=19 is chosen by the paper
  precisely because it is the bound for both (f=6, p=1) and (f=4, p=4).
* n = 4 experiments compare Banyan (f=1, p=1) with ICC, HotStuff, and
  Streamlet at f=1.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.report import render_series, with_ci_columns
from repro.analysis.stats import ci95_half_width, improvement_pct, mean
from repro.eval.experiment import ExperimentConfig, ExperimentResult
from repro.eval.plan import ExperimentPlan
from repro.eval.runner import ProgressCallback, run_plan
from repro.net.faults import FaultPlan
from repro.protocols.base import ProtocolParams
from repro.workload.spec import WorkloadSpec

#: Per-rank delay (``2Δ``) used for the global-topology experiments; chosen
#: above the largest simulated one-way delay so fault-free rounds have a
#: single proposer, mirroring how the paper sets the proposal/notarization
#: delays "larger than the message delay experienced without disruptions".
GLOBAL_RANK_DELAY = 0.6

#: Per-rank delay for the 4-US-datacenter crash experiment; the paper sets
#: this timeout to 3 seconds (Section 9.4).
CRASH_EXPERIMENT_RANK_DELAY = 3.0

#: Measurement columns that receive a ``<col>_ci95`` half-width column when a
#: figure aggregates more than one replication.  Identity columns (payload
#: size, crash counts, offered rate) deliberately get none.
CI_COLUMNS = (
    "mean_latency_ms", "p95_latency_ms", "latency_stddev_ms",
    "throughput_MBps", "blocks_per_s", "block_interval_ms",
    "fast_path_ratio",
    "tx_p50_ms", "tx_p95_ms", "tx_p99_ms", "goodput_tx_per_s",
)


@dataclass
class FigureResult:
    """Results of one reproduced figure.

    Attributes:
        figure: figure identifier, e.g. ``"6a"``.
        title: human-readable description.
        series: protocol label → list of result rows (dictionaries).  With
            multiple replications, rows are per-cell means and carry
            ``<col>_ci95`` half-width columns.
        results: the underlying experiment results (every replication).
        columns: report columns; ``None`` selects the figure default
            (workload scenarios report client-side columns instead).
        replications: independent replications aggregated into each row.
    """

    figure: str
    title: str
    series: Dict[str, List[Dict[str, object]]]
    results: List[ExperimentResult] = field(default_factory=list)
    columns: Optional[List[str]] = None
    replications: int = 1

    def render(self) -> str:
        """Render the figure's data as a plain-text report."""
        columns = self.columns or [
            "payload_bytes", "mean_latency_ms", "p95_latency_ms",
            "latency_stddev_ms", "throughput_MBps", "block_interval_ms",
            "fast_path_ratio", "committed_blocks"]
        columns = with_ci_columns(columns, self.series)
        title = f"Figure {self.figure}: {self.title}"
        if self.replications > 1:
            title += f" (mean of {self.replications} replications, ±95% CI)"
        return render_series(title, self.series, columns)

    def mean_latency(self, label: str, payload_bytes: Optional[int] = None) -> float:
        """Mean latency (seconds) of a protocol label at a payload size,
        averaged over replications.

        ``payload_bytes=None`` selects the label's first payload size (as a
        single-replication figure would), never a cross-payload average.
        """
        candidates = [result for result in self.results if result.label == label]
        if payload_bytes is None and candidates:
            payload_bytes = candidates[0].config.params.payload_size
        matches = [
            result.metrics.mean_latency
            for result in candidates
            if result.config.params.payload_size == payload_bytes
        ]
        if not matches:
            raise KeyError(f"no result for label {label!r} and payload {payload_bytes!r}")
        return mean(matches)

    def improvement_over(self, baseline_label: str, improved_label: str,
                         payload_bytes: Optional[int] = None) -> float:
        """Latency improvement (%) of ``improved_label`` over ``baseline_label``."""
        return improvement_pct(
            self.mean_latency(baseline_label, payload_bytes),
            self.mean_latency(improved_label, payload_bytes),
        )


# --------------------------------------------------------------------- #
# Aggregation: plan + results → figure
# --------------------------------------------------------------------- #


def _aggregate_rows(rows: List[Dict[str, object]]) -> Dict[str, object]:
    """Collapse one cell's replication rows into a mean row with CI columns.

    A single row passes through unchanged, so ``seeds=1`` output is
    byte-identical to a direct :meth:`ExperimentResult.row`.
    """
    if len(rows) == 1:
        return dict(rows[0])
    aggregated: Dict[str, object] = {}
    for key in rows[0]:
        values = [row[key] for row in rows]
        if all(isinstance(value, (int, float)) and not isinstance(value, bool)
               for value in values):
            centre = mean([float(value) for value in values])
            if all(isinstance(value, int) for value in values) and float(centre).is_integer():
                aggregated[key] = int(centre)
            else:
                aggregated[key] = round(centre, 4)
        else:
            aggregated[key] = values[0]
    for key in CI_COLUMNS:
        if key in rows[0]:
            aggregated[f"{key}_ci95"] = round(
                ci95_half_width([float(row[key]) for row in rows]), 4
            )
    return aggregated


def figure_from_plan(plan: ExperimentPlan,
                     results: Sequence[ExperimentResult]) -> FigureResult:
    """Aggregate a plan's results (in plan order) into a :class:`FigureResult`.

    Replications of one ``(series, cell)`` pair collapse into a single row of
    per-column means plus ``<col>_ci95`` half-width columns; each config's
    ``axis`` metadata becomes extra row columns.
    """
    if len(results) != len(plan.specs):
        raise ValueError(
            f"plan has {len(plan.specs)} specs but {len(results)} results were given"
        )
    cells: Dict[object, List[Dict[str, object]]] = {}
    for config, result in zip(plan.specs, results):
        row = result.row()
        row.update(config.axis)
        cells.setdefault((config.resolved_series(), config.cell), []).append(row)
    series: Dict[str, List[Dict[str, object]]] = {}
    for (series_label, _), rows in cells.items():
        series.setdefault(series_label, []).append(_aggregate_rows(rows))
    return FigureResult(
        figure=plan.name,
        title=plan.title,
        series=series,
        results=list(results),
        columns=plan.columns,
        replications=plan.replications,
    )


def run_figure(plan: ExperimentPlan, jobs: int = 1,
               cache_dir: Optional[str] = None, use_cache: bool = True,
               progress: Optional[ProgressCallback] = None) -> FigureResult:
    """Execute a plan and aggregate it into a :class:`FigureResult`."""
    results = run_plan(plan, jobs=jobs, cache_dir=cache_dir,
                       use_cache=use_cache, progress=progress)
    return figure_from_plan(plan, results)


# --------------------------------------------------------------------- #
# Protocol line-ups
# --------------------------------------------------------------------- #


def _lineup_n19(rank_delay: float, payload_size: int) -> List[Dict[str, object]]:
    """The five protocol configurations the n=19 experiments compare."""
    return [
        {
            "label": "banyan (p=1)",
            "protocol": "banyan",
            "params": ProtocolParams(n=19, f=6, p=1, rank_delay=rank_delay,
                                     payload_size=payload_size),
        },
        {
            "label": "banyan (p=4)",
            "protocol": "banyan",
            "params": ProtocolParams(n=19, f=4, p=4, rank_delay=rank_delay,
                                     payload_size=payload_size),
        },
        {
            "label": "icc",
            "protocol": "icc",
            "params": ProtocolParams(n=19, f=6, p=1, rank_delay=rank_delay,
                                     payload_size=payload_size),
        },
        {
            "label": "hotstuff",
            "protocol": "hotstuff",
            "params": ProtocolParams(n=19, f=6, p=1, rank_delay=rank_delay,
                                     payload_size=payload_size),
        },
        {
            "label": "streamlet",
            "protocol": "streamlet",
            "params": ProtocolParams(n=19, f=6, p=1, rank_delay=rank_delay,
                                     payload_size=payload_size),
        },
    ]


def _lineup_n4(rank_delay: float, payload_size: int) -> List[Dict[str, object]]:
    """The protocol configurations the n=4 experiments compare."""
    return [
        {
            "label": "banyan (p=1)",
            "protocol": "banyan",
            "params": ProtocolParams(n=4, f=1, p=1, rank_delay=rank_delay,
                                     payload_size=payload_size),
        },
        {
            "label": "icc",
            "protocol": "icc",
            "params": ProtocolParams(n=4, f=1, p=1, rank_delay=rank_delay,
                                     payload_size=payload_size),
        },
        {
            "label": "hotstuff",
            "protocol": "hotstuff",
            "params": ProtocolParams(n=4, f=1, p=1, rank_delay=rank_delay,
                                     payload_size=payload_size),
        },
        {
            "label": "streamlet",
            "protocol": "streamlet",
            "params": ProtocolParams(n=4, f=1, p=1, rank_delay=rank_delay,
                                     payload_size=payload_size),
        },
    ]


def _sweep_plan(name: str, title: str, lineup: List[Dict[str, object]],
                topology: str, payload_sizes: Sequence[int],
                duration: float, warmup: float, seed: int, seeds: int,
                faults: Optional[FaultPlan] = None) -> ExperimentPlan:
    """A plan over every (protocol, payload size) cell, fanned out over seeds."""
    specs: List[ExperimentConfig] = []
    for entry in lineup:
        for payload_size in payload_sizes:
            specs.append(ExperimentConfig(
                protocol=entry["protocol"],
                params=dataclasses.replace(entry["params"], payload_size=payload_size),
                topology=topology,
                duration=duration,
                warmup=warmup,
                seed=seed,
                faults=faults or FaultPlan.none(),
                label=entry["label"],
                cell=f"payload={payload_size}",
            ))
    return ExperimentPlan(name=name, title=title, specs=specs).with_replications(seeds)


# --------------------------------------------------------------------- #
# Figures 6a – 6e
# --------------------------------------------------------------------- #


def plan_figure_6a(payload_sizes: Sequence[int] = (100_000, 200_000, 400_000),
                   duration: float = 20.0, warmup: float = 2.0, seed: int = 0,
                   seeds: int = 1) -> ExperimentPlan:
    """Figure 6a: throughput vs. latency, n=19 over 4 global datacenters."""
    lineup = _lineup_n19(GLOBAL_RANK_DELAY, payload_sizes[0])
    return _sweep_plan("6a", "n=19 across 4 global datacenters (5/5/5/4 split)",
                       lineup, "global4", payload_sizes, duration, warmup, seed, seeds)


def plan_figure_6b(payload_sizes: Sequence[int] = (500_000, 1_000_000, 1_500_000),
                   duration: float = 20.0, warmup: float = 2.0, seed: int = 0,
                   seeds: int = 1) -> ExperimentPlan:
    """Figure 6b: throughput vs. latency, n=4, one replica per global datacenter."""
    lineup = _lineup_n4(GLOBAL_RANK_DELAY, payload_sizes[0])
    return _sweep_plan("6b", "n=4, one replica per global datacenter",
                       lineup, "global4", payload_sizes, duration, warmup, seed, seeds)


def plan_figure_6c(payload_size: int = 1_000_000, duration: float = 30.0,
                   warmup: float = 2.0, seed: int = 0, seeds: int = 1) -> ExperimentPlan:
    """Figure 6c: latency distribution of Banyan vs. ICC, n=4, 1 MB payload."""
    lineup = [entry for entry in _lineup_n4(GLOBAL_RANK_DELAY, payload_size)
              if entry["label"] in ("banyan (p=1)", "icc")]
    return _sweep_plan("6c", "latency variance, n=4, 1 MB payload",
                       lineup, "global4", [payload_size], duration, warmup, seed, seeds)


def plan_figure_6d(crash_counts: Sequence[int] = (0, 2, 4, 6),
                   payload_size: int = 100_000, duration: float = 60.0,
                   warmup: float = 2.0, seed: int = 0, seeds: int = 1) -> ExperimentPlan:
    """Figure 6d: crash faults, n=19 over 4 US datacenters, 3 s timeout."""
    lineup = [
        ("banyan (p=1)", "banyan", ProtocolParams(n=19, f=6, p=1,
                                                  rank_delay=CRASH_EXPERIMENT_RANK_DELAY,
                                                  payload_size=payload_size)),
        ("icc", "icc", ProtocolParams(n=19, f=6, p=1,
                                      rank_delay=CRASH_EXPERIMENT_RANK_DELAY,
                                      payload_size=payload_size)),
    ]
    specs: List[ExperimentConfig] = []
    for label, protocol, params in lineup:
        for crashes in crash_counts:
            specs.append(ExperimentConfig(
                protocol=protocol, params=params, topology="us4",
                duration=duration, warmup=warmup, seed=seed,
                faults=FaultPlan.with_crashed(range(crashes)), label=label,
                cell=f"crashes={crashes}", axis={"crashed_replicas": crashes},
            ))
    plan = ExperimentPlan(
        name="6d",
        title="crash faults, n=19 across 4 US datacenters (timeout 3 s)",
        specs=specs,
    )
    return plan.with_replications(seeds)


def plan_figure_6e(payload_sizes: Sequence[int] = (1_000_000,), duration: float = 20.0,
                   warmup: float = 2.0, seed: int = 0, seeds: int = 1) -> ExperimentPlan:
    """Figure 6e: n=19 replicas spread across 19 worldwide datacenters."""
    lineup = _lineup_n19(GLOBAL_RANK_DELAY, payload_sizes[0])
    return _sweep_plan("6e", "n=19 across a worldwide network (19 datacenters)",
                       lineup, "worldwide", payload_sizes, duration, warmup, seed, seeds)


# --------------------------------------------------------------------- #
# Client-workload scenarios (beyond the paper: true end-to-end latency)
# --------------------------------------------------------------------- #

#: Columns reported by the workload scenarios: offered load on the left,
#: client-observed behaviour on the right.
WORKLOAD_COLUMNS = [
    "offered_tx_per_s", "submitted_tx", "committed_tx", "dropped_tx",
    "pending_tx", "tx_p50_ms", "tx_p95_ms", "tx_p99_ms",
    "goodput_tx_per_s", "peak_mempool_depth",
]


def plan_saturation_sweep(rates: Sequence[float] = (10, 30, 60, 120),
                          protocol: str = "banyan", n: int = 4, f: int = 1, p: int = 1,
                          tx_size: int = 512, max_block_bytes: int = 65_536,
                          duration: float = 30.0, seed: int = 0,
                          seeds: int = 1) -> ExperimentPlan:
    """Open-loop Poisson saturation sweep: offered load vs. client latency.

    One cell per arrival rate.  Clients submit fixed-size transactions to
    their local replica's mempool following a Poisson process; proposals
    drain the proposer's mempool up to the block budget.  Below saturation,
    goodput tracks the offered rate and submit→commit latency stays near the
    consensus floor; past saturation, mempools back up and client latency
    grows without bound — the knee is the system's capacity.
    """
    params = ProtocolParams(n=n, f=f, p=p, rank_delay=GLOBAL_RANK_DELAY)
    label = f"{protocol} (n={n}, poisson)"
    specs = [
        ExperimentConfig(
            protocol=protocol, params=params, topology="global4",
            duration=duration, warmup=0.0, seed=seed, label=label,
            workload=WorkloadSpec(
                mode="open", arrival="poisson", rate=float(rate), tx_size=tx_size,
                max_block_bytes=max_block_bytes, seed=seed,
            ),
            cell=f"rate={rate:g}", axis={"offered_tx_per_s": rate},
        )
        for rate in rates
    ]
    plan = ExperimentPlan(
        name="workload-saturation",
        title=f"open-loop Poisson saturation sweep, {protocol} n={n}",
        specs=specs,
        columns=list(WORKLOAD_COLUMNS),
    )
    return plan.with_replications(seeds)


def plan_flash_crowd(base_rate: float = 15.0, burst_rate: float = 250.0,
                     burst_start: float = 8.0, burst_duration: float = 4.0,
                     protocol: str = "banyan", n: int = 4, f: int = 1, p: int = 1,
                     tx_size: int = 512, max_block_bytes: int = 65_536,
                     duration: float = 40.0, seed: int = 0,
                     seeds: int = 1) -> ExperimentPlan:
    """Flash-crowd scenario: a demand spike fills the mempools, then drains.

    A single cell.  Arrivals run at ``base_rate`` except for a burst window
    at ``burst_rate``.  The burst exceeds the per-round block budget, so
    mempool occupancy climbs during the spike and the backlog drains over
    the following rounds — visible in the occupancy samples of the result's
    :class:`repro.smr.metrics.WorkloadMetrics`.
    """
    params = ProtocolParams(n=n, f=f, p=p, rank_delay=GLOBAL_RANK_DELAY)
    label = f"{protocol} (n={n}, flash crowd)"
    config = ExperimentConfig(
        protocol=protocol, params=params, topology="global4",
        duration=duration, warmup=0.0, seed=seed, label=label,
        workload=WorkloadSpec(
            mode="open", arrival="flash-crowd", rate=base_rate,
            burst_rate=burst_rate, burst_start=burst_start,
            burst_duration=burst_duration, tx_size=tx_size,
            max_block_bytes=max_block_bytes, sample_interval=0.5, seed=seed,
        ),
        axis={"offered_tx_per_s": base_rate},
    )
    plan = ExperimentPlan(
        name="workload-flash-crowd",
        title=(f"flash crowd, {protocol} n={n}: {base_rate:g}→{burst_rate:g} tx/s "
               f"during [{burst_start:g}s, {burst_start + burst_duration:g}s)"),
        specs=[config],
        columns=list(WORKLOAD_COLUMNS),
    )
    return plan.with_replications(seeds)


def plan_scale_sweep(replica_counts: Sequence[int] = (64, 128, 256),
                     rate: float = 20_000.0, num_clients: int = 1_000_000,
                     tx_size: int = 256, protocol: str = "banyan",
                     duration: float = 2.0, warmup: float = 0.5,
                     seed: int = 0, seeds: int = 1) -> ExperimentPlan:
    """Datacenter-scale sweep: goodput and latency up to n=256 replicas.

    One cell per replica count, each offering ``rate`` tx/s from
    ``num_clients`` open-loop clients on the worldwide topology under the
    measured inter-region RTT matrix.  ``f = p = (n - 1) // 5`` keeps the
    fast path available at every size (``n >= 3f + 2p + 1``).  Open-loop
    arrivals are admitted lazily into per-replica id queues, so the
    workload's cost follows the offered rate, not the population: a million
    clients at n=256 cost what eight do, and the run time is dominated by
    the protocol's own message complexity.
    """
    specs = [
        ExperimentConfig(
            protocol=protocol,
            params=ProtocolParams(n=n, f=(n - 1) // 5, p=(n - 1) // 5,
                                  rank_delay=GLOBAL_RANK_DELAY),
            topology="worldwide", duration=duration, warmup=warmup,
            seed=seed, label=f"{protocol} (n={n}, {num_clients:,} clients)",
            workload=WorkloadSpec(
                mode="open", arrival="poisson", rate=rate,
                num_clients=num_clients, tx_size=tx_size,
                sample_interval=1.0, seed=seed,
            ),
            latency_model="wan-matrix",
            series=protocol, cell=f"n={n}", axis={"n": n},
        )
        for n in replica_counts
    ]
    return ExperimentPlan(
        name="workload-scale",
        title=f"open-loop workload scale sweep, {protocol} on the WAN matrix",
        specs=specs,
        columns=list(WORKLOAD_COLUMNS),
    ).with_replications(seeds)


# --------------------------------------------------------------------- #
# Transport scenarios (beyond the paper: dissemination strategies)
# --------------------------------------------------------------------- #

#: Columns reported by the uplink-contention figure: scale on the left,
#: fast-path and latency behaviour on the right.
UPLINK_COLUMNS = [
    "n", "mean_latency_ms", "p95_latency_ms", "block_interval_ms",
    "fast_path_ratio", "committed_blocks",
]


def plan_uplink_contention(replica_counts: Sequence[int] = (4, 7, 10, 13, 16, 19),
                           payload_size: int = 200_000, uplink_mbps: float = 50.0,
                           duration: float = 20.0, warmup: float = 2.0,
                           seed: int = 0, seeds: int = 1) -> ExperimentPlan:
    """Plan comparing ideal vs. contended broadcast as n grows (Banyan, p=1).

    One cell per replica count, two series: the default
    :class:`~repro.net.transport.DirectTransport` (every broadcast copy
    departs at the send instant) and the
    :class:`~repro.net.transport.ContendedUplinkTransport` with an
    ``uplink_mbps`` NIC (a proposer's n−1 proposal copies drain
    sequentially).  The gap between the series is the leader fan-out cost
    the ideal model hides; it grows with n.

    Under the ideal transport latency is flat in n (quorum geometry aside).
    With a finite uplink the copies serialize: the last receiver waits
    ``(n−2) · size / uplink`` before its copy even leaves the sender, votes
    arrive staggered, and the fast-path advantage shrinks as n grows — the
    leader-bottleneck effect that separates rotating-leader fast paths from
    single-leader protocols.
    """
    specs: List[ExperimentConfig] = []
    for n in replica_counts:
        # Largest f with 3f + 2p - 1 <= n at p=1, as in the p-sweep ablation.
        f = max(1, (n - 1) // 3)
        params = ProtocolParams(n=n, f=f, p=1, rank_delay=GLOBAL_RANK_DELAY,
                                payload_size=payload_size)
        for label, transport, mbps in (
            ("banyan (ideal uplink)", "direct", None),
            ("banyan (contended uplink)", "contended", uplink_mbps),
        ):
            specs.append(ExperimentConfig(
                protocol="banyan", params=params, topology="global4",
                duration=duration, warmup=warmup, seed=seed, label=label,
                transport=transport, uplink_mbps=mbps,
                cell=f"n={n}", axis={"n": n},
            ))
    plan = ExperimentPlan(
        name="uplink",
        title=(f"leader fan-out under sender-uplink contention "
               f"({uplink_mbps:g} Mbit/s NIC, {payload_size} B proposals)"),
        specs=specs,
        columns=list(UPLINK_COLUMNS),
    )
    return plan.with_replications(seeds)


# --------------------------------------------------------------------- #
# Compute scenarios (beyond the paper: CPU-bound regimes)
# --------------------------------------------------------------------- #

#: Columns reported by the crypto-bound figure: scale on the left, the
#: throughput/latency consequences and the CPU telemetry on the right.
CRYPTO_COLUMNS = [
    "n", "mean_latency_ms", "p95_latency_ms", "blocks_per_s",
    "busy_frac", "cpu_wait_ms", "committed_blocks",
]


def plan_crypto_bound(replica_counts: Sequence[int] = (4, 7, 10, 13, 16, 19),
                      payload_size: int = 100_000, compute_scale: float = 1.0,
                      duration: float = 20.0, warmup: float = 2.0,
                      seed: int = 0, seeds: int = 1) -> ExperimentPlan:
    """Plan comparing free vs. costed replica compute as n grows (Banyan, p=1).

    One cell per replica count, two series: the default
    :class:`~repro.runtime.compute.ZeroCompute` (message handling is free,
    so throughput is purely network-bound) and
    :class:`~repro.runtime.compute.CryptoCostCompute` at ``compute_scale``
    (every delivery charges hash/sign/share-verify/aggregate-verify time on
    the replica's serial core).  Votes arrive all-to-all and certificates
    verify in O(quorum), so per-round CPU work grows ~n² while the
    network-bound round length stays roughly flat — the busy fraction rises
    monotonically with n and the gap between the series is the CPU cost the
    free model hides.

    With free compute the only cost of scale is quorum geometry and wire
    time, so latency and block rate are nearly flat in n.  Charging the
    cryptographic work (share verifications per all-to-all vote, aggregate
    verifications per certificate over ``⌈(n+f+1)/2⌉``- and ``n−p``-sized
    signer sets) saturates the replicas' cores: deliveries queue behind the
    busy core, and throughput flips from network-bound to CPU-bound — the
    WAN throughput ceiling the paper's aggregate-signature discussion is
    about.
    """
    specs: List[ExperimentConfig] = []
    for n in replica_counts:
        # Largest f with 3f + 2p - 1 <= n at p=1, as in the p-sweep ablation.
        f = max(1, (n - 1) // 3)
        params = ProtocolParams(n=n, f=f, p=1, rank_delay=GLOBAL_RANK_DELAY,
                                payload_size=payload_size)
        for label, compute, scale in (
            ("banyan (free compute)", "zero", 1.0),
            ("banyan (crypto compute)", "crypto", compute_scale),
        ):
            specs.append(ExperimentConfig(
                protocol="banyan", params=params, topology="global4",
                duration=duration, warmup=warmup, seed=seed, label=label,
                compute=compute, compute_scale=scale,
                cell=f"n={n}", axis={"n": n},
            ))
    plan = ExperimentPlan(
        name="crypto",
        title=(f"network-bound → CPU-bound crossover under per-message "
               f"crypto cost (scale {compute_scale:g})"),
        specs=specs,
        columns=list(CRYPTO_COLUMNS),
    )
    return plan.with_replications(seeds)


# --------------------------------------------------------------------- #
# Ablations (design-choice benches beyond the paper's figures)
# --------------------------------------------------------------------- #


def plan_ablation_p_sweep(p_values: Sequence[int] = (1, 2, 3, 4),
                          payload_size: int = 400_000, duration: float = 20.0,
                          warmup: float = 2.0, seed: int = 0,
                          seeds: int = 1) -> ExperimentPlan:
    """Sweep the fast-path parameter ``p`` at n=19 (f adjusted to the bound).

    For each ``p`` we pick the largest ``f`` with ``3f + 2p - 1 <= 19`` so the
    comparison stays at 19 replicas, mirroring the paper's choice of n=19.
    """
    specs: List[ExperimentConfig] = []
    for p in p_values:
        f = (19 + 1 - 2 * p) // 3
        specs.append(ExperimentConfig(
            protocol="banyan",
            params=ProtocolParams(n=19, f=f, p=p, rank_delay=GLOBAL_RANK_DELAY,
                                  payload_size=payload_size),
            topology="global4", duration=duration, warmup=warmup, seed=seed,
            label=f"banyan (f={f}, p={p})",
            cell=f"p={p}", axis={"p": p, "f": f},
        ))
    plan = ExperimentPlan(name="ablation-p",
                          title="fast-path parameter sweep at n=19", specs=specs)
    return plan.with_replications(seeds)


def plan_ablation_stragglers(straggler_counts: Sequence[int] = (0, 1, 2),
                             extra_delay: float = 1.0, payload_size: int = 100_000,
                             duration: float = 20.0, warmup: float = 2.0,
                             seed: int = 0, seeds: int = 1) -> ExperimentPlan:
    """Fast-path hit rate as a function of the number of straggler replicas.

    One cell per straggler count.  ``p = 1`` Banyan needs all but one
    replica to respond quickly; planting stragglers (honest replicas whose
    outbound messages are delayed) shows the fast-path hit rate degrading
    gracefully while latency falls back to the ICC slow path — the "no
    penalties" property of the dual mode.  The interesting regime is
    ``p < stragglers <= n - quorum``: the slow-path quorums are still met by
    the prompt replicas, so SP-finalization overtakes the fast path.
    """
    n, f, p = 7, 2, 1
    params = ProtocolParams(n=n, f=f, p=p, rank_delay=GLOBAL_RANK_DELAY,
                            payload_size=payload_size)
    specs = [
        ExperimentConfig(
            protocol="banyan", params=params, topology="global4",
            duration=duration, warmup=warmup, seed=seed, label="banyan (p=1)",
            stragglers=stragglers, straggler_delay=extra_delay,
            cell=f"stragglers={stragglers}", axis={"stragglers": stragglers},
        )
        for stragglers in straggler_counts
    ]
    plan = ExperimentPlan(
        name="ablation-stragglers",
        title=f"fast-path hit rate vs. stragglers (n={n}, extra delay {extra_delay}s)",
        specs=specs,
    )
    return plan.with_replications(seeds)


#: Plan builders by figure name (used by the CLI's ``figure`` subcommand).
PLAN_BUILDERS = {
    "6a": plan_figure_6a,
    "6b": plan_figure_6b,
    "6c": plan_figure_6c,
    "6d": plan_figure_6d,
    "6e": plan_figure_6e,
    "ablation-p": plan_ablation_p_sweep,
    "ablation-stragglers": plan_ablation_stragglers,
    "uplink": plan_uplink_contention,
    "crypto": plan_crypto_bound,
}
