"""A single evaluation experiment: protocol × topology × workload.

``run_experiment`` wires the pieces together the way the paper's testbed
does: replicas are placed in datacenters (:mod:`repro.net.topology`), message
delays follow the geographic latency model plus a bandwidth term, one replica
set runs one protocol for a fixed duration, and the metrics collector
measures proposal finalization latency at the proposers and throughput at an
observer replica (Section 9.2 methodology).

An :class:`ExperimentConfig` is also one cell of an experiment plan
(:mod:`repro.eval.plan`): its ``series`` / ``cell`` / ``replication`` /
``axis`` fields place the result in a figure, and its canonical JSON form
(:meth:`ExperimentConfig.content_hash`) keys the runner's result cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Tuple, Union

from repro.byzantine.behaviors import DelayedReplica
from repro.eval.seeds import PLAN_FORMAT, canonical_hash, derive_subseed
from repro.net.bandwidth import BandwidthModel
from repro.net.faults import FaultPlan
from repro.net.transport import ContendedUplinkTransport
from repro.net.latency import LatencyModel, build_latency_model
from repro.net.topology import (
    Topology,
    four_global_datacenters,
    placement_names,
    topology_by_name,
    topology_from_names,
)
from repro.protocols.base import ProtocolParams
from repro.protocols.registry import check_protocol, create_replicas
from repro.runtime.compute import build_compute
from repro.runtime.context import check_delay
from repro.runtime.scheduler import resolve_scheduler
from repro.runtime.simulator import NetworkConfig, Simulation
from repro.smr.metrics import MetricsCollector, RunMetrics, WorkloadMetrics
from repro.smr.mempool import PayloadSource
from repro.workload.spec import WorkloadSpec

#: The contended transport's default uplink, in Mbit/s (1 Mbit/s = 125 000
#: bytes/s); an ``uplink_mbps`` equal to it is omitted from serialisation.
_DEFAULT_UPLINK_MBPS = ContendedUplinkTransport.DEFAULT_UPLINK_BYTES_PER_S / 125_000.0


@dataclass
class ExperimentConfig:
    """Configuration of one experiment run, and one cell of a plan.

    Attributes:
        protocol: registered protocol name (``"banyan"``, ``"icc"``, ...).
        params: protocol parameters (n, f, p, delays, payload size).
        topology: replica placement — a :class:`Topology`, a named topology
            (a key of :data:`repro.net.topology.TOPOLOGY_FACTORIES`) sized
            to ``params.n``, or a tuple of AWS region names (one per
            replica); ``None`` selects the 4-datacenter global testbed of
            Section 9.3 sized to ``params.n``.
        duration: simulated run length in seconds (the paper uses 120 s; the
            default here is shorter because the measurements are already
            remarkably regular, exactly as the paper notes).
        warmup: initial seconds excluded from the measurements.
        seed: simulation seed (latency jitter, drops).
        faults: crash / drop / partition plan.
        latency: override the latency model with a ready instance (takes
            precedence over ``latency_model``; not serialisable).
        latency_model: name of the topology-derived latency model to build,
            registered in :data:`repro.net.latency.LATENCY_MODELS` —
            ``"geo"`` (great-circle estimate, the default) or
            ``"wan-matrix"`` (measured cloud-region RTTs).
        observer: replica whose commits define throughput; defaults to the
            lowest-id non-crashed replica.
        label: label used in reports (defaults to the protocol name).
        workload: optional client workload driving the run.  When set,
            proposals are built from the transactions pending in the
            proposer's mempool and the result additionally carries
            end-to-end :class:`repro.smr.metrics.WorkloadMetrics`; when
            unset, proposals use the paper's synthetic bit-vector payloads
            of ``params.payload_size`` bytes.
        stragglers: number of honest straggler replicas (the highest-id
            ones) whose outbound messages are delayed by
            ``straggler_delay`` seconds — the straggler ablation's knob.
        straggler_delay: extra outbound delay per straggler, in seconds.
        transport: dissemination strategy, a name registered in
            :data:`repro.net.transport.TRANSPORTS` (``"direct"``,
            ``"contended"``, ``"relay"``).
        uplink_mbps: per-replica NIC capacity in megabits per second, used
            by the ``"contended"`` transport (``None`` selects its
            1 Gbit/s default).
        relays: relay fan-out of the ``"relay"`` transport.
        compute: replica compute model, a name registered in
            :data:`repro.runtime.compute.COMPUTE_MODELS` (``"zero"``,
            ``"crypto"``).  Non-zero models charge per-message CPU cost
            and queue deliveries at busy replicas; the result's metrics
            then carry per-replica busy fractions and queue waits.
        compute_scale: cost multiplier for the ``"crypto"`` compute model
            (``2.0`` models cores half as fast).
        scheduler: event-scheduler backend for the simulator, one of
            :data:`repro.runtime.scheduler.SCHEDULERS` — ``"auto"`` (the
            default), ``"heap"``, or ``"calendar"``;
            :func:`repro.runtime.scheduler.build_scheduler` states which
            runs each serves.  Both backends produce byte-identical
            executions; this is a performance knob.
        series: figure series the cell belongs to (defaults to the label).
        cell: identifier of the cell within its series (e.g.
            ``"payload=400000"``); replications of one cell share it.
        replication: replication index within the cell.
        axis: extra row columns describing the cell's position on the
            figure's x-axis (e.g. ``{"crashed_replicas": 4}``).
    """

    protocol: str
    params: ProtocolParams
    topology: Optional[Union[Topology, str, Tuple[str, ...]]] = None
    duration: float = 20.0
    warmup: float = 2.0
    seed: int = 0
    faults: FaultPlan = field(default_factory=FaultPlan.none)
    latency: Optional[LatencyModel] = None
    latency_model: str = "geo"
    observer: Optional[int] = None
    label: Optional[str] = None
    workload: Optional[WorkloadSpec] = None
    stragglers: int = 0
    straggler_delay: float = 1.0
    transport: str = "direct"
    uplink_mbps: Optional[float] = None
    relays: int = 2
    compute: str = "zero"
    compute_scale: float = 1.0
    scheduler: str = "auto"
    series: Optional[str] = None
    cell: str = ""
    replication: int = 0
    axis: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.check()

    def check(self) -> None:
        """Raise a one-line ``ValueError`` unless the config can run: a
        measurement window (``duration`` finite and > 0, ``warmup`` finite
        and >= 0, ``warmup < duration``), a registered protocol that
        accepts ``params``, ``stragglers`` in ``[0, n]`` with a finite,
        non-negative ``straggler_delay``, and a scheduler that serves the
        compute model and crash windows."""
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValueError(f"duration must be finite and > 0, got {self.duration!r}")
        if not (math.isfinite(self.warmup) and self.warmup >= 0):
            raise ValueError(f"warmup must be finite and >= 0, got {self.warmup!r}")
        if self.warmup >= self.duration:
            raise ValueError(f"warmup {self.warmup:g} s leaves no measurement window "
                             f"in a {self.duration:g} s run")
        check_protocol(self.protocol, self.params)
        if not 0 <= self.stragglers <= self.params.n:
            raise ValueError(f"stragglers must be in [0, n={self.params.n}], "
                             f"got {self.stragglers!r}")
        check_delay(self.straggler_delay, "straggler delay")
        resolve_scheduler(self.scheduler,
                          compute=not build_compute(self.compute).trivial,
                          crash=bool(self.faults.crash_schedule.crash_times))

    def resolved_topology(self) -> Topology:
        """Build the placement (default: 4 global datacenters)."""
        if self.topology is None:
            return four_global_datacenters(self.params.n)
        if isinstance(self.topology, str):
            return topology_by_name(self.topology, self.params.n)
        if isinstance(self.topology, tuple):
            return topology_from_names(self.topology)
        return self.topology

    def resolved_label(self) -> str:
        """The report label."""
        return self.label or self.protocol

    def resolved_series(self) -> str:
        """The figure series this cell belongs to."""
        return self.series or self.resolved_label()

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready dictionary (inverse of :meth:`from_dict`).

        A named topology is stored as its name, a tuple or
        :class:`repro.net.topology.Topology` as its region-name placement
        list.  ``observer`` and the transport, compute, latency-model and
        scheduler fields are emitted only when they differ from the
        defaults, so configs that do not use them serialise — and
        content-hash — exactly as before those fields existed, keeping
        existing result caches valid.

        Raises:
            ValueError: if a ``latency`` override is set, or the topology
                uses datacenters that are not (exactly) catalogue entries —
                ``from_dict`` would otherwise rebuild a different network.
        """
        if self.latency is not None:
            raise ValueError("configs with a latency-model override are not serialisable")
        topology = self.topology
        if isinstance(topology, Topology):
            topology = placement_names(topology)
        elif isinstance(topology, tuple):
            topology = list(topology)
        data = {
            "protocol": self.protocol,
            "params": self.params.to_dict(),
            "topology": topology,
            "duration": self.duration,
            "warmup": self.warmup,
            "seed": self.seed,
            "faults": self.faults.to_dict(),
            "workload": self.workload.to_dict() if self.workload is not None else None,
            "label": self.label,
            "stragglers": self.stragglers,
            "straggler_delay": self.straggler_delay,
            "series": self.series,
            "cell": self.cell,
            "replication": self.replication,
            "axis": dict(self.axis),
        }
        if self.observer is not None:
            data["observer"] = self.observer
        data.update(_transport_fields(self.transport, self.uplink_mbps, self.relays))
        data.update(_compute_fields(self.compute, self.compute_scale))
        data.update(_latency_fields(self.latency_model))
        data.update(_scheduler_fields(self.scheduler))
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentConfig":
        """Rebuild a config from :meth:`to_dict` output.

        Raises:
            ValueError: if ``data`` carries a key no field reads, so a
                misspelt or foreign key cannot silently run a different
                experiment.
        """
        unknown = sorted(set(data) - _SERIALISED_FIELDS)
        if unknown:
            raise ValueError(f"unknown experiment config key(s): {', '.join(unknown)}")
        topology = data.get("topology")
        workload = data.get("workload")
        uplink_mbps = data.get("uplink_mbps")
        return cls(
            protocol=str(data["protocol"]),
            params=ProtocolParams.from_dict(data["params"]),
            topology=tuple(topology) if isinstance(topology, list) else topology,
            duration=float(data["duration"]),
            warmup=float(data["warmup"]),
            seed=int(data["seed"]),
            faults=FaultPlan.from_dict(data.get("faults", {})),
            observer=data.get("observer"),
            label=data.get("label"),
            workload=WorkloadSpec.from_dict(workload) if workload is not None else None,
            stragglers=int(data.get("stragglers", 0)),
            straggler_delay=float(data.get("straggler_delay", 1.0)),
            transport=str(data.get("transport", "direct")),
            uplink_mbps=float(uplink_mbps) if uplink_mbps is not None else None,
            relays=int(data.get("relays", 2)),
            compute=str(data.get("compute", "zero")),
            compute_scale=float(data.get("compute_scale", 1.0)),
            latency_model=str(data.get("latency_model", "geo")),
            scheduler=str(data.get("scheduler", "auto")),
            series=data.get("series"),
            cell=str(data.get("cell", "")),
            replication=int(data.get("replication", 0)),
            axis=dict(data.get("axis", {})),
        )

    def content_hash(self) -> str:
        """Stable hex digest of the config's canonical JSON form.

        Two configs hash equal iff they describe the same experiment
        (including presentation metadata, so relabelling a cell re-runs it
        rather than serving a stale row).  The runner uses this as the
        cache key.
        """
        return canonical_hash({"format": PLAN_FORMAT, "spec": self.to_dict()})

    def replicated(self, replications: int) -> List["ExperimentConfig"]:
        """Fan this cell out into ``replications`` independent runs.

        Replication 0 is this config verbatim; replication ``k > 0``
        derives fresh network and workload seeds via
        :func:`repro.eval.seeds.derive_subseed`, so the replications sample
        independent jitter and arrival randomness.

        Raises:
            ValueError: if ``replications`` is not positive.
        """
        if replications < 1:
            raise ValueError("replications must be positive")
        configs: List[ExperimentConfig] = []
        for k in range(replications):
            workload = self.workload
            if workload is not None and k > 0:
                workload = replace(
                    workload, seed=derive_subseed(workload.seed, k, "workload")
                )
            configs.append(replace(
                self,
                seed=derive_subseed(self.seed, k, "net"),
                workload=workload,
                replication=k,
            ))
        return configs


#: The dictionary keys :meth:`ExperimentConfig.from_dict` reads: every field
#: but the unserialisable ``latency`` override.
_SERIALISED_FIELDS = frozenset(
    config_field.name for config_field in fields(ExperimentConfig)
) - {"latency"}


def _transport_fields(transport: str, uplink_mbps: Optional[float],
                      relays: int) -> Dict[str, object]:
    """The non-default transport fields of a config dictionary.

    Default values are omitted so that serialised forms (and the content
    hashes derived from them) of pre-transport configs are unchanged; a
    knob the selected transport never reads (``uplink_mbps`` off the
    contended transport, ``relays`` off the relay transport) is omitted
    too, as is an explicitly-passed default value, so semantically
    identical experiments hash — and cache — alike.
    """
    fields: Dict[str, object] = {}
    if transport != "direct":
        fields["transport"] = transport
    if (transport == "contended" and uplink_mbps is not None
            and uplink_mbps != _DEFAULT_UPLINK_MBPS):
        fields["uplink_mbps"] = uplink_mbps
    if transport == "relay" and relays != 2:
        fields["relays"] = relays
    return fields


def _compute_fields(compute: str, compute_scale: float) -> Dict[str, object]:
    """The non-default compute fields of a config dictionary.

    Mirrors :func:`_transport_fields`: default values are omitted so
    serialised forms — and the content hashes and cached results derived
    from them — of pre-compute configs are unchanged, and a scale the
    zero model never reads is omitted too.
    """
    fields: Dict[str, object] = {}
    if compute != "zero":
        fields["compute"] = compute
        if compute_scale != 1.0:
            fields["compute_scale"] = compute_scale
    return fields


def _scheduler_fields(scheduler: str) -> Dict[str, object]:
    """The non-default scheduler field of a config dictionary.

    Mirrors :func:`_transport_fields`: the default (``"auto"``) is omitted.
    Both backends execute byte-identically, so the backend is serialised
    only when pinned explicitly — semantically identical experiments keep
    hashing (and caching) alike.
    """
    if scheduler != "auto":
        return {"scheduler": scheduler}
    return {}


def _latency_fields(latency_model: str) -> Dict[str, object]:
    """The non-default latency field of a config dictionary.

    Mirrors :func:`_transport_fields`: the default (``"geo"``) is omitted so
    serialised forms — and content hashes of cached results — of existing
    configs are unchanged.
    """
    if latency_model != "geo":
        return {"latency_model": latency_model}
    return {}


@dataclass
class ExperimentResult:
    """Result of one experiment run.

    Attributes:
        config: the configuration that produced the result.
        metrics: the aggregated run metrics.
        messages_sent: total messages handed to the network.
        bytes_sent: total logical bytes handed to the network.
        workload: end-to-end client metrics; ``None`` unless the run was
            driven by a :class:`repro.workload.spec.WorkloadSpec`.
    """

    config: ExperimentConfig
    metrics: RunMetrics
    messages_sent: int
    bytes_sent: int
    workload: Optional[WorkloadMetrics] = None

    @property
    def label(self) -> str:
        """Report label of the run."""
        return self.config.resolved_label()

    def row(self) -> Dict[str, object]:
        """A flat dictionary row for report tables."""
        summary = self.metrics.summary()
        row: Dict[str, object] = {
            "protocol": self.label,
            "payload_bytes": self.config.params.payload_size,
            "mean_latency_ms": round(summary["mean_latency_s"] * 1000, 1),
            "p95_latency_ms": round(summary["p95_latency_s"] * 1000, 1),
            "latency_stddev_ms": round(summary["latency_stddev_s"] * 1000, 1),
            "throughput_MBps": round(summary["throughput_bytes_per_s"] / 1e6, 3),
            "blocks_per_s": round(summary["blocks_per_s"], 2),
            "block_interval_ms": round(summary["mean_block_interval_s"] * 1000, 1),
            "fast_path_ratio": round(summary["fast_path_ratio"], 3),
            "committed_blocks": int(summary["committed_blocks"]),
        }
        if self.metrics.compute_busy_fractions:
            row["busy_frac"] = round(self.metrics.max_busy_fraction, 3)
            row["cpu_wait_ms"] = round(
                self.metrics.total_compute_queue_wait_s * 1000, 1
            )
        if self.workload is not None:
            row.update(self.workload_row())
        return row

    def workload_row(self) -> Dict[str, object]:
        """The client-workload columns (empty when no workload was attached)."""
        if self.workload is None:
            return {}
        p50, p95, p99 = self.workload.latency_percentiles()
        return {
            "submitted_tx": self.workload.submitted,
            "committed_tx": self.workload.committed,
            "dropped_tx": self.workload.dropped,
            "pending_tx": self.workload.pending,
            "tx_p50_ms": round(p50 * 1000, 1),
            "tx_p95_ms": round(p95 * 1000, 1),
            "tx_p99_ms": round(p99 * 1000, 1),
            "goodput_tx_per_s": round(self.workload.goodput_tx_per_s, 2),
            "peak_mempool_depth": self.workload.peak_mempool_depth,
        }

    def to_dict(self) -> Dict[str, object]:
        """A lossless JSON-ready dictionary (inverse of :meth:`from_dict`).

        This is the result-cache format: rebuilding via :meth:`from_dict`
        yields a result whose :meth:`row` output is byte-identical to the
        original's.
        """
        return {
            "config": self.config.to_dict(),
            "metrics": self.metrics.to_dict(),
            "messages_sent": self.messages_sent,
            "bytes_sent": self.bytes_sent,
            "workload": self.workload.to_dict() if self.workload is not None else None,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ExperimentResult":
        """Rebuild a result from :meth:`to_dict` output."""
        workload = data.get("workload")
        return cls(
            config=ExperimentConfig.from_dict(data["config"]),
            metrics=RunMetrics.from_dict(data["metrics"]),
            messages_sent=int(data["messages_sent"]),
            bytes_sent=int(data["bytes_sent"]),
            workload=WorkloadMetrics.from_dict(workload) if workload is not None else None,
        )


def run_experiment(config: ExperimentConfig,
                   on_simulation=None) -> ExperimentResult:
    """Run one experiment and return its result.

    Args:
        config: the experiment to run.
        on_simulation: optional callback invoked with the fully wired
            :class:`Simulation` just before ``run`` — the seam used by the
            CLI's ``--profile`` flag (and tests) to attach listeners or
            harvest post-run state such as :meth:`Simulation.event_counts`.

    Raises:
        ValueError: if the config cannot run (checked again here: a config
            may be mutated after it was built).
    """
    config.check()
    topology = config.resolved_topology()
    if topology.n != config.params.n:
        raise ValueError(
            f"topology has {topology.n} replicas but params.n={config.params.n}"
        )
    latency = config.latency or build_latency_model(config.latency_model, topology)
    bandwidth = BandwidthModel(topology=topology)
    network = NetworkConfig(
        latency=latency, bandwidth=bandwidth, faults=config.faults, seed=config.seed,
        transport=config.transport,
        # 1 Mbit/s = 125 000 bytes/s.
        uplink_bytes_per_s=(
            config.uplink_mbps * 125_000.0
            if config.uplink_mbps is not None else None
        ),
        relays=config.relays,
        compute=config.compute,
        compute_scale=config.compute_scale,
        scheduler=config.scheduler,
    )
    pool = None
    if config.workload is not None:
        # Proposals carry real pending transactions; idle rounds stay empty.
        pool = config.workload.build_pool()
        payload_source = pool.payload_source(
            max_block_bytes=config.workload.max_block_bytes
        )
    else:
        payload_source = PayloadSource(config.params.payload_size)
    replicas = create_replicas(
        config.protocol, config.params, payload_source=payload_source
    )
    if config.stragglers:
        # The highest-id replicas become honest stragglers: their outbound
        # messages are deferred, degrading the fast path but not safety.
        for replica_id in range(config.params.n - config.stragglers, config.params.n):
            replicas[replica_id] = DelayedReplica(
                replicas[replica_id], config.straggler_delay
            )
    simulation = Simulation(replicas, network)
    if pool is not None:
        pool.attach(simulation, stop_time=config.duration)
    observer = config.observer
    if observer is None:
        correct = config.faults.correct_replicas(simulation.replica_ids)
        observer = correct[0] if correct else simulation.replica_ids[0]
    collector = MetricsCollector(
        protocol=config.resolved_label(), observer=observer, warmup=config.warmup
    )
    simulation.add_commit_listener(collector.on_commit)
    if on_simulation is not None:
        on_simulation(simulation)
    simulation.run(until=config.duration)
    proposal_times = {
        replica_id: dict(simulation.protocol(replica_id).proposal_times)
        for replica_id in simulation.replica_ids
    }
    metrics = collector.finalize(
        duration=max(config.duration - config.warmup, 1e-9),
        proposal_times=proposal_times,
    )
    compute_stats = simulation.compute_stats()
    busy_by_replica = compute_stats.get("busy_s")
    if busy_by_replica:
        # Busy fractions are over the full run (the CPU is busy during the
        # warm-up too); queue waits are totals per replica.  A cost is
        # booked whole when its handling starts, so the part of the last
        # one that runs past the horizon is taken off again.
        busy_until = simulation.compute.busy_until
        metrics.compute_busy_fractions = {
            replica_id: (
                (busy - max(0.0, busy_until[replica_id] - config.duration))
                / config.duration if config.duration > 0 else 0.0)
            for replica_id, busy in busy_by_replica.items()
        }
    waits = compute_stats.get("queue_wait_s")
    if waits:
        metrics.compute_queue_wait_s = dict(waits)
    return ExperimentResult(
        config=config,
        metrics=metrics,
        messages_sent=simulation.messages_sent,
        bytes_sent=simulation.bytes_sent,
        workload=(
            pool.metrics(max(config.duration - config.warmup, 1e-9),
                         warmup=config.warmup)
            if pool is not None else None
        ),
    )


def sweep_payload_sizes(base: ExperimentConfig, payload_sizes, jobs: int = 1,
                        cache_dir: Optional[str] = None,
                        use_cache: bool = True) -> list:
    """Run ``base`` once per payload size; returns the list of results.

    The sweep executes as an experiment plan, so it shares the runner's
    parallelism (``jobs``) and per-cell result cache (``cache_dir``).  A
    config with a latency-model override cannot be serialised; it still
    sweeps, serially and uncached.
    """
    if base.latency is not None:
        return [
            run_experiment(replace(base, params=replace(base.params, payload_size=size)))
            for size in payload_sizes
        ]
    # Imported lazily: plan/runner build on the config/result types above.
    from repro.eval.plan import payload_sweep_plan
    from repro.eval.runner import run_plan

    return run_plan(payload_sweep_plan(base, payload_sizes),
                    jobs=jobs, cache_dir=cache_dir, use_cache=use_cache)
