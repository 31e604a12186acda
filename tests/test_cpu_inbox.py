"""The CPU timeline as a queue: per-replica inbox + one wake event.

A delivery that finds the receiving core busy waits in the replica's FIFO
inbox; the scheduler holds one ``cpu`` wake per non-empty inbox instead of
one event per waiter re-pushed every time the core frees.  Pinned here:

* a grid of compute-charged cells — latency × faults × transport ×
  driver, on the heap scheduler (the calendar queue refuses compute
  runs) — whose fingerprints (commit schedule, delivery
  counts, per-replica busy seconds, and the order in which charged
  deliveries reached the cores) were captured on the re-push
  implementation this design replaced, and must stay byte-identical,
* the exact-tie semantics of that implementation (a fresh arrival tying
  with the instant the core frees), the zero-cost self copy, crash drops
  from a non-empty inbox, and model reuse after ``reset()``,
* a timing-free work-count guard: one wake per waiter, however deep the
  backlog.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.net.bandwidth import BandwidthModel
from repro.net.faults import CrashSchedule, FaultPlan
from repro.net.latency import ConstantLatency, GeoLatency, WanMatrixLatency
from repro.net.topology import four_global_datacenters
from repro.protocols.base import Protocol, ProtocolParams
from repro.protocols.registry import create_replicas
from repro.runtime.compute import ComputeModel
from repro.runtime.simulator import NetworkConfig, Simulation

from test_scheduler import _jittered_simulation

#: Compute-charged runs take the heap only: the calendar queue refuses
#: them (``repro.runtime.scheduler.build_scheduler``).
BACKENDS = ("heap",)

# --------------------------------------------------------------------- #
# Pinned grid
# --------------------------------------------------------------------- #

GRID_N = 7
GRID_HORIZON = 2.487

LATENCIES = ("constant", "geo-jitter", "wan-matrix")
FAULTS = ("none", "crash-window")
GRID_TRANSPORTS = ("direct", "contended")
DRIVERS = ("run", "step", "chunked")

#: ``(latency, faults, transport) -> (fingerprint, messages_delivered)``,
#: captured on the parent commit (one event per waiter, re-pushed at every
#: free instant) under the heap scheduler's ``run`` driver; the parent
#: agreed with itself across both schedulers and all three drivers.
GRID_PINS = {
    ("constant", "none", "direct"):
        ("edd63f8fda2b7bf1908258f327a618c2414e75f44d82be22538f1f43cdd191c1", 624),
    ("constant", "none", "contended"):
        ("4b25146e32efa5bab6146973d5acf7969c11e48adcdb3c09316baa5f1d2eac80", 624),
    ("constant", "crash-window", "direct"):
        ("d61502df80208cb8013b327cb1b9cd959c744f57fd66f073e1958de16f1e6db5", 563),
    ("constant", "crash-window", "contended"):
        ("a394864ed3dc53ecc67fca582b436a9a8a7b68fb5b41cde8a7a43967a6b67bc6", 559),
    ("geo-jitter", "none", "direct"):
        ("4fbf96965212e3248f97c159437352cecdf364e077b92c4d060e6b93842e5982", 626),
    ("geo-jitter", "none", "contended"):
        ("b448fe3f9df4f13432ff4d088a9899cc0affc45529912a75ad148a13f3d0e052", 616),
    ("geo-jitter", "crash-window", "direct"):
        ("ffed45901bf239ef1aa3673093412729d0eb0655a7d94bde6b9bd7bc9ac75d4d", 538),
    ("geo-jitter", "crash-window", "contended"):
        ("e7612f7e085f982b72059e5fe5d8b5f00fe7f5622c71c3b5fb7161bdd4cefd0c", 531),
    ("wan-matrix", "none", "direct"):
        ("6731b1e1898f5c6b9fa46abfb16357f8bac033a4a2afcc51c1ae443c3a247763", 620),
    ("wan-matrix", "none", "contended"):
        ("c9b9326e100148ecbebabf73f51dbcf24634e4229f1a670ba17bc5bff7b22bb4", 620),
    ("wan-matrix", "crash-window", "direct"):
        ("1803032d005cf2118fa0e62eaef36f34aa8fa9df2ea5561e809c0a38c18f177a", 535),
    ("wan-matrix", "crash-window", "contended"):
        ("7fda73d142f51aa845dd446f2be66abcf59b54fe08c42fc84523199952e1a87c", 537),
}


def _grid_simulation(latency: str, faults: str, transport: str,
                     scheduler: str) -> Simulation:
    params = ProtocolParams(n=GRID_N, f=2, p=1, rank_delay=0.2,
                            payload_size=1_000)
    topology = four_global_datacenters(GRID_N)
    latency_model = {
        "constant": lambda: ConstantLatency(0.05),
        "geo-jitter": lambda: GeoLatency(topology, jitter=0.05),
        "wan-matrix": lambda: WanMatrixLatency(topology),
    }[latency]()
    if faults == "none":
        plan = FaultPlan.none()
    else:
        # Replica 1 goes down at 0.45 s with deliveries queued behind its
        # core and comes back at 0.9 s; replica 6 goes down for good.
        plan = FaultPlan(crash_schedule=CrashSchedule(
            crash_times={1: 0.45, 6: 0.8}, recover_times={1: 0.9}))
    network = NetworkConfig(
        latency=latency_model, faults=plan, seed=5, transport=transport,
        uplink_bytes_per_s=2_000_000.0 if transport == "contended" else None,
        compute="crypto", compute_scale=8.0, scheduler=scheduler)
    return Simulation(create_replicas("banyan", params), network)


def _drive(simulation: Simulation, driver: str, horizon: float) -> None:
    if driver == "run":
        simulation.run(until=horizon)
    elif driver == "step":
        # A sentinel at the horizon stops the stepping exactly where
        # ``run(until)`` stops (it perturbs nothing: one seq, drawn first).
        reached = []
        simulation.schedule_external(horizon, lambda: reached.append(True))
        while not reached and simulation.step():
            pass
        simulation.now = max(simulation.now, horizon)
    else:
        while simulation.now < horizon:
            simulation.run(until=horizon, max_events=7)


def _grid_fingerprint(latency: str, faults: str, transport: str,
                      scheduler: str, driver: str):
    simulation = _grid_simulation(latency, faults, transport, scheduler)
    order = hashlib.sha256()

    def on_compute(kind, replica_id, time, seconds, message):
        if kind == "cpu-busy":
            order.update(repr((time, replica_id, type(message).__name__,
                               seconds)).encode())

    simulation.add_compute_listener(on_compute)
    _drive(simulation, driver, GRID_HORIZON)
    commits = [
        (record.replica_id, record.block.round, str(record.block.id),
         f"{record.commit_time:.9f}", record.finalization_kind)
        for replica_id in simulation.replica_ids
        for record in simulation.commits_for(replica_id)
    ]
    assert commits, "vacuous cell: nothing committed"
    busy = sorted(simulation.compute_stats()["busy_s"].items())
    digest = hashlib.sha256(repr((
        commits, simulation.messages_delivered, simulation.messages_dropped,
        busy, order.hexdigest())).encode()).hexdigest()
    return digest, simulation.messages_delivered


@pytest.mark.parametrize("driver", DRIVERS)
@pytest.mark.parametrize("scheduler", BACKENDS)
@pytest.mark.parametrize("transport", GRID_TRANSPORTS)
@pytest.mark.parametrize("faults", FAULTS)
@pytest.mark.parametrize("latency", LATENCIES)
def test_grid_cell_matches_the_re_push_implementation(latency, faults,
                                                      transport, scheduler,
                                                      driver):
    assert _grid_fingerprint(latency, faults, transport, scheduler,
                             driver) == GRID_PINS[(latency, faults, transport)]


# --------------------------------------------------------------------- #
# Scripted unit cases
# --------------------------------------------------------------------- #


class _Tagged:
    """A zero-size message: it arrives exactly one latency after its send."""

    wire_size = 0

    def __init__(self, tag: str) -> None:
        self.tag = tag


class _Scripted(Protocol):
    """Sends tagged messages at scripted times; records what it handles.

    ``sends`` is a list of ``(at, receiver, tag)``: ``at == 0`` sends from
    ``on_start``, anything else from a timer; ``receiver=None`` broadcasts.
    """

    name = "scripted"

    def __init__(self, replica_id, params, sends=()):
        super().__init__(replica_id, params)
        self.sends = sends
        self.handled = []

    def on_start(self, ctx):
        for at, receiver, tag in self.sends:
            if at == 0:
                self._emit(ctx, receiver, tag)
            else:
                ctx.set_timer(at, "send", (receiver, tag))

    def on_timer(self, ctx, timer):
        self._emit(ctx, *timer.data)

    def _emit(self, ctx, receiver, tag):
        if receiver is None:
            ctx.broadcast(_Tagged(tag))
        else:
            ctx.send(receiver, _Tagged(tag))

    def on_message(self, ctx, sender, message):
        self.handled.append((round(ctx.now(), 9), message.tag))


class FlatCompute(ComputeModel):
    """Every delivery from another replica costs ``cost`` seconds."""

    name = "flat"

    def __init__(self, cost: float) -> None:
        super().__init__()
        self.cost = cost

    def message_cost(self, receiver, sender, message):
        return self.cost if receiver != sender else 0.0


def _scripted_simulation(scripts, compute, scheduler="heap", faults=None):
    params = ProtocolParams(n=len(scripts), f=0, p=0)
    protocols = {replica_id: _Scripted(replica_id, params, sends)
                 for replica_id, sends in enumerate(scripts)}
    network = NetworkConfig(
        latency=ConstantLatency(0.05),
        bandwidth=BandwidthModel(per_message_overhead_s=0.0),
        faults=faults or FaultPlan.none(), compute=compute,
        scheduler=scheduler)
    return Simulation(protocols, network), protocols


@pytest.mark.parametrize("scheduler", BACKENDS)
class TestExactTies:
    """Cost == latency: arrivals tie to the bit with the instant the core
    frees.  The expected orders are the parent implementation's."""

    BACKLOG = [(0, 2, "m1"), (0, 2, "m2"), (0, 2, "m3")]
    TIES = [(0.05, 2, "x"), (0.05, 2, "y")]

    def test_tying_arrival_with_the_lower_seq_jumps_the_queue(self, scheduler):
        # Replica 0's timers were armed before replica 1 sent the backlog,
        # so x and y precede the wake at 0.10 in (time, seq) order: x finds
        # the core free and runs ahead of the inbox; y then finds it busy
        # and — having been keyed for 0.15 before the wake re-keyed the
        # older residents — stays ahead of them too.
        simulation, protocols = _scripted_simulation(
            [self.TIES, self.BACKLOG, []], FlatCompute(0.05), scheduler)
        simulation.run_until_idle()
        assert protocols[2].handled == [
            (0.05, "m1"), (0.1, "x"), (0.15, "y"), (0.2, "m2"), (0.25, "m3")]

    def test_tying_arrival_with_the_higher_seq_queues_behind(self, scheduler):
        # Same instants, but the backlog's sender starts first: the wake
        # at 0.10 precedes x and y, which join the tail.
        simulation, protocols = _scripted_simulation(
            [self.BACKLOG, self.TIES, []], FlatCompute(0.05), scheduler)
        simulation.run_until_idle()
        assert protocols[2].handled == [
            (0.05, "m1"), (0.1, "m2"), (0.15, "m3"), (0.2, "x"), (0.25, "y")]
        assert simulation.compute.deferred_deliveries == 4
        assert simulation.compute.queue_depth_max[2] == 3


@pytest.mark.parametrize("scheduler", BACKENDS)
def test_zero_cost_self_copy_behind_a_backlog(scheduler):
    # Replica 0's own broadcast copy arrives while its core works through
    # a1..a3, so it waits its turn; handling it is free, so the resident
    # behind it (a4) goes the very same instant.
    simulation, protocols = _scripted_simulation(
        [[(0.06, None, "self")],
         [(0, 0, "a1"), (0, 0, "a2"), (0, 0, "a3"), (0.07, 0, "a4")]],
        FlatCompute(0.05), scheduler)
    simulation.run_until_idle()
    assert protocols[0].handled == [
        (0.05, "a1"), (0.1, "a2"), (0.15, "a3"), (0.2, "self"), (0.2, "a4")]
    assert simulation.compute.messages_charged == 5  # a1..a4 + r1's copy
    assert simulation.compute.deferred_deliveries == 4


@pytest.mark.parametrize("scheduler", BACKENDS)
def test_crash_with_a_non_empty_inbox_drops_each_resident_once(scheduler):
    simulation, protocols = _scripted_simulation(
        [[], [(0, 0, "a1"), (0, 0, "a2"), (0, 0, "a3"), (0, 0, "a4")]],
        FlatCompute(0.1), scheduler,
        faults=FaultPlan(crash_schedule=CrashSchedule(crash_times={0: 0.1})))
    # No orphan wake: the run drains (a wedged wake would raise
    # BudgetExhausted) after one delivery and three drops.
    assert simulation.run_until_idle(max_events=100) == 4
    assert protocols[0].handled == [(0.05, "a1")]
    assert simulation.messages_delivered == 1
    assert simulation.messages_dropped == 3
    assert len(simulation._scheduler) == 0
    assert not simulation.compute.inbox[0]
    assert simulation.compute.busy_s[0] == pytest.approx(0.1)


def test_reset_empties_inboxes_so_a_model_can_be_reused():
    model = FlatCompute(0.05)
    scripts = [[], [(0, 0, "a1"), (0, 0, "a2"), (0, 0, "a3")]]
    first, _ = _scripted_simulation(scripts, model)
    first.run(until=0.07)  # a2 and a3 still wait behind a1
    assert len(model.inbox[0]) == 2 and model.queue_depth_max[0] == 2
    second, protocols = _scripted_simulation(scripts, model)
    assert not model.inbox and not model.queue_depth_max
    assert (model.cpu_wakes, model.deferred_deliveries) == (0, 0)
    second.run_until_idle()
    assert protocols[0].handled == [(0.05, "a1"), (0.1, "a2"), (0.15, "a3")]


def test_backlog_at_the_horizon_stays_queued_behind_its_wake():
    simulation, protocols = _scripted_simulation(
        [[], [(0, 0, "a1"), (0, 0, "a2"), (0, 0, "a3")]], FlatCompute(0.05))
    simulation.run(until=0.12)
    assert protocols[0].handled == [(0.05, "a1"), (0.1, "a2")]
    assert len(simulation.compute.inbox[0]) == 1
    assert len(simulation._scheduler) == 1  # the wake, armed for 0.15
    # Waits are booked when a delivery is handled: a3's is not in yet.
    assert simulation.compute.queue_wait_s[0] == pytest.approx(0.05)
    simulation.run_until_idle()
    assert simulation.compute.queue_wait_s[0] == pytest.approx(0.15)


# --------------------------------------------------------------------- #
# Work-count guard
# --------------------------------------------------------------------- #


def _saturated_simulation(scheduler: str) -> Simulation:
    params = ProtocolParams(n=19, f=6, p=1, rank_delay=0.2)
    topology = four_global_datacenters(19)
    network = NetworkConfig(latency=GeoLatency(topology, jitter=0.05),
                            seed=3, compute="crypto", compute_scale=6.0,
                            scheduler=scheduler)
    return Simulation(create_replicas("banyan", params), network)


@pytest.mark.parametrize("scheduler", BACKENDS)
@pytest.mark.parametrize("build, horizon", [
    (lambda scheduler: _jittered_simulation(64, "crypto", scheduler), 3.0),
    (_saturated_simulation, 4.0),
], ids=["n64-jittered", "n19-saturated"])
def test_one_wake_per_waiter(build, horizon, scheduler):
    """Scheduler work per delivery does not grow with the backlog.

    Counts, not timings: each delivery that waited costs one wake (the
    re-push design popped and re-pushed every waiter at every free
    instant — 127 and 25 deferrals per delivery on these two runs).  A
    wake fails to deliver only when another event shares its exact
    instant, which jittered arrivals make a rarity.
    """
    simulation = build(scheduler)
    simulation.run(until=horizon)
    stats = simulation.compute_stats()
    delivered = simulation.messages_delivered
    waited = stats["deferred_deliveries"]
    assert 0.5 * delivered < waited <= delivered  # a genuinely busy run
    assert stats["cpu_wakes"] <= 1.05 * waited
    assert max(stats["queue_depth_max"].values()) > 10
