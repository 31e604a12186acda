"""Event-scheduler backends: calendar-queue ↔ heap equivalence and units.

The calendar queue (``scheduler="calendar"``) must replay the exact
``(time, seq)`` total order of the reference binary heap — the backend is
a pure performance choice, never a semantics one.  Pinned here:

* every zero-compute golden-corpus cell digests identically under the
  calendar backend (the pinned digests in ``test_golden_corpus`` were
  captured on the heap),
* ``run()`` and one-event-at-a-time ``step()`` produce byte-identical
  executions under both backends (n=64, jittered latency — the shape the
  calendar queue is tuned for),
* an event budget that cuts a run mid-broadcast (mid sbatch chain) resumes
  without perturbing the execution,
* a grid of the runs the calendar queue serves — latency model × loss
  burst / partition × transport × run / step / chunked driver — replays
  the heap's execution cell by cell,
* adversarial timestamp distributions (all-same-instant, exponential
  spread, far-future/infinite timers) pop in reference heap order straight
  from the :class:`CalendarQueue`, across width adaptation and rebuilds,
* ``run_until_idle`` raises :class:`BudgetExhausted` on a wedged run
  instead of silently returning mid-execution,
* cancelled-timer bookkeeping drains to empty across crash/recovery chaos
  (heap) and message loss (calendar), and ``event_counts()`` is
  backend-invariant (no sbatch double-count),
* the calendar queue takes only the runs it serves: ``"auto"`` routes
  compute and crash runs to the heap, and an explicit ``"calendar"``
  refuses them.
"""

from __future__ import annotations

import functools
import itertools
import math
import random

import numpy as np
import pytest

from repro.net.faults import CrashSchedule, FaultPlan, LossBurst, PartitionPlan
from repro.net.latency import ConstantLatency, GeoLatency, WanMatrixLatency
from repro.net.topology import four_global_datacenters
from repro.protocols.base import Protocol, ProtocolParams
from repro.protocols.registry import create_replicas
from repro.runtime.scheduler import (
    _FAR_TIME,
    CalendarQueue,
    HeapScheduler,
    SCHEDULERS,
    build_scheduler,
)
from repro.runtime.simulator import BudgetExhausted, NetworkConfig, Simulation

from test_golden_corpus import (
    GOLDEN_DIGESTS,
    PROTOCOLS,
    TRANSPORTS,
    _execution_digest,
)

BACKENDS = ("heap", "calendar")


# --------------------------------------------------------------------- #
# Golden corpus byte-identity
# --------------------------------------------------------------------- #


class TestGoldenCorpusBackendInvariance:
    """The 12 zero-compute corpus cells (the calendar queue refuses the
    crypto ones) must digest identically under the calendar queue.

    The pinned digests were captured on the heap backend, so matching them
    *is* the heap↔calendar byte-identity check — one corpus run, not two.
    """

    @pytest.mark.parametrize("compute", ["zero"])
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_calendar_matches_pinned_heap_digest(self, protocol, transport,
                                                 compute):
        assert _execution_digest(protocol, transport, compute,
                                 scheduler="calendar") == \
            GOLDEN_DIGESTS[(protocol, transport, compute)], (
                f"{protocol}/{transport}/{compute} diverged under the "
                f"calendar scheduler — the backend must never change an "
                f"execution"
            )


# --------------------------------------------------------------------- #
# run() vs step() and budget-resume, both backends
# --------------------------------------------------------------------- #


def _jittered_simulation(n: int, compute: str, scheduler: str,
                         seed: int = 11) -> Simulation:
    params = ProtocolParams(n=n, f=(n - 1) // 3, p=1, rank_delay=0.2)
    protocols = create_replicas("banyan", params)
    topology = four_global_datacenters(n)
    network = NetworkConfig(latency=GeoLatency(topology, jitter=0.05),
                            faults=FaultPlan.none(), seed=seed,
                            compute=compute, scheduler=scheduler)
    return Simulation(protocols, network)


def _execution_fingerprint(simulation: Simulation) -> dict:
    return {
        "commits": [
            (record.replica_id, record.block.round, record.block.id,
             record.commit_time, record.finalization_kind)
            for replica_id in simulation.replica_ids
            for record in simulation.commits_for(replica_id)
        ],
        "sent": simulation.messages_sent,
        "delivered": simulation.messages_delivered,
        "dropped": simulation.messages_dropped,
        "compute": simulation.compute_stats(),
        "events": simulation.event_counts(),
    }


def _drive_by_steps(simulation: Simulation, until: float) -> None:
    """Replay ``run(until=...)`` via budget-1 steps, horizon edge included.

    ``run()`` dispatches while the queue head is inside the horizon — and
    when that head is a *cancelled* timer, the next real event goes through
    without re-checking ``until``.  Stepping whenever the raw head (which
    may be a cancelled timer) is inside the horizon reproduces exactly
    that rule.
    """
    simulation.start()
    while True:
        head = simulation._scheduler.peek()
        if head is None or head[0] > until:
            break
        if not simulation.step():
            break
    simulation.now = max(simulation.now, until)


class TestRunVsStep:
    """Budget-1 stepping must be indistinguishable from the batched run.

    n=64 with jittered latency: broadcasts spill as vectorized calendar
    segments and every step re-enters the calendar loop — the hardest
    shape for the scheduler seam to keep byte-identical.  (The heap's
    compute-charged stepping is pinned in ``test_dispatch_batch`` and
    ``test_cpu_inbox``.)
    """

    HORIZON = 1.2

    @pytest.mark.parametrize("scheduler", BACKENDS)
    def test_step_matches_run(self, scheduler):
        batched = _jittered_simulation(64, "zero", scheduler)
        batched.run(until=self.HORIZON)

        stepped = _jittered_simulation(64, "zero", scheduler)
        _drive_by_steps(stepped, self.HORIZON)

        fingerprint = _execution_fingerprint(batched)
        assert fingerprint == _execution_fingerprint(stepped)
        assert fingerprint["commits"], "vacuous cell: nothing committed"
        # The cell genuinely exercised the spill pipeline.
        assert fingerprint["events"]["sbatch"] > 0

    def test_backends_agree(self):
        heap = _jittered_simulation(64, "zero", "heap")
        heap.run(until=self.HORIZON)
        calendar = _jittered_simulation(64, "zero", "calendar")
        calendar.run(until=self.HORIZON)
        assert _execution_fingerprint(heap) == _execution_fingerprint(calendar)


class TestBudgetResume:
    """An event budget that stops a run mid sbatch chain must resume clean.

    A 13-event budget lands inside a 16-member broadcast over and over;
    the cut member chain is re-queued under its original key, so chunked
    runs must replay the uncut execution byte for byte.
    """

    HORIZON = 2.5

    @pytest.mark.parametrize("scheduler", BACKENDS)
    def test_chunked_run_matches_uncut(self, scheduler):
        uncut = _jittered_simulation(16, "zero", scheduler)
        # The private driver returns the processed-event count, which sizes
        # the chunked replay below without guessing.
        total = uncut._run_dispatch(self.HORIZON, None)
        assert total > 13
        assert uncut.event_counts()["sbatch_members"] > 13

        chunked = _jittered_simulation(16, "zero", scheduler)
        for _ in range(total // 13 + 1):
            chunked.run(until=self.HORIZON, max_events=13)
        assert _execution_fingerprint(uncut) == \
            _execution_fingerprint(chunked)
        assert _execution_fingerprint(uncut)["commits"]


# --------------------------------------------------------------------- #
# Calendar grid: the runs the calendar queue serves
# --------------------------------------------------------------------- #

GRID_LATENCIES = ("constant", "geo-jitter", "wan-matrix")
GRID_FAULTS = ("none", "loss-burst", "partition")
GRID_DRIVERS = ("run", "step", "chunked")
GRID_HORIZON = 2.487


def _grid_simulation(latency: str, faults: str, transport: str,
                     scheduler: str) -> Simulation:
    n = 7
    params = ProtocolParams(n=n, f=2, p=1, rank_delay=0.2,
                            payload_size=1_000)
    topology = four_global_datacenters(n)
    latency_model = {
        "constant": lambda: ConstantLatency(0.05),
        "geo-jitter": lambda: GeoLatency(topology, jitter=0.05),
        "wan-matrix": lambda: WanMatrixLatency(topology),
    }[latency]()
    # A loss storm and a cut-off pair, each spanning a few rounds.
    plan = {
        "none": FaultPlan.none,
        "loss-burst": lambda: FaultPlan(
            loss_bursts=(LossBurst(start=0.4, end=1.0, probability=0.5),)),
        "partition": lambda: FaultPlan(partitions=PartitionPlan.single(
            0.4, 1.2, [0, 1], [2, 3, 4, 5, 6])),
    }[faults]()
    network = NetworkConfig(
        latency=latency_model, faults=plan, seed=5, transport=transport,
        uplink_bytes_per_s=2_000_000.0 if transport == "contended" else None,
        scheduler=scheduler)
    return Simulation(create_replicas("banyan", params), network)


@functools.lru_cache(maxsize=None)
def _heap_grid_fingerprint(latency: str, faults: str, transport: str):
    heap = _grid_simulation(latency, faults, transport, "heap")
    heap.run(until=GRID_HORIZON)
    return repr(_execution_fingerprint(heap))


class TestCalendarGrid:
    """Zero-compute, crash-free cells — the runs the calendar queue serves.

    Latency model × fault plan × transport × driver: jitter-free latency
    takes the calendar's ``mbatch`` branch, jittered latency its spilled
    broadcasts, and the contended and relay transports reshape the
    arrival times; stepping and 7-event chunks re-enter the loop at every
    cut.  Each cell must replay the heap's ``run()`` byte for byte.
    """

    @pytest.mark.parametrize("driver", GRID_DRIVERS)
    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("faults", GRID_FAULTS)
    @pytest.mark.parametrize("latency", GRID_LATENCIES)
    def test_calendar_matches_heap(self, latency, faults, transport, driver):
        calendar = _grid_simulation(latency, faults, transport, "calendar")
        if driver == "run":
            calendar.run(until=GRID_HORIZON)
        elif driver == "step":
            _drive_by_steps(calendar, GRID_HORIZON)
        else:
            while calendar.now < GRID_HORIZON:
                calendar.run(until=GRID_HORIZON, max_events=7)
        fingerprint = _execution_fingerprint(calendar)
        assert repr(fingerprint) == \
            _heap_grid_fingerprint(latency, faults, transport)
        assert fingerprint["commits"], "vacuous cell: nothing committed"
        if faults != "none":
            # The fault genuinely reshaped the execution.
            assert _heap_grid_fingerprint(latency, faults, transport) != \
                _heap_grid_fingerprint(latency, "none", transport)


# --------------------------------------------------------------------- #
# run_until_idle budget exhaustion
# --------------------------------------------------------------------- #


@pytest.fixture
def ping_pong():
    """Two replicas bouncing a message forever: never idle."""

    class PingPong(Protocol):
        name = "ping-pong"

        def on_start(self, ctx):
            if self.replica_id == 0:
                ctx.send(1, _Note())

        def on_message(self, ctx, sender, message):
            ctx.send(sender, _Note())

        def on_timer(self, ctx, timer):
            pass

    params = ProtocolParams(n=2, f=0, p=0)
    protocols = {i: PingPong(i, params) for i in range(2)}
    return Simulation(protocols, NetworkConfig(latency=ConstantLatency(0.01)))


class _Note:
    wire_size = 8


class TestRunUntilIdleBudget:
    def test_wedged_run_raises_budget_exhausted(self, ping_pong):
        with pytest.raises(BudgetExhausted) as excinfo:
            ping_pong.run_until_idle(max_events=50)
        assert excinfo.value.processed == 50
        assert excinfo.value.remaining >= 1
        assert "50-event budget" in str(excinfo.value)

    def test_draining_run_returns_processed_count(self):
        params = ProtocolParams(n=3, f=0, p=0)

        class OneShot(Protocol):
            name = "one-shot"

            def on_start(self, ctx):
                if self.replica_id == 0:
                    ctx.broadcast(_Note())

            def on_message(self, ctx, sender, message):
                pass

            def on_timer(self, ctx, timer):
                pass

        sim = Simulation({i: OneShot(i, params) for i in range(3)},
                         NetworkConfig(latency=ConstantLatency(0.01)))
        processed = sim.run_until_idle()
        assert processed > 0
        # Idle really means idle: a second call has nothing left to do.
        assert sim.run_until_idle() == 0

    def test_budget_exhausted_is_a_runtime_error(self, ping_pong):
        with pytest.raises(RuntimeError):
            ping_pong.run_until_idle(max_events=10)


# --------------------------------------------------------------------- #
# Cancelled-timer bookkeeping and event-count consistency
# --------------------------------------------------------------------- #


class _TimerChurn(Protocol):
    """Arms timer pairs each round, cancels one, and gossips — for ROUNDS."""

    ROUNDS = 12
    name = "timer-churn"

    def __init__(self, replica_id, params):
        super().__init__(replica_id, params)
        self.rounds = 0
        self.fired = []

    def on_start(self, ctx):
        self._arm(ctx)

    def _arm(self, ctx):
        doomed = ctx.set_timer(0.05, "doomed")
        ctx.set_timer(0.1, "tick")
        ctx.cancel_timer(doomed)

    def on_message(self, ctx, sender, message):
        self.fired.append((sender, ctx.now()))

    def on_timer(self, ctx, timer):
        self.rounds += 1
        ctx.broadcast(_Note())
        if self.rounds < self.ROUNDS:
            self._arm(ctx)


#: Crash/recovery chaos: one permanent crash, one crash-and-recover —
#: timers armed before a crash still pop (and must still clean up).
_CRASHES = FaultPlan(crash_schedule=CrashSchedule(
    crash_times={1: 0.25, 2: 0.55}, recover_times={2: 0.95}))

#: The calendar queue serves only crash-free runs: its chaos is loss.
_LOSS = FaultPlan(drop_probability=0.05)


def _churn_simulation(scheduler: str, faults: FaultPlan) -> Simulation:
    n = 8
    params = ProtocolParams(n=n, f=2, p=1)
    protocols = {i: _TimerChurn(i, params) for i in range(n)}
    topology = four_global_datacenters(n)
    network = NetworkConfig(latency=GeoLatency(topology, jitter=0.05),
                            faults=faults, seed=5, scheduler=scheduler)
    return Simulation(protocols, network)


class TestTimerBookkeepingAcrossChaos:
    @pytest.mark.parametrize("scheduler", BACKENDS)
    def test_cancelled_set_drains_to_empty(self, scheduler):
        sim = _churn_simulation(
            scheduler, _CRASHES if scheduler == "heap" else _LOSS)
        sim.run_until_idle(max_events=1_000_000)
        assert sim._cancelled_timers == set()
        assert sim._pending_timers == set()
        # The chaos was not vacuous: survivors churned through all rounds.
        assert sim.protocol(0).rounds == _TimerChurn.ROUNDS
        assert all(p.fired for i, p in sim._protocols.items() if i not in (1, 2))

    def test_event_counts_are_backend_invariant(self):
        heap = _churn_simulation("heap", _LOSS)
        heap.run_until_idle(max_events=1_000_000)
        calendar = _churn_simulation("calendar", _LOSS)
        calendar.run_until_idle(max_events=1_000_000)
        heap_counts = heap.event_counts()
        assert heap_counts == calendar.event_counts()
        # No sbatch double-count: each scheduled delivery is tallied exactly
        # once (as message, mbatch member, or sbatch member), so the total
        # brackets between deliveries made and sends attempted.
        scheduled = (heap_counts["message"] + heap_counts["mbatch_members"]
                     + heap_counts["sbatch_members"])
        assert heap_counts["sbatch_members"] > 0
        assert heap.messages_delivered <= scheduled <= heap.messages_sent
        assert heap.messages_delivered == calendar.messages_delivered
        assert heap.messages_dropped == calendar.messages_dropped


# --------------------------------------------------------------------- #
# CalendarQueue unit behaviour: adversarial timestamp distributions
# --------------------------------------------------------------------- #


def _drain(queue) -> list:
    out = []
    while True:
        head = queue.peek()
        if head is None:
            assert len(queue) == 0
            break
        event = queue.pop()
        assert event == head or event[0] == head[0]
        out.append(event)
    return out


def _reference_drain(events) -> list:
    reference = HeapScheduler(itertools.count())
    for event in events:
        reference.push(event)
    out = []
    while reference.peek() is not None:
        out.append(reference.pop())
    return out


class TestCalendarQueueAdversarial:
    def _make(self):
        seq = itertools.count()
        return CalendarQueue(seq), seq

    def test_all_same_instant(self):
        queue, seq = self._make()
        events = [(1.5, next(seq), "timer", i, None) for i in range(500)]
        for event in events:
            queue.push(event)
        assert _drain(queue) == events

    def test_exponential_spread_pops_sorted(self):
        queue, seq = self._make()
        rng = random.Random(42)
        events = []
        for _ in range(2_000):
            # Times spanning nine orders of magnitude: buckets start far
            # too narrow, so the adaptive width must re-derive itself.
            t = rng.expovariate(1.0) * 10.0 ** rng.randint(-3, 5)
            events.append((t, next(seq), "timer", 0, None))
        shuffled = list(events)
        rng.shuffle(shuffled)
        for event in shuffled:
            queue.push(event)
        assert _drain(queue) == _reference_drain(events)

    def test_widely_spaced_times_trigger_width_adaptation(self):
        queue, seq = self._make()
        # Seed a narrow width, then push events one simulated second apart:
        # every advance scans ~1000 empty slots, so the occupancy counters
        # must double the width (at least once) without reordering a pop.
        events = [(0.001 * i, next(seq), "timer", 0, None) for i in range(12)]
        events += [(1.0 * i, next(seq), "timer", 0, None)
                   for i in range(1, 700)]
        for event in events:
            queue.push(event)
        assert _drain(queue) == _reference_drain(events)
        assert queue.stats()["rebuilds"] >= 1

    def test_far_future_and_infinite_timers(self):
        queue, seq = self._make()
        events = [
            (0.5, next(seq), "timer", 0, None),
            (_FAR_TIME * 2, next(seq), "timer", 1, None),
            (math.inf, next(seq), "timer", 2, None),
            (1.5, next(seq), "timer", 3, None),
            (_FAR_TIME, next(seq), "timer", 4, None),
            (2.5, next(seq), "timer", 5, None),
        ]
        for event in events:
            queue.push(event)
        assert _drain(queue) == _reference_drain(events)

    def test_push_into_open_bucket_loses_exact_time_ties(self):
        queue, seq = self._make()
        resident = (1.0, next(seq), "timer", 0, "resident")
        queue.push(resident)
        queue.push((5.0, next(seq), "timer", 0, "later"))
        assert queue.peek() == resident
        # Scheduled *after* the resident materialized at the same instant:
        # the resident must still pop first (heap (time, seq) order).
        late = (1.0, next(seq), "timer", 0, "late-arrival")
        queue.push(late)
        assert queue.pop() == resident
        assert queue.pop() == late

    def test_pop_empty_raises(self):
        queue, _ = self._make()
        with pytest.raises(IndexError):
            queue.pop()
        assert queue.peek() is None


class TestCalendarQueueSpill:
    """Vectorized broadcast spill vs the heap's chained-sbatch order.

    The heap backend gives a spilled broadcast ONE sequence number; its
    members order by fractional seqs ``base + i/count`` (i=0 keeps the
    integer base).  The reference drain is built from exactly those keys.
    """

    def _spill_reference(self, times, targets, base, payload):
        count = len(times)
        return [
            (float(times[i]), base + i / count if i else base, "message",
             int(targets[i]), payload)
            for i in range(count)
        ]

    @staticmethod
    def _normalize(event):
        # Materialized members pop with a placeholder seq (-1): the true
        # order is the pop sequence itself, so compare time/kind/target/
        # payload and leave the seq to the order assertion.
        time_, _seq, kind, target, payload = event
        return (time_, kind, target, payload)

    def test_spill_replays_chained_heap_order(self):
        seq = itertools.count()
        queue = CalendarQueue(seq)
        rng = random.Random(9)

        expected = []
        payload_a = (3, "msg-a")
        times_a = np.sort(np.array([1.0 + rng.random() for _ in range(64)]))
        targets_a = np.arange(64, dtype=np.int64)
        queue.spill(times_a, targets_a, 3, "msg-a", payload_a)
        expected += self._spill_reference(times_a, targets_a, 0, payload_a)

        # A standard push landing mid-broadcast, scheduled after the spill.
        tie = (float(times_a[10]), next(seq), "timer", 7, "tied-timer")
        queue.push(tie)
        expected.append(tie)

        # Second broadcast overlapping the first (its own single seq draw).
        payload_b = (5, "msg-b")
        times_b = np.sort(np.array([1.2 + rng.random() for _ in range(64)]))
        targets_b = np.arange(64, dtype=np.int64)
        queue.spill(times_b, targets_b, 5, "msg-b", payload_b)
        expected += self._spill_reference(times_b, targets_b, 2, payload_b)

        drained = _drain(queue)
        reference = _reference_drain(expected)
        assert [self._normalize(e) for e in drained] == \
            [self._normalize(e) for e in reference]

    def test_far_future_tail_spills_to_overflow(self):
        seq = itertools.count()
        queue = CalendarQueue(seq)
        times = np.array([1.0, 2.0, _FAR_TIME + 1.0, math.inf])
        targets = np.arange(4, dtype=np.int64)
        payload = (0, "msg")
        queue.spill(times, targets, 0, "msg", payload)
        expected = self._spill_reference(times, targets, 0, payload)
        drained = _drain(queue)
        assert [self._normalize(e) for e in drained] == \
            [self._normalize(e) for e in expected]


# --------------------------------------------------------------------- #
# Backend selection plumbing
# --------------------------------------------------------------------- #


class TestBackendSelection:
    def test_auto_picks_calendar_only_for_large_jittered_runs(self):
        seq = itertools.count()
        assert build_scheduler("heap", seq).name == "heap"
        assert build_scheduler("auto", seq, replicas=256,
                               jittered=True).name == "calendar"
        assert build_scheduler("auto", seq, replicas=256,
                               jittered=False).name == "heap"
        assert build_scheduler("auto", seq, replicas=8,
                               jittered=True).name == "heap"
        # The measured crossover lies between n=64 (heap ahead on the flood
        # and on a real Banyan run) and n=128 (calendar ahead on the flood).
        assert build_scheduler("auto", seq, replicas=64,
                               jittered=True).name == "heap"
        for replicas in (128, 256):
            assert build_scheduler("auto", seq, replicas=replicas,
                                   jittered=True).name == "calendar"
        # Compute and crash runs lose on the calendar: always the heap.
        assert build_scheduler("auto", seq, replicas=128, jittered=True,
                               compute=True).name == "heap"
        assert build_scheduler("auto", seq, replicas=128, jittered=True,
                               crash=True).name == "heap"

    def test_calendar_builds_without_keywords(self):
        assert build_scheduler("calendar", itertools.count()).name == \
            "calendar"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            build_scheduler("splay-tree", itertools.count())
        with pytest.raises(ValueError):
            Simulation(
                {0: _TimerChurn(0, ProtocolParams(n=1, f=0, p=0))},
                NetworkConfig(scheduler="splay-tree"),
            )

    @pytest.mark.parametrize("case", ["compute", "crash"])
    def test_calendar_refuses_runs_it_does_not_serve(self, case):
        cause = {"compute": "non-zero compute model",
                 "crash": "crash windows"}[case]
        with pytest.raises(ValueError, match=cause) as excinfo:
            build_scheduler("calendar", itertools.count(),
                            compute=case == "compute", crash=case == "crash")
        assert "\n" not in str(excinfo.value)
        # The simulator passes both observables in.
        network = NetworkConfig(
            scheduler="calendar",
            compute="crypto" if case == "compute" else "zero",
            faults=_CRASHES if case == "crash" else FaultPlan.none())
        with pytest.raises(ValueError, match=cause):
            Simulation({i: _TimerChurn(i, ProtocolParams(n=8, f=2, p=1))
                        for i in range(8)}, network)

    def test_network_config_default_is_auto(self):
        assert NetworkConfig().scheduler == "auto"
        assert "auto" in SCHEDULERS

    def test_config_round_trips_scheduler(self):
        from repro.eval.experiment import ExperimentConfig

        config = ExperimentConfig(protocol="banyan",
                                  params=ProtocolParams(n=4, f=1, p=1),
                                  scheduler="calendar")
        assert ExperimentConfig.from_dict(config.to_dict()).scheduler == "calendar"
        # Default-"auto" configs keep their serialized shape (cache hashes).
        default = ExperimentConfig(protocol="banyan",
                                   params=ProtocolParams(n=4, f=1, p=1))
        assert "scheduler" not in default.to_dict()
