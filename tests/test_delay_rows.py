"""Reference ↔ batched equivalence for the broadcast pricing paths.

Every batched shape (``LatencyModel.nominal_row`` / ``delay_row``, the
transports' ``broadcast_arrival_row``, ``broadcast_times`` and Direct's
``broadcast_arrival_array``) must be *observably identical* to the
transport's reference pricing: the same ``(receiver, deliver_at)``
sequence, the same number and order of rng draws (pinned via
``rng.getstate()``), and the same transport counters.  The reference is
``transport.broadcast``: for Direct and Contended the base per-copy
``unicast`` loop (per-copy ``latency.delay`` / ``transfer_time`` / fault
calls), for Relay its tree.  The batched side is ``broadcast_times``,
which returns the fault-free row where the transport has one, and the
numpy arrival array.  The sweeps below (every latency model × jitter
setting × fault plan, × transport for ``broadcast_times``) are exactly the
equivalence the golden corpus relies on.
"""

import random

import pytest

from repro.net.bandwidth import BandwidthModel
from repro.net.faults import (
    CrashSchedule,
    FaultPlan,
    LossBurst,
    PartitionPlan,
)
from repro.net.latency import (
    LATENCY_MODELS,
    ConstantLatency,
    GeoLatency,
    LatencyModel,
    MatrixLatency,
    UniformLatency,
    WanMatrixLatency,
)
from repro.net.topology import four_global_datacenters
from repro.net.transport import (
    ContendedUplinkTransport,
    DirectTransport,
    RelayTransport,
)

N = 12

TOPOLOGY = four_global_datacenters(N)


class _Msg:
    wire_size = 2048


def _matrix_delays():
    rng = random.Random(7)
    return {
        (a, b): 0.01 + 0.09 * rng.random()
        for a in range(N)
        for b in range(a + 1, N)
        if rng.random() < 0.7  # leave holes so the default path is hit too
    }


#: label -> factory; each factory returns a fresh model instance.
LATENCY_CASES = {
    "constant": lambda: ConstantLatency(0.02),
    "uniform": lambda: UniformLatency(0.01, 0.05),
    "matrix-j0": lambda: MatrixLatency(_matrix_delays(), jitter=0.0),
    "matrix-j": lambda: MatrixLatency(_matrix_delays(), jitter=0.08),
    "geo-j0": lambda: GeoLatency(TOPOLOGY, jitter=0.0),
    "geo-j": lambda: GeoLatency(TOPOLOGY, jitter=0.05),
    "wan-j0": lambda: WanMatrixLatency(TOPOLOGY, jitter=0.0),
    "wan-j": lambda: WanMatrixLatency(TOPOLOGY, jitter=0.05),
}

#: label -> factory; plans chosen to hit every rng-consumption branch:
#: none (the fault-free rows), crashes/partition (no drop draws: Direct's
#: survivors branch under every latency model), drops/burst/everything
#: (drop draws: Direct's survivors branch under the jitter-free models and
#: for sends outside the burst window, else the per-copy reference, where
#: drop and propagation draws interleave).
FAULT_CASES = {
    "none": lambda: FaultPlan.none(),
    "crashes": lambda: FaultPlan(
        crash_schedule=CrashSchedule(crash_times={2: 0.0, 5: 1.5},
                                     recover_times={5: 3.0})
    ),
    "partition": lambda: FaultPlan(
        partitions=PartitionPlan.single(1.0, 4.0, group_a=range(0, 4),
                                        group_b=range(4, N))
    ),
    "drops": lambda: FaultPlan(drop_probability=0.2),
    "burst": lambda: FaultPlan(
        loss_bursts=[LossBurst(start=0.5, end=5.0, probability=0.3)]
    ),
    "everything": lambda: FaultPlan(
        crash_schedule=CrashSchedule(crash_times={1: 0.0}),
        drop_probability=0.1,
        partitions=PartitionPlan.single(2.0, 3.0, group_a=range(0, 6),
                                        group_b=range(6, N)),
        loss_bursts=[LossBurst(start=1.0, end=2.5, probability=0.25)],
    ),
}

TRANSPORT_CASES = {
    "direct": lambda lat, bw, fp: DirectTransport(lat, bw, fp),
    "contended": lambda lat, bw, fp: ContendedUplinkTransport(lat, bw, fp),
    "relay": lambda lat, bw, fp: RelayTransport(lat, bw, fp, relays=3),
}

#: Broadcast schedule: (sender, time) — repeats senders to exercise the
#: row caches, advances time through the fault windows, and lands one
#: send exactly on a window boundary.
SCHEDULE = [(0, 0.0), (3, 0.2), (0, 0.2), (7, 1.0), (3, 1.7), (0, 2.0),
            (11, 2.6), (7, 3.0), (5, 3.2), (0, 4.1)]


def _run(transport_factory, latency_factory, fault_factory, batched):
    """Run the broadcast schedule; return (pairs per send, rng state, stats)."""
    latency = latency_factory()
    faults = fault_factory()
    bandwidth = BandwidthModel(topology=TOPOLOGY)
    transport = transport_factory(latency, bandwidth, faults)
    rng = random.Random(1234)
    receivers = tuple(range(N))
    message = _Msg()
    result = []
    for sender, now in SCHEDULE:
        if batched:
            times, targets = transport.broadcast_times(sender, receivers,
                                                       message, now, rng)
            assert len(times) == len(targets)
            pairs = list(zip(targets, times))
        else:
            pairs = [
                (delivery.receiver, delivery.deliver_at)
                for delivery in transport.broadcast(sender, receivers, message,
                                                    now, rng)
            ]
        result.append(pairs)
    return result, rng.getstate(), transport.stats()


@pytest.mark.parametrize("fault_name", sorted(FAULT_CASES))
@pytest.mark.parametrize("latency_name", sorted(LATENCY_CASES))
@pytest.mark.parametrize("transport_name", sorted(TRANSPORT_CASES))
def test_batched_equals_scalar(transport_name, latency_name, fault_name):
    transport_factory = TRANSPORT_CASES[transport_name]
    latency_factory = LATENCY_CASES[latency_name]
    fault_factory = FAULT_CASES[fault_name]
    scalar_pairs, scalar_state, scalar_stats = _run(
        transport_factory, latency_factory, fault_factory, batched=False)
    batched_pairs, batched_state, batched_stats = _run(
        transport_factory, latency_factory, fault_factory, batched=True)
    # Bit-identical arrivals, in the same order — `==` on floats, no
    # tolerance: the golden corpus digests depend on the exact bytes.
    assert batched_pairs == scalar_pairs
    # The rng stream position must match draw for draw.
    assert batched_state == scalar_state
    # Transport counters (NIC queue, wire/sender copies) advance alike.
    assert batched_stats == scalar_stats


@pytest.mark.parametrize("fault_name", sorted(FAULT_CASES))
@pytest.mark.parametrize("latency_name", sorted(LATENCY_CASES))
def test_direct_arrival_array_equals_reference(latency_name, fault_name):
    """Direct's numpy arrival array, where it is served, equals the
    reference ``broadcast`` bit for bit, draw for draw; where it is refused
    (``None``) it draws nothing."""
    def build():
        return DirectTransport(LATENCY_CASES[latency_name](),
                               BandwidthModel(topology=TOPOLOGY),
                               FAULT_CASES[fault_name]())

    array_side, reference_side = build(), build()
    array_rng, reference_rng = random.Random(1234), random.Random(1234)
    receivers = tuple(range(N))
    message = _Msg()
    served = 0
    for sender, now in SCHEDULE:
        deliveries = reference_side.broadcast(sender, receivers, message,
                                              now, reference_rng)
        before = array_rng.getstate()
        arrivals = array_side.broadcast_arrival_array(
            sender, receivers, message, now, array_rng)
        if arrivals is None:
            assert array_rng.getstate() == before
            # Keep both sides in step: the refused send takes the reference.
            array_side.broadcast(sender, receivers, message, now, array_rng)
        else:
            served += 1
            assert [d.receiver for d in deliveries] == list(receivers)
            assert [t.hex() for t in arrivals.tolist()] == \
                [d.deliver_at.hex() for d in deliveries]
        assert array_rng.getstate() == reference_rng.getstate()
    # Served exactly for fault-free sends on the models with numpy rows.
    has_arrays = hasattr(array_side.latency, "delay_row_array")
    assert served == (len(SCHEDULE) if has_arrays and fault_name == "none"
                      else 0)


@pytest.mark.parametrize("latency_name", sorted(LATENCY_CASES))
def test_delay_row_matches_scalar_delay(latency_name):
    """`delay_row` == per-receiver `delay` calls, values and rng stream."""
    receivers = tuple(range(N))
    for sender in (0, 4, N - 1):
        scalar_model = LATENCY_CASES[latency_name]()
        batched_model = LATENCY_CASES[latency_name]()
        scalar_rng = random.Random(99)
        batched_rng = random.Random(99)
        for _ in range(3):  # repeat: caches must not change results
            scalar = [scalar_model.delay(sender, receiver, scalar_rng)
                      for receiver in receivers]
            batched = batched_model.delay_row(sender, receivers, batched_rng)
            assert batched == scalar
            assert batched_rng.getstate() == scalar_rng.getstate()


@pytest.mark.parametrize("latency_name", sorted(LATENCY_CASES))
def test_nominal_row_consumes_no_rng(latency_name):
    model = LATENCY_CASES[latency_name]()
    rng = random.Random(5)
    state = rng.getstate()
    model.nominal_row(0, tuple(range(N)))
    assert rng.getstate() == state  # nominal_row takes no rng at all
    if model.jitter_free:
        # Jitter-free models must serve delay_row without drawing either.
        model.delay_row(0, tuple(range(N)), rng)
        assert rng.getstate() == state


def test_jitter_free_flags():
    assert ConstantLatency(0.02).jitter_free
    assert MatrixLatency({}, jitter=0.0).jitter_free
    assert not MatrixLatency({}, jitter=0.1).jitter_free
    assert GeoLatency(TOPOLOGY, jitter=0.0).jitter_free
    assert not GeoLatency(TOPOLOGY, jitter=0.05).jitter_free
    assert WanMatrixLatency(TOPOLOGY, jitter=0.0).jitter_free
    assert not WanMatrixLatency(TOPOLOGY, jitter=0.05).jitter_free
    assert not UniformLatency(0.01, 0.02).jitter_free


class TestMatrixCanonicalKeys:
    def test_reverse_orientation_resolved_at_construction(self):
        model = MatrixLatency({(0, 1): 0.05})
        rng = random.Random(0)
        assert model.delay(0, 1, rng) == 0.05
        assert model.delay(1, 0, rng) == 0.05

    def test_exact_entry_wins_over_mirror(self):
        model = MatrixLatency({(0, 1): 0.05, (1, 0): 0.09})
        rng = random.Random(0)
        assert model.delay(0, 1, rng) == 0.05
        assert model.delay(1, 0, rng) == 0.09

    def test_missing_pair_uses_default(self):
        model = MatrixLatency({(0, 1): 0.05}, default_s=0.123)
        rng = random.Random(0)
        assert model.delay(2, 3, rng) == 0.123


class TestExpectedDelayClosedForms:
    def test_all_shipped_models_override_the_probe_fallback(self):
        """Every shipped model must have a closed-form expected_delay.

        The base-class fallback draws 32 samples per pair — O(n² · 32)
        model calls when deriving timeouts.  Shipped models override it;
        this pins that a new model cannot silently regress to probing.
        """
        shipped = [ConstantLatency, UniformLatency, MatrixLatency,
                   GeoLatency, WanMatrixLatency]
        shipped.extend(LATENCY_MODELS.values())
        for model_cls in shipped:
            assert model_cls.expected_delay is not LatencyModel.expected_delay, (
                f"{model_cls.__name__} must override expected_delay with a "
                "closed form"
            )

    @pytest.mark.parametrize("latency_name", sorted(LATENCY_CASES))
    def test_max_expected_delay_matches_bruteforce(self, latency_name):
        model = LATENCY_CASES[latency_name]()
        ids = tuple(range(N))
        brute = max(
            model.expected_delay(a, b)
            for a in ids for b in ids if a != b
        )
        assert model.max_expected_delay(ids) == brute

    def test_probe_fallback_still_works_for_third_party_models(self):
        class ThirdParty(LatencyModel):
            def delay(self, sender, receiver, rng):
                return 0.01 + 0.01 * rng.random()

        model = ThirdParty()
        value = model.expected_delay(0, 1)
        assert 0.01 <= value <= 0.02
        # Deterministic: the probe rng is reseeded per call.
        assert model.expected_delay(0, 1) == value

    def test_base_rows_keep_third_party_models_working(self):
        class ThirdParty(LatencyModel):
            def delay(self, sender, receiver, rng):
                return 0.002 * (sender + receiver + 1)

        model = ThirdParty()
        receivers = tuple(range(4))
        assert model.nominal_row(1, receivers) == [
            model.delay(1, receiver, random.Random(0))
            for receiver in receivers
        ]
        rng = random.Random(3)
        assert model.delay_row(1, receivers, rng) == [
            0.002 * (1 + receiver + 1) for receiver in receivers
        ]


class TestRowCaches:
    def test_nominal_row_rebuilds_for_different_receiver_sets(self):
        model = GeoLatency(TOPOLOGY, jitter=0.0)
        full = tuple(range(N))
        subset = (0, 3, 7)
        full_row = model.nominal_row(0, full)
        subset_row = model.nominal_row(0, subset)
        assert subset_row == [full_row[0], full_row[3], full_row[7]]
        # Asking for the full set again still returns the full row.
        assert model.nominal_row(0, full) == full_row

    def test_transfer_rows_not_cached_for_custom_bandwidth(self):
        class CountingBandwidth(BandwidthModel):
            calls = 0

            def transfer_time(self, sender, receiver, size_bytes):
                CountingBandwidth.calls += 1
                return super().transfer_time(sender, receiver, size_bytes)

        bandwidth = CountingBandwidth(topology=TOPOLOGY)
        transport = DirectTransport(ConstantLatency(0.02), bandwidth,
                                    FaultPlan.none())
        rng = random.Random(0)
        receivers = tuple(range(N))
        transport.broadcast_times(0, receivers, _Msg(), 0.0, rng)
        transport.broadcast_times(0, receivers, _Msg(), 0.1, rng)
        # A custom bandwidth model keeps the per-copy call pattern: one
        # call per receiver per broadcast, never served from a cached row.
        assert CountingBandwidth.calls == 2 * N
