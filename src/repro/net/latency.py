"""One-way message delay models.

A latency model answers "how long does a message from replica ``a`` to
replica ``b`` take (excluding transfer time)?".  All times are in seconds.
Models may be stochastic; they receive a :class:`random.Random` so that the
discrete-event simulator stays deterministic under a fixed seed.

Two call shapes are supported.  The scalar :meth:`LatencyModel.delay` prices
one copy; the batched row API (:meth:`LatencyModel.nominal_row` /
:meth:`LatencyModel.delay_row`) prices a whole broadcast fan-out at once and
is what the transport hot path uses at large n.  The row methods are
contractually equivalent to calling ``delay`` once per receiver in order —
same arrival values, same number and order of rng draws — which the
scalar↔batched equivalence suite pins for every shipped model.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from itertools import repeat as _repeat
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as _np

from repro.net.topology import Topology, region_rtt_ms

#: Hoisted fixed-seed probe used by the sampling fallback of
#: :meth:`LatencyModel.expected_delay` — reseeded per call instead of
#: allocating a throwaway ``random.Random(0)`` per pair (the fallback runs
#: O(n^2) times when deriving timeouts for a model without a closed form).
_PROBE_RNG = random.Random(0)

#: Number of samples drawn by the ``expected_delay`` probing fallback.
_PROBE_SAMPLES = 32

#: ``2**-53`` — the scale CPython's ``Random.random`` applies to its 53
#: significant Mersenne bits.
_RECIP53 = 1.0 / 9007199254740992.0


def _bulk_uniform(rng: random.Random, count: int):
    """``count`` consecutive ``rng.random()`` draws as one float64 array.

    CPython's ``Random.random`` consumes two 32-bit Mersenne words per call
    (a 27-bit high part and a 26-bit low part); ``getrandbits(64 * count)``
    consumes the *same* words in the same order and packs them little-endian,
    so unpacking the words recovers every draw bit-for-bit while paying one
    Python-level call instead of ``count``.  Callers must gate on
    ``type(rng) is random.Random`` — a subclass may override ``random`` or
    ``getrandbits`` and break the word-stream correspondence.
    """
    words = _np.frombuffer(
        rng.getrandbits(count << 6).to_bytes(count << 3, "little"), "<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * _RECIP53


class LatencyModel(ABC):
    """Base class for one-way delay models.

    Subclasses that never consume the rng (no stochastic jitter) should set
    :attr:`jitter_free` to ``True``: the transport then serves broadcasts
    straight from the cached nominal rows with zero model calls.  All
    shipped models are expected to override :meth:`expected_delay` with a
    closed form — the 32-sample probing fallback below exists only for
    third-party models and is O(samples) per pair (pinned by a test that
    every registered model overrides it).
    """

    #: ``True`` when :meth:`delay` never consumes the rng.  Models claiming
    #: this must also be time-invariant per pair: the nominal rows are
    #: cached per sender and reused for the whole simulation.
    jitter_free: bool = False

    @abstractmethod
    def delay(self, sender: int, receiver: int, rng: random.Random) -> float:
        """Return the one-way propagation delay in seconds for this message."""

    # ------------------------------------------------------------------ #
    # Batched row API (the broadcast hot path)
    # ------------------------------------------------------------------ #

    def nominal_row(self, sender: int, receivers: Sequence[int]) -> List[float]:
        """Dense per-destination nominal (jitter-free) delays for a fan-out.

        The row is aligned with ``receivers`` (the sender's own entry is the
        self-delivery delay) and cached per sender, so a broadcast costs one
        O(1) lookup after the first call.  Callers must treat the returned
        list as immutable — it is shared across calls.

        The base fallback prices each pair with :meth:`delay` fed from a
        fixed probe rng; it is only meaningful (and only used by the
        transport) for :attr:`jitter_free` models, whose ``delay`` ignores
        the rng entirely.
        """
        cache = self.__dict__.get("_nominal_row_cache")
        if cache is None:
            cache = self.__dict__["_nominal_row_cache"] = {}
        entry = cache.get(sender)
        if entry is not None and (entry[0] is receivers or entry[0] == receivers):
            return entry[1]
        row = self._build_nominal_row(sender, receivers)
        cache[sender] = (tuple(receivers), row)
        return row

    def _build_nominal_row(self, sender: int, receivers: Sequence[int]) -> List[float]:
        """Price one fan-out without consuming the caller's rng stream."""
        _PROBE_RNG.seed(0)
        return [self.delay(sender, receiver, _PROBE_RNG) for receiver in receivers]

    def delay_row(self, sender: int, receivers: Sequence[int],
                  rng: random.Random) -> List[float]:
        """Per-destination delays for one broadcast, batched.

        Equivalent to ``[self.delay(sender, r, rng) for r in receivers]`` —
        the rng is consumed in the exact per-receiver order the scalar path
        uses — but jittered shipped models apply their jitter in one pass
        over the cached nominal row, and jitter-free models consume nothing
        and return the cached row itself (callers must not mutate it).
        """
        if self.jitter_free:
            return self.nominal_row(sender, receivers)
        return [self.delay(sender, receiver, rng) for receiver in receivers]

    def expected_row(self, sender: int, receivers: Sequence[int]) -> List[float]:
        """Per-destination mean delays (the closed-form timeout row)."""
        return [self.expected_delay(sender, receiver) for receiver in receivers]

    # ------------------------------------------------------------------ #
    # Timeout derivation
    # ------------------------------------------------------------------ #

    def expected_delay(self, sender: int, receiver: int) -> float:
        """Return the mean one-way delay (used to derive protocol timeouts).

        The default implementation samples with a fixed-seed probe rng
        (hoisted to module level and reseeded per call); every shipped model
        overrides it with a closed form, and third-party models should too —
        the fallback costs 32 ``delay`` calls per pair.
        """
        _PROBE_RNG.seed(0)
        samples = [self.delay(sender, receiver, _PROBE_RNG)
                   for _ in range(_PROBE_SAMPLES)]
        return sum(samples) / len(samples)

    def max_expected_delay(self, replica_ids: Sequence[int]) -> float:
        """Return the largest pairwise expected delay among ``replica_ids``.

        Derived from the closed-form :meth:`expected_row` per sender rather
        than probing each pair, so configuration-time timeout derivation is
        O(n^2) arithmetic instead of O(n^2 · samples) model calls.
        """
        worst = 0.0
        for sender in replica_ids:
            row = self.expected_row(sender, replica_ids)
            for receiver, value in zip(replica_ids, row):
                if receiver != sender and value > worst:
                    worst = value
        return worst


class ConstantLatency(LatencyModel):
    """Every link has the same fixed one-way delay."""

    jitter_free = True

    def __init__(self, delay_s: float, local_delay_s: float = 0.0005) -> None:
        if delay_s < 0:
            raise ValueError("delay must be non-negative")
        self._delay = delay_s
        self._local = local_delay_s

    def delay(self, sender: int, receiver: int, rng: random.Random) -> float:
        """Return the constant delay (a small local delay for self-delivery)."""
        if sender == receiver:
            return self._local
        return self._delay

    def _build_nominal_row(self, sender: int, receivers: Sequence[int]) -> List[float]:
        delay = self._delay
        local = self._local
        return [local if receiver == sender else delay for receiver in receivers]

    def expected_delay(self, sender: int, receiver: int) -> float:
        """Return the configured constant delay."""
        return self._local if sender == receiver else self._delay


class UniformLatency(LatencyModel):
    """Delay drawn uniformly from ``[low, high]`` per message."""

    def __init__(self, low_s: float, high_s: float) -> None:
        if low_s < 0 or high_s < low_s:
            raise ValueError("need 0 <= low <= high")
        self._low = low_s
        self._high = high_s

    def delay(self, sender: int, receiver: int, rng: random.Random) -> float:
        """Sample a uniform delay."""
        if sender == receiver:
            return self._low / 2 if self._low > 0 else 0.0005
        return rng.uniform(self._low, self._high)

    def delay_row(self, sender: int, receivers: Sequence[int],
                  rng: random.Random) -> List[float]:
        """One uniform draw per non-self receiver, in receiver order.

        ``rng.uniform(a, b)`` is ``a + (b - a) * rng.random()``; inlining
        the affine form keeps the draws (and the float arithmetic)
        bit-identical to the scalar path while skipping a method call per
        receiver.
        """
        low = self._low
        span = self._high - low
        local = low / 2 if low > 0 else 0.0005
        rand = rng.random
        return [local if receiver == sender else low + span * rand()
                for receiver in receivers]

    def _build_nominal_row(self, sender: int, receivers: Sequence[int]) -> List[float]:
        # The uniform model has no single nominal value; use the mean so the
        # row is at least meaningful for reporting (the transport never uses
        # it: the model is not jitter-free).
        return self.expected_row(sender, receivers)

    def expected_delay(self, sender: int, receiver: int) -> float:
        """Return the mean of the uniform distribution."""
        if sender == receiver:
            return self._low / 2 if self._low > 0 else 0.0005
        return (self._low + self._high) / 2


class MatrixLatency(LatencyModel):
    """Explicit per-pair delays, optionally with multiplicative jitter.

    Pair lookups accept either orientation: an entry for ``(a, b)`` also
    prices ``(b, a)`` unless the reverse pair has its own entry.  The
    orientation handling is resolved once at construction time into a
    single canonical mapping, so the per-message lookup is one dict probe
    (the scalar path used to probe ``(a, b)`` then ``(b, a)`` per copy).
    """

    def __init__(self, delays: Dict[Tuple[int, int], float], jitter: float = 0.0,
                 default_s: float = 0.05) -> None:
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        self._jitter = jitter
        self._default = default_s
        self.jitter_free = jitter <= 0
        # Canonicalize at construction: exact entries win, then the mirror
        # of the reverse entry; `_base` below is a single probe either way.
        resolved: Dict[Tuple[int, int], float] = dict(delays)
        for (a, b), value in delays.items():
            resolved.setdefault((b, a), value)
        self._delays = resolved

    def _base(self, sender: int, receiver: int) -> float:
        if sender == receiver:
            return self._delays.get((sender, receiver), 0.0005)
        value = self._delays.get((sender, receiver))
        return self._default if value is None else value

    def delay(self, sender: int, receiver: int, rng: random.Random) -> float:
        """Return the matrix delay, with multiplicative jitter if configured."""
        base = self._base(sender, receiver)
        if self._jitter <= 0:
            return base
        return base * (1.0 + rng.uniform(0.0, self._jitter))

    def _build_nominal_row(self, sender: int, receivers: Sequence[int]) -> List[float]:
        base = self._base
        return [base(sender, receiver) for receiver in receivers]

    def delay_row(self, sender: int, receivers: Sequence[int],
                  rng: random.Random) -> List[float]:
        """Jitter the cached nominal row in one pass (one draw per receiver).

        ``rng.uniform(0, j)`` is ``0.0 + j * rng.random()`` which is exactly
        ``j * rng.random()`` for the non-negative draws involved, so the
        inlined form is bit-identical to the scalar path.
        """
        row = self.nominal_row(sender, receivers)
        jitter = self._jitter
        if jitter <= 0:
            return row
        rand = rng.random
        return [value * (1.0 + jitter * rand()) for value in row]

    def expected_delay(self, sender: int, receiver: int) -> float:
        """Return the matrix delay scaled by the mean jitter."""
        return self._base(sender, receiver) * (1.0 + self._jitter / 2)

    def expected_row(self, sender: int, receivers: Sequence[int]) -> List[float]:
        """The nominal row scaled by the mean jitter."""
        scale = 1.0 + self._jitter / 2
        return [value * scale for value in self.nominal_row(sender, receivers)]


class _TopologyLatency(LatencyModel):
    """Shared machinery of the topology-derived models.

    Nominal delays are materialised as one dense row per sender — a list
    indexed by receiver id (topology replica ids are ``0..n-1``), built on
    first use and O(1) per destination afterwards.  This replaces the
    ``(a, b)``-tuple dict caches: a broadcast reads a whole row without
    hashing a tuple per copy, and the scalar path indexes the same rows.
    """

    _topology: Topology
    _jitter: float

    def __init__(self, topology: Topology, jitter: float) -> None:
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        self._topology = topology
        self._jitter = jitter
        self.jitter_free = jitter <= 0
        self._rows: Dict[int, List[float]] = {}
        self._row_arrays: Dict[int, object] = {}
        self._pair_cache: Dict[Tuple[str, str], float] = {}
        self._name_templates: Dict[str, List[float]] = {}
        self._full_ids: Optional[Tuple[int, ...]] = None

    @property
    def topology(self) -> Topology:
        """The topology this model is derived from."""
        return self._topology

    def _pair_nominal(self, sender: int, receiver: int) -> float:
        """Price one (non-self) pair; subclasses implement the model."""
        raise NotImplementedError

    def _local_delay(self) -> float:
        raise NotImplementedError

    def _sender_row(self, sender: int) -> List[float]:
        row = self._rows.get(sender)
        if row is None:
            # Both shipped subclasses price a pair purely from the two
            # endpoints' datacenters, so every sender in one datacenter
            # shares the same row except its own self entry: rows are
            # copied from a per-datacenter template (built once, O(n + D)
            # via the datacenter membership lists) with the self entry
            # patched — warming all n rows costs O(n·D) template work plus
            # n list copies instead of O(n^2) per-pair lookups.
            topology = self._topology
            sender_name = topology.datacenter(sender).name
            template = self._name_templates.get(sender_name)
            if template is None:
                local = self._local_delay()
                pair_cache = self._pair_cache
                template = [0.0] * topology.n
                for datacenter in topology.datacenters():
                    receiver_name = datacenter.name
                    if receiver_name == sender_name:
                        value = local
                    else:
                        key = (sender_name, receiver_name)
                        value = pair_cache.get(key)
                        if value is None:
                            representative = topology.replicas_in(receiver_name)[0]
                            value = self._pair_nominal(sender, representative)
                            pair_cache[key] = value
                    for receiver in topology.replicas_in(receiver_name):
                        template[receiver] = value
                self._name_templates[sender_name] = template
            row = template.copy()
            row[sender] = self._local_delay() / 2
            self._rows[sender] = row
        return row

    def _nominal(self, sender: int, receiver: int) -> float:
        return self._sender_row(sender)[receiver]

    def nominal_row(self, sender: int, receivers: Sequence[int]) -> List[float]:
        """The sender's dense row (shared; callers must not mutate)."""
        row = self._sender_row(sender)
        full = self._full_ids
        if receivers is full:
            return row
        if len(receivers) == len(row):
            if full is None:
                candidate = tuple(receivers)
                if candidate == tuple(range(len(row))):
                    self._full_ids = candidate
                    return row
            elif receivers == full:
                return row
        return [row[receiver] for receiver in receivers]

    def nominal_row_array(self, sender: int, receivers: Sequence[int]):
        """The sender's dense row as a cached numpy float64 array, or ``None``.

        Only served for the full ascending replica-id set (the broadcast
        shape) — ``None`` for subsets or custom orders.  ``asarray`` on a
        float list preserves bits, so the array is element-for-element
        identical to :meth:`nominal_row`.  Callers must treat it as
        immutable — it is shared across calls.
        """
        arr = self._row_arrays.get(sender)
        if arr is not None:
            full = self._full_ids
            if receivers is full or receivers == full:
                return arr
            return None
        row = self._sender_row(sender)
        # nominal_row returns the shared dense row itself exactly when
        # ``receivers`` is the full id set — reuse its detection.
        if self.nominal_row(sender, receivers) is not row:
            return None
        arr = _np.asarray(row, dtype=_np.float64)
        self._row_arrays[sender] = arr
        return arr

    def delay_row_array(self, sender: int, receivers: Sequence[int],
                        rng: random.Random):
        """Vectorized :meth:`delay_row`, or ``None`` (rng then untouched).

        The jitter draws come from :func:`_bulk_uniform` — one
        ``getrandbits`` call that consumes the Mersenne stream exactly as
        ``count`` scalar ``rng.random()`` calls would — and the affine
        jitter application is one elementwise pass: ``row * (1.0 + jitter *
        draws)`` runs the exact IEEE operations of the scalar ``value *
        (1.0 + jitter * rand())``, so the result is bit-identical to
        :meth:`delay_row`.
        """
        arr = self.nominal_row_array(sender, receivers)
        if arr is None:
            return None
        jitter = self._jitter
        if jitter <= 0:
            return arr
        count = len(arr)
        if type(rng) is random.Random:
            draws = _bulk_uniform(rng, count)
        else:  # subclassed rng: fall back to per-draw calls
            rand = rng.random
            draws = _np.fromiter((rand() for _ in _repeat(None, count)),
                                 _np.float64, count)
        # In-place affine: ``rand * jitter``, ``+ 1.0``, ``* value`` are the
        # scalar path's operations with commuted operands — bit-identical
        # under IEEE 754 — without three temporary rows per broadcast.
        draws *= jitter
        draws += 1.0
        draws *= arr
        return draws

    def delay(self, sender: int, receiver: int, rng: random.Random) -> float:
        """Return the nominal delay with multiplicative jitter."""
        nominal = self._sender_row(sender)[receiver]
        if self._jitter <= 0:
            return nominal
        return nominal * (1.0 + rng.uniform(0.0, self._jitter))

    def delay_row(self, sender: int, receivers: Sequence[int],
                  rng: random.Random) -> List[float]:
        """Jitter the cached row in one pass (one draw per receiver).

        The inlined ``j * rng.random()`` form is bit-identical to the scalar
        path's ``rng.uniform(0.0, j)`` (``0.0 + (j - 0.0) * random()``).
        """
        row = self.nominal_row(sender, receivers)
        jitter = self._jitter
        if jitter <= 0:
            return row
        rand = rng.random
        return [value * (1.0 + jitter * rand()) for value in row]

    def expected_delay(self, sender: int, receiver: int) -> float:
        """Return the nominal delay scaled by the mean jitter."""
        return self._nominal(sender, receiver) * (1.0 + self._jitter / 2)

    def expected_row(self, sender: int, receivers: Sequence[int]) -> List[float]:
        """The nominal row scaled by the mean jitter."""
        scale = 1.0 + self._jitter / 2
        return [value * scale for value in self.nominal_row(sender, receivers)]


class GeoLatency(_TopologyLatency):
    """Geographic delay model derived from a :class:`Topology`.

    One-way delay between replicas ``a`` and ``b``::

        delay = base + distance_km / propagation_km_per_s  (+ jitter)

    where ``propagation_km_per_s`` defaults to ~2/3 of the speed of light in
    fibre plus routing inefficiency (an effective 120 km/ms is a common WAN
    rule of thumb; we use 100 km/ms to account for non-great-circle routing).
    Replicas in the same datacenter see a small constant local delay.
    """

    def __init__(
        self,
        topology: Topology,
        base_s: float = 0.002,
        km_per_s: float = 100_000.0,
        local_delay_s: float = 0.0008,
        jitter: float = 0.05,
    ) -> None:
        if km_per_s <= 0:
            raise ValueError("km_per_s must be positive")
        super().__init__(topology, jitter)
        self._base = base_s
        self._km_per_s = km_per_s
        self._local = local_delay_s

    def _local_delay(self) -> float:
        return self._local

    def _pair_nominal(self, sender: int, receiver: int) -> float:
        distance = self._topology.distance_km(sender, receiver)
        return self._base + distance / self._km_per_s


class WanMatrixLatency(_TopologyLatency):
    """Measured cloud-region RTTs mapped onto a :class:`Topology`.

    Where :class:`GeoLatency` *estimates* delay from great-circle distance,
    this model uses the measured inter-region round-trip matrix
    (:data:`repro.net.topology.AWS_REGION_RTT_MS`): the nominal one-way
    delay between replicas in regions ``A`` and ``B`` is ``RTT(A, B) / 2``,
    which carries real routing artefacts (submarine cable paths, peering
    detours) the geodesic model cannot.  Pairs without a measurement fall
    back to the great-circle estimate with :class:`GeoLatency`'s default
    coefficients.  Same-datacenter replicas see the small local delay;
    jitter is multiplicative, exactly as in the other models.

    Nominal delays are materialised as one dense row per sender (n rows of
    n floats at n=256), resolved once, then O(1) per message and O(n) — no
    lookups — per broadcast.
    """

    def __init__(
        self,
        topology: Topology,
        jitter: float = 0.05,
        local_delay_s: float = 0.0008,
        fallback_base_s: float = 0.002,
        fallback_km_per_s: float = 100_000.0,
    ) -> None:
        if fallback_km_per_s <= 0:
            raise ValueError("fallback_km_per_s must be positive")
        super().__init__(topology, jitter)
        self._local = local_delay_s
        self._fallback_base = fallback_base_s
        self._fallback_km_per_s = fallback_km_per_s

    def _local_delay(self) -> float:
        return self._local

    def _pair_nominal(self, sender: int, receiver: int) -> float:
        rtt = region_rtt_ms(self._topology.datacenter(sender).name,
                            self._topology.datacenter(receiver).name)
        if rtt is not None:
            return rtt / 2000.0  # half the RTT, ms -> s
        distance = self._topology.distance_km(sender, receiver)
        return self._fallback_base + distance / self._fallback_km_per_s


#: Topology-derived latency models selectable by name through
#: :class:`repro.eval.experiment.ExperimentConfig` and the CLI.
LATENCY_MODELS = {
    "geo": GeoLatency,
    "wan-matrix": WanMatrixLatency,
}


def available_latency_models() -> list:
    """The registered topology-latency model names, sorted."""
    return sorted(LATENCY_MODELS)


def build_latency_model(name: str, topology: Topology) -> LatencyModel:
    """Build the named topology-derived latency model.

    Raises:
        KeyError: for a name outside :data:`LATENCY_MODELS`.
    """
    try:
        factory = LATENCY_MODELS[name]
    except KeyError:
        available = ", ".join(available_latency_models())
        raise KeyError(
            f"unknown latency model {name!r} (available: {available})"
        ) from None
    return factory(topology)
