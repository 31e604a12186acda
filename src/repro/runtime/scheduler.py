"""Pluggable event schedulers: binary heap and calendar queue.

The simulator owns one priority queue of ``(time, seq, kind, target,
payload)`` event tuples ordered by ``(time, seq)``.  This module provides
that queue behind a small seam so the dispatch loop can pick a backend:

* :class:`HeapScheduler` — the original ``heapq`` binary heap, kept as the
  runtime reference implementation (``scheduler="heap"``).  Its internal
  list is handed to the heap loop directly, so the hot path is exactly
  the pre-seam code.
* :class:`CalendarQueue` — a calendar/ladder queue tuned for the
  simulator's jittered-broadcast shape (``scheduler="calendar"``; only
  zero-compute, crash-free runs, see :func:`build_scheduler`): event
  times are near-monotone and densely clustered, and almost every event
  is one member of an in-flight broadcast.  Broadcasts are *spilled* as
  vectorized segments (one numpy slice per bucket) instead of one chained
  heap entry, buckets materialize into plain delivery tuples through bulk
  C operations, and a far-future overflow rung keeps long timers from
  stretching the bucket window.

Ordering contract (byte-identity with the heap backend): every pop
sequence must replay the exact ``(time, seq)`` total order the heap
produces.  A spilled broadcast consumes exactly ONE sequence number — the
same draw the heap backend's chained ``sbatch`` event makes — so
exact-time ties between a broadcast's members and any other event break
by the broadcast's schedule position, identically in both backends.
Members of one broadcast tie in schedule order (the transport's sorted
order), which the stable materialization sort preserves.  Members that
must be represented as standalone tuples (far-future overflow, the head
landing inside the open bucket) carry fractional sequence numbers
``base + i/count``:
they compare numerically against every integer sequence number, never
collide with one, and order the broadcast's members among themselves in
schedule order without consuming extra counter draws.

Bucket mapping uses the single expression ``int(t * inv_width)``
everywhere (scalar pushes and the vectorized ``astype`` spill cut), so an
event's bucket is a pure function of its time — no float-edge case can
place two events with ordered times into inverted buckets.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from functools import partial
from typing import Any, List, Optional, Tuple

import numpy as _np

#: Registered scheduler backend names (``"auto"`` resolves per simulation).
SCHEDULERS = ("auto", "heap", "calendar")

#: Number of ring buckets (fixed power of two; adaptivity is in the bucket
#: *width*, re-chosen when the occupancy counters drift — see
#: :meth:`CalendarQueue._maybe_adapt`).
_NBUCKETS = 4096
_MASK = _NBUCKETS - 1

#: Times at or beyond this bound bypass the ``int(t * inv)`` bucket
#: mapping (guards ``OverflowError`` on ``inf`` and keeps the vectorized
#: ``astype(int64)`` cut exact).
_FAR_TIME = 2.0 ** 52

#: Virtual bucket index for the degenerate "everything left is far
#: future" window: any finite push then sorts into the inc heap.
_FAR_V = 1 << 62

#: Adaptivity check cadence (advances between counter evaluations).
_ADAPT_EVERY = 512

#: Sentinel in the materialized bucket's target column marking a standard
#: 5-tuple event (stored in the message column).  Distinct from the
#: external-event target (-1), which is a real dispatch target.
_STD = -2


class HeapScheduler:
    """The reference binary-heap backend (a thin veneer over ``heapq``).

    The heap loop bypasses this object and works on ``heap``
    directly; the methods serve scheduling and the tests so both backends
    present one surface (``push`` is ``heappush`` bound to the heap).
    """

    __slots__ = ("heap", "push", "_seq")

    name = "heap"

    def __init__(self, seq) -> None:
        self.heap: List[tuple] = []
        self.push = partial(heappush, self.heap)
        self._seq = seq

    def __len__(self) -> int:
        return len(self.heap)

    def spill(self, times, targets, sender: int, message: Any,
              payload: Tuple[int, Any]) -> None:
        """One broadcast's sorted schedule (as :meth:`CalendarQueue.spill`
        takes it) as ONE chained ``sbatch`` entry under one sequence
        number; ``index`` (payload slot 2) is the heap loop's resume point.
        """
        times = times.tolist()
        targets = targets.tolist()
        heappush(self.heap, (times[0], next(self._seq), "sbatch", targets[0],
                             [times, targets, 0, sender, message, len(times),
                              payload]))

    def pop(self) -> tuple:
        return heappop(self.heap)

    def peek(self) -> Optional[tuple]:
        heap = self.heap
        return heap[0] if heap else None

    def stats(self) -> dict:
        return {"backend": "heap", "resident": len(self.heap)}


class CalendarQueue:
    """Calendar queue with vectorized broadcast spill.

    Layout:

    * ``_cur_times`` / ``_cur_targets`` / ``_cur_senders`` /
      ``_cur_messages`` / ``_pos`` — the *materialized* current bucket:
      four parallel columns already in final ``(time, seq)`` order,
      consumed by index.  A broadcast member occupies one row (its kind
      is implicitly ``"message"``); a standard event stores the
      :data:`_STD` sentinel in the target column and its whole 5-tuple in
      the message column.  Columns of scalars instead of a list of
      per-event tuples keep the bucket invisible to the cyclic garbage
      collector — floats and ints are not gc-tracked, so materializing a
      million members allocates no collectable containers (a measured
      ~25% of the flood run was gen-0/1 collections scanning per-member
      tuples).  Nothing mutates a materialized bucket except the dispatch
      loop's own front-requeues, so the loop can walk it by local index.
    * ``_ring`` — ``_NBUCKETS`` unsorted slots of future entries.  An
      entry is either a standard event tuple or a broadcast *segment*
      ``(times_array, targets_array, base_seq, sender, message)`` holding
      the slice of one broadcast's sorted schedule that falls inside the
      slot's bucket.  Append order is schedule order, which is what lets
      the stable materialization sort reproduce ``(time, seq)`` order
      without per-member sequence numbers.
    * ``_inc`` — a small heap of standard tuples that arrived *inside*
      the current bucket's span after it materialized (zero/short-delay
      timers and sends).  Everything in ``_inc`` was scheduled after
      everything resident in ``_cur``, so merging by bare time with
      ``_cur`` winning exact-time ties is exact.
    * ``_overflow`` — heap of standard tuples beyond the ring horizon
      (far-future timers, the tail of very spread broadcasts); migrated
      into the ring as the window advances.
    """

    __slots__ = (
        "_cur_times", "_cur_targets", "_cur_senders", "_cur_messages",
        "_pos", "_ring", "_ring_count", "_inc", "_overflow", "_width",
        "_inv", "_cur_v", "_horizon_v", "_horizon_t", "_seq", "_adopted",
        "_advances", "_scans", "_inc_pops", "_materialized",
        "_materialized_events", "_rebuilds", "_spilled_segments",
    )

    name = "calendar"

    def __init__(self, seq) -> None:
        self._cur_times: List[float] = []
        self._cur_targets: List[int] = []
        self._cur_senders: List[int] = []
        self._cur_messages: List[Any] = []
        self._pos = 0
        self._ring: List[list] = [[] for _ in range(_NBUCKETS)]
        self._ring_count = 0
        self._inc: List[tuple] = []
        self._overflow: List[tuple] = []
        # Re-derived from the first spilled broadcast's spread (and later
        # from the occupancy counters); the initial guess only carries
        # single-push workloads, where any width works.
        self._width = 1e-3
        self._inv = 1.0 / self._width
        self._cur_v = 0
        self._horizon_v = _NBUCKETS
        self._horizon_t = _NBUCKETS * self._width
        self._seq = seq
        self._adopted = False
        self._advances = 0
        self._scans = 0
        self._inc_pops = 0
        self._materialized = 0
        self._materialized_events = 0
        self._rebuilds = 0
        self._spilled_segments = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return (len(self._cur_times) - self._pos + self._ring_count
                + len(self._inc) + len(self._overflow))

    def stats(self) -> dict:
        """Occupancy / adaptivity counters (observability only)."""
        return {
            "backend": "calendar",
            "resident": len(self),
            "width": self._width,
            "segments": self._spilled_segments,
            "materialized_buckets": self._materialized,
            "inc_pops": self._inc_pops,
            "empty_scans": self._scans,
            "rebuilds": self._rebuilds,
        }

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    def push(self, event: tuple) -> None:
        """Insert one standard ``(time, seq, kind, target, payload)`` tuple."""
        t = event[0]
        if t < self._horizon_t and t < _FAR_TIME:
            v = int(t * self._inv)
            if v <= self._cur_v:
                # Inside (or before) the materialized bucket: the event
                # was scheduled after everything resident there, so the
                # merge rule (cur wins exact-time ties) stays exact.
                heappush(self._inc, event)
            elif v < self._horizon_v:
                self._ring[v & _MASK].append(event)
                self._ring_count += 1
            else:  # mapping edge of the horizon compare
                heappush(self._overflow, event)
        else:
            heappush(self._overflow, event)

    def spill(self, times, targets, sender: int, message: Any,
              payload: Tuple[int, Any]) -> None:
        """Spill one broadcast's sorted schedule as per-bucket segments.

        ``times`` must be an ascending float64 numpy array and ``targets``
        the aligned receiver-id array; exactly one sequence number is
        consumed (mirroring the heap backend's single ``sbatch`` push).
        """
        base = next(self._seq)
        if not self._adopted:
            self._adopted = True
            width = self._spread_width(times)
            if width != self._width:
                self._rebuild(width)
        if not len(self):
            self._reset_window(float(times[0]))
        self._spill_arrays(times, targets, base, sender, message, payload)

    def _spill_arrays(self, times, targets, base, sender: int, message: Any,
                      payload: Tuple[int, Any]) -> None:
        count = len(times)
        if float(times[0]) >= _FAR_TIME:
            self._spill_overflow(times, targets, base, sender, message,
                                 payload, 0)
            return
        inv = self._inv
        # Finite prefix first: the vectorized bucket cut must never run
        # ``astype`` over inf/huge times.
        if float(times[count - 1]) >= _FAR_TIME:
            finite = int(_np.searchsorted(times, _FAR_TIME, side="left"))
        else:
            finite = count
        # The SAME mapping expression as push() — ``t * inv`` truncated —
        # so a member's bucket can never disagree with a scalar push's.
        v_arr = (times[:finite] * inv).astype(_np.int64)
        horizon_v = self._horizon_v
        cur_v = self._cur_v
        if int(v_arr[finite - 1]) >= horizon_v:
            win = int(_np.searchsorted(v_arr, horizon_v, side="left"))
        else:
            win = finite
        if win and int(v_arr[0]) <= cur_v:
            # Members landing inside the materialized bucket: scheduled
            # after everything resident, so the inc heap keeps the merge
            # exact (fractional seqs order them among themselves).
            head = int(_np.searchsorted(v_arr, cur_v + 1, side="left"))
            if head > win:
                head = win
            inc = self._inc
            head_times = times[:head].tolist()
            head_targets = targets[:head].tolist()
            for i in range(head):
                heappush(inc, (head_times[i],
                               base + i / count if i else base,
                               "message", head_targets[i], payload))
        else:
            head = 0
        if win > head:
            ring = self._ring
            v0 = int(v_arr[head])
            if v0 == int(v_arr[win - 1]):
                # Whole (in-window) broadcast inside one bucket — the
                # common case once the width adapts: one segment, no cut.
                ring[v0 & _MASK].append(
                    (times[head:win], targets[head:win], base, sender,
                     message))
                self._ring_count += win - head
                self._spilled_segments += 1
            else:
                vs = v_arr[head:win]
                rel = _np.flatnonzero(vs[1:] != vs[:-1]) + 1
                # One bulk extraction for the segment cut points and slot
                # ids: no per-segment numpy-scalar boxing in the loop.
                cuts = rel.tolist()
                seg_ids = vs.take(rel).tolist()
                slot_id = int(v_arr[head])
                lo = head
                for k in range(len(cuts)):
                    hi = head + cuts[k]
                    ring[slot_id & _MASK].append(
                        (times[lo:hi], targets[lo:hi], base, sender,
                         message))
                    slot_id = seg_ids[k]
                    lo = hi
                ring[slot_id & _MASK].append(
                    (times[lo:win], targets[lo:win], base, sender, message))
                self._ring_count += win - head
                self._spilled_segments += len(cuts) + 1
        if win < count:
            self._spill_overflow(times, targets, base, sender, message,
                                 payload, win)

    def _spill_overflow(self, times, targets, base, sender: int,
                        message: Any, payload, start: int) -> None:
        """Far-future tail: standard tuples with fractional member seqs."""
        overflow = self._overflow
        count = len(times)
        for i in range(start, count):
            heappush(overflow, (float(times[i]),
                                base + i / count if i else base,
                                "message", int(targets[i]), payload))

    def _spread_width(self, times) -> float:
        """Bucket width sized so one broadcast spans a dozen buckets.

        The divisor trades segment count against ``_inc`` traffic: wider
        buckets mean fewer per-bucket segments but more broadcast heads
        landing inside the *open* bucket (each one a heap push/pop and a
        slow merge fetch).  ``span / 12`` measured best on the n=256
        wan-matrix flood — half the inc traffic of ``span / 6`` before
        segment overhead starts to dominate.
        """
        span = float(times[-1]) - float(times[0])
        if not math.isfinite(span) or span <= 0.0:
            return self._width
        return max(span / 12.0, 1e-9)

    # ------------------------------------------------------------------ #
    # Consumption (cold paths; the calendar loop inlines all of this)
    # ------------------------------------------------------------------ #

    def _inc_first(self, pos: int) -> bool:
        """Whether the ``_inc`` head precedes the resident row at ``pos``.

        Residents win exact-time ties: they were scheduled first.
        """
        return self._inc[0][0] < self._cur_times[pos]

    def pop(self) -> tuple:
        """Pop the global minimum as a standard-form event tuple."""
        while True:
            inc = self._inc
            pos = self._pos
            if pos < len(self._cur_times):
                t = self._cur_times[pos]
                if inc and self._inc_first(pos):
                    self._inc_pops += 1
                    return heappop(inc)
                self._pos = pos + 1
                target = self._cur_targets[pos]
                if target == _STD:
                    return self._cur_messages[pos]
                return (t, -1, "message", target,
                        (self._cur_senders[pos], self._cur_messages[pos]))
            if inc:
                self._inc_pops += 1
                return heappop(inc)
            if not (self._ring_count or self._overflow):
                raise IndexError("pop from an empty CalendarQueue")
            self._advance()

    def peek(self) -> Optional[tuple]:
        """The head event in standard form, or ``None`` when empty."""
        while True:
            inc = self._inc
            pos = self._pos
            if pos < len(self._cur_times):
                t = self._cur_times[pos]
                if inc and self._inc_first(pos):
                    return inc[0]
                target = self._cur_targets[pos]
                if target == _STD:
                    return self._cur_messages[pos]
                return (t, -1, "message", target,
                        (self._cur_senders[pos], self._cur_messages[pos]))
            if inc:
                return inc[0]
            if not (self._ring_count or self._overflow):
                return None
            self._advance()

    def _advance(self) -> None:
        """Materialize the next non-empty bucket into ``_cur``.

        Precondition: the current bucket and inc heap are exhausted and at
        least one event remains in the ring or overflow rung.
        """
        self._advances += 1
        if self._advances >= _ADAPT_EVERY:
            self._maybe_adapt()
        overflow = self._overflow
        if not self._ring_count:
            # Ring empty: jump the window to the overflow head.
            t0 = overflow[0][0]
            if t0 >= _FAR_TIME:
                # Everything left is far-future/inf: degenerate to one
                # sorted run (finite pushes then land in the inc heap).
                drained = sorted(overflow)
                del overflow[:]
                self._cur_times = [event[0] for event in drained]
                self._cur_targets = [_STD] * len(drained)
                self._cur_senders = [0] * len(drained)
                self._cur_messages = drained
                self._pos = 0
                self._cur_v = _FAR_V
                self._horizon_v = _FAR_V + _NBUCKETS
                self._horizon_t = math.inf
                self._materialized += 1
                self._materialized_events += len(drained)
                return
            v0 = int(t0 * self._inv)
            self._cur_v = v0 - 1
            self._horizon_v = v0 - 1 + _NBUCKETS
            self._horizon_t = self._horizon_v * self._width
        if overflow and overflow[0][0] < self._horizon_t:
            self._migrate()
        ring = self._ring
        v = self._cur_v + 1
        slot = ring[v & _MASK]
        while not slot:
            v += 1
            slot = ring[v & _MASK]
        ring[v & _MASK] = []
        self._scans += v - self._cur_v - 1
        self._cur_v = v
        self._horizon_v = v + _NBUCKETS
        self._horizon_t = self._horizon_v * self._width
        self._materialize(slot)

    def _migrate(self) -> None:
        """Move overflow events that now fall inside the ring window.

        Runs before the ring scan, and the horizon only ever grows — so
        every overflow event is back in the ring before its bucket can
        materialize.
        """
        overflow = self._overflow
        ring = self._ring
        inv = self._inv
        horizon_t = self._horizon_t
        horizon_v = self._horizon_v
        cur_v = self._cur_v
        moved = 0
        while overflow and overflow[0][0] < horizon_t:
            event = heappop(overflow)
            v = int(event[0] * inv)
            if v >= horizon_v:  # mapping edge: keep it in the rung
                heappush(overflow, event)
                break
            if v <= cur_v:
                v = cur_v + 1
            ring[v & _MASK].append(event)
            moved += 1
        self._ring_count += moved

    def _materialize(self, slot: list) -> None:
        """Sort one bucket's entries into the final delivery columns.

        Segments concatenate and stable-sort in bulk: the key is the bare
        time, and concatenation order is schedule order, so stability
        reproduces the ``(time, seq)`` tie-break.  Standard tuples then
        merge in by time, resolving exact ties against the segments' base
        sequence numbers (schedule order again).
        """
        self._materialized += 1
        count = 0
        segments = None
        singles = None
        for entry in slot:
            if type(entry[0]) is float:
                count += 1
                if singles is None:
                    singles = [entry]
                else:
                    singles.append(entry)
            else:
                count += len(entry[0])
                if segments is None:
                    segments = [entry]
                else:
                    segments.append(entry)
        self._ring_count -= count
        self._materialized_events += count
        self._pos = 0
        if segments is None:
            singles.sort()
            self._cur_times = [event[0] for event in singles]
            self._cur_targets = [_STD] * len(singles)
            self._cur_senders = [0] * len(singles)
            self._cur_messages = singles
            return
        if len(segments) == 1:
            times, targets, base, sender, message = segments[0]
            order = times.argsort(kind="stable")
            times_s = times.take(order)
            targets_s = targets.take(order)
            senders_s = None
            messages_s = None
        else:
            lens = [len(entry[0]) for entry in segments]
            times_all = _np.concatenate([entry[0] for entry in segments])
            targets_all = _np.concatenate([entry[1] for entry in segments])
            senders = _np.fromiter((entry[3] for entry in segments),
                                   _np.int64, len(segments))
            messages = _np.empty(len(segments), dtype=object)
            for i, entry in enumerate(segments):
                messages[i] = entry[4]
            order = times_all.argsort(kind="stable")
            times_s = times_all.take(order)
            targets_s = targets_all.take(order)
            senders_s = _np.repeat(senders, lens).take(order)
            messages_s = _np.repeat(messages, lens).take(order)
        if singles is not None:
            self._merge_singles(times_s, targets_s, senders_s, messages_s,
                                segments, order, singles)
            return
        n = len(times_s)
        self._cur_times = times_s.tolist()
        self._cur_targets = targets_s.tolist()
        if senders_s is None:
            sender = segments[0][3]
            message = segments[0][4]
            self._cur_senders = [sender] * n
            self._cur_messages = [message] * n
        else:
            self._cur_senders = senders_s.tolist()
            self._cur_messages = messages_s.tolist()

    def _merge_singles(self, times_s, targets_s, senders_s, messages_s,
                       segments: list, order, singles: list) -> None:
        """Splice standard tuples into the sorted member columns.

        Insertion indices are computed against the member-only arrays (so
        segment base-seq lookups through ``order`` stay valid), then all
        columns are rebuilt in one vectorized scatter.
        """
        singles.sort()
        n = len(times_s)
        k = len(singles)
        single_times = _np.fromiter((event[0] for event in singles),
                                    _np.float64, k)
        # ``side='right'``: a single loses exact-time ties by default (it
        # was scheduled after same-time members in the common case); the
        # scan below corrects the rare tie it actually wins by seq.
        idx = _np.searchsorted(times_s, single_times, side="right")
        bases_get = None  # per-member base seqs, built only if a tie needs it
        for j in range(k):
            event = singles[j]
            t = event[0]
            hi = int(idx[j])
            lo = hi
            while lo > 0 and times_s[lo - 1] == t:
                lo -= 1
            if lo < hi:
                # Exact-time tie against resident members: order by this
                # event's seq vs their segment base seq (the broadcast's
                # schedule position).
                seq = event[1]
                if bases_get is None:
                    if len(segments) == 1:
                        base = segments[0][2]
                        bases_get = lambda i, _b=base: _b  # noqa: E731
                    else:
                        lens = [len(entry[0]) for entry in segments]
                        expanded = _np.repeat(
                            _np.fromiter((entry[2] for entry in segments),
                                         _np.int64, len(segments)),
                            lens).take(order)
                        bases_get = expanded.__getitem__
                index = hi
                for i in range(hi - 1, lo - 1, -1):
                    if bases_get(i) < seq:
                        break
                    index = i
                idx[j] = index
        # Group-splice: singles cluster on few distinct insertion points
        # (commonly ONE — a timer tick instant shared by every replica),
        # so concatenating list runs around each cut beats a full-width
        # scatter through object arrays.
        times_l = times_s.tolist()
        targets_l = targets_s.tolist()
        if senders_s is None:
            senders_l = [segments[0][3]] * n
            messages_l = [segments[0][4]] * n
        else:
            senders_l = senders_s.tolist()
            messages_l = messages_s.tolist()
        out_times: List[float] = []
        out_targets: List[int] = []
        out_senders: List[int] = []
        out_messages: List[Any] = []
        idx_l = idx.tolist()
        prev = 0
        j = 0
        while j < k:
            cut = idx_l[j]
            jj = j + 1
            while jj < k and idx_l[jj] == cut:
                jj += 1
            group = singles[j:jj]
            out_times += times_l[prev:cut]
            out_targets += targets_l[prev:cut]
            out_senders += senders_l[prev:cut]
            out_messages += messages_l[prev:cut]
            out_times += [event[0] for event in group]
            out_targets += [_STD] * (jj - j)
            out_senders += [0] * (jj - j)
            out_messages += group
            prev = cut
            j = jj
        out_times += times_l[prev:]
        out_targets += targets_l[prev:]
        out_senders += senders_l[prev:]
        out_messages += messages_l[prev:]
        self._cur_times = out_times
        self._cur_targets = out_targets
        self._cur_senders = out_senders
        self._cur_messages = out_messages

    # ------------------------------------------------------------------ #
    # Window management
    # ------------------------------------------------------------------ #

    def _reset_window(self, t: float) -> None:
        """Re-anchor the bucket window at ``t`` (queue just went empty)."""
        if t >= _FAR_TIME:
            self._cur_v = _FAR_V
            self._horizon_v = _FAR_V + _NBUCKETS
            self._horizon_t = math.inf
        else:
            v = int(t * self._inv)
            self._cur_v = v - 1
            self._horizon_v = v - 1 + _NBUCKETS
            self._horizon_t = self._horizon_v * self._width
        self._cur_times = []
        self._cur_targets = []
        self._cur_senders = []
        self._cur_messages = []
        self._pos = 0

    def _maybe_adapt(self) -> None:
        """Re-derive the bucket width from the occupancy counters.

        Many empty-slot scans per advance → buckets too narrow (double the
        width); heavy inc-heap traffic → buckets so wide that short-delay
        events keep landing inside the open bucket (halve it).
        """
        scans = self._scans
        advances = self._advances
        events = self._materialized_events
        inc_pops = self._inc_pops
        self._advances = 0
        self._scans = 0
        self._materialized_events = 0
        self._inc_pops = 0
        if scans > 4 * advances:
            self._rebuild(self._width * 2.0)
        elif events and inc_pops * 8 > events:
            self._rebuild(self._width * 0.5)

    def _rebuild(self, width: float) -> None:
        """Re-slice every future entry under a new bucket width.

        The materialized current bucket is already in final order and is
        left untouched; ring segments are re-cut at the new edges and
        overflow events re-routed if the wider horizon now covers them.
        """
        if width == self._width or not math.isfinite(width) or width <= 0.0:
            return
        self._rebuilds += 1
        entries = []
        ring = self._ring
        for i in range(_NBUCKETS):
            if ring[i]:
                entries.extend(ring[i])
                ring[i] = []
        overflow = self._overflow
        self._overflow = []
        self._ring_count = 0
        self._width = width
        self._inv = 1.0 / width
        anchor = self._anchor_time(entries, overflow)
        if anchor >= _FAR_TIME:
            self._cur_v = _FAR_V
            self._horizon_v = _FAR_V + _NBUCKETS
            self._horizon_t = math.inf
        else:
            # Anchored at the global minimum over every future event, so
            # each re-routed entry maps strictly after ``_cur_v`` — none
            # can leak into the inc heap with a wrong tie rule.
            self._cur_v = int(anchor * self._inv) - 1
            self._horizon_v = self._cur_v + _NBUCKETS
            self._horizon_t = self._horizon_v * width
        for entry in entries:
            if type(entry[0]) is float:
                self.push(entry)
            else:
                times, targets, base, sender, message = entry
                self._spill_arrays(times, targets, base, sender, message,
                                   (sender, message))
        for event in overflow:
            self.push(event)

    def _anchor_time(self, entries: list, overflow: list) -> float:
        """A lower bound over every event still routable (rebuild anchor)."""
        best = math.inf
        if self._inc:
            best = self._inc[0][0]
        for entry in entries:
            t = entry[0] if type(entry[0]) is float else float(entry[0][0])
            if t < best:
                best = t
        for event in overflow:
            if event[0] < best:
                best = event[0]
        return 0.0 if best is math.inf else best


def resolve_scheduler(name: str, *, replicas: int = 0,
                      jittered: bool = False, compute: bool = False,
                      crash: bool = False) -> str:
    """The backend (``"heap"`` / ``"calendar"``) :func:`build_scheduler`
    picks for a run; a one-line :class:`ValueError` for an unknown name or
    an explicit ``"calendar"`` on a run it does not serve."""
    if name not in SCHEDULERS:
        raise ValueError("unknown scheduler %r (expected one of %s)"
                         % (name, ", ".join(SCHEDULERS)))
    cause = ("a non-zero compute model" if compute
             else "crash windows in its fault plan" if crash else None)
    if name == "auto":
        return ("calendar" if cause is None and jittered and replicas >= 128
                else "heap")
    if name == "calendar" and cause is not None:
        raise ValueError(
            "scheduler 'calendar' serves only zero-compute, crash-free runs; "
            "this run has %s (use 'heap' or 'auto')" % cause)
    return name


def build_scheduler(name: str, seq, *, replicas: int = 0,
                    jittered: bool = False, compute: bool = False,
                    crash: bool = False):
    """Instantiate a scheduler backend by registered name.

    The calendar queue serves only zero-compute, crash-free runs: its loop
    reads no compute or crash flag, so an explicit ``"calendar"`` for any
    other run raises :class:`ValueError`.  ``"auto"`` picks it only where
    it was measured to win: a jittered latency model (broadcasts spill as
    vectorized segments), n ≥ 128, zero compute and no crash windows; the
    binary heap is the reference default everywhere else.  Measured on 2
    cores, CPython 3.11.7, seed 1, wan-matrix latency, heap vs calendar:

    * the broadcast flood delivers 1.00 vs 0.885 M/s at n=64 and 1.02 vs
      1.23 M/s at n=128; the n=256 flood (``flood_wan256``, 8 sim-s) takes
      16.9 / 19.1 / 18.8 vs 11.3 / 10.2 / 12.3 s;
    * a real Banyan run at n=64 (``banyan_wan64``) takes 2.8 vs 3.25 s, and
      Banyan at n=96 and above still favours the heap (ROADMAP item 2);
    * Banyan at n=128, 2.5 sim-s, crypto compute: 0.58 / 0.60 / 0.70 vs
      0.67 / 0.74 / 0.68 s; with two crash windows: 6.64 / 5.64 / 5.57 vs
      6.97 / 7.00 / 6.68 s (the calendar then still carried its compute
      and crash branches).

    Both backends replay the same ``(time, seq)`` order, so the choice
    never changes results.
    """
    if resolve_scheduler(name, replicas=replicas, jittered=jittered,
                         compute=compute, crash=crash) == "calendar":
        return CalendarQueue(seq)
    return HeapScheduler(seq)
