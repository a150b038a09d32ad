"""The event-driven simulation kernel.

One heap-ordered loop drives every simulation in this repository.  Its
one client is the query driver,
:class:`~repro.pipeline.executor.PlanExecutor`, which runs a join tree
over any number of leaves; a two-source run
(:class:`~repro.sim.engine.JoinSimulation`) is the one-join plan.  The
kernel owns three behaviours:

* **arrival selection** — each registered stream keeps exactly one
  pending-arrival event on a binary heap keyed by
  ``(time, kind, index)``; picking the next event is O(log n) instead
  of a linear scan per delivery, and ties break by registration order,
  exactly like the old scans did;
* **blocked-window gating** — when the gap to the next event exceeds
  the blocking threshold ``T`` (Section 6.3) and some participant has
  background work, the gap is handed out in threshold-sized
  round-robin slices of :class:`~repro.sim.budget.WorkBudget` so no
  participant can starve the others.  With a single registered worker
  the slices tile the gap seamlessly, reproducing the single-budget
  behaviour of the old two-source loop exactly (work steps run iff the
  clock has not reached the gap end, under either formulation);
* **timed callbacks** — :meth:`EventScheduler.call_at` schedules a
  callback at an absolute virtual time, ordered *before* any arrival
  at the same instant.  The :class:`~repro.sim.broker.ResourceBroker`
  uses these to re-grant memory mid-run.  Timers pending after the
  last stream is exhausted are dropped: the cleanup phase runs in one
  protocol call, so there is nothing left to adapt.

On top of the per-event loop sits **run-batch delivery**: streams that
join a *batch group* (and expose their pending arrival times) have
maximal runs of consecutive arrivals extracted in exact heap order and
handed to the group's ``deliver_batch`` callback in one call, instead
of one heap pop/push round-trip per tuple.  A run is broken exactly
where the per-event loop would have done something other than deliver
the next group arrival:

* at an inter-arrival gap exceeding ``blocking_threshold`` (the next
  event *might* open a blocked window — only the live clock, after the
  batch's processing costs, can tell);
* at any pending timer due at or before the next arrival (timers fire
  before arrivals at the same instant);
* at any arrival of a stream outside the group (stream interleaving
  *within* the group is preserved inside the batch, in ``(time,
  registration-index)`` heap order);
* and batch deliverers must honour the ``stop_when`` predicate between
  consecutive arrivals, so early stops keep single-result granularity.

Batch boundaries carry no simulation state — breaking a run early is
always safe, merely slower — so the batched and per-event paths are
observably identical (the equivalence suite pins this).

The kernel knows nothing about joins: streams are ``(peek, deliver)``
callable pairs, workers are ``(has_work, run)`` pairs, and the driver
decides what delivering or working means.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.budget import WorkBudget
from repro.sim.clock import VirtualClock
from repro.sim.journal import SimulationJournal

#: Heap-kind priorities: timers fire before arrivals at the same instant
#: (a memory grant scheduled at ``t`` applies before the tuple due at
#: ``t`` is processed).
_KIND_TIMER = 0
_KIND_ARRIVAL = 1

PeekFn = Callable[[], "float | None"]
DeliverFn = Callable[[], None]
#: Full pending arrival times of a stream plus the cursor of the next
#: delivery; the kernel reads (never consumes) this to extract runs.
TimesFn = Callable[[], "tuple[Sequence[float], int]"]
#: Array twin of TimesFn: the same schedule as a float64 array (the
#: columnar extraction path slices and merges it without boxing).
TimesArrayFn = Callable[[], "tuple[np.ndarray, int]"]
#: Batch delivery: parallel lists of stream indices and arrival times,
#: one entry per arrival, in exact heap dispatch order.
BatchDeliverFn = Callable[[list[int], list[float]], None]
#: Columnar batch delivery: the same run as two parallel arrays
#: (int64 stream indices, float64 arrival times).
BatchDeliverColumnsFn = Callable[[np.ndarray, np.ndarray], None]
HasWorkFn = Callable[[], bool]
WorkFn = Callable[[WorkBudget], None]
StopFn = Callable[[], bool]
TimerFn = Callable[[], None]

#: Per-cursor prefix the array run extraction merges first (grown 4x
#: until a cut is found or the prefix covers the pending schedule).
RUN_WINDOW = 1024


def _merge_two(parts: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray | None]:
    """Stable merge of one or two sorted time arrays.

    Returns the merged times and, for two inputs, whether each element
    came from the first.  ``searchsorted`` with side="left"/"right"
    lands the first array's elements before equal-time elements of the
    second — exact heap order when the first belongs to the stream with
    the lower registration index.
    """
    if len(parts) == 1:
        return parts[0], None
    ta, tb = parts
    na, nb = ta.size, tb.size
    merged = np.empty(na + nb, dtype=np.float64)
    isa = np.empty(na + nb, dtype=bool)
    pos_a = np.arange(na) + np.searchsorted(tb, ta, side="left")
    pos_b = np.arange(nb) + np.searchsorted(ta, tb, side="right")
    merged[pos_a] = ta
    merged[pos_b] = tb
    isa[pos_a] = True
    isa[pos_b] = False
    return merged, isa


@dataclass(slots=True)
class _Stream:
    """One registered arrival stream."""

    index: int
    peek: PeekFn
    deliver: DeliverFn
    times: TimesFn | None = None
    times_array: TimesArrayFn | None = None
    group: "_BatchGroup | None" = None
    live: bool = False


@dataclass(slots=True)
class _BatchGroup:
    """Streams whose arrival runs may be delivered as merged batches."""

    deliver: BatchDeliverFn
    deliver_columns: BatchDeliverColumnsFn | None = None
    members: list[_Stream] = field(default_factory=list)
    member_ids: set[int] = field(default_factory=set)


@dataclass(slots=True)
class _Worker:
    """One registered background-work participant."""

    index: int
    has_work: HasWorkFn
    run: WorkFn


@dataclass(slots=True)
class EventScheduler:
    """Heap-based event loop over typed simulation events.

    Attributes:
        clock: The shared virtual clock the loop synchronises.
        blocking_threshold: Section 6.3's ``T`` — a gap longer than
            this (to the next event) counts as a blocked window.
        stop_when: Optional early-stop predicate, checked before every
            event and woven into every budget handed to workers.
        journal: Optional structural-event timeline; the kernel records
            ``blocked-window`` entries under the ``engine`` actor, as
            the pre-kernel loops did.
        batching: Whether batch groups actually batch.  When False,
            grouped streams fall back to per-event delivery — the
            streaming APIs use this to keep single-arrival yield
            granularity, and the equivalence suite uses it to compare
            the two paths.
        probe: Optional observer invoked after every dispatched event
            (timer, arrival, or batch).  Probes must be pure observers
            — they may read but never advance the clock, touch the
            disk, or mutate operator state — so an installed probe
            never changes a run's observable numbers.  The conformance
            layer (:mod:`repro.testing.checks`) hangs its per-step
            invariant checks here; ``None`` (the default) costs one
            predicate test per step.
    """

    clock: VirtualClock
    blocking_threshold: float
    stop_when: StopFn | None = None
    journal: SimulationJournal | None = None
    batching: bool = True
    probe: TimerFn | None = None

    _streams: list[_Stream] = field(default_factory=list)
    _groups: list[_BatchGroup] = field(default_factory=list)
    _workers: list[_Worker] = field(default_factory=list)
    # Heap entries: (time, kind, index, payload).  The (time, kind,
    # index) prefix is unique, so payloads are never compared.
    _heap: list[tuple] = field(default_factory=list)
    _live_streams: int = 0
    _timer_seq: int = 0
    _dropped_timers: int = 0
    # Sequence numbers of pending keep-alive timers: while any remain,
    # the loop keeps dispatching even with zero live streams (reorder
    # buffers deliver arrivals from timers, not registered streams).
    _keepalive_seqs: set = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.blocking_threshold <= 0:
            raise ConfigurationError(
                f"blocking_threshold must be > 0, got {self.blocking_threshold!r}"
            )

    # -- registration -------------------------------------------------------

    def add_batch_group(
        self,
        deliver: BatchDeliverFn,
        deliver_columns: BatchDeliverColumnsFn | None = None,
    ) -> int:
        """Register a batch-delivery group; returns its id.

        ``deliver(order, times)`` receives one maximal run of arrivals
        from the group's member streams: parallel lists of the source
        stream index and the arrival time of each tuple, in exact heap
        dispatch order.  The deliverer must consume each arrival from
        its stream in that order, advance the clock to each arrival
        time before processing, and honour the scheduler's ``stop_when``
        predicate between consecutive arrivals (it may deliver fewer
        than offered; the kernel re-reads the streams afterwards).

        ``deliver_columns(indices, times)`` is the optional columnar
        twin — the same run as parallel int64/float64 arrays, under the
        same contract.  It is preferred whenever every member with
        pending arrivals exposes a ``times_array`` hook, letting the
        kernel extract the run with array merges instead of a
        per-element scalar loop.  The two forms are interchangeable:
        identical events, identical order, identical instants.
        """
        self._groups.append(
            _BatchGroup(deliver=deliver, deliver_columns=deliver_columns)
        )
        return len(self._groups) - 1

    def add_stream(
        self,
        peek: PeekFn,
        deliver: DeliverFn,
        *,
        times: TimesFn | None = None,
        times_array: TimesArrayFn | None = None,
        group: int | None = None,
    ) -> int:
        """Register an arrival stream.

        ``peek()`` returns the absolute time of the stream's next
        pending arrival (``None`` when exhausted); ``deliver()``
        consumes exactly one arrival.  Returns the stream's index;
        at equal arrival times, lower indices deliver first.

        A stream may additionally join a batch group (see
        :meth:`add_batch_group`) by passing the group id and a
        ``times`` hook exposing its full pending arrival times; its
        arrivals are then dispatched in merged runs whenever
        :attr:`batching` is enabled.  ``times_array`` optionally
        exposes the same schedule as a float64 array, enabling the
        group's columnar extraction path.
        """
        if (group is None) != (times is None):
            raise ConfigurationError(
                "batched streams need both `group` and `times` (got one)"
            )
        if times_array is not None and times is None:
            raise ConfigurationError("`times_array` requires `times` and `group`")
        stream = _Stream(index=len(self._streams), peek=peek, deliver=deliver)
        if group is not None:
            if not 0 <= group < len(self._groups):
                raise ConfigurationError(f"unknown batch group id {group!r}")
            stream.times = times
            stream.times_array = times_array
            stream.group = self._groups[group]
            stream.group.members.append(stream)
            stream.group.member_ids.add(stream.index)
        self._streams.append(stream)
        first = stream.peek()
        if first is not None:
            heapq.heappush(self._heap, (first, _KIND_ARRIVAL, stream.index, None))
            stream.live = True
            self._live_streams += 1
        return stream.index

    def add_worker(self, has_work: HasWorkFn, run: WorkFn) -> int:
        """Register a blocked-window participant.

        ``has_work()`` must be a cost-free check; ``run(budget)`` does
        background work until the budget expires.  Round-robin order
        follows registration order.
        """
        worker = _Worker(index=len(self._workers), has_work=has_work, run=run)
        self._workers.append(worker)
        return worker.index

    def call_at(
        self, time: float, callback: TimerFn, *, keep_alive: bool = False
    ) -> None:
        """Schedule ``callback`` at absolute virtual ``time``.

        A timer due at the same instant as an arrival fires first.  A
        timer in the past fires at the next dispatch without moving the
        clock backwards.  Timers still pending once every stream is
        exhausted are dropped (see :attr:`dropped_timers`) — unless
        scheduled with ``keep_alive=True``, which marks the timer as a
        *delivery participant*: the loop keeps dispatching while any
        keep-alive timer is pending, even with zero live streams.
        Reorder buffers (:class:`repro.net.source.ReorderBuffer`) use
        these for their punctuation releases, which stand in for the
        stream arrivals the kernel would otherwise be waiting on.
        """
        if time < 0:
            raise ConfigurationError(f"timer time must be >= 0, got {time!r}")
        heapq.heappush(self._heap, (float(time), _KIND_TIMER, self._timer_seq, callback))
        if keep_alive:
            self._keepalive_seqs.add(self._timer_seq)
        self._timer_seq += 1

    # -- introspection ------------------------------------------------------

    @property
    def stopped(self) -> bool:
        """Whether the early-stop predicate currently holds."""
        return self.stop_when is not None and self.stop_when()

    @property
    def dropped_timers(self) -> int:
        """Timers discarded because every stream had already drained."""
        return self._dropped_timers

    @property
    def next_event_time(self) -> float | None:
        """Virtual time of the next dispatchable event, or ``None``.

        ``None`` means the streaming phase is over: no live stream
        remains (ordinary pending timers alone cannot be dispatched —
        the next :meth:`step` drops them; pending *keep-alive* timers
        keep the phase open).  The time reported is where the next
        event *sits on the heap*; the clock may already be beyond it
        (a processing-bound run), in which case dispatch happens at
        ``clock.now``.  Multi-query sessions use
        ``max(clock.now, next_event_time)`` to interleave several
        schedulers in global virtual-time order.
        """
        if not self._heap or (
            self._live_streams == 0 and not self._keepalive_seqs
        ):
            return None
        return self._heap[0][0]

    def discard_pending(self) -> int:
        """Drop every pending timer without dispatching it.

        Called when a run is abandoned mid-stream (a cancelled query):
        pending broker grants and other timers will never fire, and
        pretending otherwise would hide the cancellation from replay.
        The drop is counted in :attr:`dropped_timers` and journaled, so
        a cancelled tenant's unfired timers stay observable.  Stream
        arrival entries are discarded silently — the sources themselves
        still hold the undelivered tuples.
        """
        dropped = sum(1 for entry in self._heap if entry[1] == _KIND_TIMER)
        if dropped:
            self._dropped_timers += dropped
            if self.journal is not None:
                self.journal.record("engine", "dropped-timers", count=dropped)
        self._heap.clear()
        self._keepalive_seqs.clear()
        self._live_streams = 0
        for stream in self._streams:
            stream.live = False
        return dropped

    def unbounded_budget(self) -> WorkBudget:
        """A cleanup-phase budget: no deadline, the loop's stop predicate."""
        return WorkBudget.unbounded(self.clock, stop_when=self.stop_when)

    # -- the loop -----------------------------------------------------------

    def step(self) -> bool:
        """Dispatch the next event, with any preceding blocked window.

        With batching enabled, one step may deliver a whole run of
        grouped arrivals (see module docstring); the run is exactly the
        sequence of events consecutive per-event steps would have
        dispatched, so observable behaviour is unchanged.

        Returns False when the streaming phase is over: the stop
        predicate fired, or no arrival remains (pending timers are then
        dropped — cleanup is the driver's job).
        """
        if self.stopped:
            return False
        if self._live_streams == 0 and not self._keepalive_seqs:
            # Only timers can remain: exhausted streams are never
            # re-pushed, so a heap with no live stream holds no arrivals.
            if self._heap:
                self._dropped_timers += len(self._heap)
                if self.journal is not None:
                    self.journal.record(
                        "engine", "dropped-timers", count=len(self._heap)
                    )
                self._heap.clear()
            return False
        time, kind, index, payload = self._heap[0]
        gap_end = time
        blocked_from = self.clock.now + self.blocking_threshold
        if gap_end > blocked_from and self._any_background_work():
            self.clock.advance_to(blocked_from)
            if self.journal is not None:
                self.journal.record(
                    "engine", "blocked-window", until=round(gap_end, 6)
                )
            self._blocked_window(gap_end)
            if self.stopped:
                return False
        heapq.heappop(self._heap)
        self.clock.advance_to(time)
        if kind == _KIND_TIMER:
            self._keepalive_seqs.discard(index)
            payload()
            if self.probe is not None:
                self.probe()
            return True
        stream = self._streams[index]
        if self.batching and stream.group is not None:
            self._dispatch_batch(stream)
            if self.probe is not None:
                self.probe()
            return True
        stream.deliver()
        nxt = stream.peek()
        if nxt is None:
            stream.live = False
            self._live_streams -= 1
        else:
            heapq.heappush(self._heap, (nxt, _KIND_ARRIVAL, index, None))
        if self.probe is not None:
            self.probe()
        return True

    def run(self) -> bool:
        """Drain the whole streaming phase.

        Returns True when every stream delivered every arrival; False
        when the stop predicate ended the run early.
        """
        while self.step():
            pass
        return not self.stopped

    # -- batch delivery -----------------------------------------------------

    def _dispatch_batch(self, stream: _Stream) -> None:
        """Deliver the maximal run starting at ``stream``'s popped head.

        The head entry is already popped and the clock already sits at
        its arrival time; this extracts how far the run extends, hands
        it to the group deliverer in one call, then re-reads every
        member stream to restore the one-pending-entry-per-live-stream
        heap invariant.
        """
        group = stream.group
        assert group is not None
        members = group.members
        heap = self._heap
        if len(members) > 1 and heap:
            # Other members' pending entries are superseded by the run
            # extraction; purge them so the heap top is the true bound.
            member_ids = group.member_ids
            kept = [e for e in heap if e[1] != _KIND_ARRIVAL or e[2] not in member_ids]
            if len(kept) != len(heap):
                heap[:] = kept
                heapq.heapify(heap)
        if heap:
            # The run may not reach the next non-group event: a timer
            # (or outside arrival) due inside it must fire in order.
            # At equal times a timer always wins; a competing arrival
            # wins unless the member's registration index is lower.
            bound = heap[0]
            bound_time = bound[0]
            bound_index = bound[2] if bound[1] == _KIND_ARRIVAL else -1
        else:
            bound_time = float("inf")
            bound_index = -1
        if group.deliver_columns is not None:
            extracted = self._extract_run_arrays(members, bound_time, bound_index)
            if extracted is not None:
                group.deliver_columns(*extracted)
                self._repush_members(members)
                return
        order, times = self._extract_run(members, bound_time, bound_index)
        group.deliver(order, times)
        self._repush_members(members)

    def _repush_members(self, members: list[_Stream]) -> None:
        heap = self._heap
        for member in members:
            nxt = member.peek()
            if nxt is None:
                if member.live:
                    member.live = False
                    self._live_streams -= 1
            else:
                if not member.live:
                    member.live = True
                    self._live_streams += 1
                heapq.heappush(heap, (nxt, _KIND_ARRIVAL, member.index, None))

    def _extract_run_arrays(
        self, members: list[_Stream], bound_time: float, bound_index: int
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Array twin of :meth:`_extract_run`.

        Returns ``(indices, times)`` — int64 stream indices and
        float64 arrival times for one maximal run — or ``None`` when a
        member lacks the ``times_array`` hook or more than two members
        hold pending arrivals (the scalar path then handles the
        dispatch).  Every cut decision reproduces the scalar
        expressions operation-for-operation, so both paths break runs
        at identical elements.
        """
        threshold = self.blocking_threshold
        inf = float("inf")
        bounded = bound_time != inf
        cursors: list[tuple[np.ndarray, int]] = []
        for member in members:
            times_fn = member.times_array
            if times_fn is None:
                return None
            arr, pos = times_fn()
            pending = arr[pos:]
            if bounded and pending.size:
                # Arrivals beyond the bound can never join the run, so
                # a binary search drops them before the merge.  Equal-
                # time arrivals stay — the tie rules below decide
                # whether they make the run.
                pending = pending[: np.searchsorted(pending, bound_time, side="right")]
            if pending.size:
                cursors.append((pending, member.index))
        if not cursors or len(cursors) > 2:
            return None
        index_a = cursors[0][1]
        index_b = cursors[-1][1]
        tie_a = index_a < bound_index
        tie_b = index_b < bound_index
        # Merge window by window: each pass takes every pending time
        # strictly below the smaller cursor's window-th time.  Those
        # times follow everything merged so far and lead the rest, so
        # the concatenated pieces are the full merge's prefix and the
        # first cut found in them is the cut of the whole schedule.
        # Without a cut the window grows 4x until it covers the
        # schedule, so the work per step follows the run, not the
        # remaining schedule.
        pieces: list[np.ndarray] = []
        piece_sides: list[np.ndarray] = []
        merged_upto = [0] * len(cursors)
        merged_size = 0
        last = 0.0
        window = RUN_WINDOW
        cut = -1
        while cut < 0:
            limit = min(
                (float(sched[window]) for sched, _ in cursors if sched.size > window),
                default=inf,
            )
            parts = []
            for c, (sched, _) in enumerate(cursors):
                upto = (
                    sched.size
                    if limit == inf
                    else int(np.searchsorted(sched, limit, side="left"))
                )
                parts.append(sched[merged_upto[c] : upto])
                merged_upto[c] = upto
            piece, isa = _merge_two(parts)
            if piece.size:
                # The same float expression as the scalar walk — t >
                # prev + threshold — so rounding behaves identically.
                if pieces:
                    lead, lead_isa = piece, isa
                    prev = np.concatenate(([last], piece[:-1]))
                else:
                    lead = piece[1:]
                    lead_isa = None if isa is None else isa[1:]
                    prev = piece[:-1]
                stop = lead > prev + threshold
                if bounded:
                    if tie_a == tie_b:
                        # t > bound or (t == bound and not tie_ok)
                        # collapses to >= when ties lose, > when they win.
                        stop |= (lead > bound_time) if tie_a else (lead >= bound_time)
                    else:
                        assert lead_isa is not None
                        tie_ok = np.where(lead_isa, tie_a, tie_b)
                        stop |= (lead > bound_time) | ((lead == bound_time) & ~tie_ok)
                hits = np.flatnonzero(stop)
                if hits.size:
                    cut = merged_size + int(hits[0]) + (0 if pieces else 1)
                pieces.append(piece)
                if isa is not None:
                    piece_sides.append(isa)
                merged_size += piece.size
                last = float(piece[-1])
            if cut < 0 and limit == inf:
                cut = merged_size
            window *= 4
        times = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        times = times[:cut]
        if not piece_sides:
            return np.full(cut, index_a, dtype=np.int64), times
        sides = piece_sides[0] if len(piece_sides) == 1 else np.concatenate(piece_sides)
        return np.where(sides[:cut], index_a, index_b), times

    def _extract_run(
        self, members: list[_Stream], bound_time: float, bound_index: int
    ) -> tuple[list[int], list[float]]:
        """Merge members' pending times into one maximal deliverable run.

        Events are taken in exact heap order — ``(time, registration
        index)`` — starting from the already-popped head.  The run ends
        at the first inter-arrival gap wider than the blocking
        threshold, or at the first event that would lose a heap race
        against ``(bound_time, bound_index)`` (the post-purge heap top;
        ``bound_index`` is -1 for timers, which win every tie).
        """
        threshold = self.blocking_threshold
        cursors: list[list] = []
        for member in members:
            times_fn = member.times
            assert times_fn is not None
            times, pos = times_fn()
            if pos < len(times):
                # [times, cursor, end, stream index]
                cursors.append([times, pos, len(times), member.index])
        if len(cursors) == 1:
            # Common tail case: one member left — a straight slice scan.
            times, pos, end, index = cursors[0]
            tie_ok = index < bound_index
            prev = times[pos]
            j = pos + 1
            while j < end:
                t = times[j]
                if (
                    t > prev + threshold
                    or t > bound_time
                    or (t == bound_time and not tie_ok)
                ):
                    break
                prev = t
                j += 1
            return [index] * (j - pos), list(times[pos:j])
        if len(cursors) == 2:
            # The dominant case (one two-source engine group): a direct
            # two-list merge.  Cursor 0 has the lower registration
            # index, so it wins every exact tie, matching heap order.
            inf = float("inf")
            times_a, i, end_a, index_a = cursors[0]
            times_b, j, end_b, index_b = cursors[1]
            tie_a = index_a < bound_index
            tie_b = index_b < bound_index
            order2: list[int] = []
            out2: list[float] = []
            push_order = order2.append
            push_time = out2.append
            t_a = times_a[i]
            t_b = times_b[j]
            first2 = True
            prev2 = 0.0
            while True:
                if t_a <= t_b:
                    t, index, tie_ok = t_a, index_a, tie_a
                else:
                    t, index, tie_ok = t_b, index_b, tie_b
                if t is inf or (
                    not first2
                    and (
                        t > prev2 + threshold
                        or t > bound_time
                        or (t == bound_time and not tie_ok)
                    )
                ):
                    break
                first2 = False
                push_order(index)
                push_time(t)
                prev2 = t
                if index == index_a:
                    i += 1
                    t_a = times_a[i] if i < end_a else inf
                else:
                    j += 1
                    t_b = times_b[j] if j < end_b else inf
            return order2, out2
        order: list[int] = []
        out: list[float] = []
        first = True
        prev = 0.0
        while cursors:
            # k-way min by (time, index); cursors stay in registration
            # order, so the strict < keeps the lower index on ties.
            best = cursors[0]
            best_t = best[0][best[1]]
            for cursor in cursors[1:]:
                t = cursor[0][cursor[1]]
                if t < best_t:
                    best = cursor
                    best_t = t
            if not first and (
                best_t > prev + threshold
                or best_t > bound_time
                or (best_t == bound_time and best[3] >= bound_index)
            ):
                break
            first = False
            order.append(best[3])
            out.append(best_t)
            prev = best_t
            best[1] += 1
            if best[1] == best[2]:
                cursors.remove(best)
        return order, out

    # -- blocked windows ----------------------------------------------------

    def _any_background_work(self) -> bool:
        return any(worker.has_work() for worker in self._workers)

    def _blocked_window(self, gap_end: float) -> None:
        """Share a silent window between workers, round-robin slices.

        Each worker with pending work gets a threshold-sized
        :class:`WorkBudget` slice in turn until the window closes, the
        stop predicate fires, or nobody has work left.  A full round
        that fails to advance the clock ends the window early: identical
        state would yield identical (non-)progress forever.
        """
        while self.clock.now < gap_end and not self.stopped:
            active = [worker for worker in self._workers if worker.has_work()]
            if not active:
                return
            round_start = self.clock.now
            for worker in active:
                if self.clock.now >= gap_end or self.stopped:
                    return
                deadline = min(gap_end, self.clock.now + self.blocking_threshold)
                worker.run(
                    WorkBudget(
                        clock=self.clock, deadline=deadline, stop_when=self.stop_when
                    )
                )
            if self.clock.now == round_start:
                return
