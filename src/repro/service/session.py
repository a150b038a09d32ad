"""The multi-tenant query session: many kernels, one timeline.

A :class:`QuerySession` admits many :class:`~repro.sim.query.Query`
objects and interleaves their *private* event kernels in global
virtual-time order: each query keeps its own clock, disk, scheduler,
and recorder (so its measurement triple stays pinnable per tenant),
and the session repeatedly dispatches one step of whichever query's
next event is earliest on the session timeline.  A query admitted at
session time ``s`` maps its local time ``t`` to session time
``s + t``, so queue wait is visible in aggregate metrics.

Tenants couple through exactly one resource: the aggregate memory
budget of an optional :class:`~repro.service.broker.SharedBroker`,
re-split whenever the tenant population or the budget changes.  The
simulated machine grants each tenant its own processing capacity
(every query's clock advances by its own costs only) — the modelled
contention is the paper's: memory.  That isolation is what makes the
headline invariant checkable: under fair-share with sufficient
aggregate memory, every tenant's ``(count, clock, io)`` triple is
byte-identical to its solo run.

Admission control holds a query in a FIFO queue until a concurrency
slot opens *and* the broker can cover its memory floor; cancellation
(of queued or running tenants) folds into the kernel's ``stop_when``
and is journaled, with pending timers dropped observably.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.errors import ConfigurationError, ProtocolError
from repro.service.broker import SharedBroker
from repro.sim.clock import VirtualClock
from repro.sim.journal import SimulationJournal
from repro.sim.query import Query, QueryState

#: Session event kinds delivered to listeners, in the order a tenant
#: can experience them.
EVENT_KINDS = (
    "queued", "admitted", "result", "done", "cancelled", "failed"
)

ListenerFn = Callable[[str, Query, dict], None]


@dataclass(slots=True)
class QueryStats:
    """Session-timeline bookkeeping for one tenant.

    Times are *session* virtual times (queue wait included);
    ``first_k_at`` is filled when the tenant's ``track_first_k``-th
    result appears.
    """

    query_id: str
    submitted_at: float
    admitted_at: float | None = None
    concluded_at: float | None = None
    first_k_at: float | None = None
    state: str = QueryState.PENDING.value


class QuerySession:
    """Admits and interleaves many queries on one session timeline.

    Running tenants wait on a dispatch heap of ``(session time,
    admission order, query)`` entries, so each step finds the globally
    earliest tenant in O(log n) rather than by a scan; see :meth:`step`
    for when entries are re-keyed.

    Args:
        memory: Aggregate memory budget in tuples shared by all
            running tenants, or an existing :class:`SharedBroker`.
            ``None`` runs without memory arbitration (every tenant
            keeps its configured capacity).
        policy: Arbitration policy when ``memory`` is an int.
        max_concurrent: Cap on simultaneously running queries
            (``None`` = unbounded); excess submissions queue FIFO.
        journal: Record a session-level structural-event timeline
            (admissions, grants, cancellations, completions).
        on_error: ``"raise"`` propagates a tenant's mid-run exception
            (library use); ``"capture"`` marks the tenant FAILED and
            keeps the session serving (server use).

    Typical batch use::

        session = QuerySession(memory=800, max_concurrent=16)
        for spec in specs:
            session.submit(spec.build())
        results = session.run()      # {query_id: result object}
    """

    def __init__(
        self,
        memory: int | SharedBroker | None = None,
        policy=None,
        max_concurrent: int | None = None,
        journal: bool = False,
        on_error: str = "raise",
    ) -> None:
        if max_concurrent is not None and max_concurrent < 1:
            raise ConfigurationError(
                f"max_concurrent must be >= 1, got {max_concurrent!r}"
            )
        if on_error not in ("raise", "capture"):
            raise ConfigurationError(
                f"on_error must be 'raise' or 'capture', got {on_error!r}"
            )
        if isinstance(memory, SharedBroker):
            if policy is not None:
                raise ConfigurationError(
                    "pass a policy inside the SharedBroker, not alongside it"
                )
            self.broker: SharedBroker | None = memory
        elif memory is not None:
            self.broker = SharedBroker(memory, policy)
        else:
            if policy is not None:
                raise ConfigurationError(
                    "an arbitration policy needs an aggregate memory budget"
                )
            self.broker = None
        self.max_concurrent = max_concurrent
        self._on_error = on_error
        #: The session's own clock: global virtual time (GVT).
        self.clock = VirtualClock()
        self.journal = SimulationJournal(self.clock) if journal else None
        self._queries: dict[str, Query] = {}
        self._stats: dict[str, QueryStats] = {}
        self._queued: deque[Query] = deque()
        self._running: list[Query] = []
        # Dispatch heap over _running: (session time of the next event,
        # position in _running, query).  A drained tenant keys at -inf
        # so it concludes first.  Positions are admission order and
        # stay valid because every removal from _running rebuilds.
        self._ready: list[tuple[float, int, Query]] = []
        self._ready_stale = False
        self._results: dict[str, object] = {}
        self._errors: dict[str, Exception] = {}
        self._listeners: list[ListenerFn] = []
        self._taps: dict[str, tuple] = {}
        # Session-time heap of (time, seq, kind, payload): aggregate
        # memory grants and scheduled cancellations, fired in order
        # before any query event at a later session instant.
        self._timeline: list[tuple[float, int, str, object]] = []
        self._timeline_seq = 0
        self._auto_id = 0

    # -- registration --------------------------------------------------------

    def add_listener(self, listener: ListenerFn) -> None:
        """Observe session events: ``listener(kind, query, detail)``.

        Kinds are :data:`EVENT_KINDS`; ``result`` events fire per
        produced result (with the result's ``k``/``time``/``io``) only
        for tenants submitted with ``stream_results`` — listeners are
        pure observers and never affect any tenant's numbers.
        """
        self._listeners.append(listener)

    def schedule_memory(self, schedule: Iterable[tuple[float, int]]) -> None:
        """Change the aggregate budget at session instants.

        ``schedule`` holds ``(session_time, total)`` pairs — the
        multi-tenant generalisation of the solo broker's grant
        schedule (fig. 13(d)'s mid-run revocation, aimed at the whole
        machine).  Requires memory arbitration.
        """
        if self.broker is None:
            raise ConfigurationError(
                "memory schedule needs a session memory budget"
            )
        for at, total in schedule:
            if at < 0:
                raise ConfigurationError(f"grant time must be >= 0, got {at!r}")
            self._push_timeline(float(at), "memory", int(total))

    def cancel_at(self, time: float, query_id: str, reason: str = "") -> None:
        """Schedule a cancellation at a session instant (deterministic)."""
        if time < 0:
            raise ConfigurationError(f"cancel time must be >= 0, got {time!r}")
        self._push_timeline(float(time), "cancel", (query_id, reason))

    def _push_timeline(self, at: float, kind: str, payload) -> None:
        # (at, seq) is unique, so kinds and payloads are never compared.
        heapq.heappush(self._timeline, (at, self._timeline_seq, kind, payload))
        self._timeline_seq += 1

    # -- submission and admission -------------------------------------------

    def submit(
        self,
        query: Query,
        stream_results: bool = False,
        track_first_k: int | None = None,
    ) -> Query:
        """Offer a query for admission; it runs or queues immediately.

        Args:
            query: A PENDING :class:`~repro.sim.query.Query`.  An empty
                or duplicate ``query_id`` is replaced with a fresh
                session-unique one.
            stream_results: Emit a session ``result`` event per
                produced result (the socket server's streaming path).
            track_first_k: Record the session time of the tenant's
                k-th result in its :class:`QueryStats` (the tap
                detaches itself once seen, so long runs pay nothing
                afterwards).
        """
        if query.state is not QueryState.PENDING:
            raise ProtocolError(
                f"query {query.query_id} submitted while {query.state.value}"
            )
        if not query.query_id or query.query_id in self._queries:
            query.query_id = self._fresh_id(query.query_id)
        if track_first_k is not None and track_first_k < 1:
            raise ConfigurationError(
                f"track_first_k must be >= 1, got {track_first_k!r}"
            )
        self._queries[query.query_id] = query
        stats = QueryStats(
            query_id=query.query_id, submitted_at=self.clock.now
        )
        self._stats[query.query_id] = stats
        if stream_results or track_first_k is not None:
            self._install_tap(query, stats, stream_results, track_first_k)
        if self._admissible(query):
            self._admit(query)
        else:
            query.mark_queued()
            self._queued.append(query)
            stats.state = query.state.value
            if self.journal is not None:
                self.journal.record("session", "query-queued", query=query.query_id)
            self._emit("queued", query, {})
        return query

    def _fresh_id(self, base: str) -> str:
        while True:
            candidate = f"{base or 'q'}-{self._auto_id}"
            self._auto_id += 1
            if candidate not in self._queries:
                return candidate

    def _admissible(self, query: Query) -> bool:
        if self._queued:
            return False  # FIFO: never overtake an already-queued tenant
        if (
            self.max_concurrent is not None
            and len(self._running) >= self.max_concurrent
        ):
            return False
        return self.broker is None or self.broker.can_admit(self._running, query)

    def _admit(self, query: Query) -> None:
        # Run-batch delivery would let one kernel step swallow a whole
        # arrival stream, leaving session-level events (aggregate
        # grants, cancellations) nowhere to land mid-run.  The
        # per-event path is observably identical (the equivalence
        # suite pins it), so interleaving stays fine-grained without
        # perturbing any tenant's numbers.
        query.scheduler.batching = False
        query.start()
        query.session_offset = self.clock.now
        self._running.append(query)
        self._ready_stale = True
        stats = self._stats[query.query_id]
        stats.admitted_at = self.clock.now
        stats.state = query.state.value
        if self.journal is not None:
            self.journal.record("session", "query-admitted", query=query.query_id)
        self._rebalance()
        self._emit("admitted", query, {})

    def _admit_queued(self) -> None:
        while self._queued:
            head = self._queued[0]
            if head.terminal:  # cancelled while waiting
                self._queued.popleft()
                continue
            if (
                self.max_concurrent is not None
                and len(self._running) >= self.max_concurrent
            ):
                return
            if self.broker is not None and not self.broker.can_admit(
                self._running, head
            ):
                return
            self._queued.popleft()
            self._admit(head)

    # -- result observation --------------------------------------------------

    def _install_tap(
        self,
        query: Query,
        stats: QueryStats,
        stream_results: bool,
        track_first_k: int | None,
    ) -> None:
        recorder = query.recorder
        session_clock = self.clock

        def tap(result, event) -> None:
            if stream_results:
                self._emit(
                    "result",
                    query,
                    {
                        "k": event.k,
                        "time": event.time,
                        "io": event.io,
                        "phase": event.phase,
                        "key": result.key,
                    },
                )
            if track_first_k is not None and event.k >= track_first_k:
                stats.first_k_at = session_clock.now
                self._detach_tap(query.query_id)

        recorder.add_tap(tap)
        self._taps[query.query_id] = (recorder, tap, stream_results)

    def _detach_tap(self, query_id: str) -> None:
        entry = self._taps.get(query_id)
        if entry is None:
            return
        recorder, tap, stream_results = entry
        if stream_results:
            return  # still needed for result streaming
        recorder.remove_tap(tap)
        del self._taps[query_id]

    def _emit(self, kind: str, query: Query, detail: dict) -> None:
        for listener in self._listeners:
            listener(kind, query, detail)

    # -- cancellation --------------------------------------------------------

    def cancel(self, query_id: str, reason: str = "") -> bool:
        """Cancel a tenant now; False if unknown or already concluded."""
        query = self._queries.get(query_id)
        if query is None or query.terminal:
            return False
        if query.state in (QueryState.PENDING, QueryState.QUEUED):
            query.cancel(reason)
            self._finalize(query, "cancelled")
            return True
        # Running: the kernel stops at its next dispatch boundary; the
        # session concludes it on its next turn.
        self._ready_stale = True
        return query.cancel(reason)

    # -- the loop ------------------------------------------------------------

    def step(self) -> bool:
        """Dispatch the next session event; False when fully idle.

        One call delivers exactly one of: a timeline event (aggregate
        grant or scheduled cancel), one kernel step of the globally
        earliest query, or the conclusion of a drained tenant.

        The query comes off the dispatch heap, ordered by (session
        time, admission order).  After a kernel step only the stepped
        query is re-keyed.  Admission, conclusion, failure,
        cancellation and every timeline event instead mark the heap
        stale, and the next call rebuilds it from every running
        query's ``next_event_time()``.
        """
        self._admit_queued()
        if self._ready_stale:
            self._rebuild_ready()
        ready = self._ready
        chosen_at = ready[0][0] if ready else math.inf
        if chosen_at == -math.inf:
            # A drained tenant (no dispatchable event left — e.g. empty
            # sources) concludes before anything else so its memory
            # frees; several conclude in admission order.
            self._conclude(ready[0][2])
            return True
        next_timeline = self._timeline[0][0] if self._timeline else math.inf
        if min(chosen_at, next_timeline) == math.inf:
            if self._queued:
                # Tenants are waiting but nothing can ever admit them.
                head = self._queued[0]
                raise ProtocolError(
                    f"query {head.query_id} can never be admitted: its "
                    f"memory floor exceeds the aggregate budget"
                )
            return False
        if next_timeline <= chosen_at:
            at, _, kind, payload = heapq.heappop(self._timeline)
            self.clock.advance_to(at)
            self._ready_stale = True
            self._fire_timeline(kind, payload)
            return True
        _, position, chosen = ready[0]
        self.clock.advance_to(chosen_at)
        try:
            alive = chosen.step()
        except Exception as exc:
            self._fail(chosen, exc)
            return True
        if not alive:
            self._conclude(chosen)
        elif not self._ready_stale:
            heapq.heapreplace(ready, (_dispatch_time(chosen), position, chosen))
        return True

    def _rebuild_ready(self) -> None:
        ready = [
            (_dispatch_time(query), position, query)
            for position, query in enumerate(self._running)
        ]
        heapq.heapify(ready)
        self._ready = ready
        self._ready_stale = False

    def run(self) -> dict[str, object]:
        """Serve until every submitted query concluded; returns results."""
        while self.step():
            pass
        return dict(self._results)

    def _fire_timeline(self, kind: str, payload) -> None:
        if kind == "memory":
            assert self.broker is not None
            total = int(payload)  # type: ignore[arg-type]
            self.broker.set_total(total)
            grants = self._rebalance()
            if self.journal is not None:
                self.journal.record(
                    "session", "memory-grant", total=total, grants=grants
                )
        else:
            query_id, reason = payload  # type: ignore[misc]
            self.cancel(query_id, reason)

    def _rebalance(self) -> dict[str, int]:
        if self.broker is None:
            return {}
        self._ready_stale = True  # resizes may charge running clocks
        return self.broker.rebalance(self._running)

    def _conclude(self, query: Query) -> None:
        try:
            query.conclude()
        except Exception as exc:
            self._fail(query, exc)
            return
        kind = (
            "cancelled" if query.state is QueryState.CANCELLED else "done"
        )
        self._finalize(query, kind)

    def _fail(self, query: Query, exc: Exception) -> None:
        query.mark_failed()
        self._errors[query.query_id] = exc
        self._finalize(query, "failed", {"error": str(exc)})
        if self._on_error == "raise":
            raise exc

    def _finalize(
        self, query: Query, kind: str, detail: dict | None = None
    ) -> None:
        if query in self._running:
            self._running.remove(query)
            self._ready_stale = True
            if self.broker is not None:
                self._rebalance()  # the leaver's share redistributes
        entry = self._taps.pop(query.query_id, None)
        if entry is not None:
            entry[0].remove_tap(entry[1])
        stats = self._stats[query.query_id]
        stats.concluded_at = self.clock.now
        stats.state = query.state.value
        if query.result is not None:
            self._results[query.query_id] = query.result
        if self.journal is not None:
            self.journal.record(
                "session", f"query-{kind}", query=query.query_id,
                **(detail or {}),
            )
        self._emit(kind, query, dict(detail or {}))

    # -- introspection -------------------------------------------------------

    @property
    def running(self) -> Sequence[Query]:
        """Currently running tenants, in admission order."""
        return tuple(self._running)

    @property
    def queued(self) -> Sequence[Query]:
        """Tenants waiting for admission, FIFO."""
        return tuple(q for q in self._queued if not q.terminal)

    @property
    def idle(self) -> bool:
        """Whether nothing is running, queued, or scheduled."""
        return not (self._running or self.queued or self._timeline)

    def query(self, query_id: str) -> Query:
        """Look up a submitted query by id."""
        try:
            return self._queries[query_id]
        except KeyError:
            raise ConfigurationError(f"unknown query id {query_id!r}") from None

    def stats(self, query_id: str) -> QueryStats:
        """Session-timeline stats for one tenant."""
        self.query(query_id)
        return self._stats[query_id]

    @property
    def all_stats(self) -> list[QueryStats]:
        """Stats for every submitted tenant, in submission order."""
        return list(self._stats.values())

    @property
    def results(self) -> dict[str, object]:
        """Result objects of concluded tenants, by query id."""
        return dict(self._results)

    @property
    def errors(self) -> dict[str, Exception]:
        """Captured per-tenant exceptions (``on_error='capture'``)."""
        return dict(self._errors)


def _dispatch_time(query: Query) -> float:
    """Session time of the query's next event; -inf once drained."""
    at = query.next_event_time()
    return -math.inf if at is None else at + query.session_offset
