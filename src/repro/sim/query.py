"""One query as a first-class scheduler participant.

A query driver (:class:`~repro.pipeline.executor.PlanExecutor`, or the
two-source :class:`~repro.sim.engine.JoinSimulation` built on it) owns
a query's kernel, but not the process: a multi-tenant service runs
many queries on one machine.  So the per-query lifecycle lives in a
:class:`Query` object: the driver (operators, sources, recorder,
checks, journal, its own virtual clock and kernel), the stop
condition, and an explicit lifecycle.

A ``Query`` wraps the driver through its uniform surface:

* ``scheduler`` — the query's :class:`~repro.sim.scheduler.EventScheduler`;
* ``clock`` / ``recorder`` / ``journal`` — the query's private
  measurement state (triples stay pinnable per tenant);
* ``operators()`` — ``(label, operator)`` pairs, for memory arbitration;
* ``finish_run()`` — the cleanup phase plus check finalisation,
  returning whether the run completed;
* ``build_result(completed)`` — the driver's result object.

The solo entry points (:func:`~repro.sim.engine.run_join`,
:func:`~repro.pipeline.executor.run_plan`) are one-query sessions: they
construct a driver, wrap it in a ``Query``, and :meth:`run` it — the
identical code path a :class:`~repro.service.session.QuerySession`
steps for hundreds of tenants at once.  Because each query keeps its
own virtual clock and disk, tenants couple *only* through the shared
memory broker: under fair-share with sufficient memory every per-query
``(count, clock, io)`` triple is byte-identical to its solo run.
"""

from __future__ import annotations

import enum
import math
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigurationError, ProtocolError
from repro.sim.broker import MIN_OPERATOR_SHARE, bounded_shares

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.joins.base import StreamingJoinOperator
    from repro.metrics.recorder import MetricsRecorder
    from repro.sim.clock import VirtualClock
    from repro.sim.journal import SimulationJournal
    from repro.sim.scheduler import EventScheduler


class QueryState(enum.Enum):
    """Lifecycle of a query inside a session."""

    PENDING = "pending"      # constructed, not yet admitted
    QUEUED = "queued"        # waiting for admission (slots or memory)
    RUNNING = "running"      # streaming phase in progress
    DONE = "done"            # streaming + cleanup concluded
    CANCELLED = "cancelled"  # abandoned before conclusion
    FAILED = "failed"        # the driver raised mid-run


#: States a query can never leave.
TERMINAL_STATES = frozenset(
    {QueryState.DONE, QueryState.CANCELLED, QueryState.FAILED}
)


class Query:
    """One query's driver plus its scheduler-participant lifecycle.

    Args:
        driver: A :class:`~repro.pipeline.executor.PlanExecutor`
            (a :class:`~repro.sim.engine.JoinSimulation` is one), or
            anything with the uniform driver surface (see module
            docstring).
        query_id: Stable identifier used in journals and service events.
        weight: Arbitration weight under weighted broker policies
            (finite, > 0).
        deadline: Optional virtual-time deadline (on the *query's own*
            clock) that deadline-aware policies protect.

    The query composes its cancellation into the driver's kernel stop
    predicate — ``stop_when`` is the single mechanism that ends a
    streaming phase early, whether the cause is ``stop_after`` or a
    tenant going away.
    """

    def __init__(
        self,
        driver,
        query_id: str = "q0",
        weight: float = 1.0,
        deadline: float | None = None,
    ) -> None:
        if not math.isfinite(weight) or weight <= 0:
            raise ConfigurationError(
                f"query weight must be finite and > 0, got {weight!r}"
            )
        if deadline is not None and deadline <= 0:
            raise ConfigurationError(
                f"query deadline must be > 0, got {deadline!r}"
            )
        self._driver = driver
        self.query_id = str(query_id)
        self.weight = float(weight)
        self.deadline = deadline
        self.state = QueryState.PENDING
        #: The driver's result object.
        self.result: Any = None
        self.completed: bool | None = None
        #: Session time at which the query was admitted; a session maps
        #: the query's local time ``t`` to ``session_offset + t``.
        self.session_offset = 0.0
        self._cancel_requested = False
        self._cancel_reason = ""
        # Memory requests are captured once, at construction: the
        # capacity each resizable operator was configured with is what
        # its solo run would have used, so it is the share cap that
        # keeps shared-kernel runs byte-identical to solo ones.
        self._grant_ops: list[tuple[str, "StreamingJoinOperator", int]] = []
        for label, operator in driver.operators():
            if not operator.supports_memory_resize:
                continue
            capacity = operator.memory_capacity()
            if capacity is not None:
                self._grant_ops.append((label, operator, int(capacity)))
        # The split of a total is a pure function of the total and the
        # fixed capacities above, so it is computed once per total.
        self._splits: dict[int, list[int]] = {}
        #: The total of the last :meth:`apply_grant` (``None`` before
        #: the first), so a broker can skip re-granting it.
        self.granted_total: int | None = None

    # -- driver surface ------------------------------------------------------

    @property
    def driver(self):
        """The wrapped engine driver."""
        return self._driver

    @property
    def scheduler(self) -> "EventScheduler":
        """The query's private event kernel."""
        return self._driver.scheduler

    @property
    def clock(self) -> "VirtualClock":
        """The query's private virtual clock."""
        return self._driver.clock

    @property
    def recorder(self) -> "MetricsRecorder":
        """The query's isolated metrics recorder."""
        return self._driver.recorder

    @property
    def journal(self) -> "SimulationJournal | None":
        """The query's structural-event timeline (if journaling)."""
        return self._driver.journal

    def triple(self) -> tuple[int, float, int]:
        """The query's ``(count, clock, io)`` determinism triple."""
        return self.recorder.triple()

    # -- memory arbitration --------------------------------------------------

    @property
    def arbitrated(self) -> bool:
        """Whether any operator participates in memory arbitration."""
        return bool(self._grant_ops)

    def memory_request(self) -> int:
        """Tuples this query wants: the sum of configured capacities."""
        return sum(capacity for _, _, capacity in self._grant_ops)

    def memory_floor(self) -> int:
        """Smallest grant the query's resizable operators accept."""
        return MIN_OPERATOR_SHARE * len(self._grant_ops)

    def apply_grant(self, total: int) -> dict[str, int] | None:
        """Resize the query's operators to their split of ``total``.

        The total is divided across the query's resizable operators
        proportionally to their configured capacities (largest
        remainder, capped at each operator's request — see
        :func:`~repro.sim.broker.bounded_shares`).  Resizes that would
        not change an operator's capacity are skipped, so re-granting a
        query exactly what it already holds is observable-state free:
        a fair-share session with sufficient memory never perturbs any
        tenant.  Returns the applied ``{label: share}`` map when at
        least one operator actually resized, else ``None``.
        """
        if not self._grant_ops:
            return None
        shares = self._splits.get(total)
        if shares is None:
            shares = bounded_shares(
                total,
                [capacity for _, _, capacity in self._grant_ops],
                [float(capacity) for _, _, capacity in self._grant_ops],
            )
            self._splits[total] = shares
        applied: dict[str, int] = {}
        for (label, operator, _), share in zip(self._grant_ops, shares):
            if operator.memory_capacity() == share:
                continue
            operator.resize_memory(share)
            applied[label] = share
        self.granted_total = total
        if not applied:
            return None
        journal = self._driver.journal
        if journal is not None:
            journal.record(
                "broker", "grant", query=self.query_id, total=total,
                shares=applied,
            )
        return applied

    # -- lifecycle -----------------------------------------------------------

    @property
    def terminal(self) -> bool:
        """Whether the query reached a final state."""
        return self.state in TERMINAL_STATES

    def mark_queued(self) -> None:
        """Admission control parked the query until resources free up."""
        if self.state is not QueryState.PENDING:
            raise ProtocolError(
                f"query {self.query_id} cannot queue from {self.state.value}"
            )
        self.state = QueryState.QUEUED

    def start(self) -> None:
        """Begin the streaming phase (PENDING/QUEUED -> RUNNING)."""
        if self.state not in (QueryState.PENDING, QueryState.QUEUED):
            raise ProtocolError(
                f"query {self.query_id} cannot start from {self.state.value}"
            )
        self.state = QueryState.RUNNING

    def next_event_time(self) -> float | None:
        """When (on the query's own clock) its next event dispatches.

        ``None`` once the streaming phase is over (conclude the query).
        The clock may sit beyond the heap head after a processing-bound
        stretch, in which case dispatch happens at ``clock.now`` — the
        session's global interleave orders queries by this value.
        """
        pending = self.scheduler.next_event_time
        if pending is None:
            return None
        now = self._driver.clock.now
        return pending if pending > now else now

    def step(self) -> bool:
        """Dispatch one kernel step; False ends the streaming phase."""
        if self.state is not QueryState.RUNNING:
            raise ProtocolError(
                f"query {self.query_id} stepped while {self.state.value}"
            )
        return self.scheduler.step()

    def cancel(self, reason: str = "") -> bool:
        """Abandon the query; returns False if it already concluded.

        A pending/queued query concludes immediately; a running one has
        the cancellation folded into its kernel ``stop_when`` predicate
        so the current step sequence winds down exactly like an early
        stop, and :meth:`conclude` finalises the CANCELLED state.  The
        cancellation is journaled and the query's undelivered timers
        are dropped (observably, via ``dropped_timers``) rather than
        silently vanishing.
        """
        if self.terminal:
            return False
        self._cancel_requested = True
        self._cancel_reason = str(reason)
        journal = self._driver.journal
        if journal is not None:
            journal.record(
                "engine", "query-cancelled",
                query=self.query_id, reason=self._cancel_reason,
            )
        if self.state in (QueryState.PENDING, QueryState.QUEUED):
            self.scheduler.discard_pending()
            self.completed = False
            self.result = self._driver.build_result(completed=False)
            self.state = QueryState.CANCELLED
        else:
            # The kernel re-reads stop_when before every event and
            # inside every work budget, so the running query stops at
            # the next dispatch boundary — single-result granularity,
            # the same place stop_after stops.
            self.scheduler.stop_when = _always_stop
        return True

    def conclude(self):
        """Finalise after the streaming phase ended; returns the result.

        A stopped run (early stop or cancellation) skips the cleanup
        phase and reports ``completed=False``; otherwise
        ``finish_run()`` drives cleanup (which may itself stop early)
        and the checks finalise.
        """
        if self.state is not QueryState.RUNNING:
            raise ProtocolError(
                f"query {self.query_id} concluded while {self.state.value}"
            )
        driver = self._driver
        if self._cancel_requested:
            driver.scheduler.discard_pending()
            self.completed = False
            self.result = driver.build_result(completed=False)
            self.state = QueryState.CANCELLED
        elif driver.scheduler.stopped:
            self.completed = False
            self.result = driver.build_result(completed=False)
            self.state = QueryState.DONE
        else:
            completed = driver.finish_run()
            self.completed = completed
            self.result = driver.build_result(completed)
            self.state = QueryState.DONE
        return self.result

    def mark_failed(self) -> None:
        """Record that the driver raised mid-run (session bookkeeping)."""
        self.state = QueryState.FAILED
        self.completed = False

    def run(self):
        """Drive the query solo, start to conclusion (the one-query path).

        Exactly the step sequence a multi-query session would dispatch
        for a lone tenant — ``run_join``/``run_plan`` are this.
        """
        self.start()
        step = self.scheduler.step
        while step():
            pass
        return self.conclude()

    def __repr__(self) -> str:
        return (
            f"Query(id={self.query_id!r}, state={self.state.value}, "
            f"weight={self.weight:g})"
        )


def _always_stop() -> bool:
    return True
