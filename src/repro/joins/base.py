"""The streaming-join operator protocol and shared runtime plumbing.

The engine drives every non-blocking join through four calls:

* ``on_tuple(t)`` — a tuple arrived from one source; process it fully
  (probe, store, flush if memory is exhausted) and emit any matches.
* ``has_background_work()`` — is there disk-resident (or deferred) work
  that could produce results while both sources are blocked?
* ``on_blocked(budget)`` — both sources are blocked (no arrival within
  the threshold ``T`` of Section 6.3); do background work until the
  budget's deadline, yielding promptly when it expires.
* ``finish(budget)`` — both inputs ended; complete all remaining work.
  The budget is normally unbounded but may carry an early-stop
  condition when the experiment only needs the first k results.

Every emission goes through :meth:`StreamingJoinOperator.emit`, which
charges the per-result CPU cost and records the (time, io, phase)
snapshot — so all operators are measured identically.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import ProtocolError
from repro.storage.tuples import Tuple, make_result

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.columnar import ColumnBatch
    from repro.metrics.recorder import MetricsRecorder
    from repro.sim.budget import WorkBudget
    from repro.sim.clock import VirtualClock
    from repro.sim.costs import CostModel
    from repro.sim.journal import SimulationJournal
    from repro.storage.disk import SimulatedDisk


@dataclass(slots=True)
class JoinRuntime:
    """The shared simulation services an operator runs against."""

    clock: VirtualClock
    disk: SimulatedDisk
    costs: CostModel
    recorder: MetricsRecorder
    #: Optional structural-event timeline (run_join(journal=True)).
    journal: "SimulationJournal | None" = None


class StreamingJoinOperator(abc.ABC):
    """Base class for all non-blocking join operators.

    Subclasses implement the four protocol hooks; the base class owns
    the bind-before-use lifecycle and the uniform emission path.
    """

    #: Human-readable operator name, overridden by subclasses.
    name = "streaming-join"

    #: Whether :meth:`resize_memory` accepts mid-run budget changes.
    #: Operators that implement a usable resize set this True; the
    #: :class:`~repro.sim.broker.ResourceBroker` only binds operators
    #: that advertise it.
    supports_memory_resize = False

    #: Whether the operator has a native :meth:`on_column_batch`.  The
    #: engine only builds a :class:`~repro.core.columnar.ColumnBatch`
    #: (instead of boxing tuples) for operators that advertise it.
    supports_column_batches = False

    def __init__(self) -> None:
        self._runtime: JoinRuntime | None = None
        self._finished = False
        #: Largest |size(A-side) - size(B-side)| observed in the hash
        #: tables.  Maintained by the hashing-phase operators (HMJ,
        #: XJoin) and by the shared columnar batch loop; declared here
        #: so array-native helpers can read it through the base type.
        self.peak_imbalance: int = 0

    # -- lifecycle -----------------------------------------------------

    def bind(self, runtime: JoinRuntime) -> None:
        """Attach the operator to a simulation's runtime services.

        Called exactly once by the engine before any tuple is fed.
        """
        if self._runtime is not None:
            raise ProtocolError(f"{self.name} is already bound to a runtime")
        self._runtime = runtime
        self._setup()

    def _setup(self) -> None:
        """Hook for subclasses to build runtime-dependent state."""

    @property
    def runtime(self) -> JoinRuntime:
        """The bound runtime (raises if the operator is unbound)."""
        if self._runtime is None:
            raise ProtocolError(
                f"{self.name} must be bound to a JoinRuntime before use"
            )
        return self._runtime

    @property
    def clock(self) -> VirtualClock:
        """Shared virtual clock."""
        return self.runtime.clock

    @property
    def disk(self) -> SimulatedDisk:
        """Shared simulated disk."""
        return self.runtime.disk

    @property
    def costs(self) -> CostModel:
        """Shared cost model."""
        return self.runtime.costs

    @property
    def recorder(self) -> MetricsRecorder:
        """Shared metrics recorder."""
        return self.runtime.recorder

    @property
    def finished(self) -> bool:
        """Whether ``finish`` has completed."""
        return self._finished

    # -- protocol hooks ------------------------------------------------

    @abc.abstractmethod
    def on_tuple(self, t: Tuple) -> None:
        """Process one arrived tuple, emitting any matches it produces."""

    def on_tuple_batch(
        self, tuples: Sequence[Tuple], times: Sequence[float]
    ) -> None:
        """Process a run of arrivals, each at its own arrival instant.

        Batching amortises Python dispatch only — it never changes the
        simulation: implementations must advance the clock to each
        tuple's arrival time before processing it and must preserve the
        exact per-tuple clock charges and emission order of
        :meth:`on_tuple`.  The engine only calls this when no early
        stop is armed (``stop_after`` runs fall back to per-tuple
        delivery, which checks the predicate between arrivals).  This
        default replays the per-tuple protocol verbatim, so every
        operator is correct without a batch path of its own.  HMJ packs
        the run into columns and drives it like :meth:`on_column_batch`.
        """
        advance_to = self.clock.advance_to
        on_tuple = self.on_tuple
        for t, at in zip(tuples, times):
            advance_to(at)
            on_tuple(t)

    def on_column_batch(self, batch: "ColumnBatch") -> None:
        """Process a run of arrivals delivered as columns.

        The columnar counterpart of :meth:`on_tuple_batch`: same
        arrivals, same instants, no ``Tuple`` boxing on the way in.
        The same equivalence contract applies — identical per-tuple
        clock charges and emission order.  This default boxes the batch
        and delegates, so operators without an array-native path (and
        subclasses that customise the per-tuple hooks) stay correct.
        """
        tuples, times = batch.to_tuples()
        self.on_tuple_batch(tuples, times)

    @abc.abstractmethod
    def has_background_work(self) -> bool:
        """Whether blocked-time work could currently produce results."""

    @abc.abstractmethod
    def on_blocked(self, budget: WorkBudget) -> None:
        """Do background work while both sources are blocked."""

    @abc.abstractmethod
    def finish(self, budget: WorkBudget) -> None:
        """Complete all remaining work after both inputs ended."""

    def resize_memory(self, new_capacity: int) -> None:
        """Adapt to a changed memory grant while running.

        The default rejects the call; operators that can re-fit their
        resident state to a new budget override this and set
        :attr:`supports_memory_resize`.
        """
        raise ProtocolError(
            f"{self.name} does not support runtime memory adaptation"
        )

    # -- operator morphing ----------------------------------------------
    #
    # Mid-run strategy switching: a morphable *source* operator can hand
    # its resident hash-table tuples to a morph *target* through these
    # hooks.  Every match among the exported tuples was already emitted
    # by the source (streaming joins emit on arrival), so the target
    # must re-build lookup state WITHOUT re-probing — otherwise results
    # would duplicate.

    def export_hash_state(self) -> "list[Tuple] | None":
        """Extract every resident tuple for a morph, releasing memory.

        Returns ``None`` when the operator cannot currently hand over a
        consistent state (the default: no morph support, or disk-
        resident state a target could not adopt).  A non-``None``
        return means the operator's memory is drained and it will not
        be called again.
        """
        return None

    def import_hash_state(self, tuples: "Sequence[Tuple]") -> None:
        """Adopt another operator's exported resident tuples.

        Insert-only: matches among ``tuples`` were emitted by the
        exporting operator already, so implementations must store them
        for *future* probes without emitting anything now.
        """
        raise ProtocolError(
            f"{self.name} does not support adopting morphed state"
        )

    # -- conformance taps ----------------------------------------------
    #
    # Pure observers for :mod:`repro.testing.checks`: they must never
    # advance the clock, touch the disk, or mutate operator state, so
    # probing them mid-run cannot change a simulation's numbers.

    def memory_usage(self) -> tuple[int, int] | None:
        """Current ``(used, capacity)`` of the operator's memory budget.

        ``None`` when the operator runs without a budget (or before
        ``bind``).  The conformance probe polls this after every kernel
        step to check the pool never exceeds its grant.
        """
        return None

    def memory_capacity(self) -> int | None:
        """The operator's current memory grant (capacity) in tuples.

        The capacity half of :meth:`memory_usage` — what the memory
        broker reads to learn a query's configured request and to skip
        no-op resizes.  ``None`` for budget-less operators.
        """
        usage = self.memory_usage()
        return None if usage is None else usage[1]

    def spilled_unmerged(self) -> bool:
        """Whether flushed (spilled) state still awaits disk-side work.

        Checked *after* ``finish`` completes: a finished operator
        reporting True has left flushed pages unmerged — results from
        disk-resident matches would be missing.  Operators that never
        spill keep the default False.
        """
        return False

    # -- shared services ----------------------------------------------

    def emit(self, first: Tuple, second: Tuple, phase: str) -> None:
        """Emit one join result, charging CPU and recording metrics."""
        if self._finished:
            raise ProtocolError(f"{self.name} emitted a result after finish()")
        runtime = self.runtime
        runtime.clock.advance(runtime.costs.result_time(1))
        runtime.recorder.record(make_result(first, second), phase)

    def _emit_guard(self) -> None:
        """The finished-check of :meth:`emit`, for batch loops.

        ``run_columnar_batch`` inlines the emission path; calling this
        once per emitting segment keeps the no-results-after-finish
        protocol error intact.
        """
        if self._finished:
            raise ProtocolError(f"{self.name} emitted a result after finish()")

    def charge_probe(self, n_candidates: int) -> None:
        """Charge the CPU cost of comparing against ``n_candidates``."""
        if n_candidates:
            self.clock.advance(self.costs.probe_time(n_candidates))

    def charge_tuple(self) -> None:
        """Charge the fixed per-tuple receive/hash/store cost."""
        self.clock.advance(self.costs.cpu_tuple_cost)

    def charge_sort(self, n_tuples: int) -> None:
        """Charge an in-memory sort of ``n_tuples`` tuples."""
        self.clock.advance(self.costs.sort_time(n_tuples))

    def log_event(self, kind: str, **detail) -> None:
        """Record a structural event if journaling is enabled (else free)."""
        journal = self.runtime.journal
        if journal is not None:
            journal.record(self.name, kind, **detail)

    def mark_finished(self) -> None:
        """Record that ``finish`` completed (further emits are errors)."""
        self._finished = True
