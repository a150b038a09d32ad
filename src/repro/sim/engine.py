"""The two-source join simulation: a one-join plan.

:func:`run_join` reproduces the measurement setup of the paper's
Section 6: two sources deliver tuples at virtual instants drawn from
their arrival processes; the operator processes each tuple (charging
CPU and any flush I/O to the shared clock); and whenever *both* sources
go silent for longer than the blocking threshold ``T``, the operator is
given the gap for background work (HMJ's and PMJ's merging, XJoin's
reactive stage).  After both inputs end, ``finish`` runs the cleanup
phase to completion.

HMJ is a binary operator, so a two-source run is the smallest plan:
:class:`JoinSimulation` builds ``JoinNode(SourceLeaf(a),
SourceLeaf(b))`` around the given operator and hands it to the one
query driver, :class:`~repro.pipeline.executor.PlanExecutor`, which
owns the clock, the event kernel, run-batch and columnar delivery, the
broker and the checks.  The resulting system is a single-server queue:
if tuples arrive faster than the operator can process them, the clock
is driven by processing time; if the network is the bottleneck, the
clock synchronises to arrivals.
"""

from __future__ import annotations

from repro.joins.base import StreamingJoinOperator
from repro.metrics.recorder import MetricsRecorder
from repro.net.source import DisorderedSource, NetworkSource
from repro.pipeline.executor import PipelineResult, PlanExecutor
from repro.pipeline.plan import JoinNode, SourceLeaf
from repro.sim.broker import ResourceBroker
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.sim.journal import SimulationJournal

#: The result of a two-source run: the driver's one result type.
SimulationResult = PipelineResult


class JoinSimulation(PlanExecutor):
    """A configured, steppable two-source join: the one-join plan.

    Most callers should use :func:`run_join`; this class exists for
    sessions, tests and examples that want to step or inspect a run.
    ``spill_dir`` and ``columnar_delivery`` are documented on
    :func:`run_join`; every other argument means what it means for
    :class:`~repro.pipeline.executor.PlanExecutor`.
    """

    def __init__(
        self,
        source_a: "NetworkSource | DisorderedSource",
        source_b: "NetworkSource | DisorderedSource",
        operator: StreamingJoinOperator,
        costs: CostModel | None = None,
        blocking_threshold: float = 1.0,
        keep_results: bool = True,
        stop_after: int | None = None,
        spill_dir: str | None = None,
        journal: bool = False,
        broker: ResourceBroker | None = None,
        batch_delivery: bool = True,
        columnar_delivery: bool = True,
        checks=None,
    ) -> None:
        self.spill_dir = spill_dir
        self.columnar_delivery = bool(columnar_delivery)
        super().__init__(
            JoinNode(
                SourceLeaf(source_a),
                SourceLeaf(source_b),
                lambda: operator,
                label=operator.name,
            ),
            costs=costs,
            blocking_threshold=blocking_threshold,
            keep_results=keep_results,
            stop_after=stop_after,
            journal=journal,
            broker=broker,
            batch_delivery=batch_delivery,
            checks=checks,
        )


class ResultStream:
    """Iterator over a streaming run's ``(result, event)`` pairs.

    What :func:`stream_join` (and the pipeline's ``stream_plan``)
    return: iterate it like a plain generator, with the run's context
    (journal, recorder, clock) attached so streaming consumers can
    read the event timeline without holding on to the simulation
    themselves.  ``sim`` is any driver exposing ``stream()``,
    ``journal``, ``recorder``, and ``clock``.
    """

    def __init__(self, sim) -> None:
        self._sim = sim
        self._iter = sim.stream()

    def __iter__(self) -> "ResultStream":
        return self

    def __next__(self):
        return next(self._iter)

    @property
    def journal(self) -> SimulationJournal | None:
        """The structural-event timeline (when ``journal=True``)."""
        return self._sim.journal

    @property
    def recorder(self) -> MetricsRecorder:
        """The run's metrics recorder."""
        return self._sim.recorder

    @property
    def clock(self) -> VirtualClock:
        """The run's virtual clock."""
        return self._sim.clock


def run_join(
    source_a: "NetworkSource | DisorderedSource",
    source_b: "NetworkSource | DisorderedSource",
    operator: StreamingJoinOperator,
    costs: CostModel | None = None,
    blocking_threshold: float = 1.0,
    keep_results: bool = True,
    stop_after: int | None = None,
    spill_dir: str | None = None,
    journal: bool = False,
    broker: ResourceBroker | None = None,
    batch_delivery: bool = True,
    columnar_delivery: bool = True,
    checks=None,
) -> SimulationResult:
    """Run a two-source streaming join to completion.

    Args:
        source_a: Source delivering relation A.
        source_b: Source delivering relation B.
        operator: An unbound streaming join operator.
        costs: Cost model (defaults to :class:`CostModel` defaults).
        blocking_threshold: Section 6.3's ``T`` — a source is blocked
            when no tuple arrives within this many virtual seconds.
        keep_results: Retain result tuples for correctness checks.
        stop_after: Optionally stop once this many results exist (the
            paper's "first k results" measurements).
        spill_dir: When given, spilled blocks are persisted as real
            binary files under this directory (a
            :class:`~repro.storage.filedisk.FileBackedDisk`) and reads
            round-trip through them; I/O accounting is unchanged.
        journal: Record a structural-event timeline (flushes, blocked
            windows, blocked grants, merge passes) on ``result.journal``.
        broker: Optional :class:`~repro.sim.broker.ResourceBroker`; the
            operator is bound to it and the broker's grant schedule
            fires as timed kernel events, resizing memory mid-run.
        batch_delivery: Deliver maximal runs of consecutive arrivals
            in one kernel dispatch (the default).  Observable results
            — every count, virtual-clock, and I/O number — are
            identical either way; False forces the per-event path
            (used by the equivalence tests).
        columnar_delivery: Deliver run batches as column arrays to
            operators that support them (the default).  When False,
            runs arrive as boxed-tuple batches instead: HMJ packs them
            back into columns for the same hashing loop, and every
            other operator replays them per tuple — again with
            identical observable results (the third axis of the
            equivalence tests); ignored on the per-tuple paths.
        checks: Attach in-engine invariant checkers
            (:mod:`repro.testing.checks`).  ``True`` raises on the
            first violation; an
            :class:`~repro.testing.checks.InvariantChecks` instance
            (e.g. in ``collect`` mode) is used as given.  Checkers are
            pure observers — the run's numbers are identical with or
            without them.

    Returns:
        A :class:`SimulationResult` with the recorder, clock, and disk.
    """
    sim = JoinSimulation(
        source_a,
        source_b,
        operator,
        costs=costs,
        blocking_threshold=blocking_threshold,
        keep_results=keep_results,
        stop_after=stop_after,
        spill_dir=spill_dir,
        journal=journal,
        broker=broker,
        batch_delivery=batch_delivery,
        columnar_delivery=columnar_delivery,
        checks=checks,
    )
    # A solo run is a one-query session (see repro.sim.query).
    from repro.sim.query import Query

    return Query(sim).run()


def stream_join(
    source_a: "NetworkSource | DisorderedSource",
    source_b: "NetworkSource | DisorderedSource",
    operator: StreamingJoinOperator,
    costs: CostModel | None = None,
    blocking_threshold: float = 1.0,
    keep_results: bool = True,
    stop_after: int | None = None,
    spill_dir: str | None = None,
    journal: bool = False,
    broker: ResourceBroker | None = None,
    batch_delivery: bool = True,
    columnar_delivery: bool = True,
    checks=None,
) -> ResultStream:
    """Iterate a streaming join's results as they are produced.

    The generator-of-results counterpart of :func:`run_join` — what a
    pipelined consumer (or an impatient user) actually sees::

        stream = stream_join(src_a, src_b, operator, journal=True)
        for result, event in stream:
            print(f"match {result.key} after {event.time:.3f}s")
            if event.k >= 10:
                break   # early consumers can just stop iterating
        print(stream.journal.render(limit=10))

    Yields ``(JoinResult, ResultEvent)`` pairs in production order.
    With ``keep_results=False`` the recorder retains no output history
    — results are only yielded, keeping long streams memory-bounded.
    """
    sim = JoinSimulation(
        source_a,
        source_b,
        operator,
        costs=costs,
        blocking_threshold=blocking_threshold,
        keep_results=keep_results,
        stop_after=stop_after,
        spill_dir=spill_dir,
        journal=journal,
        broker=broker,
        batch_delivery=batch_delivery,
        columnar_delivery=columnar_delivery,
        checks=checks,
    )
    return ResultStream(sim)
