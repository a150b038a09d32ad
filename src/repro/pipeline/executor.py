"""The query driver: one plan tree on one event kernel.

:class:`PlanExecutor` is the only class that wires a query onto the
shared :class:`~repro.sim.scheduler.EventScheduler` kernel.  A
two-source run (:func:`~repro.sim.engine.run_join`) is the one-join
plan ``JoinNode(SourceLeaf(a), SourceLeaf(b))``; an n-way plan is a
tree of joins over any number of leaves.  Either way the driver sets
up:

* one shared virtual clock and cost model across the whole plan;
* one disk and one recorder *per join node* (operators keep their
  private spill partitions; per-node I/O remains attributable);
* every result a node produces is wrapped as a side-labelled tuple and
  pushed into its parent operator immediately — full pipelining;
* when *every* leaf is silent past the blocking threshold, the kernel
  shares the gap round-robin between the nodes that have background
  work (HMJ/PMJ merging, XJoin's reactive stage), in threshold-sized
  slices, so one node's merge cannot starve the others;
* a :class:`~repro.sim.broker.ResourceBroker` can put every resizable
  node under one global memory grant, re-granted by timed kernel
  events mid-run;
* at end of input the joins finish bottom-up, each node's final
  results flowing into its parent before the parent's own cleanup.

Leaf arrivals are delivered in merged runs; only a single join fed
directly by two leaves gets a whole run per call (as a
:class:`ColumnBatch` when its operator supports one).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.columnar import ColumnBatch
from repro.errors import ConfigurationError
from repro.joins.base import JoinRuntime, StreamingJoinOperator
from repro.metrics.recorder import MetricsRecorder
from repro.net.source import DisorderedSource, ReorderBuffer
from repro.pipeline.plan import (
    FilterNode,
    JoinNode,
    MapNode,
    PlanNode,
    SourceLeaf,
    unwrap_transforms,
    validate_plan,
)
from repro.sim.broker import ResourceBroker
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.sim.journal import SimulationJournal
from repro.sim.scheduler import EventScheduler
from repro.storage.disk import SimulatedDisk
from repro.storage.tuples import SOURCE_A, SOURCE_B, JoinResult, Tuple


@dataclass(slots=True)
class _NodeState:
    """Execution state of one join node."""

    node: JoinNode
    operator: StreamingJoinOperator
    recorder: MetricsRecorder
    disk: SimulatedDisk
    # (parent join, side played, transform chain top-down) or None.
    parent: tuple[JoinNode, str, list[PlanNode]] | None = None
    consumed: int = 0
    out_serial: int = 0


@dataclass(slots=True)
class NodeStats:
    """Per-node summary exposed on the result."""

    label: str
    operator: str
    results: int
    io: int


@dataclass(slots=True)
class PipelineResult:
    """Everything a finished (or early-stopped) query exposes.

    Attributes:
        recorder: The root join's recorder (the query's output stream).
        clock: The final virtual clock.
        disk: The root join's disk with its cumulative I/O counters.
        operator: The root join's operator, with whatever state it
            retains.
        completed: False when the run stopped early via ``stop_after``.
        node_stats: Per-join summaries, bottom-up.
        journal: The structural-event timeline (when ``journal=True``).
    """

    recorder: MetricsRecorder
    clock: VirtualClock
    disk: SimulatedDisk
    operator: StreamingJoinOperator
    completed: bool = True
    node_stats: list[NodeStats] = field(default_factory=list)
    journal: SimulationJournal | None = None

    @property
    def count(self) -> int:
        """Results produced at the plan root."""
        return self.recorder.count

    @property
    def results(self) -> list[JoinResult]:
        """Retained root results (empty if ``keep_results`` was False)."""
        return self.recorder.results

    @property
    def total_io(self) -> int:
        """Page I/Os summed over every node's disk."""
        return sum(stat.io for stat in self.node_stats)


class PlanExecutor:
    """Drives one plan to completion (or to an early stop).

    Exposes the uniform driver surface a :class:`~repro.sim.query.Query`
    wraps: ``scheduler``, ``clock``, ``recorder``, ``journal``,
    ``operators()``, ``finish_run()`` and ``build_result()``, plus
    ``stream()`` for :class:`~repro.sim.engine.ResultStream`.
    """

    #: Two-source options (see :func:`~repro.sim.engine.run_join`),
    #: which :class:`~repro.sim.engine.JoinSimulation` sets before
    #: the driver is built.
    spill_dir: str | None = None
    columnar_delivery: bool = True

    def __init__(
        self,
        root: PlanNode,
        costs: CostModel | None = None,
        blocking_threshold: float = 1.0,
        keep_results: bool = True,
        stop_after: int | None = None,
        journal: bool = False,
        broker: ResourceBroker | None = None,
        batch_delivery: bool = True,
        checks=None,
    ) -> None:
        if stop_after is not None and stop_after < 1:
            raise ConfigurationError(f"stop_after must be >= 1, got {stop_after!r}")
        self._costs = costs or CostModel()
        self._stop_after = stop_after
        self.clock = VirtualClock()
        self.journal = SimulationJournal(self.clock) if journal else None

        self._joins = validate_plan(root)  # bottom-up order
        self._states: dict[int, _NodeState] = {}
        for node in self._joins:
            is_root = node is root
            disk = self._new_disk()
            # Non-root nodes must retain results to feed their parents.
            recorder = MetricsRecorder(
                self.clock, disk, keep_results=keep_results or not is_root
            )
            operator = node.operator_factory()
            operator.bind(
                JoinRuntime(
                    clock=self.clock,
                    disk=disk,
                    costs=self._costs,
                    recorder=recorder,
                    journal=self.journal,
                )
            )
            self._states[id(node)] = _NodeState(
                node=node, operator=operator, recorder=recorder, disk=disk
            )
        # Resolve each join child through any transform chain down to
        # the leaf or join actually producing its tuples.
        leaves: list[tuple[SourceLeaf, JoinNode, str, list[PlanNode]]] = []
        for node in self._joins:
            for child, side in ((node.left, SOURCE_A), (node.right, SOURCE_B)):
                target, chain = unwrap_transforms(child)
                if isinstance(target, JoinNode):
                    self._states[id(target)].parent = (node, side, chain)
                else:
                    assert isinstance(target, SourceLeaf)
                    leaves.append((target, node, side, chain))
        self._root_state = self._states[id(root)]

        self.scheduler = EventScheduler(
            clock=self.clock,
            blocking_threshold=float(blocking_threshold),
            # Only arm the early-stop predicate when an early stop is
            # actually configured: an armed predicate forces the merge
            # machinery into per-result synchronous emission (the
            # predicate may read the live result count), which the
            # batched columnar path otherwise avoids.
            stop_when=(
                self._stop_reached if stop_after is not None else None
            ),
            journal=self.journal,
        )
        # All in-order leaves share one batch group.  A single join fed
        # by two leaves whose tuples already carry the side they play
        # takes whole runs: nothing is relabelled and nothing cascades.
        # Any other plan replays each run per tuple, so results reach
        # parents immediately.
        direct = len(self._joins) == 1 and all(
            not chain and leaf.source.source_label == side
            for leaf, _, side, chain in leaves
        )
        self._columns = (
            direct
            and self.columnar_delivery
            and self._root_state.operator.supports_column_batches
        )
        group = self.scheduler.add_batch_group(
            self._deliver_run if direct else self._replay_run,
            self._deliver_run_columns if self._columns else None,
        )
        # Read by the direct deliverers only.  Disordered leaves are not
        # kernel streams (their tuples arrive through a reorder buffer's
        # punctuation timers, in event order at e_i + B), so A is
        # stream 0 when in order, else the sentinel -1 that no run
        # position carries.
        self._sources: tuple = (leaves[0][0].source, leaves[1][0].source)
        self._stream_a = -1 if isinstance(self._sources[0], DisorderedSource) else 0
        self._leaf_deliverers: list = []
        for leaf, node, side, chain in leaves:
            source = leaf.source
            state = self._states[id(node)]
            if isinstance(source, DisorderedSource):
                push = (
                    state.operator.on_tuple if direct
                    else self._pusher(state, side, chain)
                )
                ReorderBuffer(source, push, label=leaf.label).install(self.scheduler)
                continue
            deliver = (
                self._deliver_into(source, state.operator) if direct
                else self._deliver_from(source, self._pusher(state, side, chain))
            )
            self.scheduler.add_stream(
                source.peek_time,
                deliver,
                times=source.pending_times,
                times_array=source.pending_times_array,
                group=group,
            )
            self._leaf_deliverers.append(deliver)
        self.scheduler.batching = bool(batch_delivery)
        for node in self._joins:
            state = self._states[id(node)]
            self.scheduler.add_worker(
                state.operator.has_background_work, self._worker_for(state)
            )
        if broker is not None:
            for node in self._joins:
                state = self._states[id(node)]
                # A lone join is always bound, so the broker reports an
                # operator that cannot be resized instead of skipping it.
                if state.operator.supports_memory_resize or len(self._joins) == 1:
                    broker.bind(state.operator, label=node.label)
            broker.install(self.scheduler)
        self._checks = None
        if checks:
            # Imported lazily: unchecked runs never touch the
            # conformance layer.
            from repro.testing.checks import arrival_map, coerce_checks

            self._checks = coerce_checks(checks)
            for node in self._joins:
                # The causality check applies where both inputs are
                # network arrivals: a join over two untransformed
                # leaves, keyed by the side each leaf plays.  Tuples
                # reaching other joins are manufactured (intermediate
                # results or mapped tuples) and have no arrival.
                fed = [
                    (leaf.source, side)
                    for leaf, target, side, chain in leaves
                    if target is node and not chain
                ]
                arrivals = None
                if len(fed) == 2:
                    sources, sides = zip(*fed)
                    arrivals = arrival_map(*sources, sides=sides)
                self._checks.watch_recorder(
                    self._states[id(node)].recorder, node.label, arrivals=arrivals
                )
            self._checks.watch_kernel(self.scheduler, self.clock, self.operators())

    def _new_disk(self) -> SimulatedDisk:
        if self.spill_dir is None:
            return SimulatedDisk(self.clock, self._costs)
        # Imported lazily: it pulls in the serialization machinery.
        from repro.storage.filedisk import FileBackedDisk

        return FileBackedDisk(self.clock, self._costs, self.spill_dir)

    # -- the uniform query-driver surface (see repro.sim.query) -------------

    @property
    def recorder(self) -> MetricsRecorder:
        """The root join's recorder (the plan's output stream)."""
        return self._root_state.recorder

    def operators(self) -> list[tuple[str, StreamingJoinOperator]]:
        """``(label, operator)`` pairs for every join node, bottom-up."""
        return [
            (node.label, self._states[id(node)].operator)
            for node in self._joins
        ]

    def finish_run(self) -> bool:
        """Run the bottom-up cleanup and finalise checks; True if completed.

        Call only after the streaming phase drained without stopping;
        the cleanup itself may still stop early (``stop_after`` during
        the final merge), in which case False is returned.
        """
        self._finish_all()
        completed = not self._stop_reached()
        if self._checks is not None:
            self._checks.finalize(self.operators(), self.clock, completed)
        return completed

    def build_result(self, completed: bool) -> PipelineResult:
        """Snapshot the run's outcome object."""
        root = self._root_state
        stats = [
            NodeStats(
                label=state.node.label,
                operator=state.operator.name,
                results=state.recorder.count,
                io=state.disk.io_count,
            )
            for state in self._states.values()
        ]
        return PipelineResult(
            recorder=root.recorder,
            clock=self.clock,
            disk=root.disk,
            operator=root.operator,
            completed=completed,
            node_stats=stats,
            journal=self.journal,
        )

    def stream(self):
        """Execute the plan, yielding root results as they surface.

        Yields ``(JoinResult, ResultEvent)`` pairs from the plan root
        with single-arrival granularity while the leaves stream; the
        bottom-up cleanup's results arrive in per-node batches.  Works
        with ``keep_results=False``: results come from a tap on the
        root recorder, so the output history need not stay resident.
        """
        # Streaming promises single-arrival granularity; stay on the
        # per-event path (same numbers, finer interleaving).
        self.scheduler.batching = False
        fresh: list = []
        self.recorder.add_tap(lambda result, event: fresh.append((result, event)))

        def drain():
            batch = fresh.copy()
            fresh.clear()
            yield from batch

        while self.scheduler.step():
            yield from drain()
        yield from drain()
        if not self._stop_reached():
            self.finish_run()
            yield from drain()

    # -- kernel participants ------------------------------------------------

    def _pusher(self, state: _NodeState, side: str, chain):
        """The callback that takes one raw leaf tuple into a join.

        The tuple is relabelled to the side its leaf plays, when it
        differs, and sent up the leaf's transform chain first.
        """

        def push(raw: Tuple) -> None:
            if raw.source != side:
                raw = Tuple(key=raw.key, tid=raw.tid, source=side, payload=raw.payload)
            t = self._apply_chain(chain, raw, side)
            if t is not None:
                state.operator.on_tuple(t)
                self._pump(state.node)

        return push

    @staticmethod
    def _deliver_from(source, push):
        def deliver() -> None:
            _, t = source.pop()
            push(t)

        return deliver

    @staticmethod
    def _deliver_into(source, operator: StreamingJoinOperator):
        # ``on_tuple`` is looked up per call, not bound once, so
        # instrumentation that wraps the class method sees every tuple.
        def deliver() -> None:
            _, t = source.pop()
            operator.on_tuple(t)

        return deliver

    def _replay_run(self, order: list[int], times: list[float]) -> None:
        """Replay one merged arrival run through the per-leaf deliverers.

        Every tuple still advances the clock to its own arrival instant
        before being processed, and the stop predicate is checked
        between consecutive arrivals, exactly where the per-event loop
        checks it — so ``stop_after`` keeps single-result granularity.
        """
        deliverers = self._leaf_deliverers
        advance_to = self.clock.advance_to
        stop = self._stop_reached
        first = True
        for index, at in zip(order, times):
            if first:
                first = False
            elif stop():
                return
            advance_to(at)
            deliverers[index]()

    def _deliver_run(self, order: list[int], times: list[float]) -> None:
        """Deliver one merged arrival run straight into the single join.

        Observably identical to per-event delivery.  With an early stop
        armed the run is replayed per tuple (the predicate may fire
        between any two arrivals); otherwise the sources are popped in
        at most two slices and the operator gets the whole run as boxed
        tuples in one call.
        """
        if self._stop_after is not None:
            self._replay_run(order, times)
            return
        src_a, src_b = self._sources
        n = len(order)
        stream_a = self._stream_a
        count_a = order.count(stream_a)
        if count_a == n:
            _, tuples = src_a.pop_batch(n)
        elif count_a == 0:
            _, tuples = src_b.pop_batch(n)
        else:
            _, batch_a = src_a.pop_batch(count_a)
            _, batch_b = src_b.pop_batch(n - count_a)
            next_a = iter(batch_a).__next__
            next_b = iter(batch_b).__next__
            tuples = [
                next_a() if index == stream_a else next_b() for index in order
            ]
        self._root_state.operator.on_tuple_batch(tuples, times)

    def _deliver_run_columns(self, indices: np.ndarray, times: np.ndarray) -> None:
        """Columnar twin of :meth:`_deliver_run` (arrays in, no boxing)."""
        if self._stop_after is not None:
            self._replay_run(indices.tolist(), times.tolist())
            return
        self._root_state.operator.on_column_batch(
            self._pop_column_batch(indices == self._stream_a, times)
        )

    def _pop_column_batch(self, is_a: np.ndarray, times: np.ndarray) -> ColumnBatch:
        """Pop one merged run from both sources as a :class:`ColumnBatch`.

        ``is_a`` marks which run positions come from source A;
        ``times`` holds the run's arrival instants.  Single-source runs
        are zero-copy slices; mixed runs scatter the two sources'
        column slices into run order.
        """
        src_a, src_b = self._sources
        n = len(is_a)
        count_a = int(np.count_nonzero(is_a))
        if count_a == n:
            _, keys, tids, payloads = src_a.pop_batch_columns(n)
        elif count_a == 0:
            _, keys, tids, payloads = src_b.pop_batch_columns(n)
        else:
            _, keys_a, tids_a, pays_a = src_a.pop_batch_columns(count_a)
            _, keys_b, tids_b, pays_b = src_b.pop_batch_columns(n - count_a)
            keys = np.empty(n, dtype=np.int64)
            keys[is_a] = keys_a
            keys[~is_a] = keys_b
            tids = np.empty(n, dtype=np.int64)
            tids[is_a] = tids_a
            tids[~is_a] = tids_b
            payloads = None
            if pays_a is not None or pays_b is not None:
                payloads = [None] * n
                for rows, side in (
                    (np.flatnonzero(is_a), pays_a),
                    (np.flatnonzero(~is_a), pays_b),
                ):
                    if side is not None:
                        for j, r in enumerate(rows.tolist()):
                            payloads[r] = side[j]
        return ColumnBatch(keys=keys, tids=tids, is_a=is_a, times=times, payloads=payloads)

    def _worker_for(self, state: _NodeState):
        if state.parent is None:
            return state.operator.on_blocked

        def run_blocked(budget) -> None:
            state.operator.on_blocked(budget)
            self._pump(state.node)

        return run_blocked

    def _finish_all(self) -> None:
        """Finish joins bottom-up, flowing final results into parents."""
        if self.journal is not None:
            self.journal.record("engine", "finish")
        for node in self._joins:
            if self._stop_reached():
                return
            state = self._states[id(node)]
            state.operator.finish(self.scheduler.unbounded_budget())
            self._pump(node)

    # -- result propagation ----------------------------------------------------

    def _pump(self, node: JoinNode) -> None:
        """Push any fresh results of ``node`` up the tree, cascading."""
        state = self._states[id(node)]
        while state.parent is not None:
            fresh = state.recorder.results_since(state.consumed)
            state.consumed += len(fresh)
            if not fresh:
                return
            parent_node, side, chain = state.parent
            parent_state = self._states[id(parent_node)]
            for result in fresh:
                wrapped = self._apply_chain(
                    chain, self._wrap_result(result, side, state), side
                )
                if wrapped is not None:
                    parent_state.operator.on_tuple(wrapped)
            state = parent_state

    def _apply_chain(
        self, chain: list[PlanNode], t: Tuple, side: str
    ) -> Tuple | None:
        """Run a tuple up a transform chain; None means filtered out.

        The chain is stored top-down; tuples flow bottom-up, so it is
        applied in reverse.  Map results are re-normalised: the original
        ``tid`` and side label are enforced, so user functions cannot
        break identity uniqueness.
        """
        for node in reversed(chain):
            self.clock.advance(self._costs.cpu_compare_cost)
            if isinstance(node, FilterNode):
                if not node.predicate(t):
                    return None
            else:
                assert isinstance(node, MapNode)
                mapped = node.fn(t)
                if not isinstance(mapped, Tuple):
                    raise ConfigurationError(
                        f"map node {node.label!r} must return a Tuple, "
                        f"got {type(mapped)!r}"
                    )
                t = Tuple(key=mapped.key, tid=t.tid, source=side, payload=mapped.payload)
        return t

    def _wrap_result(self, result: JoinResult, side: str, state: _NodeState) -> Tuple:
        """Turn a child's result into a tuple for the parent join.

        The payload carries the full result, so lineage is recoverable
        at the plan root by unwrapping payloads.
        """
        key_fn = state.node.output_key
        key = result.key if key_fn is None else key_fn(result)
        tid = state.out_serial
        state.out_serial += 1
        return Tuple(key=key, tid=tid, source=side, payload=result)

    # -- bookkeeping -----------------------------------------------------------

    def _stop_reached(self) -> bool:
        return (
            self._stop_after is not None
            and self._root_state.recorder.count >= self._stop_after
        )


def run_plan(
    root: PlanNode,
    costs: CostModel | None = None,
    blocking_threshold: float = 1.0,
    keep_results: bool = True,
    stop_after: int | None = None,
    journal: bool = False,
    broker: ResourceBroker | None = None,
    batch_delivery: bool = True,
    checks=None,
) -> PipelineResult:
    """Execute a plan tree and return the root's output metrics.

    With ``journal=True`` all nodes share one structural-event
    timeline (each entry's ``actor`` tells the nodes apart).  With a
    ``broker``, every resizable join node is bound under the broker's
    global memory grant and its schedule fires mid-run.
    ``batch_delivery=False`` forces per-event kernel dispatch; the
    observable results are identical either way.  ``checks=`` attaches
    per-node invariant checkers (:mod:`repro.testing.checks`) — pure
    observers, so the run's numbers are unchanged.
    """
    executor = PlanExecutor(
        root,
        costs=costs,
        blocking_threshold=blocking_threshold,
        keep_results=keep_results,
        stop_after=stop_after,
        journal=journal,
        broker=broker,
        batch_delivery=batch_delivery,
        checks=checks,
    )
    # A solo run is a one-query session (see repro.sim.query).
    from repro.sim.query import Query

    return Query(executor).run()


def stream_plan(
    root: PlanNode,
    costs: CostModel | None = None,
    blocking_threshold: float = 1.0,
    keep_results: bool = True,
    stop_after: int | None = None,
    journal: bool = False,
    broker: ResourceBroker | None = None,
    batch_delivery: bool = True,
    checks=None,
):
    """Iterate a plan's root results as they are produced.

    The streaming counterpart of :func:`run_plan`, mirroring
    :func:`repro.sim.engine.stream_join`: yields ``(JoinResult,
    ResultEvent)`` pairs from the plan root, with the run's journal,
    recorder, and clock attached to the returned
    :class:`~repro.sim.engine.ResultStream`.
    """
    # Imported lazily: the engine module builds on this one.
    from repro.sim.engine import ResultStream

    executor = PlanExecutor(
        root,
        costs=costs,
        blocking_threshold=blocking_threshold,
        keep_results=keep_results,
        stop_after=stop_after,
        journal=journal,
        broker=broker,
        batch_delivery=batch_delivery,
        checks=checks,
    )
    return ResultStream(executor)
