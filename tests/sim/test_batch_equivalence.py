"""Delivery-path equivalence: per-tuple vs boxed-batch vs columnar.

Columnar delivery (``EventScheduler`` batch groups delivering runs as
:class:`~repro.core.columnar.ColumnBatch` arrays, vectorized run
extraction included) and boxed run delivery (the same runs as tuple
lists through ``on_tuple_batch``, which HMJ packs into columns for the
same loop and every other operator replays per tuple) are
amortisations, never simulation changes: for any workload all three
kernel paths must produce the identical ``(count, final clock, io)``
triple *and* the identical result-event sequence.  This suite pins
that equivalence three ways:

* every cell of the six pinned figure benchmarks (the exact scenarios
  ``test_determinism.py`` captures) through all three paths;
* a randomized property test over arrival models (constant / Poisson /
  Pareto), tiny memory budgets that force flushing mid-run (segmented
  columnar batches with mid-batch flush points), and early stops that
  land mid-batch;
* an explicit ``stop_after`` granularity check: the batched paths must
  halt after the same number of delivered tuples as the per-tuple path,
  not at the end of the batch the stop fired in.

A second axis is the driver: ``run_join`` is the one-join plan, so
``run_plan`` over the same two leaves must give the identical signature
for every operator, per-tuple and batched.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bench.figures import BLOCKING_T, _bursty
from repro.bench.runner import execute
from repro.bench.scale import BenchScale
from repro.core.config import HMJConfig
from repro.core.flushing import FlushSmallestPolicy
from repro.core.hmj import HashMergeJoin
from repro.joins.pmj import ProgressiveMergeJoin
from repro.joins.xjoin import XJoin
from repro.net.arrival import ConstantRate, ParetoArrival, PoissonArrival
from repro.net.source import NetworkSource
from repro.pipeline import join, leaf, run_plan
from repro.sim.engine import run_join
from repro.testing.conformance import OPERATORS
from repro.workloads.generator import WorkloadSpec, make_relation_pair

SCALE = BenchScale(n_per_source=400, seed=7)

#: The full delivery axis: label -> engine path switches.
PATHS = {
    "per_tuple": {"batch_delivery": False, "columnar_delivery": False},
    "boxed": {"batch_delivery": True, "columnar_delivery": False},
    "columnar": {"batch_delivery": True, "columnar_delivery": True},
}


def _signature(result):
    """Everything observable about a run: the triple plus every event."""
    return (
        result.recorder.count,
        result.clock.now,
        result.disk.io_count,
        list(result.recorder.iter_events()),
    )


def _all_paths(make_operator, make_arrival_a, make_arrival_b, **kwargs):
    signatures = {}
    for label, path in PATHS.items():
        rel_a, rel_b = make_relation_pair(SCALE.spec)
        result = execute(
            rel_a,
            rel_b,
            make_operator(),
            make_arrival_a(),
            make_arrival_b(),
            **path,
            **kwargs,
        )
        signatures[label] = _signature(result)
    return signatures


def _hmj(**kwargs):
    memory = kwargs.pop("memory", SCALE.spec.memory_capacity())
    return HashMergeJoin(HMJConfig(memory_capacity=memory, **kwargs))


def _fast():
    return ConstantRate(SCALE.fast_rate)


def _slow():
    return ConstantRate(SCALE.fast_rate / 5.0)


def _burst():
    return _bursty(SCALE)


def _figure_cells():
    memory = SCALE.spec.memory_capacity()
    tight = SCALE.spec.memory_capacity(0.10)
    first_k = SCALE.first_k(1000)
    return {
        "fig09-hmj-p05": (
            lambda: _hmj(flush_fraction=0.05, fan_in=16), _fast, _fast, {},
        ),
        "fig10-hmj-adaptive": (_hmj, _fast, _fast, {}),
        "fig10-hmj-smallest": (
            lambda: _hmj(policy=FlushSmallestPolicy()), _fast, _fast, {},
        ),
        "fig11-hmj": (_hmj, _fast, _fast, {}),
        "fig11-xjoin": (lambda: XJoin(memory_capacity=memory), _fast, _fast, {}),
        "fig11-pmj": (
            lambda: ProgressiveMergeJoin(memory_capacity=memory), _fast, _fast, {},
        ),
        "fig12-hmj": (_hmj, _fast, _slow, {}),
        "fig12-xjoin": (lambda: XJoin(memory_capacity=memory), _fast, _slow, {}),
        "fig12-pmj": (
            lambda: ProgressiveMergeJoin(memory_capacity=memory), _fast, _slow, {},
        ),
        "fig13-hmj-stop": (
            lambda: _hmj(memory=tight), _fast, _fast, {"stop_after": first_k},
        ),
        "fig13-pmj-stop": (
            lambda: ProgressiveMergeJoin(memory_capacity=tight),
            _fast, _fast, {"stop_after": first_k},
        ),
        "fig14-hmj": (_hmj, _burst, _burst, {"blocking_threshold": BLOCKING_T}),
        "fig14-xjoin": (
            lambda: XJoin(memory_capacity=memory), _burst, _burst,
            {"blocking_threshold": BLOCKING_T},
        ),
        "fig14-pmj": (
            lambda: ProgressiveMergeJoin(memory_capacity=memory), _burst, _burst,
            {"blocking_threshold": BLOCKING_T},
        ),
    }


@pytest.mark.parametrize("cell", sorted(_figure_cells()))
def test_figure_cells_identical_through_all_paths(cell):
    make_operator, arr_a, arr_b, kwargs = _figure_cells()[cell]
    signatures = _all_paths(make_operator, arr_a, arr_b, **kwargs)
    assert signatures["boxed"] == signatures["per_tuple"]
    assert signatures["columnar"] == signatures["per_tuple"]


# -- randomized equivalence --------------------------------------------------

_ARRIVALS = {
    "constant": lambda: ConstantRate(800.0),
    "poisson": lambda: PoissonArrival(800.0),
    "pareto": lambda: ParetoArrival(800.0, shape=1.5),
}


@given(
    n=st.integers(min_value=20, max_value=120),
    key_range=st.integers(min_value=4, max_value=200),
    seed=st.integers(min_value=0, max_value=2**16),
    kind_a=st.sampled_from(sorted(_ARRIVALS)),
    kind_b=st.sampled_from(sorted(_ARRIVALS)),
    memory=st.integers(min_value=4, max_value=16),
    stop_after=st.none() | st.integers(min_value=1, max_value=40),
    op_kind=st.sampled_from(["hmj", "xjoin"]),
)
def test_batched_paths_equivalent_on_random_workloads(
    n, key_range, seed, kind_a, kind_b, memory, stop_after, op_kind
):
    spec = WorkloadSpec(n_a=n, n_b=n, key_range=key_range, seed=seed)
    signatures = {}
    for label, path in PATHS.items():
        rel_a, rel_b = make_relation_pair(spec)
        if op_kind == "hmj":
            operator = HashMergeJoin(HMJConfig(memory_capacity=memory))
        else:
            operator = XJoin(memory_capacity=memory)
        result = execute(
            rel_a,
            rel_b,
            operator,
            _ARRIVALS[kind_a](),
            _ARRIVALS[kind_b](),
            blocking_threshold=0.01,
            stop_after=stop_after,
            **path,
        )
        signatures[label] = _signature(result)
    assert signatures["boxed"] == signatures["per_tuple"]
    assert signatures["columnar"] == signatures["per_tuple"]


# -- early-stop granularity --------------------------------------------------


def test_stop_after_halts_with_single_result_granularity():
    """An early stop lands mid-run, not at the end of a delivery batch.

    At constant equal rates every batch spans many arrivals, so a
    batch-granular stop would overshoot the per-tuple path on both the
    result count and the number of source tuples consumed.  The batched
    path must check the stop predicate between consecutive arrivals.
    """
    spec = SCALE.spec
    stop_after = 25
    outcomes = {}
    for label, path in PATHS.items():
        rel_a, rel_b = make_relation_pair(spec)
        src_a = NetworkSource(rel_a, ConstantRate(SCALE.fast_rate), seed=11)
        src_b = NetworkSource(rel_b, ConstantRate(SCALE.fast_rate), seed=22)
        operator = HashMergeJoin(
            HMJConfig(memory_capacity=spec.memory_capacity(0.10))
        )
        result = run_join(
            src_a,
            src_b,
            operator,
            keep_results=False,
            stop_after=stop_after,
            **path,
        )
        outcomes[label] = (
            _signature(result),
            src_a.delivered,
            src_b.delivered,
        )
    assert outcomes["boxed"] == outcomes["per_tuple"]
    assert outcomes["columnar"] == outcomes["per_tuple"]
    signature, delivered_a, delivered_b = outcomes["columnar"]
    assert signature[0] >= stop_after
    # The stop fired strictly inside the input, not at stream end.
    assert delivered_a + delivered_b < 2 * SCALE.n_per_source


# -- retained-result identity ------------------------------------------------


@pytest.mark.parametrize("op_kind", ["hmj", "xjoin"])
def test_retained_results_identical_across_paths(op_kind):
    """Boxed result sequences agree, not just the counts.

    The columnar path materialises ``JoinResult`` objects lazily from
    :class:`~repro.core.columnar.ResultColumns` segments; the exact
    emission order and A/B orientation must survive that round-trip.
    """
    spec = SCALE.spec
    sequences = {}
    for label, path in PATHS.items():
        rel_a, rel_b = make_relation_pair(spec)
        src_a = NetworkSource(rel_a, PoissonArrival(SCALE.fast_rate), seed=11)
        src_b = NetworkSource(rel_b, PoissonArrival(SCALE.fast_rate), seed=22)
        if op_kind == "hmj":
            operator = HashMergeJoin(
                HMJConfig(memory_capacity=spec.memory_capacity(0.10))
            )
        else:
            operator = XJoin(memory_capacity=spec.memory_capacity(0.10))
        result = run_join(src_a, src_b, operator, keep_results=True, **path)
        sequences[label] = [
            (r.left.identity(), r.right.identity()) for r in result.results
        ]
    assert sequences["boxed"] == sequences["per_tuple"]
    assert sequences["columnar"] == sequences["per_tuple"]


# -- subclass overrides stay authoritative ----------------------------------


class _CountingHMJ(HashMergeJoin):
    """HMJ whose per-tuple hook records every tuple it sees."""

    def __init__(self, config):
        super().__init__(config)
        self.seen = []

    def on_tuple(self, t):
        self.seen.append(t.identity())
        super().on_tuple(t)


def test_on_tuple_override_sees_every_tuple_once_on_every_path():
    """Both batch hooks replay a subclass's ``on_tuple`` override.

    Memory holds 10% of the input, so runs span flushes.  Every path
    must route each arrival through the override exactly once and
    produce plain HMJ's signature.
    """
    memory = SCALE.spec.memory_capacity(0.10)
    rel_a, rel_b = make_relation_pair(SCALE.spec)
    plain = _signature(
        execute(rel_a, rel_b, _hmj(memory=memory), _fast(), _fast(), **PATHS["per_tuple"])
    )
    expected = sorted(t.identity() for t in (*rel_a, *rel_b))
    for label, path in PATHS.items():
        rel_a, rel_b = make_relation_pair(SCALE.spec)
        operator = _CountingHMJ(HMJConfig(memory_capacity=memory))
        result = execute(rel_a, rel_b, operator, _fast(), _fast(), **path)
        assert sorted(operator.seen) == expected, label
        assert _signature(result) == plain, label


# -- the driver axis: a one-join plan is run_join ---------------------------

_ONE_JOIN_ARRIVALS = {
    "poisson": (lambda: PoissonArrival(SCALE.fast_rate), 1.0),
    "bursty": (_burst, BLOCKING_T),
}


@pytest.mark.parametrize("arrival", sorted(_ONE_JOIN_ARRIVALS))
@pytest.mark.parametrize("op_kind", ["hmj", "xjoin", "pmj", "dphj", "ripple", "shj"])
def test_one_join_plan_matches_run_join_on_every_path(op_kind, arrival):
    """``run_plan`` of ``join(leaf(a), leaf(b))`` equals ``run_join``.

    Memory holds 10% of the input, so flushes (and, under bursts,
    blocked-window merges) interleave with arrivals.  ``run_plan`` has
    no columnar switch: batched, it takes the same columnar or boxed
    run delivery ``run_join`` defaults to.
    """
    make_arrival, threshold = _ONE_JOIN_ARRIVALS[arrival]
    memory = SCALE.spec.memory_capacity(0.10)

    def sources():
        rel_a, rel_b = make_relation_pair(SCALE.spec)
        return (
            NetworkSource(rel_a, make_arrival(), seed=11),
            NetworkSource(rel_b, make_arrival(), seed=22),
        )

    signatures = {}
    for label, path in PATHS.items():
        operator = OPERATORS[op_kind](memory, SCALE)
        signatures[f"run_join/{label}"] = _signature(
            run_join(*sources(), operator, blocking_threshold=threshold, **path)
        )
    for batched in (False, True):
        src_a, src_b = sources()
        operator = OPERATORS[op_kind](memory, SCALE)
        result = run_plan(
            join(leaf(src_a), leaf(src_b), lambda: operator),
            blocking_threshold=threshold,
            batch_delivery=batched,
        )
        signatures[f"run_plan/batched={batched}"] = _signature(result)
    reference = signatures["run_join/per_tuple"]
    assert reference[0] > 0
    for label, signature in signatures.items():
        assert signature == reference, label


def test_one_join_plan_delivers_column_batches():
    """The columnar path is the default for a one-join plan, not a replay."""
    rel_a, rel_b = make_relation_pair(SCALE.spec)
    operator = _hmj()
    batches = []
    deliver = operator.on_column_batch

    def spy(batch):
        batches.append(len(batch.keys))
        deliver(batch)

    operator.on_column_batch = spy
    run_plan(
        join(
            leaf(NetworkSource(rel_a, _fast(), seed=11)),
            leaf(NetworkSource(rel_b, _fast(), seed=22)),
            lambda: operator,
        )
    )
    assert sum(batches) == 2 * SCALE.n_per_source
    assert len(batches) < SCALE.n_per_source
