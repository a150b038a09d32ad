"""Unit tests for the columnar data plane's building blocks.

The end-to-end equivalence of the columnar delivery path is pinned by
``tests/sim/test_batch_equivalence.py``; this file tests the pieces in
isolation: :class:`~repro.core.columnar.ColumnBatch` boxing and
packing, the hash
table's array-native :meth:`~repro.core.hashing.DualHashTable.
probe_insert_batch` against its own scalar path, boxing-free group
discards, the recorder's column-slice appends, the kernel's vectorized
run extraction against the scalar merge, and the native-float
guarantees of the source schedule (no numpy scalar boxing).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.columnar import ColumnBatch
from repro.core.hashing import DualHashTable
from repro.errors import SimulationError
from repro.metrics.recorder import MetricsRecorder
from repro.net.arrival import ConstantRate, PoissonArrival
from repro.net.source import NetworkSource
from repro.sim import scheduler as scheduler_module
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.sim.scheduler import EventScheduler
from repro.storage.disk import SimulatedDisk
from repro.storage.tuples import SOURCE_A, SOURCE_B, Tuple
from repro.workloads.generator import make_relation_pair, paper_workload


def _batch_from(rows):
    """Build a ColumnBatch from ``(key, tid, is_a, time)`` rows."""
    keys, tids, isa, times = zip(*rows)
    return ColumnBatch(
        keys=np.asarray(keys, dtype=np.int64),
        tids=np.asarray(tids, dtype=np.int64),
        is_a=np.asarray(isa, dtype=bool),
        times=np.asarray(times, dtype=np.float64),
    )


# -- ColumnBatch boxing ------------------------------------------------------


def test_column_batch_to_tuples_round_trip():
    batch = _batch_from(
        [(5, 0, True, 0.1), (7, 0, False, 0.2), (5, 1, False, 0.2)]
    )
    tuples, times = batch.to_tuples()
    assert times == [0.1, 0.2, 0.2]
    assert all(type(t) is float for t in times)
    assert [(t.key, t.tid, t.source) for t in tuples] == [
        (5, 0, SOURCE_A),
        (7, 0, SOURCE_B),
        (5, 1, SOURCE_B),
    ]
    # Boxed fields are native Python ints, not numpy scalars.
    assert all(type(t.key) is int and type(t.tid) is int for t in tuples)


def test_column_batch_to_tuples_carries_payloads():
    batch = _batch_from([(3, 0, True, 0.0), (3, 0, False, 0.1)])
    batch.payloads = ["pa", "pb"]
    tuples, _ = batch.to_tuples()
    assert [t.payload for t in tuples] == ["pa", "pb"]


_ROWS = st.lists(
    st.tuples(
        st.integers(min_value=-(2**40), max_value=2**40),
        st.integers(min_value=0, max_value=2**31),
        st.booleans(),
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        st.none() | st.text(max_size=3),
    ),
    max_size=40,
)


@given(rows=_ROWS, keep_payloads=st.booleans())
def test_from_tuples_inverts_to_tuples(rows, keep_payloads):
    """``from_tuples(*batch.to_tuples())`` rebuilds ``batch`` exactly.

    Both sides, negative keys, payloads on some rows only; a batch
    whose payloads are all ``None`` packs to ``payloads=None``.
    """
    rows.sort(key=lambda row: row[3])
    payloads = [row[4] for row in rows]
    if not keep_payloads or payloads.count(None) == len(payloads):
        payloads = None
    batch = ColumnBatch(
        keys=np.array([row[0] for row in rows], dtype=np.int64),
        tids=np.array([row[1] for row in rows], dtype=np.int64),
        is_a=np.array([row[2] for row in rows], dtype=bool),
        times=np.array([row[3] for row in rows], dtype=np.float64),
        payloads=payloads,
    )
    packed = ColumnBatch.from_tuples(*batch.to_tuples())
    for name in ("keys", "tids", "is_a", "times"):
        got, want = getattr(packed, name), getattr(batch, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert packed.payloads == batch.payloads


def test_from_tuples_packs_all_none_payloads_as_none():
    tuples = [
        Tuple(key=-3, tid=0, source=SOURCE_A),
        Tuple(key=4, tid=0, source=SOURCE_B),
    ]
    packed = ColumnBatch.from_tuples(tuples, [0.5, 0.5])
    assert packed.payloads is None
    assert packed.is_a.tolist() == [True, False]


# -- probe_insert_batch vs the scalar path -----------------------------------


def _scalar_oracle(table, batch):
    """Replay the batch through probe_insert; collect the observables."""
    candidates = []
    match_counts = []
    pairs = []
    for i in range(len(batch)):
        t = Tuple(
            key=int(batch.keys[i]),
            tid=int(batch.tids[i]),
            source=SOURCE_A if batch.is_a[i] else SOURCE_B,
        )
        matches, cand, _bucket = table.probe_insert(t)
        candidates.append(cand)
        match_counts.append(len(matches))
        pairs.extend((i, m.tid) for m in matches)
    return candidates, match_counts, pairs


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n_buckets", [1, 7, 64])
def test_probe_insert_batch_matches_scalar_path(seed, n_buckets):
    rng = np.random.default_rng(seed)
    n = 300
    keys = rng.integers(0, 40, size=n).astype(np.int64)  # dense: many matches
    is_a = rng.random(n) < 0.5
    tids = np.zeros(n, dtype=np.int64)
    tids[is_a] = np.arange(int(is_a.sum()))
    tids[~is_a] = np.arange(n - int(is_a.sum()))
    batch = ColumnBatch(
        keys=keys, tids=tids, is_a=is_a, times=np.zeros(n)
    )

    scalar_table = DualHashTable(n_buckets=n_buckets, n_groups=1)
    # Pre-populate both tables identically so probes hit existing rows
    # as well as earlier batch rows.
    batch_table = DualHashTable(n_buckets=n_buckets, n_groups=1)
    for k in range(0, 40, 3):
        for table in (scalar_table, batch_table):
            table.insert(Tuple(key=k, tid=1000 + k, source=SOURCE_A))
            table.insert(Tuple(key=k, tid=2000 + k, source=SOURCE_B))

    candidates, match_counts, pairs = _scalar_oracle(scalar_table, batch)
    plan = batch_table.probe_insert_batch(
        batch.keys,
        batch.tids,
        batch.is_a,
        None,
        batch_table.hash_batch(batch.keys),
    )
    assert plan.candidates.tolist() == candidates
    assert plan.match_counts.tolist() == match_counts
    assert plan.total_matches == sum(match_counts)
    assert list(zip(plan.probe_rows.tolist(), plan.build_tids.tolist())) == pairs
    # Both tables end in the same state.
    assert scalar_table.total_tuples() == batch_table.total_tuples()
    for source in (SOURCE_A, SOURCE_B):
        for b in range(n_buckets):
            assert (
                scalar_table.bucket_contents(source, b)
                == batch_table.bucket_contents(source, b)
            )


def test_probe_insert_batch_counts_only_skips_pairs():
    table = DualHashTable(n_buckets=4, n_groups=1)
    table.insert(Tuple(key=1, tid=0, source=SOURCE_B))
    plan = table.probe_insert_batch(
        np.array([1], dtype=np.int64),
        np.array([0], dtype=np.int64),
        np.array([True]),
        None,
        table.hash_batch(np.array([1], dtype=np.int64)),
        need_pairs=False,
    )
    assert plan.total_matches == 1
    assert plan.probe_rows is None
    assert plan.build_tids is None


def test_discard_group_clears_without_boxing():
    table = DualHashTable(n_buckets=8, n_groups=2)
    for k in range(50):
        table.insert(Tuple(key=k, tid=k, source=SOURCE_A))
    before = table.total_tuples()
    expected = sum(
        table.bucket_size(SOURCE_A, b) for b in table.buckets_in_group(0)
    )
    dropped = table.discard_group(SOURCE_A, 0)
    assert dropped == expected
    assert table.total_tuples() == before - expected
    assert all(
        table.bucket_size(SOURCE_A, b) == 0 for b in table.buckets_in_group(0)
    )
    # The other group and source are untouched.
    assert table.discard_group(SOURCE_A, 0) == 0


# -- recorder column-slice appends -------------------------------------------


def _recorder(keep_results):
    clock = VirtualClock()
    disk = SimulatedDisk(clock, CostModel())
    return MetricsRecorder(clock, disk, keep_results=keep_results)


class _FakeSegment:
    """Stands in for ResultColumns: counts materialise() calls."""

    def __init__(self, results):
        self._results = results
        self.materialised = 0

    def materialise(self):
        self.materialised += 1
        return list(self._results)


def _result(k=1):
    return type(
        "R", (), {"left": Tuple(key=k, tid=0, source=SOURCE_A)}
    )()


def test_append_batch_columns_counts_only():
    recorder = _recorder(keep_results=False)
    recorder.append_batch_columns([0.5, 0.7], io=3, phase="hashing")
    assert recorder.count == 2
    assert recorder.time_to_kth(2) == 0.7
    assert recorder.io_to_kth(1) == 3
    assert recorder.count_in_phase("hashing") == 2
    events = list(recorder.iter_events())
    assert [(e.k, e.time, e.io, e.phase) for e in events] == [
        (1, 0.5, 3, "hashing"),
        (2, 0.7, 3, "hashing"),
    ]


def test_append_batch_columns_requires_results_when_retaining():
    recorder = _recorder(keep_results=True)
    assert recorder.needs_results
    with pytest.raises(SimulationError):
        recorder.append_batch_columns([0.1], io=0, phase="hashing")


def test_append_batch_columns_requires_results_for_taps():
    recorder = _recorder(keep_results=False)
    assert not recorder.needs_results
    recorder.add_tap(lambda result, event: None)
    assert recorder.needs_results
    with pytest.raises(SimulationError):
        recorder.append_batch_columns([0.1], io=0, phase="hashing")


def test_append_batch_columns_materialises_lazily():
    recorder = _recorder(keep_results=True)
    segment = _FakeSegment([_result(1), _result(2)])
    recorder.append_batch_columns([0.1, 0.2], io=0, phase="hashing", results=segment)
    assert recorder.count == 2
    assert segment.materialised == 0  # nothing read yet
    assert len(recorder.results) == 2
    assert segment.materialised == 1
    # Re-reading does not re-materialise.
    assert len(recorder.results) == 2
    assert segment.materialised == 1


def test_append_batch_columns_interleaves_with_record():
    recorder = _recorder(keep_results=False)
    seen = []
    recorder.append_batch_columns([0.1], io=0, phase="hashing")
    # A later per-event record keeps k numbering continuous even though
    # the earlier events were never boxed.
    from repro.storage.tuples import JoinResult, make_result

    a = Tuple(key=9, tid=0, source=SOURCE_A)
    b = Tuple(key=9, tid=0, source=SOURCE_B)
    event = recorder.record(make_result(a, b), phase="cleanup")
    assert event.k == 2
    assert [e.k for e in recorder.iter_events()] == [1, 2]
    assert recorder.count_in_phase("cleanup") == 1
    del seen, JoinResult


# -- vectorized run extraction vs the scalar merge ---------------------------


class _FakeStream:
    """A pre-scheduled stream exposing both times views."""

    def __init__(self, times):
        self.arr = np.asarray(times, dtype=np.float64)
        self.lst = self.arr.tolist()
        self.i = 0

    def peek(self):
        return self.lst[self.i] if self.i < len(self.lst) else None

    def times(self):
        return self.lst, self.i

    def times_array(self):
        return self.arr, self.i

    def deliver_one(self):
        self.i += 1


def _drain_runs(streams_times, timer_times, threshold, columnar):
    clock = VirtualClock()
    scheduler = EventScheduler(clock=clock, blocking_threshold=threshold)
    streams = [_FakeStream(t) for t in streams_times]
    by_index = {}
    runs = []

    def deliver(order, times):
        for index, at in zip(order, times):
            clock.advance_to(at)
            by_index[index].deliver_one()
        runs.append((list(order), list(times)))

    def deliver_columns(indices, times):
        deliver(indices.tolist(), times.tolist())

    group = scheduler.add_batch_group(
        deliver, deliver_columns if columnar else None
    )
    for stream in streams:
        index = scheduler.add_stream(
            stream.peek,
            stream.deliver_one,
            times=stream.times,
            times_array=stream.times_array if columnar else None,
            group=group,
        )
        by_index[index] = stream
    for at in timer_times:
        scheduler.call_at(at, lambda: None)
    scheduler.run()
    return runs


@pytest.mark.parametrize("seed", range(6))
def test_array_extraction_matches_scalar_merge(seed, monkeypatch):
    """Same runs, same order, same instants — bound, tie, gap and window cuts.

    Times sit on a coarse grid so exact cross-stream ties (and ties
    with timers and arrivals outside the group) actually occur.  The
    extraction window is shrunk far below the schedule length, so runs
    span several window edges and equal-time ties straddle them.
    """
    rng = np.random.default_rng(seed)

    def schedule(n):
        return np.sort(rng.integers(0, 150, size=n)).astype(np.float64) * 0.01

    streams = [schedule(200), schedule(200)]
    timers = sorted(set((rng.integers(0, 150, size=3) * 0.01).tolist()))
    threshold = 0.03  # grid gaps of >= 4 steps break runs
    scalar = _drain_runs(streams, timers, threshold, columnar=False)
    assert sum(len(order) for order, _ in scalar) == 400
    for window in (1, 3, 16, scheduler_module.RUN_WINDOW):
        monkeypatch.setattr(scheduler_module, "RUN_WINDOW", window)
        assert _drain_runs(streams, timers, threshold, columnar=True) == scalar
    assert max(len(order) for order, _ in scalar) > 4 * 16


def test_array_extraction_window_edge_ties(monkeypatch):
    """Ties at the window-th time stay together across both streams."""
    monkeypatch.setattr(scheduler_module, "RUN_WINDOW", 2)
    streams = [
        [0.0, 0.01, 0.02, 0.02, 0.02, 0.03, 0.2],
        [0.02, 0.02, 0.02, 0.02, 0.05, 0.2],
    ]
    arrays = _drain_runs(streams, [], 0.1, columnar=True)
    assert arrays == _drain_runs(streams, [], 0.1, columnar=False)
    assert arrays == [
        (
            [0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 1],
            [0.0, 0.01, 0.02, 0.02, 0.02, 0.02, 0.02, 0.02, 0.02, 0.03, 0.05],
        ),
        ([0, 1], [0.2, 0.2]),
    ]


def test_array_extraction_falls_back_without_times_array():
    streams = [np.array([0.0, 0.001, 0.002])]
    runs = _drain_runs(streams, [], 1.0, columnar=True)
    # Register the same schedule without the array hook: the scalar
    # extraction serves deliver_columns' group via the list deliverer.
    clock = VirtualClock()
    scheduler = EventScheduler(clock=clock, blocking_threshold=1.0)
    stream = _FakeStream(streams[0])
    collected = []
    scheduler.add_batch_group(
        lambda order, times: (
            collected.append(list(times)),
            [stream.deliver_one() for _ in order],
            clock.advance_to(times[-1]),
        ),
        lambda indices, times: collected.append("columnar"),
    )
    scheduler.add_stream(
        stream.peek, stream.deliver_one, times=stream.times, group=0
    )
    scheduler.run()
    assert collected == [[0.0, 0.001, 0.002]]
    assert runs == [([0, 0, 0], [0.0, 0.001, 0.002])]


# -- native-float schedules (no numpy scalar boxing) -------------------------


def test_source_schedules_are_native_floats():
    """Batch times must arrive as native floats / float64 arrays.

    Regression for numpy scalar boxing: a ``np.float64`` leaking into
    the per-event path makes every downstream float add ~5x slower and
    can silently change repr-based diagnostics.
    """
    spec = paper_workload(64)
    rel_a, _ = make_relation_pair(spec)
    for arrivals in (ConstantRate(500.0), PoissonArrival(500.0)):
        source = NetworkSource(rel_a, arrivals, seed=3)
        times, cursor = source.pending_times()
        assert cursor == 0
        assert all(type(t) is float for t in times)
        arr, _ = source.pending_times_array()
        assert arr.dtype == np.float64
        assert arr.tolist() == times  # bit-exact twins
        assert type(source.peek_time()) is float
        popped_times, tuples = source.pop_batch(4)
        assert all(type(t) is float for t in popped_times)
        assert all(type(t.key) is int for t in tuples)


def test_generated_relations_hold_native_ints():
    spec = paper_workload(32)
    rel_a, rel_b = make_relation_pair(spec)
    for rel in (rel_a, rel_b):
        assert all(type(t.key) is int and type(t.tid) is int for t in rel.tuples)
