"""Property-based tests for core data structures and invariants."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.flushing import (
    AdaptiveFlushingPolicy,
    FlushLargestPolicy,
    FlushSmallestPolicy,
)
from repro.core.hashing import DualHashTable
from repro.core.summary import BucketSummaryTable
from repro.errors import MemoryBudgetError
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.storage.disk import SimulatedDisk
from repro.storage.memory import MemoryPool
from repro.storage.pages import page_utilisation, pages_needed, split_into_pages
from repro.storage.runs import SortedRun, merge_sorted_runs
from repro.storage.tuples import SOURCE_A, SOURCE_B, Tuple


@given(
    ops=st.lists(st.integers(min_value=-20, max_value=20), max_size=50),
    capacity=st.integers(min_value=1, max_value=50),
)
def test_memory_pool_usage_always_within_bounds(ops, capacity):
    pool = MemoryPool(capacity)
    for op in ops:
        try:
            if op >= 0:
                pool.allocate(op)
            else:
                pool.release(-op)
        except MemoryBudgetError:
            pass
        assert 0 <= pool.used <= pool.capacity
        assert pool.peak >= pool.used
        assert pool.free == pool.capacity - pool.used


@given(
    n=st.integers(min_value=0, max_value=10_000),
    page_size=st.integers(min_value=1, max_value=512),
)
def test_pages_needed_is_exact_ceiling(n, page_size):
    pages = pages_needed(n, page_size)
    assert pages * page_size >= n
    assert (pages - 1) * page_size < n or pages == 0
    assert 0.0 <= page_utilisation(n, page_size) <= 1.0


@given(
    items=st.lists(st.integers(), max_size=200),
    page_size=st.integers(min_value=1, max_value=17),
)
def test_split_into_pages_partitions_exactly(items, page_size):
    pages = list(split_into_pages(items, page_size))
    assert [x for page in pages for x in page] == items
    assert all(1 <= len(p) <= page_size for p in pages)


@given(
    runs_keys=st.lists(
        st.lists(st.integers(min_value=0, max_value=100), max_size=30),
        min_size=1,
        max_size=6,
    )
)
def test_merge_iterator_yields_sorted_union(runs_keys):
    clock = VirtualClock()
    disk = SimulatedDisk(clock, CostModel(page_size=4))
    runs = []
    for i, keys in enumerate(runs_keys):
        tuples = sorted(
            (Tuple(key=k, tid=j, source=SOURCE_A) for j, k in enumerate(keys)),
            key=Tuple.sort_key,
        )
        if not tuples:
            continue
        block = disk.write_block("p", tuples, block_id=i, sorted_by_key=True)
        runs.append(SortedRun(block=block, origin=i))
    merged = merge_sorted_runs(runs, disk)
    keys_out = [t.key for t, _ in merged]
    assert keys_out == sorted(keys_out)
    assert sorted(keys_out) == sorted(k for keys in runs_keys for k in keys)


@given(
    layout=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=50),
            st.integers(min_value=0, max_value=50),
        ),
        min_size=1,
        max_size=12,
    ),
    a=st.integers(min_value=0, max_value=30),
    b=st.integers(min_value=1, max_value=100),
)
def test_adaptive_policy_always_returns_a_nonempty_victim(layout, a, b):
    if all(na + nb == 0 for na, nb in layout):
        return  # nothing to flush: policies legitimately refuse
    table = BucketSummaryTable(len(layout))
    for g, (na, nb) in enumerate(layout):
        table.add(SOURCE_A, g, na)
        table.add(SOURCE_B, g, nb)
    policy = AdaptiveFlushingPolicy(a=a, b=b)
    policy.prepare(memory_capacity=max(table.total, 1), n_groups=len(layout))
    (victim,) = policy.select_victims(table)
    assert table.pair_total(victim) > 0


@given(
    layout=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=50),
            st.integers(min_value=0, max_value=50),
        ),
        min_size=1,
        max_size=12,
    )
)
def test_smallest_and_largest_are_extremes(layout):
    if all(na + nb == 0 for na, nb in layout):
        return
    table = BucketSummaryTable(len(layout))
    for g, (na, nb) in enumerate(layout):
        table.add(SOURCE_A, g, na)
        table.add(SOURCE_B, g, nb)
    (small,) = FlushSmallestPolicy().select_victims(table)
    (large,) = FlushLargestPolicy().select_victims(table)
    nonempty_totals = [table.pair_total(g) for g in table.nonempty_groups()]
    assert table.pair_total(small) == min(nonempty_totals)
    assert table.pair_total(large) == max(nonempty_totals)


@given(
    deltas=st.lists(st.floats(min_value=0, max_value=10, allow_nan=False), max_size=30)
)
def test_clock_is_monotone_under_any_advance_sequence(deltas):
    clock = VirtualClock()
    last = 0.0
    for d in deltas:
        clock.advance(d)
        assert clock.now >= last
        last = clock.now


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=100), min_size=1, max_size=20),
    page_size=st.integers(min_value=1, max_value=64),
)
def test_disk_counters_match_sum_of_block_pages(sizes, page_size):
    clock = VirtualClock()
    disk = SimulatedDisk(clock, CostModel(page_size=page_size, io_cost=1.0))
    for i, n in enumerate(sizes):
        disk.write_block("p", [Tuple(key=0, tid=j) for j in range(n)], block_id=i)
    expected = sum(pages_needed(n, page_size) for n in sizes)
    assert disk.pages_written == expected
    assert clock.now == pytest.approx(float(expected))


# -- probe_insert_batch vs the per-tuple probe_insert oracle -----------------

#: (key, is_a, carries a payload) rows; a narrow key range with negative
#: keys packs several stored duplicates per key into shared buckets.
_ROWS = st.lists(
    st.tuples(st.integers(-5, 5), st.booleans(), st.booleans()), max_size=40
)


def _row_tuples(rows, tids, payloads=True):
    """Box ``rows`` as tuples, numbering tids per source from ``tids``."""
    out = []
    for key, is_a, has_payload in rows:
        source = SOURCE_A if is_a else SOURCE_B
        tid = tids[source]
        tids[source] += 1
        out.append(
            Tuple(
                key=key,
                tid=tid,
                source=source,
                payload=f"{source}{tid}" if payloads and has_payload else None,
            )
        )
    return out


def _stored_payload(table):
    return any(
        t.payload is not None
        for source in (SOURCE_A, SOURCE_B)
        for g in range(table.n_groups)
        for b in table.buckets_in_group(g)
        for t in table.bucket_contents(source, b)
    )


@given(
    n_buckets=st.integers(min_value=1, max_value=8),
    n_groups=st.integers(min_value=1, max_value=3),
    stored=_ROWS,
    batches=st.lists(st.tuples(st.booleans(), _ROWS), min_size=1, max_size=3),
    split=st.none() | st.tuples(st.integers(0, 2), st.integers(2, 4)),
    extract=st.none() | st.integers(0, 2),
    need_pairs=st.booleans(),
)
def test_probe_insert_batch_matches_per_tuple_oracle(
    n_buckets, n_groups, stored, batches, split, extract, need_pairs
):
    """Batch probe+insert ≡ row-by-row ``probe_insert``.

    Candidates, match counts, the exact ``(probe_row, build_tid)``
    emission order, build payloads and the final bucket contents all
    agree, over stored duplicates interleaved in shared buckets,
    payloads on some rows only, negative keys, several groups (one
    extracted between batches), a sub-split group, and counts-only
    probes.  With no payload anywhere, ``build_payloads`` stays ``None``.
    """
    n_groups = min(n_groups, n_buckets)
    oracle = DualHashTable(n_buckets, n_groups)
    table = DualHashTable(n_buckets, n_groups)
    tids = {SOURCE_A: 0, SOURCE_B: 0}
    for t in _row_tuples(stored, tids):
        oracle.insert(t)
        table.insert(t)
    if split is not None:
        group, factor = split[0] % n_groups, split[1]
        oracle.subsplit_group(group, factor)
        table.subsplit_group(group, factor)
    for i, (with_payloads, rows) in enumerate(batches):
        if i and extract is not None:
            for source in (SOURCE_A, SOURCE_B):
                assert table.extract_group(
                    source, extract % n_groups
                ) == oracle.extract_group(source, extract % n_groups)
        batch = _row_tuples(rows, tids, with_payloads)
        candidates, match_counts, pairs, pays = [], [], [], []
        for row, t in enumerate(batch):
            matches, cand, _bucket = oracle.probe_insert(t)
            candidates.append(cand)
            match_counts.append(len(matches))
            pairs.extend((row, m.tid) for m in matches)
            pays.extend(m.payload for m in matches)
        batch_pays = [t.payload for t in batch]
        if all(p is None for p in batch_pays):
            batch_pays = None
        no_payload = batch_pays is None and not _stored_payload(table)
        keys = np.array([t.key for t in batch], dtype=np.int64)
        plan = table.probe_insert_batch(
            keys,
            np.array([t.tid for t in batch], dtype=np.int64),
            np.array([t.source == SOURCE_A for t in batch], dtype=bool),
            batch_pays,
            table.hash_batch(keys),
            need_pairs=need_pairs,
        )
        assert plan.candidates.tolist() == candidates
        assert plan.match_counts.tolist() == match_counts
        assert plan.total_matches == len(pairs)
        if need_pairs and pairs:
            assert plan.probe_rows is not None and plan.build_tids is not None
            got = list(zip(plan.probe_rows.tolist(), plan.build_tids.tolist()))
            assert got == pairs
            if no_payload:
                assert plan.build_payloads is None
            else:
                assert plan.build_payloads == pays
        else:
            assert plan.probe_rows is None and plan.build_payloads is None
    for source in (SOURCE_A, SOURCE_B):
        for g in range(n_groups):
            assert list(table.buckets_in_group(g)) == list(oracle.buckets_in_group(g))
            for b in table.buckets_in_group(g):
                assert table.bucket_contents(source, b) == oracle.bucket_contents(
                    source, b
                )
