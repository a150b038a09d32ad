"""``vectorized_run_merge`` against the paged heap merge it replaces.

The columnar merge pass never runs :func:`key_merge_iterator`; it
consumes :func:`vectorized_run_merge`'s columns and replays the page
reads from ``read_flags`` and ``n_init_reads``.  Both must match the
heap merge exactly: the same ``(key, tid, origin)`` order, the same
payloads, and the same page read after every element.  Run sizes are
drawn on both sides of the small-input threshold, so the row-sort
branch and the numpy branch are each pinned.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.storage.disk import SimulatedDisk
from repro.storage.runs import (
    SMALL_MERGE_TUPLES_PER_RUN,
    SortedRun,
    key_merge_iterator,
    vectorized_run_merge,
)
from repro.storage.tuples import SOURCE_B, Tuple


@st.composite
def merge_inputs(draw):
    """Sorted runs of one side: sizes, keys, shuffled tids, payloads."""
    small = draw(st.booleans())
    per_run = (
        st.integers(min_value=1, max_value=SMALL_MERGE_TUPLES_PER_RUN)
        if small
        else st.integers(min_value=SMALL_MERGE_TUPLES_PER_RUN + 1, max_value=40)
    )
    sizes = draw(st.lists(per_run, min_size=1, max_size=8))
    page_size = draw(st.integers(min_value=1, max_value=8))
    tids = draw(st.permutations(range(sum(sizes))))
    runs = []
    start = 0
    for size in sizes:
        keys = draw(
            st.lists(st.integers(min_value=0, max_value=12), min_size=size, max_size=size)
        )
        with_payload = draw(st.booleans())
        rows = sorted(zip(keys, tids[start : start + size]))
        start += size
        runs.append(
            [
                Tuple(
                    key=k,
                    tid=t,
                    source=SOURCE_B,
                    payload=f"p{t}" if with_payload else None,
                )
                for k, t in rows
            ]
        )
    origins = draw(
        st.lists(
            st.integers(min_value=0, max_value=50),
            min_size=len(runs),
            max_size=len(runs),
            unique=True,
        )
    )
    return small, page_size, runs, origins


@given(merge_inputs())
def test_vectorized_run_merge_matches_heap_merge(data):
    small, page_size, runs, origins = data
    disk = SimulatedDisk(VirtualClock(), CostModel(page_size=page_size))
    sorted_runs = [
        SortedRun(
            block=disk.write_block("side", tuples, block_id=i, sorted_by_key=True),
            origin=origin,
        )
        for i, (tuples, origin) in enumerate(zip(runs, origins))
    ]
    total = sum(len(tuples) for tuples in runs)
    assert (total <= SMALL_MERGE_TUPLES_PER_RUN * len(runs)) == small

    before = disk.pages_read
    merged = vectorized_run_merge(sorted_runs, disk)
    assert disk.pages_read == before  # the columns charge nothing

    # The heap merge, with the page reads charged by each next().
    heap = key_merge_iterator(sorted_runs, disk)
    order = []
    reads_after = []
    for t, origin in heap:
        order.append((t.key, t.tid, origin, t.payload))
        reads_after.append(disk.pages_read - before)
    total_reads = disk.pages_read - before

    assert len(merged) == total
    assert merged.source == SOURCE_B
    payloads = merged.payloads if merged.payloads is not None else [None] * total
    assert merged.payloads is None or any(p is not None for p in payloads)
    assert order == list(
        zip(
            merged.keys.tolist(),
            merged.tids.tolist(),
            merged.origins.tolist(),
            payloads,
        )
    )
    # The heap fills every run's first page before the first element,
    # and refills a run's next page right after yielding the last
    # element of a non-final page: element m's read lands before
    # element m + 1 is yielded.
    flags = merged.read_flags.tolist()
    assert merged.n_init_reads == len(sorted_runs)
    for m, reads in enumerate(reads_after):
        assert reads == merged.n_init_reads + sum(flags[:m])
    assert total_reads == merged.n_init_reads + sum(flags)
