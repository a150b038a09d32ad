"""The columnar flush path against the boxed one, side size by side size.

Under a small memory grant most flushes move a group with zero, one or
two tuples on a side.  The columnar ``_flush_group`` skips extracting
an empty side and skips sorting (and the zero sort charge of) a side
with fewer than two tuples.  For every ``(n_a, n_b)`` in ``{0..3}²``
both merge paths must leave the same disk blocks, the same empty side,
the same clock and the same page counters.
"""

from __future__ import annotations

from itertools import product

import pytest

from repro.core.config import HMJConfig
from repro.core.hmj import HashMergeJoin
from repro.storage.tuples import SOURCE_A, SOURCE_B, Tuple
from repro.testing import make_runtime

GROUP = 0


def flushed(merge_path: str, n_a: int, n_b: int, with_payload: bool):
    op = HashMergeJoin(
        HMJConfig(memory_capacity=64, n_buckets=8, merge_path=merge_path)
    )
    runtime = make_runtime()
    op.bind(runtime)
    table = op.table
    # Two distinct keys of the group, inserted in descending key order
    # with a repeated key and descending tids, so a side of two or
    # three tuples is stored out of (key, tid) order.
    keys = [k for k in range(200) if table.group_of_key(k) == GROUP][:2]
    for source, n, tid0 in ((SOURCE_A, n_a, 10), (SOURCE_B, n_b, 20)):
        for i in range(n):
            tid = tid0 - i
            op.on_tuple(
                Tuple(
                    key=keys[1] if i < 2 else keys[0],
                    tid=tid,
                    source=source,
                    payload=f"{source}{tid}" if with_payload else None,
                )
            )
    before = (runtime.clock.now, runtime.disk.pages_written)
    freed = op._flush_group(GROUP)
    blocks = {
        part.name: [
            (block.block_id, block.sorted_by_key, [
                (t.key, t.tid, t.payload) for t in block.tuples
            ])
            for block in part.blocks
        ]
        for part in runtime.disk.partitions()
    }
    return {
        "freed": freed,
        "blocks": blocks,
        "block_numbers": op.scheduler.block_numbers(GROUP),
        "before": before,
        "clock": runtime.clock.now,
        "pages": (runtime.disk.pages_read, runtime.disk.pages_written),
        "memory": op.memory.used,
        "summary": op.table.summary.pair_sizes(GROUP),
    }


@pytest.mark.parametrize("with_payload", [False, True])
@pytest.mark.parametrize("n_a,n_b", list(product(range(4), repeat=2)))
def test_columnar_flush_matches_boxed_for_small_sides(n_a, n_b, with_payload):
    columnar = flushed("columnar", n_a, n_b, with_payload)
    boxed = flushed("scalar", n_a, n_b, with_payload)
    assert columnar == boxed
    assert columnar["freed"] == n_a + n_b
    assert columnar["memory"] == 0
    assert columnar["summary"] == (0, 0)
    if n_a + n_b == 0:
        assert columnar["block_numbers"] == []
        assert columnar["clock"] == columnar["before"][0]
        return
    assert columnar["block_numbers"] == [0]
    by_side = {name.split("/")[1]: blocks for name, blocks in columnar["blocks"].items()}
    for side, n in (("A", n_a), ("B", n_b)):
        # An empty side writes no block at all (a None side).
        written = by_side.get(side, [])
        assert len(written) == (1 if n else 0)
        if n:
            rows = written[0][2]
            assert len(rows) == n
            assert rows == sorted(rows, key=lambda row: (row[0], row[1]))
