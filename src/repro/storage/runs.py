"""Sorted runs, paged run writers, and k-way merge iterators.

The merging phases of HMJ and PMJ consume *sorted runs* (the blocks
flushed by the hashing/sorting phases) and produce bigger sorted runs,
joining as they go.  This module supplies the three primitives they
share:

* :class:`SortedRun` — a sorted block together with its origin block
  number (the duplicate-avoidance tag of Figure 5, Step 3b);
* :func:`key_merge_iterator` — a heap-based k-way merge over several
  runs that yields ``(tuple, origin_block_id)`` in key order, reading
  page by page so I/O is charged incrementally;
* :class:`PagedRunWriter` — a streaming writer that charges one page
  write each time a page fills, used for merge-pass output.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, Sequence

import numpy as np

from repro.errors import StorageError
from repro.storage.disk import DiskBlock, SimulatedDisk
from repro.storage.tuples import RelationColumns, Tuple


@dataclass(slots=True)
class SortedRun:
    """A sorted disk block viewed as a merge input.

    Attributes:
        block: The underlying disk block (must be key-sorted).
        origin: Block number carried by every tuple of this run during
            a merge pass; pairs of tuples with equal origins are never
            joined (they were already joined in memory or in an earlier
            pass).
    """

    block: DiskBlock
    origin: int

    def __post_init__(self) -> None:
        if not self.block.sorted_by_key:
            raise StorageError(
                f"block {self.block.block_id} is not sorted; "
                "merge inputs must be key-sorted runs"
            )

    def __len__(self) -> int:
        return len(self.block)

    @classmethod
    def from_block(cls, block: DiskBlock) -> "SortedRun":
        """Wrap a block using its own block number as the origin tag."""
        return cls(block=block, origin=block.block_id)


def key_merge_iterator(
    runs: Sequence[SortedRun], disk: SimulatedDisk
) -> Iterator[tuple[Tuple, int]]:
    """Merge sorted runs into one key-ordered stream of (tuple, origin).

    Pages are pulled from the disk lazily, so pausing this iterator
    pauses I/O charging too — the property that lets the engine suspend
    a merge the moment a blocked source wakes up.
    """
    # Each heap entry: (sort_key, run_index, tuple). run_index breaks
    # ties deterministically and keeps the heap from comparing Tuples.
    heap: list[tuple[tuple[int, str, int], int, Tuple]] = []
    page_streams = [disk.page_reader(run.block) for run in runs]
    buffers: list[list[Tuple]] = [[] for _ in runs]
    # Per-page sort keys, computed once at refill rather than once per
    # heap push (every tuple is pushed exactly once, but the method
    # call and tuple construction dominate the push itself).
    sort_keys: list[list[tuple[int, str, int]]] = [[] for _ in runs]
    positions = [0] * len(runs)

    def refill(i: int) -> bool:
        """Load the next page of run ``i``; False when exhausted."""
        page = next(page_streams[i], None)
        if page is None:
            return False
        buffers[i] = page
        sort_keys[i] = [t.sort_key() for t in page]
        positions[i] = 0
        return True

    def push_next(i: int) -> None:
        pos = positions[i]
        if pos >= len(buffers[i]):
            if not refill(i):
                return
            pos = 0
        positions[i] = pos + 1
        heapq.heappush(heap, (sort_keys[i][pos], i, buffers[i][pos]))

    for i in range(len(runs)):
        push_next(i)

    while heap:
        _, i, t = heapq.heappop(heap)
        yield (t, runs[i].origin)
        push_next(i)


def merge_sorted_runs(
    runs: Sequence[SortedRun], disk: SimulatedDisk
) -> list[tuple[Tuple, int]]:
    """Eagerly materialise :func:`key_merge_iterator` (test convenience)."""
    return list(key_merge_iterator(runs, disk))


@dataclass(slots=True)
class MergedRunColumns:
    """One side's k-way merge, pre-computed as origin-tagged columns.

    The columnar counterpart of :func:`key_merge_iterator`: the same
    elements in the same key order, plus the *I/O charge schedule* the
    heap path would have produced, so a consumer can replay page-read
    charges element by element without touching the heap machinery.

    Attributes:
        keys: int64 join keys in merged order.
        tids: int64 per-source tuple ids in merged order.
        origins: int64 origin block-number tag per element (the
            duplicate-avoidance tag of Figure 5, Step 3b).
        read_flags: bool per element — True where consuming this
            element pulls its run's *next* page in (one page-read
            charge), exactly when the heap path's ``push_next`` would
            refill after yielding it.
        payloads: payload reference list in merged order, or ``None``
            when every payload is ``None``.
        source: Shared source label of the side.
        n_init_reads: Page-0 reads charged when the merged stream
            starts (one per run — the heap path's initial fills).
    """

    keys: np.ndarray
    tids: np.ndarray
    origins: np.ndarray
    read_flags: np.ndarray
    payloads: list | None
    source: str
    n_init_reads: int

    def __len__(self) -> int:
        return len(self.keys)


#: Average run length (tuples per run) up to which
#: :func:`vectorized_run_merge` sorts Python rows instead of calling
#: numpy.  The numpy path pays a fixed ~10 µs plus ~8 µs per run; the
#: row path pays ~0.6 µs per tuple.  Measured on a 2-core VM (page
#: size 50): rows win at 16 tuples in 1 run (1.3×), 32 in 2 (1.1×), 64
#: in 4 (1.1×) and 128 in 8 (0.9×, about even); numpy wins beyond.
SMALL_MERGE_TUPLES_PER_RUN = 16


def vectorized_run_merge(
    runs: Sequence[SortedRun], disk: SimulatedDisk
) -> MergedRunColumns:
    """Merge sorted runs into contiguous columns in one vectorized pass.

    ``np.lexsort`` over the concatenated key/tid columns replaces the
    per-pop heap: within one side every tuple's ``(key, tid)`` pair is
    unique (tids are per-source unique and a tuple lives in exactly one
    run), so the lexicographic order is a strict total order identical
    to the heap's ``(key, source, tid)`` order — the run-index
    tiebreak never fires.  No I/O is charged here: the returned
    ``read_flags`` schedule lets the consumer charge page reads
    incrementally, element by element, exactly as the paged heap merge
    would have.

    Runs averaging at most :data:`SMALL_MERGE_TUPLES_PER_RUN` tuples
    (the small-grant regime) are merged by sorting Python rows
    instead, which yields the same columns without the per-run numpy
    set-up.
    """
    page_size = disk.costs.page_size
    if not runs:
        empty = np.empty(0, dtype=np.int64)
        return MergedRunColumns(
            keys=empty,
            tids=empty,
            origins=empty,
            read_flags=np.empty(0, dtype=bool),
            payloads=None,
            source="",
            n_init_reads=0,
        )
    columns = [disk.block_columns(run.block) for run in runs]
    total = sum(len(cols.keys) for cols in columns)
    if 0 < total <= SMALL_MERGE_TUPLES_PER_RUN * len(runs):
        return _row_merge(runs, columns, page_size)
    keys_parts: list[np.ndarray] = []
    tids_parts: list[np.ndarray] = []
    orig_parts: list[np.ndarray] = []
    flag_parts: list[np.ndarray] = []
    pay_parts: list[tuple[list | None, int]] = []
    any_payload = False
    source = ""
    for run, cols in zip(runs, columns):
        n = len(cols.keys)
        keys_parts.append(cols.keys)
        tids_parts.append(cols.tids)
        orig_parts.append(np.full(n, run.origin, dtype=np.int64))
        # Consuming the last element of a non-final page refills the
        # run's next page (the heap's push_next-after-yield).
        ahead = np.arange(1, n + 1)
        flag_parts.append((ahead % page_size == 0) & (ahead < n))
        pay_parts.append((cols.payloads, n))
        any_payload = any_payload or cols.payloads is not None
        source = source or cols.source
    keys = np.concatenate(keys_parts)
    tids = np.concatenate(tids_parts)
    order = np.lexsort((tids, keys))
    payloads: list | None = None
    if any_payload:
        flat: list = []
        for pays, n in pay_parts:
            flat.extend(pays if pays is not None else [None] * n)
        payloads = [flat[i] for i in order.tolist()]
    return MergedRunColumns(
        keys=keys[order],
        tids=tids[order],
        origins=np.concatenate(orig_parts)[order],
        read_flags=np.concatenate(flag_parts)[order],
        payloads=payloads,
        source=source,
        n_init_reads=len(runs),
    )


def _row_merge(
    runs: Sequence[SortedRun],
    columns: Sequence[RelationColumns],
    page_size: int,
) -> MergedRunColumns:
    """The small-input branch of :func:`vectorized_run_merge`.

    One ``(key, tid, origin, read_flag, payload)`` row per tuple,
    sorted by Python's tuple order.  ``(key, tid)`` is unique within a
    side, so a comparison never reaches the origin, the flag or the
    payload, and the order is the numpy path's.  The read flag is the
    same formula: position ``j`` of an ``n``-tuple run is flagged when
    ``j + 1`` is a multiple of the page size and ``j + 1 < n``.
    """
    rows: list[tuple] = []
    any_payload = False
    source = ""
    for run, cols in zip(runs, columns):
        keys = cols.keys.tolist()
        n = len(keys)
        flags = [False] * n
        for j in range(page_size - 1, n - 1, page_size):
            flags[j] = True
        pays = cols.payloads
        if pays is not None:
            any_payload = True
        rows.extend(
            zip(
                keys,
                cols.tids.tolist(),
                repeat(run.origin, n),
                flags,
                repeat(None, n) if pays is None else pays,
            )
        )
        source = source or cols.source
    rows.sort()
    keys, tids, origins, flags, payloads = zip(*rows)
    return MergedRunColumns(
        keys=np.array(keys, dtype=np.int64),
        tids=np.array(tids, dtype=np.int64),
        origins=np.array(origins, dtype=np.int64),
        read_flags=np.array(flags, dtype=bool),
        payloads=list(payloads) if any_payload else None,
        source=source,
        n_init_reads=len(runs),
    )


class PagedRunWriter:
    """Streams a sorted run to disk, charging I/O one page at a time.

    The writer buffers tuples; whenever a full page accumulates it is
    charged immediately (so the I/O counter grows *during* a merge pass
    as in the paper's curves), and ``close`` charges the final partial
    page and registers the finished block under ``partition``.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        partition: str,
        block_id: int,
    ) -> None:
        self._disk = disk
        self._partition = partition
        self._block_id = block_id
        self._tuples: list[Tuple] = []
        self._uncharged = 0
        self._closed = False

    @property
    def count(self) -> int:
        """Tuples written so far."""
        return len(self._tuples)

    def append(self, t: Tuple) -> None:
        """Append one tuple, charging a page write on page boundaries."""
        if self._closed:
            raise StorageError("cannot append to a closed run writer")
        self._tuples.append(t)
        self._uncharged += 1
        if self._uncharged == self._disk.costs.page_size:
            self._disk.charge_write_pages(self._uncharged)
            self._uncharged = 0

    def close(self) -> DiskBlock | None:
        """Flush the final partial page and register the block.

        Returns the registered block, or ``None`` if nothing was ever
        written (a merge group whose inputs were all empty).
        """
        if self._closed:
            raise StorageError("run writer already closed")
        self._closed = True
        if self._uncharged:
            self._disk.charge_write_pages(self._uncharged)
            self._uncharged = 0
        if not self._tuples:
            return None
        return self._disk.adopt_block(
            self._partition, self._tuples, self._block_id, sorted_by_key=True
        )
