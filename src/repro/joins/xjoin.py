"""XJoin — Urhan & Franklin's reactively scheduled pipelined join [20, 21].

The hash-based state of the art HMJ is measured against.  Three stages:

* **stage 1** (memory-to-memory): symmetric hashing; when memory fills,
  the *single largest bucket of either source* is flushed, unsorted, to
  that bucket's disk partition — the unsynchronised, unbalanced policy
  the paper's Section 6.3 blames for XJoin's weaker hashing phase;
* **stage 2** (reactive, while both sources are blocked): a disk
  partition is joined against the opposite source's in-memory bucket;
* **stage 3** (cleanup, at end of input): remaining memory is flushed
  and same-bucket disk partition pairs are joined.

Duplicate prevention follows XJoin's timestamp scheme: each tuple
carries an arrival timestamp (ATS) and a departure-to-disk timestamp
(DTS); a pair whose residency intervals overlapped was already produced
by stage 1 and is suppressed in stages 2/3.  Stage-2 re-production is
suppressed by one of two interchangeable mechanisms, selected with
``duplicate_mode``:

* ``"memo"`` (default) — pairs produced by stage 2 are remembered
  exactly, so later passes and stage 3 never repeat them.  Simple and
  exact; O(stage-2 output) memory.
* ``"timestamps"`` — the original paper's constant-space scheme: each
  completed stage-2 pass records a *usage* ``(dts_last, probe_ts)`` on
  its disk partition, meaning "every block flushed by ``dts_last`` was
  joined against the memory image resident at ``probe_ts``".  A later
  candidate pair (disk tuple ``d``, tuple ``m``) is skipped iff some
  usage covers it: ``DTS(d) <= dts_last`` and
  ``ATS(m) <= probe_ts < DTS(m)``.

A property test asserts the two modes produce identical outputs over
random workloads.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.core.columnar import ColumnBatch, run_columnar_batch
from repro.core.hashing import BatchProbeResult, DualHashTable
from repro.joins.base import StreamingJoinOperator
from repro.sim.budget import WorkBudget
from repro.storage.memory import MemoryPool
from repro.storage.tuples import SOURCE_A, SOURCE_B, Tuple

_INF = math.inf


class XJoin(StreamingJoinOperator):
    """The three-stage reactively scheduled hash join."""

    name = "XJoin"
    supports_memory_resize = True
    supports_column_batches = True
    PHASE_STAGE1 = "stage1"
    PHASE_STAGE2 = "stage2"
    PHASE_STAGE3 = "stage3"

    def __init__(
        self,
        memory_capacity: int,
        n_buckets: int | None = None,
        duplicate_mode: str = "memo",
    ) -> None:
        super().__init__()
        if memory_capacity < 2:
            raise ConfigurationError(
                f"memory_capacity must be >= 2, got {memory_capacity}"
            )
        if n_buckets is None:
            # Keep the average bucket a handful of tuples deep at any
            # scale; a fixed h makes probe CPU grow with memory.
            n_buckets = max(64, memory_capacity // 32)
        if n_buckets < 1:
            raise ConfigurationError(f"n_buckets must be >= 1, got {n_buckets}")
        if duplicate_mode not in ("memo", "timestamps"):
            raise ConfigurationError(
                f"duplicate_mode must be 'memo' or 'timestamps', "
                f"got {duplicate_mode!r}"
            )
        self._capacity = memory_capacity
        self._n_buckets = n_buckets
        self._duplicate_mode = duplicate_mode
        self._table: DualHashTable | None = None
        self._memory: MemoryPool | None = None
        # Timestamp bookkeeping: arrival (ATS) and flush (DTS) instants.
        self._ats: dict[tuple[str, int], float] = {}
        self._dts: dict[tuple[str, int], float] = {}
        # Exact identities of pairs produced by stage 2 ("memo" mode).
        self._disk_produced: set[tuple] = set()
        # Completed stage-2 pass timestamps per (source, bucket)
        # partition ("timestamps" mode).
        self._usages: dict[tuple[str, int], list[float]] = {}
        # (source, bucket) -> (disk block count, opposite insert count)
        # at the time of the last stage-2 pass; unchanged => skip.
        self._stage2_seen: dict[tuple[str, int], tuple[int, int]] = {}
        self._insert_counts: dict[tuple[str, int], int] = {}
        self._stage2_active: Iterator[None] | None = None
        self.flush_count = 0
        self.peak_imbalance = 0

    def _setup(self) -> None:
        # One group per bucket: XJoin flushes at single-bucket
        # granularity, from one source at a time.
        self._table = DualHashTable(self._n_buckets, n_groups=self._n_buckets)
        self._memory = MemoryPool(self._capacity)

    @property
    def table(self) -> DualHashTable:
        """The in-memory dual hash table."""
        assert self._table is not None
        return self._table

    @property
    def memory(self) -> MemoryPool:
        """The operator's memory budget."""
        assert self._memory is not None
        return self._memory

    # -- stage 1 ------------------------------------------------------------

    def on_tuple(self, t: Tuple) -> None:
        self.charge_tuple()
        while not self.memory.has_room(1):
            self._flush_largest_bucket()
        self._ats[t.identity()] = self.clock.now
        # Fused probe/insert hot path: one hash computation per tuple,
        # same charge and emission order as the naive sequence.
        matches, candidates, bucket = self.table.probe_insert(t)
        self.charge_probe(candidates)
        for match in matches:
            self.emit(t, match, self.PHASE_STAGE1)
        self.memory.allocate(1)
        key = (t.source, bucket)
        self._insert_counts[key] = self._insert_counts.get(key, 0) + 1
        imbalance = self.table.summary.imbalance()
        if imbalance > self.peak_imbalance:
            self.peak_imbalance = imbalance

    def on_column_batch(self, batch: ColumnBatch) -> None:
        """Array-native stage-1 loop over one columnar delivery batch.

        The shared :func:`~repro.core.columnar.run_columnar_batch`
        driver with XJoin's flush policy, plus the per-row bookkeeping
        stage 1 needs: the driver hands back each segment's post-charge
        row instants (the ATS values :meth:`on_tuple` records from the
        live clock) and the probe plan's per-bucket insert runs (the
        stage-2 version counters).  Subclasses that customise either
        tuple hook — the static-memory variant overrides
        :meth:`on_tuple` — are replayed through those hooks instead.
        """
        if (
            type(self).on_tuple is not XJoin.on_tuple
            or type(self).on_tuple_batch
            is not StreamingJoinOperator.on_tuple_batch
        ):
            super().on_column_batch(batch)
            return
        memory = self._memory
        table = self._table
        assert memory is not None and table is not None
        ats = self._ats
        insert_counts = self._insert_counts
        tids = batch.tids
        isa = batch.is_a

        def record_segment(
            lo: int,
            hi: int,
            plan: BatchProbeResult,
            row_times: list[float] | None,
        ) -> None:
            assert row_times is not None
            seg_isa = isa[lo:hi]
            seg_tids = tids[lo:hi]
            # ``asarray`` of Python floats and ``tolist`` back are both
            # bit-exact, so the masked gather preserves every instant.
            rt = np.asarray(row_times)
            for src, mask in ((SOURCE_A, seg_isa), (SOURCE_B, ~seg_isa)):
                side_tids = seg_tids[mask].tolist()
                if side_tids:
                    ats.update(
                        zip(
                            ((src, t) for t in side_tids),
                            rt[mask].tolist(),
                        )
                    )
            for runs, src in ((plan.runs_a, SOURCE_A), (plan.runs_b, SOURCE_B)):
                for bucket, count in runs:
                    key = (src, bucket)
                    insert_counts[key] = insert_counts.get(key, 0) + count

        run_columnar_batch(
            self,
            batch,
            table=table,
            memory=memory,
            flush=self._flush_largest_bucket,
            phase=self.PHASE_STAGE1,
            want_row_times=True,
            on_segment=record_segment,
        )

    def _flush_largest_bucket(self) -> None:
        """Flush the single largest bucket of either source, unsorted."""
        source, bucket = self.table.largest_bucket()
        tuples = self.table.extract_group(source, bucket)
        if not tuples:
            raise ConfigurationError(
                "memory is full but every bucket is empty (corrupt accounting)"
            )
        partition = self._partition_name(source, bucket)
        block_id = len(self.disk.partition(partition).blocks)
        self.disk.write_block(partition, tuples, block_id, sorted_by_key=False)
        now = self.clock.now
        for t in tuples:
            self._dts[t.identity()] = now
        self.memory.release(len(tuples))
        self.flush_count += 1
        self.log_event("flush", source=source, bucket=bucket, n=len(tuples))

    def resize_memory(self, new_capacity: int) -> None:
        """Adapt to a changed memory grant (flush-largest until it fits)."""
        if new_capacity < 2:
            raise ConfigurationError(
                f"memory_capacity must be >= 2, got {new_capacity}"
            )
        while self.memory.used > new_capacity:
            self._flush_largest_bucket()
        self.memory.resize(new_capacity)

    def export_hash_state(self) -> list[Tuple] | None:
        """Drain the in-memory tables for a morph target, if possible.

        Only consistent while *nothing* has been flushed and no
        reactive stage-2 pass is suspended: once tuples sit in disk
        partitions, their pending stage-2/3 matches live in XJoin's
        timestamp bookkeeping and cannot be handed to another operator
        without either losing or duplicating results.  Returns ``None``
        in that case and the morph is declined.
        """
        if self.flush_count or self._stage2_active is not None:
            return None
        table = self._table
        if table is None:
            return None
        exported: list[Tuple] = []
        for group in range(table.n_groups):
            exported += table.extract_group(SOURCE_A, group)
            exported += table.extract_group(SOURCE_B, group)
        if exported:
            self.memory.release(len(exported))
        return exported

    # -- stage 2 ------------------------------------------------------------

    def has_background_work(self) -> bool:
        if self._stage2_active is not None:
            return True
        return self._pick_stage2() is not None

    def memory_usage(self) -> tuple[int, int] | None:
        if self._memory is None:
            return None
        return (self._memory.used, self._memory.capacity)

    def spilled_unmerged(self) -> bool:
        """A suspended stage-2 pass holds disk pairs mid-emission.

        Stage 3 sweeps every flushed partition during ``finish``, so
        after a completed run only an un-drained reactive pass could
        still hide disk-resident matches.
        """
        return self._stage2_active is not None

    def on_blocked(self, budget: WorkBudget) -> None:
        while not budget.expired():
            if self._stage2_active is None:
                pick = self._pick_stage2()
                if pick is None:
                    return
                self._stage2_active = self._stage2_pass(*pick)
            if self._drain_active(budget):
                self._stage2_active = None

    def _drain_active(self, budget: WorkBudget) -> bool:
        assert self._stage2_active is not None
        while not budget.expired():
            try:
                next(self._stage2_active)
            except StopIteration:
                return True
        return False

    def _pick_stage2(self) -> tuple[str, int] | None:
        """The disk partition expected to produce the most results.

        Scores each (source, bucket) disk partition by disk tuples
        times opposite in-memory bucket population, skipping partitions
        whose state is unchanged since their last pass (no new results
        are possible from an identical state).
        """
        best: tuple[str, int] | None = None
        best_score = 0
        for source in (SOURCE_A, SOURCE_B):
            other = SOURCE_B if source == SOURCE_A else SOURCE_A
            for bucket in range(self._n_buckets):
                partition = self.disk.partition(self._partition_name(source, bucket))
                disk_n = partition.total_tuples()
                mem_n = self.table.bucket_size(other, bucket)
                if disk_n == 0 or mem_n == 0:
                    continue
                version = (
                    len(partition.blocks),
                    self._insert_counts.get((other, bucket), 0),
                )
                if self._stage2_seen.get((source, bucket)) == version:
                    continue
                score = disk_n * mem_n
                if score > best_score:
                    best, best_score = (source, bucket), score
        return best

    def _stage2_pass(self, source: str, bucket: int) -> Iterator[None]:
        """Join one disk partition against the opposite memory bucket.

        ``probe_ts`` (the pass start) and the block/memory snapshots
        are taken together, so the pass joins exactly the blocks with
        ``DTS <= probe_ts`` against the tuples resident at
        ``probe_ts`` — the coverage the timestamps mode records when
        the pass completes.
        """
        probe_ts = self.clock.now
        other = SOURCE_B if source == SOURCE_A else SOURCE_A
        partition = self.disk.partition(self._partition_name(source, bucket))
        self._stage2_seen[(source, bucket)] = (
            len(partition.blocks),
            self._insert_counts.get((other, bucket), 0),
        )
        snapshot: dict[int, list[Tuple]] = {}
        for m in self.table.bucket_contents(other, bucket):
            snapshot.setdefault(m.key, []).append(m)
        for block in list(partition.blocks):
            for page in self.disk.page_reader(block):
                for d in page:
                    self.charge_probe(1)
                    for m in snapshot.get(d.key, ()):
                        self._emit_disk_pair(d, m, self.PHASE_STAGE2, bucket)
                    yield
        self.log_event("stage2-pass", source=source, bucket=bucket)
        if self._duplicate_mode == "timestamps":
            # Only a *completed* pass guarantees full coverage; the
            # usage is therefore recorded here, at generator exhaustion.
            self._usages.setdefault((source, bucket), []).append(probe_ts)

    # -- stage 3 ------------------------------------------------------------

    def finish(self, budget: WorkBudget) -> None:
        """Cleanup: flush remaining memory, then join disk partitions.

        A stage-2 pass suspended by an unblocked source is completed
        first: in timestamps mode its coverage record only exists once
        it finishes, and stage 3 relies on that record to avoid
        re-emitting the pass's output.
        """
        if self._stage2_active is not None and self._drain_active(budget):
            self._stage2_active = None
        self._flush_all_memory()
        for bucket in range(self._n_buckets):
            if budget.expired():
                break
            self._stage3_bucket(bucket, budget)
        self.mark_finished()

    def _flush_all_memory(self) -> None:
        for source in (SOURCE_A, SOURCE_B):
            for bucket in range(self._n_buckets):
                tuples = self.table.extract_group(source, bucket)
                if not tuples:
                    continue
                partition = self._partition_name(source, bucket)
                block_id = len(self.disk.partition(partition).blocks)
                self.disk.write_block(partition, tuples, block_id, sorted_by_key=False)
                now = self.clock.now
                for t in tuples:
                    self._dts[t.identity()] = now
                self.memory.release(len(tuples))

    def _stage3_bucket(self, bucket: int, budget: WorkBudget) -> bool:
        """Join the A and B disk partitions of one bucket."""
        part_a = self.disk.partition(self._partition_name(SOURCE_A, bucket))
        part_b = self.disk.partition(self._partition_name(SOURCE_B, bucket))
        if part_a.total_tuples() == 0 or part_b.total_tuples() == 0:
            return False
        # Build side: the smaller partition is read fully into a hash
        # table; the larger side streams past it.
        build, probe = (part_a, part_b)
        if part_a.total_tuples() > part_b.total_tuples():
            build, probe = part_b, part_a
        lookup: dict[int, list[Tuple]] = {}
        for block in build.blocks:
            for t in self.disk.read_block(block):
                lookup.setdefault(t.key, []).append(t)
        for block in probe.blocks:
            for page in self.disk.page_reader(block):
                if budget.expired():
                    return True
                for d in page:
                    self.charge_probe(1)
                    for m in lookup.get(d.key, ()):
                        self._emit_disk_pair(d, m, self.PHASE_STAGE3, bucket)
        return True

    # -- shared helpers -------------------------------------------------------

    def _emit_disk_pair(
        self, first: Tuple, second: Tuple, phase: str, bucket: int
    ) -> None:
        """Emit a disk-derived pair unless stage 1 or stage 2 produced it."""
        if self._overlapped_in_memory(first, second):
            return
        if self._duplicate_mode == "memo":
            ident = self._pair_identity(first, second)
            if ident in self._disk_produced:
                return
            self._disk_produced.add(ident)
        else:
            if self._covered_by_usage(first, second, bucket) or (
                self._covered_by_usage(second, first, bucket)
            ):
                return
        self.emit(first, second, phase)

    def _covered_by_usage(self, disk_side: Tuple, mem_side: Tuple, bucket: int) -> bool:
        """Whether a completed stage-2 pass already produced this pair.

        A pass over ``disk_side``'s partition at ``probe_ts`` covered
        the pair iff the disk tuple was already flushed
        (``DTS <= probe_ts``) and the other tuple was memory-resident
        at that instant (``ATS <= probe_ts < DTS``).
        """
        usages = self._usages.get((disk_side.source, bucket))
        if not usages:
            return False
        dts_disk = self._dts.get(disk_side.identity(), _INF)
        ats_mem = self._ats[mem_side.identity()]
        dts_mem = self._dts.get(mem_side.identity(), _INF)
        return any(
            dts_disk <= probe_ts and ats_mem <= probe_ts < dts_mem
            for probe_ts in usages
        )

    def _overlapped_in_memory(self, first: Tuple, second: Tuple) -> bool:
        """Whether the two tuples ever co-resided in memory (stage 1 case).

        Residency of a tuple is [ATS, DTS); the later arriver probed
        the earlier one iff the intervals overlap, which is exactly
        when stage 1 already emitted the pair.
        """
        ats_1 = self._ats[first.identity()]
        ats_2 = self._ats[second.identity()]
        dts_1 = self._dts.get(first.identity(), _INF)
        dts_2 = self._dts.get(second.identity(), _INF)
        return ats_1 < dts_2 and ats_2 < dts_1

    @staticmethod
    def _pair_identity(first: Tuple, second: Tuple) -> tuple:
        if first.source == SOURCE_A:
            return (first.identity(), second.identity())
        return (second.identity(), first.identity())

    def _partition_name(self, source: str, bucket: int) -> str:
        return f"xjoin/{source}/bucket{bucket}"


class XJoinStaticMemory(XJoin):
    """XJoin with memory statically halved between the sources.

    The XJoin technical report describes memory as divided between the
    two inputs; this variant gives each source a fixed ``M/2`` and
    flushes the overflowing source's largest bucket.  Under skewed
    arrival rates the slow source's half sits underused while the fast
    source thrashes — the unbalanced-memory weakness the HMJ paper
    attributes to XJoin in its Figure 12/14 discussion.  The
    dynamically-shared :class:`XJoin` above is the stronger baseline;
    this one exists to test the paper's narrative directly (see the
    ``xjoin-memory`` ablation and EXPERIMENTS.md).
    """

    name = "XJoin-static"
    supports_memory_resize = False

    def _setup(self) -> None:
        super()._setup()
        half = max(1, self._capacity // 2)
        self._side_used = {SOURCE_A: 0, SOURCE_B: 0}
        self._side_capacity = {SOURCE_A: half, SOURCE_B: self._capacity - half}

    def on_tuple(self, t: Tuple) -> None:
        self.charge_tuple()
        while self._side_used[t.source] >= self._side_capacity[t.source]:
            self._flush_largest_bucket_of(t.source)
        self._ats[t.identity()] = self.clock.now
        matches, candidates, bucket = self.table.probe_insert(t)
        self.charge_probe(candidates)
        for match in matches:
            self.emit(t, match, self.PHASE_STAGE1)
        self.memory.allocate(1)
        self._side_used[t.source] += 1
        key = (t.source, bucket)
        self._insert_counts[key] = self._insert_counts.get(key, 0) + 1
        imbalance = self.table.summary.imbalance()
        if imbalance > self.peak_imbalance:
            self.peak_imbalance = imbalance

    def _flush_largest_bucket_of(self, source: str) -> None:
        """Flush the overflowing side's largest bucket, unsorted."""
        best_bucket, best_size = 0, -1
        for bucket in range(self._n_buckets):
            size = self.table.bucket_size(source, bucket)
            if size > best_size:
                best_bucket, best_size = bucket, size
        tuples = self.table.extract_group(source, best_bucket)
        if not tuples:
            raise ConfigurationError(
                f"source {source} memory is full but its buckets are empty"
            )
        partition = self._partition_name(source, best_bucket)
        block_id = len(self.disk.partition(partition).blocks)
        self.disk.write_block(partition, tuples, block_id, sorted_by_key=False)
        now = self.clock.now
        for t in tuples:
            self._dts[t.identity()] = now
        self.memory.release(len(tuples))
        self._side_used[source] -= len(tuples)
        self.flush_count += 1
        self.log_event("flush", source=source, bucket=best_bucket, n=len(tuples))

    def _flush_all_memory(self) -> None:
        super()._flush_all_memory()
        self._side_used = {SOURCE_A: 0, SOURCE_B: 0}

    def resize_memory(self, new_capacity: int) -> None:
        raise ConfigurationError(
            "XJoinStaticMemory has fixed per-source halves; use XJoin for "
            "runtime memory adaptation"
        )
