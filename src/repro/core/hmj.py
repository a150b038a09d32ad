"""The Hash-Merge Join operator (Section 3).

HMJ alternates between two phases:

* **hashing** (Figure 3): arriving tuples probe the opposite source's
  in-memory bucket and are stored in their own; when memory fills, the
  flushing policy evicts same-hash bucket-group *pairs*, which are
  sorted in memory and flushed synchronously — the two differences from
  XJoin/DPHJ that Section 3.1 calls out;
* **merging** (Figure 5): while both sources are blocked (and at end of
  input), disk-resident block pairs are merged with fan-in ``f``,
  emitting results during the merge and suppressing same-block-number
  pairs (the duplicate avoidance of Figure 6).

Correctness (Section 5's two theorems) is exercised exhaustively by
the test suite against blocking oracle joins.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.core.columnar import ColumnBatch, run_columnar_batch
from repro.core.config import HMJConfig
from repro.core.hashing import DualHashTable
from repro.core.merging import MergeScheduler
from typing import Sequence

from repro.joins.base import StreamingJoinOperator
from repro.sim.budget import WorkBudget
from repro.storage.memory import MemoryPool
from repro.storage.tuples import (
    SOURCE_A,
    SOURCE_B,
    Tuple,
    sort_columns_by_key,
)


class HashMergeJoin(StreamingJoinOperator):
    """The paper's non-blocking Hash-Merge Join."""

    name = "HMJ"
    supports_memory_resize = True
    supports_column_batches = True
    PHASE_HASHING = "hashing"
    PHASE_MERGING = "merging"

    def __init__(self, config: HMJConfig) -> None:
        super().__init__()
        self.config = config
        self._memory: MemoryPool | None = None
        self._table: DualHashTable | None = None
        self._scheduler: MergeScheduler | None = None
        self.flush_count = 0
        self.hot_split_count = 0
        self.peak_imbalance = 0

    def _setup(self) -> None:
        cfg = self.config
        self._memory = MemoryPool(cfg.memory_capacity)
        self._table = DualHashTable(cfg.n_buckets, cfg.n_groups)
        if cfg.skew_adaptive:
            # Heat feeds the skew-aware flushing policy and the
            # hot-split trigger; with neither configured it stays off
            # and the baseline paths are untouched.
            self._table.summary.enable_heat()
        self._scheduler = MergeScheduler(
            disk=self.disk,
            clock=self.clock,
            costs=self.costs,
            partition_prefix="hmj",
            fan_in=cfg.fan_in,
            n_groups=cfg.n_groups,
            journal=self.runtime.journal,
            merge_path=cfg.merge_path,
            recorder=self.recorder,
            emit_phase=self.PHASE_MERGING,
            emit_guard=self._emit_guard,
        )
        cfg.policy.prepare(cfg.memory_capacity, cfg.n_groups)

    # -- convenience accessors (valid after bind) ------------------------

    @property
    def memory(self) -> MemoryPool:
        """The operator's memory budget."""
        assert self._memory is not None
        return self._memory

    @property
    def table(self) -> DualHashTable:
        """The in-memory dual hash table."""
        assert self._table is not None
        return self._table

    @property
    def scheduler(self) -> MergeScheduler:
        """The merging-phase scheduler."""
        assert self._scheduler is not None
        return self._scheduler

    # -- protocol ---------------------------------------------------------

    def on_tuple(self, t: Tuple) -> None:
        """Hashing phase, Figure 3: flush if needed, probe, store.

        This is the per-tuple hot path: it uses the fused
        :meth:`~repro.core.hashing.DualHashTable.probe_insert` (one
        hash computation, no allocation on empty probes) and the O(1)
        running-totals imbalance — the clock charges and emission order
        are identical to the naive probe/emit/insert sequence, so the
        pinned determinism triples are unaffected.
        """
        self.charge_tuple()
        memory = self._memory
        assert memory is not None and self._table is not None
        while not memory.has_room(1):
            self._flush_victims()
        matches, candidates, _ = self._table.probe_insert(t)
        self.charge_probe(candidates)
        if matches:
            for match in matches:
                self.emit(t, match, self.PHASE_HASHING)
        memory.allocate(1)
        imbalance = self._table.summary.imbalance()
        if imbalance > self.peak_imbalance:
            self.peak_imbalance = imbalance

    def on_tuple_batch(
        self, tuples: Sequence[Tuple], times: Sequence[float]
    ) -> None:
        """Boxed run delivery through the columnar hashing loop.

        The run is packed with :meth:`ColumnBatch.from_tuples` and
        driven exactly as :meth:`on_column_batch` drives it; a subclass
        that overrides :meth:`on_tuple` is replayed through it instead.
        """
        if type(self).on_tuple is not HashMergeJoin.on_tuple:
            super().on_tuple_batch(tuples, times)
            return
        self._run_columns(ColumnBatch.from_tuples(tuples, times))

    def on_column_batch(self, batch: ColumnBatch) -> None:
        """Array-native hashing loop over one columnar delivery batch.

        The shared :func:`~repro.core.columnar.run_columnar_batch`
        driver with HMJ's flush policy and phase label: hashing,
        bucket grouping, matching, and inserts run vectorized while the
        clock walks the exact per-tuple charge sequence — triples and
        emission order are identical to the per-tuple path (pinned by
        the equivalence suite).  Subclasses that customise either tuple
        hook are replayed through those hooks instead.
        """
        if (
            type(self).on_tuple is not HashMergeJoin.on_tuple
            or type(self).on_tuple_batch is not HashMergeJoin.on_tuple_batch
        ):
            super().on_column_batch(batch)
            return
        self._run_columns(batch)

    def _run_columns(self, batch: ColumnBatch) -> None:
        """The hashing phase over one column batch (both batch hooks)."""
        memory = self._memory
        table = self._table
        assert memory is not None and table is not None
        run_columnar_batch(
            self,
            batch,
            table=table,
            memory=memory,
            flush=self._flush_victims,
            phase=self.PHASE_HASHING,
        )

    def has_background_work(self) -> bool:
        """Merging work exists while different-numbered block pairs remain."""
        return self.scheduler.has_result_work()

    def on_blocked(self, budget: WorkBudget) -> None:
        """Both sources blocked: run the merging phase until one wakes."""
        self.scheduler.work(budget, self._emit_merge)

    def memory_usage(self) -> tuple[int, int] | None:
        if self._memory is None:
            return None
        return (self._memory.used, self._memory.capacity)

    def spilled_unmerged(self) -> bool:
        """Flushed block pairs remain until the merge scheduler drains."""
        return self._scheduler is not None and self._scheduler.has_result_work()

    def finish(self, budget: WorkBudget) -> None:
        """End of input: flush the whole memory, then merge to completion."""
        self.log_event("final-flush", resident=self.memory.used)
        self._final_flush(budget)
        if not budget.expired():
            # All flushes are on disk; last-pass merges may now skip
            # writing their output (see MergeScheduler.mark_input_ended).
            self.scheduler.mark_input_ended()
        self.scheduler.work(budget, self._emit_merge)
        self.mark_finished()

    # -- runtime memory adaptation ------------------------------------------

    def resize_memory(self, new_capacity: int) -> None:
        """Adapt to a changed memory grant while running.

        Growing simply raises the budget.  Shrinking flushes victim
        group pairs (through the configured policy, charging the usual
        sort and I/O costs) until the resident set fits, then lowers
        the budget and re-resolves the policy's auto thresholds for the
        new ``M`` — correctness is unaffected either way (the flushed
        pairs are merged like any other).
        """
        if new_capacity < 2:
            raise SimulationError(
                f"memory_capacity must be >= 2, got {new_capacity}"
            )
        while self.memory.used > new_capacity:
            self._flush_victims()
        self.memory.resize(new_capacity)
        self.config.policy.prepare(new_capacity, self.config.n_groups)

    def import_hash_state(self, tuples: Sequence[Tuple]) -> None:
        """Adopt a morph source's resident tuples, insert-only.

        The exporting operator already emitted every match among these
        tuples on arrival, so they are stored without probing — exactly
        the per-tuple store cost, no compare or result charges.

        Each bucket group is imported *atomically*: room for the whole
        group is secured (flushing victims) before any of its tuples
        enter memory.  This preserves HMJ's duplicate-suppression
        invariant — equal keys share a group, so already-matched pairs
        always co-reside and flush as one same-numbered block pair,
        which the merging phase skips.  Importing tuple-by-tuple could
        flush half a group mid-import and re-emit its matches from
        disk.  A group larger than the whole budget is spilled directly
        as one sorted block pair instead.
        """
        memory = self.memory
        table = self.table
        by_group: dict[int, list[Tuple]] = {}
        for t in tuples:
            by_group.setdefault(table.group_of_key(t.key), []).append(t)
        for group in sorted(by_group):
            ts = by_group[group]
            for _ in ts:
                self.charge_tuple()
            if len(ts) > memory.capacity:
                ts_a = [t for t in ts if t.source == SOURCE_A]
                ts_b = [t for t in ts if t.source != SOURCE_A]
                self.charge_sort(len(ts_a))
                self.charge_sort(len(ts_b))
                ts_a.sort(key=Tuple.sort_key)
                ts_b.sort(key=Tuple.sort_key)
                self.scheduler.register_flush(group, ts_a, ts_b)
                self.flush_count += 1
                self.log_event("import-spill", group=group, tuples=len(ts))
                continue
            while not memory.has_room(len(ts)):
                self._flush_victims()
            for t in ts:
                table.insert(t)
            memory.allocate(len(ts))
        imbalance = table.summary.imbalance()
        if imbalance > self.peak_imbalance:
            self.peak_imbalance = imbalance

    def state_summary(self) -> dict:
        """Introspection snapshot for dashboards and tests."""
        return {
            "memory_used": self.memory.used,
            "memory_capacity": self.memory.capacity,
            "memory_imbalance": self.table.summary.imbalance(),
            "flush_count": self.flush_count,
            "hot_split_count": self.hot_split_count,
            "disk_blocks": [
                len(self.scheduler.block_numbers(g))
                for g in range(self.config.n_groups)
            ],
            "disk_tuples": sum(
                self.scheduler.disk_tuples(g) for g in range(self.config.n_groups)
            ),
            "has_merge_work": self.scheduler.has_result_work(),
        }

    # -- internals ----------------------------------------------------------

    def _emit_merge(self, first: Tuple, second: Tuple) -> None:
        self.emit(first, second, self.PHASE_MERGING)

    def _flush_victims(self) -> None:
        """Evict the policy's chosen bucket-group pair(s) to disk."""
        victims = self.config.policy.select_victims(self.table.summary)
        freed = 0
        for group in victims:
            freed += self._flush_group(group)
        if freed == 0:
            raise SimulationError(
                "flushing policy selected victims but no memory was freed"
            )
        self.flush_count += 1
        self.log_event("flush", victims=victims, freed=freed)
        if self.config.hot_split_factor:
            self._maybe_split_hot()

    def _maybe_split_hot(self) -> None:
        """Sub-split the hottest group in place when skew warrants it.

        Piggybacks on flush decisions (the same cadence the heat decay
        runs at): among resident, not-yet-split groups whose decayed
        heat exceeds ``hot_split_threshold`` times the mean and whose
        pair total meets ``hot_split_min_tuples``, the hottest is
        re-bucketed into ``hot_split_factor`` sub-buckets per base
        bucket.  The re-bucket pass costs one hash per moved tuple,
        charged at probe rate.  Splits persist for the rest of the run
        (an evicted hot group refills into its sub-buckets).
        """
        table = self.table
        summary = table.summary
        heats = summary.heats()
        if not heats:
            return
        mean = sum(heats) / len(heats)
        if mean <= 0.0:
            return
        cutoff = self.config.hot_split_threshold * mean
        min_tuples = self.config.hot_split_min_tuples
        best = -1
        best_heat = 0.0
        for g in summary.nonempty_groups():
            h = heats[g]
            if h < cutoff or table.is_split(g):
                continue
            if summary.pair_total(g) < min_tuples:
                continue
            if best < 0 or h > best_heat:
                best, best_heat = g, h
        if best < 0:
            return
        moved = table.subsplit_group(best, self.config.hot_split_factor)
        self.charge_probe(moved)
        self.hot_split_count += 1
        self.log_event(
            "hot-split",
            group=best,
            factor=self.config.hot_split_factor,
            moved=moved,
        )

    def _flush_group(self, group: int) -> int:
        """Sort and synchronously flush one bucket-group pair.

        Returns the number of memory slots freed (0 for an empty group,
        which is skipped without touching the disk).

        On the columnar merge path the group is extracted directly into
        key/tid arrays and key-sorted with ``np.lexsort`` — the same
        strict ``(key, tid)`` order ``Tuple.sort_key`` yields within
        one source — so no ``Tuple`` is ever boxed between hash table
        and disk block.  Charges are identical either way: one sort
        charge per side, then the block-pair write.
        """
        if self.config.merge_path == "columnar":
            cols_a = self.table.extract_group_columns(SOURCE_A, group)
            cols_b = self.table.extract_group_columns(SOURCE_B, group)
            n = len(cols_a) + len(cols_b)
            if n == 0:
                return 0
            self.charge_sort(len(cols_a))
            self.charge_sort(len(cols_b))
            self.scheduler.register_flush_columns(
                group,
                sort_columns_by_key(cols_a),
                sort_columns_by_key(cols_b),
            )
            self.memory.release(n)
            return n
        tuples_a = self.table.extract_group(SOURCE_A, group)
        tuples_b = self.table.extract_group(SOURCE_B, group)
        n = len(tuples_a) + len(tuples_b)
        if n == 0:
            return 0
        self.charge_sort(len(tuples_a))
        self.charge_sort(len(tuples_b))
        tuples_a.sort(key=Tuple.sort_key)
        tuples_b.sort(key=Tuple.sort_key)
        self.scheduler.register_flush(group, tuples_a, tuples_b)
        self.memory.release(n)
        return n

    def _final_flush(self, budget: WorkBudget) -> None:
        """Flush all remaining in-memory groups at end of input.

        Paper-faithful mode flushes everything; with
        ``final_flush_all=False`` groups whose disk counterpart is
        empty are skipped (their matches were all produced in memory).
        When *nothing* was ever spilled the flush is skipped outright:
        the merging phase could not produce a single result, so the
        writes would be pure waste in either mode.
        """
        if self.flush_count == 0:
            for group in self.table.summary.nonempty_groups():
                n_a = self.table.discard_group(SOURCE_A, group)
                n_b = self.table.discard_group(SOURCE_B, group)
                self.memory.release(n_a + n_b)
            return
        for group in self.table.summary.nonempty_groups():
            if budget.expired():
                return
            if not self.config.final_flush_all and not self.scheduler.block_numbers(
                group
            ):
                # No disk blocks to merge against: every match involving
                # this group's tuples was already emitted in memory.
                n_a = self.table.discard_group(SOURCE_A, group)
                n_b = self.table.discard_group(SOURCE_B, group)
                self.memory.release(n_a + n_b)
                continue
            self._flush_group(group)
