"""The hashing phase's in-memory structure (Section 3.1, Figures 2-3).

Two hash tables of ``h`` buckets each — one per source — share one
memory budget, so buckets grow unevenly and memory is *not* statically
split between A and B (the property the Adaptive Flushing policy then
actively manages).  Probing bucket ``h(t)`` of the opposite source and
inserting into bucket ``h(t)`` of the own source implements Steps 2-4
of Figure 3.

For flushing, buckets are combined into ``g`` groups of consecutive
buckets (Section 3.3's parameter ``p``); extraction returns a whole
group's tuples so HMJ can sort and flush them as one disk block.

Storage is columnar: each (source, bucket) holds parallel scalar
columns ``keys``/``tids`` (plain Python int lists — C-speed membership
for the per-tuple path, bulk ``extend`` for the batch path) plus a
payload reference list that only materialises once a non-``None``
payload appears.  ``Tuple`` objects are boxed lazily at the
user-facing boundaries (probe matches, flush extraction, bucket
snapshots); the hot paths never touch one.

:meth:`DualHashTable.probe_insert_batch` is the array-native core of
the columnar data plane: one vectorized hash pass bucketizes a whole
delivery batch, grouping/matching run on ``argsort``/``cumsum``
segments, matches come back as emission-ordered ``(probe_row,
build_tid)`` columns, and the summary table is updated with per-group
delta arrays instead of ``add_one`` per tuple.  Matches against
already-stored tuples — the bulk of the work once memory is full, as
in the paper's 10%-memory regime — are one sort-join per side per
call: the stored key columns of every bucket the batch touches are
gathered into one array, sorted once, and each batch row's matches
are a ``searchsorted`` range.  Equal keys always share a bucket, so no
per-bucket bookkeeping is needed, and each match's in-bucket position
keeps the emission order exactly the per-tuple scan order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.core.summary import BucketSummaryTable
from repro.storage.tuples import SOURCE_A, SOURCE_B, RelationColumns, Tuple

# Knuth's multiplicative constant: scatters consecutive keys across
# buckets deterministically (Python's built-in hash() is randomised
# per process and would break reproducibility).
_HASH_MULTIPLIER = 2654435761
_HASH_MASK = (1 << 32) - 1

# Independent second multiplier (xxHash's PRIME32_2) for the hot-group
# sub-split: sub-bucket routing must not correlate with the primary
# bucket choice, or every key in a bucket would land in one sub-bucket.
_HASH_MULTIPLIER2 = 2246822519

#: Shared no-match result: probing an empty bucket (the common case at
#: paper selectivity) must not allocate.  Read-only by convention.
_NO_MATCHES: tuple[Tuple, ...] = ()


@dataclass(slots=True)
class BatchProbeResult:
    """Everything one :meth:`DualHashTable.probe_insert_batch` produced.

    Attributes:
        candidates: Per-row opposite-bucket population at probe time
            (the probe CPU charge basis), int64, one entry per batch row.
        match_counts: Per-row number of matches emitted, int64.
        total_matches: ``match_counts.sum()``.
        runs_a: ``(bucket, count)`` insert runs for source A, in bucket
            order — per-bucket bookkeeping (XJoin's insert counts) reads
            these instead of re-hashing.
        runs_b: Same for source B.
        probe_rows: Batch-row index of each match's probing side, in
            exact per-tuple emission order (``None`` when the caller
            requested counts only — the ``keep_results=False`` fast path).
        build_tids: tid of each match's build (stored) side, aligned
            with ``probe_rows``.
        build_payloads: Payload of each build side (``None`` when no
            payloads exist anywhere in table or batch).
    """

    candidates: np.ndarray
    match_counts: np.ndarray
    total_matches: int
    runs_a: list[tuple[int, int]]
    runs_b: list[tuple[int, int]]
    probe_rows: np.ndarray | None = None
    build_tids: np.ndarray | None = None
    build_payloads: list | None = None


def _run_bounds(sorted_vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start/end offsets of equal-value runs in a sorted array."""
    n = len(sorted_vals)
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_vals[1:], sorted_vals[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    ends = np.append(starts[1:], n)
    return starts, ends


class DualHashTable:
    """Paired in-memory hash tables for sources A and B.

    The table maintains the Section 4 summary table incrementally, at
    the bucket-group granularity the flushing policy operates on.
    """

    def __init__(self, n_buckets: int, n_groups: int) -> None:
        if n_buckets < 1:
            raise ConfigurationError(f"n_buckets must be >= 1, got {n_buckets}")
        if not 1 <= n_groups <= n_buckets:
            raise ConfigurationError(
                f"n_groups must be in [1, {n_buckets}], got {n_groups}"
            )
        self._n_buckets = n_buckets
        self._n_groups = n_groups
        # Consecutive buckets share a group; the last group may be
        # slightly larger when h is not divisible by g.
        self._group_size = n_buckets // n_groups
        # Per (source, bucket) parallel scalar columns.
        self._keys_a: list[list[int]] = [[] for _ in range(n_buckets)]
        self._tids_a: list[list[int]] = [[] for _ in range(n_buckets)]
        self._pays_a: list[list | None] = [None] * n_buckets
        self._keys_b: list[list[int]] = [[] for _ in range(n_buckets)]
        self._tids_b: list[list[int]] = [[] for _ in range(n_buckets)]
        self._pays_b: list[list | None] = [None] * n_buckets
        # bucket -> group, resolved once so the per-tuple path is a
        # list index instead of a division + min; the array twin serves
        # the batch path's bincount.
        self._group_of: list[int] = [
            min(bucket // self._group_size, n_groups - 1)
            for bucket in range(n_buckets)
        ]
        self._group_arr = np.asarray(self._group_of, dtype=np.int64)
        self._summary = BucketSummaryTable(n_groups)
        # Hot-group sub-split state.  A split group's base buckets are
        # routers: their tuples live in *extension* bucket slots
        # appended past ``n_buckets``, chosen by a secondary hash, so
        # every existing per-bucket code path (probe, insert, batch
        # kernel, extraction) works on split groups unchanged once the
        # bucket index is remapped.  All empty/None while nothing is
        # split — the hot paths gate on a falsy dict.
        self._split_base: dict[int, tuple[int, int]] = {}
        self._split_groups: dict[int, int] = {}
        self._split_base_arr: np.ndarray | None = None
        self._split_factor_arr: np.ndarray | None = None
        self._split_epoch = 0

    @property
    def n_buckets(self) -> int:
        """Number of in-memory hash buckets per source (``h``)."""
        return self._n_buckets

    @property
    def n_groups(self) -> int:
        """Number of flushable bucket groups per source (``h/p``)."""
        return self._n_groups

    @property
    def summary(self) -> BucketSummaryTable:
        """The live summary table the flushing policy reads."""
        return self._summary

    def bucket_of(self, key: int) -> int:
        """Deterministic bucket index for a join key.

        For a key landing in a split group's base bucket, this is the
        *extension* bucket the secondary hash routes it to.
        """
        bucket = ((key * _HASH_MULTIPLIER) & _HASH_MASK) % self._n_buckets
        if self._split_base:
            entry = self._split_base.get(bucket)
            if entry is not None:
                start, factor = entry
                bucket = start + ((key * _HASH_MULTIPLIER2) & _HASH_MASK) % factor
        return bucket

    def hash_batch(self, keys: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`bucket_of` over a whole key column.

        The uint64 wraparound reproduces Python's arbitrary-precision
        ``(key * MULT) & MASK`` bit-for-bit, including negative keys
        (two's-complement low bits), so per-tuple and batch paths agree
        on every bucket.  Rows hitting a split base bucket are remapped
        to their extension bucket in one masked vectorized pass.
        """
        h = keys.astype(np.uint64) * np.uint64(_HASH_MULTIPLIER)
        h &= np.uint64(_HASH_MASK)
        buckets = (h % np.uint64(self._n_buckets)).astype(np.int64)
        if self._split_base:
            self._remap_split(buckets, keys)
        return buckets

    def subhash_batch(self, keys: np.ndarray, factor: int) -> np.ndarray:
        """Vectorized secondary hash: sub-bucket in ``[0, factor)``.

        The sub-split's routing kernel — the same uint64 wraparound
        discipline as :meth:`hash_batch`, under the independent second
        multiplier, so scalar and batch paths agree on every sub-bucket.
        """
        h = keys.astype(np.uint64) * np.uint64(_HASH_MULTIPLIER2)
        h &= np.uint64(_HASH_MASK)
        return (h % np.uint64(factor)).astype(np.int64)

    def _remap_split(self, buckets: np.ndarray, keys: np.ndarray) -> None:
        """Route rows aimed at split base buckets to their extensions."""
        assert self._split_base_arr is not None
        assert self._split_factor_arr is not None
        starts = self._split_base_arr[buckets]
        mask = starts >= 0
        if not mask.any():
            return
        sub_keys = keys[mask]
        h2 = sub_keys.astype(np.uint64) * np.uint64(_HASH_MULTIPLIER2)
        h2 &= np.uint64(_HASH_MASK)
        factors = self._split_factor_arr[buckets[mask]].astype(np.uint64)
        buckets[mask] = starts[mask] + (h2 % factors).astype(np.int64)

    def group_of_bucket(self, bucket: int) -> int:
        """Group index a bucket (base or extension) belongs to."""
        if not 0 <= bucket < len(self._group_of):
            raise ConfigurationError(
                f"bucket {bucket} out of range [0, {len(self._group_of)})"
            )
        return self._group_of[bucket]

    def group_of_key(self, key: int) -> int:
        """Group index a key hashes into."""
        return self.group_of_bucket(self.bucket_of(key))

    def buckets_in_group(self, group: int) -> Sequence[int]:
        """The bucket indices composing ``group``.

        A plain consecutive range for unsplit groups; a split group
        additionally owns the extension buckets its base buckets route
        into (the base buckets stay listed — they are simply empty
        while the split is active).
        """
        if not 0 <= group < self._n_groups:
            raise ConfigurationError(
                f"group {group} out of range [0, {self._n_groups})"
            )
        start = group * self._group_size
        if group == self._n_groups - 1:
            base = range(start, self._n_buckets)
        else:
            base = range(start, start + self._group_size)
        if group not in self._split_groups:
            return base
        buckets = list(base)
        for b in base:
            entry = self._split_base.get(b)
            if entry is not None:
                ext_start, factor = entry
                buckets.extend(range(ext_start, ext_start + factor))
        return buckets

    def _columns(
        self, source: str
    ) -> tuple[list[list[int]], list[list[int]], list[list | None]]:
        if source == SOURCE_A:
            return self._keys_a, self._tids_a, self._pays_a
        if source == SOURCE_B:
            return self._keys_b, self._tids_b, self._pays_b
        raise ConfigurationError(f"unknown source {source!r}")

    def _append(
        self,
        keys: list[list[int]],
        tids: list[list[int]],
        pays: list[list | None],
        bucket: int,
        t: Tuple,
    ) -> None:
        key_col = keys[bucket]
        key_col.append(t.key)
        tids[bucket].append(t.tid)
        pay_col = pays[bucket]
        if pay_col is not None:
            pay_col.append(t.payload)
        elif t.payload is not None:
            # First payload in this bucket: backfill Nones for the
            # entries stored before it.
            pay_col = [None] * (len(key_col) - 1)
            pay_col.append(t.payload)
            pays[bucket] = pay_col

    def _materialise(
        self,
        source: str,
        keys: list[int],
        tids: list[int],
        pays: list | None,
    ) -> list[Tuple]:
        if pays is None:
            return [
                Tuple(key=k, tid=i, source=source) for k, i in zip(keys, tids)
            ]
        return [
            Tuple(key=k, tid=i, source=source, payload=p)
            for k, i, p in zip(keys, tids, pays)
        ]

    def insert(self, t: Tuple) -> int:
        """Store ``t`` in its own source's bucket (Figure 3, Step 4)."""
        keys, tids, pays = self._columns(t.source)
        bucket = self.bucket_of(t.key)
        self._append(keys, tids, pays, bucket, t)
        self._summary.add(t.source, self.group_of_bucket(bucket))
        return bucket

    def probe(self, t: Tuple) -> tuple[list[Tuple], int]:
        """Match ``t`` against the opposite source's bucket (Step 3).

        Returns ``(matches, candidates_compared)`` — the second value
        is the bucket population, which is what the probe CPU charge
        is based on.
        """
        other = SOURCE_B if t.source == SOURCE_A else SOURCE_A
        keys, tids, pays = self._columns(other)
        bucket = self.bucket_of(t.key)
        key = t.key
        key_col = keys[bucket]
        matches = self._probe_column(
            key, key_col, tids[bucket], pays[bucket], other
        )
        return list(matches), len(key_col)

    def _probe_column(
        self,
        key: int,
        key_col: list[int],
        tid_col: list[int],
        pay_col: list | None,
        opp_source: str,
    ) -> Sequence[Tuple]:
        # ``in`` over an int list is a C-speed scan; the boxing
        # comprehension only runs when a match exists (rare at paper
        # selectivity).
        if not key_col or key not in key_col:
            return _NO_MATCHES
        if pay_col is None:
            return [
                Tuple(key=key, tid=tid_col[i], source=opp_source)
                for i, k in enumerate(key_col)
                if k == key
            ]
        return [
            Tuple(key=key, tid=tid_col[i], source=opp_source, payload=pay_col[i])
            for i, k in enumerate(key_col)
            if k == key
        ]

    def probe_insert(self, t: Tuple) -> tuple[Sequence[Tuple], int, int]:
        """Fused probe + insert for the per-tuple hot path.

        Behaviourally identical to :meth:`probe` followed by
        :meth:`insert`, but the bucket hash is computed once, the
        bucket/group resolution is a list lookup, the summary update
        skips per-call validation, and an empty or matchless opposite
        bucket costs no allocation at all.  Returns
        ``(matches, candidates, bucket)`` — the extra bucket index
        saves callers that key per-bucket bookkeeping (XJoin's insert
        counts) a second hash.
        """
        key = t.key
        bucket = ((key * _HASH_MULTIPLIER) & _HASH_MASK) % self._n_buckets
        if self._split_base:
            entry = self._split_base.get(bucket)
            if entry is not None:
                start, factor = entry
                bucket = start + ((key * _HASH_MULTIPLIER2) & _HASH_MASK) % factor
        if t.source == SOURCE_A:
            own_keys, own_tids, own_pays = self._keys_a, self._tids_a, self._pays_a
            opp_keys, opp_tids, opp_pays = self._keys_b, self._tids_b, self._pays_b
            opp_source, is_a = SOURCE_B, True
        else:
            own_keys, own_tids, own_pays = self._keys_b, self._tids_b, self._pays_b
            opp_keys, opp_tids, opp_pays = self._keys_a, self._tids_a, self._pays_a
            opp_source, is_a = SOURCE_A, False
        cand_keys = opp_keys[bucket]
        matches = self._probe_column(
            key, cand_keys, opp_tids[bucket], opp_pays[bucket], opp_source
        )
        self._append(own_keys, own_tids, own_pays, bucket, t)
        self._summary.add_one(is_a, self._group_of[bucket])
        return matches, len(cand_keys), bucket

    # -- the array-native batch kernel -----------------------------------

    def probe_insert_batch(
        self,
        keys: np.ndarray,
        tids: np.ndarray,
        is_a: np.ndarray,
        payloads: list | None,
        buckets: np.ndarray,
        need_pairs: bool = True,
    ) -> BatchProbeResult:
        """Probe + insert a whole arrival segment in one vectorized pass.

        Arguments are parallel per-row columns in *arrival order*:
        int64 ``keys``/``tids``, boolean ``is_a`` (source A rows), the
        payload reference list (or ``None``), and ``buckets`` from
        :meth:`hash_batch`.  Equivalent to calling :meth:`probe_insert`
        row by row: candidate counts, match multiplicities, and (when
        ``need_pairs``) the exact emission order are identical, because
        matches replay the per-tuple scan order — existing entries by
        column position, then earlier batch rows by insertion position.
        With ``need_pairs=False`` only the per-row counts are computed
        (what a ``keep_results=False`` run needs for its clock charges).
        """
        n = len(keys)
        if n == 0:
            empty = np.empty(0, dtype=np.int64)
            return BatchProbeResult(
                candidates=empty,
                match_counts=empty,
                total_matches=0,
                runs_a=[],
                runs_b=[],
            )
        summary_total = self._summary.total

        # Group rows by bucket, stably: within a bucket run, sorted
        # position order IS arrival order.
        order_b = np.argsort(buckets, kind="stable")
        sb = buckets[order_b]
        ia_sorted = is_a[order_b]
        starts, ends = _run_bounds(sb)
        run_lens = ends - starts
        run_buckets_arr = sb[starts]
        run_buckets = run_buckets_arr.tolist()

        # Prior same-bucket rows of each source (exclusive counts).
        ia_int = ia_sorted.astype(np.int64)
        exc_a = np.cumsum(ia_int) - ia_int
        exc_b = np.cumsum(1 - ia_int) - (1 - ia_int)
        prior_a = exc_a - np.repeat(exc_a[starts], run_lens)
        prior_b = exc_b - np.repeat(exc_b[starts], run_lens)

        n_runs = len(run_buckets)
        base_a_run = np.fromiter(
            map(len, map(self._keys_a.__getitem__, run_buckets)), np.int64, n_runs
        )
        base_b_run = np.fromiter(
            map(len, map(self._keys_b.__getitem__, run_buckets)), np.int64, n_runs
        )
        base_a = np.repeat(base_a_run, run_lens)
        base_b = np.repeat(base_b_run, run_lens)

        # Opposite-bucket population each row scans = candidates; own
        # insertion position = where later rows will find this one.
        cand_sorted = np.where(ia_sorted, base_b + prior_b, base_a + prior_a)
        candidates = np.empty(n, dtype=np.int64)
        candidates[order_b] = cand_sorted
        own_pos = np.empty(n, dtype=np.int64)
        own_pos[order_b] = np.where(ia_sorted, base_a + prior_a, base_b + prior_b)

        collect_pays = need_pairs and (
            payloads is not None or self._any_payloads()
        )
        chunk_probe: list[np.ndarray] = []
        chunk_order: list[np.ndarray] = []
        chunk_tid: list[np.ndarray] = []
        chunk_pay: list[list] = []
        exist_counts: np.ndarray | None = None

        # Matches against already-stored tuples: one sort-join per side
        # over the stored columns of every bucket that side's rows touch
        # (see :meth:`_stored_matches`).  Skipped wholesale when the
        # table is empty — the mega-batch case the kernel benchmark
        # measures.
        if summary_total:
            exist_counts = np.zeros(n, dtype=np.int64)
            a_in_run = np.add.reduceat(ia_int, starts)
            b_in_run = run_lens - a_in_run
            for probe_rows, probe_in_run, stored_run, cols in (
                (np.flatnonzero(is_a), a_in_run, base_b_run, self._columns(SOURCE_B)),
                (np.flatnonzero(~is_a), b_in_run, base_a_run, self._columns(SOURCE_A)),
            ):
                touched = (stored_run > 0) & (probe_in_run > 0)
                if touched.any():
                    self._stored_matches(
                        probe_rows, keys, run_buckets_arr[touched].tolist(),
                        stored_run[touched], *cols, exist_counts, need_pairs,
                        collect_pays, chunk_probe, chunk_order, chunk_tid,
                        chunk_pay,
                    )

        # Intra-batch matches, fully vectorized: equal keys imply the
        # same bucket, so grouping by key alone finds every
        # batch-internal pair; prior opposite-source rows in the key
        # run are exactly the stored rows an arrival would scan.
        order_k = np.argsort(keys, kind="stable")
        sk = keys[order_k]
        ia_k = is_a[order_k]
        kstarts, kends = _run_bounds(sk)
        klens = kends - kstarts
        ia_k_int = ia_k.astype(np.int64)
        kexc_a = np.cumsum(ia_k_int) - ia_k_int
        kexc_b = np.cumsum(1 - ia_k_int) - (1 - ia_k_int)
        kprior_a = kexc_a - np.repeat(kexc_a[kstarts], klens)
        kprior_b = kexc_b - np.repeat(kexc_b[kstarts], klens)
        m_intra_sorted = np.where(ia_k, kprior_b, kprior_a)

        match_counts = np.empty(n, dtype=np.int64)
        match_counts[order_k] = m_intra_sorted
        if exist_counts is not None:
            match_counts += exist_counts
        total_matches = int(match_counts.sum())

        intra_total = int(m_intra_sorted.sum())
        if need_pairs and intra_total:
            # Enumerate pairs with the concatenated-aranges trick:
            # probe row r (with m builds) contributes builds
            # opposite_rows[off_r + 0 .. off_r + m-1].
            a_rows_k = order_k[ia_k]
            b_rows_k = order_k[~ia_k]
            off_a = kexc_a[kstarts]
            off_b = kexc_b[kstarts]
            opp_off = np.where(
                ia_k, np.repeat(off_b, klens), np.repeat(off_a, klens)
            )
            cnt = m_intra_sorted
            probe_rep = np.repeat(order_k, cnt)
            isa_rep = np.repeat(ia_k, cnt)
            csum = np.cumsum(cnt)
            within = np.arange(intra_total, dtype=np.int64) - np.repeat(
                csum - cnt, cnt
            )
            src_idx = np.repeat(opp_off, cnt) + within
            build_rows = np.empty(intra_total, dtype=np.int64)
            build_rows[isa_rep] = b_rows_k[src_idx[isa_rep]]
            build_rows[~isa_rep] = a_rows_k[src_idx[~isa_rep]]
            chunk_probe.append(probe_rep)
            chunk_order.append(own_pos[build_rows])
            chunk_tid.append(tids[build_rows])
            if collect_pays:
                if payloads is None:
                    chunk_pay.append([None] * intra_total)
                else:
                    chunk_pay.append([payloads[r] for r in build_rows.tolist()])

        probe_rows: np.ndarray | None = None
        build_tids: np.ndarray | None = None
        build_pays: list | None = None
        if need_pairs and total_matches:
            probe_all = np.concatenate(chunk_probe)
            order_all = np.concatenate(chunk_order)
            tid_all = np.concatenate(chunk_tid)
            # Emission order: probe (arrival) position, then the build
            # side's position in its bucket — the per-tuple scan order.
            sel = np.lexsort((order_all, probe_all))
            probe_rows = probe_all[sel]
            build_tids = tid_all[sel]
            if collect_pays:
                pay_all: list = []
                for chunk in chunk_pay:
                    pay_all.extend(chunk)
                build_pays = [pay_all[i] for i in sel.tolist()]

        # Bulk inserts: per-source, per-bucket-run column extends.
        runs_a = self._bulk_insert(
            order_b[ia_sorted], sb[ia_sorted], keys, tids, payloads,
            self._keys_a, self._tids_a, self._pays_a,
        )
        runs_b = self._bulk_insert(
            order_b[~ia_sorted], sb[~ia_sorted], keys, tids, payloads,
            self._keys_b, self._tids_b, self._pays_b,
        )

        # Summary: per-group delta arrays in two bincounts.  The
        # running (max, argmax) goes stale; the lazy rescan picks the
        # lowest-index argmax, same as the running update would.
        garr = self._group_arr
        ng = self._n_groups
        deltas_a = np.bincount(garr[buckets[is_a]], minlength=ng)
        deltas_b = np.bincount(garr[buckets[~is_a]], minlength=ng)
        self._summary.add_delta_arrays(deltas_a, deltas_b)

        return BatchProbeResult(
            candidates=candidates,
            match_counts=match_counts,
            total_matches=total_matches,
            runs_a=runs_a,
            runs_b=runs_b,
            probe_rows=probe_rows,
            build_tids=build_tids,
            build_payloads=build_pays,
        )

    def _any_payloads(self) -> bool:
        # Some slot list exists iff some stored tuple carries a
        # payload: a list is only created for a payload-bearing tuple,
        # tuples leave the table only a whole group at a time (extract
        # or discard, which drop the group's lists), and a sub-split or
        # re-merge keeps every tuple in its group.  A single slot may
        # hold an all-None list — a sub-bucket that received only
        # payload-free tuples — so the invariant is table-wide, not per
        # slot.  ``count`` scans the slots at C speed.
        pays_a, pays_b = self._pays_a, self._pays_b
        return pays_a.count(None) != len(pays_a) or pays_b.count(None) != len(pays_b)

    @staticmethod
    def _stored_matches(
        probe_rows: np.ndarray,
        keys: np.ndarray,
        buckets: list[int],
        lens: np.ndarray,
        key_cols: list[list[int]],
        tid_cols: list[list[int]],
        pay_cols: list[list | None],
        exist_counts: np.ndarray,
        need_pairs: bool,
        collect_pays: bool,
        chunk_probe: list[np.ndarray],
        chunk_order: list[np.ndarray],
        chunk_tid: list[np.ndarray],
        chunk_pay: list[list],
    ) -> None:
        """Match one side's batch rows against the other side's store.

        ``buckets`` (with their stored lengths ``lens``) are the
        non-empty opposite-side buckets the probing rows touch.  Their
        key columns are gathered into one array and sorted, and every
        probe row's matches are the ``searchsorted`` range of its key.
        Equal keys always hash to the same bucket (and, under a hot
        split, the same sub-bucket), so matching by key alone finds
        exactly the matches a per-bucket scan would — a row whose
        bucket was not gathered finds none.  Each match reports its
        in-bucket position, the secondary emission-order key.
        """
        total = int(lens.sum())
        stored = np.fromiter(
            chain.from_iterable(map(key_cols.__getitem__, buckets)), np.int64, total
        )
        order = np.argsort(stored, kind="stable")
        stored = stored[order]
        probe_keys = keys[probe_rows]
        lo = np.searchsorted(stored, probe_keys, side="left")
        counts = np.searchsorted(stored, probe_keys, side="right")
        counts -= lo
        matched = int(counts.sum())
        if not matched:
            return
        # probe_rows are distinct rows, so fancy-index add is safe.
        exist_counts[probe_rows] += counts
        if not need_pairs:
            return
        # Pairs with the concatenated-aranges trick: pair j, the k-th
        # match of probe row r (j = first_pair[r] + k), sits at sorted
        # position lo[r] + k = (lo[r] - first_pair[r]) + j.
        first_pair = np.cumsum(counts) - counts
        picked = order[np.repeat(lo - first_pair, counts) + np.arange(matched)]
        # Gathered index -> (bucket, in-bucket position).
        ends = np.cumsum(lens)
        slot = np.searchsorted(ends, picked, side="right")
        pos = picked - (ends - lens)[slot]
        # Matches are few next to the gathered columns, so their tids
        # (and payloads) are read straight from the bucket lists.
        match_cols = list(map(buckets.__getitem__, slot.tolist()))
        pos_l = pos.tolist()
        chunk_probe.append(np.repeat(probe_rows, counts))
        chunk_order.append(pos)
        chunk_tid.append(
            np.fromiter(
                map(list.__getitem__, map(tid_cols.__getitem__, match_cols), pos_l),
                np.int64,
                matched,
            )
        )
        if collect_pays:
            chunk_pay.append(
                [
                    None if (col := pay_cols[b]) is None else col[p]
                    for b, p in zip(match_cols, pos_l)
                ]
            )

    @staticmethod
    def _bulk_insert(
        rows_sorted: np.ndarray,
        buckets_sorted: np.ndarray,
        keys: np.ndarray,
        tids: np.ndarray,
        payloads: list | None,
        keys_cols: list[list[int]],
        tids_cols: list[list[int]],
        pays_cols: list[list | None],
    ) -> list[tuple[int, int]]:
        """Extend one source's bucket columns with its batch rows."""
        if not len(rows_sorted):
            return []
        keys_l = keys[rows_sorted].tolist()
        tids_l = tids[rows_sorted].tolist()
        pays_l = (
            None
            if payloads is None
            else [payloads[r] for r in rows_sorted.tolist()]
        )
        starts, ends = _run_bounds(buckets_sorted)
        starts_l = starts.tolist()
        ends_l = ends.tolist()
        run_buckets = buckets_sorted[starts].tolist()
        runs: list[tuple[int, int]] = []
        for j, b in enumerate(run_buckets):
            s, e = starts_l[j], ends_l[j]
            key_col = keys_cols[b]
            prior = len(key_col)
            key_col.extend(keys_l[s:e])
            tids_cols[b].extend(tids_l[s:e])
            pay_col = pays_cols[b]
            if pays_l is not None:
                seg = pays_l[s:e]
                if pay_col is not None:
                    pay_col.extend(seg)
                elif any(p is not None for p in seg):
                    pay_col = [None] * prior
                    pay_col.extend(seg)
                    pays_cols[b] = pay_col
            elif pay_col is not None:
                pay_col.extend([None] * (e - s))
            runs.append((b, e - s))
        return runs

    # -- hot-group sub-split ----------------------------------------------

    @property
    def split_epoch(self) -> int:
        """Monotone counter bumped by every split/merge.

        Batch drivers that pre-hash a whole key column compare epochs
        around a flush: a change means previously computed bucket
        indices are stale and the remaining rows must be re-hashed.
        """
        return self._split_epoch

    def is_split(self, group: int) -> bool:
        """Whether ``group`` currently has an active sub-split."""
        if not 0 <= group < self._n_groups:
            raise ConfigurationError(
                f"group {group} out of range [0, {self._n_groups})"
            )
        return group in self._split_groups

    def split_factor(self, group: int) -> int:
        """Sub-buckets per base bucket for ``group`` (1 when unsplit)."""
        if not 0 <= group < self._n_groups:
            raise ConfigurationError(
                f"group {group} out of range [0, {self._n_groups})"
            )
        return self._split_groups.get(group, 1)

    def split_groups(self) -> list[int]:
        """The currently split groups, ascending."""
        return sorted(self._split_groups)

    def _base_buckets(self, group: int) -> range:
        start = group * self._group_size
        if group == self._n_groups - 1:
            return range(start, self._n_buckets)
        return range(start, start + self._group_size)

    def subsplit_group(self, group: int, factor: int) -> int:
        """Re-bucket a hot group in place: ``factor`` sub-buckets each.

        Every base bucket of ``group`` gets ``factor`` extension slots
        (on both sources, in lockstep) and its resident tuples are
        scattered into them by the secondary hash — one vectorized
        pass per bucket, reusing the :meth:`subhash_batch` kernel.
        Equal keys share a sub-bucket and keep their insertion order,
        so probe *matches* (and their emission order) are exactly what
        the unsplit table would produce; only the candidate scan
        shrinks, which is the point.  The summary table is untouched
        (tuples never change group).  Returns the number of tuples
        moved (both sources).
        """
        if not 0 <= group < self._n_groups:
            raise ConfigurationError(
                f"group {group} out of range [0, {self._n_groups})"
            )
        if factor < 2:
            raise ConfigurationError(f"split factor must be >= 2, got {factor}")
        if group in self._split_groups:
            raise ConfigurationError(f"group {group} is already split")
        moved = 0
        for b in self._base_buckets(group):
            ext_start = len(self._group_of)
            self._group_of.extend([group] * factor)
            for int_cols in (self._keys_a, self._tids_a, self._keys_b, self._tids_b):
                int_cols.extend([] for _ in range(factor))
            self._pays_a.extend([None] * factor)
            self._pays_b.extend([None] * factor)
            for keys_cols, tids_cols, pays_cols in (
                (self._keys_a, self._tids_a, self._pays_a),
                (self._keys_b, self._tids_b, self._pays_b),
            ):
                moved += self._scatter_bucket(
                    keys_cols, tids_cols, pays_cols, b, ext_start, factor
                )
            self._split_base[b] = (ext_start, factor)
        self._split_groups[group] = factor
        self._rebuild_split_arrays()
        self._split_epoch += 1
        return moved

    def merge_group(self, group: int) -> int:
        """Undo :meth:`subsplit_group`: gather extensions back in place.

        Each base bucket's tuples are concatenated back from its
        extension slots in sub-bucket order; trailing unreferenced
        extension slots are trimmed.  Returns the number of tuples
        moved (both sources).
        """
        if group not in self._split_groups:
            raise ConfigurationError(f"group {group} is not split")
        moved = 0
        for b in self._base_buckets(group):
            entry = self._split_base.pop(b, None)
            if entry is None:
                continue
            ext_start, factor = entry
            for keys_cols, tids_cols, pays_cols in (
                (self._keys_a, self._tids_a, self._pays_a),
                (self._keys_b, self._tids_b, self._pays_b),
            ):
                moved += self._gather_bucket(
                    keys_cols, tids_cols, pays_cols, b, ext_start, factor
                )
        del self._split_groups[group]
        self._trim_extensions()
        self._rebuild_split_arrays()
        self._split_epoch += 1
        return moved

    def _scatter_bucket(
        self,
        keys_cols: list[list[int]],
        tids_cols: list[list[int]],
        pays_cols: list[list | None],
        bucket: int,
        ext_start: int,
        factor: int,
    ) -> int:
        """Move one bucket's columns into its extension slots."""
        key_col = keys_cols[bucket]
        if not key_col:
            return 0
        arr = np.asarray(key_col, dtype=np.int64)
        sub = self.subhash_batch(arr, factor)
        order = np.argsort(sub, kind="stable")
        sub_sorted = sub[order]
        starts, ends = _run_bounds(sub_sorted)
        tid_col = tids_cols[bucket]
        pay_col = pays_cols[bucket]
        order_l = order.tolist()
        run_subs = sub_sorted[starts].tolist()
        for s, e, sb in zip(starts.tolist(), ends.tolist(), run_subs):
            rows = order_l[s:e]
            dest = ext_start + sb
            keys_cols[dest] = [key_col[i] for i in rows]
            tids_cols[dest] = [tid_col[i] for i in rows]
            if pay_col is not None:
                pays_cols[dest] = [pay_col[i] for i in rows]
        moved = len(key_col)
        keys_cols[bucket] = []
        tids_cols[bucket] = []
        pays_cols[bucket] = None
        return moved

    @staticmethod
    def _gather_bucket(
        keys_cols: list[list[int]],
        tids_cols: list[list[int]],
        pays_cols: list[list | None],
        bucket: int,
        ext_start: int,
        factor: int,
    ) -> int:
        """Concatenate extension slots back into their base bucket."""
        merged_keys: list[int] = []
        merged_tids: list[int] = []
        merged_pays: list | None = None
        for s in range(ext_start, ext_start + factor):
            seg_keys = keys_cols[s]
            if seg_keys:
                seg_pays = pays_cols[s]
                if seg_pays is not None and merged_pays is None:
                    merged_pays = [None] * len(merged_keys)
                if merged_pays is not None:
                    merged_pays.extend(
                        seg_pays
                        if seg_pays is not None
                        else [None] * len(seg_keys)
                    )
                merged_keys.extend(seg_keys)
                merged_tids.extend(tids_cols[s])
            keys_cols[s] = []
            tids_cols[s] = []
            pays_cols[s] = None
        keys_cols[bucket] = merged_keys
        tids_cols[bucket] = merged_tids
        pays_cols[bucket] = merged_pays
        return len(merged_keys)

    def _trim_extensions(self) -> None:
        """Drop trailing extension slots no active split references."""
        limit = self._n_buckets
        for ext_start, factor in self._split_base.values():
            limit = max(limit, ext_start + factor)
        if len(self._group_of) <= limit:
            return
        del self._group_of[limit:]
        for int_cols in (self._keys_a, self._tids_a, self._keys_b, self._tids_b):
            del int_cols[limit:]
        del self._pays_a[limit:]
        del self._pays_b[limit:]

    def _rebuild_split_arrays(self) -> None:
        """Refresh the vectorized twins after a split/merge/trim."""
        self._group_arr = np.asarray(self._group_of, dtype=np.int64)
        if not self._split_base:
            self._split_base_arr = None
            self._split_factor_arr = None
            return
        size = len(self._group_of)
        base = np.full(size, -1, dtype=np.int64)
        fac = np.ones(size, dtype=np.int64)
        for b, (ext_start, factor) in self._split_base.items():
            base[b] = ext_start
            fac[b] = factor
        self._split_base_arr = base
        self._split_factor_arr = fac

    # -- extraction and inspection ----------------------------------------

    def extract_group(self, source: str, group: int) -> list[Tuple]:
        """Remove and return every tuple of ``source`` in ``group``.

        Used by the flush path: the caller sorts the extracted tuples
        and writes them as one disk block.  Tuples are boxed here, at
        the memory/disk boundary, in bucket-then-insertion order —
        the order the tuple-list storage always produced.
        """
        keys_cols, tids_cols, pays_cols = self._columns(source)
        extracted: list[Tuple] = []
        for bucket in self.buckets_in_group(group):
            key_col = keys_cols[bucket]
            if not key_col:
                continue
            extracted.extend(
                self._materialise(
                    source, key_col, tids_cols[bucket], pays_cols[bucket]
                )
            )
            keys_cols[bucket] = []
            tids_cols[bucket] = []
            pays_cols[bucket] = None
        if extracted:
            self._summary.remove(source, group, len(extracted))
        return extracted

    def extract_group_columns(self, source: str, group: int) -> "RelationColumns":
        """Columnar :meth:`extract_group`: remove a group without boxing.

        Same bucket-then-insertion order, same column clearing, same
        single summary update — but the extracted tuples leave as
        contiguous key/tid arrays (plus a payload list only when some
        payload is non-``None``), ready for the columnar flush path's
        ``lexsort``.
        """
        keys_cols, tids_cols, pays_cols = self._columns(source)
        keys: list[int] = []
        tids: list[int] = []
        pays: list | None = None
        for bucket in self.buckets_in_group(group):
            key_col = keys_cols[bucket]
            if not key_col:
                continue
            pay_col = pays_cols[bucket]
            if pay_col is not None and pays is None:
                pays = [None] * len(keys)
            if pays is not None:
                pays.extend(
                    pay_col if pay_col is not None else [None] * len(key_col)
                )
            keys.extend(key_col)
            tids.extend(tids_cols[bucket])
            keys_cols[bucket] = []
            tids_cols[bucket] = []
            pays_cols[bucket] = None
        if keys:
            self._summary.remove(source, group, len(keys))
        return RelationColumns(
            keys=np.asarray(keys, dtype=np.int64),
            tids=np.asarray(tids, dtype=np.int64),
            payloads=pays,
            source=source,
        )

    def discard_group(self, source: str, group: int) -> int:
        """Drop every tuple of ``source`` in ``group`` without boxing.

        The count-and-release counterpart of :meth:`extract_group` for
        callers that do not need the tuples (end-of-input accounting
        when nothing was ever spilled): the columns are cleared and the
        summary updated, but no ``Tuple`` is materialised.  Returns the
        number of tuples dropped.
        """
        keys_cols, tids_cols, pays_cols = self._columns(source)
        dropped = 0
        for bucket in self.buckets_in_group(group):
            key_col = keys_cols[bucket]
            if not key_col:
                continue
            dropped += len(key_col)
            keys_cols[bucket] = []
            tids_cols[bucket] = []
            pays_cols[bucket] = None
        if dropped:
            self._summary.remove(source, group, dropped)
        return dropped

    def bucket_size(self, source: str, bucket: int) -> int:
        """Population of one bucket."""
        keys_cols, _, _ = self._columns(source)
        return len(keys_cols[bucket])

    def bucket_contents(self, source: str, bucket: int) -> list[Tuple]:
        """One bucket's tuples, boxed (XJoin's stage 2 snapshots these)."""
        keys_cols, tids_cols, pays_cols = self._columns(source)
        return self._materialise(
            source, keys_cols[bucket], tids_cols[bucket], pays_cols[bucket]
        )

    def largest_bucket(self) -> tuple[str, int]:
        """The (source, bucket) pair with the most tuples.

        XJoin's flushing policy: "the largest hash bucket among all A
        and B buckets is flushed into disk".  Ties break to source A,
        then to the lowest bucket index.
        """
        best_source, best_bucket, best_size = SOURCE_A, 0, -1
        for source, keys_cols in ((SOURCE_A, self._keys_a), (SOURCE_B, self._keys_b)):
            for bucket, key_col in enumerate(keys_cols):
                if len(key_col) > best_size:
                    best_source, best_bucket, best_size = source, bucket, len(key_col)
        return best_source, best_bucket

    def total_tuples(self) -> int:
        """All tuples currently held, both sources."""
        return self._summary.total

    def __repr__(self) -> str:
        return (
            f"DualHashTable(buckets={self._n_buckets}, groups={self._n_groups}, "
            f"held={self.total_tuples()})"
        )
