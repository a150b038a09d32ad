"""Micro-benchmarks of the library's hot kernels.

Unlike the figure reproductions (single deterministic simulations),
these measure raw Python throughput of the operations every simulated
second is built from: hashing-phase probe/insert, victim selection,
k-way run merging, and a full small HMJ run.  Useful for tracking
performance regressions of the library itself.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import HMJConfig
from repro.core.flushing import AdaptiveFlushingPolicy
from repro.core.hashing import DualHashTable
from repro.core.hmj import HashMergeJoin
from repro.core.summary import BucketSummaryTable
from repro.joins.blocking import hash_join
from repro.net.arrival import ConstantRate
from repro.net.source import NetworkSource
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.sim.engine import run_join
from repro.storage.disk import SimulatedDisk
from repro.storage.runs import SortedRun, key_merge_iterator
from repro.storage.tuples import SOURCE_A, SOURCE_B, Tuple
from repro.workloads.generator import WorkloadSpec, make_relation_pair


def test_probe_insert_throughput(benchmark):
    rng = np.random.default_rng(1)
    keys = rng.integers(0, 4000, size=4000)
    tuples = [
        Tuple(key=int(k), tid=i, source=SOURCE_A if i % 2 else SOURCE_B)
        for i, k in enumerate(keys)
    ]

    def run():
        table = DualHashTable(200, 20)
        matches = 0
        for t in tuples:
            found, _ = table.probe(t)
            matches += len(found)
            table.insert(t)
        return matches

    assert benchmark(run) > 0


def test_adaptive_victim_selection_throughput(benchmark):
    rng = np.random.default_rng(2)
    table = BucketSummaryTable(50)
    for g in range(50):
        table.add(SOURCE_A, g, int(rng.integers(0, 100)))
        table.add(SOURCE_B, g, int(rng.integers(0, 100)))
    policy = AdaptiveFlushingPolicy()
    policy.prepare(memory_capacity=5000, n_groups=50)

    def run():
        return [policy.select_victims(table)[0] for _ in range(200)]

    assert len(benchmark(run)) == 200


def test_kway_merge_throughput(benchmark):
    clock = VirtualClock()
    disk = SimulatedDisk(clock, CostModel(page_size=64, io_cost=0.0))
    rng = np.random.default_rng(3)
    runs = []
    for i in range(8):
        tuples = sorted(
            (
                Tuple(key=int(k), tid=j, source=SOURCE_A)
                for j, k in enumerate(rng.integers(0, 10_000, size=500))
            ),
            key=Tuple.sort_key,
        )
        block = disk.write_block("p", tuples, block_id=i, sorted_by_key=True)
        runs.append(SortedRun(block=block, origin=i))

    def run():
        return sum(1 for _ in key_merge_iterator(runs, disk))

    assert benchmark(run) == 4000


def test_oracle_hash_join_throughput(benchmark):
    spec = WorkloadSpec(n_a=5000, n_b=5000, key_range=10_000, seed=4)
    rel_a, rel_b = make_relation_pair(spec)
    result = benchmark(lambda: len(hash_join(rel_a, rel_b)))
    assert result > 0


def test_full_hmj_run_small(benchmark):
    spec = WorkloadSpec(n_a=2000, n_b=2000, key_range=4000, seed=5)
    rel_a, rel_b = make_relation_pair(spec)

    def run():
        src_a = NetworkSource(rel_a, ConstantRate(2000.0), seed=1)
        src_b = NetworkSource(rel_b, ConstantRate(2000.0), seed=2)
        op = HashMergeJoin(HMJConfig(memory_capacity=400))
        return run_join(src_a, src_b, op, keep_results=False).count

    assert benchmark(run) > 0


def test_fused_probe_insert_throughput(benchmark):
    # The hot-path variant of test_probe_insert_throughput: one hash
    # computation per tuple, no allocation on empty-bucket probes.
    rng = np.random.default_rng(1)
    keys = rng.integers(0, 4000, size=4000)
    tuples = [
        Tuple(key=int(k), tid=i, source=SOURCE_A if i % 2 else SOURCE_B)
        for i, k in enumerate(keys)
    ]

    def run():
        table = DualHashTable(200, 20)
        matches = 0
        for t in tuples:
            found, _, _ = table.probe_insert(t)
            matches += len(found)
        return matches

    assert benchmark(run) > 0


def _delivery_run(rel_a, rel_b, batch_delivery: bool) -> int:
    # Ample memory: nothing flushes, so the run isolates the delivery
    # path itself (the flush path is identical code either way).
    src_a = NetworkSource(rel_a, ConstantRate(5000.0), seed=1)
    src_b = NetworkSource(rel_b, ConstantRate(5000.0), seed=2)
    op = HashMergeJoin(HMJConfig(memory_capacity=8000))
    return run_join(
        src_a, src_b, op, keep_results=False, batch_delivery=batch_delivery
    ).count


def test_kernel_batched_delivery_throughput(benchmark):
    # Run-batch delivery: maximal arrival runs as column batches.
    spec = WorkloadSpec(n_a=4000, n_b=4000, key_range=8000, seed=9)
    rel_a, rel_b = make_relation_pair(spec)
    assert benchmark(lambda: _delivery_run(rel_a, rel_b, True)) > 0


def test_kernel_per_tuple_delivery_throughput(benchmark):
    # The per-event baseline batched delivery is measured against; the
    # tracked ratio lives in BENCH_kernel.json (repro.bench.kernel).
    spec = WorkloadSpec(n_a=4000, n_b=4000, key_range=8000, seed=9)
    rel_a, rel_b = make_relation_pair(spec)
    assert benchmark(lambda: _delivery_run(rel_a, rel_b, False)) > 0


def test_summary_running_max_throughput(benchmark):
    # Per-tuple victim bookkeeping: the O(1) running (max, argmax)
    # queried after every add, as FlushLargestPolicy now does.
    rng = np.random.default_rng(6)
    groups = rng.integers(0, 50, size=8000)
    sides = rng.integers(0, 2, size=8000)

    def run():
        table = BucketSummaryTable(50)
        acc = 0
        for g, s in zip(groups, sides):
            table.add_one(bool(s), int(g))
            acc += table.argmax_pair_total()
        return acc

    assert benchmark(run) >= 0
