"""Kernel delivery-path micro-benchmark (``BENCH_kernel.json``).

Measures what run-batch delivery is worth: constant-rate HMJ runs —
ample memory, so nothing flushes and the wall clock is dominated by
per-tuple dispatch, the thing batching amortises — executed through
both kernel paths:

* ``per_tuple`` — one heap pop/push round-trip per arrival (the
  conformance oracle);
* ``columnar`` — merged arrival runs delivered as :class:`~repro.core.
  columnar.ColumnBatch` arrays end-to-end (vectorized run extraction,
  array-native probe/insert, column-slice metrics appends).

Every path must produce the identical ``(count, final clock, page
I/O)`` triple — delivery is an amortisation, never a simulation change
— and the wall-clock ratios are the tracked speedups.  Two scale
points are recorded by default: the 100k-tuple point (trajectory
continuity with earlier manifests) and the paper-nominal 1M-tuple
point (10^6 tuples per figure in Section 6).

A second, memory-constrained point isolates the merge phase itself:
a :class:`~repro.core.merging.MergeScheduler` is pre-loaded with a
fully-flushed run history (the regime where memory held ~10% of the
input and everything spilled), then the k-way join-while-merging drain
is timed through both merge paths — the scalar per-tuple generator and
the vectorized columnar pass.  The columnar path must beat the scalar
oracle by at least :data:`MERGE_SPEEDUP_GATE` on identical triples,
with at least :data:`MERGE_FLUSHED_FLOOR` of the input flushed; both
are enforced gates, not advisory numbers, and both paths are timed at
least :data:`GATED_MIN_REPEATS` times.

A third point runs the paper's own regime: constant-rate HMJ with
memory holding 10% of the input (Section 6), so the hashing phase
probes and inserts into a full table between flushes.  Triples must
match, and the columnar best wall must be at most
:data:`PAPER_RATIO_GATE` times the per-tuple best wall (an enforced
gate, timed at least :data:`GATED_MIN_REPEATS` times per path).

Optionally (``--figure-check``) one full figure scenario is also run
through both paths, cell by cell, and any triple mismatch fails the
process — CI's cheap end-to-end equivalence gate.

Usage::

    python -m repro.bench.kernel                  # 100k + 1M + 10%-memory points
    python -m repro.bench.kernel --tuples 20000 --repeats 1 \
        --figure-check fig11 --out BENCH_kernel.json
"""

from __future__ import annotations

import argparse
import gc
import random
import sys
import time
from typing import Callable

from repro.bench.cache import source_digest
from repro.bench.grid import write_bench_manifest
from repro.bench.runner import execute
from repro.bench.scale import BenchScale
from repro.core.config import HMJConfig
from repro.core.hmj import HashMergeJoin
from repro.core.merging import MERGE_PATHS, MergeScheduler
from repro.joins.pmj import ProgressiveMergeJoin
from repro.joins.xjoin import XJoin
from repro.metrics.recorder import MetricsRecorder
from repro.net.arrival import ConstantRate
from repro.net.source import NetworkSource
from repro.sim.budget import WorkBudget
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.sim.engine import run_join
from repro.storage.disk import SimulatedDisk
from repro.storage.tuples import (
    SOURCE_A,
    SOURCE_B,
    Relation,
    Tuple,
    make_result,
)
from repro.workloads.generator import make_relation_pair

#: The fast-and-reliable arrival rate every figure uses (tuples/s).
RATE = 5000.0

#: Scale of the --figure-check scenario: the same small scale the
#: pinned determinism triples are captured at.
CHECK_SCALE = BenchScale(n_per_source=400, seed=7)

#: The benchmarked delivery paths: label -> (batch_delivery,
#: columnar_delivery) engine switches, slowest first.
PATHS: dict[str, tuple[bool, bool]] = {
    "per_tuple": (False, False),
    "columnar": (True, True),
}

#: Default scale points: the historical 100k point plus the paper's
#: nominal 10^6-tuple scale (Section 6 runs 1M-tuple sources).
DEFAULT_TUPLES = (100_000, 1_000_000)

#: Default size of the memory-constrained merge-heavy point.
DEFAULT_MERGE_TUPLES = 100_000

#: Enforced floor on the columnar-over-scalar merge drain speedup.
MERGE_SPEEDUP_GATE = 2.0

#: Enforced floor on the flushed fraction of the merge-heavy point —
#: the point must actually be in the spill-everything regime.
MERGE_FLUSHED_FLOOR = 0.5

#: Shape of the merge-heavy flush history: hash groups, flushes per
#: group (> fan-in, so multi-pass re-merging happens), runs per merge
#: pass, and the key multiplicity divisor (key_range = total / 8 gives
#: ~4 duplicates per key per side — a join-heavy merge, the regime the
#: cross-product gather path dominates).
MERGE_SHAPE = {"n_groups": 8, "flushes_per_group": 6, "fan_in": 4, "key_div": 8}

#: Size of the 10%-memory point (2x50k, the Section 6 shape).
PAPER_TUPLES = 100_000

#: Memory as a fraction of the input at the 10%-memory point.
PAPER_MEMORY_FRACTION = 0.10

#: Enforced ceiling on columnar best wall / per-tuple best wall there.
PAPER_RATIO_GATE = 0.6

#: Fewest timed runs per path at the two gated points (merge and
#: 10%-memory), whatever ``--repeats`` says: the gates compare best
#: walls, and a single unrepeated wall on a shared machine is too
#: noisy to gate on.
GATED_MIN_REPEATS = 3

Triple = tuple[int, float, int]


def _triple(result) -> Triple:
    return (result.recorder.count, result.clock.now, result.disk.io_count)


def kernel_run(
    rel_a: Relation,
    rel_b: Relation,
    memory_capacity: int,
    batch_delivery: bool,
    columnar_delivery: bool = False,
) -> tuple[Triple, float]:
    """One timed constant-rate HMJ run through the chosen path.

    Collection is disabled during the timed region (and forced right
    before it): a cycle-collection pause landing inside one run but not
    its counterpart is the dominant noise source at this scale.
    """
    operator = HashMergeJoin(HMJConfig(memory_capacity=memory_capacity))
    src_a = NetworkSource(rel_a, ConstantRate(RATE), seed=11)
    src_b = NetworkSource(rel_b, ConstantRate(RATE), seed=22)
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = run_join(
            src_a,
            src_b,
            operator,
            keep_results=False,
            batch_delivery=batch_delivery,
            columnar_delivery=columnar_delivery,
        )
        wall = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    return _triple(result), wall


def _sorted_run(
    rng: random.Random, n: int, source: int, key_range: int, tid_start: int
) -> list[Tuple]:
    run = [
        Tuple(
            key=rng.randrange(key_range),
            tid=tid_start + i,
            source=source,
            payload=None,
        )
        for i in range(n)
    ]
    run.sort(key=Tuple.sort_key)
    return run


def _merge_scheduler(
    merge_path: str, tuples_total: int, seed: int
) -> tuple[MergeScheduler, VirtualClock, SimulatedDisk, MetricsRecorder]:
    """A scheduler pre-loaded with a fully-flushed run history.

    This reproduces the state HMJ reaches when memory held ~10% of the
    input: every tuple was flushed to a sorted disk run and all join
    work is left for the k-way merge phase.  Both merge paths get the
    byte-identical history (same seed, same boxed registration path),
    so the timed drain below compares only the merge kernels.
    """
    clock = VirtualClock()
    disk = SimulatedDisk(clock, CostModel())
    recorder = MetricsRecorder(clock, disk, keep_results=False)
    shape = MERGE_SHAPE
    scheduler = MergeScheduler(
        disk=disk,
        clock=clock,
        costs=disk.costs,
        partition_prefix="bench-merge",
        fan_in=shape["fan_in"],
        n_groups=shape["n_groups"],
        merge_path=merge_path,
        recorder=recorder,
    )
    rng = random.Random(seed)
    per_side = tuples_total // (shape["n_groups"] * shape["flushes_per_group"] * 2)
    key_range = max(1, tuples_total // shape["key_div"])
    tid = 0
    for group in range(shape["n_groups"]):
        for _ in range(shape["flushes_per_group"]):
            run_a = _sorted_run(rng, per_side, SOURCE_A, key_range, tid)
            tid += per_side
            run_b = _sorted_run(rng, per_side, SOURCE_B, key_range, tid)
            tid += per_side
            scheduler.register_flush(group, run_a, run_b)
    scheduler.mark_input_ended()
    return scheduler, clock, disk, recorder


def merge_run(merge_path: str, tuples_total: int, seed: int) -> tuple[Triple, float, int]:
    """One timed full drain of the merge-heavy history through one path."""
    scheduler, clock, disk, recorder = _merge_scheduler(merge_path, tuples_total, seed)
    costs = disk.costs

    def emit(a, b):  # the scalar path's per-result charge+record shape
        clock.advance(costs.result_time(1))
        recorder.record(make_result(a, b), "merging")

    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        scheduler.work(WorkBudget.unbounded(clock), emit)
        wall = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    triple = (recorder.count, clock.now, disk.io_count)
    return triple, wall, scheduler.tuples_flushed


def _time_paths(
    rel_a: Relation, rel_b: Relation, memory: int, labels: list[str], repeats: int
) -> tuple[dict[str, list[float]], dict[str, Triple]]:
    """Every wall and the (repeat-checked) triple of each ``PATHS`` label."""
    walls: dict[str, list[float]] = {label: [] for label in labels}
    triples: dict[str, Triple] = {}
    for _ in range(repeats):
        for label in labels:
            batched, columnar = PATHS[label]
            triple, wall = kernel_run(rel_a, rel_b, memory, batched, columnar)
            walls[label].append(wall)
            previous = triples.setdefault(label, triple)
            assert previous == triple, f"non-deterministic {label} run"
    return walls, triples


def _path_walls(walls: dict[str, list[float]]) -> dict[str, dict]:
    """Per-path manifest entries: best wall plus every wall."""
    return {
        label: {
            "wall_seconds": round(min(times), 6),
            "walls": [round(w, 6) for w in times],
        }
        for label, times in walls.items()
    }


def merge_point(tuples_total: int, repeats: int, seed: int) -> dict:
    """Benchmark the join-while-merging drain through both merge paths.

    The scalar generator is the conformance oracle; the columnar pass
    must reproduce its triple exactly and beat its wall clock by at
    least :data:`MERGE_SPEEDUP_GATE`.  Gate outcomes are part of the
    payload so the tracked artifact shows *why* a run failed.  Each
    path runs at least :data:`GATED_MIN_REPEATS` times.
    """
    repeats = max(repeats, GATED_MIN_REPEATS)
    walls: dict[str, list[float]] = {path: [] for path in MERGE_PATHS}
    triples: dict[str, Triple] = {}
    flushed = 0
    for _ in range(repeats):
        for path in MERGE_PATHS:
            triple, wall, flushed = merge_run(path, tuples_total, seed)
            walls[path].append(wall)
            previous = triples.setdefault(path, triple)
            assert previous == triple, f"non-deterministic {path} merge drain"
    best = {path: min(times) for path, times in walls.items()}
    flushed_fraction = flushed / tuples_total
    speedup = best["scalar"] / best["columnar"]
    triples_match = len(set(triples.values())) == 1
    gate_passed = (
        triples_match
        and speedup >= MERGE_SPEEDUP_GATE
        and flushed_fraction >= MERGE_FLUSHED_FLOOR
    )
    return {
        "workload": {
            "tuples_total": tuples_total,
            "tuples_flushed": flushed,
            "flushed_fraction": round(flushed_fraction, 4),
            "seed": seed,
            **MERGE_SHAPE,
        },
        "repeats": repeats,
        **_path_walls(walls),
        "speedup_merge": round(speedup, 4),
        "triple": {
            "count": triples["scalar"][0],
            "final_clock": triples["scalar"][1],
            "io": triples["scalar"][2],
        },
        "triples_match": triples_match,
        "gates": {
            "speedup_floor": MERGE_SPEEDUP_GATE,
            "flushed_floor": MERGE_FLUSHED_FLOOR,
        },
        "gate_passed": gate_passed,
    }


def _check_operators(memory: int) -> dict[str, Callable]:
    return {
        "hmj": lambda: HashMergeJoin(HMJConfig(memory_capacity=memory)),
        "xjoin": lambda: XJoin(memory_capacity=memory),
        "pmj": lambda: ProgressiveMergeJoin(memory_capacity=memory),
    }


def figure_check(figure_id: str) -> dict:
    """Run one figure scenario's cells through both delivery paths.

    Returns the per-cell triples and whether every path agreed; the
    CLI fails the process on any mismatch.  Currently supports
    ``fig11`` (the three-way constant-rate comparison — the cell CI's
    bench-smoke job already exercises).
    """
    if figure_id != "fig11":
        raise ValueError(f"unsupported figure check {figure_id!r} (only fig11)")
    scale = CHECK_SCALE
    rel_a, rel_b = make_relation_pair(scale.spec)
    memory = scale.spec.memory_capacity()
    cells: dict[str, dict] = {}
    all_match = True
    for cell_id, make_operator in _check_operators(memory).items():
        triples: dict[str, Triple] = {}
        for label, (batched, columnar) in PATHS.items():
            result = execute(
                rel_a,
                rel_b,
                make_operator(),
                ConstantRate(RATE),
                ConstantRate(RATE),
                batch_delivery=batched,
                columnar_delivery=columnar,
            )
            triples[label] = _triple(result)
        match = len(set(triples.values())) == 1
        all_match = all_match and match
        cells[cell_id] = {
            **{label: list(triple) for label, triple in triples.items()},
            "match": match,
        }
    return {
        "figure": figure_id,
        "scale": {"n_per_source": scale.n_per_source, "seed": scale.seed},
        "cells": cells,
        "all_match": all_match,
    }


def kernel_point(tuples_total: int, repeats: int, seed: int) -> dict:
    """Benchmark both delivery paths at one scale point.

    Wall seconds are the best of ``repeats`` (the usual
    micro-benchmark noise floor), and the identical-triple invariant
    is part of the payload so any divergence is visible in the tracked
    artifact, not just in tests.
    """
    n_per_source = tuples_total // 2
    scale = BenchScale(n_per_source=n_per_source, seed=seed)
    rel_a, rel_b = make_relation_pair(scale.spec)
    # Memory holds both relations: nothing flushes, so the run measures
    # the delivery path itself rather than (path-identical) flush work.
    memory = 2 * n_per_source
    walls, triples = _time_paths(rel_a, rel_b, memory, list(PATHS), repeats)
    best = {label: min(times) for label, times in walls.items()}
    return {
        "workload": {
            "arrival": "constant-rate",
            "rate": RATE,
            "tuples_total": 2 * n_per_source,
            "n_per_source": n_per_source,
            "memory_capacity": memory,
            "seed": seed,
        },
        "repeats": repeats,
        **_path_walls(walls),
        # per-tuple -> columnar: the end-to-end amortisation.
        "speedup_columnar_total": round(best["per_tuple"] / best["columnar"], 4),
        "triple": {
            "count": triples["per_tuple"][0],
            "final_clock": triples["per_tuple"][1],
            "io": triples["per_tuple"][2],
        },
        "triples_match": len(set(triples.values())) == 1,
    }


def paper_point(tuples_total: int, repeats: int, seed: int) -> dict:
    """Benchmark per-tuple vs columnar delivery with memory at 10% of input.

    The Section 6 regime: the hashing phase fills memory, flushes a
    group, and probes a full table again, so the per-segment probe of
    stored tuples dominates.  The columnar path must reproduce the
    per-tuple oracle's triple and its best wall must be at most
    :data:`PAPER_RATIO_GATE` times the oracle's.  Each path runs at
    least :data:`GATED_MIN_REPEATS` times.
    """
    repeats = max(repeats, GATED_MIN_REPEATS)
    n_per_source = tuples_total // 2
    scale = BenchScale(n_per_source=n_per_source, seed=seed)
    rel_a, rel_b = make_relation_pair(scale.spec)
    memory = scale.spec.memory_capacity(PAPER_MEMORY_FRACTION)
    walls, triples = _time_paths(rel_a, rel_b, memory, list(PATHS), repeats)
    best = {label: min(times) for label, times in walls.items()}
    ratio = best["columnar"] / best["per_tuple"]
    triples_match = len(set(triples.values())) == 1
    return {
        "workload": {
            "arrival": "constant-rate",
            "rate": RATE,
            "tuples_total": 2 * n_per_source,
            "n_per_source": n_per_source,
            "memory_fraction": PAPER_MEMORY_FRACTION,
            "memory_capacity": memory,
            "seed": seed,
        },
        "repeats": repeats,
        **_path_walls(walls),
        "columnar_over_per_tuple": round(ratio, 4),
        "triple": {
            "count": triples["per_tuple"][0],
            "final_clock": triples["per_tuple"][1],
            "io": triples["per_tuple"][2],
        },
        "triples_match": triples_match,
        "gates": {"ratio_ceiling": PAPER_RATIO_GATE},
        "gate_passed": triples_match and ratio <= PAPER_RATIO_GATE,
    }


def kernel_manifest(
    tuples_points: list[int],
    repeats: int,
    seed: int,
    merge_tuples: int = DEFAULT_MERGE_TUPLES,
) -> dict:
    """Benchmark every scale point; the ``BENCH_kernel.json`` payload.

    Schema v1, mirroring ``BENCH_figures.json``: one entry per scale
    point under ``points``, each holding both paths' walls and the
    speedup.  ``merge`` holds the memory-constrained merge-heavy point
    (scalar vs columnar drain) unless disabled with
    ``merge_tuples=0``; ``paper`` always holds the 10%-memory point
    (per-tuple vs columnar) at :data:`PAPER_TUPLES`.
    """
    points = [kernel_point(t, repeats, seed) for t in tuples_points]
    manifest = {
        "schema": 1,
        "benchmark": "kernel-batch-delivery",
        "source_digest": source_digest(),
        "paths": list(PATHS),
        "points": points,
        "triples_match": all(p["triples_match"] for p in points),
    }
    if merge_tuples:
        manifest["merge"] = merge_point(merge_tuples, repeats, seed)
    manifest["paper"] = paper_point(PAPER_TUPLES, repeats, seed)
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark per-tuple vs columnar kernel delivery."
    )
    parser.add_argument(
        "--tuples",
        default=",".join(str(t) for t in DEFAULT_TUPLES),
        help=(
            "comma-separated total tuple counts across both sources "
            "(default '100000,1000000': the historical point plus the "
            "paper-nominal 1M scale)"
        ),
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats, best kept"
    )
    parser.add_argument("--seed", type=int, default=7, help="workload seed")
    parser.add_argument(
        "--merge-tuples",
        type=int,
        default=DEFAULT_MERGE_TUPLES,
        help=(
            "total tuples in the memory-constrained merge-heavy point "
            "(scalar vs columnar drain; 0 disables the point and its gate)"
        ),
    )
    parser.add_argument(
        "--out", default="BENCH_kernel.json", help="manifest output path"
    )
    parser.add_argument(
        "--figure-check",
        metavar="FIGURE",
        default=None,
        help="also run this figure's cells through all paths (fig11)",
    )
    args = parser.parse_args(argv)
    try:
        tuples_points = [int(t) for t in str(args.tuples).split(",") if t.strip()]
    except ValueError:
        parser.error(f"--tuples must be comma-separated integers, got {args.tuples!r}")
    if not tuples_points:
        parser.error("--tuples selected no scale points")

    manifest = kernel_manifest(
        tuples_points, max(1, args.repeats), args.seed, args.merge_tuples
    )
    failed = not manifest["triples_match"] or not manifest["paper"]["gate_passed"]
    if "merge" in manifest:
        failed = failed or not manifest["merge"]["gate_passed"]
    if args.figure_check:
        check = figure_check(args.figure_check)
        manifest["figure_check"] = check
        failed = failed or not check["all_match"]
    path = write_bench_manifest(args.out, manifest)
    for point in manifest["points"]:
        total = point["workload"]["tuples_total"]
        print(
            f"kernel bench [{total} tuples]: "
            f"per-tuple {point['per_tuple']['wall_seconds']:.3f}s, "
            f"columnar {point['columnar']['wall_seconds']:.3f}s | "
            f"columnar {point['speedup_columnar_total']:.2f}x over per-tuple "
            f"(triples {'match' if point['triples_match'] else 'MISMATCH'})"
        )
    if "merge" in manifest:
        merge = manifest["merge"]
        print(
            f"merge bench [{merge['workload']['tuples_total']} tuples, "
            f"{merge['workload']['flushed_fraction']:.0%} flushed]: "
            f"scalar {merge['scalar']['wall_seconds']:.3f}s, "
            f"columnar {merge['columnar']['wall_seconds']:.3f}s | "
            f"columnar {merge['speedup_merge']:.2f}x over scalar "
            f"(gate >= {merge['gates']['speedup_floor']:.1f}x: "
            f"{'pass' if merge['gate_passed'] else 'FAIL'})"
        )
    paper = manifest["paper"]
    print(
        f"10%-memory bench [{paper['workload']['tuples_total']} tuples]: "
        f"per-tuple {paper['per_tuple']['wall_seconds']:.3f}s, "
        f"columnar {paper['columnar']['wall_seconds']:.3f}s | "
        f"columnar/per-tuple {paper['columnar_over_per_tuple']:.2f} "
        f"(gate <= {paper['gates']['ratio_ceiling']:.2f}: "
        f"{'pass' if paper['gate_passed'] else 'FAIL'})"
    )
    if args.figure_check:
        verdict = "match" if manifest["figure_check"]["all_match"] else "MISMATCH"
        print(f"figure check {args.figure_check}: cells {verdict}")
    print(f"wrote {path}")
    if failed:
        print("ERROR: kernel benchmark gate failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
