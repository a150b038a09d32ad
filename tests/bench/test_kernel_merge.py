"""Smoke tests for the kernel bench's merge-heavy point.

Small scale throughout — these pin the point's schema, the cross-path
triple equality, and the flushed-fraction accounting, not the headline
speedup (the full-scale run and its ≥2x gate live in
``BENCH_kernel.json`` / CI, where timing is meaningful).
"""

from __future__ import annotations

from repro.bench.kernel import (
    GATED_MIN_REPEATS,
    MERGE_FLUSHED_FLOOR,
    MERGE_SPEEDUP_GATE,
    merge_point,
    merge_run,
)
from repro.core.merging import MERGE_PATHS


def test_merge_run_paths_agree_on_triple_and_flushed():
    outcomes = {path: merge_run(path, 2_000, seed=7) for path in MERGE_PATHS}
    triples = {triple for triple, _, _ in outcomes.values()}
    assert len(triples) == 1
    (count, clock, io) = triples.pop()
    assert count > 0 and clock > 0 and io > 0
    flushed = {flushed for _, _, flushed in outcomes.values()}
    assert len(flushed) == 1  # same history on both paths


def test_merge_point_schema_and_gate_accounting():
    point = merge_point(2_000, repeats=1, seed=7)
    assert point["triples_match"]
    workload = point["workload"]
    assert workload["tuples_flushed"] <= workload["tuples_total"]
    # The pre-loaded history is the spill-everything regime: far above
    # the >= 50% floor the gate asserts.
    assert workload["flushed_fraction"] >= MERGE_FLUSHED_FLOOR
    assert point["gates"] == {
        "speedup_floor": MERGE_SPEEDUP_GATE,
        "flushed_floor": MERGE_FLUSHED_FLOOR,
    }
    assert point["repeats"] == GATED_MIN_REPEATS
    for path in MERGE_PATHS:
        assert point[path]["wall_seconds"] > 0
        # Best-of-GATED_MIN_REPEATS even when fewer repeats are asked for.
        assert len(point[path]["walls"]) == GATED_MIN_REPEATS
    # gate_passed folds in the (timing-dependent) speedup floor; at this
    # scale only its deterministic inputs are assertable.
    assert point["speedup_merge"] > 0
    assert isinstance(point["gate_passed"], bool)
