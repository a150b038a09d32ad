"""Smoke tests for the kernel bench's 10%-memory point.

Small scale throughout — these pin the point's schema, the
per-tuple-vs-columnar triple equality, and the gate accounting, not the
wall ratio itself (the full-size run and its ≤0.6 ratio gate live in
``BENCH_kernel.json`` / CI, where timing is meaningful).
"""

from __future__ import annotations

from repro.bench.kernel import (
    GATED_MIN_REPEATS,
    PAPER_MEMORY_FRACTION,
    PAPER_RATIO_GATE,
    PATHS,
    paper_point,
)


def test_paper_point_schema_and_gate_accounting():
    point = paper_point(4_000, repeats=1, seed=7)
    workload = point["workload"]
    assert workload["memory_fraction"] == PAPER_MEMORY_FRACTION
    assert workload["memory_capacity"] == 400
    assert point["triples_match"]
    triple = point["triple"]
    # Memory holds a tenth of the input, so the run flushes: page I/O
    # is part of the matched triple.
    assert triple["count"] > 0 and triple["io"] > 0
    assert set(PATHS) == {"per_tuple", "columnar"}
    assert point["repeats"] == GATED_MIN_REPEATS
    for label in PATHS:
        assert point[label]["wall_seconds"] > 0
        # Best-of-GATED_MIN_REPEATS even when fewer repeats are asked for.
        assert len(point[label]["walls"]) == GATED_MIN_REPEATS
    assert point["gates"] == {"ratio_ceiling": PAPER_RATIO_GATE}
    ratio = point["columnar_over_per_tuple"]
    assert point["gate_passed"] == (ratio <= PAPER_RATIO_GATE)

