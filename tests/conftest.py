"""Shared fixtures and helpers for the test suite.

The operator-driving and blocking-oracle helpers live in
:mod:`repro.testing.oracle` (so benchmarks and the conformance CLI can
use them too) and are re-exported here for the test modules that
import them from ``conftest``.

This module also registers the shared hypothesis profiles:

* ``dev`` — few examples, for fast local iteration;
* ``ci`` — the default, what the test job runs;
* ``nightly`` — deep example counts for scheduled runs.

Select one with ``HYPOTHESIS_PROFILE=dev pytest ...``; property tests
must not carry their own ``max_examples``/``deadline`` settings.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.storage.tuples import SOURCE_A, SOURCE_B, Relation
from repro.testing.oracle import (  # noqa: F401  (re-exported test helpers)
    assert_matches_oracle,
    compare_with_oracle,
    drive,
    interleave,
    make_runtime,
    oracle_multiset,
)

# Deadlines are disabled everywhere: virtual-time simulations have
# wildly varying wall-time per example (flush-heavy workloads), and a
# deadline flake would fail an otherwise sound property.
_COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.register_profile("dev", max_examples=10, stateful_step_count=5, **_COMMON)
settings.register_profile("ci", max_examples=40, stateful_step_count=10, **_COMMON)
settings.register_profile(
    "nightly", max_examples=400, stateful_step_count=40, **_COMMON
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "ci"))


def keys_relation(keys: list[int], source: str = SOURCE_A) -> Relation:
    """Shorthand for building a relation from explicit keys."""
    return Relation.from_keys(keys, source=source)


@pytest.fixture
def runtime():
    """A fresh bound-able runtime per test."""
    return make_runtime()


@pytest.fixture
def small_relations() -> tuple[Relation, Relation]:
    """A pair of small overlapping relations with duplicate keys."""
    rel_a = Relation.from_keys([1, 2, 3, 3, 5, 8, 13, 2, 99], source=SOURCE_A)
    rel_b = Relation.from_keys([2, 3, 5, 7, 11, 13, 2, 2, 42], source=SOURCE_B)
    return rel_a, rel_b


#: Well-typed query specs no query can run with.  Unless ``from_dict``
#: refuses them, each raises a non-``ReproError`` (``ValueError``,
#: ``OverflowError``, ``MemoryError``, ``RecursionError``) while the
#: query is built or run, or runs silently on a non-finite number.
OUT_OF_RANGE_SPECS = [
    {"seed": -1},
    {"source_seed_a": -1},
    {"source_seed_b": -1},
    {"disorder_seed": -1, "disorder_slack": 0.1},
    {"disorder_slack": float("nan")},
    {"disorder_slack": float("inf")},
    {"rate": float("nan")},
    {"rate": float("inf")},
    {"rate": 10**400},
    {"blocking_threshold": float("nan")},
    {"deadline": float("inf")},
    {"zipf_theta": float("nan")},
    {"n": 10**9},
    {"n_buckets": 10**8},
    {"memory": 2**63},
    {"key_range": 2**70},
    {"plan_shape": "star", "n_way": 10**6},
    {"plan_shape": "chain", "n_way": 1000, "n": 20, "memory": 40},
    {"plan_shape": "bushy", "n_way": 3, "n": 10**6},
]
