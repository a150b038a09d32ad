"""Tests for the JSON query-spec vocabulary."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.service.spec import (
    ALGORITHMS,
    QuerySpec,
    make_arrival,
    make_operator,
)
from repro.sim.query import Query


def test_round_trips_through_json():
    spec = QuerySpec(
        query_id="t", algorithm="xjoin", n=200, arrival="poisson",
        stop_after=25, weight=2.0,
    )
    wire = json.dumps(spec.to_dict())
    assert QuerySpec.from_dict(json.loads(wire)) == spec


def test_from_dict_rejects_unknown_fields_and_non_objects():
    with pytest.raises(ConfigurationError, match="unknown query spec fields"):
        QuerySpec.from_dict({"algorithm": "hmj", "turbo": True})
    with pytest.raises(ConfigurationError):
        QuerySpec.from_dict(["not", "a", "dict"])


@pytest.mark.parametrize(
    "bad",
    [
        {"memory": "x"},
        {"seed": "s"},
        {"n": "10"},
        {"rate": "fast"},
        {"weight": "w"},
    ],
)
def test_from_dict_rejects_mistyped_fields(bad):
    """A wrongly typed value is a configuration error, not a crash."""
    (name,) = bad
    with pytest.raises(ConfigurationError, match=f"field {name!r}"):
        QuerySpec.from_dict(bad).build()


def test_build_produces_a_pending_query_for_every_algorithm():
    for name in ALGORITHMS:
        query = QuerySpec(algorithm=name, n=80).build()
        assert isinstance(query, Query)
        assert query.state.value == "pending"


def test_build_rejects_unknown_algorithm():
    with pytest.raises(ConfigurationError, match="unknown algorithm"):
        QuerySpec(algorithm="mergesort").build()


def test_memory_budget_default_is_paper_fraction():
    spec = QuerySpec(n=400)
    assert spec.memory_budget() == spec.workload().memory_capacity(0.10)
    assert QuerySpec(n=400, memory=123).memory_budget() == 123


def test_make_arrival_and_operator_reject_unknown_names():
    with pytest.raises(ConfigurationError):
        make_arrival("teleport", 100.0, 400)
    with pytest.raises(ConfigurationError):
        make_operator("mergesort", 100)
    with pytest.raises(ConfigurationError):
        make_operator("hmj", 100, policy="yolo")


def test_built_query_carries_weight_and_deadline():
    query = QuerySpec(n=80, weight=4.0, deadline=9.0).build()
    assert query.weight == 4.0
    assert query.deadline == 9.0


def test_plan_shape_specs_build_and_run():
    for shape in ("chain", "star", "bushy"):
        spec = QuerySpec(n=60, plan_shape=shape, n_way=3, query_id=shape)
        query = spec.build()
        assert isinstance(query, Query)
        result = query.run()
        assert result.recorder.count >= 0
        assert query.triple()[1] > 0.0


def test_plan_shape_spec_round_trips_through_json():
    spec = QuerySpec(
        n=60,
        plan_shape="bushy",
        n_way=4,
        disorder_slack=0.05,
        disorder_bound=0.1,
        disorder_seed=3,
    )
    again = QuerySpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again == spec
    disorder = again.disorder()
    assert disorder is not None
    assert (disorder.slack, disorder.bound, disorder.seed) == (0.05, 0.1, 3)
    assert QuerySpec(n=60).disorder() is None


def test_plan_shape_validation():
    with pytest.raises(ConfigurationError):
        QuerySpec(plan_shape="ring").build()
    with pytest.raises(ConfigurationError):
        QuerySpec(plan_shape="star", n_way=2).build()
    with pytest.raises(ConfigurationError):
        QuerySpec(plan_shape="chain", n_way=1).build()


def test_disordered_join_spec_matches_density_not_schedule():
    """A disordered two-source spec runs through reorder buffers and
    produces the same result count as its in-order twin (timing shifts
    by the watermark bound; the multiset cannot)."""
    ordered = QuerySpec(n=80, arrival="poisson", query_id="o").build().run()
    disordered = (
        QuerySpec(
            n=80,
            arrival="poisson",
            disorder_slack=0.02,
            query_id="d",
        )
        .build()
        .run()
    )
    assert disordered.recorder.count == ordered.recorder.count
