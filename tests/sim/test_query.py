"""Tests for the first-class query object and its lifecycle.

A :class:`~repro.sim.query.Query` wraps an engine driver and owns the
scheduler-participant protocol: admission states, cancellation folded
into ``stop_when``, observable dropped timers, and memory-grant
arithmetic capped at the configured request.  The solo entry points run
through the same object, so these tests double as regression cover for
``run_join``'s rerouting.
"""

from __future__ import annotations

import pytest

from repro.core.config import HMJConfig
from repro.core.hmj import HashMergeJoin
from repro.errors import ConfigurationError, ProtocolError
from repro.joins.symmetric_hash import SymmetricHashJoin
from repro.net.arrival import ConstantRate
from repro.net.source import NetworkSource
from repro.sim.broker import MIN_OPERATOR_SHARE, ResourceBroker
from repro.sim.engine import JoinSimulation, run_join
from repro.sim.query import Query, QueryState
from repro.workloads.generator import WorkloadSpec, make_relation_pair

SPEC = WorkloadSpec(n_a=120, n_b=120, key_range=180, seed=13)


def make_sim(memory: int = 60, journal: bool = False, **kwargs) -> JoinSimulation:
    rel_a, rel_b = make_relation_pair(SPEC)
    return JoinSimulation(
        NetworkSource(rel_a, ConstantRate(120.0), seed=1),
        NetworkSource(rel_b, ConstantRate(120.0), seed=2),
        HashMergeJoin(HMJConfig(memory_capacity=memory, n_buckets=8)),
        journal=journal,
        **kwargs,
    )


# -- construction and validation ---------------------------------------------


def test_query_rejects_bad_weight_and_deadline():
    with pytest.raises(ConfigurationError):
        Query(make_sim(), weight=0.0)
    with pytest.raises(ConfigurationError):
        Query(make_sim(), weight=float("inf"))
    with pytest.raises(ConfigurationError):
        Query(make_sim(), deadline=0.0)


def test_query_run_matches_run_join():
    rel_a, rel_b = make_relation_pair(SPEC)
    reference = run_join(
        NetworkSource(rel_a, ConstantRate(120.0), seed=1),
        NetworkSource(rel_b, ConstantRate(120.0), seed=2),
        HashMergeJoin(HMJConfig(memory_capacity=60, n_buckets=8)),
    )
    query = Query(make_sim())
    result = query.run()
    assert query.state is QueryState.DONE
    assert query.completed
    assert query.triple() == (
        reference.recorder.count,
        reference.clock.now,
        reference.disk.io_count,
    )
    assert result is query.result


# -- lifecycle protocol -------------------------------------------------------


def test_lifecycle_transitions_are_guarded():
    query = Query(make_sim())
    with pytest.raises(ProtocolError):
        query.step()  # not started
    with pytest.raises(ProtocolError):
        query.conclude()
    query.start()
    with pytest.raises(ProtocolError):
        query.mark_queued()  # already running
    with pytest.raises(ProtocolError):
        query.start()


def test_cancel_before_start_concludes_immediately():
    query = Query(make_sim(), query_id="early")
    assert query.cancel("never mind")
    assert query.state is QueryState.CANCELLED
    assert query.completed is False
    assert query.result is not None
    assert not query.cancel()  # already terminal


def test_cancel_mid_run_stops_and_drops_timers_observably():
    # The broker grant at t=999 can never fire once the query is
    # cancelled; the drop must be counted and journaled, and the
    # cancellation itself must appear in the query's journal.
    sim = make_sim(journal=True, broker=ResourceBroker([(999.0, 40)]))
    query = Query(sim, query_id="victim")
    query.scheduler.batching = False  # what a session pins at admission
    query.start()
    for _ in range(10):
        assert query.step()
    assert query.cancel("tenant went away")
    while query.step():
        pass
    query.conclude()
    assert query.state is QueryState.CANCELLED
    assert query.completed is False
    assert query.scheduler.dropped_timers >= 1
    kinds = {e.kind for e in query.journal.entries}
    assert "query-cancelled" in kinds
    assert "dropped-timers" in kinds
    cancelled = query.journal.of_kind("query-cancelled")
    assert cancelled[0].detail["query"] == "victim"
    assert cancelled[0].detail["reason"] == "tenant went away"


def test_unfired_timers_after_natural_end_are_journaled():
    sim = make_sim(journal=True, broker=ResourceBroker([(999.0, 40)]))
    result = Query(sim).run()
    assert result.completed
    assert sim.scheduler.dropped_timers == 1
    assert len(result.journal.of_kind("dropped-timers")) == 1


# -- memory arbitration surface ----------------------------------------------


def test_memory_request_and_floor_reflect_configuration():
    query = Query(make_sim(memory=60))
    assert query.arbitrated
    assert query.memory_request() == 60
    assert query.memory_floor() == MIN_OPERATOR_SHARE


def test_non_resizable_query_is_not_arbitrated():
    rel_a, rel_b = make_relation_pair(SPEC)
    sim = JoinSimulation(
        NetworkSource(rel_a, ConstantRate(120.0), seed=1),
        NetworkSource(rel_b, ConstantRate(120.0), seed=2),
        SymmetricHashJoin(),
    )
    query = Query(sim)
    assert not query.arbitrated
    assert query.memory_request() == 0
    assert query.apply_grant(100) is None


def test_apply_grant_caps_at_request_and_skips_noops():
    query = Query(make_sim(memory=60))
    operator = query.driver.operators()[0][1]
    # Granting more than the request must not inflate the operator.
    assert query.apply_grant(500) is None
    assert operator.memory_capacity() == 60
    # A genuine shrink applies and reports the share.
    applied = query.apply_grant(20)
    assert applied == {"HMJ": 20}
    assert operator.memory_capacity() == 20
    # Re-granting the same total is a no-op again.
    assert query.apply_grant(20) is None
