"""What a rebalance costs: work only for the tenants whose grant moved.

``Query.apply_grant`` splits a tenant's total over its operators with
``bounded_shares``; the split depends only on the total, so it is
computed once per total.  ``SharedBroker.rebalance`` does not re-grant
a tenant the total it already applied.  Submitting n tenants at once
then costs O(n) splits, not one per running tenant per admission.
"""

from __future__ import annotations

import pytest

import repro.service.broker as broker_module
import repro.sim.query as query_module
from repro.core.hmj import HashMergeJoin
from repro.service.session import QuerySession
from repro.service.spec import QuerySpec


@pytest.fixture
def split_calls(monkeypatch):
    """Count every ``bounded_shares`` call the broker and queries make."""
    calls = [0]
    original = query_module.bounded_shares

    def counting(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(query_module, "bounded_shares", counting)
    monkeypatch.setattr(broker_module, "bounded_shares", counting)
    return calls


@pytest.fixture
def resizes(monkeypatch):
    """Count every HMJ ``resize_memory`` call."""
    calls = [0]
    original = HashMergeJoin.resize_memory

    def counting(self, new_capacity):
        calls[0] += 1
        return original(self, new_capacity)

    monkeypatch.setattr(HashMergeJoin, "resize_memory", counting)
    return calls


def tenants(n: int):
    return [
        QuerySpec(query_id=f"q{i}", n=60, seed=7 + 101 * i).build()
        for i in range(n)
    ]


@pytest.mark.parametrize("n", [8, 32])
def test_bulk_submission_splits_linearly(n, split_calls, resizes):
    queries = tenants(n)
    session = QuerySession(memory=sum(q.memory_request() for q in queries))
    for query in queries:
        session.submit(query)
    assert len(session.running) == n
    # One broker split per admission plus one per tenant's first grant;
    # the grants never change, so nothing is re-split or resized.
    assert split_calls[0] == 2 * n
    assert resizes[0] == 0


def test_unchanged_regrant_resizes_nothing(split_calls, resizes):
    queries = tenants(4)
    request = sum(q.memory_request() for q in queries)
    session = QuerySession(memory=request)
    for query in queries:
        session.submit(query)
    broker = session.broker
    # A real shrink resizes every tenant once.
    broker.set_total(request // 2)
    grants = broker.rebalance(session.running)
    assert resizes[0] == len(queries)
    assert [q.granted_total for q in queries] == [grants[q.query_id] for q in queries]
    # Re-granting the same totals splits once (the broker) and resizes
    # nothing.
    split_calls[0] = 0
    assert broker.rebalance(session.running) == grants
    assert split_calls[0] == 1
    assert resizes[0] == len(queries)
    # Returning to a total seen before reuses its memoised split.
    broker.set_total(request)
    broker.rebalance(session.running)
    assert split_calls[0] == 2
    assert resizes[0] == 2 * len(queries)
