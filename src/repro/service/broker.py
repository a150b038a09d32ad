"""Aggregate memory arbitration across concurrent queries.

Where :class:`repro.sim.broker.ResourceBroker` splits one grant across
the operators *of one run*, the :class:`SharedBroker` splits one
aggregate budget across *tenants*: each running
:class:`~repro.sim.query.Query` receives a per-query total, which the
query further divides over its own resizable operators
(:meth:`~repro.sim.query.Query.apply_grant`).

The split itself is :func:`~repro.sim.broker.bounded_shares` — floors
at each query's minimum viable grant, caps at its configured request —
under a pluggable :class:`ArbitrationPolicy` that turns the running
tenants into weights:

* :class:`FairShare` — everyone weighs the same;
* :class:`WeightedShare` — the query's admission-time ``weight``
  (priority classes);
* :class:`DeadlineAware` — weight scaled by deadline urgency, so a
  tenant close to its deadline pulls memory away from slack ones: the
  revocation generalisation of the paper's fig. 13(d) mid-run 90%
  memory cut, aimed instead of indiscriminate.

Because shares are capped at each query's request, an aggregate budget
covering every request degenerates to "grant everyone exactly what
they asked for" — re-grants become no-ops and every tenant behaves
byte-identically to its solo run, whatever the policy.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Sequence

from repro.errors import ConfigurationError
from repro.sim.broker import bounded_shares

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.query import Query


class ArbitrationPolicy(abc.ABC):
    """Maps the running tenants to arbitration weights."""

    #: Spec/report name of the policy.
    name = "policy"

    @abc.abstractmethod
    def weights(self, queries: Sequence["Query"]) -> list[float]:
        """One finite positive weight per query, in the given order."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class FairShare(ArbitrationPolicy):
    """Every running query weighs the same."""

    name = "fair-share"

    def weights(self, queries: Sequence["Query"]) -> list[float]:
        return [1.0] * len(queries)


class WeightedShare(ArbitrationPolicy):
    """Queries weigh their admission-time ``weight`` (priority)."""

    name = "weighted"

    def weights(self, queries: Sequence["Query"]) -> list[float]:
        return [query.weight for query in queries]


class DeadlineAware(ArbitrationPolicy):
    """Priority scaled by deadline urgency.

    A query with a deadline weighs ``weight * (1 + horizon / slack)``
    where ``slack`` is the virtual time left until its deadline (on its
    own clock): as slack shrinks the weight grows without bound, so an
    urgent tenant progressively revokes memory from slack ones — the
    targeted form of fig. 13(d)'s mid-run revocation.  Queries without
    a deadline keep their plain weight.

    Args:
        horizon: Slack (virtual seconds) at which urgency doubles the
            base weight.
        min_slack: Slack clamp keeping weights finite at/past the
            deadline.
    """

    name = "deadline"

    def __init__(self, horizon: float = 1.0, min_slack: float = 1e-3) -> None:
        if horizon <= 0:
            raise ConfigurationError(f"horizon must be > 0, got {horizon!r}")
        if min_slack <= 0:
            raise ConfigurationError(f"min_slack must be > 0, got {min_slack!r}")
        self.horizon = float(horizon)
        self.min_slack = float(min_slack)

    def weights(self, queries: Sequence["Query"]) -> list[float]:
        out = []
        for query in queries:
            weight = query.weight
            if query.deadline is not None:
                slack = max(query.deadline - query.clock.now, self.min_slack)
                weight *= 1.0 + self.horizon / slack
            out.append(weight)
        return out

    def __repr__(self) -> str:
        return f"DeadlineAware(horizon={self.horizon:g})"


class SharedBroker:
    """One aggregate memory budget, split across running tenants.

    Args:
        total: Aggregate budget in tuples, shared by every running
            query's resizable operators.
        policy: How to weigh tenants (default :class:`FairShare`).

    The session calls :meth:`rebalance` whenever the tenant population
    or the aggregate total changes; :meth:`can_admit` gates admission
    on every running tenant keeping a viable floor.
    """

    def __init__(self, total: int, policy: ArbitrationPolicy | None = None) -> None:
        if total < 1:
            raise ConfigurationError(
                f"aggregate memory must be >= 1 tuple, got {total!r}"
            )
        self._total = int(total)
        self.policy = policy or FairShare()

    @property
    def total(self) -> int:
        """The current aggregate budget, in tuples."""
        return self._total

    def set_total(self, total: int) -> None:
        """Change the aggregate budget (caller rebalances)."""
        if total < 1:
            raise ConfigurationError(
                f"aggregate memory must be >= 1 tuple, got {total!r}"
            )
        self._total = int(total)

    def can_admit(
        self, running: Sequence["Query"], candidate: "Query"
    ) -> bool:
        """Whether admitting ``candidate`` keeps every floor covered."""
        if not candidate.arbitrated:
            return True
        floors = sum(q.memory_floor() for q in running if q.arbitrated)
        return floors + candidate.memory_floor() <= self._total

    def rebalance(self, running: Sequence["Query"]) -> dict[str, int]:
        """Re-split the aggregate across the running tenants.

        Returns the granted ``{query_id: total}`` map for the tenants
        that participate in arbitration (queries whose operators have
        no memory budget are unaffected).  A tenant whose grant equals
        the total it last applied is not re-granted, and applying a
        grant skips no-op resizes, so a budget covering every request
        changes nothing and a rebalance works only on the tenants whose
        grant moved.  If the aggregate has been revoked below the sum of
        floors (admission control normally prevents this, but a shrink
        schedule can race in-flight tenants), grants clamp at the
        floors rather than evicting anyone.
        """
        tenants = [q for q in running if q.arbitrated]
        if not tenants:
            return {}
        floors = sum(q.memory_floor() for q in tenants)
        total = max(self._total, floors)
        per_query_floors = [q.memory_floor() for q in tenants]
        # bounded_shares takes one scalar floor; queries differ (a plan
        # query floors at 2 per node), so shift each request down to a
        # common zero floor and add the per-query floor back afterwards.
        shares = bounded_shares(
            total - floors,
            [q.memory_request() - q.memory_floor() for q in tenants],
            self.policy.weights(tenants),
            floor=0,
        )
        grants: dict[str, int] = {}
        for query, floor, share in zip(tenants, per_query_floors, shares):
            grant = floor + share
            grants[query.query_id] = grant
            if grant != query.granted_total:
                query.apply_grant(grant)
        return grants

    def __repr__(self) -> str:
        return f"SharedBroker(total={self._total}, policy={self.policy!r})"
