"""Flushing policies (Section 4 of the paper).

When the hashing phase runs out of memory it asks its policy which
bucket-group pair(s) to evict.  The paper compares four policies:

* **Flush All** — evict every group (PMJ's behaviour; Figure 7's first
  discussion point);
* **Flush Smallest** — evict the pair with the smallest total, keeping
  memory as full as possible (biased towards the hashing phase);
* **Flush Largest** — evict the pair with the largest total, building
  big disk blocks (biased towards the merging phase);
* **Adaptive Flushing** (Figure 8) — the paper's contribution: keep
  memory *balanced* between the sources (threshold ``b``), avoid
  flushing small buckets (threshold ``a``), and among the remaining
  candidates flush the largest pair.

Section 6.1.2 notes Flush Largest is the special case ``a=0, b=M`` of
the Adaptive policy; a unit test pins that equivalence.

Beyond the paper, :class:`FlushColdestPolicy` is the skew-aware victim
rule of the PanJoin-style adaptivity layer: it reads the summary
table's decayed per-group arrival heat and evicts *cold* partitions so
hot-key partitions stay memory-resident and keep producing early
results.  When the heat profile is flat (an unskewed stream) it
delegates to a conventional fallback policy, so θ=0 workloads pay no
regression.
"""

from __future__ import annotations

import abc

from repro.errors import ConfigurationError, StorageError
from repro.core.summary import BucketSummaryTable


class FlushingPolicy(abc.ABC):
    """Chooses victim bucket-group pairs when memory is exhausted."""

    #: Human-readable policy name, overridden by subclasses.
    name = "flushing-policy"

    #: Whether the policy reads per-group arrival heat.  Operators
    #: enable heat tracking on their summary table when this is set
    #: (see :meth:`BucketSummaryTable.enable_heat`).
    requires_heat = False

    def prepare(self, memory_capacity: int, n_groups: int) -> None:
        """Resolve capacity-dependent parameters before the join starts.

        Called once by the operator at bind time.  The default is a
        no-op; the Adaptive policy uses it to resolve its ``auto``
        thresholds (Section 6.1.2: ``a = M/g``, ``b = M/5``).
        """

    @abc.abstractmethod
    def select_victims(self, summary: BucketSummaryTable) -> list[int]:
        """Return the group indices to flush, given the summary table.

        At least one tuple must be in memory; implementations must
        return at least one non-empty group.
        """

    @staticmethod
    def _require_nonempty(summary: BucketSummaryTable) -> list[int]:
        candidates = summary.nonempty_groups()
        if not candidates:
            raise StorageError("flush requested but every bucket group is empty")
        return candidates

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class FlushAllPolicy(FlushingPolicy):
    """Evict every non-empty group — the whole memory, as PMJ does."""

    name = "flush-all"

    def select_victims(self, summary: BucketSummaryTable) -> list[int]:
        return self._require_nonempty(summary)


class FlushSmallestPolicy(FlushingPolicy):
    """Evict the pair with the smallest total size (Figure 7: pair 4)."""

    name = "flush-smallest"

    def select_victims(self, summary: BucketSummaryTable) -> list[int]:
        candidates = self._require_nonempty(summary)
        return [min(candidates, key=lambda g: (summary.pair_total(g), g))]


class FlushLargestPolicy(FlushingPolicy):
    """Evict the pair with the largest total size (Figure 7: pair 5)."""

    name = "flush-largest"

    def select_victims(self, summary: BucketSummaryTable) -> list[int]:
        self._require_nonempty(summary)
        # The summary maintains the (max, argmax) pair incrementally
        # with the same lowest-index tie-break as _argmax_total, so no
        # candidate scan is needed: the global argmax is non-empty.
        return [summary.argmax_pair_total()]


class AdaptiveFlushingPolicy(FlushingPolicy):
    """The Adaptive Flushing policy — Figure 8's pseudo code, verbatim.

    Parameters ``a`` (smallest acceptable bucket size) and ``b``
    (balancing threshold, in tuples) may be given explicitly or left as
    ``None`` to resolve at prepare time to the paper's best-performing
    defaults: ``a = M / g`` (the average group size) and ``b = M / 5``.
    """

    name = "adaptive"

    def __init__(self, a: float | None = None, b: float | None = None) -> None:
        if a is not None and a < 0:
            raise ConfigurationError(f"a must be >= 0, got {a!r}")
        if b is not None and b <= 0:
            raise ConfigurationError(f"b must be > 0, got {b!r}")
        self._a_config = a
        self._b_config = b
        self._a = a
        self._b = b

    @property
    def a(self) -> float:
        """Resolved smallest-acceptable-bucket threshold."""
        if self._a is None:
            raise ConfigurationError("policy not prepared; 'a' is still auto")
        return self._a

    @property
    def b(self) -> float:
        """Resolved balancing threshold (tuples)."""
        if self._b is None:
            raise ConfigurationError("policy not prepared; 'b' is still auto")
        return self._b

    def prepare(self, memory_capacity: int, n_groups: int) -> None:
        if memory_capacity < 1:
            raise ConfigurationError(
                f"memory_capacity must be >= 1, got {memory_capacity}"
            )
        if n_groups < 1:
            raise ConfigurationError(f"n_groups must be >= 1, got {n_groups}")
        if self._a_config is None:
            self._a = memory_capacity / n_groups
        if self._b_config is None:
            self._b = memory_capacity / 5

    def select_victims(self, summary: BucketSummaryTable) -> list[int]:
        if self._a is None or self._b is None:
            raise ConfigurationError(
                "AdaptiveFlushingPolicy.prepare() must run before selection"
            )
        # One read of the summary: (g, |A_g|, |B_g|) rows of the
        # non-empty groups, filtered step by step below.
        candidates = [row for row in summary.rows() if row[1] + row[2] > 0]
        if not candidates:
            raise StorageError("flush requested but every bucket group is empty")
        a, b = self._a, self._b
        total_a, total_b = summary.total_a, summary.total_b

        if abs(total_a - total_b) < b:
            # Step 1 of Figure 8 — memory is balanced.
            candidates = [
                row for row in candidates if row[1] >= a and row[2] >= a
            ] or candidates
            candidates = [
                row
                for row in candidates
                if abs((total_a - row[1]) - (total_b - row[2])) < b
            ] or candidates
        else:
            # Step 2 — memory is unbalanced: only skew-reducing pairs.
            if total_a >= total_b:
                skew_reducing = [row for row in candidates if row[1] >= row[2]]
            else:
                skew_reducing = [row for row in candidates if row[2] >= row[1]]
            candidates = skew_reducing or candidates
            # Steps 3-4 — prefer pairs meeting the size threshold.
            candidates = [
                row for row in candidates if row[1] >= a and row[2] >= a
            ] or candidates
        # Step 5 — largest total among what is left; ties break to the
        # lowest group index.
        return [max(candidates, key=lambda row: (row[1] + row[2], -row[0]))[0]]

    def __repr__(self) -> str:
        return f"AdaptiveFlushingPolicy(a={self._a!r}, b={self._b!r})"


class FlushColdestPolicy(FlushingPolicy):
    """Evict a *cold* partition so hot ones stay memory-resident.

    The skew-adaptive victim rule: among the non-empty groups, take the
    coldest ``cold_fraction`` by decayed arrival heat and flush the
    largest pair among them (flushing a one-tuple group would free
    nothing and trigger a flush storm).  After every decision the
    summary's heat is aged by ``decay``, making heat a recency-weighted
    arrival count.

    When the heat profile carries no usable skew signal — fewer than
    two candidates, zero total heat, or a maximum below ``hot_ratio``
    times the mean — the decision is delegated to ``fallback`` (the
    paper's Adaptive policy by default).  An unskewed stream therefore
    behaves exactly like the baseline, which is what makes adaptivity
    free at θ=0.
    """

    name = "flush-coldest"
    requires_heat = True

    def __init__(
        self,
        decay: float = 0.5,
        hot_ratio: float = 2.5,
        cold_fraction: float = 0.25,
        fallback: FlushingPolicy | None = None,
    ) -> None:
        if not 0.0 <= decay <= 1.0:
            raise ConfigurationError(f"decay must be in [0, 1], got {decay!r}")
        if hot_ratio < 1.0:
            raise ConfigurationError(
                f"hot_ratio must be >= 1, got {hot_ratio!r}"
            )
        if not 0.0 < cold_fraction <= 1.0:
            raise ConfigurationError(
                f"cold_fraction must be in (0, 1], got {cold_fraction!r}"
            )
        self._decay = decay
        self._hot_ratio = hot_ratio
        self._cold_fraction = cold_fraction
        self._fallback = fallback if fallback is not None else AdaptiveFlushingPolicy()

    @property
    def fallback(self) -> FlushingPolicy:
        """The policy consulted when the heat profile is flat."""
        return self._fallback

    def prepare(self, memory_capacity: int, n_groups: int) -> None:
        self._fallback.prepare(memory_capacity, n_groups)

    def select_victims(self, summary: BucketSummaryTable) -> list[int]:
        if not summary.heat_enabled:
            raise ConfigurationError(
                "FlushColdestPolicy requires heat tracking; call "
                "summary.enable_heat() before the first flush"
            )
        candidates = self._require_nonempty(summary)
        heats = [summary.heat(g) for g in candidates]
        try:
            mean = sum(heats) / len(candidates)
            if (
                len(candidates) < 2
                or mean <= 0.0
                or max(heats) < self._hot_ratio * mean
            ):
                return self._fallback.select_victims(summary)
            ranked = sorted(zip(heats, candidates))
            keep = max(1, int(len(ranked) * self._cold_fraction))
            pool = [g for _, g in ranked[:keep]]
            return [_argmax_total(pool, summary)]
        finally:
            summary.decay_heat(self._decay)

    def __repr__(self) -> str:
        return (
            f"FlushColdestPolicy(decay={self._decay!r}, "
            f"hot_ratio={self._hot_ratio!r}, "
            f"cold_fraction={self._cold_fraction!r}, "
            f"fallback={self._fallback!r})"
        )


def _argmax_total(groups: list[int], summary: BucketSummaryTable) -> int:
    """Largest pair total; ties break to the lowest group index."""
    return max(groups, key=lambda g: (summary.pair_total(g), -g))
