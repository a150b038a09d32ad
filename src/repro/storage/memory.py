"""Memory budget accounting.

The paper sets "memory size" as a fraction of the input (Section 6 uses
10%), counted in tuples.  Every streaming join owns a
:class:`MemoryPool` and must release (flush) before allocating past the
budget — the pool raises on violations instead of silently growing, so
an operator that forgets to flush fails its tests loudly.
"""

from __future__ import annotations

from repro.errors import ConfigurationError, MemoryBudgetError


class MemoryPool:
    """A fixed budget of in-memory tuple slots.

    Operators ``allocate`` one slot per stored tuple and ``release``
    when flushing to disk or discarding.  ``has_room`` implements the
    "is there enough memory to accommodate t" test of the hashing
    phase's Step 1 (Figure 3 of the paper).
    """

    __slots__ = ("_capacity", "_used", "_peak")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(f"memory capacity must be >= 1, got {capacity}")
        self._capacity = int(capacity)
        self._used = 0
        self._peak = 0

    @property
    def capacity(self) -> int:
        """Total tuple slots available."""
        return self._capacity

    @property
    def used(self) -> int:
        """Tuple slots currently occupied."""
        return self._used

    @property
    def free(self) -> int:
        """Tuple slots currently free."""
        return self._capacity - self._used

    @property
    def peak(self) -> int:
        """High-water mark of occupied slots over the pool's lifetime."""
        return self._peak

    def has_room(self, n: int = 1) -> bool:
        """Whether ``n`` more tuples fit without flushing."""
        if n < 0:
            raise ConfigurationError(f"has_room requires n >= 0, got {n}")
        return self._used + n <= self._capacity

    def allocate(self, n: int = 1) -> None:
        """Occupy ``n`` slots; raises if the budget would be exceeded."""
        if n < 0:
            raise ConfigurationError(f"allocate requires n >= 0, got {n}")
        if self._used + n > self._capacity:
            raise MemoryBudgetError(
                f"allocation of {n} exceeds budget: {self._used}/{self._capacity} used"
            )
        self._used += n
        if self._used > self._peak:
            self._peak = self._used

    def release(self, n: int = 1) -> None:
        """Free ``n`` slots; raises if more is released than was used."""
        if n < 0:
            raise ConfigurationError(f"release requires n >= 0, got {n}")
        if n > self._used:
            raise MemoryBudgetError(
                f"release of {n} exceeds usage: only {self._used} slots in use"
            )
        self._used -= n

    def fill_level(self) -> tuple[int, int]:
        """Snapshot ``(used, capacity)`` for a batch allocation loop.

        Batch delivery loops track occupancy in a local counter —
        ``used >= capacity`` is exactly ``not has_room(1)`` and
        ``used += 1`` is ``allocate(1)`` — and write it back through
        :meth:`set_used` before any call that touches the pool and at
        batch end.
        """
        return self._used, self._capacity

    def set_used(self, used: int) -> None:
        """Write back a batch loop's locally tracked occupancy.

        Validates like :meth:`allocate` (the budget still raises loudly
        on violations) and updates the peak.  Within one batch the
        local counter only ever grows between write-backs, so the
        high-water mark observed here equals the one per-slot
        ``allocate`` calls would have recorded.
        """
        if used < 0 or used > self._capacity:
            raise MemoryBudgetError(
                f"write-back of {used} outside budget 0..{self._capacity}"
            )
        self._used = used
        if used > self._peak:
            self._peak = used

    def resize(self, new_capacity: int) -> None:
        """Change the budget (memory pressure / grants at runtime).

        Shrinking below current usage raises — the owner must release
        (flush) first, which is exactly what the operators'
        ``resize_memory`` methods do before calling this.
        """
        if new_capacity < 1:
            raise ConfigurationError(
                f"memory capacity must be >= 1, got {new_capacity}"
            )
        if new_capacity < self._used:
            raise MemoryBudgetError(
                f"cannot shrink to {new_capacity}: {self._used} slots in use"
            )
        self._capacity = int(new_capacity)

    def utilisation(self) -> float:
        """Occupied fraction of the budget, in [0, 1]."""
        return self._used / self._capacity

    def __repr__(self) -> str:
        return f"MemoryPool(used={self._used}, capacity={self._capacity})"
