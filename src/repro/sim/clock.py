"""Virtual time source shared by the engine, operators, and the disk.

The paper reports "time to produce the k-th result" measured on a 2004
Pentium IV.  We replace wall-clock time with a single monotonically
non-decreasing virtual clock that every component charges work to.  The
result is deterministic and machine-independent: two runs with the same
seeds produce byte-identical metric series.
"""

from __future__ import annotations

from repro.errors import SimulationError


class VirtualClock:
    """A monotone virtual clock measured in abstract seconds.

    Components *charge* durations (``advance``) for work they perform and
    the engine *synchronises* to absolute instants (``advance_to``) when
    waiting for tuple arrivals.  Moving backwards is an invariant
    violation and raises :class:`~repro.errors.SimulationError`.
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise SimulationError(f"clock cannot start at negative time {start!r}")
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance(self, delta: float) -> float:
        """Charge ``delta`` seconds of work and return the new time."""
        if delta < 0:
            raise SimulationError(f"cannot advance clock by negative delta {delta!r}")
        self._now += delta
        return self._now

    def advance_to(self, instant: float) -> float:
        """Move the clock forward to ``instant`` if it is in the future.

        Synchronising to an instant already in the past is a no-op: the
        engine uses this when a tuple *arrived* while the operator was
        still busy processing earlier work, in which case processing
        time, not arrival time, dominates.
        """
        if instant > self._now:
            self._now = instant
        return self._now

    def resync(self, instant: float) -> None:
        """Write back a batch loop's locally tracked time.

        Batch delivery loops mirror the clock in a local float (one
        attribute store per charge is measurable at 100k tuples) and
        resync before any call that reads the shared clock and at batch
        end.  The caller guarantees ``instant >= now`` — the local copy
        started from ``now`` and only ever accumulated non-negative
        charges — so this skips :meth:`advance`'s validation.
        """
        self._now = instant

    def __repr__(self) -> str:
        return f"VirtualClock(now={self._now:.6f})"
