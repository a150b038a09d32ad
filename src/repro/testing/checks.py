"""In-engine invariant checkers.

An :class:`InvariantChecks` instance hangs pure observers off a run's
existing observation points — recorder taps and the kernel's ``probe``
hook — and checks, while the simulation executes:

* **no duplicate results** — every emitted pair identity is new;
* **monotone result clock** — result timestamps never decrease (this
  re-adds, for every path, the check the recorder's fused
  ``batch_appender`` skips);
* **monotone result I/O** — the cumulative page-I/O column never
  decreases;
* **causal timestamps** — no result is emitted before both of its
  constituent tuples arrived (at every join whose two inputs are
  untransformed plan leaves; joins above them see manufactured
  intermediate tuples whose arrivals are results);
* **memory within grant** — polled after every kernel step, no
  operator's pool exceeds its current capacity;
* **monotone kernel clock** — the virtual clock never moves backwards
  across kernel steps (catches a bad fused-loop ``resync``);
* **flushed state drains** — after a completed run, every operator is
  finished, reports no background work, and has no spilled-but-
  unprocessed pages (:meth:`~repro.joins.base.StreamingJoinOperator.
  spilled_unmerged`).

Checkers never advance the clock, touch the disk, or mutate operator
state, so a checked run produces the identical ``(count, clock, io)``
triple as an unchecked one — the determinism pins stay byte-identical
whether or not ``checks=`` is passed.

Use via the drivers::

    checks = InvariantChecks(mode="collect")
    result = run_join(src_a, src_b, operator, checks=checks)
    assert checks.ok, checks.report()

or ``checks=True`` for fail-fast raising mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.errors import ConfigurationError, ConformanceViolationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.joins.base import StreamingJoinOperator
    from repro.metrics.recorder import MetricsRecorder
    from repro.net.source import DisorderedSource, NetworkSource, SourceCursor
    from repro.sim.clock import VirtualClock
    from repro.sim.scheduler import EventScheduler


@dataclass(frozen=True, slots=True)
class Violation:
    """One observed invariant violation.

    Attributes:
        check: Which invariant fired (e.g. ``"duplicate-result"``).
        actor: The operator or node the violation belongs to.
        time: Virtual time of the observation.
        message: Human-readable description.
    """

    check: str
    actor: str
    time: float
    message: str

    def render(self) -> str:
        return f"[{self.time:.6f}] {self.actor}: {self.check} — {self.message}"


def arrival_map(
    *sources: "NetworkSource | SourceCursor | DisorderedSource",
    sides: Sequence[str] | None = None,
) -> dict[tuple[str, int], float]:
    """Map every source tuple's identity to its arrival instant.

    Sources materialise their schedules up front, so the map is exact
    and free of simulation side effects.  ``sides`` gives, per source,
    the side its tuples play at their join: a plan relabels each leaf
    tuple to that side, so the identity is ``(side, tid)``.  Without
    it a tuple keeps its own label.
    """
    mapping: dict[tuple[str, int], float] = {}
    for i, source in enumerate(sources):
        side = sides[i] if sides is not None else None
        times, _ = source.pending_times()
        for t, at in zip(source.relation, times):
            mapping[(side or t.source, t.tid)] = at
    return mapping


class InvariantChecks:
    """Attachable run-time invariant checkers (see module docstring).

    Args:
        mode: ``"raise"`` fails fast with
            :class:`~repro.errors.ConformanceViolationError` on the
            first violation; ``"collect"`` accumulates every violation
            on :attr:`violations` (the conformance CLI's mode).

    One instance watches one run.  The driver calls the ``watch_*`` /
    ``finalize`` hooks; user code only constructs the instance, passes
    it as ``checks=``, and inspects it afterwards.
    """

    def __init__(self, mode: str = "raise") -> None:
        if mode not in ("raise", "collect"):
            raise ConfigurationError(
                f"mode must be 'raise' or 'collect', got {mode!r}"
            )
        self._mode = mode
        self.violations: list[Violation] = []

    @property
    def ok(self) -> bool:
        """Whether no violation has been observed."""
        return not self.violations

    def report(self) -> str:
        """All collected violations, one per line (or an all-clear)."""
        if not self.violations:
            return "no invariant violations"
        return "\n".join(v.render() for v in self.violations)

    def _fire(self, check: str, actor: str, time: float, message: str) -> None:
        violation = Violation(check=check, actor=actor, time=time, message=message)
        self.violations.append(violation)
        if self._mode == "raise":
            raise ConformanceViolationError(violation.render())

    # -- attachment hooks (called by the driver) -----------------------------

    def watch_recorder(
        self,
        recorder: "MetricsRecorder",
        actor: str,
        arrivals: Mapping[tuple[str, int], float] | None = None,
    ) -> None:
        """Tap one recorder: duplicates, monotone time/io, causality.

        ``arrivals`` (identity → arrival instant, see
        :func:`arrival_map`) enables the causal-timestamp check; leave
        it ``None`` when constituent tuples have no network arrival
        (plan intermediates).
        """
        seen: set[tuple] = set()
        last = [0.0, 0]  # previous event's (time, io)

        def tap(result, event) -> None:
            ident = result.identity()
            if ident in seen:
                self._fire(
                    "duplicate-result", actor, event.time,
                    f"pair {ident} emitted more than once",
                )
            else:
                seen.add(ident)
            if event.time < last[0]:
                self._fire(
                    "result-clock-rewind", actor, event.time,
                    f"result #{event.k} at {event.time} after one at {last[0]}",
                )
            if event.io < last[1]:
                self._fire(
                    "result-io-rewind", actor, event.time,
                    f"result #{event.k} io {event.io} after io {last[1]}",
                )
            last[0] = event.time
            last[1] = event.io
            if arrivals is not None:
                for side in (result.left, result.right):
                    at = arrivals.get(side.identity())
                    if at is not None and event.time < at:
                        self._fire(
                            "result-before-arrival", actor, event.time,
                            f"pair {ident} emitted at {event.time} but "
                            f"{side.identity()} arrives at {at}",
                        )

        recorder.add_tap(tap)

    def watch_kernel(
        self,
        scheduler: "EventScheduler",
        clock: "VirtualClock",
        operators: list[tuple[str, "StreamingJoinOperator"]],
    ) -> None:
        """Probe the kernel after every step: clock and memory grants.

        Chains with any probe already installed, so several observers
        can coexist.
        """
        last_now = [clock.now]
        previous = scheduler.probe

        def probe() -> None:
            now = clock.now
            if now < last_now[0]:
                self._fire(
                    "kernel-clock-rewind", "kernel", now,
                    f"clock at {now} after reaching {last_now[0]}",
                )
            last_now[0] = now
            for actor, operator in operators:
                usage = operator.memory_usage()
                if usage is not None and usage[0] > usage[1]:
                    self._fire(
                        "memory-over-grant", actor, now,
                        f"pool holds {usage[0]} tuples against a grant "
                        f"of {usage[1]}",
                    )
            if previous is not None:
                previous()

        scheduler.probe = probe

    def finalize(
        self,
        operators: list[tuple[str, "StreamingJoinOperator"]],
        clock: "VirtualClock",
        completed: bool,
    ) -> None:
        """End-of-run checks: all deferred and flushed work drained.

        Only meaningful for completed runs — an early-stopped run
        legitimately leaves work behind.
        """
        if not completed:
            return
        now = clock.now
        for actor, operator in operators:
            if not operator.finished:
                self._fire(
                    "not-finished", actor, now,
                    "run completed but finish() never concluded",
                )
                continue
            if operator.has_background_work():
                self._fire(
                    "pending-background-work", actor, now,
                    "background work remains after finish()",
                )
            if operator.spilled_unmerged():
                self._fire(
                    "unmerged-spill", actor, now,
                    "flushed pages were never merged/processed",
                )


def merged_violations(
    per_tenant: Sequence[tuple[str, "InvariantChecks"]]
) -> list[str]:
    """Flatten many tenants' collected violations into tagged strings.

    Multi-query runs attach one collecting checker per tenant (each
    watches its own recorder and kernel); this merges them for a
    single report, prefixing every rendered violation with its tenant
    tag so same-named operators in different tenants stay
    distinguishable.
    """
    return [
        f"{tag}: {violation.render()}"
        for tag, checks in per_tenant
        for violation in checks.violations
    ]


def coerce_checks(checks) -> "InvariantChecks | None":
    """Normalise the drivers' ``checks=`` argument.

    Accepts ``None`` / ``False`` (disabled), ``True`` (a fresh raising
    checker), or an :class:`InvariantChecks` instance.
    """
    if checks is None or checks is False:
        return None
    if checks is True:
        return InvariantChecks(mode="raise")
    if isinstance(checks, InvariantChecks):
        return checks
    raise ConfigurationError(
        f"checks must be a bool or InvariantChecks, got {type(checks)!r}"
    )


__all__ = [
    "InvariantChecks",
    "Violation",
    "arrival_map",
    "coerce_checks",
    "merged_violations",
]
