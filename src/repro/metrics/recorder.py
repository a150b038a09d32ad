"""Per-result metric recording.

Every join result emitted during a simulation is stamped with the
current virtual time, the cumulative page-I/O count, and the phase that
produced it ("hashing", "merging", XJoin's "stage1"/"stage2"/"stage3",
PMJ's "sorting"/"merging", ...).  Those three columns are sufficient to
regenerate every curve in the paper's evaluation.

Storage is columnar: the recorder holds three parallel scalar columns
(time, io, phase) that the batch paths extend in bulk, and boxes
:class:`ResultEvent` rows — and retained :class:`JoinResult` tuples
from column segments — lazily, on first access.  Per-event consumers
(taps, the per-tuple delivery path) see the exact same objects and
ordering they always did.
"""

from __future__ import annotations

from itertools import repeat
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, TypeVar

from repro.errors import ConfigurationError, SimulationError
from repro.storage.tuples import JoinResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.clock import VirtualClock
    from repro.storage.disk import SimulatedDisk

T = TypeVar("T")


class ReadOnlyView(Sequence[T]):
    """Zero-copy immutable view over a live internal list.

    The recorder's ``events``/``results`` accessors used to copy the
    whole history on *every* property hit — O(n) per access, and figure
    code hits them repeatedly.  The view indexes and iterates the
    backing list directly, forbids mutation, and is *live*: results
    recorded after the view was obtained are visible through it.

    Pickles as a plain-list snapshot (the bench cache stores recorder
    payloads), and compares equal to lists/tuples with equal contents
    so existing assertions keep working.
    """

    __slots__ = ("_items",)

    def __init__(self, items: list[T]) -> None:
        self._items = items

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index):
        return self._items[index]

    def __iter__(self) -> Iterator[T]:
        return iter(self._items)

    def __reversed__(self) -> Iterator[T]:
        return reversed(self._items)

    def __eq__(self, other: object):
        if isinstance(other, ReadOnlyView):
            return self._items == other._items
        if isinstance(other, list):
            return self._items == other
        if isinstance(other, tuple):
            return self._items == list(other)
        return NotImplemented

    def __reduce__(self):
        return (list, (list(self._items),))

    def __repr__(self) -> str:
        return f"ReadOnlyView({self._items!r})"


class _LazyView(ReadOnlyView[T]):
    """A :class:`ReadOnlyView` that fills its backing list on access.

    The columnar append paths leave events/results unboxed; this view
    triggers the recorder's materialisation before every read, so
    consumers holding a live view keep seeing everything recorded so
    far — exactly the liveness the eager view provided.
    """

    __slots__ = ("_refresh",)

    def __init__(self, items: list[T], refresh: Callable[[], None]) -> None:
        super().__init__(items)
        self._refresh = refresh

    def __len__(self) -> int:
        self._refresh()
        return len(self._items)

    def __getitem__(self, index):
        self._refresh()
        return self._items[index]

    def __iter__(self) -> Iterator[T]:
        self._refresh()
        return iter(self._items)

    def __reversed__(self) -> Iterator[T]:
        self._refresh()
        return reversed(self._items)

    def __eq__(self, other: object):
        self._refresh()
        return super().__eq__(other)

    def __reduce__(self):
        self._refresh()
        return (list, (list(self._items),))

    def __repr__(self) -> str:
        self._refresh()
        return f"ReadOnlyView({self._items!r})"


@dataclass(frozen=True, slots=True)
class ResultEvent:
    """One produced result with its measurement snapshot.

    Attributes:
        k: 1-based output sequence number.
        time: Virtual time at emission.
        io: Cumulative page I/Os (reads + writes) at emission.
        phase: Operator phase that produced the result.
    """

    k: int
    time: float
    io: int
    phase: str


class MetricsRecorder:
    """Accumulates :class:`ResultEvent` rows during a simulation run.

    The recorder optionally retains the result tuples themselves
    (``keep_results=True``, the default) so correctness checks can
    compare the output multiset against an oracle; large benchmark runs
    can disable retention to save memory while keeping all metrics.
    """

    def __init__(
        self,
        clock: VirtualClock,
        disk: SimulatedDisk,
        keep_results: bool = True,
    ) -> None:
        self._clock = clock
        self._disk = disk
        self._keep_results = keep_results
        # The authoritative storage: three parallel scalar columns.
        self._times: list[float] = []
        self._ios: list[int] = []
        self._phases: list[str] = []
        # Lazily boxed prefixes of the columns above.
        self._events: list[ResultEvent] = []
        self._results: list[JoinResult] = []
        # Column segments whose JoinResults are not yet boxed; drained
        # into _results in order on first access.
        self._pending_results: list = []
        self._events_view: ReadOnlyView[ResultEvent] = _LazyView(
            self._events, self._materialise_events
        )
        self._results_view: ReadOnlyView[JoinResult] = _LazyView(
            self._results, self._drain_pending_results
        )
        self._taps: list[Callable[[JoinResult, ResultEvent], None]] = []
        self._last_time = 0.0

    @property
    def count(self) -> int:
        """Total results recorded so far."""
        return len(self._times)

    @property
    def keep_results(self) -> bool:
        """Whether result tuples are retained."""
        return self._keep_results

    @property
    def needs_results(self) -> bool:
        """Whether appends must supply the result tuples.

        False only when results are neither retained nor observed by a
        tap — then the columnar path may skip building them entirely.
        """
        return self._keep_results or bool(self._taps)

    @property
    def events(self) -> ReadOnlyView[ResultEvent]:
        """All recorded events, in emission order (zero-copy, live)."""
        return self._events_view

    @property
    def results(self) -> ReadOnlyView[JoinResult]:
        """Retained result tuples (empty when ``keep_results=False``)."""
        return self._results_view

    def _materialise_events(self) -> None:
        events = self._events
        start = len(events)
        if start == len(self._times):
            return
        events.extend(
            ResultEvent(k=k, time=t, io=io, phase=phase)
            for k, (t, io, phase) in enumerate(
                zip(
                    self._times[start:],
                    self._ios[start:],
                    self._phases[start:],
                ),
                start=start + 1,
            )
        )

    def _drain_pending_results(self) -> None:
        if self._pending_results:
            for segment in self._pending_results:
                self._results.extend(segment.materialise())
            self._pending_results.clear()

    def iter_events(self) -> Iterator[ResultEvent]:
        """Non-copying iteration over the recorded events."""
        self._materialise_events()
        return iter(self._events)

    def triple(self) -> tuple[int, float, int]:
        """The ``(count, clock now, io count)`` determinism triple.

        The exact snapshot the pinned regressions in
        ``tests/sim/test_determinism.py`` compare, read from the live
        clock and disk — so two runs with equal triples agree on output
        cardinality, final virtual time, and total page I/O.
        """
        return (len(self._times), self._clock.now, self._disk.io_count)

    def results_since(self, start: int) -> list[JoinResult]:
        """Retained results from index ``start`` on (no full copy).

        The pipeline executor polls this after every operator call to
        propagate fresh results upward without re-copying the whole
        history each time.
        """
        self._drain_pending_results()
        return self._results[start:]

    def add_tap(self, tap: Callable[[JoinResult, ResultEvent], None]) -> None:
        """Observe every result as it is recorded.

        Taps see the result tuple even when ``keep_results=False`` —
        this is how the streaming APIs yield results without forcing
        the recorder to retain the full output history.
        """
        self._taps.append(tap)

    def remove_tap(self, tap: Callable[[JoinResult, ResultEvent], None]) -> None:
        """Detach a previously added tap (no-op if already removed).

        Short-lived observers — e.g. a session watching for a tenant's
        k-th result — detach themselves so long runs do not keep paying
        per-result callback overhead for a condition that already fired.
        """
        try:
            self._taps.remove(tap)
        except ValueError:
            pass

    def record(self, result: JoinResult, phase: str) -> ResultEvent:
        """Record one emitted result under the producing ``phase``."""
        now = self._clock.now
        if now < self._last_time:
            raise SimulationError(
                f"result emitted at {now} before previous result at {self._last_time}"
            )
        self._last_time = now
        io = self._disk.io_count
        self._times.append(now)
        self._ios.append(io)
        self._phases.append(phase)
        event = ResultEvent(k=len(self._times), time=now, io=io, phase=phase)
        if len(self._events) == len(self._times) - 1:
            # The boxed prefix is current: keep it so (per-event runs
            # never pay a separate materialisation pass).
            self._events.append(event)
        if self._keep_results:
            self._drain_pending_results()
            self._results.append(result)
        for tap in self._taps:
            tap(result, event)
        return event

    def append_batch_columns(
        self,
        times: list[float],
        io: int | Sequence[int],
        phase: str,
        results=None,
    ) -> None:
        """Column-slice append: one arrival segment's results at once.

        ``times`` are the per-result emission instants (already
        clock-exact, computed by the columnar loop); ``io`` is either a
        single cumulative page-I/O count shared by the whole segment
        (one arrival batch, where the disk never moves mid-segment) or
        a per-result sequence parallel to ``times`` (a merge-pass
        segment, where page reads and writes interleave with
        emissions); ``phase`` is constant across the segment.
        ``results`` is a lazy column segment exposing
        ``materialise() -> list[JoinResult]`` — it is only boxed if
        results are retained and actually read, or a tap is attached
        (required then; see :attr:`needs_results`).
        """
        n = len(times)
        if n == 0:
            return
        scalar_io = isinstance(io, int)
        self._times.extend(times)
        if scalar_io:
            self._ios.extend(repeat(io, n))
        else:
            self._ios.extend(io)
        self._phases.extend(repeat(phase, n))
        if self._taps:
            # Per-result observers need boxed results and events now,
            # in order — the slow path, only paid when someone watches.
            if results is None:
                raise SimulationError(
                    "columnar append without results while taps are attached"
                )
            boxed = results.materialise()
            base = len(self._times) - n
            if self._keep_results:
                self._drain_pending_results()
                self._results.extend(boxed)
            for offset, result in enumerate(boxed):
                event = ResultEvent(
                    k=base + offset + 1,
                    time=times[offset],
                    io=io if scalar_io else io[offset],
                    phase=phase,
                )
                for tap in self._taps:
                    tap(result, event)
        elif self._keep_results:
            if results is None:
                raise SimulationError(
                    "columnar append without results while keep_results=True"
                )
            self._pending_results.append(results)

    def record_batch(self, results: Iterable[JoinResult], phase: str) -> int:
        """Record several results emitted at the current instant."""
        n = 0
        for result in results:
            self.record(result, phase)
            n += 1
        return n

    def time_to_kth(self, k: int) -> float:
        """Virtual time at which the k-th result appeared."""
        self._check_k(k)
        return self._times[k - 1]

    def io_to_kth(self, k: int) -> int:
        """Cumulative page I/Os when the k-th result appeared."""
        self._check_k(k)
        return self._ios[k - 1]

    def total_time(self) -> float:
        """Virtual time of the final result (0.0 if none were produced)."""
        if not self._times:
            return 0.0
        return self._times[-1]

    def total_io(self) -> int:
        """Cumulative page I/Os at the final result (live disk total if none)."""
        if not self._ios:
            return self._disk.io_count
        return self._ios[-1]

    def count_in_phase(self, phase: str) -> int:
        """Number of results the given phase produced."""
        return sum(1 for p in self._phases if p == phase)

    def _check_k(self, k: int) -> None:
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        if k > len(self._times):
            raise ConfigurationError(
                f"only {len(self._times)} results recorded; k={k} unavailable"
            )
