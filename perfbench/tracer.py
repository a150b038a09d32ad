"""Outside-in span tracer for the benchmark's traced run.

The tracer times calls into each layer's public functions without
touching the program: it replaces class methods (and module-level
names, in the module where the caller looks them up) with timing
wrappers for the duration of one run, then puts the original objects
back.  Spans nest through a stack, so a layer's *self* time is its
span time minus the time of the wrapped calls it made; whatever the
run spends outside every span is the root's self time
(``trace.unattributed_s``).  By construction the self times of all
spans plus the root's add up to the traced wall time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from types import ModuleType
from typing import Any, Callable

import repro.core.hmj as hmj_module
import repro.core.merging as merging_module
from repro.core.flushing import FlushingPolicy
from repro.core.hashing import DualHashTable
from repro.core.hmj import HashMergeJoin
from repro.core.merging import MergeScheduler
from repro.metrics.recorder import MetricsRecorder
from repro.net.source import NetworkSource
from repro.service.broker import SharedBroker
from repro.service.session import QuerySession
from repro.sim.query import Query
from repro.sim.scheduler import EventScheduler
from repro.storage.disk import SimulatedDisk

CountFn = Callable[[tuple, Any], dict[str, int]]

#: The disk's block write, read and adopt methods (``disk.busy_s``).
DISK_METHODS = (
    "write_block",
    "read_block",
    "adopt_block",
    "block_columns",
    "write_block_columns",
    "adopt_block_columns",
)


def _pop_one(args: tuple, out: Any) -> dict[str, int]:
    return {"tuples": 1}


def _pop_n(args: tuple, out: Any) -> dict[str, int]:
    return {"tuples": int(args[1])}


def _probe_batch(args: tuple, out: Any) -> dict[str, int]:
    return {"rows": len(args[1]), "matches": int(out.total_matches)}


def _probe_one(args: tuple, out: Any) -> dict[str, int]:
    return {"rows": 1, "matches": len(out[0])}


def _victims(args: tuple, out: Any) -> dict[str, int]:
    return {"victims": len(out)}


def _flushed(args: tuple, out: Any) -> dict[str, int]:
    return {"flushed": sum(len(side) for side in args[2:4] if side is not None)}


def _merged(args: tuple, out: Any) -> dict[str, int]:
    return {"merged": len(out)}


def _policies() -> list[type]:
    """Every flushing policy class that defines its own ``select_victims``."""
    found: list[type] = []
    pending = list(FlushingPolicy.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "select_victims" in vars(cls) and cls not in found:
            found.append(cls)
    return sorted(found, key=lambda cls: cls.__name__)


def layer_targets() -> list[tuple[type | ModuleType, str, CountFn | None]]:
    """``(owner, attribute, counter)`` for every call the trace times."""
    targets: list[tuple[type | ModuleType, str, CountFn | None]] = [
        (EventScheduler, "step", None),
        (NetworkSource, "pop", _pop_one),
        (NetworkSource, "pop_batch", _pop_n),
        (NetworkSource, "pop_batch_columns", _pop_n),
        (HashMergeJoin, "on_column_batch", None),
        (HashMergeJoin, "on_tuple_batch", None),
        (HashMergeJoin, "on_tuple", None),
        (HashMergeJoin, "on_blocked", None),
        (HashMergeJoin, "finish", None),
        (hmj_module, "run_columnar_batch", None),
        (DualHashTable, "probe_insert_batch", _probe_batch),
        (DualHashTable, "probe_insert", _probe_one),
        (DualHashTable, "extract_group_columns", None),
        (DualHashTable, "discard_group", None),
        (MergeScheduler, "work", None),
        (MergeScheduler, "register_flush", _flushed),
        (MergeScheduler, "register_flush_columns", _flushed),
        (merging_module, "vectorized_run_merge", _merged),
        (MetricsRecorder, "append_batch_columns", None),
        (MetricsRecorder, "record", None),
        (QuerySession, "step", None),
        (Query, "step", None),
        (SharedBroker, "rebalance", None),
    ]
    targets += [(cls, "select_victims", _victims) for cls in _policies()]
    targets += [(SimulatedDisk, name, None) for name in DISK_METHODS]
    return targets


def target_key(owner: type | ModuleType, attr: str) -> str:
    """The span name of one wrapped call, e.g. ``EventScheduler.step``."""
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


class Tracer:
    """Installs timing wrappers, accumulates spans, and restores.

    Use as a context manager around exactly the region to trace; the
    originals are back in place when the block exits, even on error.
    """

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        # Each open span is a one-element list holding the time spent
        # in its child spans; the bottom entry is the root.
        self._stack: list[list[float]] = [[0.0]]
        self._originals: list[tuple[type | ModuleType, str, Any]] = []
        self.wall_s = 0.0
        self._started = 0.0

    def _wrap(self, key: str, fn: Callable, count: CountFn | None) -> Callable:
        stack = self._stack
        self_s, total_s, calls, counts = (
            self.self_s, self.total_s, self.calls, self.counts
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stack[-1][0] += elapsed
                self_s[key] += elapsed - frame[0]
                total_s[key] += elapsed
                calls[key] += 1
            if count is not None:
                for name, n in count(args, out).items():
                    counts[f"{key}:{name}"] += n
            return out

        return wrapper

    def install(self) -> None:
        for owner, attr, count in layer_targets():
            if attr not in vars(owner):
                raise RuntimeError(f"{owner.__name__} defines no {attr!r}")
            original = vars(owner)[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(target_key(owner, attr), original, count))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._started
        self.uninstall()

    @property
    def unattributed_s(self) -> float:
        """Root self time: traced wall time outside every span."""
        return self.wall_s - self._stack[0][0]


def traced_attributes() -> list[Any]:
    """The objects currently bound to every traced attribute."""
    return [vars(owner)[attr] for owner, attr, _ in layer_targets()]


def _sum(table: dict, keys: list[str]) -> float:
    return sum(table.get(key, 0) for key in keys)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics one traced run yields.

    Disk page counts, result counts, and the session scan width are
    read from the run's own objects by the caller; everything here
    comes from the spans.
    """
    s, t, c, n = tracer.self_s, tracer.total_s, tracer.calls, tracer.counts
    hmj_keys = [
        target_key(HashMergeJoin, a)
        for a in ("on_column_batch", "on_tuple_batch", "on_tuple", "on_blocked", "finish")
    ]
    hashing_keys = hmj_keys[:3]
    pop_keys = [target_key(NetworkSource, a) for a in ("pop", "pop_batch", "pop_batch_columns")]
    probe_keys = [target_key(DualHashTable, a) for a in ("probe_insert_batch", "probe_insert")]
    extract_keys = [target_key(DualHashTable, a) for a in ("extract_group_columns", "discard_group")]
    select_keys = [target_key(cls, "select_victims") for cls in _policies()]
    register_keys = [
        target_key(MergeScheduler, a) for a in ("register_flush", "register_flush_columns")
    ]
    disk_keys = [target_key(SimulatedDisk, a) for a in DISK_METHODS]
    recorder_keys = [target_key(MetricsRecorder, a) for a in ("append_batch_columns", "record")]
    session_keys = [target_key(QuerySession, "step"), target_key(Query, "step")]
    steps = c.get(target_key(EventScheduler, "step"), 0)
    tuples = _sum(n, [f"{k}:tuples" for k in pop_keys])
    probes = _sum(c, probe_keys)
    rows = _sum(n, [f"{k}:rows" for k in probe_keys])
    decisions = _sum(c, select_keys)
    merge_key = target_key(merging_module, "vectorized_run_merge")
    return {
        "scheduler.self_s": s.get(target_key(EventScheduler, "step"), 0.0),
        "scheduler.steps": steps,
        "scheduler.tuples_per_step": _ratio(tuples, steps),
        "source.pop_s": _sum(s, pop_keys),
        "source.tuples": tuples,
        "hmj.hashing_s": _sum(t, hashing_keys),
        "hmj.blocked_s": t.get(hmj_keys[3], 0.0),
        "hmj.finish_s": t.get(hmj_keys[4], 0.0),
        "hmj.self_s": _sum(s, hmj_keys),
        "columnar.self_s": s.get(target_key(hmj_module, "run_columnar_batch"), 0.0),
        "hashing.probe_s": _sum(s, probe_keys),
        "hashing.probe_calls": probes,
        "hashing.rows_per_probe": _ratio(rows, probes),
        "hashing.matches_per_row": _ratio(
            _sum(n, [f"{k}:matches" for k in probe_keys]), rows
        ),
        "hashing.extract_s": _sum(s, extract_keys),
        "flushing.select_s": _sum(s, select_keys),
        "flushing.decisions": decisions,
        "flushing.victims_per_decision": _ratio(
            _sum(n, [f"{k}:victims" for k in select_keys]), decisions
        ),
        "merging.work_s": s.get(target_key(MergeScheduler, "work"), 0.0),
        "merging.work_calls": c.get(target_key(MergeScheduler, "work"), 0),
        "merging.register_s": _sum(s, register_keys),
        "merging.tuples_flushed": _sum(n, [f"{k}:flushed" for k in register_keys]),
        "runs.merge_s": s.get(merge_key, 0.0),
        "runs.tuples_merged": n.get(f"{merge_key}:merged", 0),
        "disk.busy_s": _sum(s, disk_keys),
        "recorder.append_s": _sum(s, recorder_keys),
        "session.self_s": _sum(s, session_keys),
        "session.steps": c.get(session_keys[0], 0),
        "broker.rebalance_s": s.get(target_key(SharedBroker, "rebalance"), 0.0),
        "broker.rebalances": c.get(target_key(SharedBroker, "rebalance"), 0),
        "trace.unattributed_s": tracer.unattributed_s,
        "trace.wall_s": tracer.wall_s,
    }


#: The self-time metrics that partition the traced wall time.
SELF_TIME_METRICS = (
    "scheduler.self_s",
    "source.pop_s",
    "hmj.self_s",
    "columnar.self_s",
    "hashing.probe_s",
    "hashing.extract_s",
    "flushing.select_s",
    "merging.work_s",
    "merging.register_s",
    "runs.merge_s",
    "disk.busy_s",
    "recorder.append_s",
    "session.self_s",
    "broker.rebalance_s",
    "trace.unattributed_s",
)
