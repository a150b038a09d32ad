"""Workloads, correctness oracle and measurements of the HMJ benchmark.

Every workload runs the Hash-Merge Join with its default configuration
(and so the default delivery and merge paths) through the public API,
in one process on one thread: ``run_join`` for the two-source joins,
a ``QuerySession`` for the tenants.  The relations derive from the
benchmark seed, so the same seed gives the same inputs.

A run repeats the workload until ``seconds`` have passed, timing a few
set-ups before each repetition and checking every repetition: each
join run or tenant must produce exactly the output size a numpy oracle
computes from the relations, and its ``(count, clock, io)`` triple
must repeat exactly across repetitions.  A traced run alternates
untraced and traced repetitions; the traced ones must reproduce the
untraced triples, leave every wrapped attribute restored, and account
for their whole wall time by layer.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro import (
    BurstyArrival,
    ConstantRate,
    HMJConfig,
    HashMergeJoin,
    JoinSimulation,
    NetworkSource,
    run_join,
)
from repro.service import Query, QuerySession, QueryState
from repro.storage.tuples import Relation
from repro.workloads.generator import WorkloadSpec, make_relation_pair

from speed import SpeedSampler
from tracer import SELF_TIME_METRICS, Tracer, layer_metrics, traced_attributes

#: Results each query is timed to ("first k"), and the tenants' k.
FIRST_K = 10
#: The paper's fast and reliable arrival rate, tuples per second.
RATE = 5000.0
#: Arrival-schedule seeds of sources A and B (the service's defaults).
#: Only the relations vary with the benchmark seed: bursty silences are
#: Pareto with shape 1.5, whose infinite variance would otherwise swing
#: the bursty workload's virtual times by 15-25% from seed to seed.
ARRIVAL_SEEDS = (11, 22)
#: Set-ups timed before each repetition; ``setup_s`` is their median.
SETUPS_PER_REP = 3
#: Repetitions per run at the least, so the triple check always runs.
MIN_REPS = 2

#: The benchmark's manifest, which declares every metric's unit and direction.
MANIFEST = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)


def _declared(key: str) -> dict[str, tuple[str, str]]:
    return {m["name"]: (m["unit"], m["better"]) for m in MANIFEST[key]}


#: End-to-end metrics (untraced runs): name -> (unit, better).
END_TO_END = _declared("end_to_end")
#: Per-layer metrics (traced runs): name -> (unit, better).
PER_LAYER = _declared("per_layer")


@dataclass(frozen=True)
class JoinWorkload:
    """Two uniform relations of ``n`` tuples joined by one HMJ.

    Keys are drawn from ``[0, 2n)`` (the paper's density) and memory
    holds ``memory_fraction`` of the input.
    """

    n: int
    memory_fraction: float
    rate: float = RATE
    bursty: bool = False
    blocking_threshold: float = 1.0

    def arrival(self):
        if self.bursty:
            # Figure 14's ON/OFF regime: 500-tuple bursts at the fast
            # rate, Pareto silences of mean 0.5 s.
            return BurstyArrival(
                burst_size=500, intra_gap=1.0 / self.rate, mean_silence=0.5
            )
        return ConstantRate(self.rate)


@dataclass(frozen=True)
class TenantWorkload:
    """``tenants`` independent HMJ queries submitted at once to one session.

    The aggregate memory is half the tenants' summed requests, split
    fair-share by the session's broker.
    """

    tenants: int
    tenant: JoinWorkload


WORKLOADS: dict[str, JoinWorkload | TenantWorkload] = {
    "paper-10pct": JoinWorkload(n=50_000, memory_fraction=0.10),
    "bursty-10pct": JoinWorkload(
        n=50_000, memory_fraction=0.10, bursty=True, blocking_threshold=0.05
    ),
    "ample-200k": JoinWorkload(n=100_000, memory_fraction=1.0),
    # Each tenant is what a default QuerySpec with n=100 builds: n / 2
    # tuples per second per source, memory 10% of its input.
    "tenants-64": TenantWorkload(
        tenants=64,
        tenant=JoinWorkload(n=100, memory_fraction=0.10, rate=50.0),
    ),
}


# -- inputs --------------------------------------------------------------


def derive_seed(seed: int, *path: int) -> int:
    """A child of the benchmark seed; the same path gives the same seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def join_size(rel_a: Relation, rel_b: Relation) -> int:
    """The exact equi-join output size, ``sum_k |A_k| * |B_k|``."""
    keys_a = rel_a.columns().keys
    keys_b = rel_b.columns().keys
    width = int(max(keys_a.max(initial=-1), keys_b.max(initial=-1))) + 1
    return int(
        np.dot(
            np.bincount(keys_a, minlength=width),
            np.bincount(keys_b, minlength=width),
        )
    )


@dataclass(frozen=True)
class JoinInput:
    """One join's generated relations, memory grant and oracle."""

    rel_a: Relation
    rel_b: Relation
    memory: int
    exact: int

    @property
    def tuples(self) -> int:
        return len(self.rel_a) + len(self.rel_b)


def join_input(workload: JoinWorkload, seed: int, index: int = 0) -> JoinInput:
    """Generate join ``index`` of a run from the benchmark seed."""
    spec = WorkloadSpec(
        n_a=workload.n,
        n_b=workload.n,
        key_range=2 * workload.n,
        seed=derive_seed(seed, index),
    )
    rel_a, rel_b = make_relation_pair(spec)
    return JoinInput(
        rel_a=rel_a,
        rel_b=rel_b,
        memory=spec.memory_capacity(workload.memory_fraction),
        exact=join_size(rel_a, rel_b),
    )


def make_inputs(workload: JoinWorkload | TenantWorkload, seed: int) -> list[JoinInput]:
    """Every join's input: one for a join workload, one per tenant."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if isinstance(workload, TenantWorkload):
        return [join_input(workload.tenant, seed, i) for i in range(workload.tenants)]
    return [join_input(workload, seed)]


def build_join(workload: JoinWorkload, inp: JoinInput):
    """Fresh sources and operator for one run (both are single-use)."""
    src_a = NetworkSource(inp.rel_a, workload.arrival(), seed=ARRIVAL_SEEDS[0])
    src_b = NetworkSource(inp.rel_b, workload.arrival(), seed=ARRIVAL_SEEDS[1])
    return src_a, src_b, HashMergeJoin(HMJConfig(memory_capacity=inp.memory))


def build_session(workload: TenantWorkload, inputs: list[JoinInput], listener):
    """The session with every tenant submitted at session time 0."""
    session = QuerySession(memory=sum(inp.memory for inp in inputs) // 2)
    session.add_listener(listener)
    queries = []
    for i, inp in enumerate(inputs):
        src_a, src_b, operator = build_join(workload.tenant, inp)
        # keep_results=False is the service's default (QuerySpec).
        sim = JoinSimulation(
            src_a,
            src_b,
            operator,
            blocking_threshold=workload.tenant.blocking_threshold,
            keep_results=False,
        )
        queries.append(
            session.submit(
                Query(sim, query_id=f"tenant-{i}"),
                stream_results=True,
                track_first_k=FIRST_K,
            )
        )
    return session, queries


def set_up(workload: JoinWorkload | TenantWorkload, inputs: list[JoinInput]) -> None:
    """Everything a run builds before its first dispatch, then dropped."""
    if isinstance(workload, TenantWorkload):
        build_session(workload, inputs, lambda kind, query, detail: None)
        return
    src_a, src_b, operator = build_join(workload, inputs[0])
    JoinSimulation(
        src_a, src_b, operator, blocking_threshold=workload.blocking_threshold
    )


# -- one repetition --------------------------------------------------------


def timed(fn: Callable[[], object]) -> tuple[object, float]:
    """Run ``fn`` after a full collection; returns (value, wall seconds).

    The cycle collector stays on, so the time includes the collections
    the program's own allocations trigger.  Collections start from
    allocation counts, so after ``gc.collect()`` every repetition of
    the same run collects at the same points.
    """
    gc.collect()
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


@dataclass
class Rep:
    """What one repetition measured, per query in submission order."""

    wall: float
    ok: list[bool]
    signatures: list[tuple]
    first_k_walls: list[float]
    virtual_ttk: float
    virtual_total: float
    pages_read: int = 0
    pages_written: int = 0
    input_pages: int = 0
    results: int = 0
    scan_widths: list[int] = field(default_factory=list)
    tracer: Tracer | None = None


def join_rep(workload: JoinWorkload, inp: JoinInput, tracer: Tracer | None) -> Rep:
    src_a, src_b, operator = build_join(workload, inp)

    def go():
        with tracer or contextlib.nullcontext():
            return run_join(
                src_a, src_b, operator, blocking_threshold=workload.blocking_threshold
            )

    result, wall = timed(go)
    k = max(1, inp.exact // 10)
    ttk = result.recorder.time_to_kth(k) if result.count >= k else math.nan
    disk = result.disk
    return Rep(
        wall=wall,
        ok=[result.completed and result.count == inp.exact],
        signatures=[(result.count, result.clock.now, disk.io_count, ttk)],
        # run_join hands its results over when it returns.
        first_k_walls=[wall],
        virtual_ttk=ttk,
        virtual_total=result.clock.now,
        pages_read=disk.pages_read,
        pages_written=disk.pages_written,
        input_pages=disk.costs.pages_for(inp.tuples),
        results=result.count,
        tracer=tracer,
    )


def tenant_rep(
    workload: TenantWorkload, inputs: list[JoinInput], tracer: Tracer | None
) -> Rep:
    started = [0.0]
    first_k_walls: dict[str, float] = {}

    def listener(kind: str, query, detail: dict) -> None:
        if kind == "result" and detail["k"] == FIRST_K:
            first_k_walls[query.query_id] = time.perf_counter() - started[0]

    session, queries = build_session(workload, inputs, listener)
    widths: list[int] = []

    def go():
        started[0] = time.perf_counter()
        if tracer is None:
            session.run()
            return
        with tracer:
            step = session.step
            while step():
                widths.append(len(session.running))

    _, wall = timed(go)
    stats = [session.stats(q.query_id) for q in queries]
    ok = [
        q.state is QueryState.DONE
        and q.completed
        and q.triple()[0] == inp.exact
        and q.query_id in first_k_walls
        and s.first_k_at is not None
        for q, s, inp in zip(queries, stats, inputs)
    ]
    first_k_at = [s.first_k_at for s in stats if s.first_k_at is not None]
    disks = [q.result.disk for q in queries if q.result is not None]
    return Rep(
        wall=wall,
        ok=ok,
        signatures=[q.triple() + (s.first_k_at,) for q, s in zip(queries, stats)],
        first_k_walls=list(first_k_walls.values()),
        virtual_ttk=statistics.median(first_k_at) if first_k_at else math.nan,
        virtual_total=max(
            (s.concluded_at for s in stats if s.concluded_at is not None),
            default=math.nan,
        ),
        pages_read=sum(d.pages_read for d in disks),
        pages_written=sum(d.pages_written for d in disks),
        input_pages=sum(
            d.costs.pages_for(inp.tuples) for d, inp in zip(disks, inputs)
        ),
        results=sum(q.triple()[0] for q in queries),
        scan_widths=widths,
        tracer=tracer,
    )


def one_rep(workload, inputs: list[JoinInput], tracer: Tracer | None = None) -> Rep:
    if isinstance(workload, TenantWorkload):
        return tenant_rep(workload, inputs, tracer)
    return join_rep(workload, inputs[0], tracer)


# -- a whole run -----------------------------------------------------------


def percentile(values: list[float], pct: int) -> float:
    """The ``pct``-th percentile (inclusive interpolation)."""
    if not values:
        return math.nan
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


@dataclass
class Tally:
    """Attempted and failed operations (join runs and tenants)."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def fail(self, n: int, why: str) -> None:
        self.failed += n
        self.errors.append(why)


def _score(reps: list[Rep | None], queries: int, tally: Tally) -> list[Rep]:
    """Count every query of every repetition; returns the repetitions that ran.

    A query fails when its repetition raised, when it misses the
    oracle, or when its signature differs from the first repetition's.
    """
    ran = [rep for rep in reps if rep is not None]
    reference = ran[0].signatures if ran else []
    for i, rep in enumerate(reps):
        tally.attempted += queries
        if rep is None:
            tally.fail(queries, f"repetition {i} raised")
            continue
        bad = sum(
            1
            for ok, sig, ref in zip(rep.ok, rep.signatures, reference)
            if not ok or sig != ref
        )
        if bad:
            tally.fail(bad, f"repetition {i}: {bad} queries wrong or not repeatable")
    return ran


def _attempt(workload, inputs, tracer, tally: Tally) -> Rep | None:
    try:
        return one_rep(workload, inputs, tracer)
    except Exception as exc:  # noqa: BLE001 - a failing run is counted, not fatal
        tally.errors.append(f"{type(exc).__name__}: {exc}")
        return None


def end_to_end(workload, inputs: list[JoinInput], seconds: float, tally: Tally) -> dict:
    """Untraced run: the end-to-end metrics.

    Set-ups are timed between repetitions, so that like the
    repetitions they sample the whole measured window.  Every wall time
    is rescaled to reference machine speed by the
    :class:`~speed.SpeedSampler` running across the window.
    """
    setups: list[float] = []
    reps: list[Rep | None] = []
    deadline = time.perf_counter() + seconds
    with SpeedSampler() as sampler:
        while len(reps) < MIN_REPS or time.perf_counter() < deadline:
            mark = sampler.mark()
            start = time.perf_counter()
            batch = [
                timed(lambda: set_up(workload, inputs))[1]
                for _ in range(SETUPS_PER_REP)
            ]
            rep = _attempt(workload, inputs, None, tally)
            factor = sampler.scale(mark, time.perf_counter() - start)
            setups += [x * factor for x in batch]
            if rep is not None:
                rep.wall *= factor
                rep.first_k_walls = [x * factor for x in rep.first_k_walls]
            reps.append(rep)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ran = _score(reps, len(inputs), tally)
    if not ran:
        return {}
    wall = statistics.median(rep.wall for rep in ran)
    return {
        "tuples_per_s": sum(inp.tuples for inp in inputs) / wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "virtual_ttk_s": ran[0].virtual_ttk,
        "virtual_total_s": ran[0].virtual_total,
        "queries_per_s": len(inputs) / wall,
        "first_k_wall_p50_s": statistics.median(
            percentile(rep.first_k_walls, 50) for rep in ran
        ),
        "first_k_wall_p80_s": statistics.median(
            percentile(rep.first_k_walls, 80) for rep in ran
        ),
    }


def per_layer(workload, inputs: list[JoinInput], seconds: float, tally: Tally) -> dict:
    """Traced run: untraced and traced repetitions in pairs.

    The per-layer numbers come from the traced repetition of median
    wall time, so its self times still sum to its wall time.  Times
    here are raw seconds; ``wall.raw_s``, the untraced repetitions'
    median, is the raw counterpart of the rescaled end-to-end walls.
    """
    originals = traced_attributes()
    plain: list[Rep | None] = []
    traced: list[Rep | None] = []
    deadline = time.perf_counter() + seconds
    while not plain or time.perf_counter() < deadline:
        plain.append(_attempt(workload, inputs, None, tally))
        traced.append(_attempt(workload, inputs, Tracer(), tally))
    # Scoring traced and untraced repetitions together holds the
    # traced triples to the untraced ones.
    _score(plain + traced, len(inputs), tally)
    traced_ran = [rep for rep in traced if rep is not None]
    plain_ran = [rep for rep in plain if rep is not None]
    if any(a is not b for a, b in zip(originals, traced_attributes())):
        tally.fail(len(inputs), "a traced attribute was not restored")
    if not traced_ran or not plain_ran:
        return {}
    traced_ran.sort(key=lambda rep: rep.wall)
    rep = traced_ran[(len(traced_ran) - 1) // 2]
    assert rep.tracer is not None
    plain_wall = statistics.median(r.wall for r in plain_ran)
    metrics = layer_metrics(rep.tracer)
    metrics.update(
        {
            "disk.pages_read": rep.pages_read,
            "disk.pages_written": rep.pages_written,
            "disk.write_amp": rep.pages_written / rep.input_pages,
            "recorder.results": rep.results,
            "session.scan_width": (
                statistics.fmean(rep.scan_widths) if rep.scan_widths else 0.0
            ),
            "trace.overhead": statistics.median(r.tracer.wall_s for r in traced_ran)
            / plain_wall,
            "wall.raw_s": plain_wall,
        }
    )
    accounted = sum(metrics[name] for name in SELF_TIME_METRICS)
    if abs(accounted - metrics["trace.wall_s"]) > 1e-6 * metrics["trace.wall_s"] + 1e-9:
        tally.fail(len(inputs), "layer self times do not sum to the traced wall")
    return metrics


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: the result object, plus ``errors`` for humans."""
    inputs = make_inputs(workload, seed)
    tally = Tally()
    measure = per_layer if trace else end_to_end
    metrics = measure(workload, inputs, seconds, tally)
    return {
        "correct": tally.failed == 0 and bool(metrics),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
        "errors": tally.errors,
    }
