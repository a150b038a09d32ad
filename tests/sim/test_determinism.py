"""Kernel-swap determinism regression: the six figure benchmarks.

The event kernel (``repro/sim/scheduler.py``) replaced the two
hand-rolled loops that produced every number in EXPERIMENTS.md.  These
tests pin the exact ``(result count, final clock, io_count)`` triple of
one representative run per paper figure at small scale, captured from
the pre-kernel seed loops.  Any future change to arrival selection,
blocked-window slicing, or finish sequencing that drifts the
calibration fails here immediately.

The triples are exact: the simulation is deterministic down to float
arithmetic, so equality is asserted without tolerance.
"""

from __future__ import annotations

import pytest

from repro.bench.figures import BLOCKING_T, _bursty
from repro.bench.runner import execute
from repro.bench.scale import BenchScale
from repro.core.config import HMJConfig
from repro.core.flushing import FlushSmallestPolicy
from repro.core.hmj import HashMergeJoin
from repro.joins.pmj import ProgressiveMergeJoin
from repro.joins.xjoin import XJoin
from repro.net.arrival import ConstantRate
from repro.workloads.generator import make_relation_pair

SCALE = BenchScale(n_per_source=400, seed=7)

Triple = tuple[int, float, int]


def _triple(result) -> Triple:
    return (result.recorder.count, result.clock.now, result.disk.io_count)


def _run(operator, arrival_a, arrival_b, **kwargs) -> Triple:
    rel_a, rel_b = make_relation_pair(SCALE.spec)
    return _triple(execute(rel_a, rel_b, operator, arrival_a, arrival_b, **kwargs))


def _hmj(memory: int, **kwargs) -> HashMergeJoin:
    return HashMergeJoin(HMJConfig(memory_capacity=memory, **kwargs))


def _fast() -> ConstantRate:
    return ConstantRate(SCALE.fast_rate)


def scenario_fig09() -> dict[str, Triple]:
    """Figure 9's p sweep, at its paper-default point (p=5%, f=16)."""
    memory = SCALE.spec.memory_capacity()
    return {
        "hmj-p05": _run(
            _hmj(memory, flush_fraction=0.05, fan_in=16), _fast(), _fast()
        ),
    }


def scenario_fig10() -> dict[str, Triple]:
    """Figure 10's policy comparison (adaptive vs flush-smallest)."""
    memory = SCALE.spec.memory_capacity()
    return {
        "hmj-adaptive": _run(_hmj(memory), _fast(), _fast()),
        "hmj-smallest": _run(
            _hmj(memory, policy=FlushSmallestPolicy()), _fast(), _fast()
        ),
    }


def scenario_fig11() -> dict[str, Triple]:
    """Figure 11's three-way comparison under a fast network."""
    memory = SCALE.spec.memory_capacity()
    return {
        "hmj": _run(_hmj(memory), _fast(), _fast()),
        "xjoin": _run(XJoin(memory_capacity=memory), _fast(), _fast()),
        "pmj": _run(ProgressiveMergeJoin(memory_capacity=memory), _fast(), _fast()),
    }


def _slow() -> ConstantRate:
    return ConstantRate(SCALE.fast_rate / 5.0)


def scenario_fig12() -> dict[str, Triple]:
    """Figure 12's 5x rate skew."""
    memory = SCALE.spec.memory_capacity()
    return {
        "hmj": _run(_hmj(memory), _fast(), _slow()),
        "xjoin": _run(XJoin(memory_capacity=memory), _fast(), _slow()),
        "pmj": _run(ProgressiveMergeJoin(memory_capacity=memory), _fast(), _slow()),
    }


def scenario_fig13() -> dict[str, Triple]:
    """Figure 13's first-k early stop at the paper's 10% memory point."""
    memory = SCALE.spec.memory_capacity(0.10)
    first_k = SCALE.first_k(1000)
    return {
        "hmj-stop": _run(_hmj(memory), _fast(), _fast(), stop_after=first_k),
        "pmj-stop": _run(
            ProgressiveMergeJoin(memory_capacity=memory),
            _fast(),
            _fast(),
            stop_after=first_k,
        ),
    }


def scenario_fig14() -> dict[str, Triple]:
    """Figure 14's bursty regime (Pareto silences, threshold T)."""
    memory = SCALE.spec.memory_capacity()
    return {
        "hmj": _run(
            _hmj(memory), _bursty(SCALE), _bursty(SCALE),
            blocking_threshold=BLOCKING_T,
        ),
        "xjoin": _run(
            XJoin(memory_capacity=memory), _bursty(SCALE), _bursty(SCALE),
            blocking_threshold=BLOCKING_T,
        ),
        "pmj": _run(
            ProgressiveMergeJoin(memory_capacity=memory),
            _bursty(SCALE),
            _bursty(SCALE),
            blocking_threshold=BLOCKING_T,
        ),
    }


def scenario_delivery() -> dict[str, Triple]:
    """Both kernel delivery paths, pinned explicitly.

    Batched and per-event dispatch promise identical observable
    numbers; pinning each path separately makes a divergence point at
    the guilty path instead of failing an equivalence test far away.
    """
    memory = SCALE.spec.memory_capacity()
    return {
        "hmj-batched": _run(_hmj(memory), _fast(), _fast(), batch_delivery=True),
        "hmj-per-event": _run(_hmj(memory), _fast(), _fast(), batch_delivery=False),
        "xjoin-per-event": _run(
            XJoin(memory_capacity=memory), _fast(), _fast(), batch_delivery=False
        ),
    }


def scenario_broker() -> dict[str, Triple]:
    """A mid-run broker memory schedule (shrink, then restore).

    The grant transitions land inside the arrival window, so the pins
    cover the resize path: flush-on-shrink plus the re-grown phase.
    """
    from repro.sim.broker import ResourceBroker

    memory = SCALE.spec.memory_capacity()
    low = max(4, memory // 4)

    def schedule() -> ResourceBroker:
        # Arrivals at SCALE's fast rate span [0, 0.08]s, so the shrink
        # and the restore both land while tuples are still streaming.
        return ResourceBroker([(0.025, low), (0.06, memory)])

    return {
        "hmj-resize": _run(_hmj(memory), _fast(), _fast(), broker=schedule()),
        "xjoin-resize": _run(
            XJoin(memory_capacity=memory), _fast(), _fast(), broker=schedule()
        ),
    }


def scenario_session() -> dict[str, Triple]:
    """Two queries sharing one session broker, pinned per tenant.

    An HMJ and an XJoin run concurrently on one
    :class:`~repro.service.session.QuerySession` under fair-share with
    an aggregate budget covering both requests.  Memory is the *only*
    coupling between tenants, and a sufficient budget makes every
    re-grant a no-op — so each tenant's triple must equal its solo
    fig11 pin exactly.  Any cross-tenant leak (shared clock, disk,
    recorder, or a perturbing grant) lands here immediately.
    """
    from repro.net.source import NetworkSource
    from repro.service.broker import FairShare, SharedBroker
    from repro.service.session import QuerySession
    from repro.sim.engine import JoinSimulation
    from repro.sim.query import Query

    memory = SCALE.spec.memory_capacity()

    def build(operator) -> JoinSimulation:
        rel_a, rel_b = make_relation_pair(SCALE.spec)
        src_a = NetworkSource(rel_a, _fast(), seed=11)
        src_b = NetworkSource(rel_b, _fast(), seed=22)
        return JoinSimulation(src_a, src_b, operator, keep_results=False)

    session = QuerySession(memory=SharedBroker(2 * memory, FairShare()))
    hmj = session.submit(Query(build(_hmj(memory)), query_id="hmj"))
    xjoin = session.submit(
        Query(build(XJoin(memory_capacity=memory)), query_id="xjoin")
    )
    session.run()
    return {"session-hmj": hmj.triple(), "session-xjoin": xjoin.triple()}


def scenario_session_contended() -> dict[str, tuple]:
    """Twelve HMJ tenants contending for half their summed requests.

    Unlike :func:`scenario_session`, every grant here is binding, so
    the order in which the session dispatches tenants decides who
    holds memory when, and with it every tenant's numbers.  Ten run at
    once and two queue; a listener submits a thirteenth tenant on the
    first ``done``; one tenant is cancelled mid-run; the aggregate is
    revoked to a third and later restored.

    The tenants come in identical pairs, so equal session times are
    common and the admission-order tie rule decides which of a pair
    goes first.  Constant arrivals at 64/s sit on exact binary
    fractions, so the revocation at 0.5 s ties with tenant events and
    must fire first.  Every other pair draws keys from a narrow range,
    so results are dense and a tenant dispatched at a stale session
    time shows in the event log.

    Each tenant is pinned by its triple, the session time of its 5th
    result and its final state.  The listener's ``(kind, query,
    session clock)`` sequence, streamed results included, is pinned
    by its length and digest.
    """
    import hashlib

    from repro.service.session import QuerySession
    from repro.service.spec import QuerySpec

    specs = [
        QuerySpec(
            query_id=f"t{i:02d}",
            n=128,
            key_range=64 if (i // 2) % 2 else None,
            seed=7 + 101 * (i // 2),
            arrival="poisson" if i % 3 == 2 else "constant",
        )
        for i in range(12)
    ]
    aggregate = sum(s.memory_budget() for s in specs) // 2
    session = QuerySession(memory=aggregate, max_concurrent=10)
    events: list[tuple[str, str, float]] = []
    late: list = []

    def listener(kind, query, detail) -> None:
        events.append((kind, query.query_id, session.clock.now))
        if kind == "done" and not late:
            late_spec = QuerySpec(query_id="late", n=120, seed=5)
            late.append(session.submit(late_spec.build(), track_first_k=5))

    session.add_listener(listener)
    queries = [
        session.submit(s.build(), stream_results=True, track_first_k=5)
        for s in specs
    ]
    session.cancel_at(0.9, "t05")
    session.schedule_memory([(0.5, aggregate // 3), (1.4, aggregate)])
    session.run()
    pins: dict[str, tuple] = {
        q.query_id: q.triple()
        + (session.stats(q.query_id).first_k_at, q.state.value)
        for q in queries + late
    }
    digest = hashlib.sha256(repr(events).encode()).hexdigest()[:16]
    pins["events"] = (len(events), digest)
    return pins


def scenario_plans() -> dict[str, Triple]:
    """N-way plan pins: a bushy tree and a shared-hub star.

    Each shape is pinned three ways: the plain in-order run, the
    bounded-disorder run (leaves jittered out of order, re-sequenced
    behind watermark reorder buffers), and the disordered run's
    release-schedule twin (every leaf in order over ``e_i + B``).  The
    watermark contract makes the last two *equal by construction* —
    pinning both makes a divergence point at the reorder buffer
    instead of failing an equivalence property far away.  The star's
    hub feeds three joins through per-consumer cursors, so its pins
    also cover the shared-source path.
    """
    from repro.net.arrival import BoundedDisorder, PoissonArrival
    from repro.pipeline.executor import run_plan
    from repro.pipeline.shapes import (
        build_plan,
        build_sources,
        make_plan_relations,
        ordered_twin,
    )

    n = SCALE.n_per_source
    relations = make_plan_relations(4, n, 2 * n, seed=SCALE.seed)
    memory = SCALE.spec.memory_capacity()
    arrival = PoissonArrival(SCALE.fast_rate)
    disorder = BoundedDisorder(0.02, seed=31)

    def factory():
        return _hmj(memory)

    def triple(shape: str, jittered: bool, twin: bool = False) -> Triple:
        sources = build_sources(
            relations,
            arrival,
            seed=SCALE.seed,
            disorder=disorder if jittered else None,
            shape=shape,
        )
        if twin:
            sources = ordered_twin(sources)
        result = run_plan(
            build_plan(shape, sources, factory),
            blocking_threshold=0.1,
            keep_results=False,
        )
        return (result.count, result.clock.now, result.total_io)

    return {
        "bushy-ordered": triple("bushy", False),
        "bushy-disordered": triple("bushy", True),
        "bushy-release-twin": triple("bushy", True, twin=True),
        "star-ordered": triple("star", False),
        "star-disordered": triple("star", True),
        "star-release-twin": triple("star", True, twin=True),
    }


SCENARIOS = {
    "fig09": scenario_fig09,
    "fig10": scenario_fig10,
    "fig11": scenario_fig11,
    "fig12": scenario_fig12,
    "fig13": scenario_fig13,
    "fig14": scenario_fig14,
    "delivery": scenario_delivery,
    "broker": scenario_broker,
    "session": scenario_session,
    "session-contended": scenario_session_contended,
    "plans": scenario_plans,
}

#: (count, final clock, io_count) per run, captured from the seed's
#: pre-kernel loops (commit 28c142c) at SCALE.  Exact equality required.
EXPECTED: dict[str, dict[str, tuple]] = {
    "fig09": {"hmj-p05": (189, 3.994769170021071, 398)},
    "fig10": {
        "hmj-adaptive": (189, 3.994769170021071, 398),
        "hmj-smallest": (189, 12.654506643875338, 1264),
    },
    "fig11": {
        "hmj": (189, 3.994769170021071, 398),
        "xjoin": (189, 8.3631269999999, 835),
        "pmj": (189, 0.6986735424759163, 68),
    },
    "fig12": {
        "hmj": (189, 3.280438090555664, 326),
        "xjoin": (189, 7.148418999999964, 713),
        "pmj": (189, 0.9423877542476236, 78),
    },
    "fig13": {
        "hmj-stop": (10, 0.26893310685239863, 26),
        "pmj-stop": (10, 0.11235377123795567, 10),
    },
    "fig14": {
        "hmj": (189, 9.779311450641007, 612),
        "xjoin": (189, 13.70114254054461, 1216),
        "pmj": (189, 8.952620131648274, 202),
    },
    # Captured at the kernel unification (both paths must stay equal
    # to fig11's pins above — that equality is the point).
    "delivery": {
        "hmj-batched": (189, 3.994769170021071, 398),
        "hmj-per-event": (189, 3.994769170021071, 398),
        "xjoin-per-event": (189, 8.3631269999999, 835),
    },
    # Captured with the shrink/restore schedule in scenario_broker.
    "broker": {
        "hmj-resize": (189, 7.814577624860037, 780),
        "xjoin-resize": (189, 11.26291199999959, 1125),
    },
    # Shared-session isolation: both tenants must keep their solo
    # fig11 pins — equality with the entries above is the point.
    "session": {
        "session-hmj": (189, 3.994769170021071, 398),
        "session-xjoin": (189, 8.3631269999999, 835),
    },
    # Contended session: binding grants, queueing, a listener-driven
    # late submission, a mid-run cancel and an aggregate revocation.
    # Captured with the linear-scan dispatch loop the heap replaced;
    # the heap keeps its (session time, admission order) rule exactly.
    "session-contended": {
        "events": (1870, "02aef952e4e5c8c4"),
        "late": (53, 3.47366733333332, 261, 3.370017, "done"),
        "t00": (66, 4.450440999999987, 428, 2.000005, "done"),
        "t01": (66, 4.450440999999987, 428, 2.000005, "done"),
        "t02": (259, 4.461290404707518, 431, 2.0103376498200003, "done"),
        "t03": (259, 4.450971000000016, 423, 2.0100069999999994, "done"),
        "t04": (69, 4.490432893852976, 434, 2.0900001389654888, "done"),
        "t05": (0, 0.9094871400449897, 77, None, "cancelled"),
        "t06": (245, 4.633383039100023, 449, 2.1024875293250127, "done"),
        "t07": (245, 4.633383039100023, 449, 2.1024875293250127, "done"),
        "t08": (62, 4.560730649819978, 442, 2.0903108949324913, "done"),
        "t09": (62, 4.475848264662495, 430, 2.0954265097750056, "done"),
        "t10": (254, 4.175235754887482, 376, 2.9138791400449895, "done"),
        "t11": (254, 3.473340858033262, 272, 3.922607858033281, "done"),
    },
    # N-way plan pins (bushy tree, shared-hub star), captured at the
    # watermark-reordering introduction.  Each shape's "disordered"
    # and "release-twin" entries must stay equal to each other — that
    # byte-identity is the reorder buffer's contract.
    "plans": {
        "bushy-ordered": (59, 9.283806003765052, 926),
        "bushy-disordered": (59, 9.303806003765054, 926),
        "bushy-release-twin": (59, 9.303806003765054, 926),
        "star-ordered": (179, 14.234748474725015, 1420),
        "star-disordered": (179, 13.68330344043885, 1364),
        "star-release-twin": (179, 13.68330344043885, 1364),
    },
}


@pytest.mark.parametrize("figure", sorted(SCENARIOS))
def test_figure_triples_match_seed(figure):
    assert SCENARIOS[figure]() == EXPECTED[figure]


if __name__ == "__main__":
    for name in sorted(SCENARIOS):
        print(f'    "{name}": {SCENARIOS[name]()!r},')
