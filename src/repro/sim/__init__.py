"""Discrete-event simulation kernel.

The kernel provides a deterministic substitute for the paper's
wall-clock measurements: a :class:`~repro.sim.clock.VirtualClock`
advanced by a :class:`~repro.sim.costs.CostModel`, and one heap-based
:class:`~repro.sim.scheduler.EventScheduler` event loop, driven by the
one query driver (:class:`~repro.pipeline.executor.PlanExecutor`) —
the pipeline's :func:`~repro.pipeline.executor.run_plan` feeds a join
tree, and :func:`~repro.sim.engine.run_join` is its one-join case over
two :class:`~repro.net.source.NetworkSource` streams — detecting
source blocking exactly as Section 6.3 of the paper defines it (no
arrival within a threshold ``T``).  A
:class:`~repro.sim.broker.ResourceBroker` can re-grant a global memory
budget across the bound operators mid-run through the scheduler's
timed events.

The engine symbols (:func:`run_join`, :class:`JoinSimulation`,
:class:`SimulationResult`, ...) are loaded lazily: the engine builds on
the pipeline driver, which imports the operator protocol and back into
this package, so an eager import here would create a cycle.
"""

from typing import TYPE_CHECKING

from repro.sim.budget import WorkBudget
from repro.sim.clock import VirtualClock
from repro.sim.costs import CostModel
from repro.sim.journal import JournalEntry, SimulationJournal
from repro.sim.scheduler import EventScheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.broker import MemoryGrant, ResourceBroker
    from repro.sim.engine import (
        JoinSimulation,
        ResultStream,
        SimulationResult,
        run_join,
        stream_join,
    )

__all__ = [
    "CostModel",
    "EventScheduler",
    "JournalEntry",
    "JoinSimulation",
    "MemoryGrant",
    "ResourceBroker",
    "ResultStream",
    "SimulationJournal",
    "SimulationResult",
    "VirtualClock",
    "WorkBudget",
    "run_join",
    "stream_join",
]

_ENGINE_EXPORTS = {
    "JoinSimulation",
    "ResultStream",
    "SimulationResult",
    "run_join",
    "stream_join",
}
_BROKER_EXPORTS = {"MemoryGrant", "ResourceBroker"}


def __getattr__(name: str):
    if name in _ENGINE_EXPORTS:
        from repro.sim import engine

        return getattr(engine, name)
    if name in _BROKER_EXPORTS:
        from repro.sim import broker

        return getattr(broker, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
