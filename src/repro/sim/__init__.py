"""Discrete-event simulation kernel underlying the Rattrap reproduction.

Public surface:

- :class:`Environment` — clock + event heap + run loop
- :class:`Process` / :class:`Interrupt` — generator processes
- :class:`Event`, :class:`Timeout`, :class:`AllOf`, :class:`AnyOf`
- :class:`Resource`, :class:`PriorityResource`, :class:`Container`,
  :class:`Store` — contention primitives
- monitors (:class:`TimeSeries`, :class:`UtilizationTracker`, ...)
- :class:`RandomStreams` — named seeded RNG streams
- sharding (:class:`ShardRunner`, :func:`run_sharded`) — conservative
  time-window partitioning of one simulation across processes
"""

from .core import Environment, StopSimulation
from .debug import EventTracer, TraceEntry
from .events import (
    AllOf,
    AnyOf,
    ConditionEvent,
    Event,
    EventState,
    Interrupt,
    SimulationError,
    Timeout,
)
from .monitor import Counter, RateTracker, TimeSeries, UtilizationTracker
from .process import Process
from .resources import (
    Container,
    PriorityRequest,
    PriorityResource,
    Release,
    Request,
    Resource,
    Store,
)
from .rng import RandomStreams
from .shard import (
    CausalityError,
    ShardMessage,
    ShardRunner,
    run_epochs,
    run_sharded,
    sync_window,
)

__all__ = [
    "Environment",
    "StopSimulation",
    "Event",
    "EventState",
    "Timeout",
    "AllOf",
    "AnyOf",
    "ConditionEvent",
    "Interrupt",
    "SimulationError",
    "Process",
    "Resource",
    "PriorityResource",
    "Request",
    "PriorityRequest",
    "Release",
    "Container",
    "Store",
    "TimeSeries",
    "Counter",
    "UtilizationTracker",
    "RateTracker",
    "RandomStreams",
    "EventTracer",
    "TraceEntry",
    "CausalityError",
    "ShardMessage",
    "ShardRunner",
    "run_epochs",
    "run_sharded",
    "sync_window",
]
