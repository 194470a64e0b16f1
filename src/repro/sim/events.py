"""Event primitives for the discrete-event simulation kernel.

The kernel follows the classic event-callback design (as popularized by
SimPy): an :class:`Event` moves through the states *pending* →
*triggered* → *processed*.  Triggering schedules the event on the
environment's heap; processing pops it and runs its callbacks, which is
how suspended processes are resumed.

Everything in :mod:`repro` that takes simulated time — booting a VM,
transferring bytes over a 3G link, executing offloaded code on a CPU
core — ultimately bottoms out in these primitives.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .core import Environment

__all__ = [
    "EventState",
    "Event",
    "Timeout",
    "ConditionEvent",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
]


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (double trigger, bad yield, ...)."""


class EventState(enum.Enum):
    """Lifecycle state of an :class:`Event`."""

    PENDING = "pending"
    TRIGGERED = "triggered"
    PROCESSED = "processed"


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it.

    The ``cause`` is an arbitrary payload supplied by the interruptor —
    in Rattrap it is typically the reason a request was aborted (access
    violation, runtime teardown, ...).
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Interrupt(cause={self.cause!r})"


class Event:
    """A one-shot occurrence at a point in simulated time.

    Callbacks receive the event itself once it is *processed*.  An event
    can succeed with a ``value`` or fail with an exception; a failed
    event re-raises inside every process that waited on it unless it is
    marked :attr:`defused`.
    """

    __slots__ = ("env", "callbacks", "_value", "_exception", "_state", "defused")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._state = EventState.PENDING
        #: when True, an un-waited-for failure does not crash the run
        self.defused = False

    # -- state inspection -------------------------------------------------
    @property
    def state(self) -> EventState:
        return self._state

    @property
    def triggered(self) -> bool:
        return self._state is not EventState.PENDING

    @property
    def processed(self) -> bool:
        return self._state is EventState.PROCESSED

    @property
    def ok(self) -> bool:
        """True once the event triggered successfully."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        if self._state is EventState.PENDING:
            raise SimulationError("value of a pending event is undefined")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exception

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._state is not EventState.PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._value = value
        self._state = EventState.TRIGGERED
        self.env._enqueue(self, delay=0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception."""
        if self._state is not EventState.PENDING:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        self._state = EventState.TRIGGERED
        self.env._enqueue(self, delay=0.0)
        return self

    def trigger(self, source: "Event") -> None:
        """Copy the outcome of ``source`` onto this event (condition glue)."""
        if source._exception is not None:
            self.fail(source._exception)
        else:
            self.succeed(source._value)

    # -- processing (kernel internal) ---------------------------------------
    def _process(self) -> None:
        """Run callbacks; called exactly once by the environment."""
        assert self._state is EventState.TRIGGERED
        self._state = EventState.PROCESSED
        callbacks, self.callbacks = self.callbacks, None
        for cb in callbacks or ():
            cb(self)

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Run ``fn(event)`` when processed (immediately if already done)."""
        if self.callbacks is None:
            # Already processed: run immediately so latecomers still see it.
            fn(self)
        else:
            self.callbacks.append(fn)

    def hand_over(self, other: "Event") -> None:
        """Move this pending event's waiters onto ``other``.

        Every callback moves, in order, and a process suspended on this
        event is re-targeted to ``other``, so
        :meth:`~repro.sim.process.Process.interrupt` detaches it from
        ``other`` and it resumes once, when ``other`` is processed.
        This event still fires on schedule, now with no waiter.
        """
        callbacks = self.callbacks
        if callbacks is None:
            raise SimulationError("cannot hand over the waiters of a processed event")
        self.callbacks = []
        for fn in callbacks:
            waiter = getattr(fn, "__self__", None)
            if getattr(waiter, "_target", None) is self:
                waiter._target = other
            other.add_callback(fn)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} state={self._state.value}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        super().__init__(env)
        self.delay = float(delay)
        self._value = value
        self._state = EventState.TRIGGERED
        env._enqueue(self, delay=self.delay)

    def _reinit(self, delay: float, value: Any = None) -> "Timeout":
        """Rearm a recycled instance (kernel internal, free-list path)."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self.callbacks = []
        self._value = value
        self._exception = None
        self.defused = False
        self.delay = float(delay)
        self._state = EventState.TRIGGERED
        self.env._enqueue(self, delay=self.delay)
        return self


class ConditionEvent(Event):
    """Composite event over several child events.

    The condition is satisfied once ``needed`` children have succeeded
    (a plain counter — cheaper on the hot path than re-evaluating a
    predicate per child).  On satisfaction the condition succeeds with
    a dict mapping each *triggered* child event to its value (insertion
    ordered), mirroring SimPy's ``ConditionValue`` semantics but with a
    plain dict for simplicity.
    """

    __slots__ = ("_children", "_done", "_needed")

    def __init__(
        self,
        env: "Environment",
        children: Iterable[Event],
        needed: int,
    ):
        super().__init__(env)
        self._children = list(children)
        self._done = 0
        self._needed = needed
        for child in self._children:
            if child.env is not env:
                raise SimulationError("cannot mix events from different environments")
        if not self._children and needed <= 0:
            self.succeed({})
            return
        for child in self._children:
            child.add_callback(self._on_child)

    def _collect(self) -> dict:
        return {
            ev: ev._value
            for ev in self._children
            if ev.processed and ev._exception is None
        }

    def _on_child(self, child: Event) -> None:
        if self.triggered:
            return
        if child._exception is not None:
            child.defused = True
            self.fail(child._exception)
            return
        self._done += 1
        if self._done >= self._needed:
            self.succeed(self._collect())


class AllOf(ConditionEvent):
    """Succeeds when every child event has succeeded."""

    def __init__(self, env: "Environment", children: Iterable[Event]):
        children = list(children)
        super().__init__(env, children, len(children))


class AnyOf(ConditionEvent):
    """Succeeds as soon as one child event succeeds."""

    def __init__(self, env: "Environment", children: Iterable[Event]):
        super().__init__(env, children, 1)
