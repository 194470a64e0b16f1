"""The simulation environment: clock, event heap, run loop.

The :class:`Environment` is the single shared object threaded through
every substrate in :mod:`repro` — the cloud server, network links,
mobile devices and the Rattrap platform itself all schedule their work
on one heap so that cross-component timings compose correctly.

Time is a float in **seconds** throughout the code base.
"""

from __future__ import annotations

import heapq
from sys import getrefcount
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

from .events import AllOf, AnyOf, Event, EventState, SimulationError, Timeout
from .process import Process

__all__ = ["Environment", "EmptySchedule", "StopSimulation"]

#: Upper bound on the Timeout free list: enough to absorb the steady
#: state of the largest experiments without pinning memory forever.
_TIMEOUT_POOL_CAP = 1024


class EmptySchedule(Exception):
    """Raised internally when the event heap runs dry."""


class StopSimulation(Exception):
    """Raised to stop :meth:`Environment.run` from within a callback."""

    def __init__(self, value: Any = None):
        super().__init__(value)
        self.value = value


class Environment:
    """Discrete-event simulation environment.

    Example
    -------
    >>> env = Environment()
    >>> def proc(env):
    ...     yield env.timeout(3.0)
    ...     return "done"
    >>> p = env.process(proc(env))
    >>> env.run()
    >>> env.now
    3.0
    """

    #: when set (see :func:`repro.obs.enable_auto`), every new
    #: environment gets an Observability attached at construction
    obs_factory: Optional[Callable[["Environment"], Any]] = None

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, Event]] = []
        self._seq = 0  # tie-breaker keeps FIFO order for simultaneous events
        #: tie-break slot of the event being (or last) processed; at
        #: ``now`` every slot up to it has been processed
        self._slot = -1
        self._active_process: Optional[Process] = None
        #: recycled Timeout instances (see the run-loop refcount check)
        self._timeout_pool: List[Timeout] = []
        #: the attached FaultInjector, if any (set by repro.faults);
        #: the retrying client probes its link_down() before each attempt
        self.faults: Optional[Any] = None
        #: the attached Observability (tracer + metrics registry), if
        #: any — None keeps every instrumentation site on its fast path
        self.obs: Optional[Any] = None
        #: the attached TenancyManager, if any (set by
        #: repro.platform.tenancy) — None disables per-tenant
        #: accounting and every isolation countermeasure
        self.tenancy: Optional[Any] = None
        factory = type(self).obs_factory
        if factory is not None:
            factory(self)

    # -- clock ---------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    @property
    def event_count(self) -> int:
        """Total events scheduled so far — a throughput odometer."""
        return self._seq

    # -- event factories -------------------------------------------------------
    def event(self) -> Event:
        """A bare, manually triggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now.

        Timeouts dominate event traffic, so consumed ones are recycled
        through a free list instead of hitting the allocator each time.
        """
        pool = self._timeout_pool
        if pool:
            return pool.pop()._reinit(delay, value)
        return Timeout(self, delay, value)

    def timeout_at(
        self, when: float, value: Any = None, order: Optional[int] = None
    ) -> Timeout:
        """An event that fires at the absolute instant ``when``, exactly.

        ``timeout(when - now)`` lands on ``now + (when - now)``, which
        need not round back to ``when``; this schedules ``when`` itself.

        ``order`` sets the tie-break among events at the same instant.
        By default the timeout takes the next :attr:`event_count` slot,
        like any new event.  An earlier ``order`` places it as if it had
        been scheduled when :attr:`event_count` read ``order``; no other
        event pending at ``when`` may hold that slot.
        """
        if when < self._now:
            raise ValueError(
                f"timeout_at({when!r}) lies in the past (now={self._now!r})"
            )
        if order is None:
            order = self._seq
            self._seq += 1
        elif not 0 <= order < self._seq:
            raise ValueError(f"order {order!r} is not a slot already taken")
        pool = self._timeout_pool
        timeout = pool.pop() if pool else Timeout.__new__(Timeout)
        # Armed in place, as Timeout._reinit does for a relative delay.
        timeout.env = self
        timeout.callbacks = []
        timeout._value = value
        timeout._exception = None
        timeout.defused = False
        timeout.delay = when - self._now
        timeout._state = EventState.TRIGGERED
        heapq.heappush(self._queue, (when, order, timeout))
        return timeout

    def process(self, generator: Generator) -> Process:
        """Register ``generator`` as a concurrently running process."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Condition event succeeding when every child succeeds."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Condition event succeeding on the first child success."""
        return AnyOf(self, events)

    # -- scheduling (kernel internal) -------------------------------------------
    def _enqueue(self, event: Event, delay: float) -> None:
        heapq.heappush(self._queue, (self._now + delay, self._seq, event))
        self._seq += 1

    def peek(self) -> float:
        """Time of the next scheduled event, ``inf`` if none.

        After ``run(until=t)`` returns, ``peek() > t`` strictly: events
        scheduled exactly at the horizon are processed before the run
        loop stops (see :meth:`run`).  The sharded kernel's idle-epoch
        skipping (:mod:`repro.sim.shard`) relies on this contract to
        prove a sync round empty before eliding it.
        """
        return self._queue[0][0] if self._queue else float("inf")

    # -- run loop -----------------------------------------------------------------
    def run(self, until: "float | Event | None" = None) -> Any:
        """Advance the simulation.

        ``until`` may be ``None`` (run until the heap is empty), a time
        (run up to that instant), or an :class:`Event` (run until it is
        processed, returning its value).

        A time horizon is *inclusive*: an event scheduled exactly at
        ``until`` fires before the loop stops (only ``when > horizon``
        breaks), so back-to-back windows ``run(until=a); run(until=b)``
        partition events as ``(-inf, a], (a, b]`` with none lost or
        double-fired at the seams.
        """
        stop_event: Optional[Event] = None
        horizon = float("inf")
        if isinstance(until, Event):
            stop_event = until
            if stop_event.processed:
                return stop_event.value
            stop_event.add_callback(self._stop_callback)
        elif until is not None:
            horizon = float(until)
            if horizon < self._now:
                raise ValueError(
                    f"until={horizon!r} lies in the past (now={self._now!r})"
                )

        # Hot loop: the whole simulation funnels through here, so the heap
        # is popped directly instead of via a per-event method call.
        queue = self._queue
        pop = heapq.heappop
        pool = self._timeout_pool
        try:
            while True:
                if not queue:
                    if horizon != float("inf"):
                        self._stop_at(horizon)
                        break
                    raise EmptySchedule()
                when = queue[0][0]
                if when > horizon:
                    self._stop_at(horizon)
                    break
                _, self._slot, event = pop(queue)
                self._now = when
                event._process()
                # Surface failures nobody waited on: silent loss hides
                # model bugs.
                if event._exception is not None and not event.defused:
                    raise event._exception
                # Recycle dead Timeouts.  refcount == 2 (the loop local +
                # the getrefcount argument) proves nothing else still
                # holds the event — condition events, interrupt
                # bookkeeping or user code would each add a reference
                # and veto the recycle.
                if (
                    type(event) is Timeout
                    and len(pool) < _TIMEOUT_POOL_CAP
                    and getrefcount(event) == 2
                ):
                    pool.append(event)
        except EmptySchedule:
            if stop_event is not None and not stop_event.triggered:
                raise SimulationError(
                    "run(until=event) finished without the event triggering"
                ) from None
        except StopSimulation as stop:
            return stop.value
        if stop_event is not None:
            return stop_event.value if stop_event.triggered else None
        return None

    def _stop_at(self, horizon: float) -> None:
        """Park the clock at a run horizon; every slot taken so far
        counts as processed there (see :meth:`has_processed`)."""
        self._now = horizon
        self._slot = self._seq - 1

    def has_processed(self, when: float, order: int) -> bool:
        """Whether an event at ``when`` in tie-break slot ``order``
        would have been processed by now — the question a model that
        elides such an event (see :meth:`timeout_at`) must answer."""
        return when < self._now or (when == self._now and order <= self._slot)

    @staticmethod
    def _stop_callback(event: Event) -> None:
        if event.exception is not None:
            event.defused = True
            raise event.exception
        raise StopSimulation(event._value)

    # -- convenience -----------------------------------------------------------
    def defer(self, fn: Callable[[], None], delay: float = 0.0) -> Event:
        """Run a zero-argument callable at ``now + delay``."""
        ev = self.timeout(delay)
        ev.add_callback(lambda _ev: fn())
        return ev

    def defer_at(self, fn: Callable[[], None], when: float) -> Event:
        """Run a zero-argument callable at the absolute instant ``when``.

        The absolute-time twin of :meth:`defer`, for callers that hold
        a timestamp rather than a delay (e.g. a cross-shard message's
        ``deliver_at``).  Scheduling in the past is an error.
        """
        if when < self._now:
            raise ValueError(
                f"defer_at({when!r}) lies in the past (now={self._now!r})"
            )
        return self.defer(fn, when - self._now)
