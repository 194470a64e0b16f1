"""The kernel's contention primitive: a FIFO :class:`Resource`.

The disk channel (:class:`~repro.hostos.storage.StorageDevice`) is a
capacity-1 :class:`Resource`; the CPU and AP airtime are fluid models
of their own (:mod:`repro.hostos.cpu`, :mod:`repro.network.link`).

The API mirrors SimPy closely so the process code reads idiomatically::

    with disk.request() as req:
        yield req
        yield env.timeout(service_time)
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, List

from .events import Event, EventState

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment

__all__ = ["Request", "Resource"]


class Request(Event):
    """Pending claim on a :class:`Resource` slot. Usable as a context manager."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        if len(resource._users) < resource._capacity:
            # Uncontended: granted on the spot with no heap event, so a
            # process that yields it resumes at once, and a caller that
            # sees ``triggered`` need not yield it at all.
            resource._users.append(self)
            self._value = self
            self._state = EventState.PROCESSED
            self.callbacks = None
        else:
            resource._queue.append(self)

    def cancel(self) -> None:
        """Withdraw an un-granted request (no-op once granted)."""
        if not self.triggered:
            try:
                self.resource._queue.remove(self)
            except ValueError:  # pragma: no cover - already granted/raced
                pass

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.triggered:
            # Nobody waits on a context-managed release: free the slot
            # without scheduling an event.
            self.resource._free(self)
        else:
            self.cancel()


class Resource:
    """A pool of ``capacity`` identical slots with FIFO granting."""

    def __init__(self, env: "Environment", capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.env = env
        self._capacity = int(capacity)
        self._users: List[Request] = []
        self._queue: Deque[Request] = deque()

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def count(self) -> int:
        """Number of slots currently in use."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    def request(self) -> Request:
        """Claim a slot; yield the returned event to wait for the grant."""
        return Request(self)

    # -- internals -----------------------------------------------------------
    def _free(self, request: Request) -> None:
        if request in self._users:
            self._users.remove(request)
            while self._queue and len(self._users) < self._capacity:
                nxt = self._queue.popleft()
                self._users.append(nxt)
                nxt.succeed(nxt)
