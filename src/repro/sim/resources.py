"""Shared-resource primitives: Resource, PriorityResource, Container, Store.

These model contention inside the cloud server: CPU cores are a
:class:`Resource`, memory and disk capacity are :class:`Container`\\ s,
and queues of pending offloading requests are :class:`Store`\\ s.

The API mirrors SimPy closely so the process code reads idiomatically::

    with cpu.request() as req:
        yield req
        yield env.timeout(service_time)
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, List, Optional

from .events import Event, EventState

if TYPE_CHECKING:  # pragma: no cover
    from .core import Environment

__all__ = [
    "Request",
    "Release",
    "Resource",
    "PriorityRequest",
    "PriorityResource",
    "Container",
    "Store",
    "StorePut",
    "StoreGet",
]


class Request(Event):
    """Pending claim on a :class:`Resource` slot. Usable as a context manager."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.env)
        self.resource = resource
        resource._do_request(self)

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
            # without scheduling a Release event.
            self.resource._free(self)
        else:
            self.cancel()


class Release(Event):
    """Immediate-release event (always already succeeded)."""

    __slots__ = ()


class Resource:
    """A pool of ``capacity`` identical slots with FIFO granting."""

    def __init__(self, env: "Environment", capacity: int = 1):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity!r}")
        self.env = env
        self._capacity = int(capacity)
        self._users: List[Request] = []
        self._queue: "Deque[Request] | List[Request]" = deque()

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

    def release(self, request: Request) -> Release:
        """Free a granted slot, waking the next waiter."""
        self._free(request)
        rel = Release(self.env)
        rel.succeed()
        return rel

    # -- internals -----------------------------------------------------------
    def _free(self, request: Request) -> None:
        if request in self._users:
            self._users.remove(request)
            self._grant_waiters()

    def _grant(self, request: Request) -> None:
        """Grant an uncontended request on the spot.

        No heap event: the request is processed at creation, so a
        process that yields it resumes at once, and a caller that sees
        ``request.triggered`` need not yield it at all.
        """
        self._users.append(request)
        request._value = request
        request._state = EventState.PROCESSED
        request.callbacks = None

    def _do_request(self, request: Request) -> None:
        if len(self._users) < self._capacity:
            self._grant(request)
        else:
            self._queue.append(request)

    def _pop_next(self) -> Request:
        return self._queue.popleft()  # type: ignore[union-attr]

    def _grant_waiters(self) -> None:
        while self._queue and len(self._users) < self._capacity:
            nxt = self._pop_next()
            self._users.append(nxt)
            nxt.succeed(nxt)


class PriorityRequest(Request):
    """Request carrying a priority (lower value = served first)."""

    __slots__ = ("priority", "_order")

    def __init__(self, resource: "PriorityResource", priority: float = 0.0):
        self.priority = priority
        self._order = resource._next_order()
        super().__init__(resource)

    def _sort_key(self):
        return (self.priority, self._order)


class PriorityResource(Resource):
    """Resource whose wait queue is ordered by request priority."""

    def __init__(self, env: "Environment", capacity: int = 1):
        super().__init__(env, capacity)
        self._queue = []  # kept sorted by (priority, arrival order)
        self._order_seq = 0

    def _next_order(self) -> int:
        self._order_seq += 1
        return self._order_seq

    def request(self, priority: float = 0.0) -> PriorityRequest:  # type: ignore[override]
        return PriorityRequest(self, priority)

    def _pop_next(self) -> Request:
        return self._queue.pop(0)  # type: ignore[union-attr]

    def _do_request(self, request: Request) -> None:
        """Claim a slot with a priority (lower = served first)."""
        if len(self._users) < self._capacity:
            self._grant(request)
        else:
            # insort keeps the queue ordered without re-sorting it on
            # every arrival (the old O(n log n) per request).
            insort(self._queue, request, key=lambda r: r._sort_key())  # type: ignore[arg-type]


class ContainerPut(Event):
    __slots__ = ("amount",)

    def __init__(self, env: "Environment", amount: float):
        if amount <= 0:
            raise ValueError("put amount must be positive")
        super().__init__(env)
        self.amount = amount


class ContainerGet(Event):
    __slots__ = ("amount",)

    def __init__(self, env: "Environment", amount: float):
        if amount <= 0:
            raise ValueError("get amount must be positive")
        super().__init__(env)
        self.amount = amount


class Container:
    """A homogeneous bulk resource with a level between 0 and capacity.

    Used for memory (MB) and disk (bytes) accounting where individual
    units are indistinguishable.
    """

    def __init__(
        self,
        env: "Environment",
        capacity: float = float("inf"),
        init: float = 0.0,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not (0 <= init <= capacity):
            raise ValueError("init level must lie in [0, capacity]")
        self.env = env
        self._capacity = float(capacity)
        self._level = float(init)
        self._puts: Deque[ContainerPut] = deque()
        self._gets: Deque[ContainerGet] = deque()

    @property
    def capacity(self) -> float:
        return self._capacity

    @property
    def level(self) -> float:
        return self._level

    @property
    def free(self) -> float:
        return self._capacity - self._level

    def put(self, amount: float) -> ContainerPut:
        """Deposit ``amount``; the event fires when capacity allows."""
        ev = ContainerPut(self.env, amount)
        self._puts.append(ev)
        self._settle()
        return ev

    def get(self, amount: float) -> ContainerGet:
        """Withdraw ``amount``; the event fires when the level allows."""
        ev = ContainerGet(self.env, amount)
        self._gets.append(ev)
        self._settle()
        return ev

    def _settle(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._puts and self._level + self._puts[0].amount <= self._capacity:
                ev = self._puts.popleft()
                self._level += ev.amount
                ev.succeed()
                progress = True
            if self._gets and self._gets[0].amount <= self._level:
                ev = self._gets.popleft()
                self._level -= ev.amount
                ev.succeed()
                progress = True


class StorePut(Event):
    __slots__ = ("item",)

    def __init__(self, env: "Environment", item: Any):
        super().__init__(env)
        self.item = item


class StoreGet(Event):
    __slots__ = ("filter",)

    def __init__(self, env: "Environment", filter: Optional[Callable[[Any], bool]]):
        super().__init__(env)
        self.filter = filter


class Store:
    """FIFO store of distinguishable items with optional filtered gets.

    The Dispatcher's inbound request queue and the App Warehouse's
    fetch interface are built on this.
    """

    def __init__(self, env: "Environment", capacity: float = float("inf")):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self._capacity = capacity
        self.items: List[Any] = []
        self._puts: Deque[StorePut] = deque()
        self._gets: List[StoreGet] = []

    @property
    def capacity(self) -> float:
        return self._capacity

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Insert an item; waits while the store is full."""
        ev = StorePut(self.env, item)
        self._puts.append(ev)
        self._settle()
        return ev

    def get(self, filter: Optional[Callable[[Any], bool]] = None) -> StoreGet:
        """Take the first (matching) item; waits if none available."""
        ev = StoreGet(self.env, filter)
        self._gets.append(ev)
        self._settle()
        return ev

    def _settle(self) -> None:
        progress = True
        while progress:
            progress = False
            # Admit pending puts while capacity allows.
            while self._puts and len(self.items) < self._capacity:
                ev = self._puts.popleft()
                self.items.append(ev.item)
                ev.succeed()
                progress = True
            # Serve pending gets, respecting per-get filters.
            for get_ev in list(self._gets):
                match_idx = None
                for i, item in enumerate(self.items):
                    if get_ev.filter is None or get_ev.filter(item):
                        match_idx = i
                        break
                if match_idx is not None:
                    item = self.items.pop(match_idx)
                    self._gets.remove(get_ev)
                    get_ev.succeed(item)
                    progress = True
