"""Span tracing for the benchmark's traced run, from outside the program.

The simulator is not edited: :func:`installed` swaps the public entry
points of each ``repro`` layer (listed in :data:`ENTRY_POINTS`) for
timing wrappers and restores them on exit.  Every call becomes one span
— name, start, end, parent span, request id — held in columnar arrays
and written out once the run ends.

Many layer methods are generators that the event loop (or an outer
``yield from``) resumes many times.  Timing the call that creates the
generator would measure nothing, so a generator entry point is wrapped
in a generator that records one span per resume, from the ``send`` to
the next ``yield``.  Nested ``yield from`` chains therefore nest their
spans exactly as the calls nest.

A span's self time is its duration minus the time its child spans
cover.  Host time the wrappers do not cover (the event loop, event
callbacks, benchmark code) is the residual attributed to ``repro.sim``.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import os
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped function: where it lives and how its spans are named."""

    module: str
    #: class name, or "" for a module-level function
    owner: str
    attr: str
    #: span name; the part before the first dot is the layer
    name: str
    #: positional index of the OffloadRequest argument, if any
    request_arg: Optional[int] = None


#: The public entry points of each layer, plus three private methods that
#: are a layer's real boundary: ``CloudPlatform._serve`` (the serve-path
#: generator ``submit`` starts) and the event-loop callbacks
#: ``FluidChannel._wake`` and ``PopulationSource._run``, whose time would
#: otherwise fall into the sim residual.
ENTRY_POINTS: Tuple[EntryPoint, ...] = (
    # repro.network: transfers and the fluid fair-share channel
    EntryPoint("repro.network.link", "Link", "transmit", "network.transmit"),
    EntryPoint("repro.network.link", "Link", "connect", "network.connect"),
    EntryPoint("repro.network.link", "FluidChannel", "add", "network.flow_add"),
    EntryPoint("repro.network.link", "FluidChannel", "cancel", "network.flow_cancel"),
    EntryPoint("repro.network.link", "FluidChannel", "_wake", "network.flow_wake"),
    # repro.platform.cluster + repro.platform.base: the serve path
    EntryPoint("repro.platform.cluster", "ClusterPlatform", "submit", "serve.submit", 1),
    EntryPoint("repro.platform.base", "CloudPlatform", "submit", "serve.node_submit", 1),
    EntryPoint("repro.platform.base", "CloudPlatform", "_serve", "serve.serve", 1),
    # repro.platform.dispatcher
    EntryPoint("repro.platform.dispatcher", "Dispatcher", "acquire", "dispatcher.acquire", 1),
    EntryPoint("repro.platform.dispatcher", "Dispatcher", "preboot", "dispatcher.preboot"),
    EntryPoint("repro.platform.dispatcher", "Dispatcher", "drain_pool", "dispatcher.drain_pool"),
    # boot path: repro.runtime (+ repro.unionfs / repro.hostos underneath)
    EntryPoint("repro.platform.rattrap", "RattrapPlatform", "make_runtime", "runtime.create", 2),
    EntryPoint("repro.platform.rattrap", "RattrapPlatform", "make_pool_runtime", "runtime.create_pool"),
    EntryPoint("repro.runtime.base", "RuntimeEnvironment", "boot", "runtime.boot"),
    EntryPoint("repro.runtime.base", "RuntimeEnvironment", "stop", "runtime.stop"),
    EntryPoint("repro.android.boot", "BootSequence", "run", "runtime.boot_sequence"),
    # repro.platform.shared_layer: Sharing Offloading I/O staging
    EntryPoint("repro.platform.shared_layer", "OffloadingIOLayer", "stage", "io.stage"),
    EntryPoint("repro.platform.shared_layer", "OffloadingIOLayer", "burn", "io.burn"),
    # repro.platform.warehouse
    EntryPoint("repro.platform.warehouse", "AppWarehouse", "lookup", "warehouse.lookup"),
    EntryPoint("repro.platform.warehouse", "AppWarehouse", "store", "warehouse.store"),
    EntryPoint("repro.platform.warehouse", "AppWarehouse", "register_execution", "warehouse.register"),
    # repro.platform.compute_cache
    EntryPoint("repro.platform.compute_cache", "ComputeResultCache", "lookup", "cache.lookup", 1),
    EntryPoint("repro.platform.compute_cache", "ComputeResultCache", "offer", "cache.offer", 1),
    # repro.platform.scheduler + the idle reaper
    EntryPoint("repro.platform.scheduler", "WarmPoolPredictor", "tick", "scheduler.tick"),
    EntryPoint("repro.platform.base", "CloudPlatform", "reap_idle_runtimes", "reaper.scan"),
    # repro.offload + repro.traces: the client replay (looked up by
    # replay_trace under the name it imported)
    EntryPoint("repro.traces.replay", "", "replay_inflow", "client.replay_inflow"),
    # repro.sim.shard: the epoch loop and its per-shard halves
    EntryPoint("workloads", "", "run_sharded", "shard.run_sharded"),
    EntryPoint("repro.sim.shard", "ShardRunner", "inject", "shard.inject"),
    EntryPoint("repro.sim.shard", "ShardRunner", "advance_to", "sim.advance_to"),
    # repro.platform.population: the mesoscale tick process
    EntryPoint("repro.platform.population", "PopulationSource", "_run", "population.tick"),
)


class Recorder:
    """In-memory span store with running self-time aggregates."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: host clock at creation, for a wall timed apart from the spans
        self.created = perf_counter()
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self.request_ids = array("q")
        self._stack: List[int] = []
        self._child: List[float] = []
        self._rid: List[int] = []
        #: per name id: spans, calls (generator creations count once),
        #: summed duration and summed self time
        self.spans: List[int] = []
        self.calls: List[int] = []
        self.total_s: List[float] = []
        self.self_s: List[float] = []
        #: summed duration of spans without a parent
        self.root_s = 0.0
        #: closes that did not match the innermost open span
        self.misnested = 0

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.spans.append(0)
            self.calls.append(0)
            self.total_s.append(0.0)
            self.self_s.append(0.0)
        return nid

    def open(self, nid: int, rid: int) -> int:
        stack = self._stack
        idx = len(self.starts)
        if stack:
            self.parents.append(stack[-1])
            if rid < 0:
                rid = self._rid[-1]
        else:
            self.parents.append(-1)
        self.name_ids.append(nid)
        self.request_ids.append(rid)
        stack.append(idx)
        self._child.append(0.0)
        self._rid.append(rid)
        self.ends.append(0.0)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        end = perf_counter()
        self.ends[idx] = end
        stack = self._stack
        if not stack or stack[-1] != idx:
            self.misnested += 1
            return
        stack.pop()
        self._rid.pop()
        child = self._child.pop()
        duration = end - self.starts[idx]
        nid = self.name_ids[idx]
        self.spans[nid] += 1
        self.total_s[nid] += duration
        self.self_s[nid] += duration - child
        if self._child:
            self._child[-1] += duration
        else:
            self.root_s += duration

    @property
    def open_spans(self) -> int:
        return len(self._stack)

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """Aggregates keyed by span name."""
        return {
            name: {
                "spans": self.spans[i],
                "calls": self.calls[i],
                "total_s": self.total_s[i],
                "self_s": self.self_s[i],
            }
            for i, name in enumerate(self.names)
        }

    def tiling_error_s(self) -> float:
        """|sum of self times - sum of root durations| (0 when spans nest)."""
        return abs(sum(self.self_s) - self.root_s)

    def write(self, path: str) -> None:
        """Write every span as columnar arrays (numpy ``.npz``)."""
        import numpy as np

        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names, dtype=object).astype(str),
            name=np.frombuffer(self.name_ids, dtype=np.int32),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            request_id=np.frombuffer(self.request_ids, dtype=np.int64),
        )


#: the recorder the installed wrappers write to (swapped per traced run,
#: and replaced in a forked shard worker so the worker starts clean)
_current: List[Recorder] = [Recorder()]


def current() -> Recorder:
    return _current[0]


def reset_in_child() -> Optional[Recorder]:
    """Give a forked process its own empty recorder; None in the parent."""
    if _current[0].pid == os.getpid():
        return None
    _current[0] = Recorder()
    return _current[0]


def _request_id(args: tuple, index: Optional[int]) -> int:
    if index is None or index >= len(args):
        return -1
    return getattr(args[index], "request_id", -1)


def _wrap_call(fn: Callable, name: str, request_arg: Optional[int]) -> Callable:
    def traced(*args, **kwargs):
        rec = _current[0]
        nid = rec.name_id(name)
        rec.calls[nid] += 1
        idx = rec.open(nid, _request_id(args, request_arg))
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)

    traced.__wrapped__ = fn
    return traced


def _resumes(gen, name: str, rid: int):
    """Drive ``gen`` exactly like ``yield from``, one span per resume."""
    send, throw = gen.send, gen.throw
    value = None
    exc: Optional[BaseException] = None
    while True:
        rec = _current[0]
        idx = rec.open(rec.name_id(name), rid)
        try:
            if exc is None:
                target = send(value)
            else:
                pending, exc = exc, None
                target = throw(pending)
        except StopIteration as stop:
            return stop.value
        finally:
            rec.close(idx)
        try:
            value = yield target
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as thrown:  # forwarded into gen, like yield from
            exc, value = thrown, None


def _wrap_generator(fn: Callable, name: str, request_arg: Optional[int]) -> Callable:
    def traced(*args, **kwargs):
        rec = _current[0]
        rec.calls[rec.name_id(name)] += 1
        return _resumes(fn(*args, **kwargs), name, _request_id(args, request_arg))

    traced.__wrapped__ = fn
    return traced


def _target(point: EntryPoint) -> Any:
    module = importlib.import_module(point.module)
    return getattr(module, point.owner) if point.owner else module


@contextlib.contextmanager
def installed(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every entry point for the duration of the block."""
    saved = []
    _current[0] = recorder
    try:
        for point in ENTRY_POINTS:
            owner = _target(point)
            original = owner.__dict__[point.attr]
            wrap = (
                _wrap_generator
                if inspect.isgeneratorfunction(original)
                else _wrap_call
            )
            saved.append((owner, point.attr, original))
            setattr(owner, point.attr, wrap(original, point.name, point.request_arg))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

