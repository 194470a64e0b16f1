"""Hostile-tenant adversary library (multi-tenant chaos).

Fault plans model *accidents* — crashes, outages, blackouts.  This
module models *abuse*: co-tenant applications that are alive and
well-formed but hostile, each built to exhaust one shared resource of
the platform:

- :class:`PermissionStorm` — floods requests whose declared workflow
  is pure forbidden operations, burning the access controller's
  analysis CPU;
- :class:`AirtimeHog` — saturates a shared access-point radio with
  parallel bulk flows, starving honest tenants of airtime;
- :class:`ResidencySquatter` — stages unique payloads into the shared
  tmpfs offloading layer and never burns them;
- :class:`CacheSquatter` — floods the compute-result cache with forged
  repeat-looking junk, ghost-priming the adaptive admission estimator
  so every offer looks worth caching;
- :class:`WarmPoolSquatter` — fakes arrival-rate demand so the warm
  pool pre-boots containers for an app that never shows up;
- :class:`RetryAmplifier` — a zero-backoff closed loop that resubmits
  denied requests as fast as the platform answers them.

Adversaries run as defused background processes launched through
:meth:`~repro.faults.injector.FaultInjector.launch`, so a run that
ends mid-attack never crashes, and any jitter they need draws from
named streams of the plan seed — hostile runs replay byte-identically.
Every adversary tags its traffic with its ``app_id``, which is exactly
what the tenancy ledger attributes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Tuple

from ..offload.request import OffloadRequest
from .errors import ResourceExhausted

if TYPE_CHECKING:  # pragma: no cover
    from ..network.link import Link
    from ..sim.core import Environment
    from ..workloads.base import WorkloadProfile
    from .injector import FaultInjector

__all__ = [
    "Adversary",
    "PermissionStorm",
    "AirtimeHog",
    "ResidencySquatter",
    "CacheSquatter",
    "WarmPoolSquatter",
    "RetryAmplifier",
]

#: request ids for hostile traffic start here so they never collide
#: with honest inflow (which numbers from 0)
ADVERSARY_REQUEST_BASE = 1_000_000


class Adversary:
    """One hostile tenant: an abuse loop bound to an ``app_id``.

    Subclasses implement :meth:`run` as a simulation-process generator;
    ``actions`` counts abuse attempts that landed and ``denied`` those
    the platform turned away — the off/on delta of the two is the
    countermeasure's visible bite.
    """

    kind = "adversary"

    def __init__(self, app_id: str, start_s: float = 0.0, duration_s: float = 30.0):
        if start_s < 0:
            raise ValueError("start_s must be >= 0")
        if duration_s <= 0:
            raise ValueError("duration_s must be positive")
        self.app_id = app_id
        self.start_s = start_s
        self.duration_s = duration_s
        self.actions = 0
        self.denied = 0

    def run(self, env: "Environment", injector: "FaultInjector") -> Generator:
        """The abuse loop, as a simulation-process generator."""
        raise NotImplementedError

    def _window(self, env: "Environment") -> Generator:
        """Wait out ``start_s`` and return the attack's end time."""
        if self.start_s > 0:
            yield env.timeout(self.start_s)
        return env.now + self.duration_s


class PermissionStorm(Adversary):
    """Open-loop flood of requests declaring forbidden workflows.

    Each request's ``operations`` tuple is pure malice, so every one
    burns admission analysis plus per-operation filter CPU before it
    is denied.  With violation blocking disabled the storm taxes the
    host CPU forever; with escalating blocks the app goes dark after
    ``violation_threshold`` operations.
    """

    kind = "permission-storm"

    def __init__(
        self,
        app_id: str,
        profile: "WorkloadProfile",
        link: "Link",
        interval_s: float = 0.25,
        operations: Tuple[str, ...] = ("fs.shared_layer_write", "devns.escape"),
        start_s: float = 0.0,
        duration_s: float = 30.0,
    ):
        super().__init__(app_id, start_s=start_s, duration_s=duration_s)
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.profile = profile
        self.link = link
        self.interval_s = interval_s
        self.operations = tuple(operations)

    def run(self, env: "Environment", injector: "FaultInjector") -> Generator:
        """Fire forbidden-workflow requests on a fixed cadence."""
        end = yield from self._window(env)
        i = 0
        while env.now < end:
            request = OffloadRequest(
                request_id=ADVERSARY_REQUEST_BASE + i,
                device_id=f"adv-{self.app_id}",
                app_id=self.app_id,
                profile=self.profile,
                submitted_at=env.now,
                seq_on_device=i,
                operations=self.operations,
            )
            proc = injector.platform.submit(request, self.link)
            proc.defused = True  # open loop: fire and forget
            env.process(self._score(env, proc))
            self.actions += 1
            i += 1
            yield env.timeout(self.interval_s)

    def _score(self, env: "Environment", proc) -> Generator:
        try:
            result = yield proc
        except GeneratorExit:
            raise  # run ended mid-attack; nothing left to score
        except BaseException:
            self.denied += 1
            return
        if result is not None and result.blocked:
            self.denied += 1


class AirtimeHog(Adversary):
    """Bulk flows that monopolise a shared radio's airtime.

    ``streams`` concurrent pumps each loop full-size transfers on the
    shared :class:`~repro.network.link.FlowLink`.  Under plain
    per-flow fair share, N hostile flows take N/(N+victims) of the
    medium; under per-tenant capped fair share they collectively get at
    most the tenant's cap, however many flows they open.
    """

    kind = "airtime-hog"

    def __init__(
        self,
        app_id: str,
        link: "Link",
        flow_bytes: int = 512 * 1024,
        streams: int = 6,
        start_s: float = 0.0,
        duration_s: float = 30.0,
    ):
        super().__init__(app_id, start_s=start_s, duration_s=duration_s)
        if flow_bytes <= 0:
            raise ValueError("flow_bytes must be positive")
        if streams < 1:
            raise ValueError("streams must be >= 1")
        self.link = link
        self.flow_bytes = flow_bytes
        self.streams = streams

    def run(self, env: "Environment", injector: "FaultInjector") -> Generator:
        """Keep ``streams`` parallel bulk flows on the radio."""
        end = yield from self._window(env)

        def pump(env: "Environment") -> Generator:
            while env.now < end:
                yield from self.link.transmit(
                    env, self.flow_bytes, "up", tenant=self.app_id
                )
                self.actions += 1

        procs = []
        for _ in range(self.streams):
            proc = env.process(pump(env))
            proc.defused = True
            procs.append(proc)
        yield env.all_of(procs)


class ResidencySquatter(Adversary):
    """Stages unique payloads into the shared tmpfs and never burns.

    Honest requests burn-after-reading; the squatter leaks.  Without a
    residency quota it eventually fills the staging tmpfs and honest
    staging dies on allocation; with a quota its own oldest payloads
    are burned instead and the leak plateaus at the quota.
    """

    kind = "residency-squat"

    def __init__(
        self,
        app_id: str,
        node_index: int = 0,
        chunk_kb: float = 512.0,
        interval_s: float = 0.2,
        start_s: float = 0.0,
        duration_s: float = 30.0,
    ):
        super().__init__(app_id, start_s=start_s, duration_s=duration_s)
        if chunk_kb <= 0:
            raise ValueError("chunk_kb must be positive")
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.node_index = node_index
        self.chunk_bytes = int(chunk_kb * 1024)
        self.interval_s = interval_s

    def run(self, env: "Environment", injector: "FaultInjector") -> Generator:
        """Leak one unique payload into tmpfs per interval."""
        node = injector.node(self.node_index)
        shared = node.shared_layer
        if shared is None:
            return
        io = shared.offload_io
        i = 0
        end = yield from self._window(env)
        while env.now < end:
            key = f"squat-{self.app_id}-{i}"
            try:
                io.stage(key, self.chunk_bytes, now=env.now, tenant=self.app_id)
                self.actions += 1
            except (ResourceExhausted, IOError):
                self.denied += 1
            i += 1
            yield env.timeout(self.interval_s)


class CacheSquatter(Adversary):
    """Floods the compute-result cache with forged repeat-looking junk.

    Each interval it fabricates a fresh unique-digest request, looks it
    up *twice* — the second lookup finds the first's ghost, so the
    adaptive admission estimator sees the app as repeat-heavy — then
    offers a result with an inflated ``execute_s`` so admission always
    looks worthwhile.  Without a per-tenant cache quota the junk LRU-
    evicts honest tenants' hot entries and their requests fall back to
    full execution; with a quota the squatter only ever burns its own
    oldest entries and the victims' hits survive.
    """

    kind = "cache-squat"

    def __init__(
        self,
        app_id: str,
        profile: "WorkloadProfile",
        node_index: int = 0,
        chunk_kb: float = 32.0,
        execute_s: float = 30.0,
        interval_s: float = 0.25,
        start_s: float = 0.0,
        duration_s: float = 30.0,
    ):
        super().__init__(app_id, start_s=start_s, duration_s=duration_s)
        if chunk_kb <= 0:
            raise ValueError("chunk_kb must be positive")
        if execute_s <= 0:
            raise ValueError("execute_s must be positive")
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.profile = profile
        self.node_index = node_index
        self.chunk_bytes = int(chunk_kb * 1024)
        self.execute_s = execute_s
        self.interval_s = interval_s

    def run(self, env: "Environment", injector: "FaultInjector") -> Generator:
        """Ghost-prime then offer one forged digest per interval."""
        node = injector.node(self.node_index)
        cache = node.compute_cache
        if cache is None:
            return
        i = 0
        end = yield from self._window(env)
        while env.now < end:
            request = OffloadRequest(
                request_id=ADVERSARY_REQUEST_BASE + i,
                device_id=f"adv-{self.app_id}",
                app_id=self.app_id,
                profile=self.profile,
                submitted_at=env.now,
                seq_on_device=i,
                payload_digest=f"squat-{self.app_id}-{i}",
            )
            cache.lookup(request)  # first sighting lands in the ghosts
            cache.lookup(request)  # second raises the app's repeat EWMA
            cache.offer(
                request,
                execute_s=self.execute_s,
                nbytes=self.chunk_bytes,
                now=env.now,
            )
            if cache.key_for(request) in cache:
                self.actions += 1
            else:
                self.denied += 1
            i += 1
            yield env.timeout(self.interval_s)


class WarmPoolSquatter(Adversary):
    """Inflates arrival-rate signals to hoard warm-pool containers.

    Each tick it reports phantom arrivals for its app to the node's
    warm-pool predictor, which obligingly pre-boots spares the app
    never uses.  Without a pool capacity the phantom demand evicts
    honest apps' spares and eats server memory; with capacity plus
    per-app reservation floors the victims keep their guaranteed
    spares and the squatter is refused at the cap.
    """

    kind = "pool-squat"

    def __init__(
        self,
        app_id: str,
        node_index: int = 0,
        phantom_per_tick: int = 8,
        interval_s: float = 1.0,
        start_s: float = 0.0,
        duration_s: float = 30.0,
    ):
        super().__init__(app_id, start_s=start_s, duration_s=duration_s)
        if phantom_per_tick < 1:
            raise ValueError("phantom_per_tick must be >= 1")
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.node_index = node_index
        self.phantom_per_tick = phantom_per_tick
        self.interval_s = interval_s

    def run(self, env: "Environment", injector: "FaultInjector") -> Generator:
        """Report phantom arrivals to the node's predictor each tick."""
        node = injector.node(self.node_index)
        end = yield from self._window(env)
        while env.now < end:
            predictor = node.predictor
            if predictor is not None:
                predictor.observe_aggregate(self.app_id, self.phantom_per_tick)
                self.actions += 1
            yield env.timeout(self.interval_s)


class RetryAmplifier(Adversary):
    """Zero-backoff closed loop: resubmit the instant the cloud answers.

    A buggy-or-hostile client that treats every denial as a transient
    error and retries immediately, multiplying the admission/analysis
    load of a single logical request.  Throttling (admission penalty
    per prior offense) stretches its loop period, collapsing the
    amplification without touching honest tenants.
    """

    kind = "retry-amplifier"

    def __init__(
        self,
        app_id: str,
        profile: "WorkloadProfile",
        link: "Link",
        loops: int = 3,
        budget: int = 200,
        operations: Tuple[str, ...] = ("warehouse.poison",),
        start_s: float = 0.0,
        duration_s: float = 30.0,
    ):
        super().__init__(app_id, start_s=start_s, duration_s=duration_s)
        if loops < 1:
            raise ValueError("loops must be >= 1")
        if budget < 1:
            raise ValueError("budget must be >= 1")
        self.profile = profile
        self.link = link
        self.loops = loops
        self.budget = budget
        self.operations = tuple(operations)

    def run(self, env: "Environment", injector: "FaultInjector") -> Generator:
        """Run ``loops`` concurrent zero-backoff resubmission lanes."""
        end = yield from self._window(env)

        def loop(env: "Environment", lane: int) -> Generator:
            for i in range(self.budget):
                if env.now >= end:
                    return
                request = OffloadRequest(
                    request_id=ADVERSARY_REQUEST_BASE + lane * self.budget + i,
                    device_id=f"adv-{self.app_id}-{lane}",
                    app_id=self.app_id,
                    profile=self.profile,
                    submitted_at=env.now,
                    seq_on_device=i,
                    operations=self.operations,
                )
                self.actions += 1
                try:
                    result = yield injector.platform.submit(request, self.link)
                except GeneratorExit:
                    raise  # run ended mid-attack; let the lane close
                except BaseException:
                    self.denied += 1
                    continue
                if result is not None and result.blocked:
                    self.denied += 1

        procs = []
        for lane in range(self.loops):
            proc = env.process(loop(env, lane))
            proc.defused = True
            procs.append(proc)
        yield env.all_of(procs)
