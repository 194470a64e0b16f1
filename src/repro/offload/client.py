"""Client-side experiment drivers.

Replays an arrival plan (the "same inflow of requests" the evaluation
uses for every compared platform) against a cloud platform, collecting
the per-request results all experiments aggregate.

:func:`replay` is the closed-loop client: each device issues one
request at a time and runs it through one pipeline whose stages switch
on with the policy arguments — decide, submit (racing a budget),
back off and resubmit on retryable faults, fall back to local
execution or shed.  :func:`replay_inflow` is the open-loop client that
fires every request at its trace timestamp.
"""

from __future__ import annotations

import math
from typing import (
    TYPE_CHECKING,
    Dict,
    Generator,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..network.link import Link
from ..obs import metrics_of, trace_span
from ..sim.rng import RandomStreams
from .device import MobileDevice
from .request import OffloadRequest, PhaseTimeline, RequestResult
from .retry import is_retryable

if TYPE_CHECKING:  # pragma: no cover
    from ..platform.base import CloudPlatform
    from ..sim.core import Environment
    from ..workloads.generator import ArrivalPlan
    from .retry import RetryPolicy

__all__ = [
    "group_by_device",
    "replay",
    "replay_inflow",
    "run_inflow_experiment",
]


def group_by_device(
    plans: Sequence["ArrivalPlan"], known: Mapping[str, object], what: str
) -> Dict[str, list]:
    """Plans per device id, each device's plans in their given order.

    Devices appear in first-seen order.  Raises :class:`ValueError`
    (``"no <what> for: [...]"``) when a plan's device is not a key of
    ``known`` — before anything is submitted.
    """
    groups: Dict[str, list] = {}
    for plan in plans:
        groups.setdefault(plan.device_id, []).append(plan)
    missing = groups.keys() - known.keys()
    if missing:
        raise ValueError(f"no {what} for: {sorted(missing)}")
    return groups


def replay(
    env: "Environment",
    platforms,
    plans: Sequence["ArrivalPlan"],
    devices: Dict[str, MobileDevice],
    *,
    decider=None,
    deadline_s: Optional[float] = None,
    retry: Optional["RetryPolicy"] = None,
    seed: int = 0,
) -> Generator:
    """Process generator: closed-loop replay, the main-experiment mode.

    Interactive offloading apps issue one request at a time: each
    device submits its next request one think-gap after the previous
    *response*, over its own link (so a slow cold start delays, rather
    than piles up, that device's stream — §VI-C's "5 Android devices
    running offloading workloads").  Every request runs one pipeline:

    1. **decide** (only with a ``decider``) — a ``decide`` span of the
       decider's ``decide_s``; the verdict picks a target among
       ``platforms`` (one platform or a list), local execution, or
       shedding.  ``decider=None`` offloads everything to the first
       platform with no span and no cost-model evaluation.
    2. **submit**, racing a budget when one applies: the request's own
       ``deadline_budget_s``, else ``deadline_s``, else a finite decider
       budget under ``enforce_budget``.  The budget clock starts at the
       first submission and covers every retry and backoff; an offload
       still in flight when it expires is aborted (``deadline_aborted``).
       A response landing in the very tick the budget expires is kept.
    3. **retry** (only with ``retry``) — an attempt that fails
       retryably (:func:`~repro.offload.retry.is_retryable`) is
       resubmitted after capped exponential backoff with jitter seeded
       by ``seed``; an attempt while the device's link is blacked out
       is burned without reaching the cloud.  Other failures propagate.
    4. **local fallback or shed** — a local verdict, an aborted offload
       or exhausted retries run the task on the handset (scaled by the
       request's ``work_scale``); a shed verdict runs nothing.

    ``started_at`` is the pipeline start, so decision, failed attempts,
    backoff and fallback all count against the response; ``attempts``
    counts offload attempts, burned ones included (1 when a verdict
    kept the request local or shed it).  Returns every result, ordered
    by request id.
    """
    targets = list(platforms) if isinstance(platforms, (list, tuple)) else [platforms]
    if not targets:
        raise ValueError("need at least one platform")
    if deadline_s is not None and deadline_s <= 0:
        raise ValueError("deadline_s must be positive")
    groups = group_by_device(plans, devices, "device object")
    for seq in groups.values():
        seq.sort(key=lambda p: p.request.seq_on_device)
    if decider is not None:
        for target in targets:
            for name in decider.CLIENT_API:
                if not hasattr(target, name):
                    raise ValueError(
                        f"{type(target).__name__} has no {name!r}, which "
                        f"{type(decider).__name__} reads to score offloads"
                    )
    rng = RandomStreams(seed).get("client.retry") if retry is not None else None

    def offload(device_id, device, request, target, budget) -> Generator:
        """Submit until success; ``(result or None, attempts, aborted)``."""
        expiry = env.timeout(budget) if budget is not None else None
        attempts = 1 if retry is None else retry.max_attempts
        for attempt in range(1, attempts + 1):
            faults = env.faults if retry is not None else None
            if faults is None or not faults.link_down(device_id):
                proc = target.submit(request, device.link)
                try:
                    if expiry is None:
                        result = yield proc
                    else:
                        proc.defused = True
                        outcome = yield env.any_of([proc, expiry])
                        if not (proc in outcome or proc.ok):
                            if proc.is_alive:
                                proc.interrupt("client deadline exceeded")
                            return None, attempt, True
                        # Completed — possibly in the tick the budget
                        # expired; the response exists all the same.
                        result = proc.value
                except Exception as exc:
                    if retry is None or not is_retryable(exc):
                        raise
                else:
                    if not result.blocked:
                        device.account_offload(result)
                    return result, attempt, False
            if attempt == attempts:
                break
            metrics = metrics_of(env)
            if metrics is not None:
                metrics.counter("client.retries").inc()
            backoff = env.timeout(retry.delay_s(attempt, rng))
            yield backoff if expiry is None else env.any_of([backoff, expiry])
            if expiry is not None and expiry.processed:
                return None, attempt, True
        return None, attempts, False

    def serve(device_id, device, request) -> Generator:
        """One request through decide → submit → retry → fallback."""
        started = env.now
        choice, target = "offload", targets[0]
        budget = request.deadline_budget_s
        if budget is None:
            budget = deadline_s
        if decider is not None:
            with trace_span(env, "decide", who=device_id, trace=request.trace_id):
                decision = decider.decide(request, device, targets)
                if decider.cfg.decide_s:
                    yield env.timeout(decider.cfg.decide_s)
            metrics = metrics_of(env)
            if metrics is not None:
                metrics.counter(f"client.decisions.{decision.choice}").inc()
            choice = decision.choice
            if choice == "offload":
                target = targets[decision.target]
            enforced = decider.cfg.enforce_budget and decision.budget_s != math.inf
            if budget is None and enforced:
                budget = decision.budget_s
        result, attempts, aborted = None, 1, False
        if choice == "offload":
            result, attempts, aborted = yield from offload(
                device_id, device, request, target, budget
            )
        if result is not None:
            result.started_at = started
            result.attempts = attempts
        elif choice == "shed":
            result = RequestResult(
                request=request,
                timeline=PhaseTimeline(),
                started_at=started,
                finished_at=env.now,
                shed=True,
            )
        else:
            yield from device.execute_locally(
                env, request.profile, trace_id=request.trace_id,
                work_scale=request.work_scale,
            )
            result = RequestResult(
                request=request,
                timeline=PhaseTimeline(),
                started_at=started,
                finished_at=env.now,
                executed_locally=True,
                deadline_aborted=aborted,
                attempts=attempts,
            )
        if decider is not None:
            decider.observe(result)
        return result

    def drive(device_id: str, device_plans) -> Generator:
        device = devices[device_id]
        collected = []
        for plan in device_plans:
            if plan.gap_s > 0:
                yield env.timeout(plan.gap_s)
            collected.append((yield from serve(device_id, device, plan.request)))
        return collected

    done = yield env.all_of([env.process(drive(d, seq)) for d, seq in groups.items()])
    results = [r for batch in done.values() for r in batch]
    results.sort(key=lambda r: r.request.request_id)
    return results


def replay_inflow(
    env: "Environment",
    target,
    arrivals: Iterable[Tuple[OffloadRequest, Link]],
    devices: Optional[Dict[str, MobileDevice]] = None,
) -> Generator:
    """Process generator: the open-loop client.

    Submits each ``(request, link)`` pair to ``target`` (a platform or
    a cluster) at exactly ``request.submitted_at``, in the given order;
    a request whose instant has already passed goes at once.  One
    process sleeps through the whole inflow.  When ``devices`` is
    given, each request's device battery is charged for the offload as
    it completes (Fig. 10's methodology).  Returns every result,
    ordered by request id.
    """

    def charge(proc) -> None:
        if proc.ok and not proc.value.blocked:
            devices[proc.value.request.device_id].account_offload(proc.value)

    procs = []
    for request, link in arrivals:
        if request.submitted_at > env.now:
            yield env.timeout_at(request.submitted_at)
        proc = target.submit(request, link)
        if devices is not None:
            proc.add_callback(charge)
        procs.append(proc)
    done = yield env.all_of(procs)
    return sorted(done.values(), key=lambda r: r.request.request_id)


def run_inflow_experiment(
    env: "Environment",
    platform: "CloudPlatform",
    plans: Sequence["ArrivalPlan"],
    link: Link,
    devices: Optional[Dict[str, MobileDevice]] = None,
) -> List[RequestResult]:
    """Convenience wrapper: replay ``plans`` closed-loop through
    :func:`replay` and run the clock until done.

    Without ``devices`` every device is a fresh handset on ``link``.
    Open-loop (trace) inflows go through :func:`replay_inflow`.
    """
    if devices is None:
        devices = {
            device_id: MobileDevice(device_id, link)
            for device_id in dict.fromkeys(p.device_id for p in plans)
        }
    return env.run(until=env.process(replay(env, platform, plans, devices)))
