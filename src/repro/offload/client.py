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
from typing import TYPE_CHECKING, Dict, Generator, List, Mapping, Optional, Sequence

from ..network.link import Link
from ..obs import metrics_of, trace_span
from ..sim.rng import RandomStreams
from .device import MobileDevice
from .request import PhaseTimeline, RequestResult
from .retry import is_retryable

if TYPE_CHECKING:  # pragma: no cover
    from ..platform.base import CloudPlatform
    from ..sim.core import Environment
    from ..workloads.generator import ArrivalPlan
    from .retry import RetryPolicy

__all__ = [
    "gather_results",
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


def gather_results(env: "Environment", drivers: list) -> Generator:
    """Process generator: wait for every driver process, each returning
    a batch of results; all results, ordered by request id."""
    done = yield env.all_of(drivers)
    results = [r for batch in done.values() for r in batch]
    results.sort(key=lambda r: r.request.request_id)
    return results


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
            faults = getattr(env, "faults", None) if retry is not None else None
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

    return (yield from gather_results(
        env, [env.process(drive(d, seq)) for d, seq in groups.items()]
    ))


def replay_inflow(
    env: "Environment",
    platform: "CloudPlatform",
    plans: Sequence["ArrivalPlan"],
    link: Link,
    devices: Optional[Dict[str, MobileDevice]] = None,
) -> Generator:
    """Process generator: fire every arrival at its timestamp.

    Returns the completed :class:`RequestResult` list, ordered by
    request id.  When ``devices`` is given, each device's battery is
    charged for its offloaded requests (Fig. 10's methodology).
    """

    def fire(plan: "ArrivalPlan") -> Generator:
        delay = plan.time_s - env.now
        if delay > 0:
            yield env.timeout(delay)
        result = yield platform.submit(plan.request, link)
        if devices is not None and not result.blocked:
            devices[plan.device_id].account_offload(result)
        return (result,)

    return (yield from gather_results(env, [env.process(fire(plan)) for plan in plans]))


def run_inflow_experiment(
    env: "Environment",
    platform: "CloudPlatform",
    plans: Sequence["ArrivalPlan"],
    link: Link,
    devices: Optional[Dict[str, MobileDevice]] = None,
    mode: str = "closed",
) -> List[RequestResult]:
    """Convenience wrapper: replay ``plans`` and run the clock until done.

    ``mode="closed"`` (default) drives each device one-request-at-a-
    time through :func:`replay`; ``mode="open"`` fires at absolute
    timestamps (trace replay).  Without ``devices`` every device is a
    fresh handset on ``link``.
    """
    if mode == "closed":
        if devices is None:
            devices = {
                device_id: MobileDevice(device_id, link)
                for device_id in dict.fromkeys(p.device_id for p in plans)
            }
        gen = replay(env, platform, plans, devices)
    elif mode == "open":
        gen = replay_inflow(env, platform, plans, link, devices)
    else:
        raise ValueError(f"mode must be 'closed' or 'open', got {mode!r}")
    proc = env.process(gen)
    return env.run(until=proc)
