"""Offloading requests and their four-phase timeline (§III-B).

The paper decomposes every offloading request into:

1. **Network Connection** — establishing the device↔cloud connection;
2. **Runtime Preparation** — setting up the mobile code runtime after
   the request arrives (the VM cold-start killer);
3. **Data Transfer** — moving code/files/parameters/results;
4. **Computation Execution** — pure execution of the offloaded task.

*Offloading speedup* is local execution time over offloading response
time; a speedup below 1 is an **offloading failure**.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, FrozenSet, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from ..workloads.base import WorkloadProfile

__all__ = ["Phase", "PhaseTimeline", "OffloadRequest", "RequestResult"]


class Phase(str, enum.Enum):
    """The four offloading phases of §III-B."""

    CONNECTION = "network_connection"
    PREPARATION = "runtime_preparation"
    TRANSFER = "data_transfer"
    EXECUTION = "computation_execution"


#: the phases' value strings, in declaration order
_PHASE_KEYS = tuple(p.value for p in Phase)


class PhaseTimeline:
    """Accumulates per-phase durations for one request.

    Keyed by each phase's value string, read as the member's plain
    ``_value_`` attribute: ``Phase.value`` is a descriptor call, and
    every request adds to its timeline several times.
    """

    def __init__(self) -> None:
        self._durations: Dict[str, float] = dict.fromkeys(_PHASE_KEYS, 0.0)

    def add(self, phase: Phase, seconds: float) -> None:
        """Accumulate ``seconds`` into one phase."""
        if seconds < 0:
            raise ValueError(f"negative duration for {phase}")
        self._durations[phase._value_] += seconds

    def get(self, phase: Phase) -> float:
        """Accumulated duration of one phase."""
        return self._durations[phase._value_]

    @property
    def total(self) -> float:
        return sum(self._durations.values())

    def as_dict(self) -> Dict[str, float]:
        """Durations keyed by phase value string."""
        return dict(self._durations)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = ", ".join(f"{k}={v:.3f}s" for k, v in self._durations.items())
        return f"<PhaseTimeline {parts}>"


@dataclass
class OffloadRequest:
    """One offloading request as submitted by a client device."""

    request_id: int
    device_id: str
    app_id: str
    profile: "WorkloadProfile"
    submitted_at: float = 0.0
    #: sequence number of this request from its device for this app
    seq_on_device: int = 0
    #: per-request task-size multiplier (a hard chess position takes
    #: longer both locally and in the cloud); 1.0 = the profile mean
    work_scale: float = 1.0
    #: content digest of the file/parameter payload, when the client
    #: knows it (e.g. a common dataset shipped by many devices).  The
    #: Sharing Offloading I/O layer dedups staged payloads by digest;
    #: None means the payload is unique to this request.
    payload_digest: Optional[str] = None
    #: trace context: every span this request produces (dispatcher
    #: wait, runtime boot, transfers, execution) carries this id, so a
    #: slow request decomposes into its phases across components.
    #: Derived from device/app/request ids unless the client sets one.
    trace_id: str = ""
    #: workflow operations the offloaded code will perform inside the
    #: container (e.g. ``("net.outbound", "fs.offload_read")``).  Empty
    #: — the default — skips workflow filtering entirely; non-empty
    #: operations are run through the platform's access controller
    #: during execution and violations count against the app.
    operations: Tuple[str, ...] = ()
    #: permissions to request at admission; None uses the access
    #: controller's default grant set
    requested_permissions: Optional[FrozenSet[str]] = None
    #: version of the app code this request runs against; part of the
    #: compute-cache key, so a code push invalidates cached results
    code_version: str = "v1"
    #: per-request latency budget (seconds).  Inherited from the app
    #: profile's ``deadline_budget_s`` unless set explicitly, the same
    #: way ``payload_digest`` inherits ``payload_key`` — so the QoS
    #: budget gate and the deadline client agree on one source of
    #: truth.  None = unconstrained.
    deadline_budget_s: Optional[float] = None

    def __post_init__(self):
        if self.request_id < 0:
            raise ValueError("request_id must be >= 0")
        if self.work_scale <= 0:
            raise ValueError("work_scale must be positive")
        if not self.trace_id:
            self.trace_id = f"{self.device_id}/{self.app_id}/{self.request_id}"
        if self.payload_digest is None:
            # Content identity comes for free: profiles whose payload
            # is a shared artifact (e.g. the virus signature database)
            # name it via ``payload_key``, so dedup and result caching
            # are not opt-in at every construction site.
            self.payload_digest = getattr(self.profile, "payload_key", None)
        if self.deadline_budget_s is None:
            self.deadline_budget_s = getattr(self.profile, "deadline_budget_s", None)
        if self.deadline_budget_s is not None and self.deadline_budget_s <= 0:
            raise ValueError("deadline_budget_s must be positive when set")


@dataclass
class RequestResult:
    """Completed-request record, the unit all experiments aggregate."""

    request: OffloadRequest
    timeline: PhaseTimeline
    started_at: float
    finished_at: float
    executed_on: str = ""  # runtime instance id (CID)
    code_cache_hit: bool = False
    #: the compute cache served this result (execute phase skipped)
    result_cache_hit: bool = False
    bytes_up: int = 0
    bytes_down: int = 0
    blocked: bool = False  # rejected by the access controller
    #: the task ran on the handset: a local verdict of the client's
    #: decider, or the fallback after an aborted or failed offload
    executed_locally: bool = False
    #: the client aborted the offload at its deadline and fell back
    deadline_aborted: bool = False
    #: the QoS budget gate dropped this request without running it
    #: anywhere (no path fit the app's latency budget)
    shed: bool = False
    #: submission attempts the client made for this result (retry client)
    attempts: int = 1

    @property
    def response_time(self) -> float:
        return self.finished_at - self.started_at

    @property
    def local_time(self) -> float:
        return self.request.profile.local_time_s * self.request.work_scale

    @property
    def speedup(self) -> float:
        """Local execution time over offloading response time."""
        if self.response_time <= 0:
            return float("inf")
        return self.local_time / self.response_time

    @property
    def offloading_failure(self) -> bool:
        """True when offloading did not beat local execution (§III-B).

        Only meaningful for requests that actually offloaded; local
        executions are the client's decider *avoiding* a failure.
        """
        return not self.executed_locally and self.speedup <= 1.0

    def phase(self, phase: Phase) -> float:
        """Shortcut for ``timeline.get(phase)``."""
        return self.timeline.get(phase)
