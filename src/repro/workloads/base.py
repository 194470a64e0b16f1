"""Workload profile schema.

A :class:`WorkloadProfile` captures everything the simulation needs to
know about one benchmark app: message sizes (calibrated against
Table II), cloud-side compute and I/O behaviour (calibrated against
Fig. 9), and device-side local execution time (anchoring offloading
speedups in Figs. 1 and 11).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["WorkloadProfile", "derive_profile"]


@dataclass(frozen=True)
class WorkloadProfile:
    """Calibrated model of one offloading benchmark application."""

    #: app identifier (also the AID key in the App Warehouse)
    name: str
    #: paper category: image-tool / game / anti-virus / math
    category: str
    description: str = ""

    # ---- migrated data (KB) --------------------------------------------------
    #: app package uploaded via Java reflection (once per runtime, or
    #: once per *platform* with the code cache)
    code_size_kb: float = 0.0
    #: per-request input files (images to OCR, samples to scan)
    file_size_kb: float = 0.0
    #: per-request task parameters
    param_size_kb: float = 0.0
    #: per-request control messages
    control_size_kb: float = 0.0
    #: per-request downloaded result
    result_size_kb: float = 0.0

    # ---- cloud-side execution -------------------------------------------------
    #: native single-core CPU seconds per request on the cloud server
    cloud_cpu_s: float = 0.0
    #: random I/O operations issued during execution (VirusScan's
    #: database searches "spawn more I/O requests than other benchmarks")
    exec_io_ops: int = 0
    #: bytes per I/O operation
    exec_io_bytes: int = 8192
    #: ClassLoader / JNI load cost when the code is cold in a runtime
    code_load_s: float = 0.0
    #: fixed per-request offloading-framework cost (Java-reflection
    #: dispatch, argument/result serialization) — platform-independent
    #: and independent of the task size
    framework_overhead_s: float = 0.0

    # ---- device-side ---------------------------------------------------------------
    #: execution time of the same task locally on the handset
    local_time_s: float = 0.0
    #: per-request latency budget the app's UX tolerates (QoS).  The
    #: partition layer sheds or locally executes requests whose
    #: *predicted* offload latency exceeds it, and the deadline client
    #: aborts in-flight offloads at it.  None = unconstrained.
    deadline_budget_s: "float | None" = None

    # ---- payload identity ----------------------------------------------------------
    #: content digest of the workload's *shared* payload, when every
    #: request ships the same artifact (VirusScan's signature database).
    #: Requests constructed without an explicit ``payload_digest``
    #: inherit it, so content-addressed dedup and result caching apply
    #: without per-callsite opt-in.  None = payloads unique per request.
    payload_key: "str | None" = None

    def __post_init__(self):
        for field_name in (
            "code_size_kb",
            "file_size_kb",
            "param_size_kb",
            "control_size_kb",
            "result_size_kb",
            "cloud_cpu_s",
            "code_load_s",
            "framework_overhead_s",
            "local_time_s",
        ):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} must be >= 0")
        if self.exec_io_ops < 0 or self.exec_io_bytes < 0:
            raise ValueError("I/O parameters must be >= 0")
        if self.deadline_budget_s is not None and self.deadline_budget_s <= 0:
            raise ValueError("deadline_budget_s must be positive when set")
        if not self.name:
            raise ValueError("profile needs a name")

    def derive(self, name: str, **overrides) -> "WorkloadProfile":
        """A modified copy of this profile (see :func:`derive_profile`)."""
        return derive_profile(self, name, **overrides)

    # ---- derived --------------------------------------------------------------
    @property
    def per_request_upload_kb(self) -> float:
        """Upload bytes per request excluding the one-time code."""
        return self.file_size_kb + self.param_size_kb + self.control_size_kb

    @property
    def transfers_files(self) -> bool:
        """Workloads 'with additional file transmissions' (Fig. 10)."""
        return self.file_size_kb > 0


def derive_profile(base: WorkloadProfile, name: str, **overrides) -> WorkloadProfile:
    """Build a custom workload from an existing profile.

    >>> from repro.workloads import CHESS_GAME
    >>> blitz = derive_profile(CHESS_GAME, "blitz", cloud_cpu_s=0.3,
    ...                        local_time_s=1.2)
    >>> blitz.name, blitz.code_size_kb == CHESS_GAME.code_size_kb
    ('blitz', True)
    """
    import dataclasses

    valid = {f.name for f in dataclasses.fields(WorkloadProfile)}
    unknown = set(overrides) - valid
    if unknown:
        raise ValueError(f"unknown profile fields: {sorted(unknown)}")
    return dataclasses.replace(base, name=name, **overrides)
