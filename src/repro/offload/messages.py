"""Typed offloading messages (§III-D, Fig. 3).

Migrated data decomposes into three upload classes — **mobile code**
(the app package, since the framework offloads via Java reflection),
**files and parameters** specifying the task, and **control messages**
managing the procedure — plus the downloaded **result**.  Fig. 3's
finding: for workloads without file transfer (ChessGame, Linpack) the
mobile code is >50 % of migrated bytes and is retransmitted to *every*
VM, which motivates the App Warehouse code cache.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from ..workloads.base import WorkloadProfile

__all__ = ["MessageKind", "Message", "upload_messages", "result_message", "KB"]

KB = 1024


class MessageKind(str, enum.Enum):
    """Wire-level message classes (Fig. 3 legend)."""

    CODE = "mobile_code"
    FILE_PARAM = "file_param"
    CONTROL = "control"
    RESULT = "result"


@dataclass(frozen=True)
class Message:
    """One framed message."""

    kind: str
    size_bytes: int
    app_id: str = ""
    description: str = ""

    def __post_init__(self):
        if self.size_bytes < 0:
            raise ValueError("message size must be >= 0")


#: memoized messages per (profile, include_code) and per profile:
#: profiles and messages are frozen, so every request of an app can
#: share one tuple instead of building fresh messages
_UPLOADS: Dict[Tuple["WorkloadProfile", bool], Tuple[Message, ...]] = {}
_RESULTS: Dict["WorkloadProfile", Message] = {}


def upload_messages(
    profile: "WorkloadProfile", include_code: bool
) -> Tuple[Message, ...]:
    """Messages a client uploads for one offloading request.

    ``include_code`` is True when the target runtime (or, with the App
    Warehouse, the whole platform) has never seen this app's code.
    """
    key = (profile, include_code)
    msgs = _UPLOADS.get(key)
    if msgs is None:
        msgs = _UPLOADS[key] = _build_uploads(profile, include_code)
    return msgs


def _build_uploads(
    profile: "WorkloadProfile", include_code: bool
) -> Tuple[Message, ...]:
    msgs: List[Message] = []
    if include_code:
        msgs.append(
            Message(
                kind=MessageKind.CODE.value,
                size_bytes=int(profile.code_size_kb * KB),
                app_id=profile.name,
                description=f"{profile.name} app package",
            )
        )
    payload = int((profile.file_size_kb + profile.param_size_kb) * KB)
    if payload:
        msgs.append(
            Message(
                kind=MessageKind.FILE_PARAM.value,
                size_bytes=payload,
                app_id=profile.name,
                description="task files and parameters",
            )
        )
    msgs.append(
        Message(
            kind=MessageKind.CONTROL.value,
            size_bytes=int(profile.control_size_kb * KB),
            app_id=profile.name,
            description="offloading control",
        )
    )
    return tuple(msgs)


def result_message(profile: "WorkloadProfile") -> Message:
    """The downloaded execution result."""
    msg = _RESULTS.get(profile)
    if msg is None:
        msg = _RESULTS[profile] = Message(
            kind=MessageKind.RESULT.value,
            size_bytes=int(profile.result_size_kb * KB),
            app_id=profile.name,
            description="execution result",
        )
    return msg
