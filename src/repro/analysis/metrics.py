"""Result aggregation: phase means, speedups, CDFs, failure rates.

Every experiment reduces lists of :class:`RequestResult` through these
helpers, so the statistics in EXPERIMENTS.md are computed one way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from ..offload.request import Phase, RequestResult

__all__ = [
    "PhaseSummary",
    "phase_means",
    "speedups",
    "speedup_cdf",
    "fraction_above",
    "failure_rate",
    "nearest_rank",
    "per_request_phase_table",
    "normalize_to",
]


@dataclass(frozen=True)
class PhaseSummary:
    """Mean seconds per phase over a result set."""

    connection: float
    preparation: float
    transfer: float
    execution: float

    @property
    def total(self) -> float:
        return self.connection + self.preparation + self.transfer + self.execution

    def as_dict(self) -> Dict[str, float]:
        """Phase means keyed by phase value string."""
        return {
            Phase.CONNECTION.value: self.connection,
            Phase.PREPARATION.value: self.preparation,
            Phase.TRANSFER.value: self.transfer,
            Phase.EXECUTION.value: self.execution,
        }


def _served(results: Iterable[RequestResult]) -> List[RequestResult]:
    out = [r for r in results if not r.blocked]
    if not out:
        raise ValueError("no served requests to aggregate")
    return out


def phase_means(results: Iterable[RequestResult]) -> PhaseSummary:
    """Average duration of each offloading phase."""
    served = _served(results)
    n = len(served)
    return PhaseSummary(
        connection=sum(r.phase(Phase.CONNECTION) for r in served) / n,
        preparation=sum(r.phase(Phase.PREPARATION) for r in served) / n,
        transfer=sum(r.phase(Phase.TRANSFER) for r in served) / n,
        execution=sum(r.phase(Phase.EXECUTION) for r in served) / n,
    )


def speedups(results: Iterable[RequestResult]) -> np.ndarray:
    """Per-request offloading speedups (local time / response time)."""
    return np.array([r.speedup for r in _served(results)])


def speedup_cdf(results: Iterable[RequestResult]) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of speedups: returns (sorted values, cumulative probs)."""
    values = np.sort(speedups(results))
    probs = np.arange(1, len(values) + 1) / len(values)
    return values, probs


def fraction_above(results: Iterable[RequestResult], threshold: float) -> float:
    """Share of requests whose speedup exceeds ``threshold`` (Fig. 11)."""
    s = speedups(results)
    return float(np.mean(s > threshold))


def failure_rate(results: Iterable[RequestResult]) -> float:
    """Share of offloading failures (speedup <= 1)."""
    served = _served(results)
    return sum(r.offloading_failure for r in served) / len(served)


def nearest_rank(values: Iterable[float], p: float) -> float:
    """Nearest-rank ``p``-quantile: the ``ceil(n * p)``-th smallest value
    (deterministic, no interpolation)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * p)) - 1]


def per_request_phase_table(
    results: Sequence[RequestResult], device_id: str
) -> List[Dict[str, float]]:
    """Fig. 1 rows: one device's requests in order, phase-decomposed."""
    rows = []
    mine = sorted(
        (r for r in results if r.request.device_id == device_id and not r.blocked),
        key=lambda r: r.request.seq_on_device,
    )
    for r in mine:
        rows.append(
            {
                "request": r.request.seq_on_device,
                **{k: v for k, v in r.timeline.as_dict().items()},
                "speedup": r.speedup,
            }
        )
    return rows


def normalize_to(values: Dict[str, float], reference_key: str) -> Dict[str, float]:
    """Scale a metric dict so ``reference_key`` maps to 1.0 (Fig. 9/10)."""
    ref = values[reference_key]
    if ref == 0:
        raise ValueError(f"reference {reference_key!r} is zero")
    return {k: v / ref for k, v in values.items()}
