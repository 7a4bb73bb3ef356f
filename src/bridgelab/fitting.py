"""Log-linear rate fitting shared by the report generators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Below this magnitude double-precision noise dominates, so fit windows stop.
SATURATION_FLOOR = 1e-14
MIN_POINTS = 5


@dataclass(frozen=True)
class RateFit:
    slope: float
    r2: float
    n_points: int


def fit_rate(series) -> RateFit | None:
    """Least-squares slope of log(value) against the step index.

    ``series`` is an iterable of ``(n, value)`` pairs.  Points at or below the
    saturation floor are dropped, and the window is truncated at the first
    saturated point so the noise tail never enters the fit.  Returns ``None``
    when fewer than MIN_POINTS usable points remain.
    """
    pts = [(int(n), float(v)) for n, v in series]
    pts.sort(key=lambda t: t[0])
    usable: list[tuple[int, float]] = []
    for n, v in pts:
        if not np.isfinite(v) or v <= SATURATION_FLOOR:
            break
        usable.append((n, v))
    if len(usable) < MIN_POINTS:
        return None
    ns = np.array([n for n, _ in usable], dtype=float)
    logs = np.log([v for _, v in usable])
    slope, intercept = np.polyfit(ns, logs, 1)
    fitted = slope * ns + intercept
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return RateFit(slope=float(slope), r2=r2, n_points=len(usable))
