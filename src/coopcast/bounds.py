"""Radius schedules of the broadcast algorithms.

Each schedule is the list of disk radii an expanding-disk broadcast runs,
one per round, so its length bounds the rounds of that broadcast.  Only
:meth:`coopcast.experiments.ExperimentConfig.schedule` picks a job's radii.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "SchedulePrediction",
    "snr_upper_schedule",
    "miso_upper_schedule",
    "schedule_travel",
    "reverse_snr_schedule",
]


@dataclass(frozen=True)
class SchedulePrediction:
    """A schedule's radii, strictly increasing: both schedules only grow."""

    radii: list[float]


#: Most radii an SNR schedule may have.  rho just above 16 makes a step so
#: close to 1 that the list alone would fill memory (48 million radii at
#: n = 1024, rho = 16.000001).  The schedules of the analysis's regime,
#: rho = Omega(log n), have a handful; the cap still leaves the slow ones
#: whole, such as the 14,750 radii of rho = 16.01 at R = 100.
_MAX_SNR_RADII = 100_000


def _snr_step(rho: float, R: float) -> float:
    """The SNR schedules' growth factor sqrt(rho/16), which must exceed 1.

    Both schedules, from 1 up to R or from R down to 1, have
    ceil(ln R / ln step) + 1 radii for R > 1 (one otherwise), up to
    rounding; one that would have more than ``_MAX_SNR_RADII`` raises
    ``ValueError`` before any is built."""
    if rho <= 16.0:
        raise ValueError(f"schedule expands only for rho > 16, got rho={rho}")
    step = math.sqrt(rho / 16.0)
    if step == 1.0:
        raise ValueError(f"sqrt(rho/16) rounds to 1 for rho={rho}: the schedule never grows")
    if not math.isfinite(R):
        raise ValueError(f"R must be finite, got {R}")
    length = math.ceil(math.log(R) / math.log(step)) + 1 if R > 1.0 else 1
    if length > _MAX_SNR_RADII:
        raise ValueError(
            f"the SNR schedule at rho={rho} would have {length} radii, "
            f"more than {_MAX_SNR_RADII}"
        )
    return step


def snr_upper_schedule(rho: float, R: float) -> SchedulePrediction:
    """Radii r_j = (rho/16)^((j-1)/2), from single-sender reach r_1 = 1,
    until the disk radius R is covered."""
    step = _snr_step(rho, R)
    radii = [1.0]
    while radii[-1] < R:
        radii.append(radii[-1] * step)
    return SchedulePrediction(radii)


def miso_upper_schedule(
    rho: float, lam: float, c1: float, c2: float, R: float
) -> SchedulePrediction:
    """Radii of the two-phase MISO broadcast: r_1 = 15 c2/lam (the UDG
    bootstrap disk), r_{j+1} = (c1/15) rho lam^(1/2) r_j^(3/2).

    The loop only applies this step; nothing checks that a new radius is at
    least 15 times the one before, the far-field ratio of the analysis.  On
    criterion 08's fields (n = 10^4, R = 30, c1 = 12, c2 = 0.02) the radii
    grow only 1.55 to 4.39 times a step (ROADMAP.md, item 1).  There is no
    growth precondition: the radii stop at R, or as soon as a step would
    not grow.
    """
    if c1 <= 0 or c2 <= 0:
        raise ValueError("c1 and c2 must be positive")
    r1 = c2 / lam
    radii = [15.0 * r1]
    c_eff = c1 / 15.0
    while radii[-1] < R:
        nxt = c_eff * rho * math.sqrt(lam) * radii[-1] ** 1.5
        if nxt <= radii[-1]:
            break
        radii.append(nxt)
    return SchedulePrediction(radii)


def schedule_travel(radii: list[float]) -> float:
    """Total signal travel distance (speed of light = 1) of a schedule: the
    sum of its radii, which criterion 09 bounds.  A round log's
    ``propagation_time`` is another quantity, measured on the field."""
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be increasing")
    return float(sum(radii))


def reverse_snr_schedule(rho: float, R: float) -> list[float]:
    """Backward-built SNR schedule: r'_p = R, r'_{j-1} = r'_j / sqrt(rho/16),
    truncated once the radius drops to 1 or below."""
    step = _snr_step(rho, R)
    radii = [float(R)]
    while radii[-1] > 1.0:
        radii.append(radii[-1] / step)
    return list(reversed(radii))
