"""Closed-form radius schedules and round-count predictions.

Upper schedules are the ones the broadcast algorithms actually use; lower
"radius" recursions bound what any algorithm can reach in one round and are
reported for comparison only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "SchedulePrediction",
    "snr_upper_schedule",
    "snr_lower_radius",
    "mimo_lower_radius",
    "mimo_upper_schedule",
    "miso_upper_schedule",
    "propagation_time",
    "reverse_snr_schedule",
]


@dataclass(frozen=True)
class SchedulePrediction:
    model: str  # "UDG" | "SNR" | "MIMO"
    radii: list[float]
    predicted_rounds: int
    direction: str  # "upper" | "lower"

    def __post_init__(self):
        if any(b <= a for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError("schedule radii must be strictly increasing")


def _snr_step(rho: float) -> float:
    """The SNR schedule's growth factor sqrt(rho/16), which must exceed 1."""
    if rho <= 16.0:
        raise ValueError(f"schedule expands only for rho > 16, got rho={rho}")
    step = math.sqrt(rho / 16.0)
    if step == 1.0:
        raise ValueError(f"sqrt(rho/16) rounds to 1 for rho={rho}: the schedule never grows")
    return step


def snr_upper_schedule(rho: float, R: float) -> SchedulePrediction:
    """Radii r_j = (rho/16)^((j-1)/2), from single-sender reach r_1 = 1,
    until the disk radius R is covered."""
    step = _snr_step(rho)
    radii = [1.0]
    while radii[-1] < R:
        radii.append(radii[-1] * step)
    return SchedulePrediction("SNR", radii, len(radii), "upper")


def snr_lower_radius(rho: float, r: float) -> float:
    """One-round reach bound 4 sqrt(rho) r for the SNR model."""
    if rho < 1.0 / math.pi:
        raise ValueError(f"density below 1/pi, got {rho}")
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    return 4.0 * math.sqrt(rho) * r


def mimo_lower_radius(rho: float, r: float, log_threshold: float = 0.0) -> float:
    """One-round reach bound 4 pi rho r^2 for coherent senders in a disk of r."""
    if rho * r * r < log_threshold:
        raise ValueError(
            f"concentration precondition rho*r^2 >= {log_threshold} violated: {rho * r * r}"
        )
    return 4.0 * math.pi * rho * r * r


def mimo_upper_schedule(
    rho: float, lam: float, c1: float, c2: float, R: float
) -> SchedulePrediction:
    """Radii of the MISO broadcast: r_1 = c2/lam, r_{j+1} = c1 rho lam^(1/2) r_j^(3/2).

    Raises if the 15x-per-round growth precondition fails at r_1 (the schedule
    would not outrun its own safety margin).
    """
    if c1 <= 0 or c2 <= 0:
        raise ValueError("c1 and c2 must be positive")
    r1 = c2 / lam
    growth_floor = 225.0 / (c1**2 * rho**2 * lam)
    if r1 < growth_floor:
        raise ValueError(
            f"growth precondition violated: r_1={r1} < 225/(c1^2 rho^2 lam)={growth_floor}"
        )
    radii = [r1]
    while radii[-1] < R:
        radii.append(c1 * rho * math.sqrt(lam) * radii[-1] ** 1.5)
    return SchedulePrediction("MIMO", radii, len(radii), "upper")


def miso_upper_schedule(
    rho: float, lam: float, c1: float, c2: float, R: float
) -> SchedulePrediction:
    """Radii of the two-phase MISO broadcast: r_1 = 15 c2/lam (the UDG
    bootstrap disk), r_{j+1} = (c1/15) rho lam^(1/2) r_j^(3/2).

    The 1/15 shrink keeps receivers at 15x the sender-disk radius.  Unlike
    :func:`mimo_upper_schedule` there is no growth precondition: the radii
    stop at R, or as soon as a step would not grow.
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
    return SchedulePrediction("MIMO", radii, len(radii), "upper")


def mimo_schedule_closed_form(rho: float, lam: float, c1: float, c2: float, j: int) -> float:
    """r_j = r_1^((3/2)^(j-1)) * (c1 rho lam^(1/2))^(2 (3/2)^(j-1) - 2)."""
    r1 = c2 / lam
    e = 1.5 ** (j - 1)
    return r1**e * (c1 * rho * math.sqrt(lam)) ** (2.0 * e - 2.0)


def propagation_time(radii: list[float]) -> float:
    """Total signal travel distance (speed of light = 1) of a schedule."""
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be increasing")
    return float(sum(radii))


def reverse_snr_schedule(rho: float, R: float) -> list[float]:
    """Backward-built SNR schedule: r'_p = R, r'_{j-1} = r'_j / sqrt(rho/16),
    truncated once the radius drops to 1 or below."""
    step = _snr_step(rho)
    if not math.isfinite(R):
        raise ValueError(f"R must be finite, got {R}")
    radii = [float(R)]
    while radii[-1] > 1.0:
        radii.append(radii[-1] / step)
    return list(reversed(radii))
