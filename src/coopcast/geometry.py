"""Closed-form geometry of the equal-phase ellipse zones.

A transmitter at the origin and a receiver at ``(d, 0)`` see every relay
point ``p`` with an excess path length ||p|| + ||p - (d, 0)|| - d.  The locus
of constant excess path is an ellipse with foci at sender and receiver; the
area of its intersection with the unit sender disk, ``intersection_area_f``,
and the first two derivatives of that area with respect to the excess path
drive the coherent-gain analysis.  All functions here are pure and operate
on floats (numpy scalars and arrays broadcast through unchanged).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "segment_g",
    "intersection_area_f",
    "f_prime",
    "f_double_prime",
    "t_terms",
    "f_limit_inf",
]


def segment_g(x):
    """Area of a unit-circle segment of depth ``x`` in [0, 2].

    g(x) = arccos(1-x) - (1-x) sqrt(1-(1-x)^2); monotone increasing with
    g(0) = 0 and g(2) = pi.
    """
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0) or np.any(xa > 2.0):
        raise ValueError(f"segment depth outside [0, 2]: {x}")
    u = 1.0 - xa
    out = np.arccos(u) - u * np.sqrt(np.maximum(xa * (2.0 - xa), 0.0))
    return out if out.ndim else float(out)


def _clamped_g(x):
    # The closed form for f feeds g arguments that drift out of [0, 2] by
    # rounding (and exceed 2 structurally once E_{<=w} swallows the disk);
    # geometrically the segment saturates at the full circle.
    return segment_g(np.clip(x, 0.0, 2.0))


def intersection_area_f(w, d):
    """Area of the intersection of the unit disk with the filled ellipse E_{<=w}.

    Valid for w in [0, 2] and d >= 1.  f(0, d) = 0, f(2, d) = pi, and f is
    strictly increasing in w between those endpoints.
    """
    wa = np.asarray(w, dtype=float)
    da = np.asarray(d, dtype=float)
    if np.any(wa < 0.0) or np.any(wa > 2.0):
        raise ValueError(f"w outside [0, 2]: {w}")
    if np.any(da < 1.0):
        raise ValueError(f"d below 1: {d}")
    out = _clamped_g(wa * (2.0 * da + wa - 2.0) / (2.0 * da)) + 0.25 * (
        da + wa
    ) * np.sqrt(wa * (2.0 * da + wa)) * _clamped_g((2.0 - wa) / da)
    return out if out.ndim else float(out)


def _check_interior(w, d) -> None:
    if np.any(np.asarray(w) <= 0.0) or np.any(np.asarray(w) >= 2.0):
        raise ValueError(f"w must lie in the open interval (0, 2), got {w}")
    if np.any(np.asarray(d) < 1.0):
        raise ValueError(f"d below 1: {d}")


def f_prime(w, d):
    """d f(w,d) / dw, closed form, for w in (0, 2) and d >= 1.

    Unbounded as w -> 0+ (like 1/sqrt(w)); callers needing the endpoints
    must use the weighted forms of the interval prover instead.
    """
    _check_interior(w, d)
    x = np.asarray(w, dtype=float)
    y = np.asarray(d, dtype=float)
    out = _clamped_g((2.0 - x) / y) * (2.0 * x * x + 4.0 * x * y + y * y) / (
        4.0 * np.sqrt(x * (x + 2.0 * y))
    ) + (x + y - 2.0) * np.sqrt(x * (2.0 - x) * (x + 2.0 * y - 2.0) * (x + 2.0 * y)) / (
        2.0 * y * y
    )
    return out if out.ndim else float(out)


def t_terms(w, d):
    """The three addends T1, T2, T3 of the second derivative of f."""
    _check_interior(w, d)
    x = np.asarray(w, dtype=float)
    y = np.asarray(d, dtype=float)
    # Horner form of the quartic numerator of T1 (cancellation control near
    # the x in {0, 2} endpoints).
    num = x * (x * (x * (-3.0 * x + (14.0 - 12.0 * y)) + (-14.0 * y * y + 42.0 * y - 20.0))
               + (-4.0 * y ** 3 + 32.0 * y * y - 40.0 * y + 8.0)) + 4.0 * y * (y * y - 3.0 * y + 2.0)
    t1 = num / (2.0 * y * y * np.sqrt((2.0 - x) * x * (x + 2.0 * y - 2.0) * (x + 2.0 * y)))
    t2 = -np.sqrt((2.0 - x) * (x + 2.0 * y - 2.0)) * (
        2.0 * x * x + 4.0 * x * y + y * y
    ) / (2.0 * y * y * np.sqrt(x * (x + 2.0 * y)))
    t3 = (x + y) * (2.0 * x * x + 4.0 * x * y - y * y) / (
        4.0 * (x * (x + 2.0 * y)) ** 1.5
    ) * _clamped_g((2.0 - x) / y)
    if np.asarray(t1).ndim:
        return t1, t2, t3
    return float(t1), float(t2), float(t3)


def f_double_prime(w, d):
    """d^2 f(w,d) / dw^2 = T1 + T2 + T3; <= -1/8 on (0,2) x [1, inf)."""
    t1, t2, t3 = t_terms(w, d)
    return t1 + t2 + t3


def f_limit_inf(w):
    """Limit of f(w, d) as d -> infinity, for w in [0, 2]."""
    wa = np.asarray(w, dtype=float)
    if np.any(wa < 0.0) or np.any(wa > 2.0):
        raise ValueError(f"w outside [0, 2]: {w}")
    out = (wa + 1.0) * np.sqrt(np.maximum((2.0 - wa) * wa, 0.0)) / 3.0 + np.arccos(1.0 - wa)
    return out if out.ndim else float(out)
