"""Rigorous branch-and-bound certification of analytic inequalities.

The quantities certified here are the area f(x, d) of the unit disk inside
the phase ellipse of excess path x at distance d, its first two derivatives
in x and the circular-segment area g they are built from, written in forms
that stay finite on the closed parameter box.  The distance parameter ``d``
in [1, inf) is compactified to ``z = 1/d`` in (0, 1], so every inequality
lives on a closed rectangle in ``(x, z)`` (or a closed segment in one
variable) and can be decided by adaptive bisection with outward-rounded
interval arithmetic.

Key rewrites (all verified against direct evaluation):

* ``G(t) = g(t) / t**1.5`` is enclosed via the sandwich
  ``(4/3) sqrt(2 - t) <= G(t) <= (4/3) sqrt(2)`` obtained by bounding the
  integrand of ``g(t) = int_0^t 2 sqrt(u (2 - u)) du``; the direct quotient
  is intersected in when ``t`` is bounded away from zero.
* The curvature term with a removable ``0/0`` at ``(x, z) = (0, 1)`` is
  split as a polynomial part plus a remainder bounded by
  ``sqrt(2 (1 - z) / (x z + 2))``.

A box is certified by its natural enclosure (the expression evaluated on
the box's intervals) or, for an expression in :data:`GRADIENT_FORMS`, by its
mean-value enclosure f(c) + f_x(box) (X - c_x) + f_z(box) (Z - c_z),
whichever certifies.  The partials come from one evaluation on
:class:`~coopcast.intervals.Gradient` variables, whose value part is the
natural enclosure bit for bit.  The center c of a box is the midpoint of the
box it was split from, whose enclosure is already computed for that box's
refutation check, so the mean-value form adds no lanes; the boxes the walk
starts from have none, and their call computes no partials.

A task is *proved* when every leaf box certifies the bound, *refuted* when
some midpoint, evaluated as a degenerate interval, violates the bound with
its entire enclosure, and *exhausted* when the box budget or depth limit
runs out; the hardest undecided box is reported in that case.  The box tree
is walked in level order from a uniform grid, the root split four times,
one call per depth: a level's boxes and the
previous level's undecided midpoints are the lanes of one call on array
intervals, in chunks of at most ``_LANES`` lanes, so each midpoint's
refutation check runs one level late.  A refutation or exhaustion reports
the first such box of its level, as a walk that checked every midpoint
before the next level would.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import intervals
from .intervals import Gradient, Interval, ROUNDING_MODE, on_lanes

__all__ = [
    "Box",
    "DomainError",
    "ProofTask",
    "ProofResult",
    "interval_eval",
    "prove",
    "inequality_suite",
    "EXPRESSIONS",
]


# ---------------------------------------------------------------------------
# interval enclosures of the analytic building blocks
# ---------------------------------------------------------------------------

_UNIT = Interval(0.0, 1.0)
_CHORD_DOMAIN = Interval(0.0, 2.0)
_ROOT2 = Interval(2.0).sqrt()


def _g_iv(t: Interval) -> Interval:
    """Circular-segment shape function g(t) = acos(1-t) - (1-t) sqrt(t(2-t))."""
    u = 1.0 - t
    return u.acos() - u * (t * (2.0 - t)).sqrt()


def _coeff_intervals() -> tuple[tuple[Interval, ...], float]:
    """Series data for g(t)/t**1.5 on t <= 1.

    From g(t) = int_0^t 2 sqrt(u) sqrt(2) sqrt(1 - u/2) du and the binomial
    series sqrt(1 - v) = sum_k a_k v^k (a_0 = 1, a_k < 0 for k >= 1),
    termwise integration gives g(t)/t**1.5 = sum_k C_k t^k with
    C_k = 2 sqrt(2) a_k / (2^k (k + 1.5)).  Truncating after degree K leaves
    a tail in [-2 sqrt(2) (t/2)^(K+1) / (K + 2.5), 0] because the dropped
    a_k are negative with absolute sum at most 1; its scale is returned
    rounded up.
    """
    K = 10
    a = [Fraction(1)]
    for k in range(1, K + 1):
        a.append(a[-1] * Fraction(2 * k - 3, 2 * k))
    coeffs = []
    for k in range(K + 1):
        c = Fraction(2) * a[k] / (2**k * Fraction(2 * k + 3, 2))
        coeffs.append(_ROOT2 * Interval(float(c.numerator)) / float(c.denominator))
    tail_scale = (2.0 * _ROOT2 / float(K + 2.5)).hi
    return tuple(coeffs), tail_scale


_G32_COEFFS, _G32_TAIL = _coeff_intervals()
_FOUR_THIRDS = Interval(4.0) / 3.0
# g(t) / t**1.5 <= (4/3) sqrt(2), its limit at t = 0.
_G32_HI = (_FOUR_THIRDS * _ROOT2).hi

# A truncated series P(t) = sum_k C_k t^k with tail bound T(t) = scale (t/2)^p
# (the exact function lies in [P(t) - T(t), P(t)] on [0, 1]) is bounded over
# [lo, hi] within [0, 1] by float Horner sums of the coefficient midpoints
# m_k at the two endpoints: lower S(hi) - E - T~(hi), upper S(lo) + E, each
# stepped outward once.  The argument, in units of u = 2**-53:
#
# * Monotonicity.  C_0 > 0 and C_k < 0 for k >= 1 (the a_k of sqrt(1 - v)
#   are negative), so P decreases on [0, 1], and so does P - T, as T grows
#   with t.  G''s series has coefficients k C_k, all negative, and its tail
#   grows with t too.  So P(hi) - T(hi) <= F(t) <= P(lo) on [lo, hi].
# * Coefficients.  C_k lies in its outward-rounded interval, which holds
#   m_k, so |C_k - m_k| <= r_k, the larger distance from m_k to an
#   endpoint, and |P(t) - sum_k m_k t^k| <= sum_k r_k for t <= 1.
# * Horner.  For t in [0, 1] the float sum S(t) of degree n is within
#   gamma_2n sum_k |m_k| of sum_k m_k t^k, gamma_j = j u / (1 - j u)
#   (Higham, Accuracy and Stability of Numerical Algorithms, Thm 5.1).
# * Tail.  scale is rounded up, t / 2 is exact above the subnormals, and
#   the float T~ is T times p factors (1 + d), |d| <= u, so
#   T~ >= T - gamma_p scale 2**-p.
# * Final operations.  Each of the (at most two) roundings of the lower or
#   upper sum errs by at most u times a result no larger than
#   sum_k |m_k| + 1, as E and T are below 1/2: 2 u (sum_k |m_k| + 1).
# * Underflow.  At subnormal t a product may also lose up to 2**-1075 (sums
#   are exact there); there are fewer than 30 of them, each carried by
#   factors of at most 1 + u: well below 2**-1000.
#
# E is the sum of these bounds, computed exactly in rationals and rounded up;
# the outward steps leave further room.
_U = Fraction(1, 2**53)


def _gamma(j: int) -> Fraction:
    return j * _U / (1 - j * _U)


@dataclass(frozen=True)
class _FloatSeries:
    """A truncated series with its tail bound, evaluated in floats at the
    endpoints of an interval within [0, 1] (see the argument above)."""

    mids: tuple[float, ...]
    tail_scale: float
    tail_power: int
    error: float

    @classmethod
    def of(cls, coeffs: tuple[Interval, ...], tail_scale: float, tail_power: int):
        mids = tuple(c.mid for c in coeffs)
        exact = [(Fraction(c.lo), Fraction(m), Fraction(c.hi)) for c, m in zip(coeffs, mids)]
        size = sum(abs(m) for _, m, _ in exact)
        bound = (
            sum(max(hi - m, m - lo) for lo, m, hi in exact)
            + _gamma(2 * (len(mids) - 1)) * size
            + _gamma(tail_power) * Fraction(tail_scale) / 2**tail_power
            + 2 * _U * (size + 1)
            + Fraction(1, 2**1000)
        )
        error = float(bound)
        if Fraction(error) < bound:
            error = math.nextafter(error, math.inf)
        return cls(mids, tail_scale, tail_power, error)

    def horner(self, t):
        """The float Horner sums S(t) of the midpoints at the floats ``t``."""
        acc = self.mids[-1]
        for m in reversed(self.mids[:-1]):
            acc = acc * t + m
        return acc

    def __call__(self, t: Interval) -> Interval:
        ends = np.array((t.hi, t.lo))
        acc = self.horner(ends)
        half = ends[0] * 0.5
        tail = self.tail_scale
        for _ in range(self.tail_power):
            tail = tail * half
        lo = np.nextafter(acc[0] - self.error - tail, -np.inf)
        return Interval(lo, np.nextafter(acc[1] + self.error, np.inf), t.invalid)


# G(t) = g(t) / t**1.5 for t <= 1: its series through degree K = 10, tail
# bounded by 2 sqrt(2) (t/2)^11 / 12.5 (see _coeff_intervals).
_g32_series_iv = _FloatSeries.of(_G32_COEFFS, _G32_TAIL, len(_G32_COEFFS))

# G'(t) for t <= 1 from the termwise derivative of G's series, k C_k for
# k = 1..10.  The dropped terms k C_k t^(k-1), k > K = 10, are negative, and
# each is at most sqrt(2) |a_k| (t/2)^(k-1) <= sqrt(2) |a_k| (t/2)^K in
# absolute value, so their sum lies in [-sqrt(2) (t/2)^K, 0].
_g32_slope_series_iv = _FloatSeries.of(
    tuple(c * float(k) for k, c in enumerate(_G32_COEFFS) if k),
    _ROOT2.hi,
    len(_G32_COEFFS) - 1,
)


def _g32_slope_closed_iv(t: Interval, g: Interval) -> Interval:
    """G'(t) for t > 0 in closed form, (2 sqrt(2 - t) - 1.5 G(t)) / t (as
    g'(t) = 2 sqrt(t (2 - t))), from the enclosure ``g`` of G on ``t``."""
    return (2.0 * (2.0 - t).sqrt() - 1.5 * g) / t


def _g32_slope_iv(t: Interval, g: Interval) -> Interval:
    """Enclosure of G'(t), given the enclosure ``g`` of G on ``t``: the series
    where t <= 1, the closed form where t > 0, their intersection where both
    apply.  Lanes with neither are invalid.  The sandwich bound of
    :func:`_g32_iv` is not followed: its derivative is not G's."""
    t = t.intersect(_CHORD_DOMAIN)
    series, closed = t.hi <= 1.0, t.lo > 0.0
    slope = Interval(
        np.full_like(t.lo, -np.inf),
        np.full_like(t.hi, np.inf),
        ~(series | closed) | t.invalid | g.invalid,
    )
    slope = on_lanes(series, lambda s, t: s.intersect(_g32_slope_series_iv(t)), slope, t)
    return on_lanes(
        closed, lambda s, t, g: s.intersect(_g32_slope_closed_iv(t, g)), slope, t, g
    )


def _g32_iv(t: Interval) -> Interval:
    """Enclosure of g(t) / t**1.5, finite down to t = 0 (limit 4 sqrt(2) / 3);
    on a :class:`Gradient` also of its partials, by the chain rule."""
    if isinstance(t, Gradient):
        g = _g32_iv(t.value)
        return Gradient(g, t.partials * _g32_slope_iv(t.value, g))
    t = t.intersect(_CHORD_DOMAIN)
    low = _FOUR_THIRDS * (2.0 - t).sqrt()
    enc = Interval(np.maximum(low.lo, 0.0), _G32_HI, low.invalid)
    enc = on_lanes(t.hi <= 1.0, lambda enc, t: enc.intersect(_g32_series_iv(t)), enc, t)
    return on_lanes(t.lo > 0.0, lambda enc, t: enc.intersect(_g_iv(t) / t.pow32()), enc, t)


def _scaled_area_iv(x: Interval, z: Interval) -> Interval:
    """f(x, 1/z) / sqrt(x), finite on the closed box [0,2] x [0,1].

    Its gradient form is sound for mean-value enclosures because it is C^1
    on that closed box: G is analytic at 0 and C^1 up to 2, its arguments
    x c and (2 - x) z stay in [0, 2], the pow32 factors are C^1 on
    [0, inf), and sqrt(q + 2) has q + 2 >= 2.  Every ``intersect`` on the
    way clamps a value that the exact function never leaves."""
    c = (1.0 + z * (x - 2.0) * 0.5).intersect(_UNIT)
    q = x * z
    term1 = _g32_iv((x * c).intersect(_CHORD_DOMAIN)) * x * c.pow32()
    term2 = (q + 1.0) * (q + 2.0).sqrt() * (2.0 - x).pow32() * _g32_iv((2.0 - x) * z) / 4.0
    return term1 + term2


def _area_iv(x: Interval, z: Interval) -> Interval:
    return _scaled_area_iv(x, z) * x.sqrt()


def _ratio_iv(x: Interval, z: Interval) -> Interval:
    """f(x, 1/z) / f(x/2, 1/z), as sqrt(2) times the ratio of scaled areas.

    C^1 on the closed box [0, 2] x [0, 1], as the scaled areas are and the
    one it divides by exceeds 1, so its gradient form is sound too."""
    return _ROOT2 * _scaled_area_iv(x, z) / _scaled_area_iv(x * 0.5, z)


def _slope_iv(x: Interval, z: Interval) -> Interval:
    """d f / d x, valid for x bounded away from 0 and 2."""
    q = x * z
    poly = 2.0 * q.sq() + 4.0 * q + 1.0
    term1 = (2.0 - x).pow32() * _g32_iv((2.0 - x) * z) * poly / (
        4.0 * (x * (q + 2.0)).sqrt()
    )
    term2 = (q + 1.0 - 2.0 * z) * (
        x * (2.0 - x) * (q + 2.0 - 2.0 * z) * (q + 2.0)
    ).sqrt() * 0.5
    return term1 + term2


def _t1_weighted_iv(x: Interval, z: Interval) -> Interval:
    """First curvature term times sqrt(x (2 - x)).

    The raw quotient P(x, z) / (2 sqrt((x z + 2 - 2 z)(x z + 2))) is 0/0 at
    (x, z) = (0, 1).  Dividing P by s = x z + 2 - 2 z gives quotient Q and
    remainder 4 (1 - z); the remainder part is enclosed by its pointwise
    bound [0, sqrt(2 (1 - z) / (x z + 2))], which vanishes at the corner.
    """
    zsq = z.sq()
    s = (x * z + 2.0 - 2.0 * z).intersect(Interval(0.0, 4.0))
    q2 = x * z + 2.0
    quot = ((x * (-3.0 * zsq) + (8.0 * zsq - 6.0 * z)) * x + (
        -4.0 * zsq + 14.0 * z - 2.0
    )) * x - 4.0 * z
    main = quot * s.sqrt() / (2.0 * q2.sqrt())
    bound = ((2.0 * (1.0 - z)) / q2).sqrt()
    rest = Interval(0.0, bound.hi, bound.invalid)
    return on_lanes(s.lo > 0.0, _t1_away_from_corner, main + rest, x, z, s, q2, main, rest)


def _t1_away_from_corner(_, x, z, s, q2, main, rest):
    """The first curvature term where s > 0: the remainder part is also
    enclosed directly, and the whole term as one quotient."""
    rest = rest.intersect((4.0 - 4.0 * z) / (2.0 * (s * q2).sqrt()))
    a3 = x * (x * (x * (-3.0 * x + 14.0) - 20.0) + 8.0)
    a2 = x * (x * (-12.0 * x + 42.0) - 40.0) + 8.0
    a1 = x * (-14.0 * x + 32.0) - 12.0
    a0 = 4.0 - 4.0 * x
    numer = ((a3 * z + a2) * z + a1) * z + a0
    return (main + rest).intersect(numer / (2.0 * (s * q2).sqrt()))


def _t2_weighted_iv(x: Interval, z: Interval) -> Interval:
    """Second curvature term times sqrt(x)."""
    q = x * z
    s = (q + 2.0 - 2.0 * z).intersect(Interval(0.0, 4.0))
    return -(((2.0 - x) * s).sqrt() * (2.0 * q.sq() + 4.0 * q + 1.0)) / (
        2.0 * (q + 2.0).sqrt()
    )


def _t3_weighted_iv(x: Interval, z: Interval) -> Interval:
    """Third curvature term times x**1.5."""
    q = x * z
    return (q + 1.0) * (2.0 * q.sq() + 4.0 * q - 1.0) * (2.0 - x).pow32() * _g32_iv(
        (2.0 - x) * z
    ) / (4.0 * (q + 2.0).pow32())


def _curvature_iv(x: Interval, z: Interval) -> Interval:
    """d^2 f / d x^2, valid for x bounded away from 0 and 2."""
    return (
        _t1_weighted_iv(x, z) / (x * (2.0 - x)).sqrt()
        + _t2_weighted_iv(x, z) / x.sqrt()
        + _t3_weighted_iv(x, z) / x.pow32()
    )


def _curvature_excess_iv(x: Interval, z: Interval) -> Interval:
    """x**1.5 * (d^2 f / d x^2 + 199); nonpositivity near x = 0 certifies
    curvature <= -199 there without dividing by x."""
    return (
        _t1_weighted_iv(x, z) * x / (2.0 - x).sqrt()
        + _t2_weighted_iv(x, z) * x
        + _t3_weighted_iv(x, z)
        + 199.0 * x.pow32()
    )


#: name -> (number of variables, interval evaluator)
EXPRESSIONS = {
    "segment_shape": (1, _g_iv),
    "segment_shape_scaled": (1, _g32_iv),
    "lens_area": (2, _area_iv),
    "lens_area_scaled": (2, _scaled_area_iv),
    "lens_area_half_ratio": (2, _ratio_iv),
    "lens_area_slope": (2, _slope_iv),
    "lens_area_curvature": (2, _curvature_iv),
    "lens_area_curvature_excess": (2, _curvature_excess_iv),
    "curvature_term1_weighted": (2, _t1_weighted_iv),
    "curvature_term2_weighted": (2, _t2_weighted_iv),
    "curvature_term3_weighted": (2, _t3_weighted_iv),
}

#: The expressions whose evaluator also runs on :class:`Gradient` variables,
#: so that :func:`prove` may decide a box by its mean-value enclosure: the
#: scaled area and the ratio built from it, both C^1 on the closed box.  The
#: form pays where natural enclosures need deep trees (the ratio takes 1,808
#: boxes instead of 42,548, ``area_scaled_upper`` 1,164 instead of 24,412); a
#: shallow task spends more on the partials than the boxes it saves.  Only
#: levels whose parent midpoints ride compute partials, so the start level
#: computes none.
GRADIENT_FORMS = frozenset({"lens_area_half_ratio", "lens_area_scaled"})


# ---------------------------------------------------------------------------
# branch and bound
# ---------------------------------------------------------------------------


class DomainError(ValueError):
    """A proof tree reached a box too thin to split."""


@dataclass(frozen=True)
class Box:
    """A box of the proof tree, reported as a refutation or exhaustion
    witness."""

    intervals: tuple[Interval, ...]
    depth: int = 0

    def as_lists(self) -> list[list[float]]:
        return [[iv.lo, iv.hi] for iv in self.intervals]


@dataclass(frozen=True)
class ProofTask:
    name: str
    expression: str
    domain: tuple[tuple[float, float], ...]
    relation: str  # one of "<=", "<", ">=", ">"
    bound: float
    description: str = ""

    def __post_init__(self):
        if self.expression not in EXPRESSIONS:
            raise ValueError(f"unknown expression {self.expression!r}")
        if self.relation not in ("<=", "<", ">=", ">"):
            raise ValueError(f"unknown relation {self.relation!r}")
        arity = EXPRESSIONS[self.expression][0]
        if len(self.domain) != arity:
            raise ValueError(
                f"{self.expression} takes {arity} variables, domain has {len(self.domain)}"
            )
        for lo, hi in self.domain:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ValueError(f"domain bounds ({lo}, {hi}) are not a finite interval")
        if math.isnan(self.bound):
            # No enclosure certifies or refutes a comparison with NaN.
            raise ValueError("bound is NaN")


@dataclass
class ProofResult:
    task: ProofTask
    verdict: str  # "proved" | "refuted" | "exhausted"
    boxes_processed: int
    max_depth_reached: int
    witness_box: Box | None = None
    witness_point: tuple[float, ...] | None = None
    witness_enclosure: Interval | None = None
    budget: int = 0
    #: arccos arguments clipped into [-1, 1] while deciding the task
    acos_clips: int = 0
    #: boxes evaluated at each depth, indexed by depth
    boxes_per_depth: list[int] = field(default_factory=list)
    #: boxes at each depth that only the mean-value enclosure decided;
    #: ``None`` for an expression without a gradient form
    centered_per_depth: list[int] | None = None
    #: wall seconds of the proof, timed in the process that ran it; kept out
    #: of the certificate, which is deterministic
    elapsed_s: float = field(default=0.0, compare=False)

    def certificate(self) -> dict:
        cert = {
            "task": self.task.name,
            "expression": self.task.expression,
            "domain": [list(d) for d in self.task.domain],
            "relation": self.task.relation,
            "bound": self.task.bound,
            "verdict": self.verdict,
            "boxes_processed": self.boxes_processed,
            "max_depth_reached": self.max_depth_reached,
            "box_budget": self.budget,
            "rounding": ROUNDING_MODE,
            "acos_clips": self.acos_clips,
            "boxes_per_depth": self.boxes_per_depth,
        }
        if self.centered_per_depth is not None:
            cert["centered_per_depth"] = self.centered_per_depth
        if self.witness_box is not None:
            cert["witness_box"] = self.witness_box.as_lists()
        if self.witness_point is not None:
            cert["witness_point"] = list(self.witness_point)
        if self.witness_enclosure is not None:
            cert["witness_enclosure"] = [
                self.witness_enclosure.lo,
                self.witness_enclosure.hi,
            ]
        return cert

    def certificate_json(self) -> str:
        return json.dumps(self.certificate(), indent=2, sort_keys=True)


# Lanes already invalid, or dividing by an interval that contains zero, may
# hold inf or nan; they are marked invalid, so numpy's warnings are silenced
# once per evaluation or proof instead of in every interval operation.
@np.errstate(all="ignore")
def interval_eval(expression: str, *intervals: Interval) -> Interval:
    """Evaluate one of the cataloged expressions over an interval box."""
    arity, fn = EXPRESSIONS[expression]
    if len(intervals) != arity:
        raise ValueError(f"{expression} takes {arity} intervals")
    return fn(*intervals)


def _certifies(enc: Interval, relation: str, bound: float) -> bool:
    if relation == "<=":
        return enc.hi <= bound
    if relation == "<":
        return enc.hi < bound
    if relation == ">=":
        return enc.lo >= bound
    return enc.lo > bound


#: The relation a point enclosure must certify to refute a claimed relation.
_NEGATION = {"<=": ">", "<": ">=", ">=": "<", ">": "<="}


def _columns(lo: np.ndarray, hi: np.ndarray) -> list[Interval]:
    """One array interval per dimension of a level's boxes (one row per box)."""
    return [Interval(lo[:, i], hi[:, i]) for i in range(lo.shape[1])]


#: Most lanes in one call of an expression.  A level's lanes are evaluated
#: in calls of this many, so a call's temporaries stay bounded however wide
#: the level grows.
_LANES = 4096


def _joined(parts: list[Interval]) -> Interval:
    """The lanes of ``parts`` (the last axis) joined in order."""
    if len(parts) == 1:
        return parts[0]
    return Interval(
        *(np.concatenate([getattr(p, k) for p in parts], axis=-1) for k in ("lo", "hi", "invalid"))
    )


def _evaluate(fn, lo: np.ndarray, hi: np.ndarray, gradient: bool = False):
    """``fn`` over the boxes ``[lo, hi]`` (one row per box, one lane each),
    in calls of at most ``_LANES`` lanes; with ``gradient`` on
    :class:`Gradient` variables, giving a :class:`Gradient`."""
    parts = []
    for start in range(0, len(lo), _LANES):
        columns = _columns(lo[start : start + _LANES], hi[start : start + _LANES])
        parts.append(fn(*Gradient.variables(*columns)) if gradient else fn(*columns))
    if gradient:
        return Gradient(_joined([p.value for p in parts]), _joined([p.partials for p in parts]))
    return _joined(parts)


def _mean_value(partials: Interval, lo: np.ndarray, hi: np.ndarray, center, at_center):
    """The mean-value enclosure f(c) + sum_i (df/dx_i)(box) (X_i - c_i) of f
    over the boxes ``[lo, hi]`` (one row per box), from the enclosures
    ``partials`` (one row per variable) of f's partial derivatives on the
    boxes and ``at_center`` of f at the points ``center`` of the boxes.

    Sound where f is C^1 on the box: for every point p of a box, f(p) =
    f(c) + grad f(xi) . (p - c) at some xi on the segment from c to p,
    which lies in the box.  Its excess width shrinks quadratically with the
    box, where the natural enclosure's shrinks linearly (Moore, Kearfott &
    Cloud, Introduction to Interval Analysis, ch. 6)."""
    terms = partials * (Interval(lo.T, hi.T) - center.T)
    enc = at_center
    for k in range(len(terms.lo)):
        enc = enc + Interval(terms.lo[k], terms.hi[k], terms.invalid[k])
    return enc


def _split(lo: np.ndarray, hi: np.ndarray, mid: np.ndarray, spans: np.ndarray):
    """The 2^d children of every box, cut at its midpoint ``mid`` in each of
    the d dimensions of positive domain span ``spans``.  A box's children
    are consecutive rows, lo and hi halves in the order of
    ``itertools.product``, dimension 0 slowest; ``mid`` is a corner of each."""
    dims = np.flatnonzero(spans > 0)
    if dims.size == 0 or not np.all((lo[:, dims] < mid[:, dims]) & (mid[:, dims] < hi[:, dims])):
        raise DomainError("box too thin to split")
    upper = np.tile(list(itertools.product((False, True), repeat=dims.size)), (len(lo), 1))
    lo, hi, mid = (np.repeat(a, 2**dims.size, axis=0) for a in (lo, hi, mid))
    lo[:, dims] = np.where(upper, mid[:, dims], lo[:, dims])
    hi[:, dims] = np.where(upper, hi[:, dims], mid[:, dims])
    return lo, hi


#: Deepest level of the box tree, counted from the root also when the walk
#: starts at the grid of :data:`_START_DEPTH`; the suite's proofs reach
#: level 8.
_MAX_DEPTH = 60

#: Level of the uniform grid a proof starts from: the root split this many
#: times, 2^(4 d) boxes for d split dimensions.  Levels above it decide
#: almost no box (the ratio none), yet each costs a call of nearly fixed
#: price.
_START_DEPTH = 4


def _start_grid(domain: np.ndarray, spans: np.ndarray, fanout: int, max_boxes: int):
    """The boxes a proof starts from, one row per box, and their depth: the
    root split ``_START_DEPTH`` times, in level order; or the root alone,
    at depth 0, when those boxes would exceed ``max_boxes`` or the domain is
    too thin to split that often."""
    lo, hi = domain[None, :, 0], domain[None, :, 1]
    if fanout**_START_DEPTH > max_boxes:
        return lo, hi, 0
    grid = lo, hi
    try:
        for _ in range(_START_DEPTH):
            grid = _split(*grid, 0.5 * (grid[0] + grid[1]), spans)
    except DomainError:
        return lo, hi, 0
    return *grid, _START_DEPTH


def _box(lo: np.ndarray, hi: np.ndarray, depth: int) -> Box:
    return Box(tuple(Interval(a, b) for a, b in zip(lo.tolist(), hi.tolist())), depth)


def _refuting(point_enc: Interval, task: ProofTask) -> np.ndarray:
    """The lanes whose point enclosure certifies the negated relation."""
    return np.flatnonzero(
        ~point_enc.invalid & _certifies(point_enc, _NEGATION[task.relation], task.bound)
    )


def _refutation(fn, task: ProofTask, lo, hi, mid, depth: int) -> dict | None:
    """The witness of the first midpoint ``mid`` of the undecided boxes
    ``[lo, hi]`` of level ``depth`` that refutes the task, evaluated alone,
    or ``None`` when none does."""
    point_enc = _evaluate(fn, mid, mid)
    refuting = _refuting(point_enc, task)
    if refuting.size == 0:
        return None
    k = refuting[0]
    return {
        "witness_box": _box(lo[k], hi[k], depth),
        "witness_point": tuple(mid[k].tolist()),
        "witness_enclosure": point_enc.take(k),
    }


@np.errstate(all="ignore")
def prove(task: ProofTask, max_boxes: int = 2**24) -> ProofResult:
    """Decide a :class:`ProofTask` by deterministic adaptive bisection.

    The box tree is walked in level order, one depth at a time, from the
    grid of the root split ``_START_DEPTH`` times (:func:`_start_grid`), or
    from the root when that grid would exceed ``max_boxes`` or the domain is
    too thin for it; the levels above the start count no boxes.  The boxes
    of a depth are certified by their natural enclosure or, for an
    expression in :data:`GRADIENT_FORMS`, by their mean-value enclosure
    about their parent's midpoint (counted per depth in
    ``centered_per_depth`` when only that one certifies; the start level has
    no parent midpoints, so its call computes no partials).  Each undecided
    box is halved at its midpoint in every dimension of positive domain
    span, its 2^d children in a fixed order (:func:`_split`), to form the
    next level.  The midpoints of the undecided boxes, as degenerate
    intervals, are checked for refutation one level late: they ride as
    extra lanes in the next level's call, so a level costs one call of at
    most ``_LANES`` lanes per chunk.  When they refute, the next level is
    dropped from the count, and the arccos clip counter is reset and the
    midpoints evaluated alone, so the result is that of checking them
    before the next level ran.  A proved task visits the same boxes in any
    order.  A refuted task reports the first refuting box of its level.  A
    task is exhausted, and reports the first undecided box of its last
    level, when that level is at ``_MAX_DEPTH`` or its children would take
    the boxes processed past ``max_boxes``; the midpoints of a last level,
    and of a level whose boxes are too thin to split, are checked alone
    first.  Results are reproducible.  A budget below one box raises
    ``ValueError``.
    """
    if max_boxes < 1:
        raise ValueError(f"a proof needs a budget of at least 1 box, got {max_boxes}")
    start = time.perf_counter()
    _, fn = EXPRESSIONS[task.expression]
    gradient = task.expression in GRADIENT_FORMS
    domain = np.array(task.domain, dtype=float)
    spans = domain[:, 1] - domain[:, 0]
    fanout = 2 ** np.count_nonzero(spans > 0)
    lo, hi, start_depth = _start_grid(domain, spans, fanout, max_boxes)
    clips = intervals.acos_clip_events
    per_depth = [0] * start_depth
    centered = [0] * start_depth
    verdict, witness = "proved", {}
    # The previous level's undecided boxes and their midpoints, not yet
    # checked for refutation; none ride with the start level.
    pending = (lo[:0], hi[:0], lo[:0])
    for depth in itertools.count(start_depth):
        per_depth.append(len(lo))
        before = intervals.acos_clip_events
        mid = pending[2]
        # Partials serve only the mean-value form, which needs a midpoint.
        with_partials = gradient and len(mid) > 0
        enc = _evaluate(fn, np.concatenate((lo, mid)), np.concatenate((hi, mid)), with_partials)
        if with_partials:
            enc, partials = enc.value, enc.partials
        at_mid = enc.take(slice(len(lo), None))
        if _refuting(at_mid, task).size:
            # The previous level is refuted, so this one never ran: its boxes
            # and their clips do not count, and the midpoints count alone.
            per_depth.pop()
            intervals.acos_clip_events = before
            verdict, witness = "refuted", _refutation(fn, task, *pending, depth - 1)
            break
        enc = enc.take(slice(len(lo)))
        decided = ~enc.invalid & _certifies(enc, task.relation, task.bound)
        if gradient:
            # Rows fanout r up to fanout (r + 1) are the children of the last
            # level's undecided box r, whose midpoint is a corner of each: it
            # is their center, and its enclosure rode in this call.
            by_center = np.zeros_like(decided)
            if with_partials:
                parent = np.arange(len(lo)) // fanout
                cen = _mean_value(
                    partials.take(slice(len(lo))), lo, hi, mid[parent], at_mid.take(parent)
                )
                by_center = ~decided & ~cen.invalid & _certifies(cen, task.relation, task.bound)
            centered.append(int(np.count_nonzero(by_center)))
            decided |= by_center
        undecided = np.flatnonzero(~decided)
        if undecided.size == 0:
            break
        lo, hi = lo[undecided], hi[undecided]
        mid = 0.5 * (lo + hi)
        children = too_thin = None
        if depth < _MAX_DEPTH and sum(per_depth) + fanout * len(lo) <= max_boxes:
            try:
                children = _split(lo, hi, mid, spans)
            except DomainError as exc:
                too_thin = exc
        if children is None:
            # The walk ends here, unless a midpoint refutes the task first.
            refuted = _refutation(fn, task, lo, hi, mid, depth)
            if refuted is not None:
                verdict, witness = "refuted", refuted
                break
            if too_thin is not None:
                raise too_thin
            verdict, witness = "exhausted", {
                "witness_box": _box(lo[0], hi[0], depth),
                "witness_point": tuple(mid[0].tolist()),
            }
            break
        pending = (lo, hi, mid)
        lo, hi = children
    return ProofResult(
        task,
        verdict,
        sum(per_depth),
        len(per_depth) - 1,
        budget=max_boxes,
        acos_clips=intervals.acos_clip_events - clips,
        boxes_per_depth=per_depth,
        centered_per_depth=centered if gradient else None,
        elapsed_s=time.perf_counter() - start,
        **witness,
    )


# ---------------------------------------------------------------------------
# the certified inequality suite
# ---------------------------------------------------------------------------

_FULL = ((0.0, 2.0), (0.0, 1.0))
_MID = ((0.01, 1.99), (0.0, 1.0))
_LEFT = ((0.0, 0.01), (0.0, 1.0))


def inequality_suite() -> list[ProofTask]:
    """All analytic inequalities backing the broadcast schedule analysis.

    ``x`` is the annulus width in units of the transmission radius and
    ``z = 1/d`` the reciprocal sender distance, so each task ranges over a
    closed box.
    """
    return [
        ProofTask(
            "shape_scaled_lower",
            "segment_shape_scaled",
            ((0.0, 2.0),),
            ">=",
            1.0,
            "g(t)/t^1.5 stays above 1 on [0, 2]",
        ),
        ProofTask(
            "shape_scaled_upper",
            "segment_shape_scaled",
            ((0.0, 2.0),),
            "<=",
            2.0,
            "g(t)/t^1.5 stays below 2 on [0, 2]",
        ),
        ProofTask(
            "area_scaled_lower",
            "lens_area_scaled",
            _FULL,
            ">",
            1.0,
            "f(x, d)/sqrt(x) exceeds 1 for all widths and distances",
        ),
        ProofTask(
            "area_scaled_upper",
            "lens_area_scaled",
            _FULL,
            "<",
            7.0 / 3.0,
            "f(x, d)/sqrt(x) stays below 7/3",
        ),
        ProofTask(
            "area_scaled_far_lower",
            "lens_area_scaled",
            ((0.0, 2.0), (0.0, 0.5)),
            ">",
            1.5,
            "f(x, d)/sqrt(x) exceeds 3/2 once d >= 2",
        ),
        ProofTask(
            "area_half_width_ratio",
            "lens_area_half_ratio",
            _FULL,
            ">",
            1.4,
            "f(x, d) / f(x/2, d) exceeds 7/5: halving the width divides "
            "the area by more than 7/5",
        ),
        ProofTask(
            "area_slope_positive",
            "lens_area_slope",
            _MID,
            ">",
            0.0,
            "f is strictly increasing in the width away from the endpoints",
        ),
        ProofTask(
            "area_concave_mid",
            "lens_area_curvature",
            _MID,
            "<=",
            -0.125,
            "f has curvature at most -1/8 for x in [0.01, 1.99]",
        ),
        ProofTask(
            "area_concave_left",
            "lens_area_curvature_excess",
            _LEFT,
            "<=",
            0.0,
            "x^1.5 (f'' + 199) <= 0, i.e. curvature <= -199, for x in [0, 0.01]",
        ),
        ProofTask(
            "term1_lower",
            "curvature_term1_weighted",
            _FULL,
            ">=",
            -2.0,
            "first curvature term, weighted by sqrt(x(2-x)), is at least -2",
        ),
        ProofTask(
            "term1_upper",
            "curvature_term1_weighted",
            _FULL,
            "<=",
            2.0,
            "first curvature term, weighted by sqrt(x(2-x)), is at most 2",
        ),
        ProofTask(
            "term2_upper",
            "curvature_term2_weighted",
            _FULL,
            "<=",
            0.0,
            "second curvature term, weighted by sqrt(x), is nonpositive",
        ),
        ProofTask(
            "term3_lower",
            "curvature_term3_weighted",
            _FULL,
            ">=",
            -1.0,
            "third curvature term, weighted by x^1.5, is at least -1",
        ),
        ProofTask(
            "term3_upper",
            "curvature_term3_weighted",
            _FULL,
            "<=",
            1.0,
            "third curvature term, weighted by x^1.5, is at most 1",
        ),
        ProofTask(
            "term3_left_upper",
            "curvature_term3_weighted",
            _LEFT,
            "<=",
            -0.2,
            "third curvature term, weighted by x^1.5, is at most -1/5 "
            "for x in [0, 0.01]",
        ),
    ]
