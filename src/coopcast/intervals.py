"""Outward-rounded interval arithmetic over floats or float64 arrays.

Every operation returns an interval that provably contains the true real
result for all inputs in the operand intervals.  Endpoints are computed in
double precision and widened with ``numpy.nextafter``: one ulp for the
correctly rounded IEEE operations (+, -, *, /, sqrt), two ulps for libm
transcendentals whose rounding is not guaranteed.  arccos is ``math.acos``,
called once per element, so the libm guard covers the routine that runs.
Products and quotients with an exactly-zero endpoint are kept at zero
(multiplication by real zero is exact, and the zero endpoint of an operand
interval represents real zero).

The endpoints ``lo`` and ``hi`` are either floats or arrays of one shape;
an array interval is a batch of independent intervals, one per lane, and
every operation acts lane by lane with the same rounding as on floats.  An
operation that leaves its domain on some lanes marks them in the boolean
``invalid`` mask, which propagates to every result computed from them.  A
float interval follows the same rule as one lane: it is marked invalid when
an operation leaves its domain, or when it is built with lo > hi or a NaN
endpoint.  No operation raises.

A product or quotient is one stack: the endpoints of the left operand,
shaped (2, 1, ...), and of the right, shaped (1, 2, ...), give the four
candidates lo.lo, lo.hi, hi.lo, hi.hi as one (2, 2, ...) array.  The
candidates are folded to one lo and one hi per lane, then each is stepped
outward once: fold, then step, so ``nextafter`` runs on one value a lane
each way, not four.  The bits are those of stepping all four candidates
and taking Python's ``min`` and ``max`` of the steps.

Invalid lanes and invalid float intervals may hold inf or nan.  The
operations leave numpy's floating-point warnings alone;
:func:`coopcast.prover.prove` and :func:`coopcast.prover.interval_eval`
silence them with ``numpy.errstate(all="ignore")``, entered once per call.

A :class:`Gradient` carries forward-mode derivatives through the same
operations: the value enclosure of a function on a batch of boxes, computed
by the very operations a plain evaluation runs, and the enclosures of its
partial derivatives stacked as one interval of shape (variables, lanes), so
each chain-rule step is one operation for all partials.  Lanes are the last
axis of every array interval.

The rounding realization is recorded in proof certificates as
``ROUNDING_MODE``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Interval",
    "Gradient",
    "ROUNDING_MODE",
    "acos_clip_events",
    "on_lanes",
]

ROUNDING_MODE = "nextafter-outward (1 ulp arithmetic, 2 ulp libm)"

_INF = math.inf
_TINY = 2.0**-1074

#: Number of lanes whose arccos argument had to be clipped into [-1, 1].
acos_clip_events = 0


def _down2(x):
    return np.nextafter(np.nextafter(x, -_INF), -_INF)


def _up2(x):
    return np.nextafter(np.nextafter(x, _INF), _INF)


_PI_UP = _up2(math.pi)

# libm arccos applied element by element.
_ACOS = np.frompyfunc(math.acos, 1, 1)


# Python's min and max keep the first argument on ties (which decides the
# sign of a zero endpoint); np.minimum and np.maximum do not promise that.
def _min(a, b):
    return np.where(b < a, b, a)


def _max(a, b):
    return np.where(b > a, b, a)


def _pairs(x: Interval, y: Interval):
    """``(lo, hi)`` of ``x`` as a (2, 1, ...) array and of ``y`` as a
    (1, 2, ...) one, padded to the same number of lane axes, so that an
    operation between them gives the four endpoint combinations as a
    (2, 2, ...) stack in the order lo.lo, lo.hi, hi.lo, hi.hi."""
    a = np.array((x.lo, x.hi))
    b = np.array((y.lo, y.hi))
    pad = max(a.ndim, b.ndim)
    return (
        a.reshape((2, 1) + (1,) * (pad - a.ndim) + a.shape[1:]),
        b.reshape((1, 2) + (1,) * (pad - b.ndim) + b.shape[1:]),
    )


class Interval:
    """``[lo, hi]``, or a batch of such intervals when ``lo`` and ``hi`` are
    arrays.  ``invalid`` marks the lanes that left the domain of an
    operation or were built with lo > hi or a NaN endpoint (it may be passed
    in to carry a mask over to endpoints taken from another interval); a
    float interval is one lane, and its ``invalid`` a numpy bool."""

    __slots__ = ("lo", "hi", "invalid")
    # numpy operands defer to the reflected Interval operations.
    __array_ufunc__ = None

    def __init__(self, lo, hi=None, invalid=False):
        if hi is None:
            hi = lo
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        # nan on either side, or lo > hi
        self.invalid = ~(lo <= hi) | invalid
        if self.invalid.ndim == 0:
            lo, hi = float(lo), float(hi)
        elif lo.shape != hi.shape:
            lo, hi = np.broadcast_arrays(lo, hi)
        self.lo, self.hi = lo, hi

    # -- structure ---------------------------------------------------------

    def __repr__(self) -> str:
        flag = f", invalid={self.invalid!r}" if np.any(self.invalid) else ""
        return f"Interval({self.lo!r}, {self.hi!r}{flag})"

    def __eq__(self, other) -> bool:
        same = isinstance(other, Interval) and self.lo == other.lo and self.hi == other.hi
        return same and self.invalid == other.invalid

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    @property
    def width(self):
        return self.hi - self.lo

    @property
    def mid(self):
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float) -> bool:
        return not self.invalid and self.lo <= x <= self.hi

    def intersect(self, other: "Interval") -> "Interval":
        lo = _max(self.lo, other.lo)
        hi = _min(self.hi, other.hi)
        bad = lo > hi
        # An empty lane gets a placeholder so the result stays well formed.
        return Interval(np.where(bad, hi, lo), hi, self.invalid | other.invalid | bad)

    def take(self, lanes) -> "Interval":
        """The lanes selected by an index, slice or index array along the
        last axis; a float interval is the same on every lane."""
        if np.ndim(self.lo) == 0:
            return self
        return Interval(self.lo[..., lanes], self.hi[..., lanes], self.invalid[..., lanes])

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Interval":
        return x if isinstance(x, Interval) else Interval(x)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo, self.invalid)

    def __add__(self, other) -> "Interval":
        if isinstance(other, Gradient):
            return NotImplemented
        o = self._coerce(other)
        return Interval(
            np.nextafter(self.lo + o.lo, -_INF),
            np.nextafter(self.hi + o.hi, _INF),
            self.invalid | o.invalid,
        )

    __radd__ = __add__

    def __sub__(self, other) -> "Interval":
        if isinstance(other, Gradient):
            return NotImplemented
        o = self._coerce(other)
        return Interval(
            np.nextafter(self.lo - o.hi, -_INF),
            np.nextafter(self.hi - o.lo, _INF),
            self.invalid | o.invalid,
        )

    def __rsub__(self, other) -> "Interval":
        return self._coerce(other) - self

    @staticmethod
    def _bounds(candidates, exact_zero):
        """Outward bounds of a (2, 2, ...) stack of endpoint products or
        quotients, which it overwrites; the ones flagged in ``exact_zero``
        are exactly 0.

        The raw candidates are folded first and each bound is then stepped
        outward once.  The step is monotone and maps equal candidates,
        zeros of either sign too, to the same bits, so the bounds are those
        of stepping every candidate and folding the steps, as Python's
        ``min`` and ``max`` fold them in stack order: a NaN decides only in
        first place.  A flagged candidate enters the lo fold as 2**-1074,
        whose downward step is +0.0, and the hi fold as -2**-1074, whose
        upward step is -0.0; a hi won by a flagged candidate, the first of
        equal ones, is +0.0."""
        rows = candidates.reshape(4, -1)
        np.copyto(candidates, _TINY, where=exact_zero)
        lo = _min(rows[0], np.fmin.reduce(rows[1:]))
        tiny = (rows == -_TINY).any()  # an unflagged -2**-1074 can tie a flagged one
        np.copyto(candidates, -_TINY, where=exact_zero)
        hi = _max(rows[0], np.fmax.reduce(rows[1:]))
        zero = hi == -_TINY
        np.nextafter(lo, -_INF, out=lo)
        np.nextafter(hi, _INF, out=hi)
        if tiny:
            first = np.argmax(rows == -_TINY, axis=0)
            flags = np.broadcast_to(exact_zero, candidates.shape).reshape(4, -1)
            zero &= flags[first, np.arange(first.size)]
        np.copyto(hi, 0.0, where=zero)
        lanes = candidates.shape[2:]
        return lo.reshape(lanes), hi.reshape(lanes)

    def __mul__(self, other) -> "Interval":
        if isinstance(other, Gradient):
            return NotImplemented
        o = self._coerce(other)
        a, b = _pairs(self, o)
        # Multiplication by an exactly-zero endpoint is exact.
        lo, hi = self._bounds(a * b, (a == 0.0) | (b == 0.0))
        return Interval(lo, hi, self.invalid | o.invalid)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        if isinstance(other, Gradient):
            return NotImplemented
        o = self._coerce(other)
        bad = (o.lo <= 0.0) & (0.0 <= o.hi)
        a, b = _pairs(self, o)
        # An exactly-zero numerator is exact; a divisor that contains zero
        # gives the placeholder [0, 0] on its invalid lanes.
        lo, hi = self._bounds(a / b, (a == 0.0) | bad)
        return Interval(lo, hi, self.invalid | o.invalid | bad)

    def __rtruediv__(self, other) -> "Interval":
        return self._coerce(other) / self

    # -- elementary functions ---------------------------------------------

    def sqrt(self) -> "Interval":
        bad = self.hi < 0.0
        # Clamping hi as well keeps np.sqrt off the negative, invalid lanes.
        # Which zero np.maximum keeps does not matter: zero lanes become 0.0.
        lo = np.maximum(self.lo, 0.0)
        hi = np.maximum(self.hi, 0.0)
        slo = np.where(lo == 0.0, 0.0, np.nextafter(np.sqrt(lo), -_INF))
        shi = np.where(hi == 0.0, 0.0, np.nextafter(np.sqrt(hi), _INF))
        return Interval(slo, shi, self.invalid | bad)

    def pow32(self) -> "Interval":
        """x ** (3/2) for nonnegative x, via the monotone form x * sqrt(x)."""
        bad = self.hi < 0.0
        lo = np.maximum(self.lo, 0.0)
        hi = np.maximum(self.hi, 0.0)
        plo = np.where(lo == 0.0, 0.0, _down2(lo * np.sqrt(lo)))
        phi = np.where(hi == 0.0, 0.0, _up2(hi * np.sqrt(hi)))
        return Interval(np.maximum(plo, 0.0), phi, self.invalid | bad)

    def sq(self) -> "Interval":
        """x ** 2 as a single monotone-on-|x| operation (tighter than x*x)."""
        a, b = np.abs(self.lo), np.abs(self.hi)
        lo_abs = np.where((self.lo <= 0.0) & (0.0 <= self.hi), 0.0, _min(a, b))
        hi_abs = _max(a, b)
        lo = np.where(lo_abs == 0.0, 0.0, np.nextafter(lo_abs * lo_abs, -_INF))
        return Interval(lo, np.nextafter(hi_abs * hi_abs, _INF), self.invalid)

    def acos(self) -> "Interval":
        """arccos, decreasing; arguments clipped into [-1, 1] (each clipped
        lane counted in ``acos_clip_events``)."""
        global acos_clip_events
        clipped = (self.lo < -1.0) | (self.hi > 1.0)
        acos_clip_events += int(np.count_nonzero(clipped & ~self.invalid))
        lo = _max(self.lo, -1.0)
        hi = _min(self.hi, 1.0)
        bad = (lo > 1.0) | (hi < -1.0)
        # libm arccos lane by lane; invalid lanes get a placeholder argument.
        skip = bad | self.invalid
        acos_lo = np.asarray(_ACOS(np.where(skip, 0.0, hi)), dtype=float)
        acos_hi = np.asarray(_ACOS(np.where(skip, 0.0, lo)), dtype=float)
        return Interval(
            _max(_down2(acos_lo), 0.0),
            _min(_up2(acos_hi), _PI_UP),
            self.invalid | bad,
        )


class Gradient:
    """A function of n variables over a batch of boxes: the enclosure
    ``value`` of its values, of shape (lanes,), and the enclosures
    ``partials`` of its n partial derivatives, stacked as one interval of
    shape (n, lanes), so one operation steps every partial.

    Forward mode: an operation computes its value from the operands'
    values with exactly the interval operations it would run on them, so
    ``value`` has the bits of the plain evaluation, and its partials by the
    chain rule with every step outward-rounded.  A constant operand (a float
    or an :class:`Interval`) has zero partials.  The operations are ``+``,
    ``-`` and ``*`` between gradients or with a constant on either side,
    ``/`` of a gradient by a gradient or a constant, ``sqrt``, ``pow32``
    and ``intersect``; any other use raises instead of dropping a
    derivative.  Only array intervals are supported.
    """

    __slots__ = ("value", "partials")

    def __init__(self, value: Interval, partials: Interval):
        self.value = value
        self.partials = partials

    @staticmethod
    def variables(*boxes: Interval) -> tuple["Gradient", ...]:
        """The independent variables over the given intervals, one lane per
        box, each with the unit vector of its own index as partials."""
        unit = np.eye(len(boxes))
        return tuple(
            Gradient(x, Interval(np.repeat(unit[:, i : i + 1], len(x.lo), axis=1)))
            for i, x in enumerate(boxes)
        )

    def __add__(self, other) -> "Gradient":
        if isinstance(other, Gradient):
            return Gradient(self.value + other.value, self.partials + other.partials)
        return Gradient(self.value + other, self.partials)

    def __radd__(self, other) -> "Gradient":
        return Gradient(other + self.value, self.partials)

    def __sub__(self, other) -> "Gradient":
        if isinstance(other, Gradient):
            return Gradient(self.value - other.value, self.partials - other.partials)
        return Gradient(self.value - other, self.partials)

    def __rsub__(self, other) -> "Gradient":
        return Gradient(other - self.value, -self.partials)

    def __mul__(self, other) -> "Gradient":
        if isinstance(other, Gradient):
            return Gradient(
                self.value * other.value,
                self.partials * other.value + self.value * other.partials,
            )
        return Gradient(self.value * other, self.partials * other)

    def __rmul__(self, other) -> "Gradient":
        return Gradient(other * self.value, other * self.partials)

    def __truediv__(self, other) -> "Gradient":
        if isinstance(other, Gradient):
            # (u / v)' = (u' - (u / v) v') / v, with the quotient's enclosure.
            value = self.value / other.value
            return Gradient(value, (self.partials - value * other.partials) / other.value)
        return Gradient(self.value / other, self.partials / other)

    def sqrt(self) -> "Gradient":
        root = self.value.sqrt()
        return Gradient(root, self.partials / (2.0 * root))

    def pow32(self) -> "Gradient":
        return Gradient(self.value.pow32(), self.partials * (1.5 * self.value.sqrt()))

    def intersect(self, other: Interval) -> "Gradient":
        """Tighten the value enclosure by ``other``, which must hold the
        function's values on the whole box; the partials are unchanged."""
        return Gradient(self.value.intersect(other), self.partials)


def on_lanes(take, fn, base: Interval, *args: Interval) -> Interval:
    """``fn(base, *args)`` on the lanes where ``take`` holds, ``base`` on the
    others.

    The branch is evaluated only on the lanes that take it and on which
    ``base`` and every argument are valid, so an invalid lane counts no
    arccos clip there.  A float interval is one such lane: the branch is a
    plain ``if``.
    """
    ok = take & ~base.invalid
    for a in args:
        ok &= ~a.invalid
    if np.ndim(ok) == 0:
        return fn(base, *args) if ok else base
    lanes = np.flatnonzero(ok)
    if lanes.size == 0:
        return base
    part = fn(base.take(lanes), *(a.take(lanes) for a in args))
    lo, hi, invalid = base.lo.copy(), base.hi.copy(), base.invalid.copy()
    lo[lanes], hi[lanes], invalid[lanes] = part.lo, part.hi, part.invalid
    return Interval(lo, hi, invalid)
