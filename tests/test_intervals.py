import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopcast import intervals
from coopcast.intervals import Gradient, Interval, on_lanes

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@st.composite
def interval_and_point(draw, lo_min=-1e6, hi_max=1e6):
    a = draw(st.floats(min_value=lo_min, max_value=hi_max))
    b = draw(st.floats(min_value=lo_min, max_value=hi_max))
    lo, hi = min(a, b), max(a, b)
    t = draw(st.floats(min_value=0.0, max_value=1.0))
    point = lo + t * (hi - lo)
    point = min(max(point, lo), hi)
    return Interval(lo, hi), point


@given(interval_and_point(), interval_and_point())
def test_soundness_arithmetic(ap, bp):
    a, x = ap
    b, y = bp
    # An endpoint quotient may overflow to inf, which numpy warns about.
    with np.errstate(all="ignore"):
        assert (a + b).contains(x + y)
        assert (a - b).contains(x - y)
        assert (a * b).contains(x * y)
        if not (b.lo <= 0.0 <= b.hi):
            assert (a / b).contains(x / y)


@given(interval_and_point(lo_min=0.0))
def test_soundness_sqrt_pow(ap):
    a, x = ap
    assert a.sqrt().contains(math.sqrt(x))
    assert a.pow32().contains(x * math.sqrt(x))
    assert a.sq().contains(x * x)


@given(interval_and_point(lo_min=-1.0, hi_max=1.0))
def test_soundness_acos(ap):
    a, x = ap
    assert a.acos().contains(math.acos(x))


def test_exact_zero_endpoints():
    z = Interval(0.0)
    assert z * Interval(-7.0, 123.0) == Interval(0.0, 0.0)
    # an exact zero endpoint stays exactly zero through * and /
    prod = Interval(0.0, 2.0) * Interval(0.0, 3.0)
    assert prod.lo == 0.0
    quot = Interval(0.0, 2.0) / Interval(1.0, 3.0)
    assert quot.lo == 0.0
    assert (-(Interval(0.0, 1.0) * Interval(0.0, 1.0))).hi == 0.0


def test_outward_widening():
    third = Interval(1.0) / Interval(3.0)
    assert third.lo < 1.0 / 3.0 < third.hi
    s = Interval(0.1) + Interval(0.2)
    assert s.lo < 0.1 + 0.2 < s.hi


def test_division_by_zero_interval():
    with np.errstate(all="ignore"):
        assert (Interval(1.0, 2.0) / Interval(-1.0, 1.0)).invalid
    assert not (Interval(1.0, 2.0) / Interval(1.0, 3.0)).invalid


def test_sqrt_negative():
    assert Interval(-2.0, -1.0).sqrt().invalid
    assert Interval(-2.0, -1.0).pow32().invalid
    # slightly negative lower bounds (rounding artifacts) are clamped
    assert Interval(-1e-300, 4.0).sqrt().lo == 0.0
    assert not Interval(-1e-300, 4.0).sqrt().invalid


def test_acos_outside_its_domain():
    assert Interval(2.0, 3.0).acos().invalid
    assert not Interval(0.5, 3.0).acos().invalid


def test_invalid_float_interval_propagates():
    bad = Interval(-2.0, -1.0).sqrt()
    for result in (bad + 1.0, 1.0 - bad, bad * 2.0, bad / 2.0, -bad, bad.sq(), bad.sqrt()):
        assert result.invalid
    assert bad != Interval(bad.lo, bad.hi)
    assert bad.contains(0.0) is False and Interval(bad.lo, bad.hi).contains(0.0)
    assert "invalid" in repr(bad) and "invalid" not in repr(Interval(1.0))


def test_structure_helpers():
    a = Interval(1.0, 3.0)
    b = Interval(2.0, 5.0)
    assert a.intersect(b) == Interval(2.0, 3.0)
    assert a.width == 2.0
    assert a.mid == 2.0
    assert not a.intersect(b).invalid
    assert Interval(0.0, 1.0).intersect(Interval(2.0, 3.0)).invalid


def test_invalid_intervals():
    assert Interval(2.0, 1.0).invalid
    assert Interval(float("nan"), 1.0).invalid
    assert Interval(0.0, float("nan")).invalid
    assert Interval(1.0, 1.0, invalid=True).invalid
    assert not Interval(1.0, 2.0).invalid


def test_on_lanes_skips_an_invalid_float_base_or_argument():
    # An invalid base or argument keeps the branch from running, as an
    # invalid lane of an array does: the base comes back and no arccos
    # argument is clipped.
    bad = Interval(2.0, 1.0)
    good = Interval(2.0, 3.0)
    clips = intervals.acos_clip_events
    assert on_lanes(True, lambda b, t: t.acos(), bad, good) is bad
    assert on_lanes(True, lambda b, t: t.acos(), good, bad) is good
    assert intervals.acos_clip_events == clips
    # A valid base and argument take the branch, which clips here.
    assert on_lanes(True, lambda b, t: t.acos(), good, good).invalid
    assert intervals.acos_clip_events == clips + 1
    assert on_lanes(False, lambda b, t: t.acos(), good, good) is good


@given(interval_and_point(lo_min=0.0, hi_max=10.0))
@settings(max_examples=50)
def test_refinement_shrinks_enclosure(ap):
    # A quadratic evaluated on the two halves of a box encloses, over both
    # halves together, something no wider than on the whole box.
    a, _ = ap
    if a.width < 1e-12:
        return
    expr = lambda t: t * t - t  # noqa: E731
    whole = expr(a)
    left, right = expr(Interval(a.lo, a.mid)), expr(Interval(a.mid, a.hi))
    lo, hi = min(left.lo, right.lo), max(left.hi, right.hi)
    assert (whole.lo <= lo and hi <= whole.hi) or hi - lo <= whole.width + 1e-12


# ---------------------------------------------------------------------------
# products and quotients, bit for bit against a per-lane reference
# ---------------------------------------------------------------------------

_SPECIAL = (
    0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 0.75, -1.5, 3.0,
    1e300, -1e300, 1.7e308, -1.7e308, math.inf, -math.inf,
)

#: (numerator or first factor, divisor or second factor) lanes for the
#: cases a fold of the four candidates can get wrong.
_CRAFTED = (
    ((1.0, math.inf), (1.0, math.inf)),  # inf / inf, last
    ((1.0, math.inf), (-math.inf, -1.0)),  # inf / -inf third, -inf fourth
    ((-math.inf, 5.0), (-math.inf, -1.0)),  # inf / inf first: invalid
    ((math.inf, math.inf), (math.inf, math.inf)),
    ((-5e-324, 0.0), (1.0, 1.0)),  # hi is -0.0, ahead of an exact 0.0
    ((-5e-324, -5e-324), (0.5, 1.0)),  # products that round to -0.0
    ((0.0, 0.0), (-math.inf, math.inf)),  # 0 * inf is exactly 0
    ((-0.0, 0.0), (-0.0, 0.0)),
    ((1e300, 1.7e308), (1e-10, 1e300)),  # overflow to inf
    ((5e-324, 5e-324), (0.25, 0.5)),  # underflow to 0
)


def _reference(op, a, b):
    """``a op b`` on one lane in Python floats: ``(lo, hi, invalid)``.

    The four endpoint products or quotients, in the order lo.lo, lo.hi,
    hi.lo, hi.hi, are stepped outward with ``math.nextafter`` and bounded
    with builtin ``min`` and ``max`` (the first of equal candidates wins).
    A product with an exactly-zero factor, or a quotient with an exactly-zero
    numerator, is exactly 0; a divisor that contains zero gives [0, 0]."""
    (alo, ahi), (blo, bhi) = map(float, a), map(float, b)
    if op == "/" and blo <= 0.0 <= bhi:
        return 0.0, 0.0, True
    down, up = [], []
    for x, y in ((alo, blo), (alo, bhi), (ahi, blo), (ahi, bhi)):
        if x == 0.0 or (op == "*" and y == 0.0):
            down.append(0.0)
            up.append(0.0)
        else:
            c = x * y if op == "*" else x / y
            down.append(math.nextafter(c, -math.inf))
            up.append(math.nextafter(c, math.inf))
    lo, hi = min(down), max(up)
    return lo, hi, not lo <= hi


def _endpoints(rng, op, count):
    """(lo, hi) rows, lo <= hi, of both operands: the crafted lanes, then
    random ones whose endpoints are a special value (signed zeros, the least
    subnormal, values whose products overflow, infinities) one time in four
    and otherwise of random magnitude from 2**-1074 to 2**1020.  A random
    divisor has one sign, except every fourth, which contains zero."""
    a, b = np.array(_CRAFTED).transpose(1, 0, 2)
    ends = []
    for crafted in (a, b):
        shape = (count - len(crafted), 2)
        special = rng.choice(np.array(_SPECIAL), shape)
        scaled = np.ldexp(rng.uniform(-2.0, 2.0, shape), rng.integers(-1074, 1020, shape))
        values = np.where(rng.random(shape) < 0.25, special, scaled)
        if op == "/" and crafted is b:
            values = np.abs(values) * rng.choice([-1.0, 1.0], (len(values), 1))
        ends.append(np.concatenate((crafted, np.sort(values, axis=1))))
    if op == "/":
        straddle = [(-1.0, 2.0), (0.0, 3.0), (-0.0, 0.0), (-5e-324, 5e-324)]
        ends[1][len(_CRAFTED) :: 4] = (straddle * count)[: len(ends[1][len(_CRAFTED) :: 4])]
    return ends


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _lane_mismatches(op, shape, seed, count=400):
    """The lanes of ``a op b``, ``a`` and ``b`` floats or arrays as
    ``shape`` says, whose bits or invalid flag differ from ``_reference``.
    A float operand takes the endpoints of one lane at a time: every lane
    when both are floats, else the first 40."""
    rng = np.random.Generator(np.random.Philox(seed))
    a_ends, b_ends = _endpoints(rng, op, count)
    a_float, b_float = (side == "float" for side in shape.split("*"))
    steps = range(count) if a_float and b_float else range(40) if a_float or b_float else [0]
    mismatches = []
    with np.errstate(all="ignore"):
        for k in steps:
            lanes = [k] if a_float and b_float else range(count)
            refs = [
                _reference(op, a_ends[k if a_float else j], b_ends[k if b_float else j])
                for j in lanes
            ]
            a = Interval(*a_ends[k]) if a_float else Interval(a_ends[:, 0], a_ends[:, 1])
            b = Interval(*b_ends[k]) if b_float else Interval(b_ends[:, 0], b_ends[:, 1])
            got = a * b if op == "*" else a / b
            los, his, invalids = np.ravel(got.lo), np.ravel(got.hi), np.ravel(got.invalid)
            for j, (lo, hi, invalid) in enumerate(refs):
                if (_bits(los[j]), _bits(his[j]), bool(invalids[j])) != (
                    _bits(lo),
                    _bits(hi),
                    invalid,
                ):
                    mismatches.append((k, lanes[j]))
    return mismatches


_SHAPES = ("float*float", "float*array", "array*float", "array*array")


@pytest.mark.parametrize("shape", _SHAPES)
@pytest.mark.parametrize("op", ["*", "/"])
def test_products_and_quotients_match_lane_reference_bit_for_bit(op, shape):
    assert _lane_mismatches(op, shape, seed=_SHAPES.index(shape)) == []


def test_lane_reference_catches_inward_rounding(monkeypatch):
    # Bounds taken without the outward step round every endpoint inward.
    def inward(candidates, exact_zero):
        c = np.where(exact_zero, 0.0, candidates).reshape(4, -1)
        lanes = candidates.shape[2:]
        return c.min(axis=0).reshape(lanes), c.max(axis=0).reshape(lanes)

    monkeypatch.setattr(Interval, "_bounds", staticmethod(inward))
    for op in ("*", "/"):
        for shape in _SHAPES:
            assert _lane_mismatches(op, shape, seed=_SHAPES.index(shape)), (op, shape)


def test_gradient_chain_rule_and_unsupported_operations():
    # Exact inputs: x in [0.5, 1], z in [0.25, 0.5].  An Interval on the left
    # defers to the gradient; an operation without a derivative rule raises
    # rather than treating the gradient as a constant.
    x, z = Gradient.variables(
        Interval(np.array([0.5]), np.array([1.0])), Interval(np.array([0.25]), np.array([0.5]))
    )
    f = Interval(2.0) * x * z + 1.0
    assert isinstance(f, Gradient)
    # f in [1.25, 2], d/dx = 2 z in [0.5, 1] and d/dz = 2 x in [1, 2], each
    # widened by a few ulps.
    for lo, hi, exact in zip(
        (f.value.lo[0], *f.partials.lo[:, 0]),
        (f.value.hi[0], *f.partials.hi[:, 0]),
        ((1.25, 2.0), (0.5, 1.0), (1.0, 2.0)),
    ):
        assert lo <= exact[0] and exact[1] <= hi
        assert exact[0] - lo < 1e-14 and hi - exact[1] < 1e-14
    for op in (lambda: -x, lambda: 1.0 / x, lambda: Interval(1.0) / x, lambda: x.acos()):
        with pytest.raises((TypeError, AttributeError)):
            op()
