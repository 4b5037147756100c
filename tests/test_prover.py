import itertools
import json
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopcast import intervals, prover
from coopcast.intervals import Gradient, Interval
from coopcast.prover import (
    EXPRESSIONS,
    GRADIENT_FORMS,
    Box,
    DomainError,
    ProofTask,
    _NEGATION,
    _certifies,
    _g32_iv,
    _g32_slope_closed_iv,
    _g32_slope_iv,
    _g32_series_iv,
    _g32_slope_series_iv,
    _mean_value,
    inequality_suite,
    interval_eval,
    prove,
)

FULL = ((0.0, 2.0), (0.0, 1.0))
MID = ((0.01, 1.99), (0.0, 1.0))


def _contains(enc, exact):
    return mpmath.mpf(enc.lo) <= exact <= mpmath.mpf(enc.hi)


def test_point_enclosures_match_direct_evaluation():
    rng = np.random.Generator(np.random.Philox(3))
    with mpmath.workdps(50):
        for _ in range(300):
            x = float(rng.uniform(1e-4, 2 - 1e-4))
            z = float(rng.uniform(1e-4, 1.0))
            for name in ("lens_area", "lens_area_scaled"):
                enc = interval_eval(name, Interval(x), Interval(z))
                assert _contains(enc, _oracle(name, [x, z])), (name, x, z)
        # f(0, d) = 0 and f(2, d) = pi: no area, then the whole disk.
        for z in (0.0, 1e-4, 0.25, 1.0):
            assert _contains(interval_eval("lens_area", Interval(0.0), Interval(z)), 0)
            assert _contains(interval_eval("lens_area", Interval(2.0), Interval(z)), mpmath.pi)


def test_curvature_enclosure_matches_direct():
    rng = np.random.Generator(np.random.Philox(4))
    with mpmath.workdps(50):
        for _ in range(200):
            x = float(rng.uniform(0.02, 1.98))
            z = float(rng.uniform(1e-3, 1.0))
            enc = interval_eval("lens_area_curvature", Interval(x), Interval(z))
            assert _contains(enc, _oracle("lens_area_curvature", [x, z])), (x, z)


def test_far_distance_limit_via_z_zero():
    # z = 0 encodes d -> infinity; the enclosure must contain the limit.
    with mpmath.workdps(50):
        for x in map(mpmath.mpf, (0.25, 1.0, 1.75)):
            enc = interval_eval("lens_area", Interval(float(x)), Interval(0.0))
            assert _contains(enc, (x + 1) * mpmath.sqrt((2 - x) * x) / 3 + mpmath.acos(1 - x))


def test_shape_scaled_bounds_tight_at_endpoints():
    enc = interval_eval("segment_shape_scaled", Interval(0.0, 1e-9))
    limit = 4.0 * math.sqrt(2.0) / 3.0
    assert enc.lo <= limit <= enc.hi and enc.width < 1e-6
    enc = interval_eval("segment_shape", Interval(2.0))
    assert enc.lo <= math.pi <= enc.hi


def test_cheap_tasks_prove():
    by_name = {t.name: t for t in inequality_suite()}
    for name in ("term2_upper", "shape_scaled_upper", "area_scaled_lower", "area_slope_positive"):
        res = prove(by_name[name], max_boxes=200_000)
        assert res.verdict == "proved", name
        assert res.witness_box is None


def test_refutation_with_witness():
    # The curvature is bounded, so an absurd bound is refuted by a point.
    task = ProofTask("absurd", "lens_area_curvature", MID, "<=", -1e6)
    res = prove(task, max_boxes=10_000)
    assert res.verdict == "refuted"
    assert res.witness_point is not None
    x, z = res.witness_point
    with mpmath.workdps(50):
        assert _oracle("lens_area_curvature", [x, max(z, 1e-12)]) > -1e6
    assert res.witness_enclosure.lo > -1e6


def test_refutation_of_slightly_weakened_bound():
    # g(t)/t^1.5 tends to 4 sqrt(2)/3 ~ 1.8856 as t -> 0, so a claimed upper
    # bound of 1.885 is false.
    with mpmath.workdps(50):
        assert _oracle("segment_shape_scaled", [1e-6]) > 1.885
    task = ProofTask("too_tight", "segment_shape_scaled", ((0.0, 2.0),), "<=", 1.885)
    res = prove(task, max_boxes=100_000)
    assert res.verdict == "refuted"


def test_exhaustion_reports_hardest_box():
    task = ProofTask("starved", "lens_area_half_ratio", FULL, ">", 1.4)
    res = prove(task, max_boxes=64)
    assert res.verdict == "exhausted"
    assert res.witness_box is not None
    assert res.boxes_processed <= 64
    # Level order: the budget stops the walk after whole levels, and the
    # witness is the first undecided box of the last one.
    assert res.boxes_per_depth == [1, 4, 16]
    assert res.witness_box.depth == res.max_depth_reached == 2
    again = prove(task, max_boxes=64)
    assert again.certificate_json() == res.certificate_json()
    per_depth, *_ = _level_order_reference(task, stop_depth=2)
    assert per_depth == res.boxes_per_depth


def test_box_too_thin_to_split():
    # A degenerate domain cannot be split: a refuting midpoint still decides
    # the task, and an undecided one ends the walk with an error.
    point = ((1.0, 1.0),)
    res = prove(ProofTask("refuted_point", "segment_shape_scaled", point, "<=", 1.5))
    assert res.verdict == "refuted" and res.boxes_per_depth == [1]
    enc = interval_eval("segment_shape_scaled", Interval(1.0))
    with pytest.raises(DomainError, match="too thin"):
        prove(ProofTask("straddled", "segment_shape_scaled", point, "<=", enc.mid))


@pytest.mark.parametrize("budget", [0, -5])
def test_a_budget_below_one_box_raises_before_any_work(budget):
    before = intervals.acos_clip_events
    task = {t.name: t for t in inequality_suite()}["area_scaled_lower"]
    with pytest.raises(ValueError, match=f"at least 1 box, got {budget}"):
        prove(task, max_boxes=budget)
    assert intervals.acos_clip_events == before
    assert prove(task, max_boxes=1).boxes_processed == 1


def test_certificate_contents():
    task = ProofTask("cheap", "curvature_term2_weighted", FULL, "<=", 0.0)
    res = prove(task)
    cert = json.loads(res.certificate_json())
    assert cert["verdict"] == "proved"
    assert cert["task"] == "cheap"
    assert cert["relation"] == "<="
    assert "rounding" in cert and "boxes_processed" in cert


def test_task_validation():
    with pytest.raises(ValueError):
        ProofTask("bad", "no_such_expression", FULL, "<=", 0.0)
    with pytest.raises(ValueError):
        ProofTask("bad", "lens_area", FULL, "~", 0.0)
    with pytest.raises(ValueError):
        ProofTask("bad", "segment_shape", FULL, "<=", 0.0)  # wrong arity
    for bounds in ((0.0, math.inf), (-math.inf, 0.0), (1.0, 0.0), (0.0, math.nan)):
        with pytest.raises(ValueError, match="not a finite interval"):
            ProofTask("bad", "segment_shape_scaled", (bounds,), "<=", 2.0)
    ProofTask("point", "segment_shape_scaled", ((1.0, 1.0),), "<=", 2.0)
    with pytest.raises(ValueError, match="NaN"):
        ProofTask("bad", "segment_shape_scaled", ((0.0, 2.0),), "<=", math.nan)


def test_suite_names_cover_all_claims():
    names = {t.name for t in inequality_suite()}
    assert {
        "area_half_width_ratio",
        "area_scaled_lower",
        "area_scaled_upper",
        "area_scaled_far_lower",
        "area_slope_positive",
        "area_concave_mid",
        "area_concave_left",
        "term1_lower",
        "term1_upper",
        "term2_upper",
        "term3_lower",
        "term3_upper",
        "term3_left_upper",
        "shape_scaled_lower",
        "shape_scaled_upper",
    } <= names


# ---------------------------------------------------------------------------
# level order, telemetry and the batched enclosures
# ---------------------------------------------------------------------------


def _halves(iv):
    """The two halves of an interval, cut at its midpoint."""
    m = iv.mid
    if not (iv.lo < m < iv.hi):
        raise DomainError(f"interval {iv} too thin to split")
    return Interval(iv.lo, m), Interval(m, iv.hi)


def _split_box(box, dims):
    """The children of a box halved at its midpoint along each dimension in
    ``dims``, one level deeper, lo half before hi half and the first
    dimension slowest."""
    halves = [_halves(iv) if i in dims else (iv,) for i, iv in enumerate(box.intervals)]
    return [Box(parts, box.depth + 1) for parts in itertools.product(*halves)]


def _midpoint(box):
    return tuple(iv.mid for iv in box.intervals)


def test_box_split_deterministic():
    box = Box((Interval(0.0, 2.0), Interval(0.0, 1.0)))
    lo, hi = _split_box(box, [0])
    assert lo.intervals[0] == Interval(0.0, 1.0)
    assert hi.intervals[0] == Interval(1.0, 2.0)
    assert lo.intervals[0].hi == hi.intervals[0].lo == 1.0
    assert lo.intervals[1] == hi.intervals[1] == Interval(0.0, 1.0)
    assert lo.depth == hi.depth == 1
    with pytest.raises(DomainError):
        _halves(Interval(1.0))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_split_tiles_each_box_with_children_that_hold_its_midpoint(data):
    # Each box splits into 2^d children, consecutive and in the order of
    # itertools.product (lo half first, dimension 0 slowest), that tile it:
    # inside it, with disjoint interiors, covering it.  Each holds the
    # midpoint, the center of their mean-value enclosures.
    d, rows = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    coords = st.floats(-1e3, 1e3)
    lo = np.array(data.draw(st.lists(coords, min_size=rows * d, max_size=rows * d)))
    width = st.floats(1e-6, 1e3)
    hi = lo + np.array(data.draw(st.lists(width, min_size=rows * d, max_size=rows * d)))
    lo, hi = lo.reshape(rows, d), hi.reshape(rows, d)
    mid = 0.5 * (lo + hi)
    children = np.stack(prover._split(lo, hi, mid, np.ones(d)), axis=1)  # (box, end, dim)
    assert children.shape == (rows * 2**d, 2, d)
    for r in range(rows):
        kids = children[r * 2**d : (r + 1) * 2**d]
        for kid, upper in zip(kids, itertools.product((False, True), repeat=d)):
            assert (kid[0] == np.where(upper, mid[r], lo[r])).all()
            assert (kid[1] == np.where(upper, hi[r], mid[r])).all()
            assert (kid[0] <= mid[r]).all() and (mid[r] <= kid[1]).all()
        for a, b in itertools.combinations(kids, 2):
            assert (np.minimum(a[1], b[1]) <= np.maximum(a[0], b[0])).any()
        for f in data.draw(st.lists(st.lists(st.floats(0, 1), min_size=d, max_size=d))):
            point = np.minimum(lo[r] + np.array(f) * (hi[r] - lo[r]), hi[r])
            inside = [((kid[0] <= point) & (point <= kid[1])).all() for kid in kids]
            assert sum(inside) >= 1 and (sum(inside) == 1 or (point == mid[r]).any())


def test_split_leaves_a_dimension_of_zero_span_whole():
    lo, hi = np.array([[0.0, 0.5]]), np.array([[2.0, 0.5]])
    children = prover._split(lo, hi, 0.5 * (lo + hi), np.array([2.0, 0.0]))
    assert [c.tolist() for c in children] == [[[0.0, 0.5], [1.0, 0.5]], [[1.0, 0.5], [2.0, 0.5]]]


def _floats(iv, k):
    """Lane ``k`` of an array interval as a float interval, or ``None``
    where it is invalid."""
    return None if iv.invalid[k] else Interval(float(iv.lo[k]), float(iv.hi[k]))


def _enclosures(expression, boxes):
    """Per box, its enclosure (``None`` where it is invalid)
    and, for an expression with a gradient form, the enclosures of its
    partial derivatives (``None`` where any is invalid).

    Float intervals one box at a time carry no gradient, so a gradient form
    is evaluated in one array call over the boxes, each lane then taken as
    float intervals; its value part has the bits of the plain evaluation."""
    if expression not in GRADIENT_FORMS:
        encs = (interval_eval(expression, *box.intervals) for box in boxes)
        return [(None if enc.invalid else enc, None) for enc in encs]
    if not boxes:
        return []
    columns = [
        Interval(np.array([iv.lo for iv in ivs]), np.array([iv.hi for iv in ivs]))
        for ivs in zip(*(box.intervals for box in boxes))
    ]
    with np.errstate(all="ignore"):
        grad = EXPRESSIONS[expression][1](*Gradient.variables(*columns))
    return [
        (
            _floats(grad.value, k),
            None
            if grad.partials.invalid[:, k].any()
            else [_floats(grad.partials.take(k), i) for i in range(len(columns))],
        )
        for k in range(len(boxes))
    ]


def _level_order_reference(task, stop_depth=None):
    """The box tree walked in level order one box at a time, with float
    intervals: boxes per depth, and the first refuting box with its point
    and point enclosure (``None`` when no box refutes).

    For an expression with a gradient form, a box the natural enclosure
    leaves undecided is decided by its mean-value enclosure f(c) + sum_i
    f_i(box) (X_i - c_i) when that certifies.  The center c is the
    midpoint of the box it was split from, and f(c) the enclosure that
    box's refutation check computed; the root has none."""
    dims = [i for i, (lo, hi) in enumerate(task.domain) if hi > lo]
    # (box, center, enclosure at the center)
    level = [(Box(tuple(Interval(lo, hi) for lo, hi in task.domain)), None, None)]
    per_depth = []
    while level:
        per_depth.append(len(level))
        undecided = []
        encs = _enclosures(task.expression, [box for box, _, _ in level])
        for (box, center, at_center), (enc, partials) in zip(level, encs):
            if enc is not None and _certifies(enc, task.relation, task.bound):
                continue
            if partials is not None and at_center is not None:
                mean_value = at_center
                for d, iv, c in zip(partials, box.intervals, center):
                    mean_value = mean_value + d * (iv - c)
                if _certifies(mean_value, task.relation, task.bound):
                    continue
            undecided.append(box)
        mids = [_midpoint(box) for box in undecided]
        points = [Box(tuple(Interval(m) for m in mid)) for mid in mids]
        at_mids = [enc for enc, _ in _enclosures(task.expression, points)]
        for box, mid, point_enc in zip(undecided, mids, at_mids):
            if point_enc is not None and _certifies(
                point_enc, _NEGATION[task.relation], task.bound
            ):
                return per_depth, box, mid, point_enc
        if len(per_depth) - 1 == stop_depth:
            break
        level = []
        for box, mid, point_enc in zip(undecided, mids, at_mids):
            level.extend((child, mid, point_enc) for child in _split_box(box, dims))
    return per_depth, None, None, None


LEVEL_ORDER_TASKS = [
    ProofTask("absurd", "lens_area_curvature", MID, "<=", -1e6),
    ProofTask("too_tight", "segment_shape_scaled", ((0.0, 2.0),), "<=", 1.885),
    ProofTask("scaled_low", "lens_area_scaled", ((0.0, 2.0), (0.0, 0.5)), ">", 1.5),
    # The ratio's minimum, about 1.4043 at x = 2 and z -> 0, refutes 1.405
    # in a tree that the mean-value enclosures cut.
    ProofTask("ratio_too_tight", "lens_area_half_ratio", FULL, ">", 1.405),
]


@pytest.mark.parametrize("task", LEVEL_ORDER_TASKS, ids=lambda t: t.name)
def test_level_order_matches_box_by_box_walk(task):
    res = prove(task)
    per_depth, box, point, point_enc = _level_order_reference(task)
    assert res.boxes_per_depth == per_depth
    assert res.boxes_processed == sum(per_depth)
    assert res.max_depth_reached == len(per_depth) - 1
    if box is None:
        assert res.verdict == "proved" and res.witness_box is None
    else:
        assert res.verdict == "refuted"
        assert res.witness_box == box and res.witness_box.depth == box.depth
        assert res.witness_point == point
        assert res.witness_enclosure == point_enc


@pytest.mark.parametrize(
    "task",
    [
        *LEVEL_ORDER_TASKS,
        *(
            t
            for t in inequality_suite()
            if t.name in ("area_scaled_far_lower", "area_half_width_ratio")
        ),
    ],
    ids=lambda t: t.name,
)
def test_certificates_do_not_depend_on_lanes_per_call(task, monkeypatch):
    # A level's boxes and the previous level's midpoints are evaluated in
    # calls of at most prover._LANES lanes; seven lanes a call split most
    # levels, and change no certificate.
    whole = prove(task).certificate_json()
    lanes = []
    columns = prover._columns

    def counted(lo, hi):
        lanes.append(len(lo))
        return columns(lo, hi)

    monkeypatch.setattr(prover, "_columns", counted)
    monkeypatch.setattr(prover, "_LANES", 7)
    assert prove(task).certificate_json() == whole
    assert max(lanes) <= 7 and len(lanes) > len(json.loads(whole)["boxes_per_depth"])


@pytest.mark.parametrize(
    "task",
    [
        ProofTask("scaled_high", "lens_area_scaled", FULL, "<", 2.2),
        ProofTask("shape_high", "segment_shape_scaled", ((0.0, 2.0),), ">=", 1.2),
    ],
    ids=lambda t: t.name,
)
def test_refutation_counts_the_clips_of_the_box_by_box_walk(task):
    # The refuting midpoints ride in the next level's call, whose boxes clip
    # arccos arguments too; a refuted task counts only the clips of the
    # levels it decided, as the box-by-box walk does.
    before = intervals.acos_clip_events
    res = prove(task)
    prove_clips = intervals.acos_clip_events - before
    per_depth, box, point, _ = _level_order_reference(task)
    walk_clips = intervals.acos_clip_events - before - prove_clips
    assert res.verdict == "refuted" and res.witness_box == box and res.witness_point == point
    assert res.boxes_per_depth == per_depth
    assert res.acos_clips == prove_clips == walk_clips > 0


def test_certificates_repeat_exactly():
    task = ProofTask("starved", "lens_area_half_ratio", FULL, ">", 1.4)
    assert prove(task, max_boxes=5000).certificate_json() == prove(
        task, max_boxes=5000
    ).certificate_json()


def test_proof_telemetry():
    by_name = {t.name: t for t in inequality_suite()}
    for name in ("area_scaled_far_lower", "term3_left_upper", "shape_scaled_upper"):
        before = intervals.acos_clip_events
        res = prove(by_name[name])
        assert res.acos_clips == intervals.acos_clip_events - before
        assert sum(res.boxes_per_depth) == res.boxes_processed
        assert len(res.boxes_per_depth) == res.max_depth_reached + 1
        cert = res.certificate()
        assert cert["acos_clips"] == res.acos_clips
        assert cert["boxes_per_depth"] == res.boxes_per_depth
        # Wall time is reported, but kept out of the deterministic certificate.
        assert res.elapsed_s > 0.0 and "elapsed_s" not in cert
    assert res.boxes_per_depth == [1] and res.acos_clips == 0
    far = prove(by_name["area_scaled_far_lower"])
    assert far.acos_clips > 0


def test_prover_goes_through_the_interval_methods(monkeypatch):
    # The benchmark counts interval operations by wrapping these methods
    # (perfbench/tracer.py, IntervalCounter); a prover that bypassed them
    # would count nothing.  Operations on stacked partials, shape
    # (variables, lanes), are the gradient pass of a mean-value enclosure.
    counts = dict.fromkeys(("__mul__", "__add__"), 0)
    stacked = dict.fromkeys(counts, 0)

    def counted(name, orig):
        def op(self, other):
            counts[name] += 1
            stacked[name] += np.ndim(self.lo) == 2
            return orig(self, other)

        return op

    for name in counts:
        monkeypatch.setattr(Interval, name, counted(name, getattr(Interval, name)))
    by_name = {t.name: t for t in inequality_suite()}
    res = prove(by_name["area_slope_positive"])
    assert res.verdict == "proved" and res.boxes_processed == 29
    assert counts["__mul__"] > 0 and counts["__add__"] > 0
    assert stacked == {"__mul__": 0, "__add__": 0}
    res = prove(by_name["area_half_width_ratio"])
    assert res.verdict == "proved" and sum(res.centered_per_depth) > 0
    assert stacked["__mul__"] > 0 and stacked["__add__"] > 0


def test_prove_and_interval_eval_raise_no_numpy_warning():
    # Boxes at x = 0 divide by intervals that contain zero: the lanes are
    # marked invalid and numpy stays silent.
    x = Interval(np.array([0.0, 0.5]), np.array([2.0, 1.5]))
    z = Interval(np.array([0.0, 0.25]), np.array([1.0, 1.0]))
    task = ProofTask("singular", "lens_area_curvature", FULL, "<=", -0.125)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        enc = interval_eval("lens_area_curvature", x, z)
        res = prove(task, max_boxes=256)
    assert enc.invalid.tolist() == [True, False]
    assert res.verdict != "proved"


def _g(t):
    t = min(max(t, 0), 2)  # 50-digit rounding may step just outside [0, 2]
    u = 1 - t
    return mpmath.acos(u) - u * mpmath.sqrt(t * (2 - t))


def _f(x, d):
    return _g(x * (2 * d + x - 2) / (2 * d)) + (d + x) / 4 * mpmath.sqrt(
        x * (2 * d + x)
    ) * _g((2 - x) / d)


def _f_prime(x, y):
    return _g((2 - x) / y) * (2 * x * x + 4 * x * y + y * y) / (
        4 * mpmath.sqrt(x * (x + 2 * y))
    ) + (x + y - 2) * mpmath.sqrt(x * (2 - x) * (x + 2 * y - 2) * (x + 2 * y)) / (2 * y * y)


def _t_terms(x, y):
    num = x * (
        x * (x * (-3 * x + (14 - 12 * y)) + (-14 * y * y + 42 * y - 20))
        + (-4 * y**3 + 32 * y * y - 40 * y + 8)
    ) + 4 * y * (y * y - 3 * y + 2)
    t1 = num / (2 * y * y * mpmath.sqrt((2 - x) * x * (x + 2 * y - 2) * (x + 2 * y)))
    t2 = -mpmath.sqrt((2 - x) * (x + 2 * y - 2)) * (2 * x * x + 4 * x * y + y * y) / (
        2 * y * y * mpmath.sqrt(x * (x + 2 * y))
    )
    t3 = (x + y) * (2 * x * x + 4 * x * y - y * y) / (
        4 * (x * (x + 2 * y)) ** 1.5
    ) * _g((2 - x) / y)
    return t1, t2, t3


def _oracle(name, point):
    """The exact value of a cataloged expression at a point, from the closed
    forms above of the lens area f(x, d) and its derivatives, at mpmath's
    working precision (50 digits in the tests); ``None`` where those forms
    are singular (z = 0, and x or t = 0, or x = 2 for the curvature terms)."""
    point = [mpmath.mpf(v) for v in point]
    if len(point) == 1:
        (t,) = point
        if name == "segment_shape":
            return _g(t)
        return _g(t) / t**1.5 if t > 0 else None
    x, z = point
    if z == 0 or x == 0:
        return None
    d = 1 / z
    if name == "lens_area":
        return _f(x, d)
    if name == "lens_area_scaled":
        return _f(x, d) / mpmath.sqrt(x)
    if name == "lens_area_half_ratio":
        return _f(x, d) / _f(x / 2, d)
    if name == "lens_area_slope":
        return _f_prime(x, d)
    if x == 2:
        return None
    t1, t2, t3 = _t_terms(x, d)
    return {
        "lens_area_curvature": t1 + t2 + t3,
        "lens_area_curvature_excess": x**1.5 * (t1 + t2 + t3 + 199),
        "curvature_term1_weighted": t1 * mpmath.sqrt(x * (2 - x)),
        "curvature_term2_weighted": t2 * mpmath.sqrt(x),
        "curvature_term3_weighted": t3 * x**1.5,
    }[name]


def test_segment_g_matches_quadrature():
    # The oracle's segment area g is the integral of the chord length
    # 2 sqrt(u (2 - u)), so its closed form is checked against its definition.
    with mpmath.workdps(50):
        for depth in map(mpmath.mpf, (0.1, 0.5, 1.3, 1.9, 2.0)):
            quad = mpmath.quad(lambda u: 2 * mpmath.sqrt(u * (2 - u)), [0, depth])
            assert abs(_g(depth) - quad) < mpmath.mpf(10) ** -40, depth


def _oracle_partial(name, point, axis):
    """The derivative of :func:`_oracle`'s value in variable ``axis`` at a
    point, by ``mpmath.diff``, differencing toward the inside of the domain
    [0, 2] (x or t) x [0, 1] (z); ``None`` where the value is."""
    point = [mpmath.mpf(v) for v in point]
    if _oracle(name, point) is None:
        return None

    def along(v):
        return _oracle(name, point[:axis] + [v] + point[axis + 1 :])

    middle = 1.0 if axis == 0 else 0.5
    return mpmath.diff(along, point[axis], direction=1 if point[axis] < middle else -1)


def _random_boxes(rng, arity, count):
    """Seeded boxes in [0, 2] (x or t) x [0, 1] (z): random ones, and ones
    that are degenerate, touch a domain edge, sit on one, or fill it."""
    lo = np.empty((count, arity))
    hi = np.empty((count, arity))
    for i, (a, b) in enumerate([(0.0, 2.0), (0.0, 1.0)][:arity]):
        lo[:, i], hi[:, i] = np.sort(rng.uniform(a, b, (count, 2)), axis=1).T
        kind = rng.integers(0, 8, count)
        hi[kind == 1, i] = lo[kind == 1, i]
        lo[kind == 2, i] = a
        hi[kind == 3, i] = b
        lo[kind == 4, i] = hi[kind == 4, i] = a
        lo[kind == 5, i] = hi[kind == 5, i] = b
        lo[kind == 6, i], hi[kind == 6, i] = a, b
    return lo, hi


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


@pytest.mark.parametrize("name", sorted(EXPRESSIONS))
def test_batched_enclosures_match_per_box_and_mpmath(name):
    arity, _ = EXPRESSIONS[name]
    rng = np.random.Generator(np.random.Philox(sorted(EXPRESSIONS).index(name)))
    lo, hi = _random_boxes(rng, arity, 200)
    batch = interval_eval(name, *(Interval(lo[:, i], hi[:, i]) for i in range(arity)))
    checked = 0
    with mpmath.workdps(50):
        for k in range(len(lo)):
            one = interval_eval(name, *(Interval(lo[k, i], hi[k, i]) for i in range(arity)))
            assert one.invalid == batch.invalid[k], (k, lo[k], hi[k])
            if one.invalid:
                continue
            assert _bits(batch.lo[k]) == _bits(one.lo) and _bits(batch.hi[k]) == _bits(one.hi)
            for u in rng.uniform(0.0, 1.0, (3, arity)):
                point = [float(v) for v in np.clip(lo[k] + u * (hi[k] - lo[k]), lo[k], hi[k])]
                exact = _oracle(name, point)
                if exact is not None:
                    assert mpmath.mpf(one.lo) <= exact <= mpmath.mpf(one.hi), (point, one)
                    checked += 1
    assert checked > 100


# ---------------------------------------------------------------------------
# gradient forms and mean-value enclosures
# ---------------------------------------------------------------------------


def _t_boxes(rng, count):
    """Boxes in [0, 2] of widths 0 to 0.5, most of them ending at, starting
    at or centered on t = 0, 1 or 2, the rest anywhere."""
    anchor = rng.choice(np.array([0.0, 1.0, 2.0]), count)
    anchor[: count // 4] = rng.uniform(0.0, 2.0, count // 4)
    width = rng.choice(np.array([0.0, 1e-6, 1e-3, 0.05, 0.5]), count)
    lo = np.clip(anchor - width * rng.choice(np.array([0.0, 0.5, 1.0]), count), 0.0, 2.0)
    return lo, np.clip(lo + width, 0.0, 2.0)


def _points(rng, lo, hi, k, count):
    """``count`` seeded points of box ``k`` of ``[lo, hi]`` (one row per box)."""
    u = rng.uniform(0.0, 1.0, (count, lo.shape[1]))
    return [[float(v) for v in np.clip(lo[k] + w * (hi[k] - lo[k]), lo[k], hi[k])] for w in u]


def _encloses(enc, k, exact):
    return mpmath.mpf(enc.lo[k]) <= exact <= mpmath.mpf(enc.hi[k])


def test_shape_slope_branches_enclose_the_derivative():
    # G(t) = g(t) / t**1.5: its series derivative on t <= 1, its closed form
    # on t > 0, and their intersection each enclose G'(t) from mpmath.
    rng = np.random.Generator(np.random.Philox(21))
    lo, hi = _t_boxes(rng, 240)
    t = Interval(lo, hi)
    with np.errstate(all="ignore"):
        g = _g32_iv(t)
        series = _g32_slope_series_iv(t)
        closed = _g32_slope_closed_iv(t, g)
        slope = _g32_slope_iv(t, g)
    in_series, in_closed = hi <= 1.0, lo > 0.0
    assert not series.invalid[in_series].any() and not closed.invalid[in_closed].any()
    assert (slope.invalid == ~(in_series | in_closed)).all()
    checked = dict.fromkeys(("series", "closed", "near 0", "near 1", "near 2"), 0)
    with mpmath.workdps(50):
        for k in range(len(lo)):
            for (point,) in _points(rng, lo[:, None], hi[:, None], k, 4):
                exact = _oracle_partial("segment_shape_scaled", [point], 0)
                if exact is None:
                    continue
                if in_series[k]:
                    assert _encloses(series, k, exact), (point, series.take(k))
                    checked["series"] += 1
                if in_closed[k]:
                    assert _encloses(closed, k, exact), (point, closed.take(k))
                    checked["closed"] += 1
                if not slope.invalid[k]:
                    assert _encloses(slope, k, exact), (point, slope.take(k))
                    for near in (0, 1, 2):
                        checked[f"near {near}"] += abs(point - near) < 1e-3
    assert min(checked.values()) > 20, checked


def _shape_exact(t):
    """G(t) = g(t) / t**1.5 and G'(t) = (2 sqrt(2 - t) - 1.5 G(t)) / t at
    mpmath's working precision, the closed forms evaluated with the digits
    their cancellation loses at small t added; at t = 0 their limits, the
    series coefficients C_0 = 4 sqrt(2) / 3 and C_1 = -sqrt(2) / 5."""
    if t == 0:
        return 4 * mpmath.sqrt(2) / 3, -mpmath.sqrt(2) / 5
    with mpmath.workdps(mpmath.mp.dps + 3 * int(-mpmath.log10(t)) + 10):
        t = mpmath.mpf(t)
        shape = _g(t) / t**1.5
        slope = (2 * mpmath.sqrt(2 - t) - 1.5 * shape) / t
    return +shape, +slope


def _series_polynomials():
    """The exact polynomials of G's series through degree 10 and of its
    termwise derivative, coefficients highest first."""
    a = [mpmath.mpf(1)]
    for k in range(1, 11):
        a.append(a[-1] * (2 * k - 3) / (2 * k))
    c = [2 * mpmath.sqrt(2) * a[k] / (2**k * (k + 1.5)) for k in range(11)]
    return c[::-1], [k * c[k] for k in range(10, 0, -1)]


SERIES_GRID = np.concatenate(
    (np.linspace(0.0, 1.0, 513), [2.0**-1074, 2.0**-1022, 2.0**-50, 1e-8, 1.0 - 2.0**-53])
)


def test_endpoint_series_enclose_the_shape_and_its_slope():
    # The float series of G and G' at the endpoints of t in [0, 1]: point
    # intervals on a grid with 0, the least subnormal, 2**-50 and 1, and
    # random subintervals, hold the 50-digit values at their endpoints and
    # at interior points.
    rng = np.random.Generator(np.random.Philox(23))
    lo = rng.uniform(0.0, 1.0, (2, 150))
    lo[:, :50] *= 10.0 ** -rng.integers(1, 12, (2, 50))
    lo, hi = np.sort(lo, axis=0)
    cases = [(SERIES_GRID, SERIES_GRID, 0), (lo, hi, 3)]
    with mpmath.workdps(50):
        for lo, hi, inner in cases:
            t = Interval(lo, hi)
            shape, slope = _g32_series_iv(t), _g32_slope_series_iv(t)
            assert not shape.invalid.any() and not slope.invalid.any()
            for k in range(len(lo)):
                inside = lo[k] + rng.uniform(0.0, 1.0, inner) * (hi[k] - lo[k])
                for point in (lo[k], hi[k], *np.clip(inside, lo[k], hi[k])):
                    exact_shape, exact_slope = _shape_exact(float(point))
                    assert _encloses(shape, k, exact_shape), (point, shape.take(k))
                    assert _encloses(slope, k, exact_slope), (point, slope.take(k))


def test_endpoint_series_rounding_stays_far_inside_its_bound():
    # The float Horner sums of the coefficient midpoints differ from the
    # exact truncated series by under a tenth of the bound E that the
    # enclosure allows for them over the grid (about 3% of it).
    polynomials = _series_polynomials()
    with mpmath.workdps(50):
        for series, exact in zip((_g32_series_iv, _g32_slope_series_iv), polynomials):
            sums = series.horner(SERIES_GRID)
            worst = max(
                abs(mpmath.mpf(float(s)) - mpmath.polyval(exact, mpmath.mpf(float(t))))
                for s, t in zip(sums, SERIES_GRID)
            )
            assert 0 < worst < series.error / 10, (worst, series.error)
    # An invalid lane (built with lo > hi) stays invalid.
    t = Interval(np.array([0.0, 0.5]), np.array([1.0, 0.25]))
    assert _g32_series_iv(t).invalid.tolist() == [False, True]
    assert _g32_slope_series_iv(t).invalid.tolist() == [False, True]


def _narrow_boxes(rng, count):
    """Boxes in [0, 2] x [0, 1] of relative widths 0.5, 0.05 and 0.002 in
    each variable, half of them against an edge of the domain."""
    lo = np.empty((count, 2))
    hi = np.empty((count, 2))
    for i, (a, b) in enumerate(((0.0, 2.0), (0.0, 1.0))):
        width = rng.choice(np.array([0.5, 0.05, 0.002]), count) * (b - a)
        lo[:, i] = rng.uniform(a, b - width)
        edge = rng.integers(0, 4, count)
        lo[edge == 1, i] = a
        lo[edge == 2, i] = b - width[edge == 2]
        hi[:, i] = np.minimum(lo[:, i] + width, b)
    return lo, hi


def test_ratio_gradient_and_mean_value_enclosures_match_mpmath():
    # The ratio on gradient variables keeps the plain enclosure's bits and
    # encloses both partials (mpmath.diff); its mean-value enclosure about a
    # point of the box encloses the ratio on the box.
    rng = np.random.Generator(np.random.Philox(22))
    lo, hi = (
        np.concatenate(pair) for pair in zip(_narrow_boxes(rng, 180), _random_boxes(rng, 2, 60))
    )
    x, z = Interval(lo[:, 0], hi[:, 0]), Interval(lo[:, 1], hi[:, 1])
    center = np.array([_points(rng, lo, hi, k, 1)[0] for k in range(len(lo))])
    with np.errstate(all="ignore"):
        grad = EXPRESSIONS["lens_area_half_ratio"][1](*Gradient.variables(x, z))
        plain = interval_eval("lens_area_half_ratio", x, z)
        at_center = interval_eval(
            "lens_area_half_ratio", Interval(center[:, 0]), Interval(center[:, 1])
        )
        mean_value = _mean_value(grad.partials, lo, hi, center, at_center)
    assert _bits(grad.value.lo) == _bits(plain.lo) and _bits(grad.value.hi) == _bits(plain.hi)
    assert (grad.value.invalid == plain.invalid).all()
    p = grad.partials
    rows = [Interval(p.lo[axis], p.hi[axis], p.invalid[axis]) for axis in (0, 1)]
    checked = {"d/dx": 0, "d/dz": 0, "mean value": 0}
    with mpmath.workdps(50):
        for k in range(len(lo)):
            for point in _points(rng, lo, hi, k, 4):
                exact = _oracle("lens_area_half_ratio", point)
                if exact is None:
                    continue
                if not mean_value.invalid[k]:
                    assert _encloses(mean_value, k, exact), (point, mean_value.take(k))
                    checked["mean value"] += 1
                for axis, key in enumerate(("d/dx", "d/dz")):
                    if rows[axis].invalid[k]:
                        continue
                    exact = _oracle_partial("lens_area_half_ratio", point, axis)
                    assert _encloses(rows[axis], k, exact), (point, axis, rows[axis].take(k))
                    checked[key] += 1
    assert min(checked.values()) > 400, checked


def test_mean_value_enclosure_decides_the_ratio_boxes():
    # The ratio and the scaled area carry gradient forms, and their
    # certificates say how many boxes per depth the mean-value enclosure
    # decided; no other does.
    assert GRADIENT_FORMS == {"lens_area_half_ratio", "lens_area_scaled"}
    by_name = {t.name: t for t in inequality_suite()}
    res = prove(by_name["area_half_width_ratio"])
    cert = res.certificate()
    assert res.verdict == "proved" and res.boxes_processed <= 2000 and res.max_depth_reached <= 8
    assert cert["centered_per_depth"] == res.centered_per_depth
    assert len(res.centered_per_depth) == len(res.boxes_per_depth)
    assert res.centered_per_depth[0] == 0 and sum(res.centered_per_depth) > res.boxes_processed / 3
    upper = prove(by_name["area_scaled_upper"])
    assert upper.verdict == "proved" and sum(upper.centered_per_depth) > 0
    other = prove(by_name["term3_upper"])
    assert other.centered_per_depth is None and "centered_per_depth" not in other.certificate()
