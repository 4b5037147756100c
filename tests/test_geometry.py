import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopcast.geometry import (
    f_double_prime,
    f_limit_inf,
    f_prime,
    intersection_area_f,
    segment_g,
    t_terms,
)

widths = st.floats(min_value=1e-3, max_value=2.0 - 1e-3)
distances = st.floats(min_value=1.0, max_value=50.0)


def _mc_area(w, d, samples, seed):
    """Monte Carlo membership estimate of the disk/ellipse intersection."""
    rng = np.random.Generator(np.random.Philox(seed))
    r = np.sqrt(rng.random(samples))
    theta = 2.0 * np.pi * rng.random(samples)
    px, py = r * np.cos(theta), r * np.sin(theta)
    excess = np.sqrt(px * px + py * py) + np.sqrt((d - px) ** 2 + py * py) - d
    frac = np.mean(excess <= w)
    sigma = math.pi * math.sqrt(max(frac * (1 - frac), 1e-12) / samples)
    return math.pi * frac, sigma


def test_segment_g_endpoints_and_monotonicity():
    assert segment_g(0.0) == 0.0
    assert segment_g(2.0) == pytest.approx(math.pi, rel=1e-15)
    assert segment_g(1.0) == pytest.approx(math.pi / 2.0, rel=1e-15)
    xs = np.linspace(0.0, 2.0, 400)
    gs = segment_g(xs)
    assert np.all(np.diff(gs) > 0)


def test_segment_g_matches_quadrature():
    # g equals the integral of the chord length 2 sqrt(x (2 - x)).
    for depth in (0.1, 0.5, 1.3, 1.9):
        xs = np.linspace(0.0, depth, 20001)
        quad = np.trapezoid(2.0 * np.sqrt(xs * (2.0 - xs)), xs)
        assert segment_g(depth) == pytest.approx(quad, rel=1e-6)


def test_segment_g_domain():
    with pytest.raises(ValueError):
        segment_g(-0.01)
    with pytest.raises(ValueError):
        segment_g(2.01)


def test_intersection_area_endpoints():
    for d in (1.0, 1.5, 4.0, 100.0):
        assert intersection_area_f(0.0, d) == 0.0
        assert intersection_area_f(2.0, d) == pytest.approx(math.pi, rel=1e-12)


def test_intersection_area_monte_carlo():
    for w, d in [(0.3, 1.0), (1.0, 1.0), (1.7, 1.2), (0.5, 3.0), (1.2, 10.0)]:
        est, sigma = _mc_area(w, d, 1_000_000, seed=hash((w, d)) % (2**32))
        assert abs(intersection_area_f(w, d) - est) <= 4.0 * sigma


@given(widths, distances)
@settings(max_examples=60)
def test_intersection_area_increasing_in_w(w, d):
    h = min(1e-3, (2.0 - w) / 2.0)
    assert intersection_area_f(w + h, d) > intersection_area_f(w, d)


def test_first_derivative_matches_finite_differences():
    rng = np.random.Generator(np.random.Philox(7))
    w = rng.uniform(0.05, 1.95, 100)
    d = np.exp(rng.uniform(0.0, 4.0, 100))
    h = 1e-6
    fd = (intersection_area_f(w + h, d) - intersection_area_f(w - h, d)) / (2 * h)
    assert np.allclose(f_prime(w, d), fd, rtol=1e-4)


def test_second_derivative_matches_finite_differences():
    rng = np.random.Generator(np.random.Philox(8))
    w = rng.uniform(0.05, 1.95, 100)
    d = np.exp(rng.uniform(0.0, 4.0, 100))
    h = 1e-4
    fd = (
        intersection_area_f(w + h, d)
        - 2 * intersection_area_f(w, d)
        + intersection_area_f(w - h, d)
    ) / h**2
    assert np.allclose(f_double_prime(w, d), fd, rtol=1e-3)


@given(widths, distances)
@settings(max_examples=60)
def test_second_derivative_terms_sum(w, d):
    t1, t2, t3 = t_terms(w, d)
    assert t1 + t2 + t3 == pytest.approx(f_double_prime(w, d), rel=1e-12, abs=1e-12)


@given(st.floats(min_value=0.05, max_value=1.95))
@settings(max_examples=40)
def test_concavity(w):
    for d in (1.0, 1.7, 5.0, 1e3):
        assert f_double_prime(w, d) <= -0.125


def test_far_limit():
    ws = np.linspace(0.01, 1.99, 50)
    # The limit is approached at rate O(1/d); past d ~ 1e5 cancellation in
    # the closed form dominates, so compare where both effects are small.
    assert np.allclose(intersection_area_f(ws, 1e5), f_limit_inf(ws), atol=1e-5)
    assert f_limit_inf(0.0) == pytest.approx(0.0)
    assert f_limit_inf(2.0) == pytest.approx(math.pi)


def test_domain_errors():
    with pytest.raises(ValueError):
        intersection_area_f(1.0, 0.5)
    with pytest.raises(ValueError):
        intersection_area_f(2.5, 2.0)
    with pytest.raises(ValueError):
        f_prime(0.0, 2.0)
