import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopcast.bounds import (
    miso_upper_schedule,
    reverse_snr_schedule,
    schedule_travel,
    snr_upper_schedule,
)


def test_snr_schedule_powers_of_two():
    pred = snr_upper_schedule(64.0, 8.0)
    assert pred.radii == [1.0, 2.0, 4.0, 8.0]


def test_snr_schedule_moderate_density():
    pred = snr_upper_schedule(25.0, 100.0)
    assert len(pred.radii) == 22
    assert pred.radii[-1] >= 100.0 > pred.radii[-2]
    ratios = [b / a for a, b in zip(pred.radii, pred.radii[1:])]
    assert all(r == pytest.approx(1.25) for r in ratios)


def test_snr_schedule_density_domain():
    with pytest.raises(ValueError):
        snr_upper_schedule(16.0, 8.0)
    # Above 16, but sqrt(rho/16) rounds to 1: neither schedule would end.
    rho = math.nextafter(16.0, 17.0)
    with pytest.raises(ValueError):
        snr_upper_schedule(rho, 8.0)
    with pytest.raises(ValueError):
        reverse_snr_schedule(rho, 8.0)
    with pytest.raises(ValueError):
        reverse_snr_schedule(64.0, math.inf)


def test_snr_schedules_have_no_round_cap():
    # sqrt(16.01/16) ~ 1.0003: both schedules need about 14,750 radii.
    radii = snr_upper_schedule(16.01, 100.0).radii
    assert len(radii) > 10_000
    assert radii[-1] >= 100.0 > radii[-2]
    reverse = reverse_snr_schedule(16.01, 100.0)
    assert len(reverse) > 10_000
    assert reverse[0] <= 1.0 < reverse[1]


def test_miso_schedule_grows_until_it_stalls():
    # Criterion 08's constants miss the growth floor r_1 >= 225/(c1^2 rho^2 lam)
    # (0.2 < 1.25) but still grow superlinearly from the bootstrap radius
    # 15 c2/lam.
    rho = 10_000 / (900.0 * math.pi)
    pred = miso_upper_schedule(rho, 0.1, 12.0, 0.02, R=30.0)
    assert pred.radii[0] == pytest.approx(3.0)
    assert pred.radii[-1] >= 30.0 > pred.radii[-2]
    ratios = [b / a for a, b in zip(pred.radii, pred.radii[1:])]
    assert ratios == sorted(ratios) and ratios[0] > 1.0
    # A constant too small to grow stops after the bootstrap radius.
    assert miso_upper_schedule(rho, 0.1, 1e-4, 0.02, R=30.0).radii == pred.radii[:1]
    with pytest.raises(ValueError):
        miso_upper_schedule(rho, 0.1, 12.0, 0.0, R=30.0)


def test_propagation_time():
    assert schedule_travel([1.0, 2.0, 4.0]) == pytest.approx(7.0)
    with pytest.raises(ValueError):
        schedule_travel([2.0, 1.0])


@given(
    st.floats(min_value=17.0, max_value=1e6),
    st.floats(min_value=2.0, max_value=1e4),
)
@settings(max_examples=60)
def test_reverse_schedule_structure(rho, R):
    radii = reverse_snr_schedule(rho, R)
    step = math.sqrt(rho / 16.0)
    assert radii[-1] == pytest.approx(R)
    assert radii[0] <= 1.0 or len(radii) == 1
    for a, b in zip(radii, radii[1:]):
        assert b / a == pytest.approx(step, rel=1e-9)


def test_reverse_schedule_time_approaches_radius():
    # The backward schedule's total travel tends to R as density grows.
    for rho, bound in [(2**10, 1.15), (2**14, 1.07), (2**20, 1.01)]:
        radii = reverse_snr_schedule(rho, 1000.0)
        assert schedule_travel(radii) / 1000.0 <= bound
