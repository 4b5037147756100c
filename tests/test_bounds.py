import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopcast.bounds import (
    SchedulePrediction,
    mimo_lower_radius,
    mimo_schedule_closed_form,
    mimo_upper_schedule,
    miso_upper_schedule,
    propagation_time,
    reverse_snr_schedule,
    snr_lower_radius,
    snr_upper_schedule,
)


def test_snr_schedule_powers_of_two():
    pred = snr_upper_schedule(64.0, 8.0)
    assert pred.radii == [1.0, 2.0, 4.0, 8.0]
    assert pred.predicted_rounds == 4
    assert pred.model == "SNR" and pred.direction == "upper"


def test_snr_schedule_moderate_density():
    pred = snr_upper_schedule(25.0, 100.0)
    assert pred.predicted_rounds == 22
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


def test_one_round_reach_bounds():
    assert snr_lower_radius(64.0, 2.0) == pytest.approx(64.0)
    assert mimo_lower_radius(2.0, 3.0) == pytest.approx(4.0 * math.pi * 18.0)
    with pytest.raises(ValueError):
        snr_lower_radius(0.01, 1.0)
    with pytest.raises(ValueError):
        mimo_lower_radius(1.0, 0.1, log_threshold=1.0)


def test_mimo_schedule_growth_and_closed_form():
    rho, lam, c1, c2 = 50.0, 0.25, 0.5, 1.0
    pred = mimo_upper_schedule(rho, lam, c1, c2, R=1e6)
    assert pred.radii[0] == pytest.approx(c2 / lam)
    for j, r in enumerate(pred.radii, start=1):
        assert r == pytest.approx(
            mimo_schedule_closed_form(rho, lam, c1, c2, j), rel=1e-9
        )
    ratios = [b / a for a, b in zip(pred.radii, pred.radii[1:])]
    assert ratios == sorted(ratios)  # doubly exponential: ratios increase


def test_mimo_schedule_precondition():
    # Tiny c1 fails the growth floor r1 >= 225 / (c1^2 rho^2 lam).
    with pytest.raises(ValueError):
        mimo_upper_schedule(10.0, 0.25, 1e-4, 1.0, R=100.0)
    with pytest.raises(ValueError):
        mimo_upper_schedule(10.0, 0.25, -1.0, 1.0, R=100.0)


def test_miso_schedule_grows_until_it_stalls():
    # Criterion 08's constants fail mimo_upper_schedule's growth precondition
    # but still grow superlinearly from the bootstrap radius 15 c2/lam.
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
    assert propagation_time([1.0, 2.0, 4.0]) == pytest.approx(7.0)
    with pytest.raises(ValueError):
        propagation_time([2.0, 1.0])


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
        assert propagation_time(radii) / 1000.0 <= bound


def test_schedule_prediction_validation():
    with pytest.raises(ValueError):
        SchedulePrediction("SNR", [2.0, 1.0], 2, "upper")
