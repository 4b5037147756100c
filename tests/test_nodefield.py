import math

import numpy as np
import pytest

from coopcast.nodefield import sample_field


def test_determinism_and_seed_sensitivity():
    a = sample_field(500, 10.0, seed=3)
    b = sample_field(500, 10.0, seed=3)
    c = sample_field(500, 10.0, seed=4)
    assert np.array_equal(a.positions, b.positions)
    assert not np.array_equal(a.positions, c.positions)


def test_center_node_and_containment():
    fld = sample_field(2000, 7.5, seed=0)
    assert np.array_equal(fld.positions[0], [0.0, 0.0])
    assert np.all(fld.radii <= 7.5)
    assert fld.n == 2000


def test_uniformity_mean_radius():
    # E[r] = 2R/3, Var[r] = R^2/18 for uniform sampling in a disk.
    n, R = 40_000, 5.0
    fld = sample_field(n + 1, R, seed=11)
    r = fld.radii[1:]
    sigma = R / math.sqrt(18.0 * n)
    assert abs(float(np.mean(r)) - 2.0 * R / 3.0) <= 4.0 * sigma


def test_count_within_binomial():
    n, R = 30_000, 4.0
    fld = sample_field(n + 1, R, seed=2)
    for frac in (0.25, 0.5, 0.9):
        r = frac * R
        p = frac * frac
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(np.count_nonzero(fld.radii <= r) - 1 - n * p) <= 4.0 * sigma


def test_positions_read_only():
    fld = sample_field(10, 2.0, seed=0)
    with pytest.raises(ValueError):
        fld.positions[0, 0] = 1.0


def test_radii_computed_once_read_only():
    # One array per field, bit for bit the hypot of the positions.
    fld = sample_field(1000, 3.0, seed=1)
    assert fld.radii is fld.radii
    with pytest.raises(ValueError):
        fld.radii[1] = 0.0
    expected = np.hypot(fld.positions[:, 0], fld.positions[:, 1])
    assert fld.radii.tobytes() == expected.tobytes()


def test_invalid_arguments():
    with pytest.raises(ValueError):
        sample_field(0, 1.0, seed=0)
    with pytest.raises(ValueError):
        sample_field(10, -1.0, seed=0)
