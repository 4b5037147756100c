"""The per-round reach bound, which every round of every broadcast meets:
shared by the round engine's tests and the sweep tests."""

import math

import numpy as np

# A round's m unit-amplitude senders, the farthest at radius P, inform no
# node farther from the origin than P + 1 under UDG; P + sqrt(m / beta N0)
# under SNR, whose level at distance d from the nearest sender is at most
# m / d^2; and P + m / sqrt(beta N0) under MIMO, whose |z| is at most m / d.
_REACH_EXCESS = {
    "udg": lambda m, beta_N0: 1.0,
    "snr": lambda m, beta_N0: math.sqrt(m / beta_N0),
    "mimo": lambda m, beta_N0: m / math.sqrt(beta_N0),
}

# Relative margin on the allowed excess, for m <= 65536 senders, field radii
# R <= 30, 2 pi R / lam < 6500 rad and beta N0 <= 4.  A decided level sums m
# terms, each within a few u = 2^-53 of its value, so it lies within
# (m + 8) u < 7.3e-12 of the exact level (relative).  A MIMO phase, at most
# 2 pi 2R / lam < 13,000 rad, is within a few ulp of it, under 1e-11 rad,
# which moves |z| by under 1e-11 of m / d.  The radii are within 1 ulp
# each, under 2 u R < 7e-15, and every allowed excess is at least 1/2
# (m >= 1).  2^-30 = 9.3e-10 is over thirty times their sum.
REACH_MARGIN = 2.0**-30


def reach_share(radii, record, round_model, senders, beta_N0) -> float:
    """How far past its farthest sender's radius P the round's farthest
    newly informed node lies, as a share of the excess its model allows
    (``-inf`` when the round informed nobody): at most 1 + REACH_MARGIN.
    ``radii`` are the field's node radii."""
    pos = senders.positions
    P = np.hypot(pos[:, 0], pos[:, 1]).max()
    excess = radii[record.newly_informed].max(initial=-np.inf) - P
    return excess / _REACH_EXCESS[round_model](senders.m, beta_N0)
