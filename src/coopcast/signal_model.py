"""Reception physics for the three communication models.

The MIMO model superposes complex phasors of all senders, the SNR model adds
per-sender received energies, and the UDG model is plain distance <= 1.
Demodulation is evaluated in closed form: the time-domain Fourier integral
collapses to the phasor sum for a steady-state window.

Screens bound, and :func:`coopcast.broadcast.informs` decides: this module
owns reception's arithmetic and compares no level with beta N0.  The
kernels, the screens and the nearest-sender distance take receivers as a
(k, 2) array and return one value per receiver (a screen, two).
:func:`received_phasor` and :func:`snr_received_energy` are the exact
kernels.  Each screen returns a lower and an upper bound on the level that
the kernel's decision uses, |z|^2 under MIMO and the energy under SNR.
:func:`snr_level_bounds` needs only the receiver's radius |q| and the
largest sender radius P, since every sender lies between |q| - P and
|q| + P of it.  The two MIMO tiers carry rigorous error bounds of their own:
:func:`mimo_tier32` is an all-float32 phasor sum, and :func:`mimo_tier64` a
sum with float64 distances and phases, reduced to [-pi, pi] before float32
trig.  Kernels and both tiers work in blocks of ``_BLOCK_BYTES`` bytes of
work arrays, which ``_blocks`` allocates once per call and sizes from their
dtypes; :func:`receiver_blocks` splits a round's receivers into row blocks
of the same budget for its callers.  :func:`nearest_sender_within_one` is
the one kd-tree query: the unit-disk question of the UDG decision and map.
SNR and MIMO query none.  Every other stage takes its pair distances from
``_squared_distances``, dx^2 + dy^2: the SNR kernel divides by them clamped,
with no square root, and the MIMO kernel and tiers take their ``np.sqrt``,
the bits of the kd-tree's distances.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

__all__ = [
    "MODELS",
    "SignalParams",
    "SenderSet",
    "center_sync_phases",
    "nearest_sender_within_one",
    "receiver_blocks",
    "received_phasor",
    "mimo_tier32",
    "mimo_tier64",
    "snr_received_energy",
    "snr_level_bounds",
    "field_map",
    "to_pgm",
]

#: The three reception models, as a broadcast, a job and the CLI name them.
MODELS = ("udg", "snr", "mimo")

# Bytes of work arrays per block of a reception kernel or screen.  _blocks
# divides it by the bytes per pair of a stage's work arrays, so temporaries
# stay the same size whatever the number of senders: 12 for the float32
# screen tier (87,381 pairs a block), 16 for the SNR kernel (65,536 pairs),
# 32 for the MIMO kernel and the float64 screen tier (32,768 pairs).  Each
# call allocates its work arrays once: allocated per block, the SNR
# kernel's 16-byte blocks raised the simulate pass's peak RSS from 83 to
# 87 MB; allocated per call, by 0.5 MB.
# It was tuned with the benchmark's simulate sweeps at --workers 2 on a
# 2-vCPU x86-64 host (2 MiB of L2 cache a core).  The MISO sweep, criterion
# 08's five fields, took medians of 0.84 s at 1.5 MiB, 0.85 s at 1 and at
# 2 MiB, and 1.08 s with the former 2^15 pairs in every stage (12
# interleaved runs each).  Measured again in process, 48 alternating runs
# each, it took 0.411 s at 1 MiB against 0.426 s at 1.5 MiB, inside the
# runs' quartiles (0.385-0.472 s and 0.376-0.466 s; 1 MiB faster in 19 of
# 48 pairs).  The pass's peak RSS grows with the budget, since its two SNR
# jobs hold their kernel's work arrays at once: 77.0-77.4 MB at 1 MiB,
# 78.5-79.1 MB at 1.5 MiB (one pass in process, three runs each).  Fewer,
# longer numpy calls than at 2^15 pairs leave the two workers less Python
# to run under the GIL.
_BLOCK_BYTES = 2**20

# Bytes per receiver row of the temporaries a screen call and its caller
# hold at once, beside the work arrays of _blocks: receivers and their
# radii, the float32 tier's casts, sums, eps and masks, both bounds, the
# open rows' copy.  About 24 float64 values a row; _BLOCK_BYTES at this
# rate is 5,461 rows (see receiver_blocks).
_ROW_BYTES = 192


@dataclass(frozen=True)
class SignalParams:
    """Physical constants of the channel.

    lam is the wavelength (unit = UDG radius), beta_N0 the product of the
    reception threshold and the noise power, and c_f the near-field cutoff
    multiplier: path-loss denominators are clamped below at c_f * lam.
    """

    lam: float = 0.1
    beta_N0: float = 1.0
    c_f: float = 2.0

    def __post_init__(self):
        for name, value in (("wavelength lam", self.lam), ("beta_N0", self.beta_N0),
                            ("near-field cutoff multiplier c_f", self.c_f)):
            if not value > 0 or not math.isfinite(value):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.c_f * self.lam > 1.0 + 1e-12:
            raise ValueError(
                f"near-field cutoff c_f*lam must not exceed 1, got {self.c_f * self.lam}"
            )


@dataclass(frozen=True)
class SenderSet:
    """Active transmitters: positions (m, 2), amplitudes (m,), phases (m,),
    as read-only copies.  Positions ``[]`` give m = 0."""

    positions: np.ndarray
    amplitudes: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float)
        pos = pos.reshape(0, 2) if pos.shape == (0,) else pos
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError(f"positions must have shape (m, 2), got {pos.shape}")
        amp = np.array(self.amplitudes, dtype=float)
        ph = np.mod(np.asarray(self.phases, dtype=float), 2.0 * np.pi)
        if amp.shape != (len(pos),) or ph.shape != (len(pos),):
            raise ValueError("positions, amplitudes and phases must have equal length")
        if np.any(amp < 0):
            raise ValueError("amplitudes must be nonnegative")
        for name, arr in (("positions", pos), ("amplitudes", amp), ("phases", ph)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def build(cls, positions, amplitudes=None, phases=None) -> "SenderSet":
        """Unit amplitudes and zero phases unless given."""
        m = len(positions)
        return cls(positions, np.ones(m) if amplitudes is None else amplitudes,
                   np.zeros(m) if phases is None else phases)

    @property
    def m(self) -> int:
        return self.positions.shape[0]


def center_sync_phases(positions: np.ndarray, lam: float) -> np.ndarray:
    """Center-synchronized phases -2 pi |p| / lam: each sender at p transmits
    in the phase that a wave leaving the origin has when it reaches p."""
    return -2.0 * np.pi * np.hypot(positions[:, 0], positions[:, 1]) / lam


def nearest_sender_within_one(senders: SenderSet, q) -> np.ndarray:
    """Each receiver's distance to its nearest sender, inf where none lies
    within the next float above 1.  A node at distance exactly 1 hears, but
    the query's bound is exclusive: compare the result with ``<= 1``."""
    bound = np.nextafter(1.0, 2.0)
    return cKDTree(senders.positions).query(q, distance_upper_bound=bound)[0]


def receiver_blocks(k: int) -> Iterator[slice]:
    """Slices of k receiver rows in order, each of at least one row and of
    at most the rows whose temporaries fill ``_BLOCK_BYTES`` at
    ``_ROW_BYTES`` a row.  A caller that screens and decides each block on
    its own holds per-receiver temporaries for one block, whatever k."""
    rows = max(1, _BLOCK_BYTES // _ROW_BYTES)
    for start in range(0, k, rows):
        yield slice(start, min(start + rows, k))


def _blocks(k: int, m: int, *dtypes):
    """Yield, for k receiver rows in order, each block's slice and views of
    one (rows, m) work array per dtype, allocated once per call.  A block
    holds at least one row and, with m senders, at most ``_BLOCK_BYTES``
    bytes of work arrays at the bytes per pair that ``dtypes`` sum to."""
    pair_bytes = sum(np.dtype(dtype).itemsize for dtype in dtypes)
    rows = max(1, _BLOCK_BYTES // (pair_bytes * max(m, 1)))
    work = [np.empty((min(rows, k), m), dtype=dtype) for dtype in dtypes]
    for start in range(0, k, rows):
        block = slice(start, min(start + rows, k))
        yield block, [w[: block.stop - start] for w in work]


def _squared_distances(q, pos, out, scratch):
    """Write into ``out`` the (rows, m) squared distances dx^2 + dy^2 from
    each receiver to each sender, with ``q`` and ``pos`` given as their x and
    y coordinate rows (2, rows) and (2, m): two subtractions, two squares and
    one add, the one pair-distance arithmetic of every kernel and screen."""
    np.subtract(q[0][:, None], pos[0], out=out)
    np.subtract(q[1][:, None], pos[1], out=scratch)
    np.multiply(out, out, out=out)
    np.multiply(scratch, scratch, out=scratch)
    np.add(out, scratch, out=out)


def received_phasor(senders: SenderSet, q, params: SignalParams):
    """Complex demodulation output z at each receiver of ``q`` (k, 2).

    z = sum_j (a_j / max(dist_j, c_f lam)) * exp(i(-2 pi dist_j / lam + phi_j)).
    Summation runs in sender-index order with numpy pairwise reduction, so the
    result is reproducible and permutation of equal sender sets is exact after
    canonical sorting.
    """
    qa = np.asarray(q, dtype=float)
    z = np.empty(len(qa), dtype=complex)
    for block, (dist, weight, terms) in _blocks(len(qa), senders.m, "f8", "f8", "c16"):
        # The operations of (a / dclamp) * exp(1j * (-2 pi dist / lam + phi)),
        # in their order, written into the three work arrays.  The real part
        # of the exponent is 0 and the weight is real, so leaving out the
        # complex promotions changes no bit of z.
        _squared_distances(qa[block].T, senders.positions.T, dist, weight)
        np.sqrt(dist, out=dist)
        np.maximum(dist, params.c_f * params.lam, out=weight)
        np.divide(senders.amplitudes, weight, out=weight)
        theta = terms.imag
        np.multiply(dist, -2.0 * np.pi, out=theta)
        np.divide(theta, params.lam, out=theta)
        np.add(theta, senders.phases, out=theta)
        terms.real = 0.0
        np.exp(terms, out=terms)
        np.multiply(terms.real, weight, out=terms.real)
        np.multiply(terms.imag, weight, out=terms.imag)
        terms.sum(axis=1, out=z[block])
    return z


# The float64 tier's error bound, as a multiple of a row's weight sum
# W = sum_j a_j / max(d_j, c_f lam): |tier |z| - kernel |z|| <= eps W for
# every receiver whose phases stay within _PHASE_LIMIT radians, with at
# most _SCREEN_SENDERS senders.  Terms per unit of weight, with u = 2^-53
# and M <= 2^20 the largest phase magnitude of the row:
# - the phase, against the kernel's: none, since both take the same
#   _squared_distances, sqrt, multiply, divide and add, bit for bit;
# - the reduction theta - rint(theta / 2pi) 2pi: the float 2pi's error
#   times |rint(...)| <= M / 2pi + 1, the product and the subtraction,
#   at most 2u M = 2^-32;
# - the float32 cast of the reduced phase, below 4 in magnitude: 2^-23;
# - float32 cos/sin, as the modulus |(cos, sin) - e^{it}|: _TRIG_ERROR =
#   12 * 2^-24 (measured worst 1.41 * 2^-24, over every float32 in
#   [-pi, pi]; tests/test_signal.py checks a dense sample against 1/8 of it);
# - the weights against the kernel's: none, the same distance, clamp and
#   division;
# - the screen's products (2u) and float64 row sums, (m - 1)u each for the
#   real and imaginary parts with m <= 2^20, at most 2^-32;
# - the kernel's own rounding: complex exp and the weight product (2u
#   each) and its pairwise sum ((m - 1)u), at most 2^-32;
# - abs of both sums (hypot, 2u each) and subtracting the slack (u), 5u.
# The sum is below 14.02 * 2^-24; eps = 2^-18 = 64 * 2^-24 is more than
# four times it.  The tier returns its bounds squared: squaring rounds
# monotonically, so they bound |z|^2 as the kernel computes it.
_TRIG_ERROR = 12 * 2.0**-24
_MIMO_EPS = 2.0**-18
_PHASE_LIMIT = 2.0**20
_SCREEN_SENDERS = 2**20


def mimo_tier64(senders: SenderSet, qa: np.ndarray, params: SignalParams):
    """Bounds (lower, upper) on every kernel |z|^2 at receivers ``qa`` (k, 2):
    the squares of a phasor sum's modulus with float32 cos and sin of the
    phase reduced to [-pi, pi] in float64, widened by eps W on each side
    (see ``_MIMO_EPS``).

    Receivers outside the bound's preconditions get (0, inf).  The
    receivers are screened in blocks (see ``_blocks``) through three float64
    and two float32 work arrays.
    """
    k, m = qa.shape[0], senders.m
    pos = senders.positions.T
    lower, upper, outside = np.empty(k), np.empty(k), np.empty(k, dtype=bool)
    for block, (dist, theta, turns, cos, sin) in _blocks(k, m, "f8", "f8", "f8", "f4", "f4"):
        _squared_distances(qa[block].T, pos, dist, theta)
        np.sqrt(dist, out=dist)
        # The kernel's phase, then its nearest multiple of 2 pi subtracted.
        np.multiply(dist, -2.0 * np.pi, out=theta)
        np.divide(theta, params.lam, out=theta)
        np.add(theta, senders.phases, out=theta)
        np.multiply(theta, 1.0 / (2.0 * np.pi), out=turns)
        np.rint(turns, out=turns)
        np.multiply(turns, 2.0 * np.pi, out=turns)
        np.subtract(theta, turns, out=theta)
        np.copyto(cos, theta, casting="same_kind")
        np.sin(cos, out=sin)
        np.cos(cos, out=cos)
        # |phase| <= 2 pi (d / lam + 1) bounds every phase of a row.
        farthest = dist.max(axis=1, initial=0.0)
        outside[block] = 2.0 * np.pi * (farthest / params.lam + 1.0) > _PHASE_LIMIT
        weight = np.maximum(dist, params.c_f * params.lam, out=dist)
        np.divide(senders.amplitudes, weight, out=weight)
        amplitude = np.hypot(np.einsum("km,km->k", weight, cos),
                             np.einsum("km,km->k", weight, sin))
        slack = _MIMO_EPS * weight.sum(axis=1)
        np.maximum(amplitude - slack, 0.0, out=lower[block])
        np.add(amplitude, slack, out=upper[block])
    outside |= m > _SCREEN_SENDERS
    lower[outside] = 0.0
    upper[outside] = np.inf
    return np.square(lower, out=lower), np.square(upper, out=upper)


# The float32 tier's error bound eps32, as a multiple of a row's weight sum
# W = sum_j a_j / max(d_j, c), c = c_f lam.  For a receiver q, with P the
# largest sender norm, Phi = 2 pi ((|q| + P) / lam + 1) bounds every phase
# magnitude of the row (d_j <= |q| + |p_j| and phases lie in [0, 2 pi]), and
#     eps32 = _MIMO_EPS32 (7 Phi + m + (|q| + P) / c + 32),
# with _MIMO_EPS32 = 1.0625 u and u = 2^-24: then |tier |z| - kernel |z||
# <= eps32 W for every row with Phi <= _TIER_PHASE_LIMIT and eps32 <= 2^-8
# (so m <= 2^16), when lam and c are at least 2^-20 and every amplitude is
# 0 or at least 2^-40; the tier gives the other rows (0, inf).
# Terms per unit of weight, first order in u, for a pair at distance D:
# - the float32 casts: each coordinate moves by at most u of itself, so the
#   cast points' distance by at most u (|q| + |p|); a phase (below 2 pi),
#   an amplitude and the constants -2 pi / lam and c, u relative each;
# - the float32 distance: dx and dy, their squares, sum and sqrt, 3u D;
# - the phase d (-2 pi / lam) + phi against the kernel's: the distance's
#   error times 2 pi / lam, the constant and the product, u 2 pi D / lam
#   each, the phase's cast 2 pi u and the sum u |phase|; with D <= |q| + P,
#   in all below 7u Phi (2^-9.3 at criterion 08's largest Phi, 3,776 rad);
# - float32 cos/sin of the unreduced phase, whose magnitude stays below
#   Phi (1 + 8u) < 2^12, as the modulus |(cos, sin) - e^{it}|:
#   _TRIG_ERROR = 12u (measured worst 1.43u over every float32 in
#   [-2^12, 2^12]; tests/test_signal.py checks a dense sample against 1/8);
# - the weights a / max(d, c) against the kernel's: a, c and the division,
#   u each, and the distance, 3u + u (|q| + P) / c through the clamp;
# - the products and the float32 einsum row sums in any order, m u;
# - float32 underflow, which the limits on lam, c and the amplitudes keep
#   below 2^-50 (a square below 2^-126 moves d by at most 2^-74.5; weights
#   stay above 2^-104 while d^2 is finite);
# - the kernel's own rounding (float64 distance, phase, exp, weight product
#   and pairwise sum) and the float64 abs and widening, below 2^-30.
# The constant terms, 12u (trig), 6u (weights) and below 2^-29 (underflow
# and the kernel), sum to less than 32u.  The slack's W is the
# tier's float32 weight sum, within (m - 1)u + (|q| + P) u / c + 6u of the
# kernel's.  With eps32 <= 2^-8 every term is below 2^-8, so that and the
# second-order terms scale the sum by less than 1 + 2^-6 <= 1.0625.
# Overflow gives inf or nan bounds, which decide nothing.  The bounds are
# returned squared, as the float64 tier's.
_MIMO_EPS32 = 1.0625 * 2.0**-24
_TIER_PHASE_LIMIT = 4000.0


def mimo_tier32(senders: SenderSet, qa: np.ndarray, params: SignalParams):
    """Bounds (lower, upper) on every kernel |z|^2 at receivers ``qa`` (k, 2):
    the squares of a float32 phasor sum's modulus widened by eps32 W (see
    ``_MIMO_EPS32``).

    Positions, receivers, amplitudes and phases are cast to float32 once,
    the coordinates as contiguous x and y rows; the receivers within the
    tier's limits are screened in blocks (see ``_blocks``) through three
    float32 work arrays.  The others get (0, inf).
    """
    k, m = qa.shape[0], senders.m
    clamp = params.c_f * params.lam
    reach = np.hypot(qa[:, 0], qa[:, 1]) + np.hypot(*senders.positions.T).max(initial=0.0)
    phase = 2.0 * np.pi * (reach / params.lam + 1.0)
    eps = _MIMO_EPS32 * (7.0 * phase + m + reach / clamp + 32.0)
    normal = min(params.lam, clamp) >= 2.0**-20 and np.all(
        (senders.amplitudes == 0.0) | (senders.amplitudes >= 2.0**-40))
    inside = np.flatnonzero((phase <= _TIER_PHASE_LIMIT) & (eps <= 2.0**-8) & normal)
    # order="C": the transposes' casts keep their strides otherwise.
    q32 = qa[inside].T.astype(np.float32, order="C")
    pos = senders.positions.T.astype(np.float32, order="C")
    amplitudes = senders.amplitudes.astype(np.float32)
    phases = senders.phases.astype(np.float32)
    wave, clamp = np.float32(-2.0 * np.pi / params.lam), np.float32(clamp)
    real, imag, total = np.empty((3, inside.size))
    for block, (dist, theta, cos) in _blocks(inside.size, m, "f4", "f4", "f4"):
        _squared_distances(q32[:, block], pos, dist, theta)
        np.sqrt(dist, out=dist)
        np.multiply(dist, wave, out=theta)
        np.add(theta, phases, out=theta)
        np.cos(theta, out=cos)
        sin = np.sin(theta, out=theta)
        weight = np.maximum(dist, clamp, out=dist)
        np.divide(amplitudes, weight, out=weight)
        real[block] = np.einsum("km,km->k", weight, cos)
        imag[block] = np.einsum("km,km->k", weight, sin)
        total[block] = weight.sum(axis=1)
    amplitude = np.hypot(real, imag)
    slack = eps[inside] * total
    lower, upper = np.zeros(k), np.full(k, np.inf)
    lower[inside] = np.maximum(amplitude - slack, 0.0) ** 2
    upper[inside] = (amplitude + slack) ** 2
    return lower, upper


def snr_received_energy(senders: SenderSet, q, params: SignalParams):
    """Incoherent received energy RS = sum_j a_j^2 / max(dist_j^2, (c_f lam)^2)
    at each receiver of ``q`` (k, 2), from the squared distances: no sqrt."""
    qa = np.asarray(q, dtype=float)
    rs = np.empty(len(qa))
    power = senders.amplitudes**2
    clamp = params.c_f * params.lam
    for block, (level, dy) in _blocks(len(qa), senders.m, "f8", "f8"):
        _squared_distances(qa[block].T, senders.positions.T, level, dy)
        np.maximum(level, clamp * clamp, out=level)
        np.divide(power, level, out=level)
        level.sum(axis=1, out=rs[block])
    return rs


# The SNR screen's U takes |q| - P as q_norm (1 - tol) - P (1 + tol), with
# tol = _SNR_NEAR_TOL, so that it stays below the exact |q| - P of the float
# points, which every sender's distance reaches.  In units of u = 2^-53:
# the computed |q| and P (hypot, at most 2u each) and the two products (u
# each) move each side by at most 3u of itself, so any margin above 3u
# would do; 2^-44 = 512u is more than a hundred and fifty times that, and a
# receiver it sends to the kernel in vain costs m pairs.  The subtraction's
# own rounding is relative to the result, and snr_level_bounds' tol covers it.
_SNR_NEAR_TOL = 2.0**-44


def snr_level_bounds(
    senders: SenderSet, q: np.ndarray, params: SignalParams
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds L (1 - tol) and U (1 + tol), per receiver of ``q`` (k, 2), on
    its :func:`snr_received_energy`.

    Each term of a level is a_j^2 / max(d_j, c)^2 with c = c_f lam, and every
    sender lies within P, the largest sender radius, so d_j lies between
    |q| - P and |q| + P.  So with S = sum_j a_j^2, L = S / max(|q| + P, c)^2
    and U = S / max(|q| - P, c)^2; a receiver inside the sender disk
    (|q| <= P + c) gets U = S / c^2, the largest level there is.
    """
    # Relative rounding in tol, in units of u.  Kernel, per term: the
    # squared distance (dx and dy, u each, doubled by their squares, and the
    # add: 4u) or the clamp c c (u), then squaring a_j and the division (u
    # each), about 6u; the sum of m terms, (m - 1)u.  S: the
    # squares and their sum, at most mu (none for unit amplitudes: S = m).
    # Either bound's distance: |q| + P (two hypot and an addition) or, past
    # the margin, |q| - P (the subtraction), at most about 5u, doubled by
    # the square, then the division, 1 -/+ tol and the product, about 13u.
    # In all below (2m + 24)u; tol = 16 (m + 16)u leaves a margin of eight
    # and more.
    tol = (senders.m + 16) * 2.0**-49
    q_norm = np.hypot(q[:, 0], q[:, 1])
    c = params.c_f * params.lam
    power = np.square(senders.amplitudes).sum()
    p = np.hypot(*senders.positions.T).max(initial=0.0)
    lower = power / np.maximum(q_norm + p, c) ** 2
    near = q_norm * (1.0 - _SNR_NEAR_TOL) - p * (1.0 + _SNR_NEAR_TOL)
    upper = power / np.maximum(near, c) ** 2
    return lower * (1.0 - tol), upper * (1.0 + tol)


def field_map(
    senders: SenderSet, half_width: float, cells: int, params: SignalParams, model: str
) -> np.ndarray:
    """The (cells, cells) row-major map of |z|^2 (mimo), RS (snr) or unit-disk
    coverage (udg: 1 within distance 1 of a sender, else 0) at the cell
    centers of the square of half-width ``half_width`` about the origin."""
    if model not in MODELS:
        raise ValueError(f"model must be one of {'/'.join(MODELS)}, got {model!r}")
    xs = -half_width + (np.arange(cells) + 0.5) * (2.0 * half_width) / cells
    X, Y = np.meshgrid(xs, xs)
    pts = np.column_stack([X.ravel(), Y.ravel()])
    if model == "udg":
        vals = (nearest_sender_within_one(senders, pts) <= 1.0).astype(float)
    elif model == "snr":
        vals = snr_received_energy(senders, pts, params)
    else:
        vals = np.abs(received_phasor(senders, pts, params)) ** 2
    return vals.reshape(cells, cells)


def to_pgm(values: np.ndarray, threshold: float) -> str:
    """Plain (P2) 8-bit PGM of a map, value = round(255 * min(1, v / threshold))."""
    scaled = np.round(255.0 * np.minimum(1.0, values / threshold)).astype(int)
    rows = [" ".join(str(v) for v in row) for row in scaled]
    ny, nx = values.shape
    return f"P2\n{nx} {ny}\n255\n" + "\n".join(rows) + "\n"
