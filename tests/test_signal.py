import math

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from coopcast import signal_model
from coopcast.broadcast import informs
from coopcast.signal_model import (
    SenderSet,
    SignalParams,
    center_sync_phases,
    field_map,
    mimo_tier32,
    mimo_tier64,
    nearest_sender_within_one,
    received_phasor,
    snr_level_bounds,
    snr_received_energy,
    to_pgm,
)

PARAMS = SignalParams()  # lam=0.1, beta_N0=1, c_f=2


def demodulate_numeric(
    senders: SenderSet,
    q,
    params: SignalParams,
    delta: float,
    steps: int = 20_000,
) -> complex:
    """Trapezoidal evaluation of z = (1/delta) int rx(t) e^{-2 pi i t / lam} dt.

    Steady-state oracle for :func:`received_phasor`; requires delta >= 50 lam
    so the window covers many carrier periods, and steps >= 10^4.
    """
    if delta < 50.0 * params.lam:
        raise ValueError(f"integration window delta={delta} must be >= 50*lam")
    if steps < 10_000:
        raise ValueError(f"need at least 10^4 integration steps, got {steps}")
    if senders.m == 0:
        return 0j
    diff = np.asarray(q, dtype=float) - senders.positions
    dist = np.hypot(diff[:, 0], diff[:, 1])
    dclamp = np.maximum(dist, params.c_f * params.lam)
    # Window chosen in steady state: all senders transmit throughout.
    t = np.linspace(0.0, delta, steps + 1)
    rx = (
        (senders.amplitudes / dclamp)[:, None]
        * np.exp(
            1j
            * (
                2.0 * np.pi * (t[None, :] - dist[:, None]) / params.lam
                + senders.phases[:, None]
            )
        )
    ).sum(axis=0)
    integrand = rx * np.exp(-1j * 2.0 * np.pi * t / params.lam)
    return complex(np.trapezoid(integrand, t) / delta)


def reference_kernels(senders: SenderSet, q, params: SignalParams):
    """z and RS at receivers ``q`` (k, 2) by the textbook formulas, one (k, m)
    temporary per operation.  Oracle for :func:`received_phasor` and
    :func:`snr_received_energy`, which run the same float operations in the
    same order and so must match it bit for bit."""
    diff = q[:, None, :] - senders.positions[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    dclamp = np.maximum(dist, params.c_f * params.lam)
    terms = (senders.amplitudes / dclamp) * np.exp(
        1j * (-2.0 * np.pi * dist / params.lam + senders.phases)
    )
    return terms.sum(axis=1), (senders.amplitudes**2 / dclamp**2).sum(axis=1)


def expected_phasor_integral(
    d_over_r: float,
    lambda_over_r: float,
    initial_cells: int = 256,
    max_refinements: int = 6,
    rel_tol: float = 1e-4,
) -> complex:
    """2-D quadrature of exp(i 2 pi Delta_d / lam) / dist over the unit disk.

    Evaluates s(d/r, lam/r, 1), the expected single-sender phasor integral,
    in polar coordinates with successive grid doubling.  Raises RuntimeError
    if refinements do not converge to ``rel_tol`` relative.
    """
    d = float(d_over_r)
    lam = float(lambda_over_r)
    if d < 15.0:
        raise ValueError(f"d/r must be >= 15, got {d}")
    if lam > 2.0 or lam <= 0.0:
        raise ValueError(f"lambda/r must lie in (0, 2], got {lam}")

    def quad(cells: int) -> complex:
        s = np.linspace(0.0, 1.0, cells + 1)
        theta = np.linspace(0.0, 2.0 * np.pi, 2 * cells, endpoint=False)
        S, T = np.meshgrid(s, theta, indexing="ij")
        x = S * np.cos(T)
        y = S * np.sin(T)
        delta = np.sqrt(x * x + y * y) + np.sqrt((d - x) ** 2 + y * y) - d
        dist = np.sqrt((x - d) ** 2 + y * y)
        integrand = np.exp(1j * 2.0 * np.pi * delta / lam) / dist * S
        # trapezoid in s, midpoint (periodic) in theta
        return complex(np.trapezoid(integrand, s, axis=0).sum() * (2.0 * np.pi / len(theta)))

    prev = quad(initial_cells)
    cells = initial_cells
    for _ in range(max_refinements):
        cells *= 2
        cur = quad(cells)
        if abs(cur - prev) <= rel_tol * abs(cur):
            return cur
        prev = cur
    raise RuntimeError(
        f"phasor-integral quadrature did not converge to {rel_tol} relative "
        f"within {max_refinements} refinements (last cells={cells})"
    )


def test_params_validation():
    with pytest.raises(ValueError):
        SignalParams(lam=-0.1)
    with pytest.raises(ValueError):
        SignalParams(lam=0.6, c_f=2.0)  # near-field clamp above 1
    with pytest.raises(ValueError):
        SignalParams(beta_N0=0.0)
    # c_f = 0 would leave a receiver on a sender unclamped (z = inf+nanj).
    for c_f in (0.0, -1.0):
        with pytest.raises(ValueError, match="c_f"):
            SignalParams(c_f=c_f)


def test_single_sender_amplitude():
    # |z| = a / dist beyond the near-field clamp, = a / (c_f lam) inside it.
    s = SenderSet.build([[0.0, 0.0]], amplitudes=[2.0])
    for d in (0.5, 1.0, 3.0):
        z = received_phasor(s, [(d, 0.0)], PARAMS)[0]
        assert abs(z) == pytest.approx(2.0 / d, rel=1e-12)
    z = received_phasor(s, [(0.05, 0.0)], PARAMS)[0]
    assert abs(z) == pytest.approx(2.0 / 0.2, rel=1e-12)


def test_single_sender_phase():
    s = SenderSet.build([[0.0, 0.0]])
    d = 1.234
    z = received_phasor(s, [(d, 0.0)], PARAMS)[0]
    expected = math.e ** (1j * (-2.0 * math.pi * d / PARAMS.lam))
    assert z == pytest.approx(expected / d, rel=1e-12)


def test_model_equivalence_single_sender():
    # One sender of unit amplitude with beta N0 = 1: each kernel's level
    # reaches beta N0 exactly within distance 1, and the reception rule
    # decides as the kernels do under all three models.
    rng = np.random.Generator(np.random.Philox(5))
    pos = rng.uniform(-2, 2, size=(2000, 2))
    recv = rng.uniform(-2, 2, size=(2000, 2))
    for p, q in zip(pos, recv):
        s, q = SenderSet.build([p]), q[None]
        udg = bool(np.hypot(*(q[0] - p)) <= 1.0)
        assert (np.abs(received_phasor(s, q, PARAMS)) ** 2 >= PARAMS.beta_N0)[0] == udg
        assert (snr_received_energy(s, q, PARAMS) >= PARAMS.beta_N0)[0] == udg
        for model in ("udg", "snr", "mimo"):
            assert informs(model, s, q, PARAMS)[0].tolist() == [udg]


def test_coherent_equidistant_gain():
    # m aligned senders at equal distance add amplitudes exactly.
    m, d = 7, 3.0
    ang = np.linspace(0, 2 * np.pi, m, endpoint=False)
    pos = d * np.column_stack([np.cos(ang), np.sin(ang)])
    phases = 2.0 * np.pi * d / PARAMS.lam * np.ones(m)
    s = SenderSet.build(pos, phases=phases)
    z = received_phasor(s, [(0.0, 0.0)], PARAMS)[0]
    assert abs(z) == pytest.approx(m / d, rel=1e-12)


def test_destructive_pair():
    # Two senders offset by half a wavelength cancel almost completely.
    s2 = SenderSet.build([[0.0, 0.0], [0.05, 0.0]])
    s1 = SenderSet.build([[0.0, 0.0]])
    q = [(1.025, 0.0)]
    power_pair = abs(received_phasor(s2, q, PARAMS)[0]) ** 2
    power_single = abs(received_phasor(s1, q, PARAMS)[0]) ** 2
    assert power_single > 0.9
    assert power_pair < 0.01
    assert informs("mimo", s1, q, PARAMS)[0].tolist() == [False]  # 1/1.025 < 1 amplitude
    assert snr_received_energy(s2, q, PARAMS)[0] > power_pair


def test_linearity_and_permutation():
    rng = np.random.Generator(np.random.Philox(6))
    pos = rng.uniform(-1, 1, size=(10, 2))
    amp = rng.uniform(0.5, 2.0, size=10)
    ph = rng.uniform(0, 2 * np.pi, size=10)
    q = [(4.0, 1.0)]
    whole = received_phasor(SenderSet.build(pos, amp, ph), q, PARAMS)[0]
    first = received_phasor(SenderSet.build(pos[:4], amp[:4], ph[:4]), q, PARAMS)[0]
    second = received_phasor(SenderSet.build(pos[4:], amp[4:], ph[4:]), q, PARAMS)[0]
    assert whole == pytest.approx(first + second, rel=1e-12)
    perm = rng.permutation(10)
    shuffled = received_phasor(SenderSet.build(pos[perm], amp[perm], ph[perm]), q, PARAMS)[0]
    assert shuffled == pytest.approx(whole, rel=1e-12)


def test_scaling_identity():
    # Doubling all distances and the wavelength halves the phasor exactly
    # (phases unchanged, amplitudes halved), while clamps stay inactive.
    rng = np.random.Generator(np.random.Philox(12))
    pos = rng.uniform(-1, 1, size=(8, 2))
    ph = rng.uniform(0, 2 * np.pi, size=8)
    q = [(5.0, -2.0)]
    base = received_phasor(SenderSet.build(pos, phases=ph), q, PARAMS)[0]
    scaled = received_phasor(
        SenderSet.build(2.0 * pos, phases=ph),
        [(10.0, -4.0)],
        SignalParams(lam=2 * PARAMS.lam, c_f=PARAMS.c_f / 2),
    )[0]
    assert scaled == pytest.approx(base / 2.0, rel=1e-8)


def test_demodulation_oracle():
    rng = np.random.Generator(np.random.Philox(13))
    for _ in range(20):
        m = int(rng.integers(1, 5))
        pos = rng.uniform(-1, 1, size=(m, 2))
        amp = rng.uniform(0.5, 2.0, size=m)
        ph = rng.uniform(0, 2 * np.pi, size=m)
        q = tuple(rng.uniform(2, 5, size=2))
        s = SenderSet.build(pos, amp, ph)
        direct = received_phasor(s, [q], PARAMS)[0]
        windowed = demodulate_numeric(s, q, PARAMS, delta=50 * PARAMS.lam, steps=20_000)
        assert windowed == pytest.approx(direct, rel=1e-6)


def test_demodulation_preconditions():
    s = SenderSet.build([[0.0, 0.0]])
    with pytest.raises(ValueError):
        demodulate_numeric(s, (1.0, 0.0), PARAMS, delta=PARAMS.lam)
    with pytest.raises(ValueError):
        demodulate_numeric(s, (1.0, 0.0), PARAMS, delta=50 * PARAMS.lam, steps=100)


def test_random_phase_energy_matches_incoherent_sum():
    rng = np.random.Generator(np.random.Philox(14))
    pos = rng.uniform(-1, 1, size=(30, 2))
    q = (4.0, 0.0)
    target = snr_received_energy(SenderSet.build(pos), [q], PARAMS)[0]
    draws = 4000
    phases = rng.uniform(0, 2 * np.pi, size=(draws, 30))
    diff = np.asarray(q) - pos
    dist = np.hypot(diff[:, 0], diff[:, 1])
    base = (1.0 / np.maximum(dist, PARAMS.c_f * PARAMS.lam)) * np.exp(
        -1j * 2.0 * np.pi * dist / PARAMS.lam
    )
    z = (base[None, :] * np.exp(1j * phases)).sum(axis=1)
    mean_power = float(np.mean(np.abs(z) ** 2))
    assert mean_power == pytest.approx(target, rel=0.05)


def test_expected_phasor_integral_converges():
    val = expected_phasor_integral(20.0, 0.5)
    again = expected_phasor_integral(20.0, 0.5)
    assert val == again  # deterministic
    assert abs(val) < math.pi  # |integrand| <= 1/dist, area pi
    with pytest.raises(ValueError):
        expected_phasor_integral(10.0, 0.5)
    with pytest.raises(ValueError):
        expected_phasor_integral(20.0, 3.0)


def test_single_cell_field_map():
    # One cell: its center is the origin.
    values = field_map(SenderSet.build([[0.5, 0.0]]), 1.0, 1, PARAMS, "snr")
    assert values.shape == (1, 1)
    assert values[0, 0] == pytest.approx(1.0 / 0.5**2)


def test_field_map_angular_contrast():
    # Coherent maps show angular interference structure; incoherent maps are
    # rotationally smooth for the same senders.
    rng = np.random.Generator(np.random.Philox(15))
    pos = rng.uniform(-0.5, 0.5, size=(40, 2))
    s = SenderSet.build(pos)
    ring_r = 3.0
    theta = np.linspace(0, 2 * np.pi, 720, endpoint=False)
    ring = ring_r * np.column_stack([np.cos(theta), np.sin(theta)])
    mimo_vals = np.abs(received_phasor(s, ring, PARAMS)) ** 2
    snr_vals = snr_received_energy(s, ring, PARAMS)
    assert np.std(mimo_vals) / np.mean(mimo_vals) > 5 * np.std(snr_vals) / np.mean(snr_vals)


def test_field_map_udg_coverage():
    # Cell centers at -1, 0 and 1 on each axis: distance exactly 1 is
    # covered, the corners at sqrt 2 are not.
    sender = SenderSet.build([[0.0, 0.0]])
    values = field_map(sender, 1.5, 3, PARAMS, "udg")
    assert values.tolist() == [[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.0]]
    assert to_pgm(values, threshold=1.0).splitlines()[-1] == "0 255 0"
    with pytest.raises(ValueError):
        field_map(sender, 1.5, 3, PARAMS, "UDG")


def test_pgm_output_format():
    values = field_map(SenderSet.build([[0.0, 0.0]]), 1.0, 4, PARAMS, "mimo")
    text = to_pgm(values[:3], threshold=1.0)  # 4 columns, 3 rows
    lines = text.strip().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "4 3"
    assert lines[2] == "255"
    values = [int(v) for row in lines[3:] for v in row.split()]
    assert len(values) == 12
    assert all(0 <= v <= 255 for v in values)


def test_empty_sender_set():
    # Empty positions, [] or of shape (0, 2), are m = 0 senders, which every
    # kernel and screen takes.
    q = np.array([[1.0, 0.0], [0.0, 0.0]])
    for positions in ([], np.empty((0, 2))):
        s = SenderSet.build(positions)
        assert s.m == 0 and s.positions.shape == (0, 2)
        z, rs = reference_kernels(s, q, PARAMS)
        assert np.array_equal(received_phasor(s, q, PARAMS), z)
        assert np.array_equal(snr_received_energy(s, q, PARAMS), rs)
        bounds = snr_level_bounds(s, q, PARAMS)
        assert [b.tolist() for b in bounds] == [[0.0, 0.0]] * 2
        assert nearest_sender_within_one(s, q).tolist() == [np.inf, np.inf]


def test_sender_set_rejects_other_shapes():
    # Any other shape of positions than (m, 2) is rejected, and the arrays
    # are copies: the caller's stay writable.
    for positions in ([[0.0, 0.0, 5.0]], [1.0, 2.0], np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="shape"):
            SenderSet.build(positions)
    with pytest.raises(ValueError, match="equal length"):
        SenderSet.build([[0.0, 0.0]], amplitudes=[1.0, 2.0])
    pos = np.zeros((1, 2))
    SenderSet.build(pos)
    pos[0, 0] = 1.0  # still writable


@pytest.mark.parametrize("lam", [0.02, 0.1, 0.5])
def test_snr_level_bounds_enclose_the_kernel_level(lam):
    # With amplitudes from 0.5 to 2, every kernel level lies within the
    # bounds: they scale with the sum of squared amplitudes, not with m.
    # Receivers lie on senders, inside the near-field clamp, inside the
    # sender disk (|q| < P, where U is S / c^2) and beyond it.  One sender at
    # the origin makes both bounds tight (|q| - P = |q| + P = |q|).
    params = SignalParams(lam=lam)
    rng = np.random.Generator(np.random.Philox(17))
    clamp = params.c_f * lam
    sender_sets = [np.zeros((1, 2))]
    sender_sets += [rng.uniform(-3.0, 3.0, size=(m, 2)) for m in (1, 7, 85, 600)]
    for pos in sender_sets:
        m = len(pos)
        senders = SenderSet.build(pos, rng.uniform(0.5, 2.0, size=m))
        q = np.vstack([
            pos[:3],  # exactly on a sender: distance 0
            pos[:3] + [0.3 * clamp, -0.4 * clamp],  # inside the near-field clamp
            rng.uniform(-6.0, 6.0, size=(60, 2)),
        ])
        q_norm = np.hypot(*q.T)
        lower, upper = snr_level_bounds(senders, q, params)
        level = snr_received_energy(senders, q, params)
        assert np.all((lower <= level) & (level <= upper))
        if m > 1:
            assert np.any(q_norm < np.hypot(*pos.T).max())
        # A threshold on a receiver's own level: no bound decides it, and
        # informs takes the kernel's inclusive decision.
        for i in (0, 3, 10, 40):
            beta = float(level[i])
            assert lower[i] < beta <= upper[i]
            hit = informs("snr", senders, q, SignalParams(lam=lam, beta_N0=beta))[0]
            assert hit.tolist() == (level >= beta).tolist()


def assert_matches_reference(senders, q, params):
    z_ref, rs_ref = reference_kernels(senders, q, params)
    z = received_phasor(senders, q, params)
    assert np.array_equal(z.real, z_ref.real)
    assert np.array_equal(z.imag, z_ref.imag)
    assert np.array_equal(snr_received_energy(senders, q, params), rs_ref)


@pytest.mark.parametrize("lam", [0.02, 0.1, 0.5])
@pytest.mark.parametrize("m", [1, 7, 85, 5548])
def test_kernels_match_reference_bit_for_bit(m, lam):
    params = SignalParams(lam=lam)
    rng = np.random.Generator(np.random.Philox(m))
    pos = rng.uniform(-3.0, 3.0, size=(m, 2))
    senders = SenderSet.build(pos, rng.uniform(0.25, 4.0, size=m), rng.uniform(0, 7, size=m))
    clamp = params.c_f * lam
    q = np.vstack([
        pos[:3],  # exactly on a sender: distance 0
        pos[:3] + [0.3 * clamp, -0.4 * clamp],  # inside the near-field clamp
        rng.uniform(-6.0, 6.0, size=(40, 2)),
    ])
    assert_matches_reference(senders, q, params)


@pytest.mark.parametrize("model", ["mimo", "snr"], ids=str.upper)
def test_field_map_memory_bounded_by_pair_budget(model):
    # 128^2 cells x 2000 senders is 32.8M pairs, about 1 GB of kernel
    # temporaries in one call.  Blocked by the byte budget, the peak is one
    # block's work arrays plus the grid's own arrays.
    rng = np.random.Generator(np.random.Philox(16))
    senders = SenderSet.build(rng.uniform(-4.0, 4.0, size=(2000, 2)))
    cells = 128
    tracemalloc.start()
    try:
        values = field_map(senders, 5.0, cells, PARAMS, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * signal_model._BLOCK_BYTES + 64 * cells * cells
    # Every 16th cell in one unblocked kernel call: 2M pairs.
    xs = -5.0 + (np.arange(cells) + 0.5) * 10.0 / cells
    X, Y = np.meshgrid(xs, xs)
    sample = np.column_stack([X.ravel(), Y.ravel()])[::16]
    z, rs = reference_kernels(senders, sample, PARAMS)
    whole = np.abs(z) ** 2 if model == "mimo" else rs
    assert np.array_equal(values.ravel()[::16], whole)


def _screen_cases():
    """Sender sets and receivers for the MIMO screen: center-synchronized and
    random phases, amplitudes 0.25-4, receivers on a sender, inside the
    near-field clamp and across the field.  At R = 30 and lam = 0.1 the
    phases reach thousands of radians."""
    rng = np.random.Generator(np.random.Philox(2024))
    cases = []
    for m in (1, 2, 7, 85, 600):
        for lam, R in ((0.1, 30.0), (0.02, 3.0), (0.5, 2.0)):
            for synced in (True, False):
                pos = rng.uniform(-R, R, size=(m, 2))
                phases = center_sync_phases(pos, lam) if synced else rng.uniform(0, 7, size=m)
                senders = SenderSet.build(pos, rng.uniform(0.25, 4.0, size=m), phases)
                clamp = 2.0 * lam
                q = np.vstack([
                    pos[:3],
                    pos[:3] + [0.3 * clamp, -0.4 * clamp],
                    rng.uniform(-R, R, size=(60, 2)),
                ])
                cases.append((senders, q, SignalParams(lam=lam)))
    return cases


def _screen_misses(cases, tier) -> int:
    """Receivers whose kernel |z|^2 falls outside the ``tier``'s bounds."""
    misses = 0
    for senders, q, params in cases:
        lower, upper = tier(senders, q, params)
        level = np.abs(received_phasor(senders, q, params)) ** 2
        misses += int(np.sum(~((lower <= level) & (level <= upper))))
    return misses


TIERS = [mimo_tier32, mimo_tier64]


def test_screen_encloses_the_kernel_amplitude():
    # Through informs, which runs the float32 tier, the float64 tier on the
    # rows it leaves open and the kernel on the rest, every case is decided
    # as the kernel alone decides it: at beta N0 = 1, and on and just above
    # three receivers' own levels, where a bound on the wrong side of the
    # level would decide the other way.
    cases = _screen_cases()
    largest_phase = max(
        2.0 * np.pi * np.linalg.norm(q[:, None] - s.positions, axis=2).max() / p.lam
        for s, q, p in cases
    )
    assert largest_phase > 2000.0
    for senders, q, params in cases:
        level = np.abs(received_phasor(senders, q, params)) ** 2
        own = [float(level[i]) for i in (0, 4, 30)]
        for beta in [1.0, *own, *np.nextafter(own, np.inf)]:
            hit = informs("mimo", senders, q, replace(params, beta_N0=beta))[0]
            assert hit.tolist() == (level >= beta).tolist()


@pytest.mark.parametrize("tier", TIERS)
def test_each_tier_encloses_the_kernel_amplitude(tier):
    # Each tier bounds |z|^2 on every receiver it is given: through informs
    # the float64 tier sees only the rows the float32 tier leaves open.
    assert _screen_misses(_screen_cases(), tier) == 0


def test_float32_tier_bounds_most_receivers_within_its_phase_limit():
    # The float32 tier widens |z| by its own eps32 W, less than 2^-8 W, on
    # every receiver within its phase limit, phases of thousands of radians
    # included, and gives the others (0, inf).
    bounded = far = 0
    for senders, q, params in _screen_cases():
        lower, upper = mimo_tier32(senders, q, params)
        reach = np.hypot(*q.T) + np.hypot(*senders.positions.T).max()
        within = 2.0 * np.pi * (reach / params.lam + 1.0) <= signal_model._TIER_PHASE_LIMIT
        assert np.all(np.isfinite(upper) == within)
        assert lower[~within].tolist() == [0.0] * int(np.sum(~within))
        bounded += int(np.sum(within))
        dist = np.linalg.norm(q[within][:, None] - senders.positions, axis=2)
        weight = (senders.amplitudes / np.maximum(dist, params.c_f * params.lam)).sum(axis=1)
        width = np.sqrt(upper[within]) - np.sqrt(lower[within])
        assert np.all(width <= 2.0**-7 * weight)
        far = max(far, 2.0 * np.pi * dist.max(initial=0.0) / params.lam)
    assert bounded > 1500 and far > 2000.0


def test_screen_containment_fails_with_a_narrower_bound(monkeypatch):
    # The check has teeth: 2^12 times less slack misses some receiver.  It
    # calls the float64 tier directly; through informs the float32 tier
    # would decide most rows before the float64 tier sees them.
    monkeypatch.setattr(signal_model, "_MIMO_EPS", signal_model._MIMO_EPS / 2**12)
    assert _screen_misses(_screen_cases(), mimo_tier64) > 0


def test_float32_tier_containment_fails_with_a_narrower_bound(monkeypatch):
    # 2^5 times less slack misses some receiver: on these cases the worst
    # error comes within a factor of 32 of the float32 tier's bound.
    monkeypatch.setattr(signal_model, "_MIMO_EPS32", signal_model._MIMO_EPS32 / 2**5)
    assert _screen_misses(_screen_cases(), mimo_tier32) > 0


def _mimo_informs(senders, q, params):
    return informs("mimo", senders, q, params)


def test_screen_bounds_do_not_depend_on_the_pair_budget(monkeypatch):
    # The tiers and both kernels loop over the blocks of _blocks, which
    # sizes each stage's blocks of the byte budget from the dtypes of the
    # work arrays it yields; a row's values are the same bits in any block,
    # the last, shorter block included, and so are informs' decisions.
    senders, q, params = _screen_cases()[-6]  # 600 senders, lam = 0.1
    k, m = len(q), senders.m
    blocks, sizes = signal_model._blocks, {}

    def bits(function):
        out = function(senders, q, params)
        return [np.asarray(b).tobytes() for b in (out if isinstance(out, tuple) else (out,))]

    for function in (_mimo_informs, *TIERS, received_phasor, snr_received_energy):

        def spied(rows, m, *dtypes):
            for block, work in blocks(rows, m, *dtypes):
                assert {w.shape for w in work} == {(block.stop - block.start, m)}
                if block.start == 0:
                    pair_bytes = sum(w.dtype.itemsize for w in work)
                    size = "one" if block.stop == 1 else "whole" if block.stop == rows else "some"
                    sizes.setdefault((function.__name__, pair_bytes), set()).add(size)
                yield block, work

        monkeypatch.setattr(signal_model, "_blocks", spied)
        monkeypatch.setattr(signal_model, "_BLOCK_BYTES", 32 * m * k)
        whole = bits(function)
        for budget in (1, 7 * 12 * m, 12 * m * k - 1, 2**21):
            monkeypatch.setattr(signal_model, "_BLOCK_BYTES", budget)
            assert bits(function) == whole, (function.__name__, budget)
    # Each stage, the float32 tier's included, ran one row a block, all its
    # rows in one block, and blocks of sizes between.
    assert sizes == {
        (function, pair_bytes): {"one", "some", "whole"}
        for function, pair_bytes in [
            ("_mimo_informs", 12), ("_mimo_informs", 32),
            ("mimo_tier32", 12), ("mimo_tier64", 32),
            ("received_phasor", 32), ("snr_received_energy", 16),
        ]
    }


def test_screen_edge_receivers():
    one = SenderSet.build([[0.0, 0.0]])
    for tier in TIERS:
        # |z|^2 = 1 at distance 1.
        lower, upper = tier(one, np.array([[1.0, 0.0]]), PARAMS)
        assert lower[0] < 1.0 < upper[0]
        # No senders: z = 0 exactly.
        lower, upper = tier(SenderSet.build(np.empty((0, 2))), np.ones((2, 2)), PARAMS)
        assert lower.tolist() == upper.tolist() == [0.0, 0.0]
    # At lam = 1e-4, a receiver at distance 1 has phases of 6.3e4 rad: past
    # the float32 tier's limit, within the float64 tier's.  At distance 100,
    # 6.3e6 rad, past both, the bounds decide nothing and the kernel does.
    params = SignalParams(lam=1e-4)
    q = np.array([[100.0, 0.0], [1.0, 0.0]])
    lower, upper = mimo_tier32(one, q, params)
    assert lower.tolist() == [0.0, 0.0] and upper.tolist() == [np.inf, np.inf]
    lower, upper = mimo_tier64(one, q, params)
    assert (lower[0], upper[0]) == (0.0, np.inf)
    assert lower[1] < 1.0 < upper[1]
    level = np.abs(received_phasor(one, q, params)) ** 2
    for beta in (1e-5, 1e-4, 1.0):
        hit = informs("mimo", one, q, replace(params, beta_N0=beta))[0]
        assert hit.tolist() == (level >= beta).tolist()
    # Amplitudes below 2^-40 could underflow in float32: the float32 tier
    # takes no row, and the float64 tier bounds them.
    tiny = SenderSet.build([[0.0, 0.0]], amplitudes=[1e-20])
    lower, upper = mimo_tier32(tiny, q[1:], PARAMS)
    assert (lower[0], upper[0]) == (0.0, np.inf)
    lower, upper = mimo_tier64(tiny, q[1:], PARAMS)
    assert lower[0] < 1e-40 < upper[0] < 1e-38


def _worst_trig_error(t: np.ndarray) -> float:
    """The worst |(cos t, sin t) - e^{it}| of numpy's float32 routines over
    the float32 arguments +-t, against float64 of the same arguments."""
    t = np.concatenate([t, -t])
    t64 = t.astype(np.float64)
    cos_error = np.abs(np.cos(t).astype(np.float64) - np.cos(t64))
    sin_error = np.abs(np.sin(t).astype(np.float64) - np.sin(t64))
    return float(np.hypot(cos_error, sin_error).max())


def test_float32_trig_within_the_screen_guard_band():
    # numpy's float32 sin and cos against float64 on a fixed dense sample of
    # [-pi, pi]: every 512th float32, a uniform grid, and every float32
    # within 2^12 ulps of 0, +-pi/2 and +-pi.  The worst error of the pair,
    # |(cos, sin) - e^{it}|, must stay below 1/8 of the term the screen's
    # bound assumes for it.
    top = int(np.float32(np.pi).view(np.int32))
    strided = np.arange(0, top, 512, dtype=np.int32).view(np.float32)
    grid = np.linspace(-np.pi, np.pi, 2**21).astype(np.float32)
    near = [
        (np.float32(c).view(np.int32) + np.arange(-2**12, 2**12 + 1, dtype=np.int32)).view(np.float32)
        for c in (np.pi / 2, np.pi)
    ]
    tiny = np.arange(0, 2**12 + 1, dtype=np.int32).view(np.float32)
    worst = _worst_trig_error(np.concatenate([strided, grid, *near, tiny]))
    assert 0.0 < worst <= signal_model._TRIG_ERROR / 8


def test_float32_trig_within_the_tier_guard_band():
    # The float32 tier takes cos and sin of unreduced phases, below 2^12 in
    # magnitude (see _TIER_PHASE_LIMIT), whose range reduction is not the
    # one on [-pi, pi].  A fixed dense sample of [-2^12, 2^12]: every 509th
    # float32, a uniform grid, and every float32 within 2^8 ulps of each
    # multiple of pi/2.  Same check as above: below 1/8 of _TRIG_ERROR.
    top = int(np.float32(2.0**12).view(np.int32))
    strided = np.arange(0, top + 1, 509, dtype=np.int32).view(np.float32)
    grid = np.linspace(0.0, 2.0**12, 2**21).astype(np.float32)
    quarter = (np.arange(1, 2608) * (np.pi / 2)).astype(np.float32).view(np.int32)
    near = (quarter[:, None] + np.arange(-2**8, 2**8 + 1, dtype=np.int32)).view(np.float32)
    t = np.concatenate([strided, grid, near.ravel()])
    worst = _worst_trig_error(t[t <= 2.0**12])
    assert 0.0 < worst <= signal_model._TRIG_ERROR / 8
