"""A slow reference for the round engine.

The reference runs each driver's rounds with the engine's sender rules, but
decides every uninformed eligible node by the textbook kernel in one call
(by brute-force distance <= 1 under UDG), with no screen, no UDG reach
filter and no blocks.  A UDG round's travel is its farthest hop, from
brute-force ``np.sqrt(dx*dx + dy*dy)``, the bits of the kd-tree's
distances; an SNR or MIMO round's is its radius r_j.  The
drivers must agree with it on every round's newly informed nodes and
frontier, on the propagation time's bits, and on the log's flags and phase
counts; ``receivers`` and ``pairs_evaluated`` count the shortcuts' work and
differ by design.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopcast import signal_model
from coopcast.bounds import miso_upper_schedule
from coopcast.broadcast import (
    BootstrapFailure,
    BroadcastConfig,
    run_expanding_disk,
    run_miso_broadcast,
    run_udg_flood,
)
from coopcast.nodefield import sample_field
from coopcast.signal_model import SenderSet, SignalParams, center_sync_phases


def _distances(q, pos):
    """(k, m) distances as sqrt(dx*dx + dy*dy)."""
    dx = q[:, 0, None] - pos[:, 0]
    dy = q[:, 1, None] - pos[:, 1]
    return np.sqrt(dx * dx + dy * dy)


def _level(model, pos, q, params):
    """Each receiver's level by the textbook kernel, one (k, m) temporary per
    operation, from unit-amplitude senders at ``pos``; MIMO senders
    center-synchronize."""
    diff = q[:, None, :] - pos[None, :, :]
    dist = np.hypot(diff[..., 0], diff[..., 1])
    dclamp = np.maximum(dist, params.c_f * params.lam)
    amp = np.ones(len(pos))
    if model == "snr":
        return (amp**2 / dclamp**2).sum(axis=1)
    phases = SenderSet.build(pos, phases=center_sync_phases(pos, params.lam)).phases
    z = ((amp / dclamp) * np.exp(1j * (-2.0 * np.pi * dist / params.lam + phases))).sum(axis=1)
    return np.abs(z) ** 2


def _reference_rounds(fld, model, schedule, params, informed, eligible, levels=None):
    """The rounds of one engine run, as (newly informed, frontier radius,
    travel) triples, and whether the schedule ran out with nodes left.  Each
    SNR or MIMO round's candidate levels are appended to ``levels``."""
    radii, pos = fld.radii, fld.positions
    flood = model == "udg"
    newly = np.flatnonzero(informed)
    rounds = []
    for r_j in itertools.repeat(None) if flood else schedule:
        candidates = np.flatnonzero(eligible & ~informed)
        if candidates.size == 0:
            return rounds, False
        active = newly if flood else np.flatnonzero(informed & (radii <= r_j))
        if flood:
            dist = _distances(pos[candidates], pos[active])
            hit = dist.min(axis=1) <= 1.0
        else:
            level = _level(model, pos[active], pos[candidates], params)
            hit = level >= params.beta_N0
            if levels is not None:
                levels.append(level)
        newly = candidates[hit]
        if flood and newly.size == 0:
            return rounds, False
        informed[newly] = True
        travel = float(dist[hit].min(axis=1).max(initial=0.0)) if flood else r_j
        rounds.append((newly.tolist(), float(radii[informed].max()), travel))
        if not flood and r_j >= fld.R:
            return rounds, False
    return rounds, bool(np.any(eligible & ~informed))


def _origin(fld):
    informed = np.zeros(fld.n, dtype=bool)
    informed[0] = True
    return informed


def _reference_udg(fld, restrict_radius=None):
    eligible = np.ones(fld.n, dtype=bool)
    if restrict_radius is not None:
        eligible = fld.radii <= restrict_radius
        eligible[0] = True
    informed = _origin(fld)
    rounds, exhausted = _reference_rounds(fld, "udg", None, None, informed, eligible)
    return rounds, exhausted, bool(np.all(informed[eligible]))


def _reference_disk(fld, model, schedule, params, informed=None, levels=None):
    informed = _origin(fld) if informed is None else informed
    eligible = np.ones(fld.n, dtype=bool)
    rounds, exhausted = _reference_rounds(
        fld, model, schedule, params, informed, eligible, levels
    )
    return rounds, exhausted, bool(np.all(informed))


def _assert_log_matches(log, rounds, exhausted, fully, phases=(None, None)):
    assert [rec.newly_informed.tolist() for rec in log.rounds] == [r[0] for r in rounds]
    assert [rec.frontier_radius for rec in log.rounds] == [r[1] for r in rounds]
    assert log.propagation_time.hex() == sum((r[2] for r in rounds), 0.0).hex()
    assert log.total_rounds == len(rounds)
    assert (log.fully_informed, log.schedule_exhausted) == (fully, exhausted)
    assert (log.phase1_rounds, log.phase2_rounds) == phases


def _on_a_level(fld, model, schedule, params, pick, informed=None):
    """``params`` with beta N0 set to a candidate's level in a round of the
    reference run at ``params`` (``pick`` chooses which).  The first round's
    senders do not depend on beta N0, so a level of the first round lies
    exactly on the threshold of the run with the new beta N0; a later
    round's level lies among the levels that run sees."""
    levels = []
    _reference_disk(fld, model, schedule, params, informed, levels)
    levels = [level for level in levels if level.size]
    if not levels:
        return params
    level = levels[pick % len(levels)]
    beta = float(level[(pick // len(levels)) % level.size])
    return dataclasses.replace(params, beta_N0=beta) if beta > 0 else params


@st.composite
def _cases(draw):
    n = draw(st.integers(2, 160))
    R = draw(st.floats(0.5, 8.0))
    fld = sample_field(n, R, draw(st.integers(0, 2**16)))
    lam = 2.0 ** draw(st.floats(-6.0, 0.0))
    c_f = min(10.0 ** draw(st.floats(-2.0, 2.0)), 1.0 / lam)
    params = SignalParams(lam=lam, beta_N0=10.0 ** draw(st.floats(-2.0, 3.0)), c_f=c_f)
    block_bytes = draw(st.sampled_from([1, 4096, signal_model._BLOCK_BYTES]))
    return fld, params, block_bytes, draw(st.one_of(st.none(), st.integers(0, 10**6)))


def _run(block_bytes, driver, *args):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(signal_model, "_BLOCK_BYTES", block_bytes)
        return driver(*args)


@settings(max_examples=60, deadline=None)
@given(_cases(), st.one_of(st.none(), st.floats(0.2, 8.0)))
def test_udg_flood_matches_the_reference(case, restrict_radius):
    fld, _, block_bytes, _ = case
    log = _run(block_bytes, run_udg_flood, fld, restrict_radius)
    _assert_log_matches(log, *_reference_udg(fld, restrict_radius))


@settings(max_examples=120, deadline=None)
@given(
    _cases(),
    st.sampled_from(["snr", "mimo"]),
    st.lists(st.floats(0.0, 10.0), min_size=1, max_size=6, unique=True),
)
def test_expanding_disk_matches_the_reference(case, model, radii):
    fld, params, block_bytes, pick = case
    schedule = tuple(sorted(radii))
    if pick is not None:
        params = _on_a_level(fld, model, schedule, params, pick)
    config = BroadcastConfig(model=model, radius_schedule=schedule, params=params)
    log = _run(block_bytes, run_expanding_disk, fld, config)
    _assert_log_matches(log, *_reference_disk(fld, model, schedule, params))


@settings(max_examples=120, deadline=None)
@given(_cases(), st.floats(-2.0, 5.0), st.floats(0.05, 1.1))
def test_miso_broadcast_matches_the_reference(case, log2_c1, bootstrap):
    # The bootstrap disk's radius, 15 c2 / lam, is the share ``bootstrap``
    # of the field radius.
    fld, params, block_bytes, pick = case
    c1, c2 = 2.0**log2_c1, bootstrap * fld.R * params.lam / 15.0
    rho = fld.n / (math.pi * fld.R**2)
    schedule = tuple(miso_upper_schedule(rho, params.lam, c1, c2, fld.R).radii)
    bootstrapped = fld.radii <= schedule[0]
    bootstrapped[0] = True
    if pick is not None:
        params = _on_a_level(fld, "mimo", schedule, params, pick, bootstrapped.copy())
    config = BroadcastConfig(model="mimo", radius_schedule=schedule, params=params)
    phase1, _, covered = _reference_udg(fld, schedule[0])
    if not covered:
        with pytest.raises(BootstrapFailure):
            _run(block_bytes, run_miso_broadcast, fld, config)
        return
    log = _run(block_bytes, run_miso_broadcast, fld, config)
    informed = bootstrapped
    phase2, exhausted, fully = _reference_disk(fld, "mimo", schedule, params, informed)
    _assert_log_matches(
        log, phase1 + phase2, exhausted, fully, phases=(len(phase1), len(phase2))
    )
