import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

from coopcast import broadcast, experiments, signal_model
from coopcast.bounds import miso_upper_schedule
from coopcast.broadcast import (
    BootstrapFailure,
    BroadcastConfig,
    RoundLog,
    RoundRecord,
    run_expanding_disk,
    run_miso_broadcast,
    run_udg_flood,
)
from coopcast.experiments import ExperimentConfig
from coopcast.nodefield import NodeField, sample_field
from coopcast.signal_model import (
    MODELS,
    SenderSet,
    SignalParams,
    center_sync_phases,
    received_phasor,
    snr_received_energy,
)

PARAMS = SignalParams()


def _miso(fld, c1, c2):
    """A MISO broadcast's config on ``fld`` at lam = 0.1: the schedule at the
    field's own density and radius."""
    radii = miso_upper_schedule(fld.n / (math.pi * fld.R**2), 0.1, c1, c2, fld.R).radii
    return BroadcastConfig("mimo", tuple(radii), SignalParams(lam=0.1))


def _receive(fld, active, candidates, config):
    """One SNR or MIMO round's reception from the nodes ``active``, with the
    senders the round engine builds: the candidates informed and the pairs
    evaluated.  Such a round measures no hop."""
    senders = broadcast._senders(fld, active, config)
    hit, hop, pairs = broadcast.informs(
        config.model, senders, fld.positions[candidates], config.params
    )
    assert hop is None
    return candidates[hit], pairs


def _bfs_layers(positions):
    """Reference BFS on the unit-disk graph, via adjacency from a kd-tree."""
    tree = cKDTree(positions)
    pairs = tree.query_pairs(r=1.0)
    adj = [[] for _ in positions]
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    dist = {0: 0}
    frontier = [0]
    layers = []
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        if nxt:
            layers.append(sorted(nxt))
        frontier = nxt
    return layers


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_udg_flood_matches_bfs(seed):
    fld = sample_field(600, 4.0, seed=seed)
    log = run_udg_flood(fld)
    layers = _bfs_layers(fld.positions)
    assert log.total_rounds == len(layers)
    for rec, layer in zip(log.rounds, layers):
        assert rec.newly_informed.tolist() == layer
    reachable = 1 + sum(len(lay) for lay in layers)
    assert log.fully_informed == (reachable == fld.n)


def test_udg_flood_determinism():
    fld = sample_field(400, 3.0, seed=5)
    a = run_udg_flood(fld)
    b = run_udg_flood(fld)
    assert a.to_json() == b.to_json()


def test_udg_flood_restricted():
    fld = sample_field(800, 5.0, seed=1)
    log = run_udg_flood(fld, restrict_radius=2.0)
    informed = [i for rec in log.rounds for i in rec.newly_informed]
    assert informed and np.all(fld.radii[informed] <= 2.0)


def test_informed_set_monotone_and_rounds_connected():
    fld = sample_field(500, 4.0, seed=3)
    log = run_udg_flood(fld)
    seen = {0}
    for rec in log.rounds:
        newly = set(rec.newly_informed)
        assert not (newly & seen)
        seen |= newly
        assert rec.senders_active >= 1


def test_udg_flood_long_chain_has_no_round_cap():
    positions = np.column_stack([0.9 * np.arange(300), np.zeros(300)])
    log = run_udg_flood(NodeField(positions=positions, R=270.0))
    assert log.total_rounds == 299
    assert log.fully_informed
    assert log.propagation_time == pytest.approx(299 * 0.9)


def test_udg_reception_includes_distance_one():
    positions = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    log = run_udg_flood(NodeField(positions=positions, R=2.0))
    assert [rec.newly_informed.tolist() for rec in log.rounds] == [[1], [2]]
    assert log.fully_informed
    assert log.propagation_time == 2.0


def test_udg_reach_filter_keeps_a_node_at_distance_one_past_the_farthest_sender():
    # Round 2 sends from radii 0.5 and 1; node 3 lies on the farthest
    # sender's ray at distance exactly 1 from it, on the reach bound itself,
    # and node 4 at distance exactly 1 from the nearer sender.
    positions = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, -1.0], [0.0, -2.0], [1.5, 0.0]])
    log = run_udg_flood(NodeField(positions=positions, R=2.0))
    assert [rec.newly_informed.tolist() for rec in log.rounds] == [[1, 2], [3, 4]]
    assert [rec.receivers for rec in log.rounds] == [2, 2]
    assert log.fully_informed and log.propagation_time == 2.0


def _unfiltered_udg_flood(fld, eligible):
    """A UDG flood whose every round queries every uninformed eligible node:
    the rounds' ``newly_informed`` lists and frontier radii, and the
    propagation time summed in round order."""
    radii = fld.radii
    informed = np.zeros(fld.n, dtype=bool)
    informed[0] = True
    newly, rounds, time = np.array([0]), [], 0.0
    while True:
        candidates = np.flatnonzero(eligible & ~informed)
        if candidates.size == 0:
            break
        tree = cKDTree(fld.positions[newly])
        bound = np.nextafter(1.0, 2.0)
        d_min, _ = tree.query(fld.positions[candidates], distance_upper_bound=bound)
        heard = d_min <= 1.0
        newly = candidates[heard]
        if newly.size == 0:
            break
        informed[newly] = True
        rounds.append((newly.tolist(), float(radii[informed].max())))
        time += float(d_min[heard].max())
    return rounds, time


@pytest.mark.parametrize(
    "n, seed, restrict",
    [(1024, 0, None), (1024, 1, None), (4096, 2, None), (16384, 3, None), (4096, 4, 5.0)],
)
def test_udg_reach_filter_matches_unfiltered_flood(n, seed, restrict):
    # Criterion 05's density, rho = (32/pi) ln n; the last case is a flood
    # restricted to a disk, as the MISO bootstrap runs it.
    fld = sample_field(n, np.sqrt(n / (32.0 * np.log(n))), seed=seed)
    eligible = np.ones(fld.n, dtype=bool) if restrict is None else fld.radii <= restrict
    eligible[0] = True
    log = run_udg_flood(fld, restrict_radius=restrict)
    rounds, time = _unfiltered_udg_flood(fld, eligible)
    assert [(rec.newly_informed.tolist(), rec.frontier_radius) for rec in log.rounds] == rounds
    assert log.propagation_time == time
    uninformed, dropped = int(np.count_nonzero(eligible)) - 1, 0
    for rec in log.rounds:
        assert rec.receivers <= uninformed
        dropped += uninformed - rec.receivers
        uninformed -= len(rec.newly_informed)
    assert dropped > 0  # the filter is on


# A round's m unit-amplitude senders, the farthest at radius P, inform no
# node farther from the origin than P + 1 under UDG; P + sqrt(m / beta N0)
# under SNR, whose level at distance d from the nearest sender is at most
# m / d^2; and P + m / sqrt(beta N0) under MIMO, whose |z| is at most m / d.
_REACH_EXCESS = {
    "udg": lambda m, beta_N0: 1.0,
    "snr": lambda m, beta_N0: math.sqrt(m / beta_N0),
    "mimo": lambda m, beta_N0: m / math.sqrt(beta_N0),
}

# Relative margin on the allowed excess.  A decided level sums m <= 65536
# terms, each within a few u = 2^-53 of its value, so it lies within
# (m + 8) u < 7.3e-12 of the exact level (relative); a MIMO phase of up to
# 2 pi R / lam < 1900 rad adds under 1e-12 of m / d.  The radii are within
# 1 ulp each, under 2 u R < 4e-15 for R < 19, and every allowed excess is
# at least 1 here (m >= 1, beta N0 = 1).  2^-30 = 9.3e-10 is over a
# hundred times their sum.
_REACH_MARGIN = 2.0**-30

# The benchmark's simulate sweeps: a flood at the UDG sweep's density,
# (32/pi) ln n, and its largest n; SNR at n = 65536 and rho = 64 on two
# fields; and MISO on criterion 08's five fields with c1 = 12, c2 = 0.02.
_SWEEPS = {
    "udg": ExperimentConfig(("udg",), (65536,), density=32.0 / math.pi,
                            density_rule="log", seeds=(0,)),
    "snr": ExperimentConfig(("snr",), (65536,), density=64.0, seeds=(0, 1)),
    "mimo": ExperimentConfig(("mimo",), (10_000,), density=10_000 / (900.0 * math.pi),
                             seeds=(0, 1, 2, 3, 4), c1=12.0, c2=0.02),
}


@pytest.mark.parametrize("model", MODELS)
def test_every_round_informs_within_its_senders_reach(model):
    cfg = _SWEEPS[model]
    (n,) = cfg.node_counts
    closest = {}  # round model -> largest share of the allowed excess reached

    def check(record, round_model, senders):
        pos = senders.positions
        P = np.hypot(pos[:, 0], pos[:, 1]).max()
        allowed = _REACH_EXCESS[round_model](senders.m, cfg.params.beta_N0)
        excess = fld.radii[record.newly_informed].max(initial=-np.inf) - P
        assert excess <= allowed * (1.0 + _REACH_MARGIN), (record.round_index, excess, allowed)
        closest[round_model] = max(closest.get(round_model, -np.inf), excess / allowed)

    for seed in cfg.seeds:
        fld = sample_field(n, cfg.radius_for(n), seed)
        experiments._run_single(cfg, model, fld, on_round=check)
    # Every model's rounds ran, the bootstrap's UDG rounds too under MISO,
    # and came near their bound: to 0.9998 of it under UDG and SNR, and to
    # 0.29 under MIMO.
    assert set(closest) == ({"udg", "mimo"} if model == "mimo" else {model})
    assert min(closest.values()) > 0.25


def test_informs_takes_the_three_model_names_only():
    senders = SenderSet.build([[0.0, 0.0]])
    for model in ("UDG", "MIMO", "SIMO"):
        with pytest.raises(ValueError, match="unknown model"):
            broadcast.informs(model, senders, [(1.0, 0.0)], PARAMS)
    hit, hop, pairs = broadcast.informs("udg", senders, [(1.0, 0.0), (1.5, 0.0)], PARAMS)
    assert hit.tolist() == [True, False] and hop == 1.0 and pairs == 0


def test_expanding_disk_requires_schedule():
    fld = sample_field(50, 2.0, seed=7)
    with pytest.raises(ValueError):
        run_expanding_disk(fld, BroadcastConfig(model="snr", params=PARAMS))
    with pytest.raises(ValueError):
        BroadcastConfig(model="snr", radius_schedule=(2.0, 1.0))
    # A NaN radius compares false both ways: not increasing, and rejected.
    for radii in [(float("nan"),), (1.0, float("nan")), (float("nan"), 1.0)]:
        with pytest.raises(ValueError, match="NaN"):
            BroadcastConfig(model="mimo", radius_schedule=radii)


def test_miso_broadcast_takes_a_mimo_schedule():
    # The driver's bootstrap disk is the schedule's first radius: it needs
    # one, and it runs MIMO rounds only.
    fld = sample_field(50, 2.0, seed=7)
    for config in (BroadcastConfig(model="mimo"), BroadcastConfig("snr", (1.0, 2.0))):
        with pytest.raises(ValueError, match="MIMO config with a radius schedule"):
            run_miso_broadcast(fld, config)


def test_only_udg_floods():
    # A UDG config takes no schedule; an SNR or MIMO config without one runs
    # no round, where a flood would inform this dense field.
    with pytest.raises(ValueError):
        BroadcastConfig(model="udg", radius_schedule=(1.0, 2.0))
    with pytest.raises(TypeError):
        BroadcastConfig()
    fld = sample_field(300, 2.0, seed=7)
    assert run_udg_flood(fld).fully_informed
    for model in ("snr", "mimo"):
        config = BroadcastConfig(model=model, params=PARAMS)
        log = broadcast._run_rounds(fld, config, broadcast._origin_informed(fld))
        assert log.rounds == [] and log.total_rounds == 0
        assert log.schedule_exhausted and not log.fully_informed


def test_expanding_disk_senders_restricted():
    fld = sample_field(2000, 5.0, seed=7)
    cfg = BroadcastConfig(
        model="snr",
        radius_schedule=(1.0, 2.0, 4.0, 8.0),
        params=PARAMS,
    )
    log = run_expanding_disk(fld, cfg)
    assert log.fully_informed
    counts = [r.senders_active for r in log.rounds]
    for rec in log.rounds:
        assert rec.senders_active <= np.count_nonzero(fld.radii <= rec.disk_radius_r_j)
    assert counts == sorted(counts)


def test_destructive_interference_beats_pair():
    # Regression: under coherent reception, adding a sender can lose a
    # receiver that the smaller set reaches, even with center-synchronized
    # phases.  With lam = 0.1, round 1 (r_1 = 1) informs the relay at
    # (0.3, -0.6) but not the receiver at (1.05, 0) (|z|^2 = 1/1.05^2 < 1).
    # In round 2 (r_2 = 1.5) the center and the relay give the receiver
    # |z|^2 = 2.75; a spoiler at (0.3, -0.5), also informed in round 1, pulls
    # it down to 0.54.
    config = BroadcastConfig(model="mimo", radius_schedule=(1.0, 1.5), params=PARAMS)
    base = np.array([[0.0, 0.0], [0.3, -0.6], [1.05, 0.0]])
    lone = run_expanding_disk(NodeField(positions=base, R=2.0), config)
    assert [rec.newly_informed.tolist() for rec in lone.rounds] == [[1], [2]]
    spoiled = np.vstack([base, [0.3, -0.5]])
    both = run_expanding_disk(NodeField(positions=spoiled, R=2.0), config)
    assert [rec.newly_informed.tolist() for rec in both.rounds] == [[1, 3], []]
    assert not both.fully_informed


def test_round_log_json_round_trip():
    fld = sample_field(200, 2.0, seed=8)
    log = run_udg_flood(fld)
    doc = json.loads(log.to_json())
    assert list(doc) == [f.name for f in dataclasses.fields(RoundLog)]
    for rec, out in zip(log.rounds, doc["rounds"]):
        assert list(out) == [f.name for f in dataclasses.fields(RoundRecord)]
        assert out["newly_informed"] == sorted(rec.newly_informed)
    assert doc["total_rounds"] == log.total_rounds
    assert doc["fully_informed"] == log.fully_informed
    assert len(doc["rounds"]) == log.total_rounds


def test_newly_informed_is_read_only():
    log = run_udg_flood(sample_field(300, 2.0, seed=3))
    assert log.total_rounds > 1
    for rec in log.rounds:
        assert rec.newly_informed.dtype == np.intp
        with pytest.raises(ValueError, match="read-only"):
            rec.newly_informed[:1] = -1


def _json_oracle(log: RoundLog) -> str:
    """The round log as ``json.dumps`` encodes it whole with ``indent=2``."""
    doc = dataclasses.asdict(log)
    for rec in doc["rounds"]:
        rec["newly_informed"] = sorted(np.asarray(rec["newly_informed"]).tolist())
    return json.dumps(doc, indent=2)


def test_round_log_json_matches_json_dumps(monkeypatch):
    fld = sample_field(2000, 10.0, seed=1)
    udg = run_udg_flood(sample_field(1000, 3.0, seed=4))
    # Round 1 sends from the origin alone and informs the nodes within 1;
    # round 2 sends from the same origin and informs nobody.
    config = BroadcastConfig(model="snr", radius_schedule=(1e-9, 2e-9, 1.0, 16.0))
    snr = run_expanding_disk(fld, config)
    miso = run_miso_broadcast(fld, _miso(fld, c1=12.0, c2=0.02))
    assert [] in [rec.newly_informed.tolist() for rec in snr.rounds]
    assert miso.phase1_rounds > 0 and miso.phase2_rounds > 0
    # newly_informed is sorted on output, whatever order a record holds.
    shuffled = RoundLog(rounds=[dataclasses.replace(udg.rounds[0], newly_informed=[5, -1, 3])])
    for log in (udg, snr, miso, shuffled, RoundLog()):
        assert log.to_json() == _json_oracle(log)
    # Lists longer than a slice join their slices with the same separator.
    assert max(len(rec.newly_informed) for rec in snr.rounds) > 7
    monkeypatch.setattr(broadcast, "_JSON_SLICE", 7)
    for log in (udg, snr, miso, shuffled):
        assert log.to_json() == _json_oracle(log)


def test_miso_bootstrap_failure():
    # A sparse wide field cannot flood its bootstrap disk hop by hop.
    rng = np.random.Generator(np.random.Philox(21))
    pos = np.vstack([[0.0, 0.0], rng.uniform(5.0, 8.0, size=(5, 2))])
    fld = NodeField(positions=pos, R=12.0)
    # c2 = 0.1 puts the whole field inside the bootstrap disk (radius 15),
    # and every node sits more than one hop from the origin.
    with pytest.raises(BootstrapFailure):
        run_miso_broadcast(fld, _miso(fld, c1=1.0, c2=0.1))


def test_miso_full_run_round_counts():
    fld = sample_field(4000, 12.0, seed=1)
    log = run_miso_broadcast(fld, _miso(fld, c1=12.0, c2=0.02))
    assert log.fully_informed
    assert log.phase1_rounds + log.phase2_rounds == log.total_rounds
    mimo_rounds = [r for r in log.rounds if r.disk_radius_r_j is not None]
    assert len(mimo_rounds) == log.phase2_rounds
    sched = [r.disk_radius_r_j for r in mimo_rounds]
    assert sched == sorted(sched)


def test_miso_covered_by_bootstrap():
    # When the bootstrap disk already covers the field there is no MIMO phase.
    fld = sample_field(500, 2.0, seed=2)
    log = run_miso_broadcast(fld, _miso(fld, c1=1.0, c2=1.0))
    assert log.fully_informed and not log.schedule_exhausted
    assert log.phase2_rounds == 0 and log.total_rounds == log.phase1_rounds > 0


def test_reception_memory_bounded_by_pair_budget(monkeypatch):
    # 600 center-synchronized MIMO senders, 3000 receivers: one unchunked
    # screen call would hold 1.8M pairs (about 60 MB).  Chunked by the byte
    # budget, which the screen and the kernel read in signal_model, the peak
    # stays near one block's work arrays, and the informed set does not
    # change.
    fld = sample_field(3600, 6.0, seed=3)
    config = BroadcastConfig(model="mimo", params=PARAMS)
    active, candidates = np.arange(600), np.arange(600, 3600)
    monkeypatch.setattr(signal_model, "_BLOCK_BYTES", 32 * active.size * candidates.size)
    whole = _receive(fld, active, candidates, config)
    budget = 2**21
    monkeypatch.setattr(signal_model, "_BLOCK_BYTES", budget)
    tracemalloc.start()
    try:
        newly, pairs = _receive(fld, active, candidates, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * budget + 2**20
    assert newly.tolist() == whole[0].tolist()
    assert pairs == whole[1] == active.size * candidates.size


@pytest.mark.parametrize("model", MODELS, ids=str.upper)
def test_nearest_sender_queries_only_what_a_round_needs(monkeypatch, model):
    # Under SNR and MIMO the screens and kernels decide without distances,
    # and a round's travel is its radius: no round queries or builds a
    # kd-tree.  Under UDG the distance decides: one kd-tree a round sees the
    # candidates in reach in every round, a last one that informs nobody
    # included.
    fld = sample_field(2000, 5.0, seed=7)
    seen, trees = [], []

    def spied(senders, q):
        seen.append(np.array(q))
        return signal_model.nearest_sender_within_one(senders, q)

    def tree(points, *args, **kwargs):
        trees.append(len(points))
        return cKDTree(points, *args, **kwargs)

    monkeypatch.setattr(broadcast, "nearest_sender_within_one", spied)
    monkeypatch.setattr(signal_model, "cKDTree", tree)
    if model == "udg":
        fld = sample_field(150, 5.0, seed=7)  # sparse: the flood stalls
        log = run_udg_flood(fld)
        assert not log.fully_informed
    else:
        config = BroadcastConfig(model=model, radius_schedule=(0.5, 1, 2, 4, 8), params=PARAMS)
        log = run_expanding_disk(fld, config)
        assert log.total_rounds > 1 and any(len(r.newly_informed) for r in log.rounds)
    monkeypatch.undo()
    expected = []
    if model == "udg":
        radii, informed = fld.radii, np.zeros(fld.n, dtype=bool)
        informed[0], senders = True, np.array([0])
        for nodes in [*(rec.newly_informed for rec in log.rounds), None]:
            if informed.all():
                break
            reach = (radii[senders].max() + 1.0) * (1.0 + broadcast._UDG_REACH_TOL)
            expected.append(np.flatnonzero(~informed & (radii <= reach)))
            if nodes is not None:
                informed[nodes], senders = True, nodes
        # One kd-tree a query, over the round's senders.
        assert trees[: log.total_rounds] == [rec.senders_active for rec in log.rounds]
    assert len(seen) == len(expected) == len(trees)
    for q, nodes in zip(seen, expected):
        assert np.array_equal(q, fld.positions[nodes])


def _kernel_receivers(monkeypatch) -> set[tuple[float, float]]:
    """Wrap the exact MIMO kernel where ``broadcast`` looks it up; the
    returned set collects the receiver positions of every call."""
    seen = set()

    def spied(senders, q, params):
        seen.update(map(tuple, np.asarray(q)))
        return received_phasor(senders, q, params)

    monkeypatch.setattr(broadcast, "received_phasor", spied)
    return seen


def _tier64_receivers(monkeypatch) -> list[tuple[float, float]]:
    """Wrap the float64 MIMO tier where ``broadcast`` looks it up, which
    ``informs`` calls on the rows the float32 tier leaves open; the returned
    list collects the receiver positions of every call."""
    seen = []
    tier = signal_model.mimo_tier64

    def spied(senders, q, params):
        seen.extend(map(tuple, q))
        return tier(senders, q, params)

    monkeypatch.setattr(broadcast, "mimo_tier64", spied)
    return seen


@pytest.mark.parametrize("seed", [0, 1])
def test_mimo_receive_informs_center_synced_reference(monkeypatch, seed):
    # MIMO senders transmit with center-synchronized phases: a round informs
    # exactly the candidates where those phases put |z|^2 at or above
    # beta N0.  Thresholds are the default 1 and three of the candidates'
    # own levels, so some levels sit exactly on the threshold.
    fld = sample_field(1500, 5.0, seed=seed)
    active = np.flatnonzero(fld.radii <= 1.0)
    candidates = np.flatnonzero(fld.radii > 1.0)
    pos = fld.positions[active]
    senders = SenderSet.build(pos, phases=center_sync_phases(pos, PARAMS.lam))
    level = np.abs(received_phasor(senders, fld.positions[candidates], PARAMS)) ** 2
    ordered = np.sort(level)
    thresholds = [1.0] + [float(ordered[int(q * (ordered.size - 1))]) for q in (0.1, 0.5, 0.9)]
    for beta in thresholds:
        config = BroadcastConfig(model="mimo", params=SignalParams(beta_N0=beta))
        kernel_rows = _kernel_receivers(monkeypatch)
        tier64_rows = _tier64_receivers(monkeypatch)
        newly, pairs = _receive(fld, active, candidates, config)
        monkeypatch.undo()
        assert newly.tolist() == candidates[level >= beta].tolist()
        assert pairs == active.size * candidates.size
        # The float32 tier leaves rows to the float64 tier, and the float64
        # tier leaves rows to the kernel; a level on the threshold reaches it.
        assert kernel_rows <= set(tier64_rows)
        if beta == 1.0:
            assert len(tier64_rows) < candidates.size
        on_threshold = {tuple(p) for p in fld.positions[candidates[level == beta]]}
        assert on_threshold <= kernel_rows


def _count_snr_pairs(monkeypatch) -> list[int]:
    """Wrap the SNR kernel where ``broadcast`` looks it up; the returned list
    collects the receiver x sender pairs of every call."""
    seen = []

    def counted(senders, q, params):
        seen.append(senders.m * len(q))
        return snr_received_energy(senders, q, params)

    monkeypatch.setattr(broadcast, "snr_received_energy", counted)
    return seen


def _reference_snr_receive(fld, active, candidates, params):
    """Every candidate through the SNR kernel in one call: the newly informed
    and every candidate's level."""
    senders = SenderSet.build(fld.positions[active])
    level = snr_received_energy(senders, fld.positions[candidates], params)
    return candidates[level >= params.beta_N0], level


def _assert_snr_receive_matches(monkeypatch, fld, active, candidates, params):
    config = BroadcastConfig(model="snr", params=params)
    seen = _count_snr_pairs(monkeypatch)
    newly, pairs = _receive(fld, active, candidates, config)
    monkeypatch.undo()
    ref_newly, _ = _reference_snr_receive(fld, active, candidates, params)
    assert newly.tolist() == ref_newly.tolist()
    assert pairs == sum(seen) <= active.size * candidates.size
    return pairs


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("lam", [0.02, 0.1, 0.5])
@pytest.mark.parametrize("sender_set", ["disk", "flood"])
def test_snr_bounds_decide_as_every_pair_kernel(monkeypatch, seed, lam, sender_set):
    # Informed: the nodes within radius 2 and a random tenth of the rest.
    # The disk sends from the informed nodes within radius 1, the flood from
    # every informed node.  Thresholds are the default 1 and three of the
    # candidates' own levels, so some levels sit exactly on the threshold.
    fld = sample_field(1500, 5.0, seed=seed)
    radii = fld.radii
    rng = np.random.Generator(np.random.Philox(seed))
    informed = (radii <= 2.0) | (rng.random(fld.n) < 0.1)
    informed[0] = True
    active = np.flatnonzero(informed & (radii <= (1.0 if sender_set == "disk" else np.inf)))
    candidates = np.flatnonzero(~informed)
    level = _reference_snr_receive(fld, active, candidates, SignalParams(lam=lam))[1]
    ordered = np.sort(level)
    thresholds = [1.0] + [float(ordered[int(q * (ordered.size - 1))]) for q in (0.1, 0.5, 0.9)]
    for beta in thresholds:
        params = SignalParams(lam=lam, beta_N0=beta)
        pairs = _assert_snr_receive_matches(monkeypatch, fld, active, candidates, params)
        if beta == 1.0:
            # The bounds decide most candidates: the filter is on.
            assert pairs < active.size * candidates.size


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_snr_bounds_inside_the_near_field_clamp(monkeypatch, seed):
    # Every node lies within 0.3 of the origin and c_f lam = 1, so every
    # distance is clamped and each level is exactly m, the number of senders.
    fld = sample_field(60, 0.3, seed=seed)
    active, candidates = np.arange(20), np.arange(20, 60)
    for beta in (19.5, 20.0, 20.5, 60.0):
        params = SignalParams(lam=0.5, beta_N0=beta)
        _assert_snr_receive_matches(monkeypatch, fld, active, candidates, params)
    newly, _ = _receive(
        fld, active, candidates,
        BroadcastConfig(model="snr", params=SignalParams(lam=0.5, beta_N0=20.0))
    )
    assert newly.tolist() == candidates.tolist()


def test_snr_level_exactly_on_threshold_informs(monkeypatch):
    # One sender at distance exactly 1 with beta N0 = 1: the level is 1.0,
    # no bound can decide it, and the kernel's inclusive test informs.
    fld = NodeField(positions=np.array([[0.0, 0.0], [1.0, 0.0]]), R=1.0)
    seen = _count_snr_pairs(monkeypatch)
    config = BroadcastConfig(model="snr", radius_schedule=(1.0,), params=SignalParams(beta_N0=1.0))
    log = run_expanding_disk(fld, config)
    assert [rec.newly_informed.tolist() for rec in log.rounds] == [[1]]
    assert log.fully_informed and log.propagation_time == 1.0
    assert seen == [1] and log.rounds[0].pairs_evaluated == 1


@pytest.mark.parametrize("model, stage", [("mimo", "mimo_tier64"), ("snr", "snr_level_bounds")])
def test_a_nan_screen_bound_leaves_the_row_to_the_kernel(monkeypatch, model, stage):
    # A receiver 0.5 from a lone sender, beta N0 = 1: the kernel's level is
    # 4.  A screen that bounds it by (0, NaN) neither informs nor rejects
    # it, so the row goes on and the kernel informs it.  At lam = 1e-4 its
    # phases, 3.1e4 rad, are past the float32 tier's limit: the float64
    # tier is the MIMO row's last screen.
    params = SignalParams(lam=1e-4)
    senders = SenderSet.build([[0.0, 0.0]])
    q = np.array([[0.5, 0.0]])
    if model == "mimo":
        assert np.abs(received_phasor(senders, q, params)) ** 2 >= params.beta_N0
    else:
        assert snr_received_energy(senders, q, params) >= params.beta_N0
    assert signal_model.mimo_tier32(senders, q, params)[1].tolist() == [np.inf]

    def nan_bounds(senders, q, params):
        return np.zeros(len(q)), np.full(len(q), np.nan)

    monkeypatch.setattr(broadcast, stage, nan_bounds)
    informed, hop, pairs = broadcast.informs(model, senders, q, params)
    assert informed.tolist() == [True] and hop is None and pairs == 1


def test_round_telemetry_counts_receivers_and_kernel_pairs(monkeypatch):
    fld = sample_field(2000, 5.0, seed=7)
    seen = _count_snr_pairs(monkeypatch)
    cfg = BroadcastConfig(
        model="snr", radius_schedule=(1.0, 2.0, 4.0, 8.0),
        params=PARAMS,
    )
    snr = run_expanding_disk(fld, cfg)
    assert sum(rec.pairs_evaluated for rec in snr.rounds) == sum(seen)
    mimo = run_expanding_disk(
        fld, BroadcastConfig(model="mimo", radius_schedule=(1, 2, 4, 8), params=PARAMS)
    )
    udg = run_udg_flood(fld)
    radii = fld.radii
    for log in (snr, mimo, udg):
        uninformed = fld.n - 1
        informed, newly = np.zeros(fld.n, dtype=bool), [0]
        informed[0] = True
        for rec, doc in zip(log.rounds, json.loads(log.to_json())["rounds"]):
            assert rec.receivers == doc["receivers"]
            assert rec.pairs_evaluated == doc["pairs_evaluated"]
            if log is udg:
                # The uninformed nodes within reach of the farthest sender,
                # which the previous round informed.
                reach = (radii[newly].max() + 1.0) * (1.0 + broadcast._UDG_REACH_TOL)
                assert rec.receivers == np.count_nonzero(~informed & (radii <= reach))
                assert rec.receivers <= uninformed
                assert rec.pairs_evaluated == 0
            elif log is mimo:
                assert rec.receivers == uninformed
                assert rec.pairs_evaluated == rec.senders_active * rec.receivers
            else:
                assert rec.receivers == uninformed
                assert rec.pairs_evaluated <= rec.senders_active * rec.receivers
            newly = rec.newly_informed
            informed[newly] = True
            uninformed -= len(newly)
    assert sum(rec.pairs_evaluated for rec in snr.rounds) < sum(
        rec.senders_active * rec.receivers for rec in snr.rounds
    )
