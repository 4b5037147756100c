import csv
import json
import math
import os
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coopcast import experiments
from coopcast.bounds import miso_upper_schedule, schedule_travel, snr_upper_schedule
from coopcast.broadcast import BootstrapFailure, run_miso_broadcast
from coopcast.experiments import (
    C1_CANDIDATES,
    CSV_HEADER,
    DENSITY_RULES,
    ExperimentConfig,
    ScalingFit,
    _run_single,
    atomic_write,
    calibrate_c1,
    emit_fieldmaps,
    fit_scaling,
    run_experiment,
)
from coopcast.nodefield import sample_field
from coopcast.signal_model import MODELS, SenderSet, SignalParams, field_map, to_pgm


def _small_config(tmp_path, **overrides):
    base = dict(
        models=("udg", "snr"),
        node_counts=(400, 800),
        density=32.0,
        seeds=(0, 1),
        output_dir=str(tmp_path / "runs"),
        workers=2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_run_experiment_rows_and_files(tmp_path):
    cfg = _small_config(tmp_path)
    result = run_experiment(cfg)
    assert not result.failures
    assert len(result.rows) == 2 * 2 * 2
    assert len(result.log_paths) == len(result.rows)
    with open(result.csv_path) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(result.rows)
    for path in result.log_paths:
        with open(path) as fh:
            log = json.load(fh)
        assert log["total_rounds"] >= 1
    with open(result.csv_path) as fh:
        table = list(csv.DictReader(fh))
    for line, row in zip(table, result.rows):
        # Only the MISO broadcast has phases: their columns stay empty here.
        assert line["phase1_rounds"] == line["phase2_rounds"] == ""
        assert line["schedule_exhausted"] == str(int(row["schedule_exhausted"]))


def test_summary_csv_phase_columns(tmp_path):
    # With c2 = 1 the bootstrap disk (radius 150) covers the field: phase 1
    # informs everyone and phase 2 runs no round.
    cfg = _small_config(tmp_path, models=("mimo",), node_counts=(400,), seeds=(0,))
    result = run_experiment(cfg)
    assert not result.failures
    with open(result.csv_path) as fh:
        (line,) = list(csv.DictReader(fh))
    assert line["phase1_rounds"] == line["rounds"] != ""
    assert line["phase2_rounds"] == "0"
    assert line["schedule_exhausted"] == "0"
    row = result.rows[0]
    assert (row["phase1_rounds"], row["phase2_rounds"]) == (row["rounds"], 0)


def _uninformed_rows(cfg):
    """The rows of a sweep's ``summary.csv``, each checked against its round
    log: ``uninformed`` is n - 1 less the nodes its rounds informed."""
    result = run_experiment(cfg)
    assert not result.failures
    with open(result.csv_path) as fh:
        table = list(csv.DictReader(fh))
    assert list(table[0])[-1] == "uninformed"
    for line, path in zip(table, result.log_paths):
        with open(path) as fh:
            log = json.load(fh)
        informed = sum(len(r["newly_informed"]) for r in log["rounds"])
        assert int(line["uninformed"]) == int(line["n"]) - 1 - informed
    return table


def test_summary_uninformed_counts_a_one_node_miss(tmp_path):
    # Criterion 08's constants: field 1002 ends with one node in an
    # interference null, field 1001 informs every node.  The last disk,
    # of radius 105.4, covers the field of radius 30, so the run stops
    # there: the schedule did not run out, and schedule_exhausted stays 0
    # beside the miss.
    cfg = _small_config(
        tmp_path, models=("mimo",), node_counts=(10_000,), density=10_000 / (900.0 * math.pi),
        seeds=(1001, 1002), params=SignalParams(lam=0.1, beta_N0=1.0), c1=12.0, c2=0.02,
    )
    assert cfg.radius_for(10_000) == 30.0
    assert cfg.schedule("mimo", 10_000)[-1] == pytest.approx(105.43, abs=0.01)
    lines = _uninformed_rows(cfg)
    columns = ("fully_informed", "schedule_exhausted", "uninformed")
    assert [tuple(line[c] for c in columns) for line in lines] == [
        ("1", "0", "0"),
        ("0", "0", "1"),
    ]


@pytest.mark.parametrize(
    "overrides",
    [
        # Sparse enough that some floods miss nodes cut off from the origin.
        dict(models=("udg",), density=3.0),
        # A threshold high enough that some expanding disks inform no one.
        dict(models=("snr",), density=16.5, params=SignalParams(beta_N0=16.0)),
    ],
    ids=["udg", "snr"],
)
def test_summary_uninformed_is_zero_exactly_when_fully_informed(tmp_path, overrides):
    lines = _uninformed_rows(_small_config(tmp_path, seeds=(0, 1, 2), **overrides))
    full = [line["fully_informed"] == "1" for line in lines]
    assert [line["uninformed"] == "0" for line in lines] == full
    assert any(full) and not all(full)


def test_run_experiment_deterministic(tmp_path):
    first = run_experiment(_small_config(tmp_path / "a"))
    second = run_experiment(_small_config(tmp_path / "b"))
    with open(first.csv_path) as fh:
        text_a = fh.read()
    with open(second.csv_path) as fh:
        text_b = fh.read()
    assert text_a == text_b


@st.composite
def _sweeps(draw):
    """Small sweep configs: rho > 16 at every n when SNR is drawn, which its
    schedule needs, a bootstrap disk of 0.05 to 1.5 times the smallest field
    radius, beta N0 from 1/4 to 4 and a near-field cutoff c_f lam of at most
    1."""
    models = tuple(draw(st.lists(st.sampled_from(MODELS), min_size=1, unique=True)))
    node_counts = tuple(draw(st.lists(st.integers(2, 400), min_size=1, max_size=2, unique=True)))
    rule = draw(st.sampled_from(DENSITY_RULES))
    least_rho = draw(st.floats(17.0, 200.0) if "snr" in models else st.floats(0.5, 200.0))
    density = least_rho / (math.log(min(node_counts)) if rule == "log" else 1.0)
    lam = 2.0 ** draw(st.floats(-6.0, -1.0))
    c_f = 2.0 ** draw(st.floats(-2.0, -math.log2(lam)))
    radius = math.sqrt(min(node_counts) / (math.pi * least_rho))
    return ExperimentConfig(
        models=models,
        node_counts=node_counts,
        density=density,
        density_rule=rule,
        seeds=tuple(draw(st.lists(st.integers(0, 2**16), min_size=1, max_size=2, unique=True))),
        params=SignalParams(lam=lam, beta_N0=2.0 ** draw(st.floats(-2.0, 2.0)), c_f=c_f),
        c1=2.0 ** draw(st.floats(-4.0, 5.0)),
        c2=draw(st.floats(0.05, 1.5)) * radius * lam / 15.0,
    )


def _outputs(directory) -> dict:
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


@settings(max_examples=60, deadline=None)
@given(_sweeps())
def test_sweep_summary_rows_match_their_logs(tmp_path_factory, cfg):
    first, second = tmp_path_factory.mktemp("sweep"), tmp_path_factory.mktemp("sweep")
    result = run_experiment(replace(cfg, output_dir=str(first), workers=1))
    run_experiment(replace(cfg, output_dir=str(second), workers=2))
    assert _outputs(first) == _outputs(second)
    for model, _, _, error, _ in result.failures:
        assert model == "mimo" and error.startswith("BootstrapFailure: ")
    with open(result.csv_path) as fh:
        table = list(csv.DictReader(fh))
    assert len(table) + len(result.failures) == len(cfg.models) * len(cfg.node_counts) * len(
        cfg.seeds
    )
    for line, path in zip(table, result.log_paths, strict=True):
        assert os.path.basename(path) == f"{line['model']}_n{line['n']}_seed{line['seed']}.json"
        with open(path) as fh:
            log = json.load(fh)
        assert int(line["rounds"]) == log["total_rounds"] == len(log["rounds"])
        assert line["fully_informed"] == str(int(log["fully_informed"]))
        assert line["schedule_exhausted"] == str(int(log["schedule_exhausted"]))
        for key in ("phase1_rounds", "phase2_rounds"):
            assert line[key] == ("" if log[key] is None else str(log[key]))
        # Each node is informed at most once, and the origin never by a round.
        informed = [node for r in log["rounds"] for node in r["newly_informed"]]
        assert len(set(informed)) == len(informed) and 0 not in informed
        assert int(line["uninformed"]) == int(line["n"]) - 1 - len(informed)
        assert log["fully_informed"] == (len(informed) == int(line["n"]) - 1)
        # A UDG round travels its farthest hop, at most 1; an SNR or MIMO
        # round, its disk radius.
        time = log["propagation_time"]
        assert float(line["propagation_time"]) == time
        radii = [r["disk_radius_r_j"] for r in log["rounds"] if r["disk_radius_r_j"] is not None]
        if line["model"] == "udg":
            assert not radii and time <= log["total_rounds"]
        # An expanding disk runs at most one round per radius of its schedule.
        if line["model"] == "snr":
            assert log["total_rounds"] <= len(cfg.schedule("snr", int(line["n"])))
            assert len(radii) == log["total_rounds"] and time == schedule_travel(radii)
        if line["model"] == "mimo":
            assert log["phase1_rounds"] + log["phase2_rounds"] == log["total_rounds"]
            assert log["phase2_rounds"] == len(radii)
            assert log["phase2_rounds"] <= len(cfg.schedule("mimo", int(line["n"])))
            # Each bootstrap hop is at most 1.
            travel, tol = sum(radii), 2.0**-40
            assert travel * (1.0 - tol) <= time <= (travel + log["phase1_rounds"]) * (1.0 + tol)


def test_run_experiment_records_failures_and_continues(tmp_path):
    # A tiny, sparse field cannot bootstrap the coherent schedule, so the
    # mimo runs fail while the udg runs still complete.
    cfg = _small_config(
        tmp_path,
        models=("udg", "mimo"),
        node_counts=(50,),
        density=0.05,
    )
    result = run_experiment(cfg)
    assert len(result.failures) == 2
    assert all(model == "mimo" for model, *_ in result.failures)
    # Each failure keeps its traceback, ending in the error it records.
    for *_, error, trace in result.failures:
        assert trace.startswith("Traceback") and trace.endswith(error.split(": ", 1)[1] + "\n")
    assert len(result.rows) == 2  # the udg runs


def _sweep_peak_bytes(output_dir, seeds: int) -> int:
    cfg = _small_config(
        output_dir, models=("udg",), node_counts=(8192,), density=32.0 / math.pi,
        density_rule="log", seeds=tuple(range(seeds)),
    )
    tracemalloc.start()
    try:
        result = run_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not result.failures and len(result.log_paths) == seeds
    return peak


def test_sweep_memory_does_not_grow_with_its_jobs(tmp_path):
    # Each worker writes its own round log and drops it, so a sweep holds the
    # logs of the two jobs running at once however many jobs it has.  The
    # 2-seed peak is the larger of two sweeps, since its two jobs overlap
    # more or less from run to run.  Over 100 trials the 8-seed peak was
    # 0.89-1.16 times that; a sweep that keeps every job's log, as lists,
    # until the end read 2.04-2.53 over 10.
    two = max(_sweep_peak_bytes(tmp_path / f"two{k}", 2) for k in range(2))
    assert _sweep_peak_bytes(tmp_path / "eight", 8) < 1.5 * two


def test_atomic_write_replaces_an_existing_file(tmp_path):
    path = tmp_path / "log.json"
    path.write_text("old contents, longer than the new ones")
    atomic_write(str(path), "new")
    assert path.read_text() == "new"
    atomic_write(str(path), iter(["written ", "in ", "pieces"]))
    assert path.read_text() == "written in pieces"
    assert os.listdir(tmp_path) == ["log.json"]


def test_atomic_write_leaves_no_temporary_file_when_the_rename_fails(tmp_path):
    # A directory at the path makes os.replace fail, for root as well.
    (tmp_path / "log.json").mkdir()
    with pytest.raises(OSError):
        atomic_write(str(tmp_path / "log.json"), "text")
    assert os.listdir(tmp_path) == ["log.json"]
    assert (tmp_path / "log.json").is_dir()


def test_run_experiment_aborts_when_a_round_log_cannot_be_written(tmp_path):
    cfg = _small_config(tmp_path, models=("udg",), node_counts=(400,))
    os.makedirs(cfg.output_dir)
    blocked = os.path.join(cfg.output_dir, "udg_n400_seed1.json")
    os.mkdir(blocked)
    # Raised, not recorded as the job's failure with the sweep going on.
    with pytest.raises(OSError, match=f"^writing round log {blocked}: "):
        run_experiment(cfg)
    assert sorted(os.listdir(cfg.output_dir)) == ["udg_n400_seed0.json", "udg_n400_seed1.json"]


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(models=("warp",), node_counts=(10,))
    with pytest.raises(ValueError):
        ExperimentConfig(models=("udg",), node_counts=())
    with pytest.raises(ValueError):
        ExperimentConfig(models=("udg",), node_counts=(10,), seeds=(1, 1))
    with pytest.raises(ValueError):
        ExperimentConfig(models=("udg",), node_counts=(10,), density_rule="cubic")
    with pytest.raises(ValueError, match="at least 1 under the fixed"):
        ExperimentConfig(models=("udg",), node_counts=(10, 0))
    ExperimentConfig(models=("udg",), node_counts=(1,))
    # rho = density ln 1 = 0: the log rule needs two nodes.
    with pytest.raises(ValueError, match="at least 2 under the log"):
        ExperimentConfig(models=("udg",), node_counts=(1,), density_rule="log")


def test_density_rules():
    fixed = ExperimentConfig(models=("udg",), node_counts=(100,), density=50.0)
    assert fixed.rho(100) == 50.0
    assert fixed.radius_for(100) == pytest.approx(math.sqrt(100 / (math.pi * 50.0)))
    log = ExperimentConfig(
        models=("udg",), node_counts=(100,), density=8.0, density_rule="log"
    )
    assert log.rho(100) == pytest.approx(8.0 * math.log(100))


def test_fit_scaling_power_law():
    pts = [(x, x**2) for x in (2.0, 4.0, 8.0, 16.0, 32.0)]
    fit = fit_scaling(pts)
    assert fit.slope == pytest.approx(2.0, abs=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_scaling_noisy():
    rng = np.random.Generator(np.random.Philox(11))
    xs = np.geomspace(10.0, 1e5, 40)
    ys = np.sqrt(xs) * np.exp(rng.normal(0.0, 0.02, xs.size))
    fit = fit_scaling(list(zip(xs, ys)))
    assert abs(fit.slope - 0.5) < 0.05
    assert fit.r_squared > 0.99


def test_fit_scaling_of_a_flat_series_has_no_r_squared():
    # ss_tot = 0: no variance to explain, so r^2 is undefined, not a perfect 1.
    fit = fit_scaling([(float(2**k), 2.0) for k in range(10, 14)])
    assert fit.slope == pytest.approx(0.0, abs=1e-12)
    assert math.isnan(fit.r_squared)


def test_fit_scaling_errors():
    with pytest.raises(ValueError):
        fit_scaling([(1.0, 1.0), (2.0, 2.0)])
    with pytest.raises(ValueError):
        fit_scaling([(2.0, y) for y in (1.0, 2.0, 3.0, 4.0)])


@pytest.mark.parametrize(
    "point", [(4.0, 0.0), (4.0, math.inf), (math.nan, 3.0)], ids=["zero-y", "inf-y", "nan-x"]
)
def test_fit_scaling_rejects_a_point_outside_the_transform_domain(point):
    points = [(2.0, 1.0), point, (8.0, 3.0), (16.0, 4.0)]
    message = f"a log-log fit needs finite x > 0 and y > 0, got the point {point}"
    with pytest.raises(ValueError, match=re.escape(message)):
        fit_scaling(points)


def test_scaling_fit_is_frozen():
    fit = ScalingFit(1.0, 1.0)
    with pytest.raises(AttributeError):
        fit.slope = 2.0


def test_emit_fieldmaps(tmp_path):
    # An SNR expanding disk: round j's map is the energy of its senders,
    # the nodes informed before round j that lie within r_j.
    cfg = ExperimentConfig(
        models=("snr",), node_counts=(300,), density=32.0, output_dir=str(tmp_path)
    )
    fld = sample_field(300, cfg.radius_for(300), seed=5)
    paths = emit_fieldmaps(cfg, "snr", fld, 16)
    log = _run_single(cfg, "snr", fld)
    assert log.total_rounds > 1
    assert [os.path.basename(p) for p in paths] == [
        f"round_{k}_snr.pgm" for k in range(1, log.total_rounds + 1)
    ]
    informed = np.zeros(fld.n, dtype=bool)
    informed[0] = True
    for rec, path in zip(log.rounds, paths):
        senders = SenderSet.build(fld.positions[informed & (fld.radii <= rec.disk_radius_r_j)])
        values = field_map(senders, 1.05 * fld.R, 16, cfg.params, "snr")
        with open(path) as fh:
            assert fh.read() == to_pgm(values, threshold=cfg.params.beta_N0)
        informed[rec.newly_informed] = True


#: Criterion 08's density (n = 10^4 nodes in a disk of radius 30) and
#: wavelength; the tests below run its c2 = 0.02 too.
C08_DENSITY = 10_000 / (900.0 * math.pi)
C08_PARAMS = SignalParams(lam=0.1)


def _c08_config(n, seeds, c2=0.02):
    """The "mimo" jobs of criterion 08's constants on n nodes."""
    return ExperimentConfig(
        models=("mimo",), node_counts=(n,), density=C08_DENSITY, seeds=seeds,
        params=C08_PARAMS, c2=c2,
    )


def _informed_share(tmp_path, c1, n, seeds):
    """The share of ``seeds`` whose ``simulate --models mimo`` job informs
    every node at criterion 08's constants; a failed job is a miss."""
    cfg = replace(_c08_config(n, seeds), c1=c1, output_dir=str(tmp_path))
    return sum(row["fully_informed"] for row in run_experiment(cfg).rows) / len(seeds)


def test_calibrate_c1_power_of_two_and_repeatable():
    cfg = _c08_config(1000, (0, 1, 2))
    c1 = calibrate_c1(cfg)
    assert c1 > 0 and math.frexp(c1)[0] == 0.5
    assert calibrate_c1(cfg) == c1
    # Every candidate meets a zero success rate: the largest one, 2^5, wins.
    assert calibrate_c1(cfg, success_rate=0.0) == C1_CANDIDATES[-1] == 32.0
    with pytest.raises(RuntimeError):
        calibrate_c1(cfg, success_rate=1.01)
    # With c2 = 1 the bootstrap disk, of radius 150, covers the field.
    with pytest.raises(ValueError, match="reaches field radius"):
        calibrate_c1(_c08_config(1000, (0,), c2=1.0))


def test_calibrate_c1_at_criterion_08_density_is_what_simulate_runs(tmp_path):
    # n = 4096 (R = 19.2): up to c1 = 4 the schedule never grows past the
    # bootstrap disk and no run informs every node; c1 = 8 informs all ten
    # fields, 16 six and 32 one.
    seeds = tuple(range(10))
    c1 = calibrate_c1(_c08_config(4096, seeds))
    assert c1 == 8.0
    assert _informed_share(tmp_path, c1, 4096, seeds) == 1.0


def test_calibrate_c1_counts_a_failed_bootstrap_as_a_miss(tmp_path):
    # n = 400 (R = 6): field 2's bootstrap disk is not connected; fields 0,
    # 1 and 3 are fully informed from c1 = 8 on.
    seeds = (0, 1, 2, 3)
    cfg = _c08_config(400, seeds)
    with pytest.raises(BootstrapFailure):
        _run_single(replace(cfg, c1=8.0), "mimo", sample_field(400, cfg.radius_for(400), 2))
    c1 = calibrate_c1(cfg, success_rate=0.75)
    assert c1 == 32.0
    assert _informed_share(tmp_path, c1, 400, seeds) == 0.75
    with pytest.raises(RuntimeError):
        calibrate_c1(cfg, success_rate=0.8)


def test_calibrate_c1_counts_the_fields_of_every_node_count():
    # Seeds 0-3 at n = 400 and at n = 1000: all eight fields but field 2 at
    # n = 400 are fully informed at c1 = 8, a share of 7/8.
    cfg = replace(_c08_config(400, (0, 1, 2, 3)), node_counts=(400, 1000))
    assert calibrate_c1(cfg, success_rate=0.875) == 8.0
    with pytest.raises(RuntimeError):
        calibrate_c1(cfg, success_rate=0.9)


def test_calibrate_c1_runs_each_distinct_schedule_once(monkeypatch):
    # c1 enters a MISO run only through its radius schedule, and at n = 400
    # most of the 20 candidates share one: each candidate's schedule is
    # computed once, 20 in all, each field runs each distinct schedule once,
    # and the result is the one pinned above.
    computed, runs, seed_of = [], [], {}
    schedule, sample = experiments.miso_upper_schedule, experiments.sample_field

    def counted_schedule(*args):
        computed.append(args)
        return schedule(*args)

    def sampled(n, R, seed):
        fld = sample(n, R, seed)
        seed_of[id(fld)] = seed
        return fld

    def counted(fld, config, on_round=None):
        runs.append((seed_of[id(fld)], config.radius_schedule))
        return run_miso_broadcast(fld, config, on_round)

    monkeypatch.setattr(experiments, "miso_upper_schedule", counted_schedule)
    monkeypatch.setattr(experiments, "sample_field", sampled)
    monkeypatch.setattr(experiments, "run_miso_broadcast", counted)
    seeds = (0, 1, 2, 3)
    cfg = _c08_config(400, seeds)
    c1 = calibrate_c1(cfg, success_rate=0.75)
    assert c1 == 32.0 and sorted({seed for seed, _ in runs}) == list(seeds)
    assert len(computed) == 20
    distinct = {replace(cfg, c1=cand).schedule("mimo", 400) for cand in C1_CANDIDATES}
    assert len(runs) == len(set(runs)) == len(distinct) * len(seeds) < 20 * len(seeds)


def test_config_schedule_is_the_bounds_schedule_at_rho_and_radius(tmp_path):
    cfg = _small_config(tmp_path, models=("snr", "mimo"), density=3.0, density_rule="log")
    n, rho, radius = 800, cfg.rho(800), cfg.radius_for(800)
    assert cfg.schedule("snr", n) == tuple(snr_upper_schedule(rho, radius).radii)
    lam, c1, c2 = cfg.params.lam, cfg.c1, cfg.c2
    assert cfg.schedule("mimo", n) == tuple(miso_upper_schedule(rho, lam, c1, c2, radius).radii)
    with pytest.raises(ValueError, match="no radius schedule"):
        cfg.schedule("udg", n)


def test_miso_job_runs_the_schedule_at_the_config_rho():
    # At density 64 and n = 16384 the field's own n / (pi R^2) is
    # 64.00000000000001, one ulp above rho(n), and the schedule's r_2 moves
    # in its last bit.  A MISO job runs the schedule at rho(n), the rho that
    # summary.csv prints.
    n = 16384
    cfg = ExperimentConfig(
        models=("mimo",), node_counts=(n,), density=64.0, params=C08_PARAMS, c1=12.0, c2=0.02
    )
    fld = sample_field(n, cfg.radius_for(n), 0)
    radii = miso_upper_schedule(cfg.rho(n), C08_PARAMS.lam, 12.0, 0.02, fld.R).radii
    rho = fld.n / (math.pi * fld.R**2)
    assert radii != miso_upper_schedule(rho, C08_PARAMS.lam, 12.0, 0.02, fld.R).radii
    log = _run_single(cfg, "mimo", fld)
    assert [r.disk_radius_r_j for r in log.rounds[log.phase1_rounds :]] == radii
    assert radii[1] == 84.13018483279352 and log.fully_informed
