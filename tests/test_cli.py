import csv
import json
import os
import stat
from dataclasses import replace

import numpy as np
import pytest

from coopcast import broadcast, cli, experiments, prover
from coopcast.broadcast import BootstrapFailure
from coopcast.cli import build_parser, main
from coopcast.experiments import ExperimentConfig, ExperimentResult
from coopcast.nodefield import sample_field
from coopcast.signal_model import SenderSet, SignalParams, snr_received_energy

FIELDMAP = ["fieldmap", "--model", "udg", "--n", "50"]
CALIBRATE = ["calibrate-c1"]


@pytest.fixture
def built_config(monkeypatch):
    """Runs a simulate, fieldmap or calibrate-c1 command with the broadcast
    stubbed out and returns the ExperimentConfig that the command built."""
    configs = []

    def fake_calibrate_c1(cfg):
        configs.append(cfg)
        return 1.0

    def fake_run_experiment(cfg):
        configs.append(cfg)
        return ExperimentResult([], [], "summary.csv")

    def fake_run_single(cfg, model, fld, on_round=None):
        configs.append(cfg)
        raise BootstrapFailure("stubbed")

    monkeypatch.setattr(cli, "run_experiment", fake_run_experiment)
    monkeypatch.setattr(cli, "calibrate_c1", fake_calibrate_c1)
    monkeypatch.setattr(experiments, "_run_single", fake_run_single)

    def run(argv):
        main(argv)
        (cfg,) = configs
        configs.clear()
        return cfg

    return run


def test_unset_settings_take_library_defaults(built_config):
    assert built_config(["simulate"]) == ExperimentConfig(models=("udg",), node_counts=(1024,))
    assert built_config(FIELDMAP) == ExperimentConfig(
        models=("udg",), node_counts=(50,), seeds=(0,)
    )
    assert built_config(CALIBRATE) == ExperimentConfig(
        models=("mimo",), node_counts=(4096,), seeds=tuple(range(50))
    )


# A flag, its value, and the ExperimentConfig field it sets to what value.
PHYSICAL_FLAGS = [
    ("--density", "20", "density", 20.0),
    ("--density-rule", "log", "density_rule", "log"),
    ("--lam", "0.2", "params", SignalParams(lam=0.2)),
    ("--beta-n0", "2", "params", SignalParams(beta_N0=2.0)),
    ("--c-f", "1.5", "params", SignalParams(c_f=1.5)),
    ("--c2", "0.5", "c2", 0.5),
]
RUN_FLAGS = [("--c1", "3", "c1", 3.0), ("--output-dir", "out", "output_dir", "out")]
CALIBRATE_FLAGS = [("--n", "1000", "node_counts", (1000,)), ("--seeds", "3", "seeds", (0, 1, 2))]


@pytest.mark.parametrize("command", [["simulate"], FIELDMAP, CALIBRATE])
def test_commands_share_every_config_flag(built_config, command):
    # Each flag sets its one field, whichever command takes it.
    default = built_config(command)
    own = CALIBRATE_FLAGS if command == CALIBRATE else RUN_FLAGS
    for flag, value, key, expected in PHYSICAL_FLAGS + own:
        assert getattr(default, key) != expected, flag
        assert built_config([*command, flag, value]) == replace(default, **{key: expected}), flag


def test_simulate_success(tmp_path, capsys):
    out = tmp_path / "runs"
    code = main(
        [
            "simulate",
            "--models", "udg",
            "--node-counts", "200,400",
            "--density", "32",
            "--seeds", "0,1",
            "--output-dir", str(out),
        ]
    )
    assert code == 0
    assert (out / "summary.csv").exists()
    assert (out / "udg_n200_seed0.json").exists()
    assert "round logs" in capsys.readouterr().out


def test_simulate_reports_failures(tmp_path, capsys):
    code = main(
        [
            "simulate",
            "--models", "mimo",
            "--node-counts", "50",
            "--density", "0.05",
            "--seeds", "0",
            "--output-dir", str(tmp_path / "runs"),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    # The FAILED line, then the job's traceback down to where it raised.
    failed, trace = err.split("\n", 1)
    assert failed.startswith("FAILED mimo n=50 seed=0: BootstrapFailure: ")
    assert trace.startswith("Traceback (most recent call last):\n")
    assert "in run_miso_broadcast" in trace
    assert trace.endswith(f"BootstrapFailure: {failed.split(': ', 2)[2]}\n")


def test_unset_output_dir_is_the_library_default(tmp_path, monkeypatch):
    # simulate and prove alike write to ExperimentConfig.output_dir.
    monkeypatch.chdir(tmp_path)
    out = tmp_path / ExperimentConfig.output_dir
    assert main(["simulate", "--node-counts", "200", "--density", "32", "--seeds", "0"]) == 0
    assert main(["prove", "--task", "term2_upper"]) == 0
    assert sorted(os.listdir(out)) == [
        "certificate_term2_upper.json", "summary.csv", "udg_n200_seed0.json"
    ]


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
def test_outputs_follow_the_process_umask(tmp_path, umask):
    # A round log, summary.csv and a certificate get mode 0666 less the
    # umask, as open() would give them, whatever thread wrote them.
    out = tmp_path / "out"
    old = os.umask(umask)
    try:
        assert main(["simulate", "--node-counts", "200", "--density", "32", "--seeds", "0",
                     "--output-dir", str(out)]) == 0
        assert main(["prove", "--task", "term2_upper", "--output-dir", str(out)]) == 0
    finally:
        os.umask(old)
    modes = {name: stat.S_IMODE(os.stat(out / name).st_mode) for name in os.listdir(out)}
    names = ["certificate_term2_upper.json", "summary.csv", "udg_n200_seed0.json"]
    assert modes == dict.fromkeys(names, 0o666 & ~umask)


def test_large_snr_runs_inform_every_node(tmp_path):
    # Every round reads its receivers from the field by index, one row block
    # at a time: both fields end fully informed, at n = 65536 and 262144.
    # Round 2 at n = 65536 decides its 65,338 waiting nodes in twelve row
    # blocks of at most 5,461 rows, and informs exactly those whose kernel
    # level from the informed nodes within its radius reaches beta N0.
    out = tmp_path / "runs"
    assert main(["simulate", "--models", "snr", "--node-counts", "65536,262144",
                 "--seeds", "0", "--output-dir", str(out)]) == 0
    with open(out / "summary.csv", newline="") as fh:
        rows = [(r["n"], r["fully_informed"], r["uninformed"]) for r in csv.DictReader(fh)]
    assert rows == [("65536", "1", "0"), ("262144", "1", "0")]
    with open(out / "snr_n65536_seed0.json") as fh:
        first, second = json.load(fh)["rounds"][:2]
    cfg = ExperimentConfig(models=("snr",), node_counts=(65536,))
    fld = sample_field(65536, cfg.radius_for(65536), 0)
    informed = np.zeros(fld.n, dtype=bool)
    informed[[0, *first["newly_informed"]]] = True
    radius = second["disk_radius_r_j"]
    senders = SenderSet.build(fld.positions[informed & (fld.radii <= radius)])
    waiting = np.flatnonzero(~informed)
    level = snr_received_energy(senders, fld.positions[waiting], cfg.params)
    assert len(waiting) == 65338
    assert second["newly_informed"] == waiting[level >= cfg.params.beta_N0].tolist()


@pytest.fixture
def pools(monkeypatch):
    """The ``ProcessPoolExecutor`` constructions of the command under test,
    with two usable CPUs whatever the host has."""
    import concurrent.futures

    made = []
    real = concurrent.futures.ProcessPoolExecutor

    def spy(*args, **kwargs):
        made.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return made


SUITE = [task.name for task in prover.inequality_suite()]


def test_prove_single_task(tmp_path, capsys, pools):
    code = main(
        ["prove", "--task", "term2_upper", "--output-dir", str(tmp_path)]
    )
    assert code == 0
    out, err = capsys.readouterr()
    assert "term2_upper: proved" in out
    assert err.startswith("term2_upper: ") and err.endswith(" s\n")
    cert = json.loads((tmp_path / "certificate_term2_upper.json").read_text())
    assert cert["verdict"] == "proved"
    assert pools == []  # a lone task runs in this process


def test_prove_suite_in_workers_writes_the_in_process_certificates(tmp_path, capsys, pools):
    assert main(["prove", "--suite", "--output-dir", str(tmp_path)]) == 0
    [(args, kwargs)] = pools
    assert args == (2,) and kwargs["mp_context"].get_start_method() == "fork"
    out, err = capsys.readouterr()
    assert [line.split(": ")[0] for line in out.splitlines()] == SUITE
    assert [line.split(": ")[0] for line in err.splitlines()] == SUITE
    for task in prover.inequality_suite():
        written = (tmp_path / f"certificate_{task.name}.json").read_text()
        assert written == prover.prove(task).certificate_json() + "\n"


def test_prove_suite_with_exhausted_tasks_writes_every_certificate(tmp_path, pools):
    assert main(["prove", "--suite", "--max-boxes", "1", "--output-dir", str(tmp_path)]) == 1
    assert pools
    verdicts = [
        json.loads((tmp_path / f"certificate_{name}.json").read_text())["verdict"]
        for name in SUITE
    ]
    assert "exhausted" in verdicts


_PROVE = prover.prove


def _prove_raising_at_fifth(task, **opts):
    """``prover.prove``, except that the suite's fifth task raises as a box
    too thin to split does.  Module level, so that a worker can unpickle it."""
    if task.name == SUITE[4]:
        raise prover.DomainError("box too thin to split")
    return _PROVE(task, **opts)


def test_prove_suite_stops_at_a_task_that_raises_in_a_worker(
    tmp_path, capsys, pools, monkeypatch
):
    monkeypatch.setattr(prover, "prove", _prove_raising_at_fifth)
    assert main(["prove", "--suite", "--max-boxes", "64", "--output-dir", str(tmp_path)]) == 2
    assert pools
    assert "error: box too thin to split" in capsys.readouterr().err
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(f"certificate_{name}.json" for name in SUITE[:4])


def test_prove_unknown_task(tmp_path, capsys):
    code = main(["prove", "--task", "nonsense", "--output-dir", str(tmp_path)])
    assert code == 2
    assert "unknown task" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-5"])
@pytest.mark.parametrize("which", [["--task", "area_scaled_lower"], ["--suite"]])
def test_a_box_budget_below_one_is_a_usage_error(tmp_path, capsys, which, budget):
    out = tmp_path / "out"
    assert main(["prove", *which, "--max-boxes", budget, "--output-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: a proof needs a budget of at least 1 box, got {budget}\n"
    assert not out.exists()


def test_fieldmap(tmp_path):
    out = tmp_path / "maps"
    code = main(
        [
            "fieldmap",
            "--model", "udg",
            "--n", "300",
            "--density", "32",
            "--grid", "8",
            "--output-dir", str(out),
        ]
    )
    assert code == 0
    names = os.listdir(out)
    assert names
    assert sorted(names) == sorted(f"round_{k}_udg.pgm" for k in range(1, len(names) + 1))


# Criterion 08's density and beamforming constants on a smaller field.
MISO_FIELDMAP = ["fieldmap", "--model", "mimo", "--density", "3.5368", "--lam", "0.1",
                 "--c1", "12", "--c2", "0.02", "--grid", "8"]


@pytest.fixture
def drawn(monkeypatch):
    """The (model, senders) of every field_map call that draws a round."""
    calls = []
    field_map = experiments.field_map

    def spy(senders, half_width, cells, params, model):
        calls.append((model, senders))
        return field_map(senders, half_width, cells, params, model)

    monkeypatch.setattr(experiments, "field_map", spy)
    return calls


def test_miso_fieldmap_draws_the_senders_the_kernel_received(tmp_path, monkeypatch, drawn):
    # Every MIMO candidate goes through the float32 tier, the first of the
    # screens that decide most of them without the exact kernel: spy on it.
    received = []  # the SenderSet of each round, once per round
    screen = broadcast.mimo_tier32

    def spy(senders, q, params):
        if not received or received[-1] is not senders:
            received.append(senders)
        return screen(senders, q, params)

    monkeypatch.setattr(broadcast, "mimo_tier32", spy)
    out = tmp_path / "maps"
    assert main([*MISO_FIELDMAP, "--n", "1000", "--seed", "0", "--output-dir", str(out)]) == 0
    models = [model for model, _ in drawn]
    bootstrap = models.count("udg")
    assert bootstrap > 0 and models == ["udg"] * bootstrap + ["mimo"] * len(received)
    for (_, senders), sent in zip(drawn[bootstrap:], received):
        np.testing.assert_array_equal(senders.positions, sent.positions)
        np.testing.assert_array_equal(senders.phases, sent.phases)
        assert np.any(sent.phases != 0.0)  # center-synchronized, not zero phase
    assert sorted(os.listdir(out)) == sorted(
        f"round_{k}_{model}.pgm" for k, model in enumerate(models, start=1)
    )


def test_fieldmap_of_a_failed_bootstrap_writes_no_maps(tmp_path, drawn, capsys):
    out = tmp_path / "maps"
    assert main([*MISO_FIELDMAP, "--n", "2000", "--seed", "3", "--output-dir", str(out)]) == 1
    assert "FAILED" in capsys.readouterr().err
    assert drawn and {model for model, _ in drawn} == {"udg"}  # bootstrap rounds ran
    assert not out.exists()


def test_calibrate_without_a_constant_fails_cleanly(capsys):
    # Criterion 08's density, lam and c2 at n = 400: field 2's bootstrap
    # fails, so no candidate informs all of fields 0-2.
    code = main(["calibrate-c1", "--density", "3.5368", "--lam", "0.1", "--c2", "0.02",
                 "--n", "400", "--seeds", "3"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "FAILED: no candidate constant met the target success rate\n"


def test_calibrate_says_when_the_largest_candidate_passes(capsys):
    # At rho = 64, lam = 0.1 and c2 = 0.01 even c1 = 2^5 informs every
    # field, so the search saturates and its result is only a lower bound.
    code = main(["calibrate-c1", "--density", "64", "--lam", "0.1", "--c2", "0.01",
                 "--n", "1024", "--seeds", "5"])
    assert code == 0
    assert capsys.readouterr().out == (
        "c1 = 32.0\n"
        "32.0 is the largest candidate: a lower bound, not the largest constant that works\n"
    )


def test_calibrate_with_senders_outside_the_field_names_the_remedy(capsys):
    # The defaults (n = 4096, density 64, lam = 0.1, c2 = 1) put the
    # bootstrap disk's radius 15 c2/lam = 150 outside the field radius
    # sqrt(4096 / (64 pi)) = 4.51.
    assert main(["calibrate-c1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: bootstrap radius 15 c2/lam = 150.0 reaches field radius 4.51351666838205; "
        "shrink it with a smaller --c2 or a larger --lam, "
        "or widen the field with a larger --n or a smaller --density\n"
    )


def test_calibrate_without_seeds_is_a_usage_error(capsys):
    assert main(["calibrate-c1", "--lam", "0.1", "--c2", "0.02", "--seeds", "0"]) == 2
    assert capsys.readouterr().err == "error: seeds must be nonempty and distinct\n"


@pytest.mark.parametrize(
    "argv", [["fieldmap", "--model", "udg", "--n", "1"], ["simulate", "--node-counts", "1"]]
)
def test_one_node_under_the_log_rule_is_a_usage_error(tmp_path, capsys, argv):
    # rho = density ln 1 = 0 leaves no field radius.
    out = tmp_path / "out"
    assert main([*argv, "--density-rule", "log", "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: node counts must be at least 2 under the log density rule, got 1\n"
    )
    assert not out.exists()


def test_nonpositive_near_field_cutoff_is_usage_error(tmp_path, capsys):
    code = main(["simulate", "--c-f", "0", "--output-dir", str(tmp_path / "out")])
    assert code == 2
    assert "c_f must be positive" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--models", "snr", "--lam", "nan"],
        ["--beta-n0", "nan"],
        ["--c-f", "inf"],
        ["--density", "nan"],
        ["--density", "inf"],
        ["--models", "mimo", "--c1", "nan"],
        ["--models", "mimo", "--c1", "-1"],
        ["--models", "mimo", "--c2", "inf"],
    ],
    ids=lambda flags: " ".join(flags[-2:]),
)
def test_nonfinite_or_nonpositive_setting_is_usage_error(tmp_path, capsys, flags):
    # NaN fails every comparison, so each setting is checked as "not x > 0"
    # and finite, before any job runs.
    out = tmp_path / "out"
    argv = ["simulate", "--node-counts", "64", "--seeds", "0", *flags, "--output-dir", str(out)]
    assert main(argv) == 2
    assert "must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv", [["simulate", "--seeds", "0,-1"], [*FIELDMAP, "--seed", "-1"]],
    ids=["simulate", "fieldmap"],
)
def test_a_negative_seed_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([*argv, "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err == "error: seeds must be nonnegative, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, error",
    [
        (["--models", "udg", "udg"], "models must be distinct, got ('udg', 'udg')"),
        (["--node-counts", "256,256"], "node counts must be distinct, got (256, 256)"),
    ],
    ids=["models", "node-counts"],
)
def test_a_repeated_model_or_node_count_is_a_usage_error(tmp_path, capsys, flags, error):
    # Each repeat would run one job again into the same round log.
    out = tmp_path / "out"
    argv = ["simulate", "--models", "udg", "--node-counts", "256", "--seeds", "0", *flags]
    assert main([*argv, "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_fewer_than_one_worker_is_a_usage_error(tmp_path, capsys, workers):
    out = tmp_path / "out"
    assert main(["simulate", "--workers", workers, "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err == f"error: workers must be at least 1, got {workers}\n"
    assert not out.exists()


def test_an_snr_job_at_rho_16_or_below_is_a_usage_error(tmp_path, capsys):
    # The SNR schedule grows only for rho > 16: the config rejects rho = 8
    # before any job runs, where each job used to fail with a traceback.
    out = tmp_path / "out"
    argv = ["simulate", "--models", "snr", "--node-counts", "64", "--density", "8",
            "--seeds", "0", "--output-dir", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: schedule expands only for rho > 16, got rho=8.0\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "density, radii", [("16.0001", 482_267), ("16.000001", 48_226_453)]
)
def test_an_snr_schedule_too_long_to_build_is_a_usage_error(tmp_path, capsys, density, radii):
    # Just above rho = 16 the schedule's step is nearly 1: the config names
    # the schedule's length, from its closed form, instead of building it.
    out = tmp_path / "out"
    argv = ["simulate", "--models", "snr", "--node-counts", "1024", "--density", density,
            "--seeds", "0", "--output-dir", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: the SNR schedule at rho={density} would have {radii} radii, more than 100000\n"
    )
    assert not out.exists()


def test_workers_default_to_the_usable_cpus(built_config, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert built_config(["simulate"]).workers == 3


@pytest.mark.parametrize("cells", ["0", "-1"])
def test_fieldmap_without_cells_is_a_usage_error(tmp_path, capsys, cells):
    out = tmp_path / "out"
    assert main([*FIELDMAP, "--grid", cells, "--output-dir", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: a map needs at least one cell per axis, got {cells}\n"
    )
    assert not out.exists()


def test_calibrate_with_a_nan_density_is_a_usage_error(capsys):
    assert main(["calibrate-c1", "--density", "nan", "--lam", "0.1", "--c2", "0.02"]) == 2
    assert capsys.readouterr().err == "error: density must be positive and finite, got nan\n"


def test_bad_flag_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["simulate", "--density-rule", "cubic"])
    assert exc.value.code == 2
