import json
import os

import pytest

from coopcast.cli import OUTPUT_DIR_ENV, build_parser, main


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
    assert "FAILED" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "models": ["udg"],
                "node_counts": [200],
                "density": 32,
                "seeds": [7],
                "output_dir": str(tmp_path / "from_config"),
            }
        )
    )
    out = tmp_path / "from_flag"
    code = main(["simulate", "--config", str(cfg), "--output-dir", str(out)])
    assert code == 0
    assert (out / "udg_n200_seed7.json").exists()
    assert not (tmp_path / "from_config").exists()


def test_output_dir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "envdir"))
    code = main(
        ["simulate", "--models", "udg", "--node-counts", "200",
         "--density", "32", "--seeds", "0"]
    )
    assert code == 0
    assert (tmp_path / "envdir" / "summary.csv").exists()


def test_prove_single_task(tmp_path, capsys):
    code = main(
        ["prove", "--task", "term2_upper", "--output-dir", str(tmp_path)]
    )
    assert code == 0
    assert "term2_upper: proved" in capsys.readouterr().out
    cert = json.loads((tmp_path / "certificate_term2_upper.json").read_text())
    assert cert["verdict"] == "proved"


def test_prove_unknown_task(tmp_path, capsys):
    code = main(["prove", "--task", "nonsense", "--output-dir", str(tmp_path)])
    assert code == 2
    assert "unknown task" in capsys.readouterr().err


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


def test_fit(tmp_path, capsys):
    csv = tmp_path / "points.csv"
    csv.write_text("x,y\n2,4\n4,16\n8,64\n16,256\n")
    code = main(["fit", str(csv), "--transform", "loglog"])
    assert code == 0
    assert "slope=2.0" in capsys.readouterr().out


def test_fit_missing_file_is_usage_error(tmp_path, capsys):
    code = main(["fit", str(tmp_path / "absent.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bad_flag_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["simulate", "--density-rule", "cubic"])
    assert exc.value.code == 2
