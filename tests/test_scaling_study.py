"""The scaling study script, run as a program on a small grid."""

import csv
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from coopcast.experiments import ExperimentConfig
from coopcast.signal_model import SignalParams

ROOT = Path(__file__).resolve().parent.parent


def _study(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "scaling_study.py"), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


def test_scaling_study_prints_a_fit_per_model(tmp_path):
    # 2^10 .. 2^13 nodes, one seed: 4 node counts x 3 models, 12 jobs.
    out = tmp_path / "scaling"
    proc = _study("--out", str(out), "--max-exp", "13", "--seeds", "1")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == f"wrote 12 logs and {out / 'summary.csv'}"
    assert lines[1].startswith("udg: loglog slope ")
    with open(out / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    assert {(r["model"], r["n"]) for r in rows} == {
        (model, str(2**k)) for model in ("udg", "snr", "mimo") for k in range(10, 14)
    }
    # The study's config, to check each line's schedule length against.
    cfg = ExperimentConfig(models=("snr", "mimo"), node_counts=(1024,),
                           density=32.0 / math.pi, density_rule="log",
                           params=SignalParams(lam=0.1), c1=12.0, c2=0.02)
    expected = []
    for model, key in (("snr", "rounds"), ("mimo", "phase2_rounds")):
        for k in range(10, 14):
            (row,) = [r for r in rows if (r["model"], r["n"]) == (model, str(2**k))]
            expected.append(
                f"{model} n={2**k}: rounds {row[key]}-{row[key]} of "
                f"{len(cfg.schedule(model, 2**k))} radii, {row['fully_informed']}/1 fully informed"
            )
    assert lines[2:] == expected


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--max-exp", "9"], "need at least one node count"),
        (["--seeds", "0"], "seeds must be nonempty and distinct"),
    ],
    ids=["max-exp-9", "seeds-0"],
)
def test_scaling_study_reports_a_bad_configuration_as_a_usage_error(tmp_path, flags, message):
    proc = _study("--out", str(tmp_path / "scaling"), *flags)
    assert proc.returncode == 2
    assert (proc.stdout, proc.stderr) == ("", f"error: {message}\n")
    assert not (tmp_path / "scaling").exists()
