"""The scaling study script, run as a program on a small grid."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_scaling_study_prints_a_fit_per_model(tmp_path):
    # 2^10 .. 2^13 nodes, one seed: 4 node counts x 3 models, 12 jobs.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = tmp_path / "scaling"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "scaling_study.py"),
         "--out", str(out), "--max-exp", "13", "--seeds", "1"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == f"wrote 12 logs and {out / 'summary.csv'}"
    fits = [line.split(" slope ")[0] for line in lines[1:]]
    assert fits == ["udg: loglog", "snr: semilog", "mimo: loglogx"]
    # Every SNR run on this grid takes 2 rounds: a flat series has no r^2.
    assert lines[2].endswith("(r^2 nan)")
    with open(out / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 12
    assert {(r["model"], r["n"]) for r in rows} == {
        (model, str(2**k)) for model in ("udg", "snr", "mimo") for k in range(10, 14)
    }
