"""Self-check of the benchmark: every declared metric is emitted with its
unit, the output checks can fail, and digests ignore fields added later.

Run with ``python -m pytest perfbench``.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_emits_every_declared_metric(workload, trace):
    proc = _run(["--workload", workload, "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_metric_tables_match_benchmark_json():
    import run

    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", layers.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK[key]} == table


def test_mimo_with_default_constants_fails_the_check(tmp_path):
    from coopcast.cli import main
    from coopcast.experiments import DEFAULT_C1

    # The CLI's defaults (c1 = DEFAULT_C1, c2 = 1) give a bootstrap disk
    # that covers the field, so phase 2 never beamforms.
    sweep = workloads._simulate("mimo", "mimo", (1024,), 64.0, "fixed", [0],
                                ("--c1", repr(DEFAULT_C1), "--c2", "1.0"))
    assert main([*sweep["argv"], "--output-dir", str(tmp_path)]) == 0
    [op] = checks.check_sweep(sweep, str(tmp_path))
    assert not op["ok"]
    assert "phase2_rounds = 0" in op["why"]


def test_missing_output_fails_the_check(tmp_path):
    sweep = workloads.make_plan("prove_suite", 0, smoke=True)["sweeps"][0]
    ops = checks.check_sweep(sweep, str(tmp_path))
    assert [op["ok"] for op in ops] == [False] * len(sweep["tasks"])


def test_digests_ignore_added_fields_only():
    log = {"rounds": [{"round_index": 1, "newly_informed": [3, 2], "frontier_radius": 1.5,
                       "senders_active": 1, "disk_radius_r_j": None}],
           "total_rounds": 1, "fully_informed": True, "propagation_time": 0.75}
    base = checks.round_log_digest(log)
    log["rounds"][0]["pairs_evaluated"] = 9
    log["round_cap_hit"] = False
    assert checks.round_log_digest(log) == base
    log["rounds"][0]["newly_informed"] = [2, 4]
    assert checks.round_log_digest(log) != base
    cert = {"task": "t", "verdict": "proved", "boxes_processed": 7, "max_depth_reached": 3,
            "rounding": "nextafter"}
    first = checks.certificate_digest(cert)
    cert["rounding"] = "other"
    assert checks.certificate_digest(cert) == first


def test_self_time_counts_overlapping_children_once():
    assert layers.union_seconds([(0, 4), (2, 6), (8, 9)]) == pytest.approx(7e-9)
    assert layers.union_seconds([(0, 4), (2, 6)], 3, 5) == pytest.approx(2e-9)


def test_bare_directory_exits_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "results", "__pycache__"))
    proc = _run(["--workload", "simulate", "--seed", "0", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
