"""Output checks and digests.

Every op (one simulation job or one proof task) is checked against its
output file.  Each op's digest hashes a canonical projection of the fields
its output has today, so fields a later version adds do not change it.  The
same files give the work counts (rounds, sender-receiver pairs) that the
per-layer metrics need, measured from outside the program.
"""

from __future__ import annotations

import hashlib
import json
import os


def _sha256(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def round_log_digest(log: dict) -> str:
    rounds = [
        [r["round_index"], sorted(r["newly_informed"]), r["frontier_radius"],
         r["senders_active"], r["disk_radius_r_j"]]
        for r in log["rounds"]
    ]
    return _sha256({
        "rounds": rounds,
        "total_rounds": log["total_rounds"],
        "fully_informed": log["fully_informed"],
        "propagation_time": log["propagation_time"],
    })


def certificate_digest(cert: dict) -> str:
    return _sha256({k: cert[k] for k in ("task", "verdict", "boxes_processed", "max_depth_reached")})


def reception_work(log: dict, n: int) -> dict:
    """Pairs and receivers of the rounds with a disk radius: each such round
    evaluates every active sender against every node uninformed before it."""
    uninformed = n - 1
    pairs = receivers = informed = 0
    for r in log["rounds"]:
        newly = len(r["newly_informed"])
        if r["disk_radius_r_j"] is not None:
            pairs += r["senders_active"] * uninformed
            receivers += uninformed
            informed += newly
        uninformed -= newly
    return {"pairs": pairs, "receivers": receivers, "informed": informed}


def _job_problem(job: dict, log: dict) -> str:
    """Why a finished job's round log is wrong, or '' when it passes."""
    if not log["fully_informed"]:
        return "not fully informed"
    model, rounds = job["model"], log["total_rounds"]
    if model == "udg" and rounds > 4.0 * job["R"]:
        return f"{rounds} rounds > 4R = {4.0 * job['R']:.1f} (criterion 05)"
    if model == "snr":
        from coopcast.bounds import snr_upper_schedule

        limit = len(snr_upper_schedule(job["rho"], job["R"]).radii) + 1
        if rounds > limit:
            return f"{rounds} rounds > schedule length + 1 = {limit} (criterion 06)"
    if model == "mimo":
        phase2 = log.get("phase2_rounds")
        if phase2 is None or not 1 <= phase2 <= 6:
            return f"phase2_rounds = {phase2}, not in [1, 6]: no beamforming (criterion 08)"
    return ""


def _file_size(path: str) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def op_labels(sweep: dict, tasks=None) -> list[str]:
    if sweep["kind"] == "prove":
        return [f"prove {t}" for t in (sweep["tasks"] if tasks is None else tasks)]
    return [f"{j['model']} n={j['n']} seed={j['seed']}" for j in sweep["jobs"]]


def failed_ops(sweep: dict, why: str, tasks=None) -> list[dict]:
    """Every op of a sweep, marked failed, for when its outputs cannot be checked."""
    return [{"op": label, "ok": False, "why": why, "digest": None, "bytes": 0}
            for label in op_labels(sweep, tasks)]


def check_simulate(sweep: dict, out_dir: str) -> list[dict]:
    ops = []
    csv_path = os.path.join(out_dir, "summary.csv")
    csv_rows = -1
    if os.path.exists(csv_path):
        with open(csv_path) as fh:
            csv_rows = sum(1 for line in fh if line.strip()) - 1
    for job, label in zip(sweep["jobs"], op_labels(sweep)):
        model, n = job["model"], job["n"]
        path = os.path.join(out_dir, f"{model}_n{n}_seed{job['seed']}.json")
        op = {"op": label, "model": model, "ok": False, "why": "", "digest": None,
              "bytes": _file_size(path)}
        if not os.path.exists(path):
            op["why"] = "no round log: the job failed"
        else:
            with open(path) as fh:
                log = json.load(fh)
            op["digest"] = round_log_digest(log)
            op["rounds"] = log["total_rounds"]
            op.update(reception_work(log, n))
            op["why"] = _job_problem(job, log)
            if not op["why"] and csv_rows != len(sweep["jobs"]):
                op["why"] = f"summary.csv has {csv_rows} rows, expected {len(sweep['jobs'])}"
            op["ok"] = not op["why"]
        ops.append(op)
    if ops:
        ops[-1]["bytes"] += _file_size(csv_path)
    return ops


def check_prove(sweep: dict, out_dir: str, tasks=None) -> list[dict]:
    ops = []
    tasks = sweep["tasks"] if tasks is None else tasks
    for task, label in zip(tasks, op_labels(sweep, tasks)):
        path = os.path.join(out_dir, f"certificate_{task}.json")
        op = {"op": label, "ok": False, "why": "", "digest": None, "bytes": _file_size(path)}
        if not os.path.exists(path):
            op["why"] = "no certificate"
        else:
            with open(path) as fh:
                cert = json.load(fh)
            op["digest"] = certificate_digest(cert)
            op["boxes"] = cert["boxes_processed"]
            op["depth"] = cert["max_depth_reached"]
            if cert["task"] != task:
                op["why"] = f"certificate names task {cert['task']!r}"
            elif cert["verdict"] != "proved":
                op["why"] = f"verdict {cert['verdict']!r}"
            op["ok"] = not op["why"]
        ops.append(op)
    return ops


def check_sweep(sweep: dict, out_dir: str, tasks=None) -> list[dict]:
    if sweep["kind"] == "prove":
        return check_prove(sweep, out_dir, tasks)
    return check_simulate(sweep, out_dir)
