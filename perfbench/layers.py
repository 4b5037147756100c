"""Per-layer metrics, derived from the traced pass's spans, the count-only
pass and the output files' work counts.

Self time is a span's duration minus the union of the child spans it
covers, so pool threads that overlap are not counted twice.  Every ratio is
returned together with its base in ``bases``.
"""

from __future__ import annotations

from collections import defaultdict

from workloads import RATIO_TASK

#: name -> (unit, better); the same list as ``per_layer`` in BENCHMARK.json.
PER_LAYER = {
    "nodefield.sample_s": ("s", "lower"),
    "broadcast.rounds": ("count", "lower"),
    "broadcast.udg_flood_s": ("s", "lower"),
    "broadcast.udg_ms_per_round": ("ms", "lower"),
    "broadcast.self_s": ("s", "lower"),
    "signal_model.mimo_pairs": ("count", "lower"),
    "signal_model.snr_pairs": ("count", "lower"),
    "signal_model.mimo_s": ("s", "lower"),
    "signal_model.snr_s": ("s", "lower"),
    "signal_model.mimo_ns_per_pair": ("ns", "lower"),
    "signal_model.snr_ns_per_pair": ("ns", "lower"),
    "signal_model.receivers": ("count", "lower"),
    "signal_model.hit_ratio": ("ratio", "higher"),
    "signal_model.peak_mb": ("MB", "lower"),
    "experiments.jobs": ("count", "higher"),
    "experiments.jobs_failed": ("count", "lower"),
    "experiments.bytes_written": ("bytes", "lower"),
    "experiments.self_s": ("s", "lower"),
    "experiments.parallel_eff": ("ratio", "higher"),
    "intervals.ops": ("count", "lower"),
    "intervals.libm_calls": ("count", "lower"),
    "intervals.ops_per_box": ("ops/box", "lower"),
    "intervals.mul_ns": ("ns", "lower"),
    "intervals.add_ns": ("ns", "lower"),
    "intervals.sqrt_ns": ("ns", "lower"),
    "intervals.acos_ns": ("ns", "lower"),
    "intervals.acos_clips": ("count", "lower"),
    "prover.boxes": ("count", "lower"),
    "prover.max_depth": ("count", "lower"),
    "prover.us_per_box": ("us", "lower"),
    "prover.ratio_task_s": ("s", "lower"),
    "prover.other_tasks_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

_NS = 1e-9


def _dur(span) -> float:
    return (span["end"] - span["start"]) * _NS


def _layer(span) -> str:
    return span["name"].split(".", 1)[0]


def union_seconds(intervals, lo=None, hi=None) -> float:
    """Length of the union of ``[start, end]`` ns intervals, clipped to
    ``[lo, hi]`` when given."""
    total, cur_lo, cur_hi = 0, None, None
    for start, end in sorted(intervals):
        if lo is not None:
            start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total * _NS


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def derive(plan: dict, traced: dict, counts: list[dict], ref: dict | None):
    """Return ``(metrics, bases)``: metric name -> value, and the numerator
    and denominator of every ratio."""
    spans = traced.get("spans", [])
    ops = traced["ops"]
    named = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        named[s["name"]].append(s)
        if s["parent"] is not None:
            children[s["parent"]].append(s)
    by_id = {s["id"]: s for s in spans}

    def total(name):
        return sum(_dur(s) for s in named[name])

    def descendants(span):
        out, todo = [], list(children[span["id"]])
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(children[s["id"]])
        return out

    m, bases = {}, {}
    m["nodefield.sample_s"] = total("nodefield.sample_field")

    udg_s = total("broadcast.run_udg_flood")
    udg_rounds = sum(s.get("rounds", 0) for s in named["broadcast.run_udg_flood"])
    m["broadcast.rounds"] = sum(op.get("rounds", 0) for op in ops)
    m["broadcast.udg_flood_s"] = udg_s
    m["broadcast.udg_ms_per_round"] = 1e3 * _ratio(udg_s, udg_rounds)
    bases["broadcast.udg_ms_per_round"] = {"udg_flood_s": udg_s, "udg_rounds": udg_rounds}
    self_s = 0.0
    for s in spans:
        parent = by_id.get(s["parent"])
        if _layer(s) == "broadcast" and (parent is None or _layer(parent) != "broadcast"):
            other = [(d["start"], d["end"]) for d in descendants(s) if _layer(d) != "broadcast"]
            self_s += _dur(s) - union_seconds(other, s["start"], s["end"])
    m["broadcast.self_s"] = self_s

    work = defaultdict(int)
    for op in ops:
        for key in ("pairs", "receivers", "informed"):
            work[(op.get("model"), key)] += op.get(key, 0)
    for model, kernel, short in (("mimo", "received_phasor", "mimo"),
                                 ("snr", "snr_received_energy", "snr")):
        seconds = total(f"signal_model.{kernel}")
        pairs = work[(model, "pairs")]
        m[f"signal_model.{short}_pairs"] = pairs
        m[f"signal_model.{short}_s"] = seconds
        m[f"signal_model.{short}_ns_per_pair"] = 1e9 * _ratio(seconds, pairs)
        bases[f"signal_model.{short}_ns_per_pair"] = {
            "seconds": seconds, "pairs": pairs,
            "kernel_pairs_seen": sum(s.get("pairs", 0) for s in named[f"signal_model.{kernel}"]),
        }
    receivers = work[("mimo", "receivers")] + work[("snr", "receivers")]
    informed = work[("mimo", "informed")] + work[("snr", "informed")]
    m["signal_model.receivers"] = receivers
    m["signal_model.hit_ratio"] = _ratio(informed, receivers)
    bases["signal_model.hit_ratio"] = {"newly_informed": informed, "receivers": receivers}
    peaks = traced.get("kernel_peak_mb", {})
    m["signal_model.peak_mb"] = max(peaks.values(), default=0.0)
    bases["signal_model.peak_mb"] = peaks

    m["experiments.jobs"] = len(ops)
    m["experiments.jobs_failed"] = sum(not op["ok"] for op in ops)
    m["experiments.bytes_written"] = sum(op["bytes"] for op in ops)
    jobs = defaultdict(lambda: [None, None])
    for s in spans:
        if s["job"] is not None and s["name"] != "prover.prove":
            span = jobs[s["job"]]
            span[0] = s["start"] if span[0] is None else min(span[0], s["start"])
            span[1] = s["end"] if span[1] is None else max(span[1], s["end"])
    exp_self = exp_span = job_sum = 0.0
    for run in named["experiments.run_experiment"]:
        inside = [tuple(j) for j in jobs.values() if run["start"] <= j[0] <= run["end"]]
        exp_span += _dur(run)
        exp_self += _dur(run) - union_seconds(inside, run["start"], run["end"])
        job_sum += sum((end - start) * _NS for start, end in inside)
    workers = plan["workers"]
    m["experiments.self_s"] = exp_self
    m["experiments.parallel_eff"] = _ratio(job_sum, workers * exp_span)
    bases["experiments.parallel_eff"] = {"job_span_sum_s": job_sum, "workers": workers,
                                         "run_experiment_s": exp_span}

    n_ops = sum(sum(c.get("interval_ops", {}).values()) for c in counts)
    n_libm = sum(sum(c.get("libm_calls", {}).values()) for c in counts)
    counted_boxes = sum(op.get("boxes", 0) for c in counts for op in c["ops"])
    m["intervals.ops"] = n_ops
    m["intervals.libm_calls"] = n_libm
    m["intervals.ops_per_box"] = _ratio(n_ops, counted_boxes)
    bases["intervals.ops_per_box"] = {"ops": n_ops, "boxes": counted_boxes}
    for op, ns in traced.get("interval_ns", {}).items():
        m[f"intervals.{op}_ns"] = ns
    m["intervals.acos_clips"] = traced.get("acos_clips", 0)

    boxes = sum(op.get("boxes", 0) for op in ops)
    proofs = named["prover.prove"]
    prove_s = sum(_dur(s) for s in proofs)
    m["prover.boxes"] = boxes
    m["prover.max_depth"] = max((op.get("depth", 0) for op in ops), default=0)
    m["prover.us_per_box"] = 1e6 * _ratio(prove_s, boxes)
    bases["prover.us_per_box"] = {"prove_s": prove_s, "boxes": boxes}
    m["prover.ratio_task_s"] = sum(_dur(s) for s in proofs if s.get("task") == RATIO_TASK)
    m["prover.other_tasks_s"] = prove_s - m["prover.ratio_task_s"]

    m["trace.overhead_s"] = traced["wall_s"] - ref["wall_s"] if ref else 0.0
    bases["trace.overhead_s"] = {"traced_wall_s": traced["wall_s"],
                                 "untraced_wall_s": ref["wall_s"] if ref else None}
    return m, bases


def per_task(traced: dict) -> dict:
    """Seconds, boxes and arccos clips of each proof task in the traced pass."""
    return {
        s["task"]: {"s": _dur(s), "boxes": s["boxes"], "acos_clips": s["acos_clips"]}
        for s in traced.get("spans", []) if s["name"] == "prover.prove" and "task" in s
    }
