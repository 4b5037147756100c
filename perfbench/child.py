"""One pass of a workload in a fresh process, started by ``run.py``.

Modes:

* ``setup``: import coopcast and create the output directories, then stop.
* ``plain``: run the workload's ``coopcast.cli.main`` calls untraced.
* ``traced``: the same with spans recorded (``tracer.Tracer``), followed by
  the timed ``Interval`` loops and the kernel memory replay.
* ``count``: the same with ``Interval`` operations counted.

Every mode but ``setup`` then checks the outputs.  The record, written as
JSON to ``--record``, holds the ready and end times (``perf_counter_ns``,
comparable with the parent's), peak RSS and the checked ops.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--plan", required=True)
    parser.add_argument("--mode", required=True, choices=["setup", "plain", "traced", "count"])
    parser.add_argument("--out", required=True)
    parser.add_argument("--record", required=True)
    parser.add_argument("--tasks", help="comma-separated proof tasks to run one by one")
    args = parser.parse_args()

    import coopcast.cli as cli  # interpreter, numpy, scipy.spatial, prover tables
    import coopcast.intervals as intervals

    import checks
    import tracer as tracing
    import workloads

    with open(args.plan) as fh:
        plan = json.load(fh)
    tasks = args.tasks.split(",") if args.tasks else None
    sweeps = []
    for sweep in plan["sweeps"]:
        out_dir = os.path.join(args.out, sweep["name"])
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        sweeps.append((sweep, out_dir))

    tracer = counter = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracing.install_tracer(tracer)
    elif args.mode == "count":
        counter = tracing.IntervalCounter()
        counter.install()
    record = {"mode": args.mode, "coopcast": cli.__file__, "t_ready": time.perf_counter_ns()}
    if args.mode == "setup":
        return _write(args.record, record)

    clips = intervals.acos_clip_events
    record["exit_codes"], record["errors"] = [], []
    for sweep, out_dir in sweeps:
        for argv in workloads.cli_calls(sweep, out_dir, tasks):
            try:
                record["exit_codes"].append(cli.main(argv))
            except Exception:  # noqa: BLE001 - a crashing op is counted as failed
                record["errors"].append(traceback.format_exc(limit=4))
    record["t_end"] = time.perf_counter_ns()
    record["wall_s"] = (record["t_end"] - record["t_ready"]) * 1e-9
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["acos_clips"] = intervals.acos_clip_events - clips

    record["ops"] = []
    for sweep, out_dir in sweeps:
        try:
            record["ops"].extend(checks.check_sweep(sweep, out_dir, tasks))
        except Exception:  # noqa: BLE001 - an unreadable output fails the sweep
            why = traceback.format_exc(limit=2).strip().splitlines()[-1]
            record["ops"].extend(checks.failed_ops(sweep, f"check failed: {why}", tasks))

    if tracer is not None:
        record["spans"] = tracer.spans
        record["missing_wraps"] = tracer.missing
        record["interval_ns"] = tracing.interval_op_ns()
        record["kernel_peak_mb"] = tracing.kernel_peak_mb(tracer)
    if counter is not None:
        record["interval_ops"] = counter.ops
        record["libm_calls"] = counter.libm
    return _write(args.record, record)


def _write(path: str, record: dict) -> int:
    with open(path, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
