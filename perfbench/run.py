"""The coopcast benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload simulate --seed 0 --seconds 30 --trace 0

Workloads (``workloads.py``): ``simulate`` (UDG flooding, MISO beamforming
and expanding-disk SNR sweeps) and ``prove_suite`` (``coopcast prove
--suite``).  Each pass of a workload runs in a fresh process (``child.py``)
that calls ``coopcast.cli.main`` with ``--workers 2`` against the sources
under ``src/``, then checks every output.

``--trace 0`` times passes for ``--seconds`` seconds, and at least the
workload's minimum number of passes (two for ``prove_suite``, whose passes
outlast ``--seconds``), after a few set-up-only processes, and reports the
end-to-end metrics as medians:

* ``wall_s``: from the first call into ``coopcast.cli.main`` until the last
  call returns, its outputs written;
* ``setup_s``: from process start until that first call (interpreter,
  ``import coopcast``, the prover's tables, the output directories);
* ``peak_rss_mb``: ``ru_maxrss`` of the pass's process.

``--trace 1`` runs one traced pass, for ``prove_suite`` a count-only pass
(two processes, split by task), and one untraced pass as the reference for
the tracing overhead, and reports the per-layer metrics of ``layers.py``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed / attempted`` is the
failure fraction (an op is one simulation job or proof task; it fails when
it raises or its output check fails).  A fuller record, with the machine,
a calibration loop's time, every sample, ratio bases and output digests,
goes to ``perfbench/results/``.  ``--smoke`` runs tiny inputs for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: A run must end within 180 s; no pass starts that could end after this.
RUN_LIMIT_S = 170.0
SETUP_PROBES = 4

#: name -> (unit, better); the same list as ``end_to_end`` in BENCHMARK.json.
END_TO_END = {"wall_s": ("s", "lower"), "setup_s": ("s", "lower"), "peak_rss_mb": ("MB", "lower")}


class ChildFailed(RuntimeError):
    pass


class PassTimeout(ChildFailed):
    pass


def _now() -> float:
    return time.perf_counter()


def calibration_ms() -> float:
    """Median time of a fixed pure-Python loop: host speed, reported next to
    the metrics and never used to rescale them."""
    samples = []
    for _ in range(3):
        start = time.perf_counter_ns()
        acc = 0
        for i in range(500_000):
            acc += i * i
        samples.append((time.perf_counter_ns() - start) / 1e6)
    return statistics.median(samples)


def machine_record() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "coopcast")):
        dirnames.sort()
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            source.update(os.path.relpath(path, SRC).encode())
            with open(path, "rb") as fh:
                source.update(fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
    }


class Runner:
    """Starts ``child.py`` passes and collects their records."""

    def __init__(self, plan_path: str, run_dir: str, deadline: float):
        self.plan_path = plan_path
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (SRC, HERE, os.environ.get("PYTHONPATH")) if p
        )

    def _start(self, mode: str, tag: str, tasks=None):
        record = os.path.join(self.run_dir, f"{tag}.json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--plan", self.plan_path,
               "--mode", mode, "--out", os.path.join(self.run_dir, tag), "--record", record]
        if tasks:
            cmd += ["--tasks", ",".join(tasks)]
        with open(os.path.join(self.run_dir, f"{tag}.stderr"), "w") as err:
            t_spawn = time.perf_counter_ns()
            proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL,
                                    stderr=err)
        return proc, t_spawn, record, tag

    def _finish(self, started) -> dict:
        proc, t_spawn, record_path, tag = started
        try:
            proc.wait(timeout=max(1.0, self.deadline - _now()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise PassTimeout(f"{tag}: pass did not finish within the run's time limit")
        if proc.returncode != 0 or not os.path.exists(record_path):
            with open(os.path.join(self.run_dir, f"{tag}.stderr")) as err:
                tail = "".join(err.readlines()[-6:])
            raise ChildFailed(f"{tag}: exited with code {proc.returncode}\n{tail}")
        with open(record_path) as fh:
            rec = json.load(fh)
        if not os.path.abspath(rec["coopcast"]).startswith(SRC + os.sep):
            raise ChildFailed(f"{tag}: imported coopcast from {rec['coopcast']}, not {SRC}")
        rec["tag"] = tag
        rec["setup_s"] = (rec["t_ready"] - t_spawn) * 1e-9
        rec["process_s"] = (time.perf_counter_ns() - t_spawn) * 1e-9
        shutil.rmtree(os.path.join(self.run_dir, tag), ignore_errors=True)
        return rec

    def run(self, mode: str, tag: str, tasks=None) -> dict:
        return self.run_together([(mode, tag, tasks)])[0]

    def run_together(self, specs) -> list[dict]:
        """Run passes side by side and wait for every one of them."""
        started = []
        try:
            for mode, tag, tasks in specs:
                started.append(self._start(mode, tag, tasks))
            return [self._finish(s) for s in started]
        finally:
            for proc, *_ in started:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()


def timed_run(runner: Runner, seconds: int, min_passes: int,
              smoke: bool) -> tuple[dict, list[dict], dict]:
    setups = [runner.run("setup", f"setup{i}")["setup_s"]
              for i in range(1 if smoke else SETUP_PROBES)]
    passes, start = [], _now()
    while True:
        passes.append(runner.run("plain", f"pass{len(passes)}"))
        typical = statistics.median(p["process_s"] for p in passes)
        if _now() + typical > runner.deadline:
            break
        if len(passes) >= min_passes and _now() - start + typical > seconds:
            break
    samples = {
        "wall_s": [p["wall_s"] for p in passes],
        "setup_s": setups + [p["setup_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
    }
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    return metrics, passes, {"samples": samples}


def traced_run(runner: Runner, plan: dict) -> tuple[dict, list[dict], dict]:
    traced = runner.run("traced", "traced")
    counts = []
    prove = [s for s in plan["sweeps"] if s["kind"] == "prove"]
    if prove:
        tasks = prove[0]["tasks"]
        big = [t for t in tasks if t == workloads.RATIO_TASK] or tasks[: len(tasks) // 2]
        rest = [t for t in tasks if t not in big]
        counts = runner.run_together([("count", "count0", big), ("count", "count1", rest)])
    # The untraced reference only measures the tracing overhead; it is
    # skipped (overhead reported as 0) rather than let the run overstay.
    ref = None
    if _now() + 1.25 * traced["process_s"] < runner.deadline:
        try:
            ref = runner.run("plain", "reference")
        except PassTimeout:
            pass
    metrics, bases = layers.derive(plan, traced, counts, ref)
    extra = {"bases": bases, "reference_pass": ref is not None, "tasks": layers.per_task(traced),
             "missing_wraps": traced.get("missing_wraps", []),
             "interval_ops": {k: sum(c["interval_ops"][k] for c in counts)
                              for k in (counts[0]["interval_ops"] if counts else {})}}
    passes = [traced, *counts] + ([ref] if ref else [])
    return metrics, passes, extra


def summarize(passes: list[dict]) -> dict:
    """Ops over all passes, and whether every op's digest repeats exactly."""
    digests: dict[str, set] = {}
    attempted = failed = 0
    failures = []
    for p in passes:
        for op in p["ops"]:
            attempted += 1
            if not op["ok"]:
                failed += 1
                failures.append(f"{p['tag']}: {op['op']}: {op['why']}")
            if op["digest"] is not None:
                digests.setdefault(op["op"], set()).add(op["digest"])
        failures += [f"{p['tag']}: {err.strip().splitlines()[-1]}" for err in p.get("errors", [])]
    unstable = sorted(op for op, seen in digests.items() if len(seen) > 1)
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "unstable_digests": unstable,
        "digests": {op: sorted(seen)[0] for op, seen in sorted(digests.items())},
        "correct": failed == 0 and not unstable and all(not p.get("errors") for p in passes),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one pass")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(SRC, "coopcast", "__init__.py")):
        print(f"error: no coopcast sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2

    deadline = _now() + RUN_LIMIT_S
    sys.path.insert(0, SRC)
    calibration = [calibration_ms()]
    plan = workloads.make_plan(args.workload, args.seed, smoke=args.smoke)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    run_dir = os.path.join(HERE, "out", f"{tag}-{os.getpid()}")
    os.makedirs(run_dir)
    plan_path = os.path.join(run_dir, "plan.json")
    with open(plan_path, "w") as fh:
        json.dump(plan, fh)
    runner = Runner(plan_path, run_dir, deadline)
    try:
        if args.trace:
            metrics, passes, extra = traced_run(runner, plan)
        else:
            metrics, passes, extra = timed_run(runner, args.seconds, plan["min_passes"],
                                               args.smoke)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    calibration.append(calibration_ms())
    units = {name: spec[0] for name, spec in
             (layers.PER_LAYER if args.trace else END_TO_END).items()}
    summary = summarize(passes)
    fail_frac = summary["failed"] / summary["attempted"]
    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "machine": machine_record(), "calibration_ms": calibration,
        "plan": plan,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "fail_frac": fail_frac,
        "passes": [{k: p.get(k) for k in ("tag", "mode", "wall_s", "setup_s", "peak_rss_mb",
                                          "process_s", "exit_codes")} for p in passes],
        **summary, **extra,
    }
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    with open(os.path.join(HERE, "results", f"{tag}.json"), "w") as fh:
        json.dump(results, fh, indent=1)

    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"calibration {calibration[0]:.1f}/{calibration[1]:.1f} ms")
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:14.6g} {unit}")
    print(f"  {'fail_frac':32s} {fail_frac:14.6g} ratio "
          f"({summary['failed']} failed / {summary['attempted']} attempted)")
    for line in summary["failures"][:10]:
        print(f"  FAILED {line}")
    for op in summary["unstable_digests"]:
        print(f"  DIGEST CHANGED between passes: {op}")
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": results["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
