"""The benchmark's workloads: which ``coopcast`` commands one pass runs.

``simulate`` runs three ``coopcast simulate`` sweeps, each into its own
output directory: UDG flooding (criterion 05 scaled down), MISO beamforming
(criterion 08) and expanding-disk SNR (criterion 06 at a larger n).
``prove_suite`` runs ``coopcast prove --suite`` (criterion 04).

A plan is plain JSON so the parent can hand it to each child process.  Every
UDG and SNR job uses a field seed derived from the benchmark seed ``s``
(``1000 s`` and ``1000 s + 1``).  The MISO jobs run criterion 08's own five
fields for every ``s``, and the proof suite takes no seed.
"""

from __future__ import annotations

import math

WORKLOADS = ("simulate", "prove_suite")

#: Passes a timed run makes at least.  One proof-suite pass takes longer than
#: a run's seconds, and one pass alone varies with the host's speed by more
#: than the benchmark's bound; two back to back narrow that spread.
MIN_PASSES = {"simulate": 1, "prove_suite": 2}

#: The CLI defaults to 4 workers, which oversubscribes a 2-core host; every
#: sweep runs with this many thread workers instead.
WORKERS = 2

#: Field seeds per node count of the UDG and SNR sweeps.
SEEDS_PER_SWEEP = 2

# Criterion 05 (UDG scaling): rho = (32/pi) ln n.
UDG_DENSITY = 32.0 / math.pi
UDG_NODE_COUNTS = (4096, 16384, 65536)

# Criterion 08 (MISO growth): n = 10^4 in a disk of radius 30, beamforming
# constants c1 = 12, c2 = 0.02 (the CLI defaults never beamform).
MIMO_N = 10_000
MIMO_DENSITY = MIMO_N / (900.0 * math.pi)
MIMO_C1 = 12.0
MIMO_C2 = 0.02
#: The fields criterion 08 certifies.  On other fields these constants leave
#: one node in an interference null of the last beamforming round about half
#: the time (13 of fields 1000-1029 end not fully informed), and about 8% of
#: fields have a disconnected bootstrap disk (BootstrapFailure).  Running the
#: same five fields for every seed also keeps the peak RSS, set by which two
#: MISO jobs overlap, from varying with the seed.
C08_FIELDS = (0, 1, 2, 3, 4)

# Criterion 06 (expanding-disk SNR) at a larger n.
SNR_N = 65536
SNR_DENSITY = 64.0

# Tiny versions of the same sweeps, for the benchmark's own tests.
SMOKE = {
    "udg_node_counts": (256, 1024),
    "mimo": (2000, 2000 / (100.0 * math.pi)),  # R = 10
    "snr_n": 4096,
    "tasks": ("shape_scaled_lower", "area_scaled_lower", "area_scaled_far_lower"),
}

RATIO_TASK = "area_half_width_ratio"


def rho_for(density: float, rule: str, n: int) -> float:
    return density * math.log(n) if rule == "log" else density


def disk_radius(n: int, rho: float) -> float:
    return math.sqrt(n / (math.pi * rho))


def _field_seeds(seed: int) -> list[int]:
    return [1000 * seed + k for k in range(SEEDS_PER_SWEEP)]


def _simulate(name, model, node_counts, density, rule, seeds, extra=()):
    jobs = []
    for n in node_counts:
        rho = rho_for(density, rule, n)
        for s in seeds:
            jobs.append({"model": model, "n": n, "seed": s, "rho": rho, "R": disk_radius(n, rho)})
    argv = [
        "simulate", "--models", model,
        "--density-rule", rule, "--density", repr(density),
        "--node-counts", ",".join(str(n) for n in node_counts),
        "--seeds", ",".join(str(s) for s in seeds),
        "--workers", str(WORKERS), *extra,
    ]
    return {"name": name, "kind": "simulate", "argv": argv, "jobs": jobs}


def make_plan(workload: str, seed: int, smoke: bool = False) -> dict:
    """The sweeps one pass of ``workload`` runs, each in its own
    output directory (a second ``simulate`` into one directory would
    overwrite its ``summary.csv``)."""
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if workload == "simulate":
        counts = SMOKE["udg_node_counts"] if smoke else UDG_NODE_COUNTS
        mimo_n, mimo_density = SMOKE["mimo"] if smoke else (MIMO_N, MIMO_DENSITY)
        snr_n = SMOKE["snr_n"] if smoke else SNR_N
        sweeps = [
            _simulate("udg", "udg", counts, UDG_DENSITY, "log", _field_seeds(seed)),
            _simulate("mimo", "mimo", (mimo_n,), mimo_density, "fixed", C08_FIELDS,
                      ("--c1", repr(MIMO_C1), "--c2", repr(MIMO_C2))),
            _simulate("snr", "snr", (snr_n,), SNR_DENSITY, "fixed", _field_seeds(seed)),
        ]
    elif workload == "prove_suite":
        from coopcast.prover import inequality_suite

        if smoke:
            tasks = list(SMOKE["tasks"])
            argv = None
        else:
            # The suite is deterministic: the seed does not apply.
            tasks = [t.name for t in inequality_suite()]
            argv = ["prove", "--suite"]
        sweeps = [{"name": "prove", "kind": "prove", "argv": argv, "tasks": tasks}]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return {"workload": workload, "seed": seed, "smoke": smoke, "workers": WORKERS,
            "min_passes": 1 if smoke else MIN_PASSES[workload], "sweeps": sweeps}


def cli_calls(sweep: dict, out_dir: str, tasks=None) -> list[list[str]]:
    """The ``coopcast.cli.main`` argument lists for one sweep.  ``tasks``
    runs a prove sweep task by task (``prove --task``) instead."""
    if sweep["kind"] == "prove" and (tasks is not None or sweep["argv"] is None):
        names = sweep["tasks"] if tasks is None else tasks
        return [["prove", "--task", t, "--output-dir", out_dir] for t in names]
    return [[*sweep["argv"], "--output-dir", out_dir]]
