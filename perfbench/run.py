"""matchlat benchmark: end-to-end and per-layer timings of the CLI.

    python3 perfbench/run.py --workload analyze-lattice --seed 1 --seconds 38 --trace 0

Each pass runs in a fresh single-threaded Python process (worker.py): it
builds the workload's inputs from the seed, then runs every job through
``matchlat.cli.main`` one after the other, a closed loop with one client.
Passes repeat until ``--seconds`` is used up; each metric is the median
over passes.  Set-up time also takes samples from processes that only
set up, run in the time left over after the last pass that fits.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--smoke`` runs one pass on tiny inputs,
for the benchmark's own tests.

Workloads:
  analyze-lattice  ``analyze decompose`` on P(4,4), P(4,5), P(5,5), P(6,5),
                   six-cycles linked 8 times and the 12-node fence
                   (n = 70, 126, 252, 462, 256, 377 matchings).  Building the
                   lattice, decompose and central are ~90% of the time;
                   irreducible lattices and a 2^8 product both run.
  analyze-fence    ``analyze zdig --format json`` on the 16-, 18- and 20-node
                   fences (2584, 6765, 17711 matchings).  Enumeration, the
                   flip digraph and JSON export are all of it; the lattice
                   layer is never called.
  verify-all       ``verify all``: 346 checks over hundreds of graphs with at
                   most 20 vertices, so per-graph constant costs and cache
                   lifetimes dominate.

End-to-end metrics (``--trace 0``), medians over passes:
  setup_s        imports, building the inputs and writing them
  wall_s         job times of one pass, first job start to last job end
  slowest_job_s  the slowest job of one pass
  peak_rss_mb    ru_maxrss of the pass's process
Every time is in seconds at a reference CPU speed (speed.py): probes of
a fixed Python loop run 50 times a second through each pass, and a
time is the measured one less the probes, times REF_PROBE_S over the
mean probe time of that stretch (each job, or set-up).  The host's CPU
speed drifts by up to half over minutes, which no number of passes
averages away.  The times as measured (less the probes) and the median
scale factor are printed on a ``raw`` line above the result.
A failed job (nonzero exit, exception or wrong answer) counts in
``failed``; fail_frac = failed / attempted is printed with the metrics.

Per-layer metrics (``--trace 1``) come from passes with every public call
into plane_graph, matching, ztransform, lattice, export and the verify
suites wrapped in a span (spans.py).  ``<layer>_s`` is the summed self
time of that layer's spans in one pass, ``cli.self_s`` what remains of
the job time less the probes, and ``trace.overhead_s`` the traced minus
the untraced wall_s of the same run; all at the reference speed, by the
pass's mean probe time.  Counts are taken once per distinct result.
``*_exp`` is the log-log slope of a layer's self time against n over a
ladder's rungs: ztransform.lattice_exp over the P rungs, and
matching.enumerate_exp and ztransform.zdig_exp over the rungs of the
fence-only workload; 0 on a workload without that ladder.

Predicted effect of a change to one layer:
  layer metric                              end-to-end metric        workload
  ztransform.lattice_s, lattice.decompose_s  wall_s, slowest_job_s,  analyze-lattice
    lattice.central_s                          peak_rss_mb
                                             wall_s (a little, in the verify-all
                                               parallelogram suite)
                                             no change               analyze-fence
  matching.enumerate_s, ztransform.zdig_s,   wall_s, peak_rss_mb     analyze-fence
    export.emit_s                            (< 5% of the time)      analyze-lattice
  verify.outerplane_s, graph-cache lifetime  wall_s, peak_rss_mb     verify-all only
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import self_times
from worker import WORKLOADS

WORKER = Path(__file__).resolve().parent / "worker.py"
DEADLINE_S = 170  # a run must end within 180 s
# set-up is short and noisy, so processes that only set up give it more
# samples than the passes alone
MIN_EXTRA_SETUPS = 3
SETUP_RESERVE_S = 2.0  # kept for them when deciding whether a pass still fits

LAYERS = (
    "plane_graph.load", "matching.enumerate", "ztransform.zdig",
    "ztransform.poset", "ztransform.lattice", "lattice.decompose",
    "lattice.central", "export.emit", "verify.core", "verify.parallelogram",
    "verify.outerplane", "verify.decomposition",
)
COUNTS = (
    "matching.matchings", "ztransform.arcs", "lattice.irreducibles",
    "lattice.table_bytes", "export.bytes",
)
# exponent metric -> (span name, job family, workload whose ladder it is)
EXPONENTS = {
    "ztransform.lattice_exp": ("ztransform.lattice", "P", "analyze-lattice"),
    "matching.enumerate_exp": ("matching.enumerate", "fence", "analyze-fence"),
    "ztransform.zdig_exp": ("ztransform.zdig", "fence", "analyze-fence"),
}
UNITS = {"_s": "s", "_mb": "MB", "_exp": "slope", "bytes": "B"}


class BenchmarkError(Exception):
    pass


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def run_worker(args, started: float, pass_no: int, *flags: str) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--pass-no", str(pass_no), *flags]
    cmd += ["--smoke"] * args.smoke
    # numpy's BLAS threads would make the pass multi-threaded
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    timeout = DEADLINE_S - (perf_counter() - started)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              timeout=max(timeout, 1), text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"pass did not end within {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchmarkError(f"pass exited with code {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except json.JSONDecodeError as exc:
        raise BenchmarkError(f"pass printed no result: {exc}") from exc


def wall(p: dict, key: str = "wall_s") -> float:
    return sum(job[key] for job in p["jobs"])


def slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log t against log n."""
    pts = [(math.log(n), math.log(t)) for n, t in points if n > 1 and t > 0]
    if len(pts) < 2:
        return 0.0
    mx = statistics.fmean(x for x, _ in pts)
    my = statistics.fmean(y for _, y in pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def layer_metrics(p: dict, workload: str) -> dict[str, float]:
    """Per-layer self times, counts and exponents of one traced pass."""
    selves = self_times(p["spans"])
    total: dict[str, float] = {}
    per_job: dict[tuple[str, int], float] = {}
    for (name, _, _, _, job), own in zip(p["spans"], selves):
        own *= p["scale"]
        total[name] = total.get(name, 0.0) + own
        per_job[name, job] = per_job.get((name, job), 0.0) + own
    out = {f"{layer}_s": total.get(layer, 0.0) for layer in LAYERS}
    out["cli.self_s"] = total.get("cli", 0.0)
    for name in COUNTS:
        out[name] = p["counts"].get(name, 0)
    out["verify.checks_passed"] = sum(job["checks_passed"] for job in p["jobs"])
    for metric, (layer, family, ladder) in EXPONENTS.items():
        rungs = [(job["n"], per_job.get((layer, j), 0.0))
                 for j, job in enumerate(p["jobs"]) if job["family"] == family]
        out[metric] = slope(rungs) if workload == ladder else 0.0
    return out


def median_of(rows: list[dict]) -> dict[str, float]:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass on tiny inputs")
    args = parser.parse_args(argv)

    started = perf_counter()
    plain: list[dict] = []
    traced: list[dict] = []
    try:
        longest = 0.0
        while True:
            pass_no = len(plain)
            round_started = perf_counter()
            plain.append(run_worker(args, started, pass_no))
            if args.trace:
                traced.append(run_worker(args, started, pass_no, "--trace"))
            now = perf_counter()
            longest = max(longest, now - round_started)
            reserve = 0 if args.trace else SETUP_RESERVE_S
            if args.smoke or now - started + longest + reserve > args.seconds:
                break
        # time left over that no further pass fits into goes to set-up samples
        setups = [(p["setup_s"], p["setup_raw_s"]) for p in plain]
        extra_started = perf_counter()
        while not args.trace:
            extra = len(setups) - len(plain)
            now = perf_counter()
            if extra >= MIN_EXTRA_SETUPS and (
                now - started + (now - extra_started) / extra > args.seconds
            ):
                break
            p = run_worker(args, started, len(setups), "--setup-only")
            setups.append((p["setup_s"], p["setup_raw_s"]))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    jobs = [job for p in plain + traced for job in p["jobs"]]
    failed = sum(not job["ok"] for job in jobs)
    if args.trace:
        metrics = median_of([layer_metrics(p, args.workload) for p in traced])
        metrics["trace.overhead_s"] = (
            statistics.median(map(wall, traced)) - statistics.median(map(wall, plain))
        )
    else:
        metrics = {"setup_s": statistics.median(s for s, _ in setups)}
        metrics |= median_of([{
            "wall_s": wall(p),
            "slowest_job_s": max(job["wall_s"] for job in p["jobs"]),
            "peak_rss_mb": p["peak_rss_mb"],
        } for p in plain])

    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes, {len(setups)} set-ups, {len(jobs)} jobs, "
          f"{failed} failed, fail_frac {failed / len(jobs):g}")
    if not args.trace:
        raw = {
            "setup_s": statistics.median(r for _, r in setups),
            "wall_s": statistics.median(wall(p, "raw_s") for p in plain),
            "scale": statistics.median(p["scale"] for p in plain),
        }
        print("  raw " + ", ".join(f"{k} {v:.4g}" for k, v in raw.items()))
    for name, value in metrics.items():
        print(f"  {name:26s} {value:14.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
