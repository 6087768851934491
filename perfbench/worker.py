"""One benchmark pass, in a fresh single-threaded Python process.

Set-up imports matchlat from the checkout's ``src/``, builds the
workload's inputs with the public generators, relabels them from the
seed and the pass number and writes them as graph JSON.  Then every job
of the workload runs as ``matchlat.cli.main([...])`` in this process
with stdout captured, one after the other, and each answer is checked
against a closed form that does not depend on vertex or edge labels.
With ``--trace`` the layers are wrapped by the span recorder first;
with ``--setup-only`` the pass stops after set-up.  Speed probes
(speed.py) run throughout, and every time is reported both as measured,
less the probes, and scaled to the reference speed.  The pass ends by
printing one JSON object on stdout.

    python3 perfbench/worker.py --workload analyze-fence --seed 1 [--pass-no 0]
        [--trace] [--smoke] [--setup-only]
"""

from __future__ import annotations

from time import perf_counter

T0 = perf_counter()  # set-up time includes the imports below

import argparse
import contextlib
import io
import json
import random
import resource
import shutil
import sys
import tempfile
import traceback
from math import comb
from pathlib import Path

from spans import Recorder
from speed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".runs"

# P(5,5) has 70 vertices and 25 inner faces, P(6,5) 82 and 30: above the
# default caps of 64 and 20, so the analyze jobs raise both.
MAX_VERTICES, MAX_INNER_FACES = 96, 30
CAP_ARGS = ["--cap-vertices", str(MAX_VERTICES),
            "--cap-inner-faces", str(MAX_INNER_FACES)]

# Each job is (name, family, size, target).  family and size fix the
# input and its expected answer; the exponents fit over a family's rungs.
WORKLOADS = {
    "analyze-lattice": [
        ("P(4,4)", "P", (4, 4), "decompose"),
        ("P(4,5)", "P", (4, 5), "decompose"),
        ("P(5,5)", "P", (5, 5), "decompose"),
        ("P(6,5)", "P", (6, 5), "decompose"),
        ("C6x8", "C6", 8, "decompose"),
        ("fence-12", "fence", 12, "decompose"),
    ],
    "analyze-fence": [
        ("fence-16", "fence", 16, "zdig"),
        ("fence-18", "fence", 18, "zdig"),
        ("fence-20", "fence", 20, "zdig"),
    ],
    "verify-all": [("verify all", "verify", "all", None)],
}

SMOKE = {
    "analyze-lattice": [
        ("P(2,2)", "P", (2, 2), "decompose"),
        ("C6x2", "C6", 2, "decompose"),
    ],
    "analyze-fence": [("fence-6", "fence", 6, "zdig")],
    "verify-all": [("verify core", "verify", "core", None)],
}

# passed-check counts of the suites at the first benchmarked commit
MIN_PASSED = {"all": 346, "core": 15}


def fence_spec(k: int) -> str:
    """The zigzag tree ``tree:1>2,3>2,3>4,...`` on k nodes."""
    return "tree:" + ",".join(
        f"{i}>{i + 1}" if i % 2 else f"{i + 1}>{i}" for i in range(1, k)
    )


def fibonacci(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def fence_cover_count(k: int) -> int:
    """Covers in the lattice of down-sets of the k-node fence.

    Odd nodes lie above their neighbours.  A node can be added to a
    down-set when it is missing and every node below it is present; this
    sums that over all down-sets by a transfer along the path, with
    virtual nodes 0 and k+1 always present.
    """

    def allowed(j: int, a: int, b: int) -> bool:  # x_j = a, x_(j+1) = b
        if 1 <= j <= k and j % 2 and a and not b:
            return False
        return not (1 <= j + 1 <= k and (j + 1) % 2 and b and not a)

    # (x_(i-1), x_i) -> (down-sets, addable nodes among 1..i-1, summed)
    states = {(1, 1): (1, 0)}
    for i in range(k + 1):
        nxt: dict[tuple[int, int], tuple[int, int]] = {}
        for (prev, cur), (ways, total) in states.items():
            for new in (0, 1) if i < k else (1,):
                if not allowed(i, cur, new):
                    continue
                addable = i >= 1 and not cur and (i % 2 == 0 or (prev and new))
                w, t = nxt.get((cur, new), (0, 0))
                nxt[(cur, new)] = (w + ways, t + total + ways * addable)
        states = nxt
    return sum(total for _, total in states.values())


def relabel(G, rng: random.Random, load_graph) -> dict:
    """G's description with vertex and edge ids permuted by rng.

    Colors, the rotation system and the outer face are carried over, so
    the result is the same plane graph under other names.  Face ids come
    from the loader's tracing order, so the outer face is found again by
    one of its directed edges.
    """
    vmap = list(range(G.n_vertices))
    emap = list(range(G.n_edges))
    rng.shuffle(vmap)
    rng.shuffle(emap)
    edges: list = [None] * G.n_edges
    for e, (u, v) in enumerate(G.edges):
        edges[emap[e]] = [vmap[u], vmap[v]]
    vertices = [{"id": vmap[item["id"]], "color": item["color"]}
                for item in G.to_json()["vertices"]]
    description = {
        "vertices": sorted(vertices, key=lambda item: item["id"]),
        "edges": edges,
        "rotation": {
            str(vmap[v]): [emap[e] for e in rot] for v, rot in enumerate(G.rotation)
        },
        "outer_face": 0,
    }
    eid, tail, _ = G.faces[G.outer_face].steps[0]
    H = load_graph(description, G.caps)
    step = (emap[eid], vmap[tail])
    (outer,) = [f.face_id for f in H.faces if any(s[:2] == step for s in f.steps)]
    if len(H.faces[outer]) != len(G.faces[G.outer_face]):
        raise RuntimeError("relabelled outer face differs in length")
    description["outer_face"] = outer
    return description


def expected(family: str, size, target: str) -> dict:
    """The label-free answer: lattice size, factor sizes, central count."""
    if family == "P":
        n = comb(size[0] + size[1], size[0])
        return {"n": n, "factors": [n], "central": 0}
    if family == "C6":
        return {"n": 2 ** size, "factors": [2] * size, "central": size}
    n = fibonacci(size + 2)
    if target == "zdig":
        return {"n": n, "arcs": fence_cover_count(size)}
    return {"n": n, "factors": [n], "central": 0}


def check(job, rc, out: str) -> tuple[str | None, int]:
    """(None or what is wrong, checks passed by a verify job)."""
    _, family, size, target = job
    if rc != 0:
        return f"exit code {rc}", 0
    if family == "verify":
        summary = out.strip().splitlines()[-1].split()
        # "suite <name>: <p> passed, <f> failed"
        passed, failed = int(summary[2]), int(summary[4])
        if failed or passed < MIN_PASSED[size]:
            return f"{passed} passed, {failed} failed", passed
        return None, passed
    want = expected(family, size, target)
    got = json.loads(out)
    if target == "zdig":
        have = {"n": len(got["matchings"]), "arcs": len(got["arcs"])}
    else:
        have = {
            "n": got["lattice_size"],
            "factors": got["factors"],
            "central": len(got["central_elements"]),
        }
    return (None if have == want else f"got {have}, want {want}"), 0


def import_matchlat():
    """Import matchlat from this checkout, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import matchlat

    if Path(matchlat.__file__).resolve().parent != SRC / "matchlat":
        raise ImportError(f"matchlat imported from {matchlat.__file__}, not {SRC}")
    # the package does not import cli (nor, through it, export and verify);
    # load them here so set-up pays for them and the recorder can wrap them
    from matchlat import cli  # noqa: F401

    return matchlat


def setup(jobs, seed: int, pass_no: int, workdir: Path) -> list[list[str]]:
    """Build, relabel and write every input; return each job's argv.

    Run time depends somewhat on the labels (hashing, search order), so
    each pass of a run takes its own labelling from (seed, pass) and the
    run's medians average over several.
    """
    matchlat = import_matchlat()
    caps = matchlat.SizeCaps(max_vertices=MAX_VERTICES,
                             max_inner_faces=MAX_INNER_FACES)
    rng = random.Random(f"{seed}/{pass_no}")
    argvs = []
    for i, (_, family, size, target) in enumerate(jobs):
        if family == "verify":
            argvs.append(["verify", size])
            continue
        if family == "P":
            G = matchlat.parse_spec(f"P({size[0]},{size[1]})", caps).graph
        elif family == "C6":
            hexagon = matchlat.parse_spec("P(1,1)", caps).graph
            G = matchlat.link_components([hexagon] * size, caps).graph
        else:
            G = matchlat.parse_spec(fence_spec(size), caps).graph
        path = workdir / f"job{i}.json"
        path.write_text(json.dumps(relabel(G, rng, matchlat.load_graph)))
        argv = [*CAP_ARGS, "analyze", str(path), target]
        argvs.append(argv + ["--format", "json"] if target == "zdig" else argv)
    return argvs


def run_pass(workload: str, seed: int, pass_no: int, trace: bool, smoke: bool,
             setup_only: bool = False, t0: float | None = None) -> dict:
    """One pass; set-up is timed from t0 (default: now)."""
    t0 = perf_counter() if t0 is None else t0
    jobs = (SMOKE if smoke else WORKLOADS)[workload]
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    probe = SpeedProbe()
    recorder = None
    try:
        probe.start()
        argvs = setup(jobs, seed, pass_no, workdir)
        setup_raw_s, setup_s = probe.scale(0, probe.mark(), perf_counter() - t0)
        if setup_only:
            return {"setup_s": setup_s, "setup_raw_s": setup_raw_s}
        from matchlat import cli

        if trace:
            recorder = Recorder()
            recorder.instrument()
            probe.span = recorder.span
        results = []
        for j, (job, argv) in enumerate(zip(jobs, argvs)):
            buf = io.StringIO()
            rc = None
            first = probe.mark()
            start = perf_counter()
            try:
                with contextlib.redirect_stdout(buf):
                    if recorder:
                        recorder.job = j
                        with recorder.span("cli"):
                            rc = cli.main(argv)
                    else:
                        rc = cli.main(argv)
            except (Exception, SystemExit):
                traceback.print_exc(file=sys.stderr)
            wall, scaled = probe.scale(first, probe.mark(), perf_counter() - start)
            try:
                error, passed = check(job, rc, buf.getvalue())
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                error, passed = f"unreadable output: {exc!r}", 0
            if error:
                print(f"{workload} {job[0]}: {error}", file=sys.stderr)
            results.append({
                "name": job[0],
                "family": job[1],
                "n": 0 if job[1] == "verify" else expected(*job[1:])["n"],
                "raw_s": wall,
                "wall_s": scaled,
                "ok": error is None,
                "checks_passed": passed,
            })
    finally:
        probe.stop()
        if recorder:
            recorder.restore()
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "scale": probe.factor(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": results,
        "spans": recorder.spans if recorder else [],
        "counts": recorder.counts if recorder else {},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-no", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    result = run_pass(args.workload, args.seed, args.pass_no, args.trace,
                      args.smoke, args.setup_only, t0=T0)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
