"""Tests of the benchmark itself, on its smoke inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import speed
import worker
from spans import self_times
from speed import SpeedProbe

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_fence_cover_count_matches_brute_force_and_known_arc_counts():
    for k in range(1, 11):
        total = 0
        for bits in itertools.product((0, 1), repeat=k):
            x = (1, *bits, 1)
            if any(x[i] and i % 2 and not (x[i - 1] and x[i + 1])
                   for i in range(1, k + 1)):
                continue
            total += sum(not x[i] and (i % 2 == 0 or (x[i - 1] and x[i + 1]))
                         for i in range(1, k + 1))
        assert worker.fence_cover_count(k) == total
    assert [worker.fence_cover_count(k) for k in (16, 18, 20)] == [11822, 34690, 100610]


def test_relabel_is_seeded_and_keeps_the_graph():
    matchlat = worker.import_matchlat()
    G = matchlat.parse_spec(worker.fence_spec(6)).graph
    a = worker.relabel(G, random.Random(5), matchlat.load_graph)
    assert a == worker.relabel(G, random.Random(5), matchlat.load_graph)
    assert a != worker.relabel(G, random.Random(6), matchlat.load_graph)
    H = matchlat.load_graph(a)
    assert len(matchlat.enumerate_perfect_matchings(H)) == worker.fibonacci(8)
    assert sorted(map(len, H.faces)) == sorted(map(len, G.faces))


def test_check_rejects_a_wrong_answer():
    job = ("P(2,2)", "P", (2, 2), "decompose")
    good = {"lattice_size": 6, "factors": [6], "central_elements": []}
    assert worker.check(job, 0, json.dumps(good))[0] is None
    assert worker.check(job, 0, json.dumps({**good, "factors": [2, 3]}))[0]
    assert worker.check(job, 2, "")[0]
    verify = ("verify core", "verify", "core", None)
    assert worker.check(verify, 0, "suite core: 15 passed, 0 failed\n") == (None, 15)
    assert worker.check(verify, 0, "suite core: 14 passed, 1 failed\n")[0]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_self_times_add_up_to_job_wall_less_probes():
    p = worker.run_pass("analyze-lattice", 1, 0, trace=True, smoke=True)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    jobs = [s for s in p["spans"] if s[0] == "cli"]
    assert len(jobs) == len(p["jobs"])
    job_wall = sum(end - start for _, start, end, _, _ in jobs)
    probes_in_jobs = sum(end - start for name, start, end, parent, _ in p["spans"]
                         if name == "probe" and parent >= 0)
    layers = sum(own for span, own in zip(p["spans"], self_times(p["spans"]))
                 if span[0] != "probe")
    assert layers == pytest.approx(job_wall - probes_in_jobs, rel=1e-9)
    assert {s[0] for s in p["spans"]} >= {
        "plane_graph.load", "matching.enumerate", "ztransform.zdig",
        "ztransform.poset", "ztransform.lattice", "lattice.decompose",
        "lattice.central", "export.emit",
    }


def test_speed_probe_scales_to_the_reference_speed():
    probe = SpeedProbe()
    probe.times = [speed.REF_PROBE_S] * speed.MIN_PROBES
    start = probe.mark()
    probe.times += [2 * speed.REF_PROBE_S] * speed.MIN_PROBES
    net, scaled = probe.scale(start, probe.mark(), 1.0)
    assert net == pytest.approx(1.0 - 2 * speed.REF_PROBE_S * speed.MIN_PROBES)
    assert scaled == pytest.approx(net / 2)
    # too few probes in the stretch: the mean of all of them
    assert probe.factor(start, start + 1) == pytest.approx(2 / 3)


def test_speed_probe_runs_on_the_timer_and_stops():
    probe = SpeedProbe()
    probe.start()
    try:
        deadline = time.perf_counter() + 0.5
        while time.perf_counter() < deadline:
            pass
    finally:
        probe.stop()
    assert len(probe.times) > speed.WARMUP_PROBES + 5
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".runs"))
    proc = run_bench("--workload", "verify-all", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
