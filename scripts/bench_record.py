#!/usr/bin/env python3
"""Record one benchmark run of this checkout in `BENCH_<label>.json`.

Usage, from the root of a source checkout:

    python scripts/bench_record.py --label pr6

Runs `bench/run.py` (unchanged) for every workload it defines, end to end
(`--trace 0`) and per layer (`--trace 1`), at the benchmark's default seed
and run length, and keeps both lines each run prints: the record line
(commit, Python version, nproc, parameters, per-repetition times) and the
result line (the metrics).  Apart from those runs it records each
workload's peak RSS from `RSS_REPEATS` runs of `bench/run.py --seconds
0.1`, each a fresh process that runs the fewest repetitions the benchmark
allows, so the figure does not grow with the repetitions a 40 s run fits.
It then times the Reliable ladder, fault-free
Reliable delivery at sizes no benchmark workload covers: n=8, f=0, d=4,
delay 1..10, 8 updates per replica per round, 10 and 20 rounds (640 and 1280
ops), seed 1.  Each ladder point is timed `LADDER_REPEATS` times without
instrumentation; one more run counts `verify_envelope` calls and the
`DELIVER`, `BACKFILL_REQ` and `BACKFILL_RESP` trace events.  Last, apart from
every timed run, it records the size of the DAG state: the tracemalloc peak
of one `run_lockstep_rounds(32, 3, 1000, 1)`, per vertex of its 32,001,
and the cost of the width kernels, each the median of `KERNEL_REPEATS`
uninstrumented calls: µs per op of that same lockstep run, ns per ball of
`monte_carlo_trajectory(30, 5, 10, 40, 500, 1)`, and ms per
`pmf_removed(150, 8, 40)`.  Then it runs the n = 32 scale ladder, where the
width grows into the hundreds: Reliable, n=32, f=0, d=4, delay
1..10, 2 updates per replica per round, 20 and 80 rounds (40,960 and 163,840
applies), horizon 12·rounds + 100, seed 1.  Each point runs `SCALE_REPEATS`
times, the points taking turns, each run in a fresh child process so that
no two runs share a peak-RSS high-water mark.  A point records the median
and every run of its µs per apply and peak RSS, and its final median replica
width; the ladder records the slope of log wall time over log applies
between the two medians, and the µs-per-apply growth of each run pair.  One
more child process steps the 20-round point under tracemalloc and records
the bytes still traced at its last tick, per apply.  The package is
imported from this checkout's `src/`, as in `fuzz_fingerprints.py`.

Last, it records the import cost that the benchmark's `setup_s` pays on
every repetition: `IMPORT_REPEATS` child processes each import
`meg`, drop it from `sys.modules` and time a fresh `import meg`, as
`bench/run.py` does.  One series writes no bytecode and reads none, so every
module is compiled again, as on a host that sets `PYTHONDONTWRITEBYTECODE`;
the other reads bytecode cached under a temporary `sys.pycache_prefix`.
Neither writes bytecode into the checkout.  One more child records the
median time to compile each module that `import meg` loads.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path
from time import perf_counter
from unittest import mock

from fuzz_fingerprints import import_harness

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"

LADDER_ROUNDS = (10, 20)
LADDER_REPEATS = 3
# run_lockstep_rounds(n, d, rounds, seed) whose peak memory sizes the state.
STATE_SIZE_RUN = (32, 3, 1000, 1)
KERNEL_REPEATS = 3
# monte_carlo_trajectory(u0, d, k, rounds, trials, seed) and pmf_removed(u, d, k).
KERNEL_MONTE_CARLO = (30, 5, 10, 40, 500, 1)
KERNEL_PMF = (150, 8, 40)
SCALE_ROUNDS = (20, 80)
SCALE_REPEATS = 3
# Short bench runs whose peak RSS is recorded per workload.
RSS_SECONDS = 0.1
RSS_REPEATS = 3
IMPORT_REPEATS = 15
# Run in a child: argv is (src, pycache prefix, "1" to write bytecode there).
# Prints the seconds of a fresh `import meg` and the meg modules it loaded.
IMPORT_CHILD = """
import json, sys, time
src, sys.pycache_prefix, write = sys.argv[1:]
sys.dont_write_bytecode = write != "1"
sys.path.insert(0, src)
import meg
for name in [n for n in sys.modules if n == "meg" or n.startswith("meg.")]:
    del sys.modules[name]
start = time.perf_counter()
import meg
elapsed = time.perf_counter() - start
print(json.dumps([elapsed, sorted(n for n in sys.modules if n == "meg" or n.startswith("meg."))]))
"""
# Run in a child: argv is (repeats, path, ...).  Prints the median seconds to
# compile each file, as the import system does.
COMPILE_CHILD = """
import json, statistics, sys, time
repeats, paths = int(sys.argv[1]), sys.argv[2:]
medians = []
for path in paths:
    source = open(path, "rb").read()
    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        compile(source, path, "exec", dont_inherit=True)
        walls.append(time.perf_counter() - start)
    medians.append(statistics.median(walls))
print(json.dumps(medians))
"""


def ladder_spec(rounds: int) -> dict:
    return {
        "n": 8,
        "f": 0,
        "guarantee": "Reliable",
        "delay": [1, 10],
        "drop": 0.0,
        "duplicate": 0.0,
        "partitions": [],
        "adversary": None,
        "rounds": rounds,
        "updates_per_round": 8,
        "d": 4,
        "dummy_threshold": 0,
        "dummy_d": 10,
        "gossip_period": 0,
        "horizon": 200,
        "grace": 30,
        "seed": 1,
    }


def scale_spec(rounds: int) -> dict:
    """The Reliable ladder's spec at n=32, 2 updates per round."""
    return {
        **ladder_spec(rounds),
        "n": 32,
        "updates_per_round": 2,
        "horizon": 12 * rounds + 100,
    }


def git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def workload_names() -> list[str]:
    sys.path.insert(0, str(BENCH))
    import workloads

    return sorted(workloads.WORKLOADS)


def run_bench(workload: str, *args: str) -> tuple[dict, dict]:
    """The record line and the result line of one `bench/run.py` run."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, *args]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited {done.returncode}: {done.stderr}")
    record, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    return record, result


def in_python(code: str, *args: str):
    """What a fresh interpreter running `code` prints, as JSON."""
    cmd = [sys.executable, "-c", code, *args]
    done = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def import_cost() -> dict:
    """A fresh `import meg` with every module compiled, and with cached bytecode."""
    runs: dict[str, list[float]] = {"uncached": [], "cached": []}
    with tempfile.TemporaryDirectory() as empty, tempfile.TemporaryDirectory() as cache:
        _, modules = in_python(IMPORT_CHILD, str(SRC), cache, "1")  # fills the cache
        for _ in range(IMPORT_REPEATS):
            runs["uncached"].append(in_python(IMPORT_CHILD, str(SRC), empty, "0")[0])
            runs["cached"].append(in_python(IMPORT_CHILD, str(SRC), cache, "0")[0])
    paths = [
        str(SRC / (name.replace(".", "/") + ("/__init__.py" if name == "meg" else ".py")))
        for name in modules
    ]
    compile_s = dict(zip(modules, in_python(COMPILE_CHILD, str(IMPORT_REPEATS), *paths)))
    cost = {
        "repeats": IMPORT_REPEATS,
        **{f"{mode}_s": statistics.median(walls) for mode, walls in runs.items()},
        **{f"{mode}_s_runs": walls for mode, walls in runs.items()},
        "compile_s": compile_s,
        "compile_total_s": sum(compile_s.values()),
    }
    print(f"import cost: {json.dumps(cost)}", flush=True)
    return cost


def bench_runs() -> list[dict]:
    runs = []
    for workload in workload_names():
        for trace in (0, 1):
            record, result = run_bench(workload, "--trace", str(trace))
            print(f"{workload} trace {trace}: {json.dumps(result['metrics'])}", flush=True)
            runs.append({"workload": workload, "trace": trace, "record": record, "result": result})
    return runs


def short_run_rss() -> dict:
    """Median and every run of each workload's peak RSS over short bench runs."""
    rss = {}
    for workload in workload_names():
        runs = []
        for _ in range(RSS_REPEATS):
            _, result = run_bench(workload, "--seconds", str(RSS_SECONDS))
            if not result["correct"]:
                raise SystemExit(f"error: {workload} failed {result['failed']} operations")
            runs.append(result["metrics"]["peak_rss_mb"]["value"])
        rss[workload] = {"peak_rss_mb": statistics.median(runs), "peak_rss_mb_runs": runs}
        print(f"{workload} peak RSS, {RSS_SECONDS} s runs: {json.dumps(rss[workload])}", flush=True)
    return {"seconds": RSS_SECONDS, "repeats": RSS_REPEATS, "workloads": rss}


def ladder(harness) -> list[dict]:
    points = []
    for rounds in LADDER_ROUNDS:
        spec = harness.parse_scenario(ladder_spec(rounds))
        walls = []
        for _ in range(LADDER_REPEATS):
            start = perf_counter()
            harness.run_scenario(spec)
            walls.append(perf_counter() - start)
        with mock.patch.object(harness, "verify_envelope", wraps=harness.verify_envelope) as verify:
            metrics, verdict = harness.run_scenario(spec)
        calls = verify.call_count
        kinds = Counter(ev.kind for ev in metrics.trace)
        deliveries = kinds["DELIVER"]
        point = {
            "ops": spec.n * spec.rounds * spec.updates_per_round,
            "spec": ladder_spec(rounds),
            "wall_s": statistics.median(walls),
            "wall_s_runs": walls,
            "verify_envelope_calls": calls,
            "deliveries": deliveries,
            "verify_per_delivery": calls / deliveries,
            "backfill_requests": kinds["BACKFILL_REQ"],
            "backfill_responses": kinds["BACKFILL_RESP"],
            "convergence_tick": metrics.convergence_tick,
            "all_ok": verdict.all_ok(),
        }
        print(f"Reliable ladder: {json.dumps({k: v for k, v in point.items() if k != 'spec'})}", flush=True)
        points.append(point)
    return points


def state_size(harness) -> dict:
    n, d, rounds, seed = STATE_SIZE_RUN
    tracemalloc.start()
    try:
        harness.run_lockstep_rounds(n, d, rounds, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    vertices = n * rounds + 1
    size = {
        "run_lockstep_rounds": {"n": n, "d": d, "rounds": rounds, "seed": seed},
        "vertices": vertices,
        "tracemalloc_peak_bytes": peak,
        "bytes_per_vertex": peak / vertices,
    }
    print(f"state size: {json.dumps(size)}", flush=True)
    return size


def median_seconds(fn, *args) -> tuple[float, list[float]]:
    walls = []
    for _ in range(KERNEL_REPEATS):
        start = perf_counter()
        fn(*args)
        walls.append(perf_counter() - start)
    return statistics.median(walls), walls


def width_kernels(harness) -> dict:
    width = importlib.import_module("meg.width")
    n, d, rounds, seed = STATE_SIZE_RUN
    lockstep, lockstep_runs = median_seconds(harness.run_lockstep_rounds, n, d, rounds, seed)
    u0, mc_d, k, mc_rounds, trials, _ = KERNEL_MONTE_CARLO
    # From round 1 on the width is at least k > d, so every drawing takes d balls.
    balls = trials * mc_rounds * k * min(mc_d, u0)
    monte_carlo, monte_carlo_runs = median_seconds(width.monte_carlo_trajectory, *KERNEL_MONTE_CARLO)
    pmf, pmf_runs = median_seconds(width.pmf_removed, *KERNEL_PMF)
    kernels = {
        "repeats": KERNEL_REPEATS,
        "run_lockstep_rounds": list(STATE_SIZE_RUN),
        "lockstep_us_per_op": lockstep / (n * rounds) * 1e6,
        "lockstep_s_runs": lockstep_runs,
        "monte_carlo_trajectory": list(KERNEL_MONTE_CARLO),
        "monte_carlo_balls": balls,
        "monte_carlo_ns_per_ball": monte_carlo / balls * 1e9,
        "monte_carlo_s_runs": monte_carlo_runs,
        "pmf_removed": list(KERNEL_PMF),
        "pmf_removed_ms": pmf * 1e3,
        "pmf_removed_s_runs": pmf_runs,
    }
    print(f"width kernels: {json.dumps(kernels)}", flush=True)
    return kernels


def scale_run(rounds: int) -> dict:
    """One scale-ladder run; called in a child process of its own."""
    harness = import_harness(SRC)
    spec = harness.parse_scenario(scale_spec(rounds))
    start = perf_counter()
    metrics, verdict = harness.run_scenario(spec)
    wall = perf_counter() - start
    applies = sum(metrics.applied_counts)
    return {
        "applies": applies,
        "wall_s": wall,
        "us_per_apply": wall / applies * 1e6,
        "final_median_width": statistics.median(w[-1] for w in metrics.width),
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "convergence_tick": metrics.convergence_tick,
        "all_ok": verdict.all_ok(),
    }


def traced_memory(rounds: int) -> dict:
    """Bytes tracemalloc still traces once the scale point's last tick has run."""
    harness = import_harness(SRC)
    spec = harness.parse_scenario(scale_spec(rounds))
    tracemalloc.start()
    try:
        sim = harness.Simulation(spec)
        for _ in range(spec.horizon):
            sim.step()
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    applies = sum(len(node.state.vertices) - 1 for node in sim.nodes)
    return {"rounds": rounds, "applies": applies, "traced_bytes": traced, "bytes_per_apply": traced / applies}


def in_child(fn, *args):
    with multiprocessing.get_context("spawn").Pool(1) as pool:
        return pool.apply(fn, args)


def scale_ladder() -> dict:
    runs: dict[int, list[dict]] = {rounds: [] for rounds in SCALE_ROUNDS}
    for _ in range(SCALE_REPEATS):
        for rounds in SCALE_ROUNDS:
            run = in_child(scale_run, rounds)
            print(f"scale ladder, {rounds} rounds: {json.dumps(run)}", flush=True)
            runs[rounds].append(run)
    points = []
    for rounds in SCALE_ROUNDS:
        first = runs[rounds][0]
        points.append(
            {
                "rounds": rounds,
                "spec": scale_spec(rounds),
                **{k: first[k] for k in ("applies", "final_median_width", "convergence_tick", "all_ok")},
                **{
                    k: statistics.median(run[k] for run in runs[rounds])
                    for k in ("wall_s", "us_per_apply", "peak_rss_mb")
                },
                "runs": runs[rounds],
            }
        )
    lo, hi = points[0], points[-1]
    slope = math.log(hi["wall_s"] / lo["wall_s"]) / math.log(hi["applies"] / lo["applies"])
    growth = hi["us_per_apply"] / lo["us_per_apply"] - 1
    pair_growth = [
        b["us_per_apply"] / a["us_per_apply"] - 1 for a, b in zip(lo["runs"], hi["runs"])
    ]
    print(
        f"scale ladder: slope {slope:.3f}, µs per apply {growth:+.1%} "
        f"(run pairs {', '.join(f'{g:+.1%}' for g in pair_growth)})",
        flush=True,
    )
    memory = in_child(traced_memory, SCALE_ROUNDS[0])
    print(f"scale ladder, traced memory: {json.dumps(memory)}", flush=True)
    return {
        "repeats": SCALE_REPEATS,
        "points": points,
        "slope": slope,
        "us_per_apply_growth": growth,
        "us_per_apply_growth_runs": pair_growth,
        "traced_memory": memory,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="file name part: BENCH_<label>.json")
    args = parser.parse_args(argv)
    out = ROOT / f"BENCH_{args.label}.json"
    record = {
        "label": args.label,
        "git_commit": git("rev-parse", "HEAD"),
        "tracked_changes": git("status", "--porcelain", "--untracked-files=no") != "",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    runs = bench_runs()
    record["seconds"] = runs[0]["record"]["seconds"]
    record["bench"] = runs
    record["short_run_rss"] = short_run_rss()
    harness = import_harness(SRC)
    record["reliable_ladder"] = ladder(harness)
    record["state_size"] = state_size(harness)
    record["width_kernels"] = width_kernels(harness)
    record["scale_ladder"] = scale_ladder()
    record["import_cost"] = import_cost()
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
