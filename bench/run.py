#!/usr/bin/env python3
"""Benchmark for meg: end-to-end metrics per workload, or a traced per-layer breakdown.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload causal-clean --seed 1 --seconds 40 --trace 0

The package is imported from `src/` of the checkout, never from an installed
copy.  Each repetition sets up (imports the package afresh, parses the
scenarios and builds the inputs) and then runs the workload's half-size and
full-size jobs; repetitions go on until `--seconds` have passed.  Every
repetition is one operation and fails if any output check fails.  The
deterministic results of a job (convergence tick, applied counts, trace
length and content, final digests, widths) must repeat exactly for a given
seed, or the benchmark stops with an error and no result.

With `--trace 1` the full-size job runs alternately untraced and with spans
around each module's public functions (see spans.py), and the per-layer
metrics are printed instead of the end-to-end ones.  The untraced jobs count
the envelopes `Network.step` hands over and time nothing else.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it records the
environment, the workload's full parameters and the seed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Gains are claimed on DEFAULT_SEED and re-checked on HELD_OUT_SEED, which is
# not to be used while a change is being written.
DEFAULT_SEED = 1
HELD_OUT_SEED = 6488

MIN_REPS = 3
MIN_TRACED_REPS = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "applied_ops_per_s": "1/s",
    "ops_scaling_exponent": "1",
    "peak_rss_mb": "MB",
    "convergence_tick": "tick",
}

TRACE_KINDS = ("DELIVER", "DROP", "GOSSIP", "BACKFILL_REQ", "BACKFILL_RESP")

PER_LAYER = {
    **{f"{name}.calls": "count" for name in spans.SPAN_NAMES},
    **{f"{name}.self_s": "s" for name in spans.SPAN_NAMES},
    "core.apply_add.applied": "count",
    "core.ingest.useful_ratio": "ratio",
    "core.ready_ops.useful_ratio": "ratio",
    "core.buffer.peak": "count",
    "monitor.verify_envelope.per_applied_op": "ratio",
    "monitor.verify_envelope.rejected": "count",
    "harness.backfill.envelopes_served": "count",
    "harness.backfill.useful_ratio": "ratio",
    "wire_envelopes_per_op": "ratio",
    "urn_trial_rounds_per_s": "1/s",
    "trace.overhead_s": "s",
    **{f"network.{kind.lower()}": "count" for kind in TRACE_KINDS},
}

# The untraced jobs of a traced run install only this span, to count the
# envelopes handed to receivers.
COUNT_SPANS = ("network.step",)


class BenchError(RuntimeError):
    """The run cannot produce a trustworthy result."""


def import_meg():
    """Import the package from the checkout's `src/`, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "meg" or n.startswith("meg.")]:
        del sys.modules[name]
    meg = importlib.import_module("meg")
    if Path(meg.__file__).resolve().parent != SRC / "meg":
        raise BenchError(f"imported meg from {meg.__file__}, not from {SRC}")
    return meg


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def set_up(workload, seed: int):
    """Import the package afresh and build the workload's inputs; returns the time taken too."""
    start = perf_counter()
    meg = import_meg()
    inputs = workload.prepare(meg, seed)
    return meg, inputs, perf_counter() - start


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def repeat(job, seconds: float, minimum: int) -> list:
    """Run `job` until `seconds` have passed and at least `minimum` times."""
    results = []
    deadline = perf_counter() + seconds
    while len(results) < minimum or perf_counter() < deadline:
        gc.collect()
        results.append(job())
    return results


def same_signature(outcomes: list, what: str) -> None:
    first = outcomes[0].signature
    if any(o.signature != first for o in outcomes[1:]):
        raise BenchError(f"{what}: deterministic results differ between repeats of one seed")


def median(values) -> float:
    return statistics.median(list(values))


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- end-to-end run ----------------------------------------------------------------


def end_to_end(workload, seed: int, seconds: float) -> tuple[dict, list, dict]:
    # Set-up is repeated with every repetition, so that its median samples
    # the machine over the whole run as the job times do.
    def rep():
        meg, inputs, setup = set_up(workload, seed)
        return setup, workload.run(meg, inputs, "half"), workload.run(meg, inputs, "full")

    timed = repeat(rep, seconds, MIN_REPS)
    setups = [s for s, _, _ in timed]
    reps = [(h, f) for _, h, f in timed]
    halves = [h for h, _ in reps]
    fulls = [f for _, f in reps]
    same_signature(halves, "half-size job")
    same_signature(fulls, "full-size job")
    full_ops, half_ops = fulls[0].ops, halves[0].ops
    # One slope per repetition: its two jobs run back to back, so a change in
    # machine speed between repetitions cancels out of the ratio.
    slopes = [
        math.log(f.ops_seconds / h.ops_seconds) / math.log(full_ops / half_ops) for h, f in reps
    ]
    metrics = {
        "setup_s": median(setups),
        "wall_s": median(o.seconds for o in fulls),
        "applied_ops_per_s": full_ops / median(o.ops_seconds for o in fulls),
        "ops_scaling_exponent": median(slopes),
        "peak_rss_mb": peak_rss_mb(),
        "convergence_tick": fulls[0].convergence,
    }
    failed = [bool(h.problems or f.problems) for h, f in reps]
    detail = {
        "problems": sorted({msg for h, f in reps for msg in h.problems + f.problems}),
        "setup_s": setups,
        "full_s": [o.seconds for o in fulls],
        "half_s": [o.seconds for o in halves],
        "full_ops": full_ops,
        "half_ops": half_ops,
        "extra": fulls[0].extra,
    }
    return metrics, failed, detail


# -- traced run --------------------------------------------------------------------


def traced_job(workload, meg, inputs, only=None):
    tracer = spans.Tracer(only)
    tracer.install()
    try:
        start = perf_counter()
        outcome = workload.run(meg, inputs, "full")
        wall = perf_counter() - start
    finally:
        tracer.uninstall()
    return outcome, tracer, wall


def reconcile(outcome, tracer, wall: float) -> None:
    """Cross-check the traced counts; a mismatch means a wrapper missed an alias."""
    calls, counts = tracer.calls, tracer.counts
    problems = []
    if counts["apply_add.applied"] != outcome.applies:
        problems.append(
            f"apply_add returned True {counts['apply_add.applied']} times, "
            f"but {outcome.applies} ops were applied"
        )
    if calls["harness.receive_envelope"] != calls["monitor.verify_envelope"]:
        problems.append("receive_envelope and verify_envelope call counts differ")
    if calls["harness.run_scenario"] and counts["ingest.applied"] != outcome.applies:
        problems.append("ingest results do not add up to the applied ops")
    accepted = calls["monitor.verify_envelope"] - counts["verify.rejected"]
    if calls["encoding.compute_event_id"] < calls["core.generate_add"] + accepted:
        problems.append("fewer compute_event_id calls than generate_add plus accepted envelopes")
    if tracer.total_self_s() > wall:
        problems.append(f"self times sum to {tracer.total_self_s()} s, over the wall {wall} s")
    if problems:
        raise BenchError("traced run does not reconcile: " + "; ".join(problems))


def layer_metrics(traced: list, untraced: list) -> dict:
    outcome, tracer, _ = traced[0]
    calls, counts = tracer.calls, tracer.counts
    metrics: dict = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = median(t.self_s[name] for _, t, _ in traced)
    applies = outcome.applies
    metrics.update(
        {
            "core.apply_add.applied": counts["apply_add.applied"],
            "core.ingest.useful_ratio": ratio(counts["ingest.useful"], calls["core.ingest"]),
            "core.ready_ops.useful_ratio": ratio(
                counts["ready_ops.returned"], counts["ready_ops.scanned"]
            ),
            "core.buffer.peak": max(counts["buffer.peak"], outcome.extra.get("buffer_peak", 0)),
            "monitor.verify_envelope.per_applied_op": ratio(
                calls["monitor.verify_envelope"], applies
            ),
            "monitor.verify_envelope.rejected": counts["verify.rejected"],
            "harness.backfill.envelopes_served": counts["backfill.served"],
            "harness.backfill.useful_ratio": ratio(
                counts["backfill.useful"], counts["backfill.delivered"]
            ),
            "wire_envelopes_per_op": ratio(counts["wire.envelopes"], applies),
            "urn_trial_rounds_per_s": ratio(
                outcome.extra.get("trial_rounds", 0),
                median(o.extra.get("monte_carlo_s", 0.0) for o, _, _ in untraced),
            ),
            "trace.overhead_s": median(w for _, _, w in traced)
            - median(w for _, _, w in untraced),
        }
    )
    kinds = outcome.extra.get("trace_kinds", {})
    for kind in TRACE_KINDS:
        metrics[f"network.{kind.lower()}"] = kinds.get(kind, 0)
    return metrics


def per_layer(workload, seed: int, seconds: float) -> tuple[dict, list, dict]:
    meg, inputs, _ = set_up(workload, seed)

    def pair():
        return traced_job(workload, meg, inputs, COUNT_SPANS), traced_job(workload, meg, inputs)

    # Untraced and traced jobs alternate so that both see the same machine load.
    pairs = repeat(pair, seconds, MIN_TRACED_REPS)
    untraced = [u for u, _ in pairs]
    traced = [t for _, t in pairs]
    jobs = untraced + traced
    same_signature([o for o, _, _ in jobs], "untraced and traced jobs")
    if len({t.counts["wire.envelopes"] for _, t, _ in jobs}) != 1:
        raise BenchError("wire envelope counts differ between untraced and traced jobs")
    if len({tuple(sorted(t.calls.items())) for _, t, _ in traced}) != 1:
        raise BenchError("traced call counts differ between repeats of one seed")
    for outcome, tracer, wall in traced:
        reconcile(outcome, tracer, wall)
    metrics = layer_metrics(traced, untraced)
    failed = [bool(o.problems) for o, _, _ in jobs]
    detail = {
        "problems": sorted({msg for o, _, _ in jobs for msg in o.problems}),
        "untraced_s": [w for _, _, w in untraced],
        "traced_s": [w for _, _, w in traced],
        "trace.overhead_s": metrics["trace.overhead_s"],
        "extra": traced[0][0].extra,
    }
    return metrics, failed, detail


# -- entry point -------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "meg" / "__init__.py").is_file():
        print(f"error: no meg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]

    try:
        if args.trace:
            metrics, failed, detail = per_layer(workload, args.seed, args.seconds)
            units = PER_LAYER
        else:
            metrics, failed, detail = end_to_end(workload, args.seed, args.seconds)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "params": workload.params(args.seed),
        **detail,
    }
    print(json.dumps(record, default=str))
    print(
        json.dumps(
            {
                "correct": not any(failed),
                "attempted": len(failed),
                "failed": sum(failed),
                "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
