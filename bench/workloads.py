"""The benchmark's workloads: inputs made from a seed, timed jobs, output checks.

Each workload runs a full-size job and a half-size job.  The full job gives
the end-to-end times; the pair gives the log-log slope of time against ops.
Every job returns an `Outcome` carrying the checks that failed, so a wrong
answer counts as a failed operation instead of a fast one.

* `causal-clean`: the paper's headline setting.  The per-delivery DAG walk
  and the per-tick state digest dominate, and causal holdback is exercised;
  the pending buffer stays empty and no backfill is sent.
* `hostile-repair`: Reliable delivery with one replica flooding orphans.
  Reordered arrivals trigger backfill and repeated signature checks, and the
  orphans fill the pending buffer; causal holdback is bypassed.
* `width-lockstep`: the urn analytics plus lockstep rounds, the paper's
  cross-check of measured width against `fixed_point`.  It calls
  `generate_add` and `apply_add` directly, with no monitor, network or
  buffer, and it is the only workload that touches `meg.width`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter


@dataclass
class Outcome:
    """One timed job.

    `ops_seconds` is the host time of the part that did the `ops` operations;
    `applies` is the number of first-time `apply_add` calls the job made.
    `signature` holds the deterministic results that must repeat exactly for
    a given seed.
    """

    seconds: float
    ops: int
    ops_seconds: float
    applies: int
    convergence: int
    signature: tuple
    problems: list[str]
    extra: dict = field(default_factory=dict)


# -- simulated scenarios ---------------------------------------------------------


def causal_clean(seed: int, rounds: int) -> dict:
    return {
        "n": 8,
        "f": 0,
        "guarantee": "CausalOrderReliable",
        "delay": [1, 10],
        "drop": 0.0,
        "duplicate": 0.0,
        "partitions": [],
        "adversary": None,
        "rounds": rounds,
        "updates_per_round": 2,
        "d": 4,
        "dummy_threshold": 0,
        "dummy_d": 10,
        "gossip_period": 0,
        "horizon": 250,
        "grace": 30,
        "seed": seed,
    }


def hostile_repair(seed: int, rounds: int) -> dict:
    return {
        "n": 8,
        "f": 1,
        "guarantee": "Reliable",
        "delay": [1, 50],
        "drop": 0.0,
        "duplicate": 0.0,
        "partitions": [],
        "adversary": {"byzantine": [7], "behaviors": [{"kind": "orphan_flood", "rate": 10}]},
        "rounds": rounds,
        "updates_per_round": 2,
        "d": 4,
        "dummy_threshold": 0,
        "dummy_d": 10,
        "gossip_period": 25,
        "horizon": 300,
        "grace": 30,
        "seed": seed,
    }


class SimWorkload:
    """One scenario at `rounds` (full) and `rounds // 2` (half) workload rounds."""

    def __init__(self, scenario, rounds: int) -> None:
        self.scenario = scenario
        self.rounds = rounds

    def params(self, seed: int) -> dict:
        return {
            "full": self.scenario(seed, self.rounds),
            "half": self.scenario(seed, self.rounds // 2),
        }

    def prepare(self, meg, seed: int) -> dict:
        return {size: meg.harness.parse_scenario(raw) for size, raw in self.params(seed).items()}

    def run(self, meg, inputs: dict, size: str) -> Outcome:
        spec = inputs[size]
        start = perf_counter()
        metrics, verdict = meg.harness.run_scenario(spec)
        seconds = perf_counter() - start
        problems = []
        if not verdict.all_ok():
            problems.append(f"verdict {verdict}")
        if len({metrics.final_digests[i] for i in metrics.correct_indices}) != 1:
            problems.append("final digests differ between correct replicas")
        kinds: dict[str, int] = {}
        for ev in metrics.trace:
            kinds[ev.kind] = kinds.get(ev.kind, 0) + 1
        applies = sum(metrics.applied_counts)
        return Outcome(
            seconds=seconds,
            ops=applies,
            ops_seconds=seconds,
            applies=applies,
            convergence=metrics.convergence_tick,
            signature=(
                metrics.convergence_tick,
                tuple(metrics.applied_counts),
                len(metrics.trace),
                tuple(sorted(kinds.items())),
                hashlib.sha256("\n".join(ev.line() for ev in metrics.trace).encode()).digest(),
                tuple(metrics.final_digests),
            ),
            problems=problems,
            extra={
                "trace_kinds": kinds,
                "buffer_peak": max(max(row) for row in metrics.buffer_occupancy),
            },
        )


# -- width analytics and lockstep rounds ------------------------------------------

# The job mix of scripts/width_figures.py, with the removal pmf sized down so
# that several repetitions fit in one run.
TRAJECTORIES = [(30, 5, 10, 40), (45, 5, 15, 40), (60, 5, 20, 40)]
GRID_D = range(2, 11)
GRID_K = (10, 100)
U0_MULT = 100
PMF_ROW = (150, 8, 40)
EXACT_ROW = (40, 4, 10)
MONTE_CARLO = (30, 5, 10, 40)
TRIALS = 500
LOCKSTEP = (32, 3, 1000)
# Lockstep descent from a wide start: the rounds it takes the measured width
# to fall to the fixed point are the workload's simulated convergence time.
DESCENT_U0 = 1280
DESCENT_ROUNDS = 80


class WidthWorkload:
    """Urn analytics, Monte-Carlo and lockstep rounds; half size halves the lockstep."""

    def params(self, seed: int) -> dict:
        n, d, rounds = LOCKSTEP
        return {
            "mean_trajectory": [list(row) for row in TRAJECTORIES],
            "rounds_until_convergence": {"d": list(GRID_D), "k": list(GRID_K), "u0_mult": U0_MULT},
            "fixed_point": {"d": list(GRID_D), "k": list(GRID_K)},
            "pmf_removed": list(PMF_ROW),
            "pmf_removed_exact_check": list(EXACT_ROW),
            "monte_carlo_trajectory": [*MONTE_CARLO, TRIALS, seed],
            "run_lockstep_rounds": {
                "full": [n, d, rounds, seed],
                "half": [n, d, rounds // 2, seed],
            },
            "lockstep_descent": {
                "n": n,
                "d": d,
                "rounds": DESCENT_ROUNDS,
                "seed": seed,
                "u0": DESCENT_U0,
            },
        }

    def prepare(self, meg, seed: int) -> dict:
        return self.params(seed)

    def run(self, meg, p: dict, size: str) -> Outcome:
        if size == "half":
            return self._lockstep_only(meg, p["run_lockstep_rounds"]["half"])
        width = meg.width
        lockstep = meg.harness.run_lockstep_rounds
        n, d, rounds, seed = p["run_lockstep_rounds"]["full"]
        # The lockstep runs first, right after the half-size job it is compared with.
        start = perf_counter()
        widths = lockstep(n, d, rounds, seed)
        lock_seconds = perf_counter() - start
        trajectories = [width.mean_trajectory(*row) for row in p["mean_trajectory"]]
        grid = p["rounds_until_convergence"]
        settle = [
            width.rounds_until_convergence(grid["u0_mult"] * k, cap, k)
            for k in grid["k"]
            for cap in grid["d"]
        ]
        points = [width.fixed_point(cap, k) for k in grid["k"] for cap in grid["d"]]
        pmf = width.pmf_removed(*p["pmf_removed"])
        mc_start = perf_counter()
        mc = width.monte_carlo_trajectory(*p["monte_carlo_trajectory"])
        mc_seconds = perf_counter() - mc_start
        desc = p["lockstep_descent"]
        descent = lockstep(desc["n"], desc["d"], desc["rounds"], desc["seed"], u0=desc["u0"])
        seconds = perf_counter() - start

        problems = []
        total = sum(pmf.probs.values())
        if abs(total - 1.0) > 1e-9:
            problems.append(f"pmf_removed{tuple(p['pmf_removed'])} mass {total!r}")
        row = p["pmf_removed_exact_check"]
        exact = width.pmf_removed(*row, exact=True)
        approx = width.pmf_removed(*row)
        if sum(exact.probs.values()) != Fraction(1):
            problems.append(f"exact pmf_removed{tuple(row)} mass is not 1")
        if set(exact.probs) != set(approx.probs) or any(
            abs(approx[j] - float(q)) > 1e-12 for j, q in exact.probs.items()
        ):
            problems.append(f"float pmf_removed{tuple(row)} departs from exact by more than 1e-12")
        mc_rounds, trials = p["monte_carlo_trajectory"][3:5]
        if len(mc) != mc_rounds + 1:
            problems.append(f"monte_carlo_trajectory gave {len(mc)} rows")
        target = width.fixed_point(d, n)
        problems += plateau_problems(widths, target)
        reached = [r for r, w in enumerate(descent) if w <= target + 1]
        if not reached:
            problems.append(f"lockstep descent from {desc['u0']} never reached {target + 1}")
        convergence = reached[0] if reached else None
        return Outcome(
            seconds=seconds,
            ops=n * rounds,
            ops_seconds=lock_seconds,
            applies=n * rounds + desc["u0"] + desc["n"] * desc["rounds"],
            convergence=convergence,
            signature=(
                tuple(widths),
                tuple(descent),
                tuple((r.mean_width, r.lo, r.hi) for r in mc),
                tuple(sorted(pmf.probs.items())),
                tuple(settle),
                tuple(points),
                tuple(r.mean_width for rows in trajectories for r in rows),
            ),
            problems=problems,
            extra={
                "monte_carlo_s": mc_seconds,
                "trial_rounds": mc_rounds * trials,
                "fixed_point": target,
                "analytic_rounds_until_convergence": width.rounds_until_convergence(
                    desc["u0"], d, n
                ),
            },
        )

    def _lockstep_only(self, meg, args: list) -> Outcome:
        n, d, rounds, seed = args
        start = perf_counter()
        widths = meg.harness.run_lockstep_rounds(n, d, rounds, seed)
        seconds = perf_counter() - start
        return Outcome(
            seconds=seconds,
            ops=n * rounds,
            ops_seconds=seconds,
            applies=n * rounds,
            convergence=0,
            signature=(tuple(widths),),
            problems=plateau_problems(widths, meg.width.fixed_point(d, n)),
        )


def plateau_problems(widths: list[int], target: int) -> list[str]:
    """The lockstep width, averaged over the second half of the rounds, must sit
    within 1 of the urn model's fixed point."""
    tail = widths[len(widths) // 2 :]
    plateau = sum(tail) / len(tail)
    if abs(plateau - target) > 1:
        return [f"lockstep plateau {plateau:.3f} not within 1 of fixed_point {target}"]
    return []


WORKLOADS = {
    "causal-clean": SimWorkload(causal_clean, rounds=20),
    "hostile-repair": SimWorkload(hostile_repair, rounds=12),
    "width-lockstep": WidthWorkload(),
}
