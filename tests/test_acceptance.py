"""Acceptance suite: eleven graded checks covering the urn analytics, the
replicated-DAG convergence properties, and the simulated fault scenarios.

Each test prints one PASS/FAIL line (visible with `pytest -s` or on failure)
and asserts the same condition, so `pytest -v` shows one verdict per check.
"""

import itertools
import math
import time
from fractions import Fraction
from random import Random

from meg.core import init
from meg.harness import parse_scenario, run_lockstep_rounds, run_scenario
from meg.replay import make_op_soup, replay_schedule
from meg.width import (
    brute_force_pmf,
    expected_removed,
    fixed_point,
    mean_trajectory,
    pmf_removed,
    rounds_until_convergence,
    simulate_urn_round,
    variance_removed,
    variance_removed_recursive,
)


def report(num: int, description: str, failures: list[str]) -> None:
    ok = not failures
    line = f"{'PASS' if ok else 'FAIL'} criterion {num:02d}: {description}"
    if failures:
        line += " [" + "; ".join(failures) + "]"
    print(line)
    assert ok, line


SCENARIO_DEFAULTS = {
    "n": 3,
    "f": 0,
    "guarantee": "Reliable",
    "delay": [1, 10],
    "drop": 0.0,
    "duplicate": 0.0,
    "partitions": [],
    "adversary": None,
    "rounds": 5,
    "updates_per_round": 2,
    "d": 2,
    "dummy_threshold": 0,
    "dummy_d": 10,
    "gossip_period": 0,
    "horizon": 600,
    "grace": 30,
    "seed": 0,
}


def scenario(**overrides):
    return parse_scenario({**SCENARIO_DEFAULTS, **overrides})


# -- 1: exact pmf vs enumeration ------------------------------------------------------


def test_criterion_01_exact_pmf_matches_enumeration():
    failures = []
    start = time.monotonic()
    for u in range(3, 7):
        for d in (2, 3):
            if d >= u:
                continue
            for k in (1, 2, 3):
                got = pmf_removed(u, d, k, exact=True)
                want = brute_force_pmf(u, d, k)
                if got.probs != want.probs:
                    failures.append(f"pmf mismatch at (u={u},d={d},k={k})")
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    report(1, "recursive pmf equals exhaustive enumeration on the small grid", failures)


# -- 2: moment consistency --------------------------------------------------------------


def _mean_by_recursion(u: int, d: int, k: int) -> float:
    # E(R_{j+1}) = p * E(R_j) + d: the d removals of the next drawing land on
    # survivors with probability p of not having been removed already.
    p = (u - d) / u
    e = 0.0
    for _ in range(k):
        e = p * e + d
    return e


def test_criterion_02_moment_consistency():
    grid = [(4, 2, 2)]
    for u in (4, 5, 6, 8, 10, 14, 20):
        for d in (2, 3, 5, 7):
            if d >= u:
                continue
            for k in (1, 2, 3, 5, 8):
                if (u, d, k) != (4, 2, 2):
                    grid.append((u, d, k))
    grid = grid[:50]
    assert len(grid) == 50 and (4, 2, 2) in grid

    failures = []
    for u, d, k in grid:
        pmf = pmf_removed(u, d, k, exact=True)
        mean_closed = float(expected_removed(u, d, k))
        var_closed = float(variance_removed(u, d, k))
        if abs(mean_closed - float(pmf.mean())) > 1e-9:
            failures.append(f"mean vs pmf at ({u},{d},{k})")
        if abs(var_closed - float(pmf.variance())) > 1e-9:
            failures.append(f"variance vs pmf at ({u},{d},{k})")
        if abs(mean_closed - _mean_by_recursion(u, d, k)) > 1e-12 * max(1.0, mean_closed):
            failures.append(f"mean vs recursion at ({u},{d},{k})")
        var_rec = variance_removed_recursive(u, d, k)
        if abs(var_closed - var_rec) > 1e-12 * max(1.0, abs(var_closed)):
            failures.append(f"variance vs recursion at ({u},{d},{k})")

    exact = pmf_removed(4, 2, 2, exact=True)
    if exact.mean() != 3 or exact.variance() != Fraction(1, 3):
        failures.append("(4,2,2) moments are not exactly 3 and 1/3")
    report(2, "closed-form moments match pmf and recursion routes on 50 triples", failures)


# -- 3: saturation limit ------------------------------------------------------------------


def test_criterion_03_saturation_limits():
    failures = []
    mean = expected_removed(10, 5, 40)
    var = variance_removed(10, 5, 40)
    if abs(mean - 10) >= 1e-6:
        failures.append(f"mean {mean!r} not within 1e-6 of 10")
    if var >= 1e-6:
        failures.append(f"variance {var!r} not < 1e-6")
    report(3, "with k=40 drawings a 10-ball urn is fully drained", failures)


# -- 4: Monte-Carlo calibration ------------------------------------------------------------


def test_criterion_04_monte_carlo_calibration():
    failures = []
    trials = 10**5
    start = time.monotonic()
    for u, d, k in ((10, 5, 3), (50, 5, 10), (100, 3, 20)):
        rng = Random(f"acceptance:mc:{u}:{d}:{k}")
        total = 0
        for _ in range(trials):
            total += simulate_urn_round(u, d, k, rng)
        sample_mean = total / trials
        closed = expected_removed(u, d, k)
        band = 4 * math.sqrt(variance_removed(u, d, k)) / math.sqrt(trials)
        if abs(sample_mean - closed) >= band:
            failures.append(
                f"({u},{d},{k}): |{sample_mean:.4f} - {closed:.4f}| >= {band:.4f}"
            )
    elapsed = time.monotonic() - start
    if elapsed >= 30:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    report(4, "sampled removal mean sits within 4 standard errors of closed form", failures)


# -- 5: fixed points and spread ---------------------------------------------------------------


def test_criterion_05_fixed_points_and_spread():
    failures = []
    for k, expected_fp in ((10, 11), (15, 16), (20, 21)):
        fp = fixed_point(5, k)
        if fp != expected_fp:
            failures.append(f"fixed_point(5,{k}) = {fp}, want {expected_fp}")
        if not (k <= fp <= 1.5 * k):
            failures.append(f"fixed_point(5,{k}) = {fp} outside [k, 1.5k]")

        rows = mean_trajectory(3 * k, 5, k, 40)
        for prev, cur in zip(rows, rows[1:]):
            if prev.mean_width > fp and not (cur.mean_width < prev.mean_width):
                failures.append(f"trajectory not strictly decreasing above {fp} (k={k})")
                break

        top = rows[0]
        if not math.isfinite(top.stddev_removal):
            failures.append(f"stddev not finite at u=3k (k={k})")
        mean_removed = expected_removed(3 * k, 5, k)
        if top.stddev_removal / mean_removed >= 0.1:
            failures.append(f"sigma/mean(removal) >= 0.1 at u=3k (k={k})")
        if top.stddev_removal / top.mean_width >= 0.1:
            failures.append(f"sigma/width >= 0.1 at u=3k (k={k})")
    report(5, "plateau widths for d=5 are 11/16/21 with small relative spread", failures)


# -- 6: rounds-to-convergence shape --------------------------------------------------------------


def test_criterion_06_rounds_to_convergence_shape():
    failures = []
    for k in (10, 100):
        u0 = 100 * k
        series = [rounds_until_convergence(u0, d, k) for d in range(2, 11)]
        drops = [a - b for a, b in zip(series, series[1:])]
        if any(drop < 0 for drop in drops):
            failures.append(f"not non-increasing in d for k={k}: {series}")
        if drops and max(drops) != drops[0]:
            failures.append(f"largest decrement not at d=2->3 for k={k}: {series}")
    golden = rounds_until_convergence(30, 2, 3)
    if abs(golden - 12) > 1:
        failures.append(f"rounds(30,2,3) = {golden}, want 12 +/- 1")
    report(6, "settling time shrinks fastest from d=2 to d=3 and matches the golden", failures)


# -- 7: convergence across delivery schedules ---------------------------------------------------


def test_criterion_07_schedule_permutation_convergence():
    failures = []
    # exhaustive: every delivery order of two small concurrent op sets
    for seed in (101, 202):
        ops = make_op_soup(3, 5, seed=seed)
        digests = {replay_schedule(list(perm)) for perm in itertools.permutations(ops)}
        if len(digests) != 1:
            failures.append(f"{len(digests)} digests over 120 permutations (seed {seed})")
    # randomized: 1000 shuffles of a larger soup
    ops = make_op_soup(5, 30, seed=303)
    baseline = replay_schedule(list(ops))
    rng = Random("acceptance:shuffles")
    violations = 0
    for _ in range(1000):
        schedule = list(ops)
        rng.shuffle(schedule)
        if replay_schedule(schedule) != baseline:
            violations += 1
    if violations:
        failures.append(f"{violations}/1000 shuffled schedules diverged")
    report(7, "identical digests over 240 exhaustive and 1000 random schedules", failures)


# -- 8: structural invariants, commutativity, idempotence ----------------------------------------


def test_criterion_08_dag_invariants_and_commutativity():
    failures = []
    problems = []

    def invariant(state):
        if not state.is_rooted_dag():
            problems.append("rooted-dag violation")
        if not state.get_extremities():
            problems.append("empty extremity set")

    # the same schedule families as criterion 7, now instrumented per applied op
    for seed in (101, 202):
        ops = make_op_soup(3, 5, seed=seed)
        for perm in itertools.permutations(ops):
            replay_schedule(list(perm), check=invariant)
    ops = make_op_soup(5, 30, seed=303)
    rng = Random("acceptance:shuffles")
    for _ in range(1000):
        schedule = list(ops)
        rng.shuffle(schedule)
        replay_schedule(schedule, check=invariant)
    if problems:
        failures.append(f"{len(problems)} invariant violations ({problems[0]})")

    # commutativity: deliverable pairs applied in both orders agree
    pair_rng = Random("acceptance:pairs")
    checked = 0
    mismatches = 0
    while checked < 500:
        schedule = list(ops)
        pair_rng.shuffle(schedule)
        state = init("soup")
        remaining = list(schedule)
        while remaining:
            ready = [op for op in remaining if state.precondition_holds(op)]
            if len(ready) >= 2 and checked < 500:
                a, b = pair_rng.sample(ready, 2)
                one = state.copy()
                one.apply_add(a)
                one.apply_add(b)
                two = state.copy()
                two.apply_add(b)
                two.apply_add(a)
                if one.state_digest() != two.state_digest():
                    mismatches += 1
                checked += 1
            nxt = ready[0]
            state.apply_add(nxt)
            remaining.remove(nxt)
    if mismatches:
        failures.append(f"{mismatches}/500 commuting pairs diverged")

    # idempotence: every op delivered twice, in order and shuffled
    baseline = replay_schedule(list(ops))
    if replay_schedule(list(ops) + list(ops)) != baseline:
        failures.append("sequential double delivery changed the digest")
    doubled = list(ops) + list(ops)
    Random("acceptance:double").shuffle(doubled)
    if replay_schedule(doubled) != baseline:
        failures.append("interleaved double delivery changed the digest")
    report(8, "rooted DAG per op, 500 commuting pairs, double delivery idempotent", failures)


# -- 9: liveness under reordering -----------------------------------------------------------------


def test_criterion_09_reordering_liveness():
    failures = []
    peak = 0
    for seed in range(20):
        spec = scenario(delay=[1, 100], seed=seed)
        metrics, verdict = run_scenario(spec)
        if not verdict.eventual_delivery:
            failures.append(f"seed {seed}: eventual delivery failed")
        q = metrics.quiescence_tick
        if q is None:
            failures.append(f"seed {seed}: never quiesced")
            continue
        for i, occupancy in enumerate(metrics.buffer_occupancy):
            if any(occupancy[q:]):
                failures.append(f"seed {seed}: replica {i} buffer non-empty at quiescence")
        # An op buffered at some tick arrived before one of its parents.
        peak = max(peak, *map(max, metrics.buffer_occupancy))
    if peak == 0:
        failures.append("no op ever arrived before its parents; reordering not exercised")
    report(9, "20 reordering scenarios deliver everything and drain all buffers", failures)


# -- 10: equivocation agreement --------------------------------------------------------------------


EQUIVOCATION = {
    "n": 4,
    "f": 1,
    "delay": [1, 10],
    "partitions": [[0, 500, [0, 1]]],
    "adversary": {
        "byzantine": [3],
        "behaviors": [
            {"kind": "equivocate", "subset_a": [0, 1], "subset_b": [2], "at_round": 0}
        ],
    },
    "rounds": 3,
    "updates_per_round": 1,
    "gossip_period": 20,
    "horizon": 800,
    "grace": 60,
}


def test_criterion_10_equivocation_agreement():
    failures = []
    for seed in range(20):
        spec = scenario(**{**EQUIVOCATION, "seed": seed})
        metrics, verdict = run_scenario(spec)
        if not verdict.all_ok():
            failures.append(f"seed {seed}: verdict {verdict}")
            continue
        forked = metrics.applied_sets[3] - metrics.correct_broadcast_ids
        if len(forked) != 2:
            failures.append(f"seed {seed}: expected 2 equivocated vertices, saw {len(forked)}")
        for i in metrics.correct_indices:
            if not forked <= metrics.applied_sets[i]:
                failures.append(f"seed {seed}: replica {i} missing an equivocated vertex")

    # without gossip or further updates the fork is never repaired
    spec = scenario(**{**EQUIVOCATION, "gossip_period": 0, "rounds": 1, "seed": 0})
    metrics, verdict = run_scenario(spec)
    if verdict.eventual_delivery:
        failures.append("delivery verdict held even though one side never saw the fork")
    if not verdict.strong_convergence:
        failures.append("convergence verdict must stay vacuous when applied sets differ")
    report(10, "equivocated vertices reach all correct replicas; no-gossip control fails", failures)


# -- 11: dummy-event depletion ------------------------------------------------------------------------


def test_criterion_11_dummy_depletion_plateau():
    failures = []
    cap = fixed_point(10, 3)
    for seed in (1, 2, 5):
        widths = run_lockstep_rounds(3, 2, rounds=30, seed=seed, u0=40, dummy_threshold=10)
        if widths[0] != 40:
            failures.append(f"seed {seed}: starting width {widths[0]} != 40")
        plateau = widths[-1]
        if plateau > cap:
            failures.append(f"seed {seed}: plateau {plateau} above fixed point {cap}")
        settled = next((i for i, w in enumerate(widths) if w <= cap), None)
        if settled is None or settled > 30:
            failures.append(f"seed {seed}: width never fell below {cap} within 30 rounds")
        tail = widths[settled:]
        if len(set(tail)) != 1:
            failures.append(f"seed {seed}: width kept moving after depletion: {tail}")
    report(11, "idle 40-wide graph depletes below the analytic plateau within 30 rounds", failures)
