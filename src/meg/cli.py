"""Command-line entry point: scenario runs, width analytics, self-checks.

Subcommands:

* `meg sim --scenario FILE [--seed N] [--out DIR]` — run one scenario, write
  the width series CSV and the message trace TSV, print the verdict.  Exit 0
  when all verdict flags hold, 1 otherwise.
* `meg width expect|pmf|rounds|montecarlo ...` — urn-model analytics as CSV on
  stdout (and into the `--out` directory when one is given).
* `meg verify [--suite urn|lemmas|sec|all]` — built-in cross-checks.

All output is deterministic for fixed arguments and seeds; numbers are
printed with 10 significant digits; every artifact produced from randomness
carries its seed in the file name.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

from .harness import (
    DUMMY_D,
    ScenarioError,
    ScenarioSpec,
    load_scenario,
    run_lockstep_rounds,
    run_scenario,
    trace_tsv,
    width_series_csv,
)
from .network import DeliveryGuarantee
from .replay import make_op_soup, replay_schedule
from .width import (
    brute_force_pmf,
    expected_removed,
    fixed_point,
    mean_trajectory,
    monte_carlo_trajectory,
    pmf_removed,
    rounds_until_convergence,
    variance_removed,
    variance_removed_recursive,
)


def _fmt(x: float | Fraction) -> str:
    return f"{float(x):.10g}"


def _parse_range(text: str) -> list[int]:
    """Parse '7' or '2..10' (inclusive) into a list of ints."""
    if ".." in text:
        lo_s, hi_s = text.split("..", 1)
        lo, hi = int(lo_s), int(hi_s)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return [int(text)]


def _out_dir(args: argparse.Namespace) -> Path | None:
    return None if args.out is None else Path(args.out)


def _emit_csv(lines: list[str], out_dir: Path | None, filename: str) -> None:
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / filename).write_text(text)
        print(f"wrote {out_dir / filename}", file=sys.stderr)


# -- subcommands -----------------------------------------------------------------


def cmd_sim(args: argparse.Namespace) -> int:
    spec = load_scenario(args.scenario)
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    metrics, verdict = run_scenario(spec)
    out_dir = _out_dir(args) or Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.scenario).stem
    width_path = out_dir / f"{stem}-seed{spec.seed}-width.csv"
    trace_path = out_dir / f"{stem}-seed{spec.seed}-trace.tsv"
    width_path.write_text(width_series_csv(metrics))
    trace_path.write_text(trace_tsv(metrics))
    print(f"strong_convergence={verdict.strong_convergence}")
    print(f"eventual_delivery={verdict.eventual_delivery}")
    print(f"termination={verdict.termination}")
    print(f"dag_invariants={verdict.dag_invariants}")
    print(f"quiescence_tick={metrics.quiescence_tick}")
    print(f"convergence_tick={metrics.convergence_tick}")
    print(f"wrote {width_path}")
    print(f"wrote {trace_path}")
    return 0 if verdict.all_ok() else 1


def cmd_width_expect(args: argparse.Namespace) -> int:
    rows = mean_trajectory(args.u0, args.d, args.k, args.rounds)
    lines = ["round,mean_width,stddev_removal"]
    for row in rows:
        lines.append(f"{row.round},{_fmt(row.mean_width)},{_fmt(row.stddev_removal)}")
    _emit_csv(
        lines,
        _out_dir(args),
        f"trajectory-u{args.u0}-d{args.d}-k{args.k}-rounds{args.rounds}.csv",
    )
    return 0


def cmd_width_pmf(args: argparse.Namespace) -> int:
    pmf = pmf_removed(args.u, args.d, args.k, exact=True)
    lines = ["j,probability"]
    for j in pmf.support():
        lines.append(f"{j},{_fmt(pmf[j])}")
    _emit_csv(lines, _out_dir(args), f"pmf-u{args.u}-d{args.d}-k{args.k}.csv")
    return 0


def cmd_width_rounds(args: argparse.Namespace) -> int:
    ds = _parse_range(args.d)
    ks = _parse_range(args.k)
    lines = ["d,k,rounds"]
    for k in ks:
        for d in ds:
            u0 = args.u0_mult * k
            lines.append(f"{d},{k},{rounds_until_convergence(u0, d, k)}")
    d_tag = args.d.replace("..", "-")
    k_tag = args.k.replace("..", "-")
    _emit_csv(lines, _out_dir(args), f"rounds-d{d_tag}-k{k_tag}-mult{args.u0_mult}.csv")
    return 0


def cmd_width_montecarlo(args: argparse.Namespace) -> int:
    rows = monte_carlo_trajectory(args.u0, args.d, args.k, args.rounds, args.trials, args.seed)
    lines = ["round,mean_width,lo95,hi95"]
    for row in rows:
        lines.append(f"{row.round},{_fmt(row.mean_width)},{_fmt(row.lo)},{_fmt(row.hi)}")
    _emit_csv(
        lines,
        _out_dir(args),
        f"montecarlo-u{args.u0}-d{args.d}-k{args.k}-trials{args.trials}-seed{args.seed}.csv",
    )
    return 0


# -- verify suites -----------------------------------------------------------------

Check = tuple[str, bool]


def _verify_urn() -> list[Check]:
    checks: list[Check] = []
    ok = True
    for u in range(3, 7):
        for d in (2, 3):
            if d >= u:
                continue
            for k in (1, 2, 3):
                if pmf_removed(u, d, k, exact=True).probs != brute_force_pmf(u, d, k).probs:
                    ok = False
    checks.append(("pmf matches brute-force enumeration", ok))
    pmf = pmf_removed(4, 2, 2, exact=True)
    checks.append(
        ("moments of (4,2,2) are 3 and 1/3", pmf.mean() == 3 and pmf.variance() == Fraction(1, 3))
    )
    ok = True
    for u, d, k in [(4, 2, 2), (6, 2, 3), (9, 3, 4), (20, 5, 6), (50, 7, 9)]:
        closed = variance_removed(u, d, k)
        rec = variance_removed_recursive(u, d, k)
        if abs(closed - rec) > 1e-12 * max(1.0, abs(closed)):
            ok = False
    checks.append(("closed-form variance matches recursion", ok))
    checks.append(
        (
            "saturation: (10,5,k=40) drains the urn",
            abs(expected_removed(10, 5, 40) - 10) < 1e-6 and variance_removed(10, 5, 40) < 1e-6,
        )
    )
    checks.append(
        (
            "fixed points for d=5, k=10/15/20 are 11/16/21",
            (fixed_point(5, 10), fixed_point(5, 15), fixed_point(5, 20)) == (11, 16, 21),
        )
    )
    return checks


def _verify_lemmas() -> list[Check]:
    checks: list[Check] = []
    ops = make_op_soup(4, 20, seed=11)
    baseline = replay_schedule(list(ops))
    rng = Random("verify:lemmas")
    ok = True
    for _ in range(50):
        schedule = list(ops)
        rng.shuffle(schedule)
        if replay_schedule(schedule) != baseline:
            ok = False
    checks.append(("50 shuffled schedules reach one digest", ok))

    failures: list[str] = []

    def invariant(state) -> None:
        if not state.is_rooted_dag():
            failures.append("rooted-dag")
        if not state.get_extremities():
            failures.append("empty extremities")

    schedule = list(ops)
    rng.shuffle(schedule)
    replay_schedule(schedule, check=invariant)
    checks.append(("rooted DAG after every applied op", not failures))

    double = list(ops) + list(ops)
    checks.append(("double delivery is idempotent", replay_schedule(double) == baseline))
    return checks


def _verify_sec() -> list[Check]:
    checks: list[Check] = []
    base = dict(
        f=0,
        drop=0.0,
        duplicate=0.0,
        partitions=(),
        adversary=None,
        updates_per_round=2,
        d=2,
        dummy_threshold=0,
        dummy_d=10,
        gossip_period=0,
        grace=30,
        seed=5,
    )
    happy = ScenarioSpec(
        n=3, guarantee=DeliveryGuarantee.RELIABLE, delay=(1, 5), rounds=5, horizon=200, **base
    )
    _, verdict = run_scenario(happy)
    checks.append(("reliable happy path: all verdict flags hold", verdict.all_ok()))
    reorder = ScenarioSpec(
        n=3, guarantee=DeliveryGuarantee.RELIABLE, delay=(1, 60), rounds=5, horizon=400, **base
    )
    _, verdict = run_scenario(reorder)
    checks.append(("reliable with heavy reordering: all verdict flags hold", verdict.all_ok()))
    widths = run_lockstep_rounds(3, DUMMY_D, 30, seed=5, u0=40, dummy_threshold=10)
    checks.append(
        ("dummy depletion plateaus at or below analytic fixed point", min(widths) <= fixed_point(DUMMY_D, 3))
    )
    return checks


_SUITES = {"urn": _verify_urn, "lemmas": _verify_lemmas, "sec": _verify_sec}


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    failed = 0
    for name in names:
        for label, ok in _SUITES[name]():
            print(f"{'PASS' if ok else 'FAIL'} [{name}] {label}")
            if not ok:
                failed += 1
    return 1 if failed else 0


# -- parser ------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meg",
        description="Replicated event-graph simulator and extremity-width analytics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("sim", help="run a scenario file and grade the outcome")
    p_sim.add_argument("--scenario", required=True, help="scenario JSON file")
    p_sim.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_sim.add_argument("--out", default=None, help="artifact directory (default: current)")
    p_sim.set_defaults(func=cmd_sim)

    p_width = sub.add_parser("width", help="extremity-width analytics")
    wsub = p_width.add_subparsers(dest="width_command", required=True)

    p_exp = wsub.add_parser("expect", help="mean-field width trajectory CSV")
    p_exp.add_argument("--u0", type=int, required=True)
    p_exp.add_argument("--d", type=int, required=True)
    p_exp.add_argument("--k", type=int, required=True)
    p_exp.add_argument("--rounds", type=int, required=True)
    p_exp.add_argument("--out", default=None)
    p_exp.set_defaults(func=cmd_width_expect)

    p_pmf = wsub.add_parser("pmf", help="exact removal distribution CSV")
    p_pmf.add_argument("--u", type=int, required=True)
    p_pmf.add_argument("--d", type=int, required=True)
    p_pmf.add_argument("--k", type=int, required=True)
    p_pmf.add_argument("--out", default=None)
    p_pmf.set_defaults(func=cmd_width_pmf)

    p_rounds = wsub.add_parser("rounds", help="rounds-until-convergence grid CSV")
    p_rounds.add_argument("--d", required=True, help="value or inclusive range like 2..10")
    p_rounds.add_argument("--k", required=True, help="value or inclusive range like 10..20")
    p_rounds.add_argument("--u0-mult", dest="u0_mult", type=int, default=100)
    p_rounds.add_argument("--out", default=None)
    p_rounds.set_defaults(func=cmd_width_rounds)

    p_mc = wsub.add_parser("montecarlo", help="simulated width trajectory with 95% band")
    p_mc.add_argument("--u0", type=int, required=True)
    p_mc.add_argument("--d", type=int, required=True)
    p_mc.add_argument("--k", type=int, required=True)
    p_mc.add_argument("--rounds", type=int, required=True)
    p_mc.add_argument("--trials", type=int, default=1000)
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.add_argument("--out", default=None)
    p_mc.set_defaults(func=cmd_width_montecarlo)

    p_verify = sub.add_parser("verify", help="run built-in cross-check suites")
    p_verify.add_argument("--suite", choices=[*_SUITES, "all"], default="all")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
