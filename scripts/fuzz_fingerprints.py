#!/usr/bin/env python3
"""Fingerprint a fixed set of generated scenarios, or compare two fingerprint files.

Usage, from the root of a source checkout:

    python scripts/fuzz_fingerprints.py --cases 300 --out fingerprints.jsonl
    python scripts/fuzz_fingerprints.py --src ../other/src --cases 300 --out other.jsonl
    python scripts/fuzz_fingerprints.py --compare fingerprints.jsonl other.jsonl

Case i is generated from its index alone, so every checkout and every rerun
sees the same scenarios: n from 2 to 5, both delivery guarantees, drops,
duplicates, one healing partition, an equivocating, withholding or orphan
flooding replica (or two behaviours at once), gossip and dummies.  The third
entry of `GUARANTEES` is the Reliable transport's old name, which the parser
still reads as Reliable; it stays so that case i keeps its spec and its spec
hash, and earlier fingerprint files still compare byte for byte.  Each case
runs through `meg.harness.Simulation` imported from `--src`, stepped to its
horizon as `run_scenario` does, and its line records the spec hash, the
SHA-256 of the trace, of the width and buffer series, of the applied sets and
of the signatures of every replica's applied and buffered ops (in id
order), the number of trace lines of each kind, the applied counts,
`rejected_ops`, `stale_parent_ops`, the convergence and quiescence ticks,
the final digests and the verdict.  Two checkouts behave the same on these
cases when their files are byte-identical; `--compare` prints the cases
that differ, grouped by guarantee, faults and behaviour, tallies the differing
cases per field, and exits 1 if there is any.  It then sums up the verdicts
from A to B: for each flag, the cases that went true to false and false to
true, the change in convergence tick over the cases that converged on
both sides, and, per trace kind, the lines summed over the cases in both
files with the change from A to B.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import sys
from collections import Counter
from pathlib import Path
from random import Random

DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src"

GUARANTEES = ("BestEffort", "Reliable", "CausalOrderReliable")
BEHAVIOURS = ("none", "equivocate", "withhold", "orphan_flood", "mixed")
HORIZON = 300


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _behaviour(rng: Random, kind: str, correct: list[int], rounds: int) -> list[dict]:
    if kind == "equivocate":
        split = rng.randint(1, len(correct) - 1)
        return [
            {
                "kind": "equivocate",
                "subset_a": correct[:split],
                "subset_b": correct[split:],
                "at_round": rng.randrange(rounds),
            }
        ]
    if kind == "withhold":
        return [{"kind": "withhold", "skip": [rng.choice(correct)]}]
    if kind == "orphan_flood":
        return [{"kind": "orphan_flood", "rate": rng.randint(1, 5)}]
    first = rng.choice(("equivocate", "withhold"))
    return _behaviour(rng, first, correct, rounds) + _behaviour(rng, "orphan_flood", correct, rounds)


def make_case(i: int) -> dict:
    """The scenario dict of case i; it depends on i alone."""
    rng = Random(f"meg-fuzz:{i}")
    n = rng.randint(2, 5)
    guarantee = GUARANTEES[i % len(GUARANTEES)]
    behaviour = rng.choice(BEHAVIOURS) if n >= 3 else "none"
    rounds = rng.randint(1, 6)
    adversary = None
    if behaviour != "none":
        byz = rng.randrange(n)
        correct = [r for r in range(n) if r != byz]
        rng.shuffle(correct)
        adversary = {"byzantine": [byz], "behaviors": _behaviour(rng, behaviour, correct, rounds)}
    partitions = []
    if rng.random() < 0.3:
        start = rng.randint(0, 30)
        side = rng.sample(range(n), rng.randint(1, n - 1))
        partitions.append([start, start + rng.randint(1, 60), sorted(side)])
    dummy_threshold = rng.choice((0, 0, 0, 3, 5))
    return {
        "n": n,
        "f": 0 if adversary is None else 1,
        "guarantee": guarantee,
        "delay": [1, rng.choice((1, 5, 10, 30))],
        "drop": rng.choice((0.0, 0.1, 0.3)) if guarantee == "BestEffort" else 0.0,
        "duplicate": rng.choice((0.0, 0.3)),
        "partitions": partitions,
        "adversary": adversary,
        "rounds": rounds,
        "updates_per_round": rng.randint(0, 3),
        "d": rng.randint(2, 4),
        "dummy_threshold": dummy_threshold,
        "dummy_d": rng.randint(2, 6) if dummy_threshold else 10,
        "gossip_period": rng.choice((0, 0, 10, 25)),
        "horizon": HORIZON,
        "grace": rng.choice((20, 40)),
        "seed": rng.randrange(1_000_000),
    }


def group_of(raw: dict) -> dict:
    """The labels differences are grouped by."""
    faults = [
        name
        for name, on in (
            ("drop", raw["drop"] > 0),
            ("duplicate", raw["duplicate"] > 0),
            ("partition", bool(raw["partitions"])),
            ("gossip", raw["gossip_period"] > 0),
            ("dummies", raw["dummy_threshold"] > 0),
        )
        if on
    ]
    behaviours = [b["kind"] for b in raw["adversary"]["behaviors"]] if raw["adversary"] else []
    return {
        "guarantee": raw["guarantee"],
        "faults": "+".join(faults) or "none",
        "behaviour": "+".join(behaviours) or "none",
    }


def held_signatures(node) -> bytes:
    """The signatures of the ops a replica applied or buffered, in id order.

    The replica holds each signed envelope itself, in the state or the
    buffer; the root carries no signature.
    """
    held = {**node.state.vertices, **node.buffer.held}
    del held[node.state.root]
    return b"".join(held[vid].signature for vid in sorted(held))


def fingerprint(harness, i: int) -> dict:
    raw = make_case(i)
    spec = harness.parse_scenario(raw)
    sim = harness.Simulation(spec)
    for _ in range(spec.horizon):
        sim.step()
    metrics, verdict = sim.finish()
    signatures = b"|".join(held_signatures(node) for node in sim.nodes)
    return {
        "case": i,
        **group_of(raw),
        "spec": _sha(json.dumps(raw, sort_keys=True).encode()),
        "trace": _sha(harness.trace_tsv(metrics).encode()),
        "kinds": Counter(ev.kind for ev in metrics.trace),
        "widths": _sha(harness.width_series_csv(metrics).encode()),
        "occupancy": _sha(json.dumps(metrics.buffer_occupancy).encode()),
        "applied_sets": _sha(b"|".join(b"".join(sorted(s)) for s in metrics.applied_sets)),
        "signatures": _sha(signatures),
        "applied_counts": metrics.applied_counts,
        "rejected_ops": metrics.rejected_ops,
        "stale_parent_ops": metrics.stale_parent_ops,
        "convergence_tick": metrics.convergence_tick,
        "quiescence_tick": metrics.quiescence_tick,
        "digests": [d.hex() for d in metrics.final_digests],
        "verdict": {
            "strong_convergence": verdict.strong_convergence,
            "eventual_delivery": verdict.eventual_delivery,
            "termination": verdict.termination,
            "dag_invariants": verdict.dag_invariants,
        },
    }


def import_harness(src: Path):
    sys.path.insert(0, str(src))
    harness = importlib.import_module("meg.harness")
    if Path(harness.__file__).resolve().parent != src / "meg":
        raise SystemExit(f"error: imported meg from {harness.__file__}, not from {src}")
    return harness


def write(src: Path, cases: int, out: Path) -> int:
    harness = import_harness(src)
    with out.open("w") as fh:
        for i in range(cases):
            fh.write(json.dumps(fingerprint(harness, i), sort_keys=True) + "\n")
    print(f"{cases} cases written to {out}")
    return 0


def _load(path: Path) -> dict[int, dict]:
    return {row["case"]: row for row in map(json.loads, path.read_text().splitlines())}


def compare(a_path: Path, b_path: Path) -> int:
    a, b = _load(a_path), _load(b_path)
    differing = []
    for i in sorted(set(a) | set(b)):
        row_a, row_b = a.get(i), b.get(i)
        if row_a is None or row_b is None:
            missing = a_path if row_a is None else b_path
            differing.append((i, row_a or row_b, [f"missing from {missing}"]))
            continue
        fields = sorted(k for k in set(row_a) | set(row_b) if row_a.get(k) != row_b.get(k))
        if fields:
            differing.append((i, row_a, fields))
    for i, row, fields in differing:
        print(
            f"case {i} [{row['guarantee']} / {row['faults']} / {row['behaviour']}]: "
            + ", ".join(fields)
        )
    for label in ("guarantee", "faults", "behaviour"):
        counts = Counter(row[label] for _, row, _ in differing)
        if counts:
            print(f"by {label}: " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
    by_field = Counter(field for _, _, fields in differing for field in fields)
    if by_field:
        print("by field: " + ", ".join(f"{k} {v}" for k, v in sorted(by_field.items())))
    print(f"{len(differing)} of {len(set(a) | set(b))} cases differ")
    pairs = [(a[i], b[i]) for i in sorted(set(a) & set(b))]
    verdict_summary(pairs)
    kind_summary(pairs)
    return 1 if differing else 0


def verdict_summary(pairs: list[tuple[dict, dict]]) -> None:
    """Print the verdict flags that flipped and the convergence-tick delta, A to B."""
    for flag in pairs[0][0]["verdict"] if pairs else ():
        for was, now in ((True, False), (False, True)):
            cases = [
                ra["case"]
                for ra, rb in pairs
                if (ra["verdict"][flag], rb["verdict"][flag]) == (was, now)
            ]
            listed = ", ".join(map(str, cases)) if cases else "none"
            print(f"{flag} {str(was).lower()}->{str(now).lower()}: {len(cases)} ({listed})")
    deltas = [
        rb["convergence_tick"] - ra["convergence_tick"]
        for ra, rb in pairs
        if ra["convergence_tick"] is not None and rb["convergence_tick"] is not None
    ]
    if deltas:
        print(
            f"convergence_tick delta over {len(deltas)} cases converged on both sides: "
            f"mean {sum(deltas) / len(deltas):+.3f}, min {min(deltas):+d}, max {max(deltas):+d}, "
            f"{sum(d != 0 for d in deltas)} moved"
        )
    else:
        print("convergence_tick delta: no case converged on both sides")


def kind_summary(pairs: list[tuple[dict, dict]]) -> None:
    """Print the trace lines of each kind summed over `pairs`, A to B.

    A file written before the kinds were recorded counts as having none.
    """
    total_a: Counter = Counter()
    total_b: Counter = Counter()
    for ra, rb in pairs:
        total_a.update(ra.get("kinds", {}))
        total_b.update(rb.get("kinds", {}))
    for kind in sorted(total_a.keys() | total_b.keys()):
        was, now = total_a[kind], total_b[kind]
        print(f"trace {kind}: {was} -> {now} ({now - was:+d})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=DEFAULT_SRC, help="directory holding meg/")
    parser.add_argument("--cases", type=int, default=300)
    parser.add_argument("--out", type=Path, help="fingerprint file to write")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        parser.error("--out is required unless --compare is given")
    if args.cases < 1:
        parser.error("--cases must be positive")
    if not (args.src / "meg" / "__init__.py").is_file():
        parser.error(f"no meg sources under {args.src}")
    return write(args.src.resolve(), args.cases, args.out)


if __name__ == "__main__":
    sys.exit(main())
