#!/usr/bin/env python3
"""Run the bundled demo scenarios and collect their artifacts.

Each scenario exercises one delivery regime: `happy3` is the clean baseline,
`reorder` stretches delays to force parent-before-child violations, `droppy`
loses and duplicates messages until gossip repairs the gaps,
`equivocation` forks a byzantine sender across a healing partition, and
`equivocation-causal` does the same under `CausalOrderReliable` (the
`Reliable` transport, with parent-causal delivery done by the replica's
pending buffer), and `withhold-causal` has a byzantine sender leave one
replica out of every send under `CausalOrderReliable`, so that replica gets
those ops only by backfill and must still apply their buffered children.
All six are expected to end with every verdict flag true (exit 0).
"""

import argparse
import sys
from pathlib import Path

from meg.cli import main as meg

SCENARIOS = [
    "happy3.json",
    "reorder.json",
    "droppy.json",
    "equivocation.json",
    "equivocation-causal.json",
    "withhold-causal.json",
]


def run(out_dir: str) -> int:
    scenario_dir = Path(__file__).parent / "scenarios"
    worst = 0
    for name in SCENARIOS:
        print(f"== {name}")
        code = meg(["sim", "--scenario", str(scenario_dir / name), "--out", out_dir])
        if code != 0:
            print(f"verdict failure ({code}): {name}", file=sys.stderr)
            worst = max(worst, code)
    return worst


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory (default: results)")
    args = parser.parse_args()
    sys.exit(run(args.out))
