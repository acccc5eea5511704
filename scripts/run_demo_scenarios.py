#!/usr/bin/env python3
"""Run every bundled demo scenario and collect their artifacts.

The scenarios are the `*.json` files of `scripts/scenarios/`, run in name
order; each one exercises one delivery regime:

* `droppy` loses and duplicates messages until gossip repairs the gaps;
* `equivocation` forks a byzantine sender across a healing partition;
* `happy3` is the clean baseline;
* `reorder` stretches delays so that children arrive before their parents;
* `withhold` has a byzantine sender leave one replica out of every send, so
  that replica gets those ops only by backfill and must still apply their
  buffered children.

Artifacts are named by scenario, so they do not depend on the run order.
Every scenario is expected to end with every verdict flag true (exit 0).
"""

import argparse
import sys
from pathlib import Path

from meg.cli import main as meg

SCENARIO_DIR = Path(__file__).parent / "scenarios"


def run(out_dir: str) -> int:
    worst = 0
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        print(f"== {path.name}")
        code = meg(["sim", "--scenario", str(path), "--out", out_dir])
        if code != 0:
            print(f"verdict failure ({code}): {path.name}", file=sys.stderr)
            worst = max(worst, code)
    return worst


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results", help="output directory (default: results)")
    args = parser.parse_args()
    sys.exit(run(args.out))
