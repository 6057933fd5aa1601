"""Set up one workload: generate, write and reference its inputs.

Usage: python3 perfbench/prepare.py --workload NAME --seed N --out DIR

Prints one JSON line with the phase timings and a digest of the files
written. ``run.py`` runs this as a child process so that set-up memory does
not count toward the timed part's peak.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import checkout


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    checkout.use_checkout_source()
    import workloads

    print(json.dumps(workloads.prepare(args.workload, args.seed, args.out)))


if __name__ == "__main__":
    main()
