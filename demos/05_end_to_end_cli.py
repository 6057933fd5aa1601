"""The whole pipeline through the command-line surface.

Simulates a dataset, audits its overlap structure, prunes duplicate labels,
sweeps the pruning threshold, and measures camera/LiDAR redundancy, all via
the same entry point the installed ``redkit`` script uses. Outputs land in
a temporary directory whose layout is printed at the end.
"""

import json
import tempfile
from pathlib import Path

from redkit.cli import main


def run(*args):
    argv = [str(a) for a in args]
    print(f"\n$ redkit {' '.join(argv)}")
    code = main(argv)
    if code != 0:
        raise SystemExit(f"command failed with exit code {code}")


def demo():
    root = Path(tempfile.mkdtemp(prefix="redkit-demo-"))
    data = root / "dataset"

    run("sim", "--out", data, "--seed", 20_240, "--n-objects", 12,
        "--n-frames", 8, "--drop-rate", "0.3", "--detection-noise", "0.1",
        "--nuscenes-ring")

    run("audit", "--dataset", data, "--out", root / "audit")
    audit = json.loads((root / "audit" / "audit.json").read_text())
    pairs = audit["scenes"][0]["overlap_graph"]
    print(f"  audit found {len(pairs)} overlapping camera pairs, "
          f"{audit['label_totals']['groups']} redundancy groups")

    run("prune", "--dataset", data, "--out", root / "prune", "--tau", "0.3")
    report = json.loads((root / "prune" / "prune_report.json").read_text())
    print(f"  pruned {report['deleted']} labels, kept {report['remaining']}, "
          f"tracks intact at {report['tracks']}")

    run("sweep", "--dataset", data, "--out", root / "sweep",
        "--taus", "0.1,0.2,0.3,0.4,0.5,0.6")
    print("  " + (root / "sweep" / "sweep.csv").read_text().strip().replace("\n", "\n  "))

    run("mm", "--dataset", data, "--out", root / "mm", "--t-dist", "0,5,10,20")
    print("  " + (root / "mm" / "mm_sweep.csv").read_text().strip().replace("\n", "\n  "))

    print("\nartifacts:")
    labels = sorted((root / "prune" / "labels").glob("*.txt"))
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.parent.name != "labels":
            print(f"  {path.relative_to(root)}")
    print(f"  prune/labels/ ({len(labels)} files, e.g. {labels[0].name})")


if __name__ == "__main__":
    demo()
