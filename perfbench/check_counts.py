"""Run the traced benchmark twice with one seed and compare every count.

    python3 perfbench/check_counts.py --workload exact-grid --seed 1 --seconds 20

A later change may rest a claim on a count metric only if this passes: the
counts must repeat exactly between two processes, not just between the two
traced batches inside one run (which run.py already requires).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def counts(workload: str, seed: int, seconds: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", seconds, "--trace", "1"],
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"traced run not correct:\n{out}")
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", default="20")
    args = ap.parse_args()
    first = counts(args.workload, args.seed, args.seconds)
    second = counts(args.workload, args.seed, args.seconds)
    diff = {name: (first[name], second.get(name)) for name in first if first[name] != second.get(name)}
    for name, value in sorted(first.items()):
        print(f"{name} = {value:g}{'  DIFFERS: ' + str(diff[name]) if name in diff else ''}")
    print(f"{len(first) - len(diff)} of {len(first)} counts identical across two traced runs")
    return 1 if diff or set(first) != set(second) else 0


if __name__ == "__main__":
    sys.exit(main())
