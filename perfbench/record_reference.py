"""Write reference_values.json: the outputs of the fixed-instance tasks.

    PYTHONPATH=src python3 perfbench/record_reference.py

The fixed instances (example_a3(m), the discretized thin market, the
lp-oracle-chain fixtures) do not depend on the workload seed. Their values
were recorded once, at the commit that defined this benchmark, and every run
compares against them; re-recording is only right when a change is meant to
alter these values and says so.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

FIXED = ("a3-", "a2d.", "chain-")


def main() -> None:
    values = {}
    for name in ("exact-grid", "lp-oracle"):
        for task in workloads.build(name, 0):
            if task.id.startswith(FIXED):
                values[task.id] = task.run()
    workloads.RECORDED_PATH.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(values)} values in {workloads.RECORDED_PATH}")


if __name__ == "__main__":
    main()
