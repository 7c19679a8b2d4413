"""Recorded command-line runs: the argv list that `test_cli_golden.py`
replays and the script that records their stdout.

    PYTHONPATH=src python tests/cli_golden.py

rewrites `tests/cli_golden.json` from the current code. Rewrite it only when
a change of output is intended, and list the moved values with the change.
"""
import contextlib
import io
import json
import sys
from pathlib import Path

from gft_lab import cli

GOLDEN = Path(__file__).with_name("cli_golden.json")

RUNS = {
    "simulate-a3-exact": ["simulate", "--example", "a3", "--param", "m=8", "--mechanism", "buyer_offering",
                          "--mechanism", "seller_offering", "--exact"],
    "simulate-a3-sapp-reduction-exact": ["simulate", "--example", "a3", "--param", "m=8", "--mechanism", "sapp",
                                         "--rule", "reduction", "--exact", "--format", "json"],
    "simulate-a1-mc-csv": ["simulate", "--example", "a1", "--mechanism", "buyer_offering", "--mechanism",
                           "seller_offering", "--samples", "2000", "--seed", "1"],
    "simulate-a1-mc-json": ["simulate", "--example", "a1", "--param", "t=4", "--mechanism", "buyer_offering",
                            "--samples", "12000", "--seed", "2", "--format", "json"],
    "simulate-a2-sapp-mc": ["simulate", "--example", "a2", "--param", "n=3", "--mechanism", "sapp", "--mechanism",
                            "buyer_offering", "--samples", "1500", "--seed", "3"],
    "simulate-a2-sapp-reduction-mc": ["simulate", "--example", "a2", "--mechanism", "sapp", "--rule", "reduction", "--seed",
                                      "1", "--samples", "2000"],
    "bounds-a3": ["bounds", "--example", "a3", "--param", "m=6", "--samples", "2000", "--seed", "4"],
    "oracle-a3": ["oracle", "--example", "a3", "--param", "m=6"],
    "example-a2": ["example", "--example", "a2"],
}


def run(argv: list[str]) -> dict:
    """One in-process run: its exit code and everything it wrote to stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue()}


def main() -> int:
    runs = {name: run(argv) for name, argv in RUNS.items()}
    GOLDEN.write_text(json.dumps(runs, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(runs)} runs to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
