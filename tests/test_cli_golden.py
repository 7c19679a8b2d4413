"""
Command-line output as recorded: each run of `cli_golden.RUNS` gives the exit
code and the stdout bytes stored in `cli_golden.json`, so a change that moves
any printed value shows it here, line by line.
"""
import json

import pytest
from cli_golden import GOLDEN, RUNS, run

RECORDED = json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_every_run_is_recorded():
    assert sorted(RECORDED) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_matches_the_recording(name):
    got, want = run(RUNS[name]), RECORDED[name]
    assert got["argv"] == want["argv"]
    assert got["exit"] == want["exit"] == 0
    assert got["stdout"] == want["stdout"]
