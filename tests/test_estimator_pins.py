"""
Monte Carlo estimator reports as recorded: every field of each call in
`estimator_pins.reports`, by `float.hex`, on its three seeded markets. A
change of batch layout, reduction order or random stream that moves any
estimate shows here, field by field.
"""
import json

import pytest
from estimator_pins import MARKETS, PINS, reports

RECORDED = json.loads(PINS.read_text(encoding="utf-8"))


def test_every_market_is_recorded():
    assert sorted(RECORDED) == sorted(MARKETS)


@pytest.mark.parametrize("name", MARKETS)
def test_estimator_reports_match_the_recording(name):
    got, want = reports(name), RECORDED[name]
    assert sorted(got) == sorted(want)
    for call in want:
        assert got[call] == want[call], call
