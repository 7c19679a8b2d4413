"""Recorded Monte Carlo estimator reports: the markets and calls that
`test_estimator_pins.py` replays, and the script that records them.

    PYTHONPATH=src python tests/estimator_pins.py

rewrites `tests/estimator_pins.json` from the current code, every float as
`float.hex`. Three seeded continuous markets (unit-demand n = 5, additive
n = 9, k-uniform(3) n = 12), each through every field of
`benchmark_decomposition` (term3..term6 included), `prophet_threshold`,
`sb_gft_upper`, the Monte Carlo `opt_b` and `first_best_gft`, and
`audit_report(BuyerOffering)`. Rewrite it only when a change of output is
intended, and list the moved values with the change.
"""
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from gft_lab import audits, bounds, instances
from gft_lab import feasibility as fea
from gft_lab import mechanisms as mech

PINS = Path(__file__).with_name("estimator_pins.json")


def market(name: str) -> mech.MarketInstance:
    if name == "unit5":
        return instances.random_instance(5, "uniform", seed=31, constraint="unit_demand")
    if name == "additive9":
        return instances.random_instance(9, "uniform", seed=32, constraint="additive")
    base = instances.random_instance(12, "uniform", seed=33)
    return mech.market(base.buyer_dists, base.seller_dists, fea.k_uniform(3, range(12)))


MARKETS = ("unit5", "additive9", "k3of12")


def encode(x):
    """Floats as float.hex, recursively through reports, tuples, dicts and arrays."""
    if dataclasses.is_dataclass(x):
        return {f.name: encode(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {str(k): encode(v) for k, v in x.items()}
    if isinstance(x, np.ndarray):
        return encode(x.tolist())
    if isinstance(x, (list, tuple)):
        return [encode(v) for v in x]
    if isinstance(x, (bool, np.bool_, str)):
        return x if isinstance(x, str) else bool(x)
    return float(x).hex()


def reports(name: str) -> dict:
    """Every pinned call on one market, each on a fresh MarketInstance."""
    base = market(name)

    def fresh():
        return mech.MarketInstance(base.buyer_dists, base.seller_dists, base.constraint)

    p = [0.5 * sum(d.support()) for d in base.buyer_dists]
    inst = fresh()
    return {
        "benchmark_decomposition": encode(bounds.benchmark_decomposition(fresh(), samples=3000, seed=41)),
        "prophet_threshold": encode(bounds.prophet_threshold(fresh(), p, samples=5000, seed=42)),
        "sb_gft_upper": encode(bounds.sb_gft_upper(fresh(), samples=3000, seed=43)),
        "opt_b_mc": encode(bounds.opt_b(fresh(), "mc", samples=3000, seed=44)),
        "first_best_gft_mc": encode(audits.first_best_gft(fresh(), "mc", samples=3000, seed=45)),
        "audit_report_buyer_offering": encode(audits.audit_report(mech.BuyerOffering(inst), inst, samples=300, seed=46)),
    }


def main() -> int:
    pins = {name: reports(name) for name in MARKETS}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(pins)} markets to {PINS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
