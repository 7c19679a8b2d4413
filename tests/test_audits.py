"""
Tests for the audit layer: GFT estimation (Monte Carlo and exact), first-best
computation, budget and IR audits, and the seller misreport scan.
"""
import math

import numpy as np
import pytest

from dsic_reference import dsic_audit_sellers, expost_ok
from gft_lab import audits
from gft_lab import distributions as dst
from gft_lab import feasibility as fea
from gft_lab import instances
from gft_lab import mechanisms as mech

d = dst.discrete


def bilateral_uniform():
    u = dst.uniform(0.0, 1.0)
    return mech.market([u], [u], fea.additive([0]))


def ud2a():
    return mech.market(
        [d([1.0, 2.0], [0.5, 0.5]), d([0.5, 1.5], [0.5, 0.5])],
        [d([0.0, 0.5], [0.5, 0.5]), d([0.2, 1.0], [0.5, 0.5])],
        fea.unit_demand(range(2)),
    )


def test_estimate_gft_degenerate_instance():
    inst = mech.market([dst.point_mass(1.0)], [dst.point_mass(0.0)], fea.additive([0]))
    mean, err = audits.estimate_gft(mech.Fpp(inst, [0.5], [0.5]), inst, samples=200, seed=0)
    assert math.isclose(mean, 1.0, abs_tol=1e-12)
    assert math.isclose(err, 0.0, abs_tol=1e-12)


def test_estimate_gft_posted_price_half():
    inst = bilateral_uniform()
    mean, err = audits.estimate_gft(mech.Fpp(inst, [0.5], [0.5]), inst, samples=40000, seed=1)
    assert abs(mean - 0.125) <= 3.0 * err


def test_exact_gft_matches_estimate():
    inst = ud2a()
    fpp = mech.Fpp(inst, [1.0, 0.9], [0.5, 0.6])
    exact = audits.exact_gft(fpp, inst)
    mean, err = audits.estimate_gft(fpp, inst, samples=20000, seed=2)
    assert abs(mean - exact) <= 4.0 * err


def test_exact_gft_zero_trade_mechanism():
    inst = ud2a()
    # buyer price above every buyer value: nobody ever accepts
    fpp = mech.Fpp(inst, [5.0, 5.0], [0.0, 0.0])
    assert math.isclose(audits.exact_gft(fpp, inst), 0.0, abs_tol=1e-12)
    mean, err = audits.estimate_gft(fpp, inst, samples=500, seed=3)
    assert mean == 0.0 and err == 0.0


def test_buyer_offering_value_on_geometric_market():
    inst = instances.example_a3(8)
    got = audits.exact_gft(mech.BuyerOffering(inst), inst)
    assert math.isclose(got, 0.9532505580357143, abs_tol=1e-9)
    assert got <= 1.0


def test_first_best_uniform_bilateral():
    inst = bilateral_uniform()
    mean, err = audits.first_best_gft(inst, "mc", samples=200000, seed=4)
    assert abs(mean - 1.0 / 6.0) <= 3.0 * err


def test_first_best_exact_examples():
    inst = instances.example_a3(8)
    assert math.isclose(audits.first_best_gft(inst, "exact"), 2.8267857142857142, abs_tol=1e-9)
    sure = mech.market(
        [dst.point_mass(1.0)] * 3, [dst.point_mass(0.0)] * 3, fea.unit_demand(range(3))
    )
    assert math.isclose(audits.first_best_gft(sure, "exact"), 1.0, abs_tol=1e-12)


def test_first_best_dominates_mechanism():
    inst = ud2a()
    fb = audits.first_best_gft(inst, "exact")
    for m in (mech.Fpp(inst, [1.0, 0.9], [0.5, 0.6]), mech.BuyerOffering(inst)):
        assert audits.exact_gft(m, inst) <= fb + 1e-9


def test_budget_audit_posted_prices_expost():
    inst = bilateral_uniform()
    rep = audits.budget_audit(mech.Fpp(inst, [0.6, ], [0.4, ]), inst, samples=2000, seed=5)
    assert rep.expost_min_slack >= -1e-9
    assert expost_ok(rep)


def test_budget_audit_buyer_offering_exante_balanced():
    inst = ud2a()
    rep = audits.budget_audit(mech.BuyerOffering(inst), inst, samples=4000, seed=6)
    assert abs(rep.exante_slack) <= 3.0 * rep.exante_stderr + 1e-9


def test_budget_audit_sapp_weakly_balanced():
    inst = ud2a()
    sp = mech.Sapp(inst, mech.sapp_build(inst, mech.reduction_rule(inst)))
    rep = audits.budget_audit(sp, inst, samples=4000, seed=7)
    assert rep.exante_slack >= -3.0 * rep.exante_stderr - 1e-9


def test_ir_audit_posted_prices():
    inst = ud2a()
    buyer_min, seller_min = audits.ir_audit(mech.Fpp(inst, [1.0, 0.9], [0.5, 0.6]), inst, samples=1000, seed=8)
    assert buyer_min >= -1e-9
    assert seller_min >= -1e-9


def test_dsic_audit_posted_prices_clean():
    inst = bilateral_uniform()
    gain = dsic_audit_sellers(mech.Fpp(inst, [0.6], [0.5]), inst, samples=400, seed=9)
    assert gain <= 1e-9


def test_dsic_audit_sapp_exact_clean():
    inst = ud2a()
    sp = mech.Sapp(inst, mech.sapp_build(inst, mech.reduction_rule(inst)))
    assert dsic_audit_sellers(sp, inst) <= 1e-9


class FirstPricePayments:
    """Pay-as-reported variant: sellers receive their reported cost, which
    rewards overstating it."""

    name = "first_price"

    def __init__(self, inst, theta_b, theta_s):
        self.inner = mech.Fpp(inst, theta_b, theta_s)

    def outcome_batch(self, B, S, coins=None):
        X, pay_b, _ = self.inner.outcome_batch(B, S)
        return X, pay_b, np.where(X, S, 0.0)


def test_dsic_audit_detects_first_price_payments():
    # low-cost sellers: overstating the cost up to the posted price always pays
    inst = mech.market([dst.uniform(0.0, 1.0)], [dst.uniform(0.0, 0.2)], fea.additive([0]))
    broken = FirstPricePayments(inst, [0.6], [0.5])
    gain = dsic_audit_sellers(broken, inst, samples=1500, seed=10)
    assert gain > 0.01
    # the honest variant passes the same scan
    clean = dsic_audit_sellers(mech.Fpp(inst, [0.6], [0.5]), inst, samples=1500, seed=10)
    assert clean <= 1e-9


def test_audit_report_round_trip():
    inst = ud2a()
    rep = audits.audit_report(mech.Fpp(inst, [1.0, 0.9], [0.5, 0.6]), inst, samples=500, seed=11, exact=True)
    row = rep.as_dict()
    assert tuple(row) == audits.AuditReport.CSV_FIELDS
    assert row["mechanism"] == "fpp"
    assert row["exact"] is True
    assert math.isclose(row["gft_stderr"], 0.0, abs_tol=1e-12)

