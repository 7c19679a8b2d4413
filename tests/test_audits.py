"""
Tests for the audit layer: GFT estimation (Monte Carlo and exact), first-best
computation, budget and IR audits, and the seller misreport scan.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsic_reference import dsic_audit_sellers, expost_ok
from gft_lab import audits, bounds
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



# -- one draw, one pass --------------------------------------------------------


def one_pass_case(name):
    """A mechanism of each kind on a market of its own: posted prices on a
    five-item uniform market, buyer-offering on the continuous bilateral a1,
    seller-offering on the discrete a3, unlikely-rule SAPP on a2."""
    if name == "fpp":
        inst = instances.random_instance(5, "uniform", seed=2024, constraint="unit_demand")
        p = [0.5 * sum(dd.support()) for dd in inst.buyer_dists]
        return inst, mech.Fpp(inst, p, [min(pi, 0.5 * sum(dd.support())) for pi, dd in zip(p, inst.seller_dists)])
    if name == "buyer_offering":
        inst = instances.example_a1(4.0)
        return inst, mech.BuyerOffering(inst)
    if name == "seller_offering":
        inst = instances.example_a3(8)
        return inst, mech.SellerOffering(inst)
    inst = instances.example_a2(4, 6.0)
    return inst, mech.Sapp(inst, mech.sapp_build(inst, mech.unlikely_trade_rule(inst, bounds.hl_split(inst)[1])))


def hexes(*values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("samples", [40, 10**4, 12000])
@pytest.mark.parametrize("name", ["fpp", "buyer_offering", "seller_offering", "sapp"])
def test_audit_report_columns_equal_the_single_audits(name, samples):
    inst, m = one_pass_case(name)
    rep = audits.audit_report(m, inst, samples=samples, seed=21)
    assert hexes(rep.gft, rep.gft_stderr) == hexes(*audits.estimate_gft(m, inst, samples, 21))
    if samples <= 10**4:
        bud = audits.budget_audit(m, inst, samples, 21)
        ir = audits.ir_audit(m, inst, samples, 21)
        got = (rep.expost_budget_min, rep.exante_budget, rep.exante_budget_stderr, rep.buyer_ir_min, rep.seller_ir_min)
        assert hexes(*got) == hexes(bud.expost_min_slack, bud.exante_slack, bud.exante_stderr, *ir)


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("samples", [40, 10**4, 12000])
def test_audit_report_runs_each_drawn_row_once(samples, exact, monkeypatch):
    inst = ud2a()
    m = mech.Fpp(inst, [1.0, 0.9], [0.5, 0.6])
    calls = {"_sample": [], "outcome_batch": [], "run_batch": []}

    def count(name, fn):
        def wrapped(*args, **kwargs):
            calls[name].append(args[1] if name == "_sample" else len(args[0]))
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(audits, "_sample", count("_sample", audits._sample))
    m.outcome_batch = count("outcome_batch", m.outcome_batch)
    m.run_batch = count("run_batch", m.run_batch)
    audits.audit_report(m, inst, samples=samples, seed=22, exact=exact)
    k = min(samples, 10**4)
    assert calls["_sample"] == [k if exact else samples]
    assert calls["outcome_batch"] == [k]
    assert len(calls["run_batch"]) <= (0 if exact else 1)
    assert sum(calls["outcome_batch"] + calls["run_batch"]) == calls["_sample"][0]


def test_sample_counts_below_one_are_refused():
    inst = ud2a()
    m = mech.Fpp(inst, [1.0, 0.9], [0.5, 0.6])
    for call in (
        lambda: audits.estimate_gft(m, inst, samples=0, seed=1),
        lambda: audits.audit_report(m, inst, samples=0, seed=1),
        lambda: audits.audit_report(m, inst, samples=-1, seed=1, exact=True),
        lambda: audits.first_best_gft(inst, "mc", samples=0, seed=1),
    ):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            call()


LATTICE = [k / 4 for k in range(9)]


@st.composite
def lattice_markets(draw, max_n):
    """A market of 1..max_n items on a quarter lattice, each item able to trade."""
    n = draw(st.integers(1, max_n))

    def dist():
        k = draw(st.integers(2, 3))
        vals = draw(st.lists(st.sampled_from(LATTICE), min_size=k, max_size=k, unique=True))
        w = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
        return d(vals, [x / sum(w) for x in w])

    items = []
    while len(items) < n:
        b, s = dist(), dist()
        if dst.trade_probability(b, s) > 0.0:
            items.append((b, s))
    constraint = draw(st.sampled_from([fea.unit_demand, fea.additive]))(range(n))
    return mech.market([b for b, _ in items], [s for _, s in items], constraint)


@pytest.mark.parametrize("kind", ["fpp", "buyer_offering", "seller_offering", "sapp-reduction", "sapp-unlikely"])
@given(data=st.data())
@settings(max_examples=20)
def test_exact_and_monte_carlo_gft_agree(kind, data):
    inst = data.draw(lattice_markets(1 if kind == "seller_offering" else 3))
    n = inst.n
    if kind == "fpp":
        p = data.draw(st.lists(st.sampled_from(LATTICE), min_size=n, max_size=n))
        m = mech.Fpp(inst, p, p)
    elif kind == "buyer_offering":
        m = mech.BuyerOffering(inst)
    elif kind == "seller_offering":
        m = mech.SellerOffering(inst)
    elif kind == "sapp-reduction":
        m = mech.Sapp(inst, mech.sapp_build(inst, mech.reduction_rule(inst)))
    else:
        L = data.draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
        m = mech.Sapp(inst, mech.sapp_build(inst, mech.unlikely_trade_rule(inst, L)))
    exact = audits.audit_report(m, inst, samples=3000, seed=23, exact=True)
    mc = audits.audit_report(m, inst, samples=3000, seed=23)
    assert abs(mc.gft - exact.gft) <= 5.0 * mc.gft_stderr + 1e-12
