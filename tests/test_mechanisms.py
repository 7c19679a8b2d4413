"""
Tests for the trading mechanisms: posted prices, constrained posted prices,
seller-adjusted posted prices, and the two one-sided offering baselines.
"""
import math

import numpy as np
import pytest

from gft_lab import audits
from gft_lab import distributions as dst
from gft_lab import feasibility as fea
from gft_lab import instances
from gft_lab import mechanisms as mech

d = dst.discrete


def ud2a():
    return mech.market(
        [d([1.0, 2.0], [0.5, 0.5]), d([0.5, 1.5], [0.5, 0.5])],
        [d([0.0, 0.5], [0.5, 0.5]), d([0.2, 1.0], [0.5, 0.5])],
        fea.unit_demand(range(2)),
    )


def ud2b():
    return mech.market(
        [d([1.0, 2.0], [0.5, 0.5]), d([0.8, 1.6], [0.4, 0.6])],
        [d([0.0, 0.5], [0.5, 0.5]), d([0.1, 0.9], [0.6, 0.4])],
        fea.unit_demand(range(2)),
    )


def test_outcome_consistency():
    inst = ud2a()
    fpp = mech.Fpp(inst, [1.0, 1.0], [0.5, 0.5])
    rng = np.random.default_rng(1)
    B, S = inst.sample_profiles(rng, 200)
    for t in range(200):
        o = fpp.run(B[t], S[t])
        assert fea.is_feasible(inst.constraint, o.traded)
        assert math.isclose(
            o.gft, sum(B[t][i] - S[t][i] for i in o.traded), abs_tol=1e-12
        )
        assert all(p == 0.0 for i, p in enumerate(o.seller_payments) if i not in o.traded)


def test_fpp_single_item_examples():
    inst = mech.market(
        [dst.uniform(0.0, 1.0)], [dst.uniform(0.0, 1.0)], fea.unit_demand([0])
    )
    fpp = mech.Fpp(inst, [0.5], [0.5])
    o = fpp.run([1.0], [0.0])
    assert o.traded == (0,)
    assert math.isclose(o.gft, 1.0, abs_tol=1e-12)
    assert math.isclose(o.buyer_payment, 0.5, abs_tol=1e-12)
    assert math.isclose(o.seller_payments[0], 0.5, abs_tol=1e-12)
    assert fpp.run([0.4], [0.0]).traded == ()
    assert fpp.run([1.0], [0.6]).traded == ()


def test_fpp_rejects_crossed_prices():
    inst = ud2a()
    with pytest.raises(ValueError):
        mech.Fpp(inst, [0.4, 0.4], [0.5, 0.5])


def test_fpp_equal_price_sweep_on_geometric_market():
    inst = instances.example_a3(8)
    support = sorted(set(inst.buyer_dists[0].values) | set(inst.seller_dists[0].values))
    for p in support:
        g = audits.exact_gft(mech.Fpp(inst, [p], [p]), inst)
        assert g <= 3.0 + 1e-9


def test_run_batch_matches_run():
    inst = ud2a()
    fpp = mech.Fpp(inst, [1.0, 0.9], [0.5, 0.6])
    rng = np.random.default_rng(2)
    B, S = inst.sample_profiles(rng, 300)
    batch = fpp.run_batch(B, S)
    loop = np.array([fpp.run(B[t], S[t]).gft for t in range(300)])
    assert np.allclose(batch, loop, atol=1e-12)


def test_cfpp_floor_one_equals_plain_posted_prices():
    u = dst.uniform(0.0, 1.0)
    inst = mech.market([u, u], [u, u], fea.additive(range(2)))
    theta_b, theta_s = [0.6, 0.5], [0.4, 0.45]
    fpp = mech.Fpp(inst, theta_b, theta_s)
    cf = mech.Cfpp(inst, theta_b, theta_s, fea.size_floor(fea.additive(range(2)), 1))
    rng = np.random.default_rng(5)
    B, S = inst.sample_profiles(rng, 1000)
    for t in range(1000):
        a, b = fpp.run(B[t], S[t]), cf.run(B[t], S[t])
        assert a.traded == b.traded
        assert math.isclose(a.gft, b.gft, abs_tol=1e-12)


def test_cfpp_floor_two_blocks_single_trades():
    u = dst.uniform(0.0, 1.0)
    inst = mech.market([u, u], [u, u], fea.additive(range(2)))
    cf = mech.Cfpp(inst, [0.5, 0.6], [0.4, 0.5], fea.size_floor(fea.additive(range(2)), 2))
    # only item 0 is worth buying: the pair has negative total utility
    o = cf.run([1.0, 0.0], [0.1, 0.1])
    assert o.traded == ()


def test_cfpp_floor_two_trades_pairs():
    u = dst.uniform(0.0, 1.0)
    inst = mech.market([u, u], [u, u], fea.additive(range(2)))
    theta_b, theta_s = [0.5, 0.5], [0.4, 0.4]
    cf = mech.Cfpp(inst, theta_b, theta_s, fea.size_floor(fea.additive(range(2)), 2))
    o = cf.run([0.9, 0.7], [0.1, 0.2])
    assert len(o.traded) == 2
    for i in o.traded:
        assert o.gft >= 0.0
        assert 0.9 - 0.1 >= theta_b[i] - theta_s[i]


def test_unlikely_trade_rule_cases():
    inst = mech.market(
        [d([1.0, 2.0], [0.5, 0.5]), d([0.5, 1.5], [0.5, 0.5])],
        [d([0.0, 0.5], [0.5, 0.5]), d([0.2, 1.0], [0.5, 0.5])],
        fea.additive(range(2)),
    )
    rule = mech.unlikely_trade_rule(inst, [0, 1])
    # two items tradeable: stand down
    assert not rule(np.array([2.0, 1.5]), np.array([0.0, 0.2])).any()
    # exactly one tradeable and virtual value clears the cost
    x = rule(np.array([2.0, 0.5]), np.array([0.0, 1.0]))
    assert x[0] == 1.0 and x[1] == 0.0
    # exactly one tradeable but the virtual value falls short
    x = rule(np.array([1.0, 0.5]), np.array([0.5, 1.0]))
    assert not x.any()


def test_unlikely_trade_rule_serves_at_most_one():
    inst = mech.market(
        [dst.uniform(0.0, 1.0)] * 3,
        [dst.uniform(0.0, 1.0)] * 3,
        fea.additive(range(3)),
    )
    rule = mech.unlikely_trade_rule(inst, [0, 1, 2])
    rng = np.random.default_rng(4)
    B, S = inst.sample_profiles(rng, 500)
    assert max(rule(B[t], S[t]).sum() for t in range(500)) <= 1.0


def test_reduction_rule_single_item():
    inst = mech.market(
        [d([1.0, 2.0], [0.5, 0.5])], [d([0.0, 0.5], [0.5, 0.5])], fea.additive([0])
    )
    rule = mech.reduction_rule(inst)
    assert rule(np.array([2.0]), np.array([0.0]))[0] == 1.0
    assert rule(np.array([1.0]), np.array([0.5]))[0] == 0.0


def test_reduction_rule_tracks_best_virtual_surplus():
    inst = ud2a()
    rule = mech.reduction_rule(inst)
    phi = inst.buyer_ironed
    bgrid, bprobs = mech.buyer_grid(inst)
    sgrid, sprobs = mech.seller_grid(inst)
    lhs = rhs = 0.0
    for bm, wb in zip(bgrid, bprobs):
        for sm, ws in zip(sgrid, sprobs):
            x = rule(bm, sm)
            margins = [phi[i](bm[i]) - sm[i] for i in range(2)]
            lhs += wb * ws * float(np.dot(x, margins))
            rhs += wb * ws * max(0.0, max(margins))
    assert math.isclose(lhs, rhs, abs_tol=1e-9)


def test_sapp_price_map_constant_rule_uniform():
    u = dst.uniform(0.0, 1.0)
    inst = mech.market([u], [u], fea.additive([0]))
    half = mech.AllocationRule(
        "const-half", 1, lambda b, s: np.array([0.5]), q_fn=lambda s: np.array([0.5])
    )
    pm = mech.sapp_build(inst, half)
    assert math.isclose(pm.theta(np.array([0.3]))[0], 0.75, abs_tol=1e-9)
    assert math.isclose(pm.q(np.array([0.3]))[0], 0.5, abs_tol=1e-12)


def test_sapp_zero_rule_posts_top_and_never_trades():
    u = dst.uniform(0.0, 1.0)
    inst = mech.market([u], [u], fea.additive([0]))
    never = mech.AllocationRule(
        "never", 1, lambda b, s: np.zeros(1), q_fn=lambda s: np.zeros(1)
    )
    sp = mech.Sapp(inst, mech.sapp_build(inst, never))
    assert math.isclose(sp.pmap.theta(np.array([0.5]))[0], 1.0, abs_tol=1e-9)
    rng = np.random.default_rng(6)
    B, S = inst.sample_profiles(rng, 300)
    assert all(sp.run(B[t], S[t], rng=rng).traded == () for t in range(300))


def test_sapp_activation_map_bi_monotone():
    rich = mech.market(
        [
            d([0.5, 1.0, 1.5, 2.0], [0.25] * 4),
            d([0.4, 0.9, 1.4, 1.9], [0.25] * 4),
        ],
        [d([0.0, 0.4, 0.8], [1 / 3] * 3), d([0.1, 0.6, 1.1], [1 / 3] * 3)],
        fea.unit_demand(range(2)),
    )
    pm = mech.sapp_build(rich, mech.reduction_rule(rich))
    s1_grid, s2_grid = (0.0, 0.4, 0.8), (0.1, 0.6, 1.1)
    for i, own_grid, other_grid in ((0, s1_grid, s2_grid), (1, s2_grid, s1_grid)):
        for other in other_grid:
            qs = []
            ths = []
            for own in own_grid:
                s = np.array([own, other]) if i == 0 else np.array([other, own])
                qs.append(pm.q(s)[i])
                ths.append(pm.theta(s)[i])
            assert all(a >= b - 1e-9 for a, b in zip(qs, qs[1:]))
            assert all(a <= b + 1e-9 for a, b in zip(ths, ths[1:]))
        for own in own_grid:
            qs = []
            for other in other_grid:
                s = np.array([own, other]) if i == 0 else np.array([other, own])
                qs.append(pm.q(s)[i])
            assert all(a <= b + 1e-9 for a, b in zip(qs, qs[1:]))


def test_sapp_constant_map_pays_top_cost():
    half = mech.AllocationRule(
        "const-half", 1, lambda b, s: np.array([0.5]), q_fn=lambda s: np.array([0.5])
    )
    inst = mech.market(
        [d([1.0, 2.0], [0.5, 0.5])],
        [d([0.2, 0.4, 0.6], [1 / 3] * 3)],
        fea.additive([0]),
    )
    sp = mech.Sapp(inst, mech.sapp_build(inst, half))
    o = sp.run(np.array([2.0]), np.array([0.2]), coins=np.array([0.1]))
    assert o.traded == (0,)
    assert math.isclose(o.seller_payments[0], 0.6, abs_tol=1e-12)
    assert sp.run(np.array([2.0]), np.array([0.2]), coins=np.array([0.9])).traded == ()


def test_sapp_payment_is_threshold_of_trading_region():
    inst = ud2b()
    sp = mech.Sapp(inst, mech.sapp_build(inst, mech.reduction_rule(inst)))
    rng = np.random.default_rng(7)
    B, S = inst.sample_profiles(rng, 150)
    coins_all = rng.random((150, 2))
    checked = 0
    for t in range(150):
        o = sp.run(B[t], S[t], coins=coins_all[t])
        if not o.traded:
            continue
        i = o.traded[0]
        pay = o.seller_payments[i]
        assert pay >= S[t][i] - 1e-12
        grid = inst.seller_dists[i].values
        for v in grid:
            trial = S[t].copy()
            trial[i] = v
            o2 = sp.run(B[t], trial, coins=coins_all[t])
            if v <= pay + 1e-12:
                if v >= S[t][i] - 1e-12:
                    assert i in o2.traded
            else:
                assert i not in o2.traded
        checked += 1
    assert checked > 20


def test_sapp_exact_report_frozen_fixture():
    inst = ud2b()
    rep = mech.Sapp(inst, mech.sapp_build(inst, mech.reduction_rule(inst))).exact_report()
    assert math.isclose(rep["gft"], 0.6614, abs_tol=1e-9)
    assert math.isclose(rep["buyer_payment"], 0.768, abs_tol=1e-9)
    assert math.isclose(rep["seller_payments"], 0.2195, abs_tol=1e-9)
    assert math.isclose(rep["wbb_slack"], 0.5485, abs_tol=1e-9)
    assert math.isclose(rep["rule_virtual_surplus"], 1.229, abs_tol=1e-9)


def test_sapp_sandwich_and_dsic_exact():
    inst = ud2b()
    sp = mech.Sapp(inst, mech.sapp_build(inst, mech.reduction_rule(inst)))
    assert sp.sandwich_violation() <= 1e-12
    assert sp.exact_dsic_gain() <= 1e-9


def test_buyer_offering_point_mass():
    inst = mech.market([dst.point_mass(1.0)], [dst.point_mass(0.0)], fea.additive([0]))
    o = mech.BuyerOffering(inst).run([1.0], [0.0])
    assert o.traded == (0,)
    assert math.isclose(o.buyer_payment, 0.0, abs_tol=1e-12)
    assert math.isclose(o.seller_payments[0], 0.0, abs_tol=1e-12)
    assert math.isclose(o.gft, 1.0, abs_tol=1e-12)


@pytest.mark.parametrize(
    "inst",
    [
        mech.market([dst.point_mass(1.0 + 5e-10)], [dst.point_mass(1.0)], fea.additive([0])),
        mech.market(
            [dst.point_mass(1.0 + 5e-10), dst.point_mass(1.0 + 3e-10)],
            [dst.point_mass(1.0), dst.point_mass(1.0)],
            fea.unit_demand(range(2)),
        ),
    ],
    ids=["bilateral", "unit-demand"],
)
def test_buyer_offering_near_tie_paths_agree(inst):
    # b - tau(s) = 5e-10 is below mechanisms.TOL but positive: every path trades
    bo = mech.BuyerOffering(inst)
    B, _ = mech.buyer_grid(inst)
    S, _ = mech.seller_grid(inst)
    run = bo.run(B[0], S[0])
    assert run.traded == (0,)
    assert math.isclose(run.gft, 5e-10, rel_tol=1e-6)
    assert bo.run_batch(B, S)[0] == run.gft
    assert audits.exact_gft(bo, inst) == run.gft


def _bo_pin_markets():
    u = dst.uniform
    cont = mech.market(
        [u(0.2, 1.4), u(0.0, 1.0)], [u(0.0, 1.1), u(0.1, 0.9)], fea.unit_demand(range(2))
    )
    disc = mech.market(
        [d([0.4, 0.9, 1.5], [0.3, 0.3, 0.4]), d([0.5, 1.2], [0.6, 0.4])],
        [d([0.1, 0.6, 1.0], [0.2, 0.5, 0.3]), d([0.2, 0.7], [0.5, 0.5])],
        fea.unit_demand(range(2)),
    )
    expo = mech.market(
        [dst.exponential_truncated(4.0), u(0.0, 2.0)],
        [dst.exponential_truncated_reversed(4.0), u(0.0, 1.0)],
        fea.unit_demand(range(2)),
    )
    return cont, disc, expo


# (market, b, s) -> (traded, buyer payment, seller payments, gft), recorded
# before ironed lookups took arrays and the threshold search reused tau
_BO_PINS = [
    (0, [1.3, 0.4], [0.3, 0.5], ((0,), 0.6, (0.65, 0.0), 1.0)),
    (0, [0.5, 0.95], [0.6, 0.2], ((1,), 0.30000000000000004, (0.0, 0.5249999999999999), 0.75)),
    (0, [1.1, 0.9], [0.05, 0.15], ((0,), 0.1, (0.2, 0.0), 1.05)),
    (1, [1.5, 0.5], [0.1, 0.2], ((0,), 0.10000000000000002, (0.6, 0.0), 1.4)),
    (1, [0.9, 1.2], [0.6, 0.2], ((1,), 0.2, (0.0, 0.2), 1.0)),
    (1, [1.5, 1.2], [1.0, 0.7], ((), 0.0, (0.0, 0.0), 0.0)),
    (1, [0.4, 1.2], [0.1, 0.2], ((1,), 0.2, (0.0, 0.2), 1.0)),
    (2, [3.5, 0.2], [0.5, 0.9], ((0,), 0.8934693402873666, (2.576072213407902, 0.0), 3.0)),
    (2, [0.3, 1.9], [2.0, 0.3], ((1,), 0.6, (0.0, 0.9499999999999998), 1.5999999999999999)),
]


def test_buyer_offering_threshold_payments_pinned():
    markets = _bo_pin_markets()
    for k, b, s, (traded, pay_b, pay_s, gft) in _BO_PINS:
        o = mech.BuyerOffering(markets[k]).run(b, s)
        got = (o.buyer_payment, *o.seller_payments, o.gft)
        want = (pay_b, *pay_s, gft)
        assert o.traded == traded
        if k < 2:  # uniform and discrete: the same arithmetic, bit for bit
            assert got == want
        else:  # exponential: numpy's exp may differ from libm's in the last ulp
            assert np.allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("constraint", [fea.unit_demand(range(2)), fea.additive(range(2))], ids=["ud", "add"])
def test_expected_gft_given_profile_equals_run_gft(constraint):
    bo_market = mech.market(
        [d([0.4, 0.9, 1.5], [0.3, 0.3, 0.4]), d([0.5, 1.2, 1.6], [0.6, 0.3, 0.1])],
        [d([0.1, 0.6, 1.0], [0.2, 0.5, 0.3]), d([0.2, 0.7, 1.3], [0.5, 0.3, 0.2])],
        constraint,
    )
    so_market = instances.example_a3(6)
    for mechanism in (mech.BuyerOffering(bo_market), mech.SellerOffering(so_market)):
        inst = mechanism.inst
        B, _ = mech.buyer_grid(inst)
        S, _ = mech.seller_grid(inst)
        traded = 0
        for b in B:
            for s in S:
                run = mechanism.run(b, s)
                assert mechanism.expected_gft_given_profile(b, s) == run.gft
                traded += bool(run.traded)
        assert 0 < traded < len(B) * len(S)


def test_buyer_offering_expost_buyer_ir():
    inst = ud2a()
    bo = mech.BuyerOffering(inst)
    rng = np.random.default_rng(8)
    B, S = inst.sample_profiles(rng, 400)
    for t in range(400):
        o = bo.run(B[t], S[t])
        assert sum(B[t][i] for i in o.traded) - o.buyer_payment >= -1e-9


def test_buyer_offering_exante_budget_balance_exact():
    inst = ud2a()
    bo = mech.BuyerOffering(inst)
    bgrid, bprobs = mech.buyer_grid(inst)
    sgrid, sprobs = mech.seller_grid(inst)
    net = 0.0
    for bm, wb in zip(bgrid, bprobs):
        for sm, ws in zip(sgrid, sprobs):
            o = bo.run(bm, sm)
            net += wb * ws * (o.buyer_payment - sum(o.seller_payments))
    assert math.isclose(net, 0.0, abs_tol=1e-9)


def test_seller_offering_trades_virtual_surplus_region():
    u = dst.uniform(0.0, 1.0)
    inst = mech.market([u], [u], fea.additive([0]))
    so = mech.SellerOffering(inst)
    rng = np.random.default_rng(9)
    B, S = inst.sample_profiles(rng, 500)
    for t in range(500):
        o = so.run(B[t], S[t])
        should = 2.0 * B[t][0] - 1.0 >= S[t][0]
        assert (o.traded == (0,)) == should
    assert so.run([0.9], [0.99]).traded == ()


def test_seller_offering_geometric_market_value():
    inst = instances.example_a3(8)
    got = audits.exact_gft(mech.SellerOffering(inst), inst)
    assert math.isclose(got, 2.6504464285714286, abs_tol=1e-9)


def test_seller_offering_trades_indifferent_seller_on_geometric_market():
    # At m=6 the lowest buyer atom 48 has ironed virtual value exactly 32, the
    # second seller atom: the seller earns 16 at price 48 or 56, and trades.
    inst = instances.example_a3(6)
    assert inst.buyer_ironed[0](48.0) == 32.0
    out = mech.SellerOffering(inst).run([48.0], [32.0])
    assert out.traded == (0,)
    assert out.buyer_payment == 48.0
    got = audits.exact_gft(mech.SellerOffering(inst), inst)
    assert math.isclose(got, 28 / 15, rel_tol=0.0, abs_tol=1e-12)


def test_market_guards():
    u = dst.uniform(0.0, 1.0)
    with pytest.raises(ValueError):
        mech.market([u, u], [u], fea.additive(range(2)))
    inst = mech.market([dst.point_mass(0.0)], [dst.point_mass(1.0)], fea.additive([0]))
    with pytest.raises(ValueError):
        inst.trade_probs


def test_class_run_on_one_profile():
    inst = ud2a()
    o = mech.Fpp(inst, [1.0, 1.0], [0.5, 0.5]).run([2.0, 0.5], [0.0, 1.0])
    assert o.traded == (0,)
    o = mech.Cfpp(inst, [1.0, 1.0], [0.5, 0.5], fea.unit_demand(range(2))).run([2.0, 0.5], [0.0, 1.0])
    assert o.traded == (0,)
    pm = mech.sapp_build(inst, mech.reduction_rule(inst))
    o = mech.Sapp(inst, pm).run([2.0, 0.5], [0.0, 1.0], coins=np.array([0.0, 0.0]))
    assert isinstance(o, mech.Outcome)


def test_sapp_realized_run_needs_coins_or_an_rng():
    inst = ud2a()
    sapp = mech.Sapp(inst, mech.sapp_build(inst, mech.reduction_rule(inst)))
    with pytest.raises(ValueError, match="coins or an rng"):
        sapp.run([2.0, 0.5], [0.0, 1.0])
    with pytest.raises(ValueError, match="coins or an rng"):
        sapp.run_batch(np.array([[2.0, 0.5]]), np.array([[0.0, 1.0]]))
    assert sapp.run_batch(np.array([[2.0, 0.5]]), np.array([[0.0, 1.0]]), rng=np.random.default_rng(0)).shape == (1,)


def test_unlikely_trade_cut_has_no_guess_where_the_others_never_fall_short():
    # q_i / rest is 0/0 when another L-item's buyer always covers its cost:
    # the cut is NaN, "no guess", not the support's lower end
    inst = instances.example_a2(4, 6.0)
    rule = mech.unlikely_trade_rule(inst, range(4))
    cut = rule.q_cut(np.array([[3.0, 1.0, 1.01, 1.01]]), np.zeros((1, 4)))
    assert math.isnan(cut[0, 0])
