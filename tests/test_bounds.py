"""
Tests for the benchmark layer: the first-best decomposition, prophet-style
thresholds, the buyer-offering relaxation, thick/thin splits, upper bounds,
the concentration check, and bilateral quadrature helpers.
"""
import math

import numpy as np
import pytest
from scipy import integrate

from gft_lab import audits
from gft_lab import bounds
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


def test_decomposition_bilateral_uniform():
    rep = bounds.benchmark_decomposition(bilateral_uniform(), samples=6000, seed=0)
    assert math.isclose(rep.r, 0.5, abs_tol=1e-9)
    assert rep.ladder_depth == 2
    assert rep.pair_ok
    assert all(ok for ok, _ in rep.checks.values())
    assert set(rep.checks) == {
        "fb_le_term1_plus_term2",
        "term1_le_2_sum_term34",
        "term2_le_2_sum_term56",
        "pair_x_ge_y",
    }


def test_decomposition_sure_trade_single_level():
    inst = mech.market([dst.point_mass(1.0)], [dst.point_mass(0.0)], fea.additive([0]))
    rep = bounds.benchmark_decomposition(inst, samples=500, seed=1)
    assert math.isclose(rep.r, 1.0, abs_tol=1e-12)
    assert rep.ladder_depth == 1
    assert all(ok for ok, _ in rep.checks.values())


def test_prophet_point_mass_exact():
    inst = mech.market(
        [dst.point_mass(1.0), dst.point_mass(2.0)],
        [dst.point_mass(0.0), dst.point_mass(0.5)],
        fea.unit_demand(range(2)),
    )
    res = bounds.prophet_threshold(inst, [1.0, 2.0], samples=200, seed=2)
    assert math.isclose(res.emax, 1.5, abs_tol=1e-12)
    assert math.isclose(res.xi, 0.75, abs_tol=1e-12)
    assert np.allclose(res.theta_b, [1.0, 2.0], atol=1e-12)
    assert np.allclose(res.theta_s, [0.25, 1.25], atol=1e-12)


def test_prophet_emax_matches_2d_integral():
    u = dst.uniform(0.0, 1.0)
    inst = mech.market([u, u], [u, u], fea.unit_demand(range(2)))
    res = bounds.prophet_threshold(inst, [0.5, 0.5], samples=60000, seed=3)
    # E max of two iid copies of (0.5 - s)^+ 1[b >= 0.5]
    closed = integrate.quad(lambda t: 1.0 - (1.0 - 0.5 * (0.5 - t)) ** 2, 0.0, 0.5)[0]
    assert abs(res.emax - closed) <= 3.0 * res.emax_stderr


def test_prophet_mechanism_achieves_half_emax():
    u = dst.uniform(0.0, 1.0)
    inst = mech.market([u, u], [u, u], fea.unit_demand(range(2)))
    res = bounds.prophet_threshold(inst, [0.5, 0.5], samples=60000, seed=4)
    fpp = res.fpp(inst)
    assert fpp.name == "prophet_fpp"
    mean, err = audits.estimate_gft(fpp, inst, samples=60000, seed=5)
    sigma = math.hypot(err, res.emax_stderr / 2.0)
    assert mean >= res.xi - 3.0 * sigma


def test_opt_b_sure_trade():
    inst = mech.market(
        [dst.point_mass(1.0)] * 2, [dst.point_mass(0.0)] * 2, fea.unit_demand(range(2))
    )
    assert math.isclose(bounds.opt_b(inst, "exact"), 1.0, abs_tol=1e-12)


def test_opt_b_vs_buyer_offering_gft():
    # with seller information rents the realized GFT exceeds the virtual value
    inst = ud2a()
    ob = bounds.opt_b(inst, "exact")
    assert math.isclose(ob, 1.1375, abs_tol=1e-9)
    assert audits.exact_gft(mech.BuyerOffering(inst), inst) >= ob - 1e-9
    # rent-free sellers: the two quantities coincide
    sure = mech.market(
        [d([1.0, 2.0], [0.5, 0.5])], [dst.point_mass(0.0)], fea.additive([0])
    )
    assert math.isclose(
        bounds.opt_b(sure, "exact"),
        audits.exact_gft(mech.BuyerOffering(sure), sure),
        abs_tol=1e-9,
    )


def test_opt_b_geometric_market():
    inst = instances.example_a3(8)
    ob = bounds.opt_b(inst, "exact")
    assert math.isclose(ob, 0.9532505580357143, abs_tol=1e-9)
    assert ob <= 1.0


def test_opt_b_mc_agrees_with_exact():
    inst = ud2a()
    exact = bounds.opt_b(inst, "exact")
    mean, err = bounds.opt_b(inst, "mc", samples=40000, seed=6)
    assert abs(mean - exact) <= 4.0 * err


def test_hl_split_examples():
    u = dst.uniform(0.0, 1.0)
    iid3 = mech.market([u] * 3, [u] * 3, fea.unit_demand(range(3)))
    H, L = bounds.hl_split(iid3)
    assert H == [0, 1, 2] and L == []
    thin = instances.example_a2(4, 6.0)
    H, L = bounds.hl_split(thin)
    assert H == [] and L == [0, 1, 2, 3]


def test_sub_instance_keeps_marginals():
    inst = ud2a()
    sub = bounds.sub_instance(inst, [1])
    assert sub.n == 1
    assert sub.buyer_dists[0].values == inst.buyer_dists[1].values
    assert math.isclose(sub.trade_probs[0], inst.trade_probs[1], abs_tol=1e-12)


def test_expected_positive_margin_uniform():
    got = bounds.expected_positive_margin(bilateral_uniform(), 0)
    assert math.isclose(got, 1.0 / 12.0, abs_tol=1e-9)


def test_separate_sale_bound_scaling():
    inst = bilateral_uniform()
    single = bounds.separate_sale_bound(inst, [0])
    assert math.isclose(single, 1.0 / 12.0, abs_tol=1e-9)
    u = dst.uniform(0.0, 1.0)
    four = mech.market([u] * 4, [u] * 4, fea.additive(range(4)))
    got = bounds.separate_sale_bound(four, range(4))
    assert math.isclose(got, 2.0 * 4.0 / 12.0, abs_tol=1e-6)
    assert bounds.separate_sale_bound(four, []) == 0.0


def test_sb_upper_reduces_to_optb_plus_fb_when_all_thick():
    inst = ud2a()
    assert bounds.hl_split(inst)[1] == []
    got = bounds.sb_gft_upper(inst)
    want = bounds.opt_b(inst, "exact") + audits.first_best_gft(inst, "exact")
    assert math.isclose(got, want, abs_tol=1e-9)
    assert math.isclose(got, 2.45625, abs_tol=1e-9)


def test_sb_upper_dominates_mechanisms_and_lp():
    from gft_lab import oracle

    inst = ud2a()
    ub = bounds.sb_gft_upper(inst)
    assert ub >= oracle.second_best_lp(oracle.DiscreteMarket(inst)) - 1e-9
    for m in (
        mech.Fpp(inst, [1.0, 0.9], [0.5, 0.6]),
        mech.BuyerOffering(inst),
        mech.Sapp(inst, mech.sapp_build(inst, mech.reduction_rule(inst))),
    ):
        assert audits.exact_gft(m, inst) <= ub + 1e-9


def test_brustle_upper_point_mass():
    inst = mech.market([dst.point_mass(1.0)], [dst.point_mass(0.0)], fea.additive([0]))
    assert math.isclose(bounds.brustle_sd_upper(inst), 2.0, abs_tol=1e-12)


def test_brustle_upper_dominates_second_best():
    from gft_lab import oracle

    atoms = [(j + 1) / 8 for j in range(8)]
    g8 = mech.market(
        [d(atoms, [1 / 8] * 8)], [d(atoms, [1 / 8] * 8)], fea.additive([0])
    )
    sb = oracle.second_best_lp(oracle.DiscreteMarket(g8))
    ub = bounds.brustle_sd_upper(g8)
    assert math.isclose(ub, 0.1953125, abs_tol=1e-9)
    assert sb <= ub + 1e-9


def test_z_concentration_deterministic_weights():
    rep = bounds.z_concentration_check(
        fea.unit_demand(range(2)), [dst.point_mass(1.0)] * 2, 0.5, samples=2000, seed=7
    )
    assert math.isclose(rep.lhs, 1.0, abs_tol=1e-12)
    assert rep.ok


def test_z_concentration_k_uniform():
    rep = bounds.z_concentration_check(
        fea.k_uniform(3, range(6)),
        [d([0.0, 0.75], [0.5, 0.5])] * 6,
        0.5,
        samples=20000,
        seed=8,
    )
    assert rep.ok


def test_z_concentration_heterogeneous_sweep():
    t_dists = [
        d([0.0, 0.6], [0.4, 0.6]),
        d([0.1, 0.9], [0.5, 0.5]),
        d([0.2, 0.5], [0.3, 0.7]),
        d([0.0, 1.0], [0.6, 0.4]),
    ]
    for c in (0.25, 0.5, 0.75):
        rep = bounds.z_concentration_check(
            fea.unit_demand(range(4)), t_dists, c, samples=20000, seed=9
        )
        assert rep.ok


def test_z_concentration_input_guards():
    with pytest.raises(ValueError):
        bounds.z_concentration_check(fea.unit_demand([0]), [dst.point_mass(0.5)], 0.0)
    with pytest.raises(ValueError):
        bounds.z_concentration_check(fea.unit_demand([0]), [dst.point_mass(1.5)], 0.5)


def test_bilateral_quadrature_uniform():
    inst = bilateral_uniform()
    assert math.isclose(bounds.bilateral_fb_quad(inst), 1.0 / 6.0, abs_tol=1e-9)
    assert math.isclose(bounds.bilateral_fpp_gft_quad(inst, 0.5), 0.125, abs_tol=1e-9)


def test_bilateral_quadrature_matches_closed_forms():
    t = 10.0
    inst = instances.example_a1(t)
    assert math.isclose(bounds.bilateral_fb_quad(inst), instances.a1_fb(t), abs_tol=1e-6)
    for p in (0.2, 0.5, 0.8):
        assert math.isclose(
            bounds.bilateral_fpp_gft_quad(inst, p), instances.a1_fpp_gft(t, p), abs_tol=1e-6
        )


@pytest.mark.parametrize("t", [4.0, 8.0, 12.0, 20.0])
def test_bilateral_first_best_and_price_grid_match_a1_closed_forms(t):
    # the first best to 1e-14 relative and the whole 800-price grid to
    # 1e-7 of the best GFT; at t = 20 the best GFT is 4e-9, so the grid's
    # bound is an absolute 4e-16
    inst = instances.example_a1(t)
    assert abs(bounds.bilateral_fb_quad(inst) - instances.a1_fb(t)) <= 1e-14 * instances.a1_fb(t)
    ps = np.linspace(0.0, t, 800)
    closed = np.array([instances.a1_fpp_gft(t, p) for p in ps])
    assert np.max(np.abs(bounds.bilateral_fpp_gft_quad(inst, ps) - closed)) <= 1e-7 * closed.max()


def test_price_grid_is_elementwise():
    inst = instances.example_a1(8.0)
    ps = np.linspace(-1.0, 9.0, 41)
    grid = bounds.bilateral_fpp_gft_quad(inst, ps)
    assert [float(g).hex() for g in grid] == [bounds.bilateral_fpp_gft_quad(inst, float(p)).hex() for p in ps]


def test_posted_price_formula_matches_exact_gft_on_atoms():
    # the independence formula, which ignores Fpp's TOL tie rule, agrees
    # with exact enumeration at every atom of the power-of-two instance
    inst = instances.example_a3(8)
    for p in sorted(set(inst.buyer_dists[0].values) | set(inst.seller_dists[0].values)):
        exact = audits.exact_gft(mech.Fpp(inst, [p], [p]), inst)
        assert math.isclose(bounds.bilateral_fpp_gft_quad(inst, p), exact, rel_tol=1e-14, abs_tol=1e-15)


@pytest.mark.parametrize("m", [6, 8])
def test_best_fpp_on_a_discrete_instance_is_the_first_best_atom(m):
    inst = instances.example_a3(m)
    support = sorted(set(inst.buyer_dists[0].values) | set(inst.seller_dists[0].values))
    gfts = [audits.exact_gft(mech.Fpp(inst, [p], [p]), inst) for p in support]
    k = gfts.index(max(gfts))
    assert bounds.best_fpp_bilateral(inst) == (support[k], gfts[k])


def test_posted_price_gft_below_strict_envelope():
    t = 10.0
    inst = instances.example_a1(t)
    lam = 1.0 / (1.0 - math.exp(-t))
    env = lam * lam * ((t + 2.0) * math.exp(-2.0 * t) + 2.0 * math.exp(-t))
    for p in np.linspace(0.05, 0.95, 19):
        assert bounds.bilateral_fpp_gft_quad(inst, float(p)) < env


def test_best_fpp_bilateral_uniform():
    p, gft = bounds.best_fpp_bilateral(bilateral_uniform(), grid=200)
    assert math.isclose(p, 0.5, abs_tol=0.01)
    assert math.isclose(gft, 0.125, abs_tol=1e-3)
    for probe in (0.3, 0.5, 0.7):
        assert gft >= bounds.bilateral_fpp_gft_quad(bilateral_uniform(), probe) - 1e-6
