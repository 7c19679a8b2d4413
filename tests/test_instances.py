"""
Tests for the example catalogue: the truncated-exponential bilateral pair, the
thin-market additive family, the geometric-support family with exact tables,
matching markets, reproducible random instances, and JSON round trips.
"""
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from gft_lab import audits
from gft_lab import bounds
from gft_lab import distributions as dst
from gft_lab import feasibility as fea
from gft_lab import instances
from gft_lab import mechanisms as mech

d = dst.discrete


def test_exponential_pair_closed_forms():
    t = 10.0
    inst = instances.example_a1(t)
    lam = 1.0 / (1.0 - math.exp(-t))
    r_closed = (t - 1.0) / (math.exp(t) - 1.0) + t / (math.exp(t) - 1.0) ** 2
    assert math.isclose(instances.a1_r(t), r_closed, abs_tol=1e-15)
    got_r = dst.trade_probability(inst.buyer_dists[0], inst.seller_dists[0])
    assert math.isclose(got_r, instances.a1_r(t), abs_tol=1e-9)
    fb_closed = lam * lam * ((t - 2.0) * math.exp(-t) + (t + 2.0) * math.exp(-2.0 * t))
    assert math.isclose(instances.a1_fb(t), fb_closed, abs_tol=1e-15)
    assert math.isclose(bounds.bilateral_fb_quad(inst), instances.a1_fb(t), abs_tol=1e-6)


def test_exponential_pair_cdf_normalized():
    inst = instances.example_a1(8.0)
    for dd in (inst.buyer_dists[0], inst.seller_dists[0]):
        assert math.isclose(dd.cdf(dd.support()[1]), 1.0, abs_tol=1e-12)
        assert math.isclose(dd.cdf(dd.support()[0] - 1e-9), 0.0, abs_tol=1e-12)


def test_thin_market_trade_probabilities():
    n, t = 4, 6.0
    inst = instances.example_a2(n, t)
    assert inst.n == n
    assert math.isclose(inst.trade_probs[0], instances.a1_r(t), abs_tol=1e-9)
    for i in range(1, n):
        assert math.isclose(inst.trade_probs[i], 1.0 / (2 * n), abs_tol=1e-12)
    H, L = bounds.hl_split(inst)
    assert H == [] and L == list(range(n))


def test_thin_market_point_mass_items_yield_no_posted_price_gains():
    inst = instances.example_a2(4, 6.0)
    sub = bounds.sub_instance(inst, [1])
    top = sub.seller_dists[0].support()[1]
    for theta_s in (0.5, 1.0, 1.005, top + 1.0):
        for theta_b in (theta_s, theta_s + 0.5):
            gft = audits.exact_gft(mech.Fpp(sub, [theta_b], [theta_s]), sub)
            assert gft <= 1e-12


def test_thin_market_discretization():
    inst = instances.example_a2_discretized(4, 6.0, grid=32)
    assert inst.is_discrete
    assert len(inst.buyer_dists[0].values) == 32
    cont = instances.example_a2(4, 6.0)
    assert math.isclose(
        inst.buyer_dists[0].mean(), cont.buyer_dists[0].mean(), abs_tol=0.01
    )


@pytest.mark.parametrize("n, grid", [(2, 16), (4, 16), (2, 64), (4, 64)])
def test_thin_market_discretization_is_item_0_discretized(n, grid):
    # grids on which item 0 trades build the family as always: the continuous
    # family with item 0 swapped for its equal-mass discretization
    cont = instances.example_a2(n, 6.0)
    inst = instances.example_a2_discretized(n, 6.0, grid=grid) if grid != 64 else instances.make_example("a2d", n=n)
    assert inst.buyer_dists[0] == instances.equal_mass_discretize(cont.buyer_dists[0], grid)
    assert inst.seller_dists[0] == instances.equal_mass_discretize(cont.seller_dists[0], grid)
    assert inst.buyer_dists[1:] == cont.buyer_dists[1:] and inst.seller_dists[1:] == cont.seller_dists[1:]
    assert inst.constraint == fea.additive(range(n))


def test_thin_market_discretization_refuses_a_grid_without_trade():
    # with n=2 and grid=8 every buyer atom of item 0 (at most 2.74) lies below
    # every seller atom (at least 3.26), while the continuous pair trades
    with pytest.raises(ValueError, match=r"a2d with n=2, t=6.0, grid=8: every buyer atom .* use a finer grid"):
        instances.example_a2_discretized(2, 6.0, grid=8)


def test_equal_mass_discretize_uniform():
    g = instances.equal_mass_discretize(dst.uniform(0.0, 1.0), grid=10)
    assert len(g.values) == 10
    assert np.allclose(g.probs, 0.1, atol=1e-12)
    assert math.isclose(g.mean(), 0.5, abs_tol=1e-9)


def test_geometric_tables_m6_exact():
    t = instances.a3_tables(6)
    assert t["L"] == 4
    want = {
        Fraction(48): Fraction(1, 3),
        Fraction(56): Fraction(1, 6),
        Fraction(60): Fraction(1, 10),
        Fraction(62): Fraction(1, 15),
        Fraction(63): Fraction(1, 3),
    }
    got = dict(zip(t["buyer_values"], t["buyer_probs"]))
    assert got == want
    assert sum(t["buyer_probs"]) == 1
    assert sum(t["seller_probs"]) == 1


def test_geometric_tables_m8_exact():
    t = instances.a3_tables(8)
    assert t["L"] == 5
    assert t["buyer_values"] == [224, 240, 248, 252, 254, 255]
    # unnormalized weights (1, 1/7, 4/21, 4/15, 2/5, 2/3) from the top down,
    # normalizer 8/3
    w = [Fraction(1), Fraction(1, 7), Fraction(4, 21), Fraction(4, 15), Fraction(2, 5), Fraction(2, 3)]
    total = sum(w)
    assert total == Fraction(8, 3)
    want = [wi / total for wi in reversed(w)]
    assert t["buyer_probs"] == want
    # top atom carries seven times the mass of the next one down
    assert t["buyer_probs"][-1] == 7 * t["buyer_probs"][-2]


def test_geometric_tables_recurrence():
    # the mass above each non-top atom at gap exponent k equals (m - k) times
    # the atom's own mass
    for m in (6, 8, 10):
        t = instances.a3_tables(m)
        pairs = list(zip(t["buyer_values"], t["buyer_probs"]))[::-1]
        above = Fraction(0)
        for v, p in pairs:
            k = round(math.log2(2**m - v)) if v != 2**m - 1 else 0
            if k > 0:
                assert above == (m - k) * p, (m, v)
            above += p
        assert above == 1


def test_geometric_seller_matches_tables():
    for m in (6, 8):
        t = instances.a3_tables(m)
        inst = instances.example_a3(m)
        sd = inst.seller_dists[0]
        assert np.allclose(sd.values, [float(v) for v in t["seller_values"]], atol=1e-12)
        assert np.allclose(sd.probs, [float(p) for p in t["seller_probs"]], atol=1e-15)
        assert math.isclose(dst.seller_virtual(sd, 0.0), 0.0, abs_tol=1e-12)
        for v in sd.values[1:]:
            assert math.isclose(dst.seller_virtual(sd, v), float(2**m), abs_tol=1e-9)


def test_matching_single_pair_reduces_to_bilateral():
    pair = (d([1.0, 2.0], [0.5, 0.5]), d([0.0, 0.5], [0.5, 0.5]))
    mm = instances.matching_market([pair])
    assert mm.n == 1
    bil = mech.market([pair[0]], [pair[1]], fea.additive([0]))
    assert math.isclose(
        audits.first_best_gft(mm, "exact"),
        audits.first_best_gft(bil, "exact"),
        abs_tol=1e-12,
    )


def test_matching_market_first_best_matches_brute_force():
    pairs = [
        (d([1.0, 2.0], [0.5, 0.5]), d([0.0, 0.5], [0.5, 0.5])),
        (d([0.8, 1.6], [0.4, 0.6]), d([0.1, 0.9], [0.6, 0.4])),
    ]
    mm = instances.matching_market(pairs)
    bgrid, bp = mech.buyer_grid(mm)
    sgrid, sp = mech.seller_grid(mm)
    brute = 0.0
    fams = fea.feasible_sets(mm.constraint)
    for bm, wb in zip(bgrid, bp):
        for sm, ws in zip(sgrid, sp):
            best = max(sum(bm[i] - sm[i] for i in s) for s in fams)
            brute += wb * ws * max(0.0, best)
    assert math.isclose(audits.first_best_gft(mm, "exact"), brute, abs_tol=1e-9)


def test_random_instance_reproducible():
    a = instances.random_instance(3, "two-atom", seed=4)
    b = instances.random_instance(3, "two-atom", seed=4)
    for i in range(3):
        assert a.buyer_dists[i].values == b.buyer_dists[i].values
        assert a.seller_dists[i].probs == b.seller_dists[i].probs
    c = instances.random_instance(3, "two-atom", seed=5)
    assert any(a.buyer_dists[i].values != c.buyer_dists[i].values for i in range(3))


def test_random_instance_positive_trade_probability():
    for family in ("uniform", "lognormal-discretized", "two-atom"):
        for seed in range(5):
            inst = instances.random_instance(4, family, seed=seed)
            assert all(r > 0.0 for r in inst.trade_probs)


def test_random_instance_constraint_and_family_guards():
    inst = instances.random_instance(3, "uniform", seed=0, constraint="additive")
    assert inst.constraint.variant == "additive"
    with pytest.raises(ValueError):
        instances.random_instance(3, "cauchy", seed=0)


def test_instance_json_round_trip():
    inst = instances.random_instance(3, "two-atom", seed=8)
    back = instances.instance_from_json(instances.instance_to_json(inst))
    assert back.n == inst.n
    assert back.constraint.variant == inst.constraint.variant
    for i in range(3):
        assert np.allclose(back.buyer_dists[i].values, inst.buyer_dists[i].values)
        assert np.allclose(back.seller_dists[i].probs, inst.seller_dists[i].probs)


def test_instance_json_example_dispatch():
    obj = {"example": "a3", "params": {"m": 6}}
    inst = instances.instance_from_json(obj)
    assert inst.n == 1
    assert math.isclose(max(inst.buyer_dists[0].values), 63.0, abs_tol=1e-12)


def test_make_example_names():
    assert instances.make_example("a1", t=8.0).n == 1
    assert instances.make_example("a2", n=3, t=6.0).n == 3
    assert instances.make_example("a3", m=6).n == 1
    with pytest.raises((ValueError, KeyError)):
        instances.make_example("a9")


@pytest.mark.parametrize(
    "name, params, accepted",
    [
        ("a1", {"n": 2}, "t"),
        ("a2", {"N": 3}, "n, t, C, eps"),
        ("a2d", {"grids": 8, "Eps": 0.1}, "n, t, C, eps, grid"),
        ("a3", {"M": 6}, "m"),
    ],
)
def test_make_example_refuses_unknown_parameters(name, params, accepted):
    # a misspelt key must not fall back to the family's default silently
    unknown = ", ".join(sorted(params))
    msg = f"unknown parameter(s) {unknown} for example {name}; it accepts {accepted}"
    with pytest.raises(ValueError, match=re.escape(msg)):
        instances.make_example(name, **params)
    with pytest.raises(ValueError, match=re.escape(msg)):
        instances.instance_from_json({"example": name, "params": params})
