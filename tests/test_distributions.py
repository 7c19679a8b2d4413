"""
Tests for the distribution toolkit: builders, quantiles, trade probability,
virtual value transforms, ironing, quantile ladders, and the pair check.
"""
import copy
import dataclasses
import math
import pickle
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import dist_reference as ref
import quad_reference as qr
from gft_lab import bounds
from gft_lab import distributions as dst
from gft_lab import feasibility as fea
from gft_lab import instances
from gft_lab import mechanisms as mech


# a small value set, so rows tie often; NaN never reaches the item kernels
KERNEL_VALUES = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, math.inf, -math.inf]


@settings(max_examples=300)
@given(
    st.tuples(st.integers(0, 40), st.integers(1, 8)).flatmap(
        lambda shape: arrays(np.float64, shape, elements=st.sampled_from(KERNEL_VALUES))
    )
)
def test_item_kernels_match_numpy_bit_for_bit(W):
    with np.errstate(invalid="ignore"):  # inf + -inf in a sum
        assert dst.item_sum(W).tobytes() == dst._ordered_sum(W, axis=-1).tobytes()
    assert dst.item_max(W).tobytes() == W.max(axis=-1).tobytes()
    assert dst.item_argmax(W).tobytes() == np.argmax(W, axis=-1).tobytes()


def test_discrete_builder_invariants():
    d = dst.discrete([0.0, 0.5, 1.0], [0.2, 0.3, 0.5])
    assert math.isclose(sum(d.probs), 1.0, abs_tol=1e-12)
    assert all(a < b for a, b in zip(d.values, d.values[1:]))
    assert d.kind == "discrete"
    with pytest.raises(ValueError):
        dst.discrete([0.0, 1.0], [0.6, 0.6])
    with pytest.raises(ValueError):
        dst.discrete([1.0, 1.0], [0.5, 0.5])


def test_discrete_builder_sorts_unsorted_input():
    d = dst.discrete([1.0, 0.0], [0.25, 0.75])
    assert tuple(d.values) == (0.0, 1.0)
    assert math.isclose(d.cdf(0.0) - d.below(0.0), 0.75, abs_tol=1e-12)


@given(st.floats(0.01, 0.99))
@settings(max_examples=40, deadline=None)
def test_continuous_quantile_cdf_roundtrip(q):
    for d in (dst.uniform(0.0, 1.0), dst.exponential_truncated(6.0), dst.lognormal(0.0, 0.5)):
        v = dst.quantile(d, q)
        assert math.isclose(d.cdf(v), q, abs_tol=1e-9)


def test_quantile_examples():
    u = dst.uniform(0.0, 1.0)
    assert math.isclose(dst.quantile(u, 0.75), 0.75, abs_tol=1e-12)
    assert math.isclose(dst.quantile(u, 0.0), 0.0, abs_tol=1e-12)
    two = dst.discrete([0.0, 1.0], [0.5, 0.5])
    assert math.isclose(dst.quantile(two, 0.5), 0.0, abs_tol=1e-12)
    assert math.isclose(dst.upper_quantile(two, 0.5), 1.0, abs_tol=1e-12)


def test_sampling_matches_cdf():
    rng = np.random.default_rng(42)
    for d in (dst.uniform(0.25, 1.5), dst.exponential_truncated(4.0),
              dst.discrete([0.0, 0.3, 0.9], [0.5, 0.2, 0.3])):
        x = np.sort(d.sample(rng, 20000))
        # one-sided KS style check at a handful of probe points
        for v in np.linspace(*d.support(), 9):
            emp = np.searchsorted(x, v, side="right") / len(x)
            assert abs(emp - d.cdf(v)) < 0.02


def test_trade_probability_examples():
    u = dst.uniform(0.0, 1.0)
    assert math.isclose(dst.trade_probability(u, u), 0.5, abs_tol=1e-9)
    assert math.isclose(
        dst.trade_probability(dst.point_mass(1.0), dst.point_mass(0.0)), 1.0, abs_tol=1e-12
    )


def test_trade_probability_exponential_pair_matches_closed_form():
    from gft_lab import instances

    t = 10.0
    inst = instances.example_a1(t)
    got = dst.trade_probability(inst.buyer_dists[0], inst.seller_dists[0])
    assert math.isclose(got, instances.a1_r(t), abs_tol=1e-9)


def test_trade_probability_with_wide_lognormal_seller():
    # lognormal(0, 2.5) spans [2e-8, 4e7]: adaptive quad over that range
    # missed the mass near 1 and returned 0.0
    seller = dst.lognormal(0.0, 2.5)
    for buyer in (dst.uniform(0.0, 1.0), dst.exponential_truncated(4.0), dst.lognormal(0.0, 0.5)):
        got = dst.trade_probability(buyer, seller)
        assert got > 0.1
        assert abs(got - qr.trade_probability(buyer, seller)) <= 1e-9


def test_trade_probability_discrete_buyer_continuous_seller():
    # sum over buyer atoms of p_a G(a), with G in closed form: atoms below,
    # inside and above the seller's support
    b = dst.discrete([0.2, 0.5, 0.9, 1.4], [0.1, 0.4, 0.3, 0.2])
    for lo, hi in ((0.0, 1.0), (0.3, 0.8), (0.4, 1.2)):
        want = math.fsum(p * min(1.0, max(0.0, (a - lo) / (hi - lo))) for a, p in zip(b.values, b.probs))
        assert math.isclose(dst.trade_probability(b, dst.uniform(lo, hi)), want, rel_tol=1e-15, abs_tol=1e-15)
    t = 3.0
    want = math.fsum(p * (1.0 - math.exp(-a)) / (1.0 - math.exp(-t)) for a, p in zip(b.values, b.probs))
    assert math.isclose(dst.trade_probability(b, dst.exponential_truncated(t)), want, rel_tol=1e-14)


def _two_piece_seller():
    """Mass 0.1 on [0, 1), then 0.9 on [1, 2]: the virtual cost s + G/g rises
    to 2 below 1 and falls to 10/9 at 1, so the seller side irons."""
    return dst.Dist(
        kind="continuous",
        cdf_fn=lambda v: np.where(v < 1.0, 0.1 * v, 0.1 + 0.9 * (v - 1.0)),
        pdf_fn=lambda v: np.where((v >= 0.0) & (v <= 2.0), np.where(v < 1.0, 0.1, 0.9), 0.0),
        quantile_fn=lambda q: np.where(q < 0.1, q / 0.1, 1.0 + (q - 0.1) / 0.9),
        lo=0.0,
        hi=2.0,
        name="two-piece",
    )


def test_seller_inverse_on_an_ironed_continuous_grid():
    # at each cut inside the support the ironed virtual cost reaches y and
    # the float just below the cut does not
    iv = dst.iron(_two_piece_seller(), "seller")
    assert not iv.exact
    g = np.asarray(iv.grid_virtuals)
    levels = np.unique(g)
    assert len(levels) < len(g)  # an ironed flat stretch
    ys = np.concatenate((levels, levels - 1e-7, levels + 1e-7, np.linspace(g[0] - 0.5, g[-1] + 0.5, 401)))
    cut = iv.inverse(ys)
    inside = (cut > 0.0) & (cut < 2.0)
    assert inside.sum() > len(levels)
    assert np.all(iv(cut[inside]) >= ys[inside])
    assert not np.any(iv(np.nextafter(cut[inside], -np.inf)) >= ys[inside])
    assert np.all(iv(cut[cut == 0.0]) >= ys[cut == 0.0])
    assert np.array_equal(np.isinf(cut), ys > g[-1])


QUAD_FAMILIES = {
    "uniform": lambda: dst.uniform(0.0, 1.0),
    "uniform-negative": lambda: dst.uniform(-0.5, 1.5),
    "exponential-4": lambda: dst.exponential_truncated(4.0),
    "exponential-6": lambda: dst.exponential_truncated(6.0),
    "exponential-50": lambda: dst.exponential_truncated(50.0),
    "exponential-100": lambda: dst.exponential_truncated(100.0),
    "exponential-reversed": lambda: dst.exponential_truncated_reversed(4.0),
    "exponential-reversed-100": lambda: dst.exponential_truncated_reversed(100.0),
    "lognormal-0.5": lambda: dst.lognormal(0.0, 0.5),
    "lognormal-2.5": lambda: dst.lognormal(0.0, 2.5),
}


@pytest.mark.parametrize("buyer", sorted(QUAD_FAMILIES))
def test_gauss_legendre_integrals_match_tight_quad(buyer):
    # both fixed-rule integrals, over every seller family, within 1e-9 of
    # scipy's adaptive quad at epsabs 1e-13; exponentials truncated at 50
    # and 100 keep nearly all their mass in the first fifth of the support
    b = QUAD_FAMILIES[buyer]()
    phi = dst.iron(b, "buyer")
    for name, make in sorted(QUAD_FAMILIES.items()):
        s = make()
        assert abs(dst.trade_probability(b, s) - qr.trade_probability(b, s)) <= 1e-9, name
        assert abs(bounds._margin_integral(b, phi, s) - qr.expected_positive_margin(b, phi, s)) <= 1e-9, name


DISCRETE_SELLERS = {
    "three-costs": lambda: dst.discrete([0.2, 0.9, 1.6], [1.0 / 3.0] * 3),
    "spread": lambda: dst.discrete([-0.3, 0.5, 2.0, 40.0], [0.1, 0.4, 0.3, 0.2]),
    "point": lambda: dst.point_mass(0.4),
}


@pytest.mark.parametrize("buyer", sorted(QUAD_FAMILIES))
def test_margin_against_discrete_seller_matches_tight_quad(buyer):
    # a continuous buyer against atoms: the one integral with the atoms as
    # edges, where Pr[Y < t] steps, within 1e-9 of the nested adaptive quad
    b = QUAD_FAMILIES[buyer]()
    phi = dst.iron(b, "buyer")
    for name, make in sorted(DISCRETE_SELLERS.items()):
        s = make()
        inst = mech.market([b], [s], fea.additive([0]))
        assert abs(bounds.expected_positive_margin(inst, 0) - qr.expected_positive_margin(b, phi, s)) <= 1e-9, name


@pytest.mark.parametrize("family", sorted(QUAD_FAMILIES))
def test_expected_excess_matches_tight_quad(family):
    # both sides, at x below, at the ends of, inside and above the support,
    # within 1e-9 of the adaptive quad, relative above 1 (lognormal(0, 2.5)
    # reaches 4e7, where a float's spacing is 7e-9); x inside falls
    # mid-panel and on the scale points, where a panel ends
    d = QUAD_FAMILIES[family]()
    lo, hi = d.support()
    xs = [lo - 1.0, lo, *(lo + f * (hi - lo) for f in (0.001, 0.3, 0.7)), *dst.scale_points(d)[[2, 5, 8]], hi, hi + 2.0]
    for side in ("above", "below"):
        for x in xs:
            want = qr.expected_excess(d, float(x), side)
            assert abs(dst.expected_excess(d, float(x), side) - want) <= 1e-9 * max(1.0, want), (side, x)


@pytest.mark.parametrize("seller", sorted(DISCRETE_SELLERS))
def test_expected_excess_on_atoms_is_the_index_order_sum(seller):
    # bit for bit the running sum over the atoms, at, between and beyond them
    d = DISCRETE_SELLERS[seller]()
    xs = [d.values[0] - 1.0, *d.values, *(0.5 * (a + b) for a, b in zip(d.values, d.values[1:])), d.values[-1] + 3.0]
    for side in ("above", "below"):
        for x in xs:
            assert dst.expected_excess(d, x, side).hex() == float(qr.expected_excess(d, x, side)).hex(), (side, x)


def test_expected_excess_rejects_an_unknown_side():
    with pytest.raises(ValueError, match="side"):
        dst.expected_excess(dst.uniform(0.0, 1.0), 0.5, "left")


def test_gauss_legendre_is_exact_on_piecewise_polynomials():
    # 16 nodes a panel integrate degree 31 exactly; edges split at the kink
    assert math.isclose(dst.gauss_legendre(lambda x: x**31, [0.0, 1.0]), 1.0 / 32.0, rel_tol=1e-14)
    assert math.isclose(dst.gauss_legendre(lambda x: np.abs(x - 0.3), [-1.0, 0.3, 2.0]), (1.3**2 + 1.7**2) / 2.0, rel_tol=1e-14)
    # geometric panels over ten decades
    assert math.isclose(dst.gauss_legendre(lambda x: 1.0 / x, [1e-5, 1e5]), math.log(1e10), rel_tol=1e-12)


def test_trade_probability_discrete_matches_double_sum():
    b = dst.discrete([0.2, 0.7, 1.1], [0.3, 0.3, 0.4])
    s = dst.discrete([0.1, 0.7, 1.5], [0.25, 0.5, 0.25])
    brute = sum(
        pb * ps
        for vb, pb in zip(b.values, b.probs)
        for vs, ps in zip(s.values, s.probs)
        if vb >= vs
    )
    assert math.isclose(dst.trade_probability(b, s), brute, abs_tol=1e-12)


def test_buyer_virtual_uniform():
    u = dst.uniform(0.0, 1.0)
    assert math.isclose(dst.buyer_virtual(u, 0.5), 0.0, abs_tol=1e-9)
    assert math.isclose(dst.buyer_virtual(u, 1.0), 1.0, abs_tol=1e-9)


def test_seller_virtual_uniform():
    u = dst.uniform(0.0, 1.0)
    assert math.isclose(dst.seller_virtual(u, 0.5), 1.0, abs_tol=1e-9)
    assert math.isclose(dst.seller_virtual(u, 0.0), 0.0, abs_tol=1e-9)


def test_virtuals_on_geometric_supports():
    from gft_lab import instances

    inst = instances.example_a3(8)
    bd = inst.buyer_dists[0]
    sd = inst.seller_dists[0]
    # highest buyer type keeps its value
    assert math.isclose(dst.buyer_virtual(bd, 255.0), 255.0, abs_tol=1e-9)
    # the bottom cost keeps its value, every other cost jumps to 2^m
    assert math.isclose(dst.seller_virtual(sd, 0.0), 0.0, abs_tol=1e-9)
    for v in sd.values[1:]:
        assert math.isclose(dst.seller_virtual(sd, v), 256.0, abs_tol=1e-9)


def test_iron_uniform_buyer_is_2b_minus_1():
    iv = dst.iron(dst.uniform(0.0, 1.0), "buyer")
    for b in (0.0, 0.25, 0.5, 0.9, 1.0):
        assert math.isclose(iv(b), 2.0 * b - 1.0, abs_tol=1e-6)


def test_iron_uniform_seller_is_2s():
    iv = dst.iron(dst.uniform(0.0, 1.0), "seller")
    for s in (0.0, 0.25, 0.5, 1.0):
        assert math.isclose(iv(s), 2.0 * s, abs_tol=1e-6)


def test_iron_two_atom_buyer():
    iv = dst.iron(dst.discrete([1.0, 2.0], [0.5, 0.5]), "buyer")
    got = np.asarray(iv.grid_virtuals)
    assert math.isclose(got[0], 0.0, abs_tol=1e-12)
    assert math.isclose(got[1], 2.0, abs_tol=1e-12)


def test_iron_is_identity_when_raw_virtuals_monotone():
    from gft_lab import instances

    bd = instances.example_a3(6).buyer_dists[0]
    raw = [dst.buyer_virtual(bd, v) for v in bd.values]
    assert all(a <= b + 1e-12 for a, b in zip(raw, raw[1:]))
    ironed = np.asarray(dst.iron(bd, "buyer").grid_virtuals)
    assert np.allclose(ironed, raw, atol=1e-9)


def test_ironed_virtuals_nondecreasing():
    rng = np.random.default_rng(3)
    for _ in range(25):
        k = int(rng.integers(2, 7))
        vals = np.sort(rng.uniform(0.0, 3.0, size=k))
        vals += np.arange(k) * 1e-3
        probs = rng.dirichlet(np.ones(k))
        for side in ("buyer", "seller"):
            arr = np.asarray(dst.iron(dst.discrete(vals, probs), side).grid_virtuals)
            assert all(a <= b + 1e-9 for a, b in zip(arr, arr[1:]))


def test_payment_identity_continuous():
    # integral of phi over [p, top] equals p * (1 - F(p)) for regular dists
    from scipy import integrate

    for d in (dst.uniform(0.0, 1.0), dst.exponential_truncated(4.0)):
        iv = dst.iron(d, "buyer")
        top = d.support()[1]
        for p in (0.2, 0.5, 0.8):
            lhs, _ = integrate.quad(lambda v: iv(v) * d.pdf(v), p, top, limit=200)
            assert math.isclose(lhs, p * d.tail(p), abs_tol=1e-6)


def test_quantile_ladder_examples():
    u = dst.uniform(0.0, 1.0)
    assert np.allclose(dst.quantile_ladder(u, 0.5, "buyer"), [0.5, 0.75], atol=1e-12)
    assert np.allclose(dst.quantile_ladder(u, 0.5, "seller"), [0.5, 0.25], atol=1e-12)
    assert np.allclose(dst.quantile_ladder(u, 1.0, "buyer"), [0.5], atol=1e-12)


def test_quantile_ladder_depth_grows_as_r_shrinks():
    u = dst.uniform(0.0, 1.0)
    assert len(dst.quantile_ladder(u, 0.1, "buyer")) == math.ceil(math.log2(2.0 / 0.1))


def test_pair_check_examples():
    u = dst.uniform(0.0, 1.0)
    x, y, ok = dst.quantile_pair_check(u, u)
    assert ok
    assert math.isclose(x, 0.75, abs_tol=1e-9)
    assert math.isclose(y, 0.25, abs_tol=1e-9)
    x, y, ok = dst.quantile_pair_check(dst.point_mass(1.0), dst.point_mass(0.0))
    assert ok
    assert math.isclose(x, 1.0, abs_tol=1e-12)
    assert math.isclose(y, 0.0, abs_tol=1e-12)


def test_pair_check_holds_on_random_lognormal_pairs():
    rng = np.random.default_rng(11)
    for _ in range(100):
        b = dst.lognormal(float(rng.normal(0.0, 0.4)), float(rng.uniform(0.2, 0.8)))
        s = dst.lognormal(float(rng.normal(-0.3, 0.4)), float(rng.uniform(0.2, 0.8)))
        assert dst.quantile_pair_check(b, s)[2]


def test_point_mass_and_support():
    d = dst.point_mass(0.7)
    assert d.support() == (0.7, 0.7)
    assert math.isclose(d.mean(), 0.7, abs_tol=1e-12)
    assert math.isclose(d.cdf(0.7), 1.0, abs_tol=1e-12)
    assert math.isclose(d.cdf(0.6999), 0.0, abs_tol=1e-12)


def test_json_round_trip():
    for d in (
        dst.uniform(0.2, 1.4),
        dst.discrete([0.0, 0.5, 1.0], [0.2, 0.3, 0.5]),
        dst.point_mass(2.0),
        dst.exponential_truncated(8.0),
        dst.lognormal(0.1, 0.6),
    ):
        back = dst.dist_from_json(dst.dist_to_json(d))
        assert back.kind == d.kind
        for q in (0.1, 0.5, 0.9):
            assert math.isclose(dst.quantile(back, q), dst.quantile(d, q), abs_tol=1e-9)


# -- the array contract of the closures, ppf and ironed lookups ----------------

_BUILTIN_DISTS = st.one_of(
    st.tuples(st.floats(-2.0, 2.0), st.floats(0.1, 3.0)).map(lambda t: dst.uniform(t[0], t[0] + t[1])),
    st.floats(0.5, 12.0).map(dst.exponential_truncated),
    st.floats(0.5, 12.0).map(dst.exponential_truncated_reversed),
    st.tuples(st.floats(-1.0, 1.0), st.floats(0.1, 3.0)).map(lambda t: dst.lognormal(*t)),
)
_DISCRETE_DISTS = st.lists(st.integers(-40, 40), min_size=1, max_size=8, unique=True).flatmap(
    lambda vals: st.lists(st.floats(0.05, 1.0), min_size=len(vals), max_size=len(vals)).map(
        lambda ws: dst.discrete([0.1 * v for v in vals], [w / sum(ws) for w in ws])
    )
)


def _assert_elementwise(d, got, want):
    """Exact for uniform and grid lookups; the exp/log families to 4e-16
    relative, the room allowed for numpy's array and scalar transcendentals."""
    got, want = np.asarray(got), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    if d.kind == "discrete" or d.name == "uniform":
        assert np.array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=4e-16, atol=0.0)


@given(
    st.one_of(_BUILTIN_DISTS, _DISCRETE_DISTS),
    st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=20),
    st.lists(st.floats(-0.2, 1.2), min_size=1, max_size=20),
)
@settings(max_examples=60)
def test_array_calls_match_scalar_calls(d, us, xs):
    u = np.array(us)
    _assert_elementwise(d, d.ppf(u), [dst.quantile(d, x) for x in us])
    lo, hi = d.support()
    v = lo + np.array(xs) * (hi - lo)
    for side in ("buyer", "seller"):
        iv = dst.iron(d, side)
        want = [iv(x) for x in v.tolist()]
        if iv.exact and d.kind == "continuous":
            _assert_elementwise(d, iv(v), want)
        else:
            assert np.array_equal(iv(v), want)  # grid lookup


def test_zero_density_raises_for_arrays_and_scalars():
    u = dst.uniform(0.0, 1.0)
    with pytest.raises(ValueError, match="zero density at 2.0"):
        dst.buyer_virtual(u, np.array([0.5, 2.0, 3.0]))
    with pytest.raises(ValueError, match="zero density at -1.0"):
        dst.seller_virtual(u, np.array([-1.0, 0.5]))
    with pytest.raises(ValueError, match="zero density at 2.0"):
        dst.buyer_virtual(u, 2.0)
    assert np.array_equal(dst.seller_virtual(u, np.array([0.25, 0.5])), [0.5, 1.0])


def test_scalar_calls_return_python_floats():
    two = dst.discrete([1.0, 2.0], [0.5, 0.5])
    for d in (dst.uniform(0.0, 1.0), dst.exponential_truncated(4.0), dst.lognormal(0.0, 2.5), two):
        lo, hi = d.support()
        mid = 0.5 * (lo + hi)
        assert type(d.ppf(0.3)) is float
        assert type(dst.quantile(d, 0.3)) is float
        for side in ("buyer", "seller"):
            assert type(dst.iron(d, side)(mid)) is float
            assert type(dst.iron(d, side)(np.float64(mid))) is float
        if d.kind == "continuous":
            assert type(dst.buyer_virtual(d, mid)) is float
            assert type(dst.seller_virtual(d, mid)) is float
    assert not dst.iron(dst.lognormal(0.0, 2.5), "buyer").exact  # the ironed-grid path is covered


# -- the elementwise probability API on Dist -----------------------------------

ELEMENTWISE_FAMILIES = {
    "uniform": lambda: dst.uniform(-0.5, 1.5),
    "exponential-4": lambda: dst.exponential_truncated(4.0),
    "exponential-100": lambda: dst.exponential_truncated(100.0),
    "exponential-reversed-4": lambda: dst.exponential_truncated_reversed(4.0),
    "exponential-reversed-100": lambda: dst.exponential_truncated_reversed(100.0),
    "lognormal-0.5": lambda: dst.lognormal(0.0, 0.5),
    "lognormal-2.5": lambda: dst.lognormal(0.0, 2.5),
}
_RANDOM_DISCRETE = st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=12, unique=True).flatmap(
    lambda vals: st.lists(st.floats(0.01, 1.0), min_size=len(vals), max_size=len(vals)).map(
        lambda ws: dst.discrete(vals, [w / sum(ws) for w in ws])
    )
)
_DISTS = st.one_of(st.sampled_from(sorted(ELEMENTWISE_FAMILIES)).map(lambda k: ELEMENTWISE_FAMILIES[k]()), _RANDOM_DISCRETE)


def _points(d: dst.Dist, inside_only: bool = False):
    """Points inside the support, on atoms and ATOL/2 either side of them,
    and outside the support, including +-inf. inside_only keeps the points a
    virtual transform takes: inside a continuous support, or near atoms."""
    lo, hi = d.support()
    inside = st.floats(0.0, 1.0).map(lambda f: lo + f * (hi - lo))
    if d.kind == "discrete":
        near = st.sampled_from(d.values).flatmap(lambda a: st.sampled_from([a, a - dst.ATOL / 2, a + dst.ATOL / 2]))
        inside = near if inside_only else st.one_of(inside, near)
    if inside_only:
        return inside
    outside = st.one_of(
        st.floats(1e-6, 100.0).map(lambda x: lo - x),
        st.floats(1e-6, 100.0).map(lambda x: hi + x),
        st.sampled_from([-math.inf, math.inf]),
    )
    return st.one_of(inside, outside)


def _assert_same_bits(fn, xs):
    """The array call equals the per-element float calls bit for bit, in
    the array's shape."""
    arr = fn(np.array(xs))
    singles = [fn(x) for x in xs]
    assert all(type(y) is float for y in singles)
    assert isinstance(arr, np.ndarray) and arr.shape == (len(xs),)
    assert [float(y).hex() for y in arr] == [y.hex() for y in singles]
    assert np.array_equal(fn(np.array(xs).reshape(-1, 1)), arr.reshape(-1, 1), equal_nan=True)


@given(d=_DISTS, data=st.data())
@settings(max_examples=80, derandomize=True, deadline=None)
def test_elementwise_queries_match_float_calls_bit_for_bit(d, data):
    xs = data.draw(st.lists(_points(d), min_size=1, max_size=24))
    for fn in [d.cdf, d.below, d.tail] + ([d.pdf] if d.kind == "continuous" else []):
        _assert_same_bits(fn, xs)
    x = np.array(xs)
    assert np.all(np.abs(d.below(x) + d.tail(x) - 1.0) <= 1e-15)
    us = data.draw(st.lists(st.one_of(st.floats(-0.5, 1.5), st.sampled_from([0.0, 1.0, math.nan])), min_size=1, max_size=24))
    _assert_same_bits(d.ppf, us)
    lo, hi = d.support()
    assert d.ppf(0.0).hex() == dst.quantile(d, 0.0).hex() == lo.hex()
    levels = d.ppf(np.array(us))
    assert np.array_equal(np.isnan(levels), np.isnan(us))
    assert np.all((lo <= levels[~np.isnan(levels)]) & (levels[~np.isnan(levels)] <= hi))
    for side in ("above", "below"):
        _assert_same_bits(lambda x: dst.expected_excess(d, x, side), xs)
    vs = data.draw(st.lists(_points(d, inside_only=True), min_size=1, max_size=24))
    for fn in (dst.buyer_virtual, dst.seller_virtual):
        _assert_same_bits(lambda v: fn(d, v), vs)


@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-0.5, 1.5), (2.0, 40.0)])
def test_uniform_mean_is_the_midpoint(lo, hi):
    assert math.isclose(dst.uniform(lo, hi).mean(), (lo + hi) / 2.0, rel_tol=1e-14)


@pytest.mark.parametrize("t", [0.5, 4.0, 10.0, 100.0])
def test_exponential_truncated_mean_matches_closed_form(t):
    lam = 1.0 / (1.0 - math.exp(-t))
    assert math.isclose(dst.exponential_truncated(t).mean(), lam * (1.0 - (1.0 + t) * math.exp(-t)), rel_tol=1e-14)


def test_only_distributions_reads_the_closures():
    # every other module asks Dist's elementwise queries, so the clamp and
    # the atom rule have one home
    src = Path(dst.__file__).parent
    for path in sorted(src.glob("*.py")):
        if path.name != "distributions.py":
            text = path.read_text()
            for attr in (".cdf_fn", ".pdf_fn", ".quantile_fn"):
                assert attr not in text, f"{path.name} reads {attr}"
    assert not any(hasattr(mech, name) for name in ("_cdf", "_prob_below"))
    assert not hasattr(dst.Dist, "mass")


# -- the atom arrays against the tuple-based kernels ----------------------------

# atoms on a coarse lattice, anywhere, or within ATOL of a lattice point
_ATOM = st.one_of(
    st.integers(-8, 8).map(lambda k: k / 4),
    st.floats(-3.0, 3.0),
    st.tuples(st.integers(-8, 8), st.sampled_from([-1.0, -0.5, 0.5, 1.0])).map(lambda t: t[0] / 4 + t[1] * dst.ATOL),
)


@st.composite
def small_discrete(draw, max_atoms=6):
    """A discrete Dist of 1 to max_atoms atoms: masses from integer weights
    (cumulative masses often land on round levels) or from floats."""
    vals = sorted(draw(st.lists(_ATOM, min_size=1, max_size=max_atoms, unique=True)))
    k = len(vals)
    weights = draw(st.one_of(st.lists(st.integers(1, 4), min_size=k, max_size=k), st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    return dst.discrete(vals, [w / sum(weights) for w in weights])


def _near(points, width):
    """Each point, the points `width` either side of it, and the floats next
    to all three."""
    out = []
    for p in points:
        for q in (p - width, p, p + width):
            out += [np.nextafter(q, -math.inf), q, np.nextafter(q, math.inf)]
    return out


def _hexes(x):
    return [float(v).hex() for v in np.ravel(x)]


@given(d=small_discrete(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_discrete_queries_match_the_tuple_kernels_bit_for_bit(d, data):
    special = [math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, -0.5, 1.5]
    levels = _near(np.cumsum(d.probs), dst.ATOL) + special
    levels += data.draw(st.lists(st.floats(0.0, 1.0), max_size=8))
    values = _near(d.values, dst.ATOL) + special + data.draw(st.lists(st.floats(-4.0, 4.0), max_size=8))
    for got, want, xs in (
        (d.ppf, ref.ppf, levels),
        (d.cdf, ref.cdf, values),
        (d.below, ref.below, values),
        (d.tail, ref.tail, values),
    ):
        assert _hexes(got(np.array(xs))) == _hexes(want(d, xs))
        assert [got(x).hex() for x in xs[:12]] == _hexes(want(d, xs[:12]))


@given(small_discrete(max_atoms=8))
@settings(max_examples=150, deadline=None)
def test_discrete_ironing_matches_the_tuple_kernel_bit_for_bit(d):
    for side in ("buyer", "seller"):
        want = ref.iron_discrete(np.asarray(d.values), np.asarray(d.probs), side)
        assert _hexes(dst._iron_discrete(d.atoms, d.masses, side)) == _hexes(want)
        iv = dst.iron(d, side)
        assert _hexes(iv.grid_virtuals) == _hexes(want)
        assert iv.grid_values.tolist() == list(d.values)


def test_atom_and_ironing_arrays_are_read_only():
    d = dst.discrete([0.0, 0.5, 1.0], [0.2, 0.3, 0.5])
    ironed = [dst.iron(x, side) for x in (d, dst.uniform(0.0, 1.0), dst.lognormal(0.0, 2.5)) for side in ("buyer", "seller")]
    for a in [d.atoms, d.masses, d.cum_masses] + [a for iv in ironed for a in (iv.grid_values, iv.grid_virtuals)]:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 7.0
    assert d.atoms.tolist() == [0.0, 0.5, 1.0] and d.masses.tolist() == [0.2, 0.3, 0.5]


@pytest.mark.parametrize("clone", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy], ids=["pickle", "deepcopy"])
def test_copies_keep_read_only_arrays(clone):
    d = dst.discrete([0.0, 0.5, 1.0], [0.2, 0.3, 0.5])
    twin = clone(d)
    assert twin == d and hash(twin) == hash(d)
    ironed = dst.iron(d, "buyer")
    other = clone(ironed)
    assert _hexes(other.grid_virtuals) == _hexes(ironed.grid_virtuals)
    assert _hexes(other(d.atoms)) == _hexes(ironed(d.atoms))
    for a in (twin.atoms, twin.masses, twin.cum_masses, other.grid_values, other.grid_virtuals):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 7.0


def test_deep_copied_continuous_dist_answers_cdf():
    u = dst.uniform(0.0, 2.0)
    assert copy.deepcopy(u).cdf(0.5) == u.cdf(0.5) == 0.25


CONTINUOUS_FAMILIES = {
    "uniform": lambda: dst.uniform(0.2, 1.7),
    "exponential_truncated": lambda: dst.exponential_truncated(4.0),
    "exponential_truncated_reversed": lambda: dst.exponential_truncated_reversed(3.0),
    "lognormal": lambda: dst.lognormal(0.0, 0.5),
}


@pytest.mark.parametrize("family", sorted(CONTINUOUS_FAMILIES))
def test_builtin_continuous_dists_pickle(family):
    d = CONTINUOUS_FAMILIES[family]()
    twin = pickle.loads(pickle.dumps(d))
    lo, hi = d.support()
    v = np.linspace(lo - 0.5, hi + 0.5, 41)
    u = np.linspace(0.0, 1.0, 41)
    assert (twin.name, twin.params, twin.support()) == (d.name, d.params, d.support())
    assert _hexes(twin.cdf(v)) == _hexes(d.cdf(v)) and _hexes(twin.ppf(u)) == _hexes(d.ppf(u))


@pytest.mark.parametrize("example", [lambda: instances.example_a1(4.0), lambda: instances.example_a2(4, 6.0)], ids=["a1", "a2"])
def test_continuous_markets_and_their_ironed_virtuals_pickle(example):
    inst = example()
    twin = pickle.loads(pickle.dumps(inst))
    u = np.linspace(0.0, 1.0, 17)
    for d, t in zip(inst.buyer_dists + inst.seller_dists, twin.buyer_dists + twin.seller_dists):
        v = np.linspace(*d.support(), 17)
        assert _hexes(t.cdf(v)) == _hexes(d.cdf(v)) and _hexes(t.ppf(u)) == _hexes(d.ppf(u))
    for iv, it in zip(inst.buyer_ironed, pickle.loads(pickle.dumps(inst.buyer_ironed))):
        v = np.linspace(*iv.dist.support(), 17)
        assert _hexes(it(v)) == _hexes(iv(v)) and _hexes(it.grid_virtuals) == _hexes(iv.grid_virtuals)


def test_raw_closure_dist_still_refuses_pickle():
    d = dst.Dist(kind="continuous", cdf_fn=lambda v: v, pdf_fn=lambda v: 1.0 + 0.0 * v, quantile_fn=lambda q: q, lo=0.0, hi=1.0)
    with pytest.raises((AttributeError, pickle.PicklingError)):
        pickle.dumps(d)


def test_discrete_virtuals_read_the_nearest_atom():
    # two atoms 5e-10 apart, inside the 1e-9 match tolerance of each other
    d = dst.discrete([1.0, 1.0 + 5e-10, 2.0], [0.25, 0.25, 0.5])
    for fn, side in ((dst.buyer_virtual, "buyer"), (dst.seller_virtual, "seller")):
        want = dst._atom_virtuals(d, side)
        assert [fn(d, x).hex() for x in d.values] == _hexes(want)
        assert fn(d, 1.0 + 2.5e-10).hex() == want[0].hex()  # a tie reads the lower atom
        with pytest.raises(ValueError, match="not a support point"):
            fn(d, 1.5)


def test_atom_arrays_follow_the_tuples_and_stay_out_of_equality():
    d = dst.discrete([0.0, 0.5, 1.0], [0.2, 0.3, 0.5])
    moved = dataclasses.replace(d, values=(1.0, 2.0, 4.0), probs=(0.5, 0.25, 0.25))
    assert moved.atoms.tolist() == [1.0, 2.0, 4.0] and moved.masses.tolist() == [0.5, 0.25, 0.25]
    assert moved.cum_masses.tolist() == [0.5, 0.75, 1.0]
    assert (moved.ppf(0.6), moved.cdf(2.0), moved.tail(2.0)) == (2.0, 0.75, 0.5)
    twin = dst.discrete([0.0, 0.5, 1.0], [0.2, 0.3, 0.5])
    assert twin is not d and twin == d and hash(twin) == hash(d)
    assert dst.dist_from_json(dst.dist_to_json(d)) == d
    assert d != moved
    assert {f.name for f in dataclasses.fields(d)}.isdisjoint({"atoms", "masses", "cum_masses"})
