"""
Tests for greedy online contention resolution: samplers, selectability
estimates against claimed guarantees, composition, and the posted-price
construction driven by activation targets.
"""
import dataclasses
import math

import numpy as np
import ocrs_reference as ref
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gft_lab import distributions as dst
from gft_lab import feasibility as fea
from gft_lab import mechanisms as mech
from gft_lab import ocrs
from gft_lab.feasibility import CapacityError


def assert_at_least(estimate, stderr, floor):
    assert estimate >= floor - 3.0 * stderr


def test_sampled_subconstraint_within_base():
    schemes = [
        (ocrs.unit_demand_ocrs(0.5), np.array([0.2, 0.2, 0.1])),
        (ocrs.knapsack_ocrs(0.25, [0.4, 0.4, 0.4]), 0.25 * np.array([0.8, 0.8, 0.8])),
        (ocrs.knapsack_ocrs(0.25, [0.7, 0.3, 0.3]), 0.25 * np.array([0.5, 0.8, 0.8])),
    ]
    for scheme, q in schemes:
        base_sets = set(fea.feasible_sets(scheme.base_for(len(q))))
        for seed in range(12):
            sub = scheme.subconstraint_sampler(q, seed)
            assert set(fea.feasible_sets(sub)) <= base_sets


def test_sampler_is_deterministic_in_seed():
    scheme = ocrs.knapsack_ocrs(0.25, [0.7, 0.3, 0.3])
    q = 0.25 * np.array([0.5, 0.8, 0.8])
    for seed in (0, 1, 17):
        a = scheme.subconstraint_sampler(q, seed)
        b = scheme.subconstraint_sampler(q, seed)
        assert set(fea.feasible_sets(a)) == set(fea.feasible_sets(b))


def test_unit_demand_claimed_eta_examples():
    scheme = ocrs.unit_demand_ocrs(0.5)
    assert math.isclose(scheme.claimed_eta(np.array([0.25, 0.25])), 0.75, abs_tol=1e-12)
    assert math.isclose(scheme.claimed_eta(np.zeros(2)), 1.0, abs_tol=1e-12)


def test_unit_demand_estimate_meets_claim():
    scheme = ocrs.unit_demand_ocrs(0.5)
    q = np.array([0.25, 0.25])
    eta, se = ocrs.estimate_selectability(scheme, q, 0, samples=4000, seed=2)
    assert_at_least(eta, se, scheme.claimed_eta(q))
    assert_at_least(eta, se, 1.0 - scheme.delta)


def test_knapsack_single_element_always_admitted():
    scheme = ocrs.knapsack_ocrs(0.5, [0.8])
    assert math.isclose(scheme.claimed_eta(np.array([0.3])), 1.0, abs_tol=1e-12)
    eta, _ = ocrs.estimate_selectability(scheme, [0.3], 0, samples=500, seed=3)
    assert math.isclose(eta, 1.0, abs_tol=1e-12)


def test_knapsack_all_big_meets_floor():
    delta = 0.25
    scheme = ocrs.knapsack_ocrs(delta, [0.6, 0.7, 0.8])
    q = delta * np.array([0.3, 0.3, 0.3])
    floor = (1.0 - 2.0 * delta) / (2.0 - 2.0 * delta)
    assert scheme.claimed_eta(q) >= floor - 1e-12
    eta, se = ocrs.estimate_selectability(scheme, q, 1, samples=4000, seed=4)
    assert_at_least(eta, se, floor)


def test_knapsack_all_small_meets_floor():
    delta = 0.25
    scheme = ocrs.knapsack_ocrs(delta, [0.4, 0.4, 0.4])
    q = delta * np.array([0.8, 0.8, 0.8])
    eta, se = ocrs.estimate_selectability(scheme, q, 0, samples=4000, seed=5)
    assert_at_least(eta, se, 1.0 / 3.0)


def test_estimate_rejects_out_of_polytope_targets():
    scheme = ocrs.unit_demand_ocrs(0.5)
    with pytest.raises(ValueError):
        ocrs.estimate_selectability(scheme, [0.4, 0.4], 0, samples=10, seed=0)


def test_knapsack_scheme_that_builds_can_be_evaluated():
    # the scheme and feasibility.knapsack apply one size bound, [0, 1]
    scheme = ocrs.knapsack_ocrs(0.25, [1.0, 0.3])
    q = 0.25 * np.array([0.5, 0.5])
    for i in range(2):
        eta, _ = ocrs.estimate_selectability(scheme, q, i, samples=500, seed=1)
        assert 0.0 < eta <= 1.0
        assert 0.0 < ocrs.exact_selectability(scheme, q, i) <= 1.0
    with pytest.raises(ValueError, match="knapsack sizes"):
        ocrs.knapsack_ocrs(0.25, [1.0 + 5e-13, 0.3])
    with pytest.raises(ValueError, match="knapsack sizes"):
        ocrs.knapsack_ocrs(0.25, [-1e-13, 0.3])


def test_estimate_rejects_fewer_than_one_sample():
    scheme = ocrs.unit_demand_ocrs(0.5)
    q = np.array([0.2, 0.2])
    for samples in (0, -3):
        with pytest.raises(ValueError, match="samples"):
            ocrs.estimate_selectability(scheme, q, 0, samples=samples)
    assert ocrs.estimate_selectability(scheme, q, 0, samples=1)[0] in (0.0, 1.0)


def test_compose_with_trivial_is_identity():
    base = ocrs.unit_demand_ocrs(0.5)
    trivial = ocrs.GreedyOcrs(
        kind="trivial",
        delta=0.5,
        base_for=lambda n: fea.additive(range(n)),
        branches=lambda q: ((1.0, fea.additive(range(len(q)))),),
        subconstraint_sampler=lambda q, seed: fea.additive(range(len(q))),
        claimed_eta=lambda q: 1.0,
    )
    comp = ocrs.compose_ocrs(base, trivial)
    q = np.array([0.25, 0.25])
    assert math.isclose(comp.claimed_eta(q), base.claimed_eta(q), abs_tol=1e-12)
    base_sets = set(fea.feasible_sets(base.base_for(2)))
    assert set(fea.feasible_sets(comp.base_for(2))) == base_sets
    for seed in range(8):
        assert set(fea.feasible_sets(comp.subconstraint_sampler(q, seed))) <= base_sets


def test_compose_requires_equal_delta():
    with pytest.raises(ValueError):
        ocrs.compose_ocrs(ocrs.unit_demand_ocrs(0.5), ocrs.unit_demand_ocrs(0.25))


def test_compose_two_schemes_product_guarantee():
    delta = 0.25
    a = ocrs.unit_demand_ocrs(delta)
    b = ocrs.knapsack_ocrs(delta, [0.4, 0.4, 0.3])
    comp = ocrs.compose_ocrs(a, b)
    q = delta * np.array([0.3, 0.3, 0.2])
    ea, sa = ocrs.estimate_selectability(a, q, 0, samples=4000, seed=11)
    eb, sb = ocrs.estimate_selectability(b, q, 0, samples=4000, seed=12)
    ec, sc = ocrs.estimate_selectability(comp, q, 0, samples=4000, seed=13)
    sigma = math.sqrt(sc * sc + (eb * sa) ** 2 + (ea * sb) ** 2)
    assert ec >= ea * eb - 3.0 * sigma
    assert comp.claimed_eta(q) <= a.claimed_eta(q) + 1e-12


# (eta, se) recorded before selectability was computed per distinct key; these
# schemes have one branch, so the active-set stream and every count are kept
PINNED_SINGLE_BRANCH = {
    "unit-demand": (
        lambda: ocrs.unit_demand_ocrs(0.5),
        [0.125, 0.1, 0.15, 0.05],
        1,
        7,
        (0.703, 0.008342481645170098),
    ),
    "knapsack-all-small": (
        lambda: ocrs.knapsack_ocrs(0.25, [0.4, 0.4, 0.4]),
        0.25 * np.array([0.8, 0.8, 0.8]),
        0,
        5,
        (0.9523333333333334, 0.0038899252587316522),
    ),
    "knapsack-all-big": (
        lambda: ocrs.knapsack_ocrs(0.25, [0.6, 0.7, 0.8]),
        0.25 * np.array([0.3, 0.3, 0.3]),
        1,
        4,
        (0.8596666666666667, 0.00634139545339165),
    ),
    "unit-demand-with-small-knapsack": (
        lambda: ocrs.compose_ocrs(ocrs.unit_demand_ocrs(0.25), ocrs.knapsack_ocrs(0.25, [0.4, 0.4, 0.3, 0.3])),
        0.25 * np.array([0.3, 0.3, 0.2, 0.2]),
        0,
        61,
        (0.8323333333333334, 0.006820424120623672),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_SINGLE_BRANCH))
def test_single_branch_estimates_pinned(name):
    make, q, i, seed, want = PINNED_SINGLE_BRANCH[name]
    scheme = make()
    assert len(scheme.branches(np.asarray(q))) == 1
    assert ocrs.estimate_selectability(scheme, q, i, samples=3000, seed=seed) == want

    def no_draws(q_hat, seed):
        raise AssertionError("estimate_selectability must not draw subconstraints")

    silent = dataclasses.replace(scheme, subconstraint_sampler=no_draws)
    assert ocrs.estimate_selectability(silent, q, i, samples=3000, seed=seed) == want


def test_sampler_families_pinned():
    # B/S: the big-item or the small-item branch, drawn for seeds 0-15
    big = {frozenset(), frozenset({0})}
    cases = [
        (
            ocrs.knapsack_ocrs(0.25, [0.7, 0.3, 0.3]),
            0.25 * np.array([0.5, 0.8, 0.8]),
            "SBBBSBBSBSSBBSBB",
            {frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})},
        ),
        (
            ocrs.compose_ocrs(ocrs.unit_demand_ocrs(0.25), ocrs.knapsack_ocrs(0.25, [0.7, 0.3, 0.3])),
            0.25 * np.array([0.4, 0.3, 0.3]),
            "BBBSBSBBSBBSSBBS",
            {frozenset(), frozenset({1}), frozenset({2})},
        ),
    ]
    for scheme, q, picks, small in cases:
        for seed, pick in enumerate(picks):
            got = set(fea.feasible_sets(scheme.subconstraint_sampler(q, seed)))
            assert got == (big if pick == "B" else small)


def test_branches_cover_the_sampler():
    scheme = ocrs.compose_ocrs(ocrs.unit_demand_ocrs(0.25), ocrs.knapsack_ocrs(0.25, [0.7, 0.3, 0.3]))
    q = 0.25 * np.array([0.4, 0.3, 0.3])
    branches = scheme.branches(q)
    assert math.isclose(sum(p for p, _ in branches), 1.0, abs_tol=1e-12)
    families = [set(fea.feasible_sets(c)) for _, c in branches]
    for seed in range(16):
        assert set(fea.feasible_sets(scheme.subconstraint_sampler(q, seed))) in families


def test_knapsack_branches_are_built_once_per_scheme():
    # the same subconstraint objects on every call, so each table is built once
    scheme = ocrs.knapsack_ocrs(0.25, [0.7, 0.3, 0.3])
    first = scheme.branches(0.25 * np.array([0.5, 0.8, 0.8]))
    again = scheme.branches(0.25 * np.array([0.2, 0.4, 0.1]))
    assert len(first) == len(again) == 2
    assert all(a is b for (_, a), (_, b) in zip(first, again))


def _small_class_rho(sizes, q):
    """rho of a knapsack with one big item: its bound is 1, the small class's
    is the Markov bound."""
    small = [j for j in range(len(sizes)) if sizes[j] <= 0.5]
    ls = min(1.0 - sum(sizes[j] * q[j] for j in small if j != i) / (1.0 - sizes[i]) for i in small)
    return ls / (1.0 + ls)


def test_exact_selectability_closed_forms():
    # the shapes of the mc-estimate OCRS fixtures
    q = 0.5 * 0.95 * np.array([0.3, 0.2, 0.4, 0.1])
    scheme = ocrs.unit_demand_ocrs(0.5)
    for i in range(4):
        want = math.prod(1.0 - q[j] for j in range(4) if j != i)
        assert math.isclose(ocrs.exact_selectability(scheme, q, i), want, rel_tol=0.0, abs_tol=1e-12)

    # one big item; any two small items fit, so a small item is admitted
    # whenever the small branch is drawn
    sizes = [0.7, 0.3, 0.3]
    q = 0.25 * np.array([0.5, 0.8, 0.8])
    rho = _small_class_rho(sizes, q)
    scheme = ocrs.knapsack_ocrs(0.25, sizes)
    for i, want in enumerate([rho, 1.0 - rho, 1.0 - rho]):
        assert math.isclose(ocrs.exact_selectability(scheme, q, i), want, rel_tol=0.0, abs_tol=1e-12)

    # with unit demand on top, an element is admitted when its class is drawn
    # and no other element of its class is active
    sizes = [0.7, 0.3, 0.4, 0.35]
    q = 0.25 * 0.95 * np.array([0.4, 0.2, 0.3, 0.1])
    rho = _small_class_rho(sizes, q)
    scheme = ocrs.compose_ocrs(ocrs.unit_demand_ocrs(0.25), ocrs.knapsack_ocrs(0.25, sizes))
    assert math.isclose(ocrs.exact_selectability(scheme, q, 0), rho, rel_tol=0.0, abs_tol=1e-12)
    for i in (1, 2, 3):
        want = (1.0 - rho) * math.prod(1.0 - q[j] for j in (1, 2, 3) if j != i)
        assert math.isclose(ocrs.exact_selectability(scheme, q, i), want, rel_tol=0.0, abs_tol=1e-12)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    kind=st.sampled_from(["unit_demand", "knapsack", "compose"]),
    n=st.integers(1, 4),
    delta=st.sampled_from([0.25, 0.5, 1.0]),
    sizes=st.lists(st.floats(0.05, 0.95), min_size=4, max_size=4),
    raw=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    seed=st.integers(0, 2**16),
)
def test_estimate_agrees_with_exact_selectability(kind, n, delta, sizes, raw, seed):
    sizes, x = sizes[:n], np.array(raw[:n])
    if kind == "knapsack":
        scheme = ocrs.knapsack_ocrs(delta, sizes)
        x = x / max(1.0, float(np.dot(x, sizes)))
    else:
        scheme = ocrs.unit_demand_ocrs(delta)
        if kind == "compose":
            scheme = ocrs.compose_ocrs(scheme, ocrs.knapsack_ocrs(delta, sizes))
        x = x / max(1.0, float(x.sum()))
    q = 0.95 * delta * x
    samples = 2000
    for i in range(n):
        want = ocrs.exact_selectability(scheme, q, i)
        eta, se = ocrs.estimate_selectability(scheme, q, i, samples=samples, seed=seed + i)
        sigma = max(se, math.sqrt(want * (1.0 - want) / samples))
        assert abs(eta - want) <= 5.0 * sigma


def test_estimate_selectability_wide_ground():
    # 69 other elements: a size cap needs no table of the 2^69 patterns
    n = 70
    q = np.full(n, 0.004)
    eta, se = ocrs.estimate_selectability(ocrs.unit_demand_ocrs(0.5), q, 3, samples=2000, seed=9)
    want = (1.0 - 0.004) ** (n - 1)
    assert abs(eta - want) <= 5.0 * math.sqrt(want * (1.0 - want) / 2000)


def test_selectability_capacity_guards():
    # exact enumeration is refused by its (branch, pattern) count before any
    # pattern is built; a size cap admits every element of an additive scheme
    # without enumerating anything
    wide = ocrs._scheme_for(fea.additive(range(22)), 1.0)
    with pytest.raises(CapacityError, match=r"2\^21"):
        ocrs.exact_selectability(wide, np.ones(22), 0)
    scheme = ocrs._scheme_for(fea.additive(range(20)), 1.0)
    assert ocrs.estimate_selectability(scheme, np.ones(20), 0, samples=10, seed=0)[0] == 1.0


@st.composite
def admission_constraints(draw):
    """A knapsack, matching, partition matroid or intersection of two of
    them, or a unit-demand, k-uniform or additive constraint, on up to 7
    items."""
    n = draw(st.integers(1, 7))
    size = st.integers(0, 8).map(lambda k: k / 8) | st.floats(0.0, 1.0)
    edge = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda e: e[0] != e[1])
    part = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    caps = draw(st.lists(st.integers(0, 2), min_size=3, max_size=3))
    bases = {
        "knapsack": lambda: fea.knapsack(draw(st.lists(size, min_size=n, max_size=n))),
        "matching": lambda: fea.matching(draw(st.lists(edge, min_size=n, max_size=n))),
        "matroid": lambda: fea.matroid_oracle(
            lambda S: sum(min(caps[p], sum(part[i] == p for i in S)) for p in range(3)), range(n)
        ),
    }
    kind = draw(st.sampled_from([*bases, "intersection", "unit_demand", "k_uniform", "additive"]))
    if kind == "intersection":
        a, b = draw(st.lists(st.sampled_from(list(bases)), min_size=2, max_size=2))
        return fea.intersection(bases[a](), bases[b]())
    if kind == "unit_demand":
        return fea.unit_demand(range(n))
    if kind == "k_uniform":
        return fea.k_uniform(draw(st.integers(1, n)), range(n))
    return fea.additive(range(n)) if kind == "additive" else bases[kind]()


@settings(max_examples=120)
@given(admission_constraints())
def test_admission_matches_the_exhaustive_subset_check(c):
    # every element against every active pattern of the others
    n = len(c.ground)
    patterns = np.arange(1 << n)[:, None] >> np.arange(n) & 1 == 1
    for i in range(n):
        active = patterns[~patterns[:, i]]
        want = [ref.admits(c, tuple(np.flatnonzero(r).tolist()), i) for r in active]
        assert ocrs._admitted(c, i, active).tolist() == want, (c.variant, i)


@settings(max_examples=40)
@given(
    kind=st.sampled_from(["knapsack", "compose-unit-demand", "compose-knapsack"]),
    n=st.integers(1, 5),
    delta=st.sampled_from([0.25, 0.5, 1.0]),
    sizes=st.lists(st.floats(0.05, 0.95), min_size=10, max_size=10),
    raw=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
)
def test_exact_selectability_matches_the_reference_loop_bit_for_bit(kind, n, delta, sizes, raw):
    # a composed target stays within the singletons' hull, which every
    # intersection of knapsacks contains
    a, b, x = sizes[:n], sizes[5:5 + n], np.array(raw[:n])
    scheme = ocrs.knapsack_ocrs(delta, a)
    load = float(np.dot(x, a))
    if kind != "knapsack":
        other = ocrs.unit_demand_ocrs(delta) if kind == "compose-unit-demand" else ocrs.knapsack_ocrs(delta, b)
        scheme = ocrs.compose_ocrs(other, scheme)
        load = float(x.sum())
    q = 0.95 * delta * x / max(1.0, load)
    for i in range(n):
        assert ocrs.exact_selectability(scheme, q, i).hex() == ref.exact_selectability(scheme, q, i).hex()


def bilateral_uniform(n=1):
    u = dst.uniform(0.0, 1.0)
    return mech.market([u] * n, [u] * n, fea.additive(range(n)))


def test_cfpp_prices_uniform_example():
    inst = bilateral_uniform()
    cp = ocrs.cfpp_prices(inst, [0.5], [0.25], 1.0)
    assert math.isclose(cp.theta_b[0], 0.5, abs_tol=1e-12)
    assert math.isclose(cp.theta_s[0], 0.5, abs_tol=1e-9)
    assert math.isclose(cp.activation[0], 0.25, abs_tol=1e-12)


def test_cfpp_prices_zero_target_never_trades():
    inst = bilateral_uniform()
    cp = ocrs.cfpp_prices(inst, [0.5], [0.0], 1.0)
    m = cp.mechanism(inst, seed=0)
    rng = np.random.default_rng(0)
    B, S = inst.sample_profiles(rng, 500)
    assert all(m.run(B[t], S[t]).traded == () for t in range(500))


def test_cfpp_prices_rejects_unreachable_target():
    inst = bilateral_uniform()
    with pytest.raises(ValueError):
        ocrs.cfpp_prices(inst, [0.5], [0.4], 1.0)


def test_cfpp_activation_probability():
    inst = mech.market(
        [dst.uniform(0.0, 1.0)] * 2,
        [dst.uniform(0.0, 1.0)] * 2,
        fea.unit_demand(range(2)),
    )
    delta, q = 0.5, np.array([0.2, 0.15])
    cp = ocrs.cfpp_prices(inst, [0.5, 0.6], q, delta)
    rng = np.random.default_rng(8)
    B, S = inst.sample_profiles(rng, 40000)
    for i in range(2):
        hit = np.mean((B[:, i] >= cp.theta_b[i]) & (S[:, i] <= cp.theta_s[i]))
        target = delta * q[i]
        se = math.sqrt(target * (1.0 - target) / len(B))
        assert abs(hit - target) <= 3.0 * se


def test_optimize_q_single_item_saturates_cap():
    inst = bilateral_uniform()
    q = ocrs.optimize_q(inst, [0.5])
    assert math.isclose(q[0], 0.25, abs_tol=1e-6)


def test_optimize_q_symmetric_items_balanced():
    inst = mech.market(
        [dst.uniform(0.0, 1.0)] * 2,
        [dst.uniform(0.0, 1.0)] * 2,
        fea.unit_demand(range(2)),
    )
    q = ocrs.optimize_q(inst, [0.5, 0.5])
    assert abs(q[0] - q[1]) < 1e-6
    assert fea.in_scaled_polytope(inst.constraint, q, 1.0)


def test_optimize_q_beats_random_feasible_points():
    inst = mech.market(
        [dst.uniform(0.0, 1.0)] * 2,
        [dst.uniform(0.2, 1.2)] * 2,
        fea.unit_demand(range(2)),
    )
    p = [0.6, 0.7]
    qstar = ocrs.optimize_q(inst, p)
    best = ocrs.lower_bound_value(inst, p, qstar)
    rng = np.random.default_rng(21)
    caps = np.array(
        [
            inst.buyer_dists[i].tail(p[i]) * inst.seller_dists[i].cdf(p[i])
            for i in range(2)
        ]
    )
    for _ in range(1000):
        q = rng.uniform(0.0, 1.0, size=2)
        q = q / max(1.0, q.sum())
        q = np.minimum(q, caps * 0.999)
        assert best >= ocrs.lower_bound_value(inst, p, q) - 1e-7


@pytest.mark.parametrize(
    "make", [lambda: dst.lognormal(0.0, 0.5), lambda: dst.lognormal(0.0, 2.5), lambda: dst.exponential_truncated(6.0)]
)
def test_quantile_integral_matches_tight_quad(make):
    # int_0^w G^-1(u) du as the partial mean up to G^-1(w), against adaptive
    # quad in value space at 1e-13 relative, split at the scale points and in
    # log space over wide pieces; quad in u-space was off by 7e-7 relative at
    # lognormal(0, 2.5), w = 0.01
    from scipy import integrate

    d = make()

    def reference(x):
        edges = sorted({d.lo, x, *(v for v in [*dst.scale_points(d), d.hi] if d.lo < v < x)})
        total = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            if a > 0.0 and b > 10.0 * a:
                f = lambda y: math.exp(2.0 * y) * d.pdf(math.exp(y))  # noqa: E731
                a, b = math.log(a), math.log(b)
            else:
                f = lambda v: v * d.pdf(v)  # noqa: E731
            total += integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=2000)[0]
        return total

    for w in (0.01, 0.25, 0.5, 0.99, 1.0):
        want = reference(dst.quantile(d, w))
        assert math.isclose(ocrs._h_integral(d, w), want, rel_tol=1e-13, abs_tol=0.0), w


def test_discrete_quantile_integral_matches_exact_fractions():
    # w x - E[(x - X)^+] at x = quantile(d, w), against the integral of the
    # quantile function summed atom by atom in exact fractions of the same
    # floats; positive atoms keep every term of the sum nonnegative
    from fractions import Fraction

    def exact(d, w):
        total, prev, w = Fraction(0), Fraction(0), Fraction(w)
        for v, p in zip(d.values, d.probs):
            total += Fraction(v) * max(Fraction(0), min(w, prev + Fraction(p)) - prev)
            prev += Fraction(p)
        return total

    rng = np.random.default_rng(11)
    for _ in range(300):
        k = int(rng.integers(1, 6))
        vals = np.sort(rng.choice(np.arange(1, 17), size=k, replace=False)) / 8.0
        mass = rng.integers(1, 6, size=k)
        d = dst.discrete(vals.tolist(), (mass / mass.sum()).tolist())
        for w in rng.integers(0, 65, size=4) / 64.0:
            want = float(exact(d, w))
            assert math.isclose(ocrs._h_integral(d, float(w)), want, rel_tol=1e-13, abs_tol=0.0), (d.values, d.probs, w)


SIZES = [0.6, 0.3, 0.45, 0.25]


@pytest.mark.parametrize(
    "constraint, kind",
    [
        (fea.unit_demand(range(4)), "unit_demand"),
        (fea.k_uniform(2, range(4)), "k_uniform"),
        (fea.knapsack(SIZES), "knapsack"),
        (fea.intersection(fea.k_uniform(2, range(4)), fea.knapsack(SIZES)), "compose[k_uniform,knapsack]"),
    ],
)
def test_cfpp_prices_schemes_meet_their_claims_and_buy_feasibly(constraint, kind):
    # the first result's path on each constraint: the scheme for the market's
    # constraint, its exact selectability against its own claim (the knapsack
    # classes are equalized, so there the two agree to rounding), and every
    # drawn subconstraint accepted by Cfpp and bought within the market
    u = dst.uniform(0.0, 1.0)
    inst = mech.market([u] * 4, [u] * 4, constraint)
    p = [0.5, 0.6, 0.55, 0.45]
    cp = ocrs.cfpp_prices(inst, p, ocrs.optimize_q(inst, p), 0.25)
    assert cp.ocrs.kind == kind
    eta = cp.ocrs.claimed_eta(cp.activation)
    assert all(ocrs.exact_selectability(cp.ocrs, cp.activation, i) >= eta - 1e-12 for i in range(4))
    B, S = inst.sample_profiles(np.random.default_rng(12), 400)
    for seed in range(6):
        X = cp.mechanism(inst, seed).allocation(B, S)
        assert X.any()
        assert all(fea.is_feasible(inst.constraint, np.flatnonzero(x).tolist()) for x in X)
