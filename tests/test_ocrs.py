"""
Tests for greedy online contention resolution: samplers, selectability
estimates against claimed guarantees, composition, and the posted-price
construction driven by activation targets.
"""
import dataclasses
import math

import numpy as np
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
    # 69 other elements do not fit an int64 pattern key
    n = 70
    q = np.full(n, 0.004)
    eta, se = ocrs.estimate_selectability(ocrs.unit_demand_ocrs(0.5), q, 3, samples=2000, seed=9)
    want = (1.0 - 0.004) ** (n - 1)
    assert abs(eta - want) <= 5.0 * math.sqrt(want * (1.0 - want) / 2000)


def test_selectability_capacity_guards():
    scheme = ocrs._scheme_for(fea.additive(range(20)), 1.0)
    with pytest.raises(CapacityError):
        ocrs.estimate_selectability(scheme, np.ones(20), 0, samples=10, seed=0)
    with pytest.raises(CapacityError):
        ocrs.exact_selectability(scheme, np.ones(20), 0)


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
