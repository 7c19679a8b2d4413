"""
Tests for constraint families: membership, max-weight selection, restriction,
scaled-polytope membership, and serialization.
"""
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gft_lab import feasibility as fea


def test_is_feasible_examples():
    ud = fea.unit_demand(range(3))
    assert fea.is_feasible(ud, {0})
    assert not fea.is_feasible(ud, {0, 1})
    kn = fea.knapsack([0.6, 0.5, 0.5])
    assert fea.is_feasible(kn, {1, 2})
    assert not fea.is_feasible(kn, {0, 1})
    both = fea.intersection(fea.unit_demand(range(3)), kn)
    assert not fea.is_feasible(both, {1, 2})
    assert fea.is_feasible(both, {2})


def test_empty_set_always_feasible():
    for c in (fea.additive(range(4)), fea.unit_demand(range(4)),
              fea.k_uniform(2, range(4)), fea.knapsack([0.5] * 4)):
        assert fea.is_feasible(c, set())


def test_max_weight_examples():
    chosen, val = fea.max_weight_set(fea.unit_demand(range(3)), [3.0, 1.0, 2.0])
    assert chosen == (0,)
    assert math.isclose(val, 3.0, abs_tol=1e-12)

    chosen, val = fea.max_weight_set(fea.k_uniform(2, range(3)), [3.0, 1.0, 2.0])
    assert set(chosen) == {0, 2}
    assert math.isclose(val, 5.0, abs_tol=1e-12)

    chosen, val = fea.max_weight_set(fea.knapsack([0.6, 0.5, 0.5]), [3.0, 2.0, 2.0])
    assert set(chosen) == {1, 2}
    assert math.isclose(val, 4.0, abs_tol=1e-12)

    # {0, 1} beats {0} by 1e-13, within 1e-12: the smaller set, under a matroid as under a knapsack
    w = {0: 0.5, 1: 1e-13}
    assert fea.max_weight_set(fea.matroid_oracle(len, range(2)), w) == ((0,), 0.5)
    assert fea.max_weight_set(fea.knapsack([0.5, 0.5]), w) == ((0,), 0.5)


def test_max_weight_drops_negative_weights():
    chosen, val = fea.max_weight_set(fea.additive(range(3)), [1.0, -2.0, 0.5])
    assert set(chosen) == {0, 2}
    assert math.isclose(val, 1.5, abs_tol=1e-12)


def test_max_weight_accepts_sparse_mapping():
    chosen, val = fea.max_weight_set(fea.additive(range(3)), {0: 1.0})
    assert chosen == (0,)
    assert math.isclose(val, 1.0, abs_tol=1e-12)


def brute_argmax(c, w):
    """max_weight_set's documented choice over every feasible set (the empty
    one included): the best value to 1e-12, then the fewest items, then the
    lexicographically smallest tuple. The sets are every subset `is_feasible`
    accepts, enumerated here rather than read from the constraint's table."""
    sets = [s for r in range(len(c.ground) + 1) for s in combinations(c.ground, r) if fea.is_feasible(c, s)]
    vals = [sum(w[i] for i in s) for s in sets]
    top = max(vals)
    return min((len(s), s) for s, v in zip(sets, vals) if v >= top - 1e-12)[1]


def test_max_weight_matches_brute_force_all_variants():
    rank = lambda S: min(2, len(S & {0, 1, 2})) + min(1, len(S & {3, 4}))
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)]
    sizes = [0.3, 0.5, 0.4, 0.2, 0.6]
    cases = [
        fea.additive(range(5)),
        fea.unit_demand(range(5)),
        fea.k_uniform(2, range(5)),
        fea.knapsack(sizes),
        fea.matroid_oracle(rank, range(5)),
        fea.matching(edges),
        fea.intersection(fea.k_uniform(3, range(5)), fea.knapsack(sizes)),
        fea.intersection(fea.matroid_oracle(rank, range(5)), fea.matching(edges)),
        fea.size_floor(fea.k_uniform(3, range(5)), 2),
        fea.size_floor(fea.matching(edges), 2),
        fea.size_floor(fea.knapsack(sizes), 2),
        fea.size_floor(fea.additive(range(5)), 3),
    ]
    rng = np.random.default_rng(9)
    for c in cases:
        # random weights, then 1/8-lattice weights in [-3/8, 1], whose sums tie exactly
        draws = [rng.uniform(-0.3, 1.0, 5) for _ in range(5)] + [rng.integers(-3, 9, 5) / 8 for _ in range(5)]
        for x in draws:
            w = {i: float(v) for i, v in zip(c.ground, x)}
            chosen, val = fea.max_weight_set(c, w)
            assert fea.is_feasible(c, chosen)
            assert math.isclose(val, sum(w[i] for i in chosen), abs_tol=1e-9)
            assert chosen == brute_argmax(c, w), (c.variant, w)


def test_size_floor_max_weight_matches_brute_force():
    # weights with negatives and -inf (an item no set may take), on every
    # floor from 1 to one above the ground size
    edges = [(0, 1), (1, 2), (2, 3), (0, 3)]
    bases = [fea.additive(range(4)), fea.k_uniform(2, range(4)), fea.knapsack([0.3, 0.5, 0.4, 0.6]), fea.matching(edges)]
    rng = np.random.default_rng(11)
    for base in bases:
        for h in range(1, len(base.ground) + 2):
            c = fea.size_floor(base, h)
            W = rng.integers(-3, 9, (40, 4)) / 8
            W[rng.random(W.shape) < 0.25] = -np.inf
            values, mask = fea.max_weight_values(c, W)
            for x, value, m in zip(W, values, mask):
                w = dict(zip(c.ground, x.tolist()))
                want = brute_argmax(c, w)
                chosen, val = fea.max_weight_set(c, w)
                assert chosen == want and fea.is_feasible(c, chosen), (base.variant, h, x)
                assert tuple(np.flatnonzero(m)) == want and value == val == sum(w[i] for i in want)


@st.composite
def searched_constraints(draw):
    """A knapsack, matching, partition matroid or intersection of two of them
    on up to 8 items, or a size floor over one of those or over additive."""
    n = draw(st.integers(1, 8))
    size = st.integers(0, 8).map(lambda k: k / 8) | st.floats(0.0, 1.0)
    edge = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(lambda e: e[0] != e[1])
    part = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    caps = draw(st.lists(st.integers(1, 2), min_size=3, max_size=3))
    bases = {
        "knapsack": lambda: fea.knapsack(draw(st.lists(size, min_size=n, max_size=n))),
        "matching": lambda: fea.matching(draw(st.lists(edge, min_size=n, max_size=n))),
        "matroid": lambda: fea.matroid_oracle(
            lambda S: sum(min(caps[p], sum(part[i] == p for i in S)) for p in range(3)), range(n)
        ),
    }
    kind = draw(st.sampled_from([*bases, "intersection", "additive"]))
    if kind == "intersection":
        a, b = draw(st.lists(st.sampled_from(list(bases)), min_size=2, max_size=2))
        c = fea.intersection(bases[a](), bases[b]())
    else:
        c = fea.additive(range(n)) if kind == "additive" else bases[kind]()
    h = draw(st.integers(1 if kind == "additive" else 0, n + 1))
    return fea.size_floor(c, h) if h else c


_lattice = st.builds(lambda k, e: k / 8 + e, st.integers(-3, 8), st.sampled_from([0.0, 0.0, 5e-13, -5e-13]))


@settings(max_examples=150)
@given(searched_constraints(), st.data())
def test_table_choice_is_the_tie_rule_and_its_value_the_index_order_sum(c, data):
    # 1/8-lattice weights tie exactly; +-5e-13 puts ties inside the 1e-12 window
    weight = st.one_of(_lattice, _lattice, _lattice, st.just(-math.inf))
    n = len(c.ground)
    W = np.array(data.draw(st.lists(st.lists(weight, min_size=n, max_size=n), min_size=1, max_size=6)))
    values, mask = fea.max_weight_values(c, W)
    for x, value, m in zip(W, values, mask):
        w = dict(zip(c.ground, x.tolist()))
        want = brute_argmax(c, w)
        assert tuple(np.flatnonzero(m)) == want, (c.variant, x)
        assert float(value).hex() == float(sum(w[i] for i in want)).hex()


def test_tables_are_cached_per_object_not_per_value():
    # rank_fn takes no part in ==, so the two matroids compare equal
    a = fea.matroid_oracle(lambda S: min(1, len(S)), range(3))
    b = fea.matroid_oracle(len, range(3))
    assert a == b
    assert len(fea.feasible_sets(a)) == 4 and len(fea.feasible_sets(b)) == 8
    assert fea.max_weight_set(a, [1.0, 2.0, 1.0])[0] == (1,)
    assert fea.max_weight_set(b, [1.0, 2.0, 1.0])[0] == (0, 1, 2)
    assert a._table is a._table


def test_size_floor_forces_minimum_cardinality():
    c = fea.size_floor(fea.k_uniform(3, range(4)), 2)
    assert not fea.is_feasible(c, {0})
    assert fea.is_feasible(c, {0, 1})
    chosen, _ = fea.max_weight_set(c, [5.0, -1.0, -2.0, -3.0])
    assert len(chosen) == 2


def test_feasible_sets_downward_closed():
    for c in (fea.unit_demand(range(4)), fea.k_uniform(2, range(4)),
              fea.knapsack([0.4, 0.4, 0.5, 0.7]),
              fea.matching([(0, 1), (1, 2), (2, 0)])):
        fams = set(fea.feasible_sets(c))
        for s in fams:
            for k in range(len(s)):
                for sub in combinations(s, k):
                    assert frozenset(sub) in fams


def test_matroid_rank_axioms_on_oracle_example():
    rank = lambda S: min(2, len(S & {0, 1, 2, 3})) + min(2, len(S & {4, 5}))
    c = fea.matroid_oracle(rank, range(6))
    fams = fea.feasible_sets(c)
    assert frozenset() in fams
    # independence == rank-quota satisfied on every feasible set
    for s in fams:
        assert rank(set(s)) == len(s)


@pytest.mark.parametrize("c, t", [
    (fea.k_uniform(2, range(5)), [1, 3, 4]),
    (fea.knapsack([0.3, 0.5, 0.4, 0.2]), [1, 3]),
], ids=["k_uniform", "knapsack"])
def test_reindex_restrict_keeps_the_feasible_subsets_of_t(c, t):
    r = fea.reindex_restrict(c, t)
    assert r.ground == tuple(range(len(t)))
    mapped = {frozenset(t[i] for i in s) for s in fea.feasible_sets(r)}
    assert mapped == {s for s in fea.feasible_sets(c) if s <= set(t)}


def test_in_scaled_polytope_examples():
    ud = fea.unit_demand(range(2))
    assert fea.in_scaled_polytope(ud, [0.3, 0.1], 0.5)
    assert not fea.in_scaled_polytope(ud, [0.4, 0.2], 0.5)
    ku = fea.k_uniform(2, range(3))
    assert fea.in_scaled_polytope(ku, [0.5, 0.5, 0.5], 1.0)
    assert not fea.in_scaled_polytope(ku, [0.9, 0.9, 0.9], 1.0)


def test_in_scaled_polytope_knapsack():
    kn = fea.knapsack([0.6, 0.6])
    assert fea.in_scaled_polytope(kn, [0.5, 0.5], 1.0)
    assert not fea.in_scaled_polytope(kn, [0.9, 0.9], 1.0)


def test_feasible_sets_capacity_guard():
    # size caps are refused by their count, sum_{r<=k} C(n, r), before enumerating
    for c in (fea.additive(range(40)), fea.k_uniform(3, range(200))):
        with pytest.raises(fea.CapacityError):
            fea.feasible_sets(c)


def test_json_round_trip():
    cases = [
        fea.additive(range(3)),
        fea.unit_demand(range(3)),
        fea.k_uniform(2, range(4)),
        fea.knapsack([0.3, 0.5, 0.4]),
        fea.matching([(0, 1), (1, 2)]),
        fea.intersection(fea.k_uniform(2, range(3)), fea.knapsack([0.4, 0.4, 0.4])),
        fea.size_floor(fea.k_uniform(2, range(3)), 1),
    ]
    for c in cases:
        back = fea.constraint_from_json(fea.constraint_to_json(c))
        assert back.variant == c.variant
        assert set(fea.feasible_sets(back)) == set(fea.feasible_sets(c))


def test_matroid_oracle_round_trips_via_rank_table():
    c = fea.matroid_oracle(lambda S: min(2, len(S)), range(4))
    back = fea.constraint_from_json(fea.constraint_to_json(c))
    assert set(fea.feasible_sets(back)) == set(fea.feasible_sets(c))
    big = fea.matroid_oracle(lambda S: len(S), range(20))
    with pytest.raises(ValueError):
        fea.constraint_to_json(big)
