"""
Tests for the exact expectations over the discrete profile grid: the grid
built by index arithmetic, the profile cap checked before any grid is built,
and first best, OPT-B, the unit-demand relaxation and exact_gft against a
plain double loop over profiles.
"""
import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dist_reference as ref
from gft_lab import audits, bounds
from gft_lab import distributions as dst
from gft_lab import feasibility as fea
from gft_lab import mechanisms as mech

LATTICE = [j / 4 for j in range(9)]  # quarter steps on [0, 2]: ties everywhere


def test_cap_checked_before_any_grid_is_built(monkeypatch):
    # 6^5 = 7,776 profiles per side, 6^10 (about 6.0e7) together: over GRID_CAP
    d = dst.discrete(range(6), [1 / 6] * 6)
    inst = mech.market([d] * 5, [d] * 5, fea.unit_demand(range(5)))

    def no_grid(*args, **kwargs):
        raise AssertionError("a profile grid was built")

    monkeypatch.setattr(mech, "_product_grid", no_grid)
    calls = [
        lambda: audits.first_best_gft(inst, "exact"),
        lambda: audits.exact_gft(mech.BuyerOffering(inst), inst),
        lambda: bounds.opt_b(inst, "exact"),
        lambda: bounds.brustle_sd_upper(inst),
    ]
    for call in calls:
        with pytest.raises(fea.CapacityError):
            call()


@st.composite
def item_dists(draw):
    """1 to 4 discrete items of 1 to 6 atoms each, masses from integer or
    float weights."""
    out = []
    for _ in range(draw(st.integers(1, 4))):
        vals = sorted(draw(st.lists(st.one_of(st.sampled_from(LATTICE), st.floats(-2.0, 2.0)), min_size=1, max_size=6, unique=True)))
        w = draw(st.one_of(st.lists(st.integers(1, 5), min_size=len(vals), max_size=len(vals)),
                           st.lists(st.floats(0.01, 1.0), min_size=len(vals), max_size=len(vals))))
        out.append(dst.discrete(vals, [x / sum(w) for x in w]))
    return out


@settings(max_examples=150, deadline=None)
@given(item_dists())
def test_product_grid_matches_the_index_grid_bit_for_bit(dists):
    grid, probs = mech._product_grid(dists)
    want_grid, want_probs = ref.product_grid(dists)
    assert grid.shape == want_grid.shape and grid.tobytes() == want_grid.tobytes()
    assert probs.shape == want_probs.shape and probs.tobytes() == want_probs.tobytes()


def _constraint(kind: str, n: int, k: int) -> fea.Constraint:
    g = range(n)
    return {
        "additive": lambda: fea.additive(g),
        "unit_demand": lambda: fea.unit_demand(g),
        "k_uniform": lambda: fea.k_uniform(k, g),
        "matroid": lambda: fea.matroid_oracle(lambda T: min(1, len(T & {0, 1})) + min(1, len(T & {2})), g),
    }[kind]()


@st.composite
def small_markets(draw):
    n = draw(st.integers(1, 3))
    value = st.one_of(st.sampled_from(LATTICE), st.floats(0.0, 2.0))

    def dist():
        vals = sorted(draw(st.lists(value, min_size=1, max_size=3, unique=True)))
        w = draw(st.lists(st.integers(1, 3), min_size=len(vals), max_size=len(vals)))
        return dst.discrete(vals, [x / sum(w) for x in w])

    kind = draw(st.sampled_from(["additive", "unit_demand", "k_uniform", "matroid"]))
    constraint = _constraint(kind, n, draw(st.integers(1, n)))
    return mech.market([dist() for _ in range(n)], [dist() for _ in range(n)], constraint)


def _profiles(dists):
    """(values, probability) per profile, by itertools.product over the atoms."""
    for atoms in product(*(zip(d.values, d.probs) for d in dists)):
        p = 1.0
        for _, q in atoms:
            p *= q
        yield [v for v, _ in atoms], p


def _double_loop(inst):
    """First best, OPT-B, the unit-demand relaxation and GFT(BuyerOffering),
    one profile at a time with max_weight_set and scalar ironed virtuals."""
    c, n = inst.constraint, inst.n
    fb = ob = relax = bo = 0.0
    for b, pb in _profiles(inst.buyer_dists):
        phi = [inst.buyer_ironed[i](b[i]) for i in range(n)]
        for s, ps in _profiles(inst.seller_dists):
            w = pb * ps
            tau = [inst.seller_ironed[i](s[i]) for i in range(n)]
            fb += w * fea.max_weight_set(c, [b[i] - s[i] for i in range(n)])[1]
            chosen, value = fea.max_weight_set(c, [b[i] - tau[i] for i in range(n)])
            ob += w * value
            bo += w * sum(b[i] - s[i] for i in chosen)
            relax += w * (max(max(phi[i] - s[i], 0.0) for i in range(n)) + max(max(b[i] - tau[i], 0.0) for i in range(n)))
    return fb, ob, relax, bo


@settings(max_examples=40)
@given(small_markets())
def test_grid_expectations_match_double_loop(inst):
    for dists in (inst.buyer_dists, inst.seller_dists):
        grid, probs = mech._product_grid(dists)
        rows = list(_profiles(dists))
        assert grid.tobytes() == np.array([v for v, _ in rows], dtype=float).tobytes()
        assert probs.tobytes() == np.array([p for _, p in rows]).tobytes()

    fb, ob, relax, bo = _double_loop(inst)
    got = {
        "fb": (audits.first_best_gft(inst, "exact"), fb),
        "opt_b": (bounds.opt_b(inst, "exact"), ob),
        "bo": (audits.exact_gft(mech.BuyerOffering(inst), inst), bo),
    }
    if inst.constraint.variant == "unit_demand":
        got["relaxation"] = (bounds.brustle_sd_upper(inst), relax)
    for name, (value, want) in got.items():
        assert math.isclose(value, want, rel_tol=1e-12, abs_tol=1e-12), (name, value, want)
