"""
Tests for the LP oracle over fully discrete instances: the incentive-feasible
optimum, the seller-side relaxation, the partition check, and the verification
chain that ties mechanisms, LP values, and benchmarks together.
"""
import hashlib
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from gft_lab import audits
from gft_lab import distributions as dst
from gft_lab import feasibility as fea
from gft_lab import mechanisms as mech
from gft_lab import oracle

d = dst.discrete


def bilateral(bvals, bprobs, svals, sprobs):
    return mech.market([d(bvals, bprobs)], [d(svals, sprobs)], fea.additive([0]))


def grid_bilateral(k):
    atoms = [(j + 1) / k for j in range(k)]
    probs = [1.0 / k] * k
    return bilateral(atoms, probs, atoms, probs)


def test_second_best_sure_trade():
    inst = bilateral([1.0], [1.0], [0.0], [1.0])
    assert math.isclose(oracle.second_best_lp(oracle.DiscreteMarket(inst)), 1.0, abs_tol=1e-9)


def test_second_best_no_gains_possible():
    inst = bilateral([1.0], [1.0], [2.0], [1.0])
    m = oracle.DiscreteMarket(inst)
    assert math.isclose(oracle.second_best_lp(m), 0.0, abs_tol=1e-9)
    chain = oracle.verify_ub_chain(m)
    assert chain["sb_le_fb"]
    assert chain["sb_le_optb_plus_opts"]
    assert math.isclose(chain["fb"], 0.0, abs_tol=1e-9)


def test_second_best_strictly_below_first_best_on_uniform_grid():
    inst = grid_bilateral(8)
    m = oracle.DiscreteMarket(inst)
    sb = oracle.second_best_lp(m)
    fb = audits.first_best_gft(inst, "exact")
    assert math.isclose(sb, 0.153125, abs_tol=1e-9)
    assert math.isclose(fb, 0.1640625, abs_tol=1e-9)
    assert fb - sb > 1e-9


def test_second_best_two_atom_fixture():
    inst = bilateral([1.0, 2.0], [0.5, 0.5], [0.0, 0.5], [0.5, 0.5])
    assert math.isclose(oracle.second_best_lp(oracle.DiscreteMarket(inst)), 1.25, abs_tol=1e-9)


def test_second_best_scale_homogeneous():
    base = bilateral([1.0, 2.0], [0.5, 0.5], [0.0, 0.5], [0.5, 0.5])
    scaled = bilateral([2.0, 4.0], [0.5, 0.5], [0.0, 1.0], [0.5, 0.5])
    sb = oracle.second_best_lp(oracle.DiscreteMarket(base))
    sb2 = oracle.second_best_lp(oracle.DiscreteMarket(scaled))
    assert math.isclose(sb2, 2.0 * sb, abs_tol=1e-9)


def test_second_best_expost_budget_no_looser():
    inst = bilateral([1.0, 2.0], [0.5, 0.5], [0.0, 0.5], [0.5, 0.5])
    m = oracle.DiscreteMarket(inst)
    assert oracle.second_best_lp(m, budget="expost") <= oracle.second_best_lp(m) + 1e-9


def test_opt_s_examples():
    inst = bilateral([1.0], [1.0], [0.0], [1.0])
    assert math.isclose(oracle.opt_s_lp(oracle.DiscreteMarket(inst)), 1.0, abs_tol=1e-9)
    two = bilateral([1.0, 2.0], [0.5, 0.5], [0.0], [1.0])
    assert math.isclose(oracle.opt_s_lp(oracle.DiscreteMarket(two)), 1.0, abs_tol=1e-9)


def test_opt_s_partition_random_two_item():
    rng = np.random.default_rng(12)
    for _ in range(3):
        bd = [
            d(np.sort(rng.uniform(0.5, 2.0, 2)), [0.5, 0.5]),
            d(np.sort(rng.uniform(0.5, 2.0, 2)), [0.5, 0.5]),
        ]
        sd = [
            d(np.sort(rng.uniform(0.0, 1.0, 2)), [0.5, 0.5]),
            d(np.sort(rng.uniform(0.0, 1.0, 2)), [0.5, 0.5]),
        ]
        inst = mech.market(bd, sd, fea.unit_demand(range(2)))
        res = oracle.opt_s_partition_check(oracle.DiscreteMarket(inst))
        assert set(res) == {"keep0", "keep1"}
        for whole, split, ok in res.values():
            assert ok
            assert whole <= split + 1e-6


def test_verify_ub_chain_two_atom_fixture():
    inst = bilateral([1.0, 2.0], [0.5, 0.5], [0.0, 0.5], [0.5, 0.5])
    chain = oracle.verify_ub_chain(oracle.DiscreteMarket(inst))
    assert chain["sb_le_fb"]
    assert chain["sb_le_optb_plus_opts"]
    assert chain["mechanisms"]
    for name, (gft, ok) in chain["mechanisms"].items():
        assert ok, name
        assert gft <= chain["sb"] + 1e-6
    assert "buyer_offering" in chain["mechanisms"]
    assert chain["mechanisms"]["buyer_offering"][0] <= chain["sb"] + 1e-6


def test_verify_ub_chain_matches_components():
    from gft_lab import bounds

    inst = mech.market(
        [d([1.0, 2.0], [0.5, 0.5]), d([0.5, 1.5], [0.5, 0.5])],
        [d([0.0, 0.5], [0.5, 0.5]), d([0.2, 1.0], [0.5, 0.5])],
        fea.unit_demand(range(2)),
    )
    m = oracle.DiscreteMarket(inst)
    chain = oracle.verify_ub_chain(m)
    assert math.isclose(chain["sb"], 1.31875, abs_tol=1e-9)
    assert math.isclose(chain["fb"], audits.first_best_gft(inst, "exact"), abs_tol=1e-9)
    assert math.isclose(chain["opt_b"], bounds.opt_b(inst, "exact"), abs_tol=1e-9)
    assert math.isclose(chain["opt_s"], oracle.opt_s_lp(m), abs_tol=1e-9)


# The LP dumps below were recorded with the dense row-by-row builder that the
# sparse assembly replaced; the bytes must not change.
TWO_ATOM_EXANTE_LP = "\n".join([
    'maximize',
    '  + 0.25 x[0](1|0) + 0.125 x[0](1|0.5) + 0.5 x[0](2|0) + 0.375 x[0](2|0.5)',
    'subject to',
    '  buyerIR(1): - 0.5 x[0](1|0) + 0.5 pB(1|0) - 0.5 x[0](1|0.5) + 0.5 pB(1|0.5) <= 0',
    '  buyerBIC(1->2): - 0.5 x[0](1|0) + 0.5 pB(1|0) - 0.5 x[0](1|0.5) + 0.5 pB(1|0.5) + 0.5 x[0](2|0) - 0.5 pB(2|0) + 0.5 x[0](2|0.5) - 0.5 pB(2|0.5) <= 0',
    '  buyerIR(2): - 1 x[0](2|0) + 0.5 pB(2|0) - 1 x[0](2|0.5) + 0.5 pB(2|0.5) <= 0',
    '  buyerBIC(2->1): + 1 x[0](1|0) - 0.5 pB(1|0) + 1 x[0](1|0.5) - 0.5 pB(1|0.5) - 1 x[0](2|0) + 0.5 pB(2|0) - 1 x[0](2|0.5) + 0.5 pB(2|0.5) <= 0',
    '  sellerIR[0](0): - 0.5 pS[0](1|0) - 0.5 pS[0](2|0) <= 0',
    '  sellerBIC[0](0->0.5): - 0.5 pS[0](1|0) + 0.5 pS[0](1|0.5) - 0.5 pS[0](2|0) + 0.5 pS[0](2|0.5) <= 0',
    '  sellerIR[0](0.5): + 0.25 x[0](1|0.5) - 0.5 pS[0](1|0.5) + 0.25 x[0](2|0.5) - 0.5 pS[0](2|0.5) <= 0',
    '  sellerBIC[0](0.5->0): - 0.25 x[0](1|0) + 0.5 pS[0](1|0) + 0.25 x[0](1|0.5) - 0.5 pS[0](1|0.5) - 0.25 x[0](2|0) + 0.5 pS[0](2|0) + 0.25 x[0](2|0.5) - 0.5 pS[0](2|0.5) <= 0',
    '  budget(exante): - 0.25 pB(1|0) + 0.25 pS[0](1|0) - 0.25 pB(1|0.5) + 0.25 pS[0](1|0.5) - 0.25 pB(2|0) + 0.25 pS[0](2|0) - 0.25 pB(2|0.5) + 0.25 pS[0](2|0.5) <= 0',
])

LP_TEXT_SHA256 = {
    ("two-atom", "expost"): "754cde51b5dddf4a29a06686dfe9295c72af3bb424f47244a8a75a8f7f1b8df5",
    ("ud-2a", "exante"): "3824ec5cbe259183b0d52138ff837a1cde864b821fa8703f100569a70d75836d",
    ("ud-2a", "expost"): "c4b28e67aaeb96e6709d38ba2d5a10ead238b84af1979084d30c6ed30eb49fa8",
}


def ud2a():
    return mech.market(
        [d([1.0, 2.0], [0.5, 0.5]), d([0.5, 1.5], [0.5, 0.5])],
        [d([0.0, 0.5], [0.5, 0.5]), d([0.2, 1.0], [0.5, 0.5])],
        fea.unit_demand(range(2)),
    )


def test_lp_text_dump():
    inst = bilateral([1.0, 2.0], [0.5, 0.5], [0.0, 0.5], [0.5, 0.5])
    assert oracle.lp_text(oracle.DiscreteMarket(inst)) == TWO_ATOM_EXANTE_LP


@pytest.mark.parametrize("label,budget", sorted(LP_TEXT_SHA256))
def test_lp_text_golden_sha256(label, budget):
    inst = {"two-atom": bilateral([1.0, 2.0], [0.5, 0.5], [0.0, 0.5], [0.5, 0.5]), "ud-2a": ud2a()}[label]
    txt = oracle.lp_text(oracle.DiscreteMarket(inst), budget)
    assert hashlib.sha256(txt.encode()).hexdigest() == LP_TEXT_SHA256[(label, budget)]


def test_discrete_market_guards():
    u = dst.uniform(0.0, 1.0)
    cont = mech.market([u], [u], fea.additive([0]))
    with pytest.raises(ValueError):
        oracle.DiscreteMarket(cont)
    many = mech.market(
        [d([0.0, 1.0], [0.5, 0.5])] * 9,
        [d([0.0, 1.0], [0.5, 0.5])] * 9,
        fea.additive(range(9)),
    )
    with pytest.raises(fea.CapacityError):
        oracle.DiscreteMarket(many)


def random_ud3():
    rng = np.random.default_rng(2024)

    def atoms(lo, hi):
        return d(np.sort(rng.uniform(lo, hi, 3)).tolist(), [1 / 3] * 3)

    return mech.market(
        [atoms(0.5, 2.0), atoms(0.5, 2.0)], [atoms(0.0, 1.5), atoms(0.0, 1.5)], fea.unit_demand(range(2))
    )


def bilateral4():
    atoms = [(j + 1) / 4 for j in range(4)]
    return bilateral(atoms, [0.25] * 4, [a - 0.125 for a in atoms], [0.4, 0.3, 0.2, 0.1])


# (vars, rows, nnz) and optimum of the ex-ante, ex-post and OPT-S LPs, as
# recorded with the dense builder
PINNED_LPS = {
    "ud3": (
        random_ud3,
        [
            ((405, 181, 6156), 1.081482731988124),
            ((405, 261, 6156), 1.0814827319881237),
            ((243, 162, 4293), 0.8431887396350634),
        ],
    ),
    "bi4": (
        bilateral4,
        [
            ((48, 33, 480), 0.299264705882353),
            ((48, 48, 480), 0.299264705882353),
            ((32, 16, 224), 0.20312500000000006),
        ],
    ),
}


@pytest.mark.parametrize("label", sorted(PINNED_LPS))
def test_lp_shape_and_optima_pinned(label, monkeypatch):
    make, want = PINNED_LPS[label]
    seen = []

    def spy(c, A_ub=None, **kwargs):
        seen.append((len(c), A_ub))
        return linprog(c, A_ub=A_ub, **kwargs)

    monkeypatch.setattr(oracle, "linprog", spy)
    m = oracle.DiscreteMarket(make())
    got = [oracle.second_best_lp(m, "exante"), oracle.second_best_lp(m, "expost"), oracle.opt_s_lp(m)]
    for (nv, A), value, (shape, pinned) in zip(seen, got, want):
        assert (nv, A.shape[0], A.nnz) == shape
        assert A.has_sorted_indices
        assert np.all(A.data != 0.0)
        assert math.isclose(value, pinned, rel_tol=0.0, abs_tol=1e-12)
    assert m.lp_nnz == want[0][0][2]


def test_lp_nnz_guard_admits_two_item_8x8():
    atoms = d([(j + 1) / 8 for j in range(8)], [1 / 8] * 8)
    inst = mech.market([atoms] * 2, [atoms] * 2, fea.unit_demand(range(2)))
    assert oracle.DiscreteMarket(inst).lp_nnz == 1826816


def test_lp_nnz_guard_rejects_bilateral_200x200():
    with pytest.raises(fea.CapacityError):
        oracle.DiscreteMarket(grid_bilateral(200))
