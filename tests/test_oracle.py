"""
Tests for the LP oracle over fully discrete instances: the incentive-feasible
optimum, the seller-side relaxation, the partition check, and the verification
chain that ties mechanisms, LP values, and benchmarks together.
"""
import hashlib
import math

import lp_reference
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog, milp

from gft_lab import audits, bounds
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


# The interim form of the two-atom market: the `= 0` rows define the buyer's
# and the seller's interim allocations; their payments PB and PS are free.
# Both agents are single-dimensional, so each has IR at one type (the lowest
# value, the highest cost) and BIC to its neighbours only.
TWO_ATOM_EXANTE_LP = "\n".join([
    'maximize',
    '  + 0.25 x[0](1|0) + 0.125 x[0](1|0.5) + 0.5 x[0](2|0) + 0.375 x[0](2|0.5)',
    'subject to',
    '  defXB[0](1): + 0.5 x[0](1|0) + 0.5 x[0](1|0.5) - 1 XB[0](1) = 0',
    '  defXB[0](2): + 0.5 x[0](2|0) + 0.5 x[0](2|0.5) - 1 XB[0](2) = 0',
    '  buyerIR(1): - 1 XB[0](1) + 1 PB(1) <= 0',
    '  buyerBIC(1->2): - 1 XB[0](1) + 1 PB(1) + 1 XB[0](2) - 1 PB(2) <= 0',
    '  buyerBIC(2->1): + 2 XB[0](1) - 1 PB(1) - 2 XB[0](2) + 1 PB(2) <= 0',
    '  defXS[0](0): + 0.5 x[0](1|0) + 0.5 x[0](2|0) - 1 XS[0](0) = 0',
    '  defXS[0](0.5): + 0.5 x[0](1|0.5) + 0.5 x[0](2|0.5) - 1 XS[0](0.5) = 0',
    '  sellerBIC[0](0->0.5): - 1 PS[0](0) + 1 PS[0](0.5) <= 0',
    '  sellerIR[0](0.5): + 0.5 XS[0](0.5) - 1 PS[0](0.5) <= 0',
    '  sellerBIC[0](0.5->0): - 0.5 XS[0](0) + 1 PS[0](0) + 0.5 XS[0](0.5) - 1 PS[0](0.5) <= 0',
    '  budget(exante): - 0.5 PB(1) - 0.5 PB(2) + 0.5 PS[0](0) + 0.5 PS[0](0.5) <= 0',
])

LP_TEXT_SHA256 = {
    ("four-atom", "expost"): "51980006e3fb667d5cc999c4e2ba906a456d3216aceea78c1521b8fdcddcca1a",
    ("two-atom", "expost"): "3852773983fac53b5da1ff56a5237933ee417aceb0b8888c930a02292e1d9ad3",
    ("ud-2a", "exante"): "909ab8ceaedf0147570fa87d2003c1ed269709d4ba92242319e905691284e49c",
    ("ud-2a", "expost"): "f0a29eeb26d284c284af3f6f988dca24360bbda12b1dc8251480ca63264f7056",
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
    inst = {
        "four-atom": bilateral4,
        "two-atom": lambda: bilateral([1.0, 2.0], [0.5, 0.5], [0.0, 0.5], [0.5, 0.5]),
        "ud-2a": ud2a,
    }[label]()
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


# (vars, rows, nnz) of the interim form and the optimum of the ex-ante,
# ex-post and OPT-S LPs; the optima were recorded with the dense per-profile
# builder
PINNED_LPS = {
    "ud3": (
        random_ud3,
        [
            ((201, 197, 1020), 1.081482731988124),
            ((363, 211, 1344), 1.0814827319881237),
            ((189, 180, 801), 0.8431887396350634),
        ],
    ),
    "bi4": (
        bilateral4,
        [
            ((32, 23, 100), 0.299264705882353),
            ((48, 30, 132), 0.299264705882353),
            ((24, 11, 46), 0.20312500000000006),
        ],
    ),
}


@pytest.mark.parametrize("label", sorted(PINNED_LPS))
def test_lp_shape_and_optima_pinned(label, monkeypatch):
    make, want = PINNED_LPS[label]
    seen = []

    def spy(c, *, constraints, **kwargs):
        seen.append((len(c), constraints.A))
        return milp(c, constraints=constraints, **kwargs)

    monkeypatch.setattr(oracle, "milp", spy)
    m = oracle.DiscreteMarket(make())
    got = [oracle.second_best_lp(m, "exante"), oracle.second_best_lp(m, "expost"), oracle.opt_s_lp(m)]
    assert len(seen) == 3
    for (nv, A), value, (shape, pinned) in zip(seen, got, want):
        assert (nv, A.shape[0], A.nnz) == shape
        assert A.has_sorted_indices
        assert np.all(A.data != 0.0)
        assert math.isclose(value, pinned, rel_tol=0.0, abs_tol=1e-12)
    assert [m.lp_nnz(kind) for kind in ("exante", "expost", "opt_s")] == [A.nnz for _, A in seen]


def test_second_best_matches_tight_solve_on_bilateral_150x150():
    """Objective coefficients pB*pS*(b - s) below 4.5e-5 once stopped the
    ex-ante solve at a point that broke a buyer IC row by 2e-6, 1.0e-4 above
    the optimum; with the objective scaled, the oracle matches a dual simplex
    solve of the same matrices at 1e-10 tolerances."""
    rng = np.random.default_rng(3)
    b = np.sort(rng.uniform(0, 1, 150))
    s = np.sort(rng.uniform(0, 1, 150))
    m = oracle.DiscreteMarket(bilateral(b, [1 / 150] * 150, s, [1 / 150] * 150))
    c, A, lo, hi, box = oracle._second_best(m, "exante")
    A = A.tocsr()
    eq = lo == hi
    assert np.all(np.isneginf(lo[~eq]))
    tight = linprog(
        c,
        A_ub=A[~eq],
        b_ub=hi[~eq],
        A_eq=A[eq],
        b_eq=hi[eq],
        bounds=np.column_stack([box.lb, box.ub]),
        method="highs-ds",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    assert tight.success
    assert abs(oracle.second_best_lp(m, "exante") - -tight.fun) <= 1e-9


def test_solution_off_a_row_is_refused(monkeypatch):
    """A returned point that breaks a row by more than PRIMAL_TOL raises,
    naming the LP, the row and the residual: here the row defXS[0](0) of the
    two-atom market, off by 1e-6 once XS[0](0) is moved, which enters the
    other rows only with a zero or a falling coefficient."""
    m = oracle.DiscreteMarket(bilateral([1.0, 2.0], [0.5, 0.5], [0.0, 0.5], [0.5, 0.5]))
    names = [line.split(":")[0].strip() for line in oracle.lp_text(m).splitlines()[3:]]
    row = names.index("defXS[0](0)")
    R = oracle._second_best(m, "exante")[1].tocsr()[[row]]
    col = R.indices[R.data == -1.0][0]  # XS[0](0), the variable the row defines

    def off_row(c, *, constraints, **kwargs):
        res = milp(c, constraints=constraints, **kwargs)
        res.x = res.x.copy()
        res.x[col] += 1e-6
        return res

    monkeypatch.setattr(oracle, "milp", off_row)
    with pytest.raises(RuntimeError, match=rf"exante LP solution breaks row {row} by 1e-06 > 1e-07"):
        oracle.second_best_lp(m, "exante")


def test_lp_nnz_guard_admits_two_item_8x8():
    atoms = d([(j + 1) / 8 for j in range(8)], [1 / 8] * 8)
    inst = mech.market([atoms] * 2, [atoms] * 2, fea.unit_demand(range(2)))
    assert oracle.DiscreteMarket(inst).lp_nnz("expost") == 65684


def test_lp_nnz_guard_admits_and_solves_two_item_10x10():
    atoms = d([(j + 1) / 10 for j in range(10)], [0.1] * 10)
    inst = mech.market([atoms] * 2, [atoms] * 2, fea.unit_demand(range(2)))
    m = oracle.DiscreteMarket(inst)
    assert m.lp_nnz("expost") == 160188
    sb = oracle.second_best_lp(m)
    bo = audits.exact_gft(mech.BuyerOffering(inst), inst)
    assert bo - 1e-9 <= sb <= audits.first_best_gft(inst, "exact") + 1e-9


def test_lp_nnz_guard_by_kind_on_bilateral_669x669(monkeypatch):
    # the smallest bilateral grid whose ex-post LP is over the cap (668x668
    # has 1798244 nonzeros); its ex-ante LP has half as many and is admitted
    assert oracle.DiscreteMarket(grid_bilateral(668)).lp_nnz("expost") <= oracle.LP_NNZ_CAP
    m = oracle.DiscreteMarket(grid_bilateral(669))

    def no_build(*args, **kwargs):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(oracle, "_lp", no_build)
    with pytest.raises(fea.CapacityError, match="expost LP has 1803612 nonzeros"):
        oracle.second_best_lp(m, "expost")
    assert m.lp_nnz("exante") == 908490
    m.admit("exante")
    with pytest.raises(AssertionError, match="a matrix was built"):
        oracle.second_best_lp(m, "exante")


INTEGRAL = ("additive", "unit_demand", "k_uniform", "matroid")


def _constraint(kind: str, n: int, k: int) -> fea.Constraint:
    g = range(n)
    return {
        "additive": lambda: fea.additive(g),
        "unit_demand": lambda: fea.unit_demand(g),
        "k_uniform": lambda: fea.k_uniform(k, g),
        "matroid": lambda: fea.matroid_oracle(lambda T: len(T & {n - 1}), g),  # item 0 a loop when n = 2
        "knapsack": lambda: fea.knapsack([0.6 + 0.2 * i for i in g]),
        "intersection": lambda: fea.intersection(fea.k_uniform(k, g), fea.knapsack([0.7] * n)),
    }[kind]()


@st.composite
def lp_markets(draw):
    """1-2 items, buyer values in [0.5, 2] and seller costs in [0, 1.5], so
    trade is uncertain; the atoms sit on a quarter lattice (ties) or are
    uniform draws. The test below discards the draws where SB equals FB, so
    every example has binding incentive or budget rows. Few atoms leave room
    to price the first best: SB equals FB on about 6 single-item draws in 7
    with 3 atoms but 1 in 7 with 5-6, and on 17 two-item draws in 20 with 4
    atoms. So a single-item market has 5-6 atoms per distribution and a
    two-item one 4, which bounds the reference LP's size; about 6 draws in 10
    are kept, a few of them two-item."""
    n = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lattice = draw(st.booleans())

    def dist(lo, hi):
        k = draw(st.integers(5, 6)) if n == 1 else 4
        vals = rng.choice(np.arange(lo, hi + 0.125, 0.25), k, replace=False) if lattice else rng.uniform(lo, hi, k)
        w = rng.integers(1, 4, k)
        return d(np.sort(vals).tolist(), (w / w.sum()).tolist())

    kind = draw(st.sampled_from(INTEGRAL + ("knapsack", "intersection")))
    constraint = _constraint(kind, n, draw(st.integers(1, n)))
    return mech.market([dist(0.5, 2.0) for _ in range(n)], [dist(0.0, 1.5) for _ in range(n)], constraint)


@settings(max_examples=30)
@given(lp_markets())
def test_interim_lps_match_per_profile_reference(inst):
    m = oracle.DiscreteMarket(inst)
    want = lp_reference.second_best(m, "exante")
    # the reference SB below the integral FB (itself at most the LP's
    # fractional FB): incentive or budget rows bind in every example
    assume(want < audits.first_best_gft(inst, "exact") - 1e-9)
    exante, expost = oracle.second_best_lp(m, "exante"), oracle.second_best_lp(m, "expost")
    opt_s = oracle.opt_s_lp(m)
    assert math.isclose(exante, want, rel_tol=0.0, abs_tol=1e-9)
    assert math.isclose(expost, lp_reference.second_best(m, "expost"), rel_tol=0.0, abs_tol=1e-9)
    assert math.isclose(opt_s, lp_reference.opt_s(m), rel_tol=0.0, abs_tol=1e-9)
    assert abs(expost - exante) <= 1e-9
    if inst.constraint.variant in INTEGRAL:
        assert exante <= audits.first_best_gft(inst, "exact") + 1e-9
        assert exante <= bounds.opt_b(inst, "exact") + opt_s + 1e-9


def test_local_rows_match_per_profile_reference_on_12_atoms():
    """Local incentive rows and the projected payments against the all-pairs,
    per-profile reference, on a bilateral market with 12 random atoms and
    unequal masses per side, where incentives bind (SB below FB)."""
    rng = np.random.default_rng(7)

    def dist(lo, hi):
        w = rng.integers(1, 6, 12)
        return d(np.sort(rng.uniform(lo, hi, 12)).tolist(), (w / w.sum()).tolist())

    inst = mech.market([dist(0.5, 2.0)], [dist(0.0, 1.5)], fea.additive([0]))
    m = oracle.DiscreteMarket(inst)
    exante = oracle.second_best_lp(m, "exante")
    assert exante < audits.first_best_gft(inst, "exact") - 1e-3
    assert math.isclose(exante, lp_reference.second_best(m, "exante"), rel_tol=0.0, abs_tol=1e-9)
    expost = oracle.second_best_lp(m, "expost")
    assert math.isclose(expost, lp_reference.second_best(m, "expost"), rel_tol=0.0, abs_tol=1e-9)
    assert math.isclose(oracle.opt_s_lp(m), lp_reference.opt_s(m), rel_tol=0.0, abs_tol=1e-9)


def test_intersection_market_lp_sizes_and_chain(monkeypatch):
    # an intersection's polytope rows are its members' rows, each LP has the
    # nonzeros lp_nnz counts, and SB <= FB
    both = fea.intersection(fea.unit_demand(range(2)), fea.knapsack([0.6, 0.5]))
    assert fea.polytope_rows(both) == [({0: 1.0, 1: 1.0}, 1.0), ({0: 0.6, 1: 0.5}, 1.0)]
    inst = mech.market([d([0.5, 1.0], [0.5, 0.5]), d([0.4, 0.9], [0.3, 0.7])], [d([0.1, 0.6], [0.5, 0.5])] * 2, both)
    seen = []

    def spy(c, *, constraints, **kwargs):
        seen.append(constraints.A)
        return milp(c, constraints=constraints, **kwargs)

    monkeypatch.setattr(oracle, "milp", spy)
    m = oracle.DiscreteMarket(inst)
    sb = oracle.second_best_lp(m, "exante")
    oracle.second_best_lp(m, "expost")
    oracle.opt_s_lp(m)
    assert [m.lp_nnz(kind) for kind in ("exante", "expost", "opt_s")] == [A.nnz for A in seen]
    assert sb <= audits.first_best_gft(inst, "exact") + 1e-9
