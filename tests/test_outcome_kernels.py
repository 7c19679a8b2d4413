"""
Tests for the batch kernels: every mechanism's `outcome_batch` and `run`
against per-profile reference loops bit for bit, the posted-price near-tie
rule, the constrained posted-price kernel, the row-wise max-weight kernel,
and audit and decomposition outputs pinned to values recorded with the
per-sample loops.
"""
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import outcome_reference as ref
from gft_lab import audits, bounds
from gft_lab import distributions as dst
from gft_lab import feasibility as fea
from gft_lab import instances
from gft_lab import mechanisms as mech

LATTICE = [j / 4 for j in range(9)]  # quarter steps on [0, 2]: ties everywhere


def _bits(traded, buyer_payment, seller_payments, gft):
    return tuple(int(i) for i in traded), float(buyer_payment).hex(), tuple(float(p).hex() for p in seller_payments), float(gft).hex()


def assert_rows_match(m, B, S, reference, coins=None, turns=None):
    """outcome_batch rows, run_batch and run() all equal the reference.

    `turns(r, centers)`, given for a one-seller market, lists the floats near
    the centers at which row r's threshold test turns off towards the far
    end. Where the batch threshold payment differs from the reference's, both
    must be such turns, and there must be more than one: closed-form
    virtuals can make the test turn several times within a few ulps, and
    each search may end on another of them. Everything else still matches
    bit for bit, a buyer payment equal to the reference threshold moving
    with it."""
    X, pay_b, pay_S = m.outcome_batch(B, S, coins)
    gft = m.run_batch(B, S, coins=coins)
    for r in range(len(B)):
        c = None if coins is None else coins[r]
        want = _bits(*reference(m, B[r], S[r]) if c is None else reference(m, B[r], S[r], c))
        got = _bits(np.flatnonzero(X[r]), pay_b[r], pay_S[r], gft[r])
        o = m.run(B[r], S[r], coins=c)
        assert _bits(o.traded, o.buyer_payment, o.seller_payments, o.gft) == got, (B[r], S[r])
        if turns is not None and got[2] != want[2]:
            (g,), (w,) = got[2], want[2]
            at = {v.hex() for v in turns(r, [float.fromhex(g), float.fromhex(w)])}
            assert len(at) > 1 and g in at and w in at, (B[r], S[r], g, w)
            want = (want[0], g if want[1] == w else want[1], (g,), want[3])
        assert got == want, (B[r], S[r])


def _constraint(kind: str, n: int) -> fea.Constraint:
    g = range(n)
    return {
        "additive": lambda: fea.additive(g),
        "unit_demand": lambda: fea.unit_demand(g),
        "k_uniform": lambda: fea.k_uniform(2, g),
        "matroid": lambda: fea.matroid_oracle(lambda T: min(len(T), 2), g),
        "knapsack": lambda: fea.knapsack([0.5, 0.75, 0.25][:n]),
        "matching": lambda: fea.matching([(0, 1), (1, 2), (0, 2)][:n]),
        "intersection": lambda: fea.intersection(fea.k_uniform(2, g), fea.knapsack([0.5, 0.75, 0.25][:n])),
    }[kind]()


@st.composite
def lattice_markets(draw):
    n = draw(st.integers(1, 3))

    def dist():
        vals = sorted(draw(st.lists(st.sampled_from(LATTICE), min_size=1, max_size=3, unique=True)))
        w = draw(st.lists(st.integers(1, 3), min_size=len(vals), max_size=len(vals)))
        return dst.discrete(vals, [x / sum(w) for x in w])

    kind = draw(st.sampled_from(["additive", "unit_demand", "k_uniform", "matroid", "knapsack", "matching", "intersection"]))
    inst = mech.market([dist() for _ in range(n)], [dist() for _ in range(n)], _constraint(kind, n))
    prices = [sorted(draw(st.lists(st.sampled_from(LATTICE), min_size=2, max_size=2))) for _ in range(n)]
    theta_s, theta_b = zip(*prices)
    sub = draw(
        st.sampled_from(
            [
                fea.size_floor(fea.additive(range(n)), draw(st.integers(1, n))),
                fea.unit_demand(range(0, n, 2)),
                _constraint("matroid", n),
                _constraint("knapsack", n),
                fea.knapsack({i: 0.75 - i / 8 for i in range(0, n, 2)}),
                _constraint("matching", n),
                _constraint("intersection", n),
            ]
        )
    )
    coins = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 0.999]), min_size=n, max_size=n))
    return inst, list(theta_b), list(theta_s), sub, np.array(coins)


def assert_purchases_feasible(m, B, S):
    """Every row's purchase is feasible in the constraint m buys under."""
    c = getattr(m, "sub", m.inst.constraint)
    for b, s, x in zip(B, S, m.allocation(B, S)):
        assert fea.is_feasible(c, np.flatnonzero(x).tolist()), (c, b, s, np.flatnonzero(x))


def _grid_rows(inst, limit=48):
    B, _ = mech.buyer_grid(inst)
    S, _ = mech.seller_grid(inst)
    rows = list(product(range(len(B)), range(len(S))))[:: max(1, len(B) * len(S) // limit)]
    return B[[a for a, _ in rows]], S[[k for _, k in rows]]


@settings(max_examples=40)
@given(lattice_markets())
def test_kernels_match_reference_on_lattice_markets(case):
    inst, theta_b, theta_s, sub, coin = case
    B, S = _grid_rows(inst)
    mechanisms = [mech.Fpp(inst, theta_b, theta_s)]
    if all(fea.is_feasible(inst.constraint, T) for T in fea.feasible_sets(sub)):
        mechanisms.append(mech.Cfpp(inst, theta_b, theta_s, sub))
    else:  # a sub the market constraint does not contain is refused
        with pytest.raises(ValueError, match="market constraint forbids"):
            mech.Cfpp(inst, theta_b, theta_s, sub)
    for m in mechanisms:
        assert_purchases_feasible(m, B, S)
        assert_rows_match(m, B, S, ref.posted)
    assert_rows_match(mech.BuyerOffering(inst), B, S, ref.buyer_offering)
    if inst.n == 1:
        assert_rows_match(mech.SellerOffering(inst), B, S, ref.seller_offering)
    sp = mech.Sapp(inst, mech.sapp_build(inst, mech.reduction_rule(inst)))
    assert_rows_match(sp, B, S, ref.sapp, coins=np.tile(coin, (len(B), 1)))


@settings(max_examples=40, deadline=None)
@given(lattice_markets())
def test_exact_report_matches_a_fresh_rule_pass_and_seller_virtual(case):
    # the report reads the rule surplus stored with the table and each grid
    # entry's virtual cost by atom index; the reference evaluates the rule
    # again and matches every cost to its atom with seller_virtual
    inst = case[0]
    for rule in (mech.reduction_rule(inst), mech.unlikely_trade_rule(inst, range(inst.n))):
        sp = mech.Sapp(inst, mech.sapp_build(inst, rule))
        rep, t, pm = sp.exact_report(), sp._table, sp.pmap
        w = np.outer(t.pS, t.pB)

        def total(per_profile):
            return float(dst._ordered_sum((w * per_profile).ravel(), axis=0))

        tau = np.column_stack([dst.seller_virtual(d, t.S[:, i]) for i, d in enumerate(inst.seller_dists)])[:, None, :]
        rule_term = total(np.vecdot(pm._kept(t.S), pm._bphi - t.S[:, None, :]))
        seller_pay = total(dst._ordered_sum(t.beta * tau, axis=-1))
        assert rep["rule_virtual_surplus"].hex() == rule_term.hex()
        assert rep["seller_payments"].hex() == seller_pay.hex()
        assert rep["wbb_slack"].hex() == (rep["buyer_payment"] - seller_pay).hex()


@pytest.mark.parametrize("constraint", ["unit_demand", "additive", "k_uniform"])
def test_kernels_match_reference_on_continuous_samples(constraint):
    inst = instances.random_instance(3, "uniform", seed=31, constraint=constraint)
    B, S = inst.sample_profiles(np.random.default_rng(4), 40)
    p = [0.5 * sum(d.support()) for d in inst.buyer_dists]
    assert_rows_match(mech.Fpp(inst, p, [0.9 * v for v in p]), B, S, ref.posted)
    assert_rows_match(mech.BuyerOffering(inst), B, S, ref.buyer_offering)


def _turns(trades, centers, toward):
    """Floats within 64 of any center at which `trades` turns off towards
    `toward` (+1 up, -1 down): the float trades, its neighbour that way does
    not."""
    keys = mech._order_key(np.asarray(centers, dtype=float))[:, None] + np.arange(-64, 65)
    vals = np.unique(mech._from_key(keys.ravel()))
    ok = trades(vals)
    return vals[:-1][ok[:-1] & ~ok[1:]] if toward > 0 else vals[1:][ok[1:] & ~ok[:-1]]


def test_kernels_match_reference_on_exponential_pair():
    # bit for bit wherever the row's threshold test turns once near the
    # threshold. Where closed-form rounding makes it turn several times within
    # a few ulps (about 0.5% of exponential_truncated costs), both searches end
    # on such turns, as in test_trade_willing_cut_matches_bisection
    inst = instances.example_a1(4.0)
    B, S = inst.sample_profiles(np.random.default_rng(5), 60)
    assert_rows_match(mech.Fpp(inst, [1.5], [1.5]), B, S, ref.posted)
    bo, so = mech.BuyerOffering(inst), mech.SellerOffering(inst)

    def bo_turns(r, centers):  # the seller's cost moves up
        return _turns(lambda v: bo.allocation(np.repeat(B[r:r + 1], len(v), axis=0), v[:, None])[:, 0], centers, 1)

    def so_turns(r, centers):  # the buyer's value moves down
        return _turns(lambda v: so.allocation(v[:, None], np.repeat(S[r:r + 1], len(v), axis=0))[:, 0], centers, -1)

    assert_rows_match(bo, B, S, ref.buyer_offering, turns=bo_turns)
    assert_rows_match(so, B, S, ref.seller_offering, turns=so_turns)


def test_kernels_match_reference_on_mixed_seller_market():
    # continuous sellers and discrete ones with different atom counts, all
    # traded pairs searched together; the unlikely-trade rule prices from
    # q_fn, so continuous buyers' sellers start from its guessed cut
    inst = mech.market(
        [dst.uniform(0.2, 1.4), dst.exponential_truncated(2.0), dst.uniform(0.0, 1.5), dst.discrete([0.5, 1.0], [0.5, 0.5])],
        [dst.uniform(0.0, 1.0), dst.discrete([0.1, 0.4, 0.8], [0.3, 0.4, 0.3]), dst.exponential_truncated_reversed(1.5), dst.discrete([0.2, 0.6], [0.5, 0.5])],
        fea.k_uniform(2, range(4)),
    )
    rng = np.random.default_rng(9)
    B, S = inst.sample_profiles(rng, 80)
    bo = mech.BuyerOffering(inst)
    assert bo.allocation(B, S).any(axis=0).all()
    assert_rows_match(bo, B, S, ref.buyer_offering)
    sp = mech.Sapp(inst, mech.sapp_build(inst, mech.unlikely_trade_rule(inst, [0, 1, 2, 3])))
    coins = rng.random(B.shape)
    X, _, _ = sp.outcome_batch(B, S, coins)
    assert X.any(axis=0).all()
    assert_rows_match(sp, B, S, ref.sapp, coins=coins)


def test_sapp_kernel_matches_reference_on_continuous_market():
    inst = instances.example_a2(4, 6.0)
    _, L = bounds.hl_split(inst)
    sp = mech.Sapp(inst, mech.sapp_build(inst, mech.unlikely_trade_rule(inst, L)))
    rng = np.random.default_rng(6)
    B, S = inst.sample_profiles(rng, 400)
    coins = rng.random((400, inst.n))
    X, _, _ = sp.outcome_batch(B, S, coins)
    rows = np.concatenate((np.flatnonzero(X.any(axis=1))[:4], np.flatnonzero(~X.any(axis=1))[:2]))
    assert X[rows].any()
    assert_rows_match(sp, B[rows], S[rows], ref.sapp, coins=coins[rows])


def _near_tie_market(n, constraint):
    return mech.market([dst.uniform(0.0, 2.0)] * n, [dst.uniform(0.0, 1.0)] * n, constraint)


def test_fpp_zero_surplus_items_join_in_index_order_unit_demand():
    inst = _near_tie_market(2, fea.unit_demand(range(2)))
    fpp = mech.Fpp(inst, [1.0, 1.0], [0.5, 0.5])
    b, s = [1 - 1e-10, 1 - 5e-11], [0.0, 0.5]
    assert fpp.run(b, s).traded == (0,)
    assert fpp.run_batch(np.array([b]), np.array([s]))[0] == fpp.run(b, s).gft == 1 - 1e-10


def test_fpp_zero_surplus_items_join_in_index_order_k_uniform():
    inst = _near_tie_market(3, fea.k_uniform(2, range(3)))
    fpp = mech.Fpp(inst, [1.0] * 3, [0.5] * 3)
    b, s = [1 - 1e-10, 1 - 5e-11, 1 - 2e-11], [0.0, 0.5, 0.1]
    assert fpp.run(b, s).traded == (0, 1)
    assert fpp.run_batch(np.array([b]), np.array([s]))[0] == fpp.run(b, s).gft
    assert abs(fpp.run(b, s).gft - 1.5) < 1e-9


@pytest.mark.parametrize("closed, searched", [
    (fea.k_uniform(2, range(4)), fea.matroid_oracle(lambda T: min(len(T), 2), range(4))),
    (fea.unit_demand([0, 2, 3]), fea.matroid_oracle(lambda T: min(len(T), 1), [0, 2, 3])),
])
def test_cfpp_closed_form_matches_per_row_search(closed, searched):
    # the same family as a closed form and as a rank oracle (per-row search)
    inst = mech.market([dst.discrete(LATTICE[2:], [1 / 7] * 7)] * 4, [dst.discrete(LATTICE[:5], [0.2] * 5)] * 4, fea.additive(range(4)))
    B, S = inst.sample_profiles(np.random.default_rng(7), 400)
    theta_b, theta_s = [1.0, 0.75, 1.25, 1.0], [0.5, 0.75, 0.5, 0.25]
    a = mech.Cfpp(inst, theta_b, theta_s, closed)
    b = mech.Cfpp(inst, theta_b, theta_s, searched)
    for one, other in zip(a.outcome_batch(B, S), b.outcome_batch(B, S)):
        assert np.array_equal(one, other)
    assert_rows_match(a, B[:60], S[:60], ref.posted)
    assert_rows_match(b, B[:60], S[:60], ref.posted)


def test_cfpp_size_floor_kernel_matches_reference():
    u = dst.uniform(0.0, 1.0)
    inst = mech.market([u] * 3, [u] * 3, fea.additive(range(3)))
    B, S = inst.sample_profiles(np.random.default_rng(8), 200)
    for h in (1, 2, 3):
        cf = mech.Cfpp(inst, [0.5, 0.6, 0.4], [0.4, 0.5, 0.3], fea.size_floor(fea.additive(range(3)), h))
        assert_rows_match(cf, B, S, ref.posted)


TIE_PRICES = [0.5, 0.75, 1.0]  # buyer values and prices on few atoms: zero surplus is common


@st.composite
def completion_cases(draw):
    """A 4- or 5-item constraint with no size-cap closed form (on the whole
    ground, or on the drawn items only), posted prices and buyer values on
    TIE_PRICES, and rows of profiles."""
    n = draw(st.integers(4, 5))
    items = sorted(draw(st.sets(st.integers(0, n - 1), min_size=n - 1))) if draw(st.booleans()) else list(range(n))
    size = st.sampled_from([0.25, 0.5, 0.75])
    knapsack = fea.knapsack({i: draw(size) for i in items})
    parts = [set(items[:2]), set(items[2:])]
    caps = [draw(st.integers(1, 2)) for _ in parts]
    c = draw(st.sampled_from([
        knapsack,
        fea.matching({i: tuple(draw(st.sets(st.integers(0, 3), min_size=2, max_size=2))) for i in items}),
        fea.matroid_oracle(lambda T: sum(min(k, len(T & p)) for k, p in zip(caps, parts)), items),
        fea.intersection(fea.k_uniform(3, items), knapsack),
    ]))
    rows = draw(st.integers(1, 16))
    B = np.array(draw(st.lists(st.lists(st.sampled_from(TIE_PRICES), min_size=n, max_size=n), min_size=rows, max_size=rows)))
    S = np.array(draw(st.lists(st.lists(st.sampled_from([0.0, 0.5]), min_size=n, max_size=n), min_size=rows, max_size=rows)))
    theta_b = draw(st.lists(st.sampled_from(TIE_PRICES), min_size=n, max_size=n))
    return c, B, S, theta_b


@settings(max_examples=100, derandomize=True, deadline=None)
@given(completion_cases())
def test_zero_surplus_completion_matches_per_row_reference(case):
    # the column pass over zero-surplus items adds each one where the row's
    # purchase so far, completed items included, stays feasible: the
    # reference's per-row `is_feasible` loop in index order, bit for bit
    c, B, S, theta_b = case
    n = B.shape[1]
    u = dst.uniform(0.0, 1.0)
    theta_s = [0.25] * n
    mechanisms = [mech.Cfpp(mech.market([u] * n, [u] * n, fea.additive(range(n))), theta_b, theta_s, c)]
    if c.ground == tuple(range(n)):
        mechanisms.append(mech.Fpp(mech.market([u] * n, [u] * n, c), theta_b, theta_s))
    for m in mechanisms:
        for b, s, x in zip(B, S, m.allocation(B, S)):
            assert tuple(np.flatnonzero(x)) == ref.posted(m, b, s)[0], (c, b, s)


@pytest.mark.parametrize("base", [fea.additive(range(4)), fea.k_uniform(3, range(4)), fea.knapsack([0.3, 0.5, 0.4, 0.2])])
@pytest.mark.parametrize("h", [1, 2, 3, 4])
def test_size_floor_purchases_are_feasible(base, h):
    u = dst.uniform(0.0, 1.0)
    inst = mech.market([u] * 4, [u] * 4, fea.additive(range(4)))
    B, S = inst.sample_profiles(np.random.default_rng(5), 300)
    assert_purchases_feasible(mech.Cfpp(inst, [0.5, 0.6, 0.4, 0.55], [0.4, 0.5, 0.3, 0.45], fea.size_floor(base, h)), B, S)


WEIGHTS = [j / 4 for j in range(-4, 9)]


@settings(max_examples=60)
@given(
    st.sampled_from(["additive", "unit_demand", "k_uniform", "matroid", "knapsack", "matching", "intersection"]),
    st.integers(1, 3).flatmap(lambda n: st.lists(st.lists(st.sampled_from(WEIGHTS), min_size=n, max_size=n), min_size=1, max_size=12)),
)
def test_max_weight_values_match_max_weight_set(kind, rows):
    W = np.array(rows)
    c = _constraint(kind, W.shape[1])
    values, mask = fea.max_weight_values(c, W)
    for t, w in enumerate(W):
        chosen, total = fea.max_weight_set(c, {i: x for i, x in enumerate(w) if x > 0})
        assert values[t] == total
        assert tuple(np.flatnonzero(mask[t])) == chosen
    # the values-only kernel, bit for bit, on the rows and on a stack of them
    assert np.array_equal(fea.max_weight(c, W), values)
    assert np.array_equal(fea.max_weight(c, np.stack([W, W[::-1]])), np.stack([values, values[::-1]]))


# audit and decomposition outputs of three benchmark task shapes, recorded
# with the per-sample loops (seed 11 audits, seed 12 decompositions); the
# audits' budget and IR fields since re-recorded from the report's one draw
AUDIT_PINS = {
    "u5-fpp": (0.5544810785348694, 0.010347749207273146, 0.0, 0.28612133343698587, 0.007238295246856386, 0.0, 0.0),
    "a1-bo": (0.02769672694264342, 0.004604061708679923, -1.449110362984055, -0.0009250576777376712, 0.001755267715933079, 0.0, 0.0),
    "a2-sapp": (0.00339578317409269, 0.0025241416049848102, -0.41740022900629414, 0.0008066178648876811, 0.0011201830144584755, 0.0, 0.0),
}
DECOMPOSITION_PINS = {
    "u5-fpp": (0.9571653153129556, 0.0031892442934768573, 0.9571653153129556, 0.29300387635571484, 46.13757449765971),
    "a1-bo": (0.042151483575954295, 0.003669689726920532, 0.04052958861360207, 0.024886674833659205, 9.414000054686198),
    "a2-sapp": (0.01028331078667776, 0.0018201555393832336, 0.00999738067700396, 0.00757120474056285, 4.574516109353667),
}


def _task(name):
    if name == "u5-fpp":
        inst = instances.random_instance(5, "uniform", seed=2024, constraint="unit_demand")
        p = [0.5 * sum(d.support()) for d in inst.buyer_dists]
        ts = [min(pi, 0.5 * sum(d.support())) for pi, d in zip(p, inst.seller_dists)]
        return inst, mech.Fpp(inst, p, ts), 2000
    if name == "a1-bo":
        inst = instances.example_a1(4.0)
        return inst, mech.BuyerOffering(inst), 2000
    inst = instances.example_a2(4, 6.0)
    _, L = bounds.hl_split(inst)
    return inst, mech.Sapp(inst, mech.sapp_build(inst, mech.unlikely_trade_rule(inst, L))), 1500


@pytest.mark.parametrize("name", sorted(AUDIT_PINS))
def test_audit_and_decomposition_outputs_pinned(name):
    inst, m, samples = _task(name)
    row = audits.audit_report(m, inst, samples=samples, seed=11).as_dict()
    got = tuple(row[f] for f in audits.AuditReport.CSV_FIELDS[1:-1])
    assert [v.hex() for v in got] == [float(v).hex() for v in AUDIT_PINS[name]]
    rep = bounds.benchmark_decomposition(inst, samples=4000, seed=12)
    got = (rep.fb, rep.fb_stderr, rep.term1, rep.term2, rep.checks["fb_le_term1_plus_term2"][1])
    assert [float(v).hex() for v in got] == [float(v).hex() for v in DECOMPOSITION_PINS[name]]


# the prophet posting and the second-best upper bound on the u5 market
# (prophet_threshold seed 13, estimate_gft of its posting seed 14, sb_gft_upper
# seed 15, 4000 samples each), recorded with numpy's row-wise reductions
PROPHET_PIN = (0.6293355506151131, 0.005473630608269574, 0.3146677753075566, 0.7125554275637719, 0.0066697866750700776)
SB_UPPER_PIN = 1.7082500243889303


def test_prophet_posting_and_sb_upper_pinned():
    inst, _, _ = _task("u5-fpp")
    p = [0.5 * sum(d.support()) for d in inst.buyer_dists]
    pr = bounds.prophet_threshold(inst, p, samples=4000, seed=13)
    gft, se = audits.estimate_gft(pr.fpp(inst), inst, samples=4000, seed=14)
    assert [float(v).hex() for v in (pr.emax, pr.emax_stderr, pr.xi, gft, se)] == [v.hex() for v in PROPHET_PIN]
    assert bounds.sb_gft_upper(inst, samples=4000, seed=15).hex() == SB_UPPER_PIN.hex()


# -- the inverted ironed-virtual cut -------------------------------------------

CUT_DISTS = {
    "uniform": lambda: dst.uniform(0, 1),
    "uniform-shifted": lambda: dst.uniform(0.2, 1.7),
    "exponential": lambda: dst.exponential_truncated(4.0),
    "exponential-6": lambda: dst.exponential_truncated(6.0),
    "exponential-reversed": lambda: dst.exponential_truncated_reversed(4.0),
    "lognormal": lambda: dst.lognormal(0.0, 0.5),
    "lognormal-ironed": lambda: dst.lognormal(0.0, 2.5),
}


@st.composite
def cut_costs(draw, phi):
    """Costs over phi's range, below phi(lo), above phi(hi), on the stored
    grid's values and virtuals, and on those virtuals plus TOL (so s - TOL
    lands on a grid level)."""
    lo, hi = phi.dist.support()
    p_lo, p_hi = phi(float(lo)), phi(float(hi))
    grid = st.integers(0, len(phi.grid_values) - 1)
    cost = st.one_of(
        st.floats(max(p_lo, -2.0), p_hi, allow_nan=False),
        st.floats(0.0, 4.0).map(lambda x: p_lo - x),
        st.floats(0.0, 4.0).map(lambda x: p_hi + x),
        grid.map(lambda j: phi.grid_values[j]),
        grid.map(lambda j: phi.grid_virtuals[j]),
        grid.map(lambda j: phi.grid_virtuals[j] + mech.TOL),
    )
    return np.array(draw(st.lists(cost, min_size=1, max_size=40)))


def _flips(phi, y, centers):
    """Floats within 64 of any center at which `phi(.) >= y` turns on: the
    float clears y and the one below does not."""
    keys = mech._order_key(np.asarray(centers, dtype=float))[:, None] + np.arange(-64, 65)
    vals = np.unique(mech._from_key(keys))
    up = phi(vals) >= y
    return vals[1:][up[1:] & ~up[:-1]]


@pytest.mark.parametrize("name", sorted(CUT_DISTS))
@settings(max_examples=30, derandomize=True, deadline=None)
@given(data=st.data())
def test_trade_willing_cut_matches_bisection(name, data):
    # the cut is bit for bit the 80-step bisection's wherever `phi(v) >= s - TOL`
    # turns on once. Where rounding makes it turn on several times (a few ulps
    # apart on the closed form, or on a flat ironed level equal to s - TOL
    # whose grid virtuals dip by an ulp), both cuts are such turns and q is
    # the reference formula at the one found near phi.inverse
    d = CUT_DISTS[name]()
    phi = dst.iron(d, "buyer")
    s = data.draw(cut_costs(phi))
    want = ref.prob_trade_willing(d, phi, s)
    got = mech._prob_trade_willing(d, phi, s)
    cut = ref.trade_willing_cut(d, phi, s)
    for r in np.flatnonzero(got != want):
        y = s[r] - mech.TOL
        flips = _flips(phi, y, [cut[r], phi.inverse(np.array([y]))[0]])
        assert len(flips) > 1 and cut[r] in flips, (s[r], cut[r], flips)
        assert got[r] in 1.0 - d.cdf(np.maximum(s[r], flips)), (s[r], got[r], want[r])


@pytest.mark.parametrize("m", [6, 8, 10])
@pytest.mark.parametrize("side", ["buyer", "seller"])
def test_inverse_returns_the_atom_where_the_ironed_virtual_reaches_y(m, side):
    iv = getattr(instances.example_a3(m), f"{side}_ironed")[0]
    atoms, levels = np.asarray(iv.grid_values), np.asarray(iv.grid_virtuals)

    def first_atom(ys):  # the lowest atom whose level reaches y, else inf
        return np.array([atoms[levels >= y][0] if np.any(levels >= y) else np.inf for y in ys])

    for ys in (levels, levels - mech.TOL, levels + 1e-6, levels[:1] - 1.0):
        assert np.array_equal(iv.inverse(ys), first_atom(ys))
    assert np.array_equal(iv.inverse(levels), atoms[np.searchsorted(levels, levels)])  # ties: the level's lowest atom


def test_inverse_hits_the_tie_of_example_a3():
    # phi-tilde(48) = 32, the second seller atom: the cut at s = 32 is atom 48
    inst = instances.example_a3(6)
    phi = inst.buyer_ironed[0]
    assert phi.inverse(np.array([32.0, 32.0 - mech.TOL]))[0] == 48.0
    assert phi.inverse(np.array([32.0 - mech.TOL]))[0] == 48.0


def test_seller_offering_sells_at_the_lower_price_on_a_tie():
    inst = instances.example_a3(6)
    so, phi = mech.SellerOffering(inst), inst.buyer_ironed[0]
    B, _ = mech.buyer_grid(inst)
    S, _ = mech.seller_grid(inst)
    Bs, Ss = np.repeat(B, len(S), axis=0), np.tile(S, (len(B), 1))
    X, price, _ = so.outcome_batch(Bs, Ss)
    assert np.array_equal(price[X[:, 0]], phi.inverse(Ss[X[:, 0], 0] - mech.TOL))
    tie = (Bs[:, 0] > 48.0) & (Ss[:, 0] == 32.0)
    assert tie.any() and np.all(price[tie] == 48.0)
    assert_rows_match(so, Bs, Ss, ref.seller_offering)


@pytest.mark.parametrize("n, constraint", [
    (2, fea.unit_demand(range(2))),
    (3, fea.k_uniform(2, range(3))),
    (2, fea.additive(range(2))),
])
def test_buyer_offering_near_tie_payments_match_reference(n, constraint):
    # weights b - tau(s) = b - 2s equal, or 1e-12 apart, across items: the
    # critical weight of each traded item is another item's weight
    inst = _near_tie_market(n, constraint)
    rows = []
    for gap in (0.0, 1e-12, -1e-12, 5e-10):
        for base in (0.3, 0.9, 1.6):
            b = [base + 0.5] + [base + 0.5 + gap * (j + 1) for j in range(1, n)]
            rows.append((b, [0.25] * n))
            rows.append((b[::-1], [0.25 - gap] + [0.25] * (n - 1)))
    B, S = np.array([r[0] for r in rows]), np.array([r[1] for r in rows])
    assert_rows_match(mech.BuyerOffering(inst), B, S, ref.buyer_offering)


def test_buyer_offering_on_example_a3_matches_reference():
    inst = instances.example_a3(6)
    B, S = _grid_rows(inst, limit=200)
    assert_rows_match(mech.BuyerOffering(inst), B, S, ref.buyer_offering)


# -- the float bisection and its guessed brackets -------------------------------

SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 0.5, 1.0, 2.0, 3.0, -1.0, -2.0, 1e300, -1e300]
MAX_KEY = int(mech._order_key(np.array([np.finfo(float).max]))[0])


@st.composite
def float_brackets(draw):
    """One row as (near key, away key, flip keys): away on either side of
    near, adjacent to it, a few floats off, a guessed bracket's width off or
    anywhere (across -0.0/0.0 and binade ends), and an odd number of keys
    between them at which the predicate flips, so near trades and away does
    not and the predicate may turn more than once."""
    x = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
    kn = int(mech._order_key(np.array([draw(x)]))[0])
    width = draw(st.one_of(st.sampled_from([1, 2, 63, 64, 65]), st.integers(3, 5000), st.just(None)))
    if width is None:
        ka = int(mech._order_key(np.array([draw(x)]))[0])
    else:
        ka = kn + draw(st.sampled_from([width, -width]))
    assume(ka != kn and abs(ka) <= MAX_KEY)
    lo, hi = (kn + 1, ka) if ka > kn else (ka, kn - 1)
    count = draw(st.sampled_from([1, 1, 3, 5, 9]))
    flips = draw(st.lists(st.integers(lo, hi), min_size=count, max_size=count))
    return kn, ka, np.array(sorted(flips), dtype=np.int64)


def _parity_trades(rows):
    """Rows as in `float_brackets`, their reports at rows 3.. of a batch:
    (idx, near, away, trades), where trades(idx, v) holds where an even
    number of a row's flip keys lie between near and v."""
    kn = np.array([r[0] for r in rows], dtype=np.int64)
    ka = np.array([r[1] for r in rows], dtype=np.int64)
    up = ka > kn
    # flip keys per row, padded with keys no report passes on its way out
    flips = np.array([np.pad(f, (0, 9 - len(f)), constant_values=np.iinfo(np.int64).max if a > n else np.iinfo(np.int64).min) for n, a, f in rows])

    def trades(idx, v):
        k, f, u = mech._order_key(v)[:, None], flips[idx - 3], up[idx - 3]
        return np.where(u, (f <= k).sum(axis=1), (f >= k).sum(axis=1)) % 2 == 0

    idx = np.arange(len(rows)) + 3
    near, away = mech._from_key(kn), mech._from_key(ka)
    assert trades(idx, near).all() and not trades(idx, away).any()
    return idx, near, away, trades


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(float_brackets(), min_size=1, max_size=12))
def test_bisection_matches_one_level_per_call(rows):
    # on every width, the same floats bit for bit as the reference, through
    # every turn of the predicate
    idx, near, away, trades = _parity_trades(rows)
    want = ref.bisect_floats(trades, idx, near.copy(), away.copy())
    got = mech._bisect_floats(trades, idx, near.copy(), away.copy())
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@st.composite
def guessed_brackets(draw):
    """A `float_brackets` row and a guess of its cut: NaN, on a flip, a few
    floats off one, more than GUESS_ULPS off one, or outside the bracket."""
    kn, ka, flips = draw(float_brackets())
    f = int(draw(st.sampled_from(flips.tolist())))
    kind = draw(st.sampled_from(["nan", "flip", "few", "wide", "outside"]))
    if kind == "nan":
        return kn, ka, flips, np.nan
    if kind == "flip":
        key = f
    elif kind == "few":
        key = f + draw(st.integers(-4, 4))
    elif kind == "wide":
        key = f + draw(st.sampled_from([1, -1])) * draw(st.integers(mech.GUESS_ULPS + 1, 4 * mech.GUESS_ULPS))
    else:  # beyond far, or before t
        m = draw(st.integers(1, 100)) * (1 if ka > kn else -1)
        key = draw(st.sampled_from([ka + m, kn - m]))
    key = min(max(key, -MAX_KEY), MAX_KEY)
    return kn, ka, flips, float(mech._from_key(np.array([key]))[0])


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(guessed_brackets(), min_size=1, max_size=12))
def test_threshold_search_closes_guessed_brackets_by_bisection(rows):
    # a guess whose two probes hold (trading GUESS_ULPS floats on t's side of
    # it, not on far's, both clipped into the bracket) gives the reference
    # bisection on the probe bracket; any other guess, on (t, far). No
    # `trades` call carries more than twice the search's rows.
    idx, near, away, trades = _parity_trades([r[:3] for r in rows])
    guess = np.array([r[3] for r in rows])
    lo, hi = near.copy(), away.copy()
    for j, (kn, ka, _, g) in enumerate(rows):
        if not np.isnan(g):
            step = mech.GUESS_ULPS if ka > kn else -mech.GUESS_ULPS
            clip = lambda k: min(max(k, min(kn, ka)), max(kn, ka))
            kg = clip(int(mech._order_key(np.array([g]))[0]))
            gn, ga = mech._from_key(np.array([clip(kg - step), clip(kg + step)]))
            if trades(idx[j:j + 1], gn[None])[0] and not trades(idx[j:j + 1], ga[None])[0]:
                lo[j], hi[j] = gn, ga
    want = ref.bisect_floats(trades, idx, lo, hi)
    calls = []

    def counted(i, v):
        calls.append(len(i))
        return trades(i + 3, v)

    got = mech._threshold_search(counted, near, far=away, guess=guess)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert max(calls) <= 2 * len(rows)


def test_buyer_offering_trial_rows_stay_within_twice_the_traded_pairs():
    # 2,000 rows of a 16-item k-uniform(3) market: no `allocation` call
    # carries more than the guess probes' two trial rows per traded pair
    base = instances.random_instance(16, "uniform", seed=16)
    inst = mech.market(base.buyer_dists, base.seller_dists, fea.k_uniform(3, range(16)))
    B, S = inst.sample_profiles(np.random.default_rng(0), 2000)
    bo, calls = mech.BuyerOffering(inst), []
    alloc = bo.allocation
    bo.allocation = lambda Bt, St: calls.append(len(Bt)) or alloc(Bt, St)
    X = bo.outcome_batch(B, S)[0]
    assert calls and max(calls) <= 2 * X.sum()
