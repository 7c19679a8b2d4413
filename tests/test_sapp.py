"""
Tests for the array form of seller-adjusted posted prices: the price map over
seller-profile rows, the coin-integrated purchase table behind the exact
audits, row independence of the prices, the table's capacity guard, and the
rule hypothesis checks of `sapp_build`.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sapp_reference import Reference, entry

from gft_lab import audits, bounds
from gft_lab import distributions as dst
from gft_lab import feasibility as fea
from gft_lab import instances
from gft_lab import mechanisms as mech

d = dst.discrete
VALUES = [k / 4 for k in range(9)]  # a coarse lattice, so prices land on atoms and ties occur


@st.composite
def discrete_cases(draw):
    n = draw(st.integers(1, 3))

    def dist():
        k = draw(st.integers(2, 4))
        vals = draw(st.lists(st.sampled_from(VALUES), min_size=k, max_size=k, unique=True))
        w = draw(st.lists(st.integers(1, 4), min_size=k, max_size=k))
        return d(vals, [x / sum(w) for x in w])

    buyers = [dist() for _ in range(n)]
    sellers = [dist() for _ in range(n)]
    constraint = draw(st.sampled_from([fea.unit_demand, fea.additive]))(range(n))
    inst = mech.market(buyers, sellers, constraint)
    if draw(st.booleans()):
        return inst, mech.reduction_rule(inst)
    L = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    return inst, mech.unlikely_trade_rule(inst, L)


def close(a, b):
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


@given(discrete_cases())
@settings(max_examples=30)
def test_tables_match_per_profile_reference(case):
    inst, rule = case
    sp = mech.Sapp(inst, mech.sapp_build(inst, rule))
    ref = Reference(inst, rule)
    S = mech.seller_grid(inst)[0]
    B = mech.buyer_grid(inst)[0]
    rows = sp.pmap.rows(S)
    for k, s in enumerate(S):
        for got, want in zip(rows, ref.entry(s)):
            assert got[k].tobytes() == want.tobytes()
    rep, want = sp.exact_report(), ref.report()
    for key in ("gft", "buyer_payment", "seller_payments", "wbb_slack", "rule_virtual_surplus"):
        assert close(rep[key], want[key]), key
    assert rep["xhat"].keys() == want["xhat"].keys()
    for key, xh in want["xhat"].items():
        assert all(close(a, b) for a, b in zip(rep["xhat"][key], xh))
    assert close(sp.sandwich_violation(), ref.sandwich_violation())
    assert close(sp.exact_dsic_gain(), ref.dsic_gain())
    # the table, its one-row call and the grid entries it filled agree exactly
    for k, s in enumerate(S):
        for got, want in zip(rows, (sp.pmap.q(s), sp.pmap.theta(s), sp.pmap.alpha(s))):
            assert got[k].tobytes() == want.tobytes()
        for m, b in enumerate(B):
            assert sp._table.beta[k, m].tobytes() == sp.allocation(np.array([b]), np.array([s]))[0].tobytes() == ref.beta(b, s).tobytes()


def test_one_row_entry_matches_reference():
    inst = mech.market(
        [d([1.0, 2.0], [0.5, 0.5]), d([0.8, 1.6], [0.4, 0.6])],
        [d([0.0, 0.5], [0.5, 0.5]), d([0.1, 0.9], [0.6, 0.4])],
        fea.unit_demand(range(2)),
    )
    rule = mech.reduction_rule(inst)
    pm = mech.sapp_build(inst, rule)
    for s in ([0.0, 0.1], [0.5, 0.9], [0.3, 0.3]):  # the last is off the seller grid
        s = np.array(s)
        for got, want in zip((pm.q(s), pm.theta(s), pm.alpha(s)), entry(inst, rule, s)):
            assert got.tobytes() == want.tobytes()


def test_seller_payments_are_expected_threshold_payments_with_raw_virtual_costs():
    # the first seller's ironing binds: raw virtual costs (0, 5.5, 3.22)
    # against ironed (0, 3.64, 3.64)
    inst = mech.market(
        [d([0.5, 1.5, 3.0], [0.3, 0.4, 0.3]), d([0.8, 2.5], [0.5, 0.5])],
        [d([0.0, 1.0, 2.0], [0.45, 0.1, 0.45]), d([0.2, 1.1], [0.6, 0.4])],
        fea.unit_demand(range(2)),
    )
    sp = mech.Sapp(inst, mech.sapp_build(inst, mech.reduction_rule(inst)))
    t = sp._table
    shape = tuple(len(ds.values) for ds in inst.seller_dists) + (len(t.B),)
    want = 0.0
    for i, ds in enumerate(inst.seller_dists):
        atoms = np.asarray(ds.values)
        others = [inst.seller_dists[j] for j in range(inst.n) if j != i]
        # beta[r, z]: seller i's purchase probability at own cost atoms[z]; the
        # threshold payment at truthful atoms[a] telescopes over z >= a
        beta = np.moveaxis(t.beta[..., i].reshape(shape), i, -1).reshape(-1, len(atoms))
        w = np.outer(mech._product_grid(others)[1], t.pB).ravel()
        at = beta - np.concatenate((beta[:, 1:], np.zeros((len(beta), 1))), axis=1)
        pay = np.cumsum((at * atoms)[:, ::-1], axis=1)[:, ::-1]
        want += float(np.dot(w @ pay, ds.probs))
    got = sp.exact_report()["seller_payments"]
    assert abs(got - want) <= 1e-12 and math.isclose(want, 0.36329, abs_tol=1e-12)
    ironed = np.vecdot(t.beta, inst.virtuals(t.S, "seller")[:, None, :])
    assert abs(float(np.sum(np.outer(t.pS, t.pB) * ironed)) - want) > 1e-3  # 0.35770


# q, theta and alpha of the fixed-sample fallback (continuous buyers, a rule
# without q_fn) at three seller profiles, recorded with the per-sample loop
FALLBACK_PINS = {
    "a1": [
        ([0.5], [0.22607421875], [2.045756109293722]),
        ([2.0], [0.04638671875], [3.192131730961307]),
        ([3.5], [0.007080078125], [3.8262655867521893]),
    ],
    "u3": [
        (
            [0.5781896714491933, 0.4520952209321943, 0.7111299277215736],
            [0.557861328125, 0.092041015625, 0.109375],
            [1.5594957211060705, 0.7281033394264635, 1.1825096477451282],
        ),
        (
            [0.7667820026703474, 0.5829612674687812, 0.8874123761223314],
            [0.488037109375, 0.06201171875, 0.08349609375],
            [1.596026098631914, 0.7387141179749614, 1.1980284629987312],
        ),
        (
            [0.9553743338915014, 0.7138273140053679, 1.063694824523089],
            [0.415283203125, 0.020263671875, 0.04541015625],
            [1.63408921927073, 0.7534656881521415, 1.2208674741266758],
        ),
    ],
}


@pytest.mark.parametrize("name", sorted(FALLBACK_PINS))
def test_fixed_sample_fallback_pinned(name):
    inst = (
        instances.example_a1(4.0)
        if name == "a1"
        else instances.random_instance(3, "uniform", seed=5, constraint="unit_demand")
    )
    pm = mech.sapp_build(inst, mech.reduction_rule(inst))
    pins = FALLBACK_PINS[name]
    S = np.array([s for s, _, _ in pins])
    q, theta, alpha = pm.rows(S)
    for k, (s, q_want, theta_want) in enumerate(pins):
        assert q[k].tolist() == q_want and theta[k].tolist() == theta_want
        assert pm.q(s).tolist() == q_want and pm.theta(s).tolist() == theta_want
        assert alpha[k].tolist() == [0.0] * inst.n


def _regime(name):
    """A market and rule per way `rows` gets q: the fixed buyer sample (a1,
    a2), the discrete buyer grid (a2d) and the rule's q_fn (a2-unlikely)."""
    if name == "a1":
        inst = instances.example_a1(4.0)
    elif name == "a2d":
        inst = instances.example_a2_discretized(4, 6.0, grid=16)  # grid=8 leaves item 0 no trade, which a2d refuses
    else:
        inst = instances.example_a2(4, 6.0)
    if name == "a2-unlikely":
        return inst, mech.unlikely_trade_rule(inst, bounds.hl_split(inst)[1])
    return inst, mech.reduction_rule(inst)


@pytest.mark.parametrize("name", ["a1", "a2", "a2d", "a2-unlikely"])
def test_fixed_sample_fallback_prices_rows_in_bounded_blocks(name, monkeypatch):
    inst, rule = _regime(name)
    pm = mech.sapp_build(inst, rule)
    S = inst.sample_profiles(np.random.default_rng(3), 600)[1]
    # a row's prices depend on that row alone: priced in one batch, one row at
    # a time, or among the same rows in another order, the bytes agree
    batch = pm.rows(S)
    alone = [np.concatenate(col) for col in zip(*(pm.rows(S[k:k + 1]) for k in range(len(S))))]
    perm = np.random.default_rng(4).permutation(len(S))
    stacked = pm._entries(np.concatenate((S, S[perm])))
    for got, one, both in zip(batch, alone, stacked):
        assert got.tobytes() == one.tobytes() == both[: len(S)].tobytes()
        assert got[perm].tobytes() == both[len(S):].tobytes()
    if pm._bgrid is None:  # q from q_fn: no buyer rows to block over
        return
    blocks = []
    kept = pm._kept
    monkeypatch.setattr(pm, "_kept", lambda rows: blocks.append(len(rows)) or kept(rows))
    chunked = pm.rows(S)
    step = mech.SAPP_ROWS_BYTES // (len(pm._bgrid) * inst.n * 8)
    assert sum(blocks) == len(S) and max(blocks) == min(step, len(S)) and len(blocks) == math.ceil(len(S) / step)
    monkeypatch.setattr(mech, "SAPP_ROWS_BYTES", 2**40)
    whole = pm.rows(S)
    monkeypatch.setattr(mech, "SAPP_ROWS_BYTES", 1)
    single = pm.rows(S)
    assert blocks[-2:] == [1, 1] and blocks[-len(S) - 1] == len(S)
    for got, want, one in zip(chunked, whole, single):
        assert got.tobytes() == want.tobytes() == one.tobytes()


def test_budget_audit_pinned_on_a2():
    a2c = instances.example_a2(4, 6.0)
    _, L = bounds.hl_split(a2c)
    pm = mech.sapp_build(a2c, mech.unlikely_trade_rule(a2c, L))
    br = audits.budget_audit(mech.Sapp(a2c, pm), a2c, samples=3000, seed=9)
    # recorded values: a change to the price map must not move the audit's bits
    assert (br.expost_min_slack, br.exante_slack, br.exante_stderr) == (
        0.0,
        0.0006371769094100885,
        0.0004615168869906838,
    )


def test_sapp_table_capacity_guard(monkeypatch):
    many = d(np.linspace(0.0, 1.0, 1500), [1 / 1500] * 1500)
    inst = mech.market([d([0.5, 1.5], [0.5, 0.5])] * 2, [many, many], fea.unit_demand(range(2)))
    sp = mech.Sapp(inst, mech.sapp_build(inst, mech.reduction_rule(inst)))
    # 1500^2 seller profiles x 4 buyer profiles x 2 items x 8 bytes = 144 MB,
    # while each grid alone is under _product_grid's 1e7-point cap
    assert 1500**2 * 4 * 2 * 8 > mech.SAPP_TABLE_BYTES

    def no_grid(inst):
        raise AssertionError("seller grid built before the capacity check")

    monkeypatch.setattr(mech, "seller_grid", no_grid)
    for audit in (sp.exact_report, sp.sandwich_violation, sp.exact_dsic_gain):
        with pytest.raises(fea.CapacityError, match="SAPP table needs 144000000 bytes"):
            audit()


def _two_uniform_items():
    u = dst.uniform(0.0, 1.0)
    return mech.market([u, u], [u, u], fea.unit_demand(range(2)))


@pytest.mark.parametrize(
    "fn, message",
    [
        (lambda b, s: np.ones(2), "serves more than one item"),
        (lambda b, s: s * np.array([1.0, 0.0]), "not nonincreasing in the cost of item 0"),
        (
            lambda b, s: np.stack([1.0 - s[..., 1], np.zeros(s.shape[:-1])], axis=-1),
            "not nondecreasing in item 1's cost for item 0",
        ),
    ],
    ids=["serves-two", "rises-in-own-cost", "falls-in-other-cost"],
)
def test_validate_rule_rejects(fn, message):
    inst = _two_uniform_items()
    with pytest.raises(ValueError, match=message):
        mech.sapp_build(inst, mech.AllocationRule("bad", fn))


def test_validate_rule_accepts_broadcast_constant():
    inst = _two_uniform_items()
    const = mech.AllocationRule("const", lambda b, s: np.array([0.5, 0.0]))
    pm = mech.sapp_build(inst, const)
    assert const(np.zeros((3, 5, 2)), np.zeros((5, 2))).shape == (3, 5, 2)
    # phi(b) = 2b - 1 clears 0.2 with probability 0.4 on the fixed buyer sample
    assert math.isclose(pm.q(np.array([0.2, 0.2]))[0], 0.5 * 0.4, abs_tol=0.02)


@pytest.mark.parametrize("make", [mech.reduction_rule, lambda inst: mech.unlikely_trade_rule(inst, range(inst.n))])
def test_validate_rule_calls_the_rule_once(make):
    # the sampled costs and every item's raised costs go through one call
    inst = instances.random_instance(3, "uniform", seed=31)
    rule = make(inst)
    calls = []

    def counted(b, s):
        calls.append(np.broadcast_shapes(b.shape, s.shape))
        return rule.fn(b, s)

    mech.sapp_build(inst, mech.AllocationRule(rule.name, counted, rule.q_fn, rule.q_cut))
    assert calls == [(inst.n + 1, 48, inst.n)]
