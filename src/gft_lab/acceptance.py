"""Executable acceptance checks.

Each criterion is a zero-argument callable returning ``(ok, detail)``. The
CRITERIA list drives both the test suite and ``gft-lab selftest``, so the CLI
and CI agree on what green means. Monte Carlo checks compare against a
three-sigma (agreement checks: four-sigma) band around the claimed bound;
exact checks use a 1e-9 tolerance.
"""
from __future__ import annotations

import math
import time
from fractions import Fraction
from typing import Callable

import numpy as np

from . import audits, bounds, instances, ocrs, oracle
from . import distributions as dst
from . import feasibility as fea
from . import mechanisms as mech


def _fmt(x: float) -> str:
    return f"{x:.6g}"


# -- 1: exact suite on the log-separation grid family ------------------------


def _upper_hull_slopes(xs: list, ys: list) -> list:
    """Slope of the upper concave hull of (xs, ys) over each [xs[i], xs[i+1]];
    exact when the inputs are Fractions."""
    hull = [0]
    for j in range(1, len(xs)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (ys[b] - ys[a]) * (xs[j] - xs[a]) <= (ys[j] - ys[a]) * (xs[b] - xs[a]):
                hull.pop()
            else:
                break
        hull.append(j)
    slopes = []
    for a, b in zip(hull, hull[1:]):
        slopes += [(ys[b] - ys[a]) / (xs[b] - xs[a])] * (b - a)
    return slopes


def _a3_rational(m: int) -> dict[str, Fraction]:
    """Exact bo, so, fb and tie GFT of example_a3(m) from a3_tables(m).

    Ironed virtual values are the hull slopes of distributions._iron_discrete
    in rationals. Seller-offering trades iff phi-tilde(b) >= s (ties traded),
    buyer-offering iff b > tau-tilde(s); tie is the GFT of the pairs with
    phi-tilde(b) == s.
    """
    tab = instances.a3_tables(m)
    bv, bp = tab["buyer_values"], tab["buyer_probs"]
    sv, sp = tab["seller_values"], tab["seller_probs"]
    tails = [1 - sum(bp[:k]) for k in range(len(bv))]  # Pr[b >= v_k]
    xs = [Fraction(0)] + tails[::-1]
    ys = [Fraction(0)] + [t * v for t, v in zip(tails, bv)][::-1]
    phi = _upper_hull_slopes(xs, ys)[::-1]
    cums = [sum(sp[: k + 1]) for k in range(len(sv))]  # Pr[s <= v_k]
    xs = [Fraction(0)] + cums
    ys = [Fraction(0)] + [-c * v for c, v in zip(cums, sv)]
    tau = [-t for t in _upper_hull_slopes(xs, ys)]
    out = dict.fromkeys(("bo", "so", "fb", "tie"), Fraction(0))
    for b, pb, f in zip(bv, bp, phi):
        for s, ps, t in zip(sv, sp, tau):
            g = pb * ps * (b - s)
            out["fb"] += g if b > s else 0
            out["so"] += g if f >= s else 0
            out["tie"] += g if f == s else 0
            out["bo"] += g if b > t else 0
    return out


def logsep_exact_suite() -> tuple[bool, str]:
    """Exact enumeration on example_a3(m), m in {6, 8, 10}.

    Buyer-offering GFT stays at most 1; no equal-price posting beats log2(m);
    first best lands in its predicted window. The gap window bounds fb - so
    for a seller-offering mechanism whose indifferent seller (phi-tilde(b) =
    s) does not trade. SellerOffering trades those ties, and a3_tables makes
    the seller's revenue curve flat, so ties carry real mass (1/12 at m=6);
    their GFT is added back before the window is applied. bo, so, fb and the
    tie mass must also match _a3_rational to 1e-12, so a change to the
    seller-offering tie rule is caught.
    """
    t0 = time.perf_counter()
    parts = []
    ok = True
    for m in (6, 8, 10):
        inst = instances.example_a3(m)
        lg = math.log2(m)
        llg = math.log2(lg)
        bo = audits.exact_gft(mech.BuyerOffering(inst), inst)
        so = audits.exact_gft(mech.SellerOffering(inst), inst)
        fb = audits.first_best_gft(inst, "exact")
        bd, sd = inst.buyer_dists[0], inst.seller_dists[0]
        phi = inst.buyer_ironed[0]
        tie = sum(
            pb * ps * (b - s)
            for b, pb in zip(bd.values, bd.probs)
            for s, ps in zip(sd.values, sd.probs)
            if abs(phi(b) - s) <= mech.TOL
        )
        fpp_best = bounds.best_fpp_bilateral(inst)[1]
        fb_lo = 0.25 * math.floor(lg) * (lg - llg - 1.0)
        fb_hi = lg * (lg + 1.0)
        gap = fb - so + tie
        gap_lo = (llg - 1.0) / 4.0
        gap_hi = math.log2(m + 2) / 2.0
        checks = {
            "bo": bo <= 1.0 + 1e-9,
            "fpp": fpp_best <= lg + 1e-9,
            "fb": fb_lo - 1e-9 <= fb <= fb_hi + 1e-9,
            "gap": gap_lo - 1e-9 < gap <= gap_hi + 1e-9,
        }
        measured = {"bo": bo, "so": so, "fb": fb, "tie": tie}
        exact = {
            name: abs(measured[name] - float(q)) <= 1e-12
            for name, q in _a3_rational(m).items()
        }
        ok = ok and all(checks.values()) and all(exact.values())
        bad = " ".join(
            [f"{name}-window-violated" for name, good in checks.items() if not good]
            + [f"{name}-not-exact" for name, good in exact.items() if not good]
        )
        parts.append(
            f"m={m}: bo={_fmt(bo)} so={_fmt(so)} fpp<={_fmt(fpp_best)} "
            f"fb={_fmt(fb)} tie={_fmt(tie)} "
            f"gap=fb-so+tie={_fmt(gap)} vs ({_fmt(gap_lo)}, {_fmt(gap_hi)}]"
            + (f" [{bad}]" if bad else "")
        )
    dt = time.perf_counter() - t0
    ok = ok and dt < 5.0
    return ok, "; ".join(parts) + f" ({dt:.2f}s < 5s)"


# -- 2: first-best vs best posting on the low-trade exponential family --------


def lowtrade_ratio_trend() -> tuple[bool, str]:
    """FB / best equal-price GFT grows like log2(1/r) on example_a1(t)."""
    t0 = time.perf_counter()
    parts = []
    ok = True
    for t in (8.0, 10.0, 12.0):
        inst = instances.example_a1(t)
        fb = bounds.bilateral_fb_quad(inst)
        p_star, g_star = bounds.best_fpp_bilateral(inst)
        r = instances.a1_r(t)
        ratio = fb / g_star
        floor = 0.1 * math.log2(1.0 / r)
        # quadrature agrees with the closed forms to the stated tolerance
        calib = (
            abs(fb - instances.a1_fb(t)) <= 1e-4
            and abs(g_star - instances.a1_fpp_gft(t, p_star)) <= 1e-4
        )
        ok = ok and calib and ratio >= floor
        parts.append(f"t={t:g}: ratio={ratio:.3f} >= {floor:.3f}")
    dt = time.perf_counter() - t0
    ok = ok and dt < 30.0
    return ok, "; ".join(parts) + f" ({dt:.2f}s < 30s)"


# -- 3: median-threshold prophet posting on random unit-demand markets --------


def prophet_posting() -> tuple[bool, str]:
    """GFT of the xi-shifted posting covers half the prophet benchmark."""
    worst = math.inf
    ok = True
    for k in range(20):
        inst = instances.random_instance(
            5, "uniform", seed=100 + k, constraint="unit_demand"
        )
        p = [dst.quantile(d, 0.5) for d in inst.buyer_dists]
        pr = bounds.prophet_threshold(inst, p, samples=10**5, seed=1000 + k)
        g, ge = audits.estimate_gft(pr.fpp(inst), inst, samples=10**5, seed=2000 + k)
        sig = math.hypot(ge, pr.emax_stderr / 2.0)
        margin = g - (pr.emax / 2.0 - 3.0 * sig)
        worst = min(worst, margin)
        ok = ok and margin >= 0.0
    return ok, f"20 instances, worst slack above the 3-sigma band {_fmt(worst)}"


# -- 4: two-phase posting suite on unlikely-trade markets ---------------------


def _unlikely_fixtures() -> list[tuple[str, mech.MarketInstance]]:
    d = dst.discrete
    u1 = mech.market(
        [
            d([0.2, 1.0], [0.8, 0.2]),
            d([0.3, 1.2], [0.75, 0.25]),
            d([0.1, 0.9], [0.85, 0.15]),
        ],
        [
            d([0.6], [1.0]),
            d([0.7, 0.8], [0.5, 0.5]),
            d([0.5, 0.55], [0.5, 0.5]),
        ],
        fea.additive(range(3)),
    )
    u2 = mech.market(
        [
            d([0.1, 1.0], [0.85, 0.15]),
            d([0.2, 0.8], [0.9, 0.1]),
            d([0.15, 1.1], [0.88, 0.12]),
            d([0.05, 0.7], [0.8, 0.2]),
        ],
        [
            d([0.5, 0.6], [0.5, 0.5]),
            d([0.4], [1.0]),
            d([0.55, 0.7], [0.6, 0.4]),
            d([0.3, 0.45], [0.5, 0.5]),
        ],
        fea.unit_demand(range(4)),
    )
    a2d = instances.example_a2_discretized(4, 6.0, grid=32)
    return [("rare-additive", u1), ("rare-unit-demand", u2), ("a2-discretized", a2d)]


def sapp_suite() -> tuple[bool, str]:
    """Exact audits of the sampled-price mechanism on discrete fixtures plus a
    Monte Carlo budget check on the continuous variant."""
    parts = []
    ok = True
    for label, inst in _unlikely_fixtures():
        _, L = bounds.hl_split(inst)
        rule = mech.unlikely_trade_rule(inst, L)
        sp = mech.Sapp(inst, mech.sapp_build(inst, rule))
        rep = sp.exact_report()
        rhs = sum(bounds.expected_positive_margin(inst, i) for i in L) / (4.0 * math.e)
        checks = (
            rep["wbb_slack"] >= -1e-9,
            sp.sandwich_violation() <= 1e-12,
            rep["gft"] >= 0.25 * rep["rule_virtual_surplus"] - 1e-9,
            rep["gft"] >= rhs - 1e-9,
            sp.exact_dsic_gain() <= 1e-9,
        )
        ok = ok and all(checks)
        parts.append(f"{label}: gft={_fmt(rep['gft'])} all-exact={all(checks)}")
    a2c = instances.example_a2(4, 6.0)
    _, L = bounds.hl_split(a2c)
    sp = mech.Sapp(a2c, mech.sapp_build(a2c, mech.unlikely_trade_rule(a2c, L)))
    br = audits.budget_audit(sp, a2c, samples=3000, seed=9)
    mc_ok = br.exante_slack >= -3.0 * br.exante_stderr
    ok = ok and mc_ok
    parts.append(f"a2-continuous: wbb={_fmt(br.exante_slack)} mc-ok={mc_ok}")
    return ok, "; ".join(parts)


# -- 5: greedy online selection guarantees ------------------------------------


def ocrs_selectability() -> tuple[bool, str]:
    parts = []
    ok = True
    for delta in (0.25, 0.5):
        scheme = ocrs.unit_demand_ocrs(delta)
        q = delta * np.array([0.3, 0.25, 0.25, 0.2])
        for i in (0, 3):
            eta, se = ocrs.estimate_selectability(scheme, q, i, samples=10**5, seed=41 + i)
            good = eta >= 1.0 - delta - 3.0 * se
            ok = ok and good
            parts.append(f"ud d={delta} i={i}: {eta:.4f}>={1 - delta:.2f}-3s")
    target = (1.0 - 0.5) / (2.0 - 0.5)
    for label, sizes, q in (
        ("small", [0.4, 0.4, 0.4], 0.25 * np.array([0.8, 0.8, 0.8])),
        ("mixed", [0.7, 0.3, 0.3], 0.25 * np.array([0.5, 0.8, 0.8])),
    ):
        scheme = ocrs.knapsack_ocrs(0.25, sizes)
        for i in (0, 1):
            eta, se = ocrs.estimate_selectability(scheme, q, i, samples=10**5, seed=51 + i)
            good = eta >= target - 3.0 * se
            ok = ok and good
            parts.append(f"kn-{label} i={i}: {eta:.4f}>={target:.4f}-3s")
    a = ocrs.unit_demand_ocrs(0.25)
    b = ocrs.knapsack_ocrs(0.25, [0.4, 0.4, 0.3, 0.3])
    comp = ocrs.compose_ocrs(a, b)
    qc = 0.25 * np.array([0.3, 0.3, 0.2, 0.2])
    eta_c, se_c = ocrs.estimate_selectability(comp, qc, 0, samples=10**5, seed=61)
    eta_a, se_a = ocrs.estimate_selectability(a, qc, 0, samples=10**5, seed=62)
    eta_b, se_b = ocrs.estimate_selectability(b, qc, 0, samples=10**5, seed=63)
    sig = math.sqrt((eta_b * se_a) ** 2 + (eta_a * se_b) ** 2 + se_c**2)
    good = eta_c >= eta_a * eta_b - 3.0 * sig
    ok = ok and good
    parts.append(f"compose: {eta_c:.4f}>={eta_a * eta_b:.4f}-3s")
    return ok, "; ".join(parts)


# -- 6: lower tail of the max-weight statistic --------------------------------


def z_concentration() -> tuple[bool, str]:
    configs = (
        ("ud-7", fea.unit_demand(range(7)), [dst.uniform(0.0, 1.0)] * 7),
        (
            "k3-9",
            fea.k_uniform(3, range(9)),
            [dst.discrete([0.2, 0.9], [0.5, 0.5])] * 9,
        ),
    )
    parts = []
    ok = True
    for label, cons, dists in configs:
        for c in (0.25, 0.5, 0.75):
            zr = bounds.z_concentration_check(cons, dists, c, samples=10**5, seed=17)
            ok = ok and zr.ok
            parts.append(f"{label} c={c:g}: {zr.lhs:.3f}>={zr.rhs:.3f}")
    return ok, "; ".join(parts)


# -- 7: LP oracle chain on discrete fixtures ----------------------------------


def _grid_bilateral(k: int) -> mech.MarketInstance:
    atoms = [(j + 1) / k for j in range(k)]
    p = [1.0 / k] * k
    return mech.market(
        [dst.discrete(atoms, p)], [dst.discrete(atoms, p)], fea.additive([0])
    )


def _two_item_fixtures() -> list[tuple[str, mech.MarketInstance]]:
    d = dst.discrete
    f1 = mech.market(
        [d([1.0, 2.0], [0.5, 0.5]), d([0.5, 1.5], [0.5, 0.5])],
        [d([0.0, 0.5], [0.5, 0.5]), d([0.2, 1.0], [0.5, 0.5])],
        fea.unit_demand(range(2)),
    )
    f2 = mech.market(
        [d([1.0, 2.0], [0.5, 0.5]), d([0.8, 1.6], [0.4, 0.6])],
        [d([0.0, 0.5], [0.5, 0.5]), d([0.1, 0.9], [0.6, 0.4])],
        fea.unit_demand(range(2)),
    )
    return [("ud-2a", f1), ("ud-2b", f2)]


def lp_oracle_chain() -> tuple[bool, str]:
    """Second-best LP dominated by first best and by the one-sided optima,
    strictly below first best on fine uniform grids, and above every
    implemented mechanism."""
    t0 = time.perf_counter()
    d = dst.discrete
    fixtures: list[tuple[str, mech.MarketInstance, bool]] = [
        (f"grid-{k}x{k}", _grid_bilateral(k), k in (6, 8)) for k in (2, 3, 4, 5, 6, 8)
    ]
    fixtures += [
        (
            "bi-a",
            mech.market([d([1.0, 2.0], [0.5, 0.5])], [d([0.0, 0.5], [0.5, 0.5])], fea.additive([0])),
            False,
        ),
        (
            "bi-b",
            mech.market([d([0.8, 1.6], [0.4, 0.6])], [d([0.1, 0.9], [0.6, 0.4])], fea.additive([0])),
            False,
        ),
        (
            "bi-c",
            mech.market(
                [d([0.5, 1.0, 1.5], [1 / 3, 1 / 3, 1 / 3])],
                [d([0.25, 0.75], [0.5, 0.5])],
                fea.additive([0]),
            ),
            False,
        ),
    ]
    fixtures += [(label, inst, False) for label, inst in _two_item_fixtures()]
    parts = []
    ok = True
    for label, inst, want_strict in fixtures:
        m = oracle.DiscreteMarket(inst)
        chain = oracle.verify_ub_chain(m)
        good = chain["sb_le_fb"] and chain["sb_le_optb_plus_opts"]
        good = good and all(flag for _, flag in chain["mechanisms"].values())
        if want_strict:
            good = good and chain["fb"] - chain["sb"] > 1e-9
        if inst.n == 2:
            good = good and all(
                flag for _, _, flag in oracle.opt_s_partition_check(m).values()
            )
        ok = ok and good
        parts.append(f"{label}:{'ok' if good else 'FAIL'}")
    dt = time.perf_counter() - t0
    ok = ok and dt < 60.0
    return ok, " ".join(parts) + f" ({dt:.1f}s < 60s, {len(fixtures)} fixtures)"


# -- 8: matching markets reduced to a single unit-demand buyer ----------------


def _matching_fixtures() -> list[tuple[str, mech.MarketInstance]]:
    d = dst.discrete
    p1 = (d([1.0, 2.0], [0.5, 0.5]), d([0.0, 0.5], [0.5, 0.5]))
    p2 = (d([0.8, 1.6], [0.4, 0.6]), d([0.1, 0.9], [0.6, 0.4]))
    p3 = (d([0.5, 1.0], [0.5, 0.5]), d([0.0, 0.25], [0.5, 0.5]))
    p6 = (d([0.25, 0.5], [0.5, 0.5]), d([0.0, 0.125], [0.5, 0.5]))
    p7 = (d([1.0, 2.0], [0.5, 0.5]), d([0.3, 0.4], [0.9, 0.1]))
    return [
        ("m2-a", instances.matching_market([p1, p3])),
        ("m2-b", instances.matching_market([p1, p2])),
        ("m2-c", instances.matching_market([p1, p7])),
        ("m3-a", instances.matching_market([p1, p7, p3])),
        ("m3-b", instances.matching_market([p1, p2, p6])),
    ]


def matching_reduction() -> tuple[bool, str]:
    """The better of buyer-offering and the reduction-rule sampled-price
    mechanism covers half the single-dimensional relaxation, exactly."""
    parts = []
    ok = True
    for label, inst in _matching_fixtures():
        half = 0.5 * bounds.brustle_sd_upper(inst)
        ob = bounds.opt_b(inst, "exact")
        sp = mech.Sapp(inst, mech.sapp_build(inst, mech.reduction_rule(inst)))
        gs = sp.exact_report()["gft"]
        good = max(ob, gs) >= half - 1e-9
        ok = ok and good
        parts.append(f"{label}: max({_fmt(ob)},{_fmt(gs)})>={_fmt(half)}")
    return ok, "; ".join(parts)


# -- 9: foundation properties --------------------------------------------------


def _brute_max_weight(c: fea.Constraint, w: dict[int, float]) -> float:
    return max(sum(w.get(i, 0.0) for i in s) for s in fea.feasible_sets(c))


def _brute_cases() -> list[fea.Constraint]:
    g8 = range(8)

    def rank(s: frozenset[int]) -> int:
        return min(2, len(s & {0, 1, 2, 3})) + min(2, len(s & {4, 5, 6, 7}))

    return [
        fea.additive(g8),
        fea.unit_demand(g8),
        fea.k_uniform(3, g8),
        fea.matroid_oracle(rank, g8),
        fea.matching([(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 3)]),
        fea.knapsack([0.3, 0.5, 0.4, 0.2, 0.6, 0.35, 0.25, 0.45]),
        fea.intersection(
            fea.k_uniform(3, g8), fea.knapsack([0.3, 0.5, 0.4, 0.2, 0.6, 0.35, 0.25, 0.45])
        ),
        fea.size_floor(fea.k_uniform(4, g8), 2),
    ]


def foundation_properties() -> tuple[bool, str]:
    parts = []
    ok = True

    families = ("uniform", "two-atom", "lognormal-discretized")
    pair_fail = 0
    for k in range(100):
        inst = instances.random_instance(1 + k % 4, families[k % 3], seed=k)
        for i in range(inst.n):
            _, _, good = dst.quantile_pair_check(inst.buyer_dists[i], inst.seller_dists[i])
            pair_fail += 0 if good else 1
    ok = ok and pair_fail == 0
    parts.append(f"pair-check fails={pair_fail}/100")

    decomp_fail = 0
    for k in range(10):
        inst = instances.random_instance(2 + k % 3, families[k % 3], seed=300 + k)
        rep = bounds.benchmark_decomposition(inst, samples=8000, seed=400 + k)
        if not all(flag for flag, _ in rep.checks.values()):
            decomp_fail += 1
    ok = ok and decomp_fail == 0
    parts.append(f"decomposition fails={decomp_fail}/10")

    uni = mech.market([dst.uniform(0, 1)], [dst.uniform(0, 1)], fea.additive([0]))
    fb, se = audits.first_best_gft(uni, "mc", samples=10**6, seed=5)
    fb_ok = abs(fb - 1.0 / 6.0) <= 3.0 * se
    ok = ok and fb_ok
    parts.append(f"uniform fb={fb:.5f} (1/6 within 3s: {fb_ok})")

    rng = np.random.default_rng(6)
    brute_fail = 0
    for c in _brute_cases():
        for _ in range(4):
            w = {i: float(v) for i, v in zip(c.ground, rng.uniform(-0.2, 1.0, len(c.ground)))}
            _, got = fea.max_weight_set(c, w)
            if abs(got - _brute_max_weight(c, w)) > 1e-9:
                brute_fail += 1
    ok = ok and brute_fail == 0
    parts.append(f"max-weight brute-force mismatches={brute_fail}")

    agree_fail = 0
    checks = []
    g4 = _grid_bilateral(4)
    checks.append((mech.Fpp(g4, [0.5], [0.5]), g4, 200000))
    checks.append((mech.SellerOffering(_grid_bilateral(8)), _grid_bilateral(8), 200000))
    ud2 = _two_item_fixtures()[0][1]
    checks.append((mech.BuyerOffering(ud2), ud2, 100000))
    u1 = _unlikely_fixtures()[0][1]
    checks.append((mech.Sapp(u1, mech.sapp_build(u1, mech.unlikely_trade_rule(u1, [0, 1, 2]))), u1, 20000))
    for mm, inst, ns in checks:
        exact = audits.exact_gft(mm, inst)
        est, se = audits.estimate_gft(mm, inst, samples=ns, seed=7)
        if abs(est - exact) > 4.0 * max(se, 1e-12):
            agree_fail += 1
    ok = ok and agree_fail == 0
    parts.append(f"mc-vs-exact disagreements={agree_fail}/{len(checks)}")

    return ok, "; ".join(parts)


CRITERIA: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
    ("logsep-exact-suite", logsep_exact_suite),
    ("lowtrade-ratio-trend", lowtrade_ratio_trend),
    ("prophet-posting", prophet_posting),
    ("sapp-suite", sapp_suite),
    ("ocrs-selectability", ocrs_selectability),
    ("z-concentration", z_concentration),
    ("lp-oracle-chain", lp_oracle_chain),
    ("matching-reduction", matching_reduction),
    ("foundation-properties", foundation_properties),
]


def run_all(names: list[str] | None = None, writer: Callable[[str], None] = print) -> int:
    """Run the selected criteria, print one PASS/FAIL line each, return 0/1."""
    known = {name for name, _ in CRITERIA}
    if names:
        unknown = sorted(set(names) - known)
        if unknown:
            raise ValueError(f"unknown criteria: {', '.join(unknown)}")
    failures = 0
    for name, fn in CRITERIA:
        if names and name not in names:
            continue
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed criterion is a failure, not an abort
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        writer(f"{'PASS' if ok else 'FAIL'} {name} ({dt:.1f}s) {detail}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1
