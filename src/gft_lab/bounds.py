"""Benchmarks and bounds: the first-best decomposition into posted-price-
coverable terms, prophet thresholds, second-best upper bounds, and the
concentration inequality behind size-floored pricing.

Statistical quantities are estimated on common random profiles so that paired
differences carry their own standard errors; pathwise-valid inequalities are
additionally reported via their worst sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import distributions as dst
from . import feasibility as fea
from .distributions import Dist, _ordered_sum, item_max, item_sum
from . import audits
from .audits import _mean_stderr
from .mechanisms import Fpp, MarketInstance

__all__ = [
    "BenchmarkReport",
    "benchmark_decomposition",
    "ProphetResult",
    "prophet_threshold",
    "opt_b",
    "hl_split",
    "separate_sale_bound",
    "sb_gft_upper",
    "brustle_sd_upper",
    "ZReport",
    "z_concentration_check",
    "sub_instance",
    "expected_positive_margin",
    "bilateral_fb_quad",
    "bilateral_fpp_gft_quad",
    "best_fpp_bilateral",
]


@dataclass(frozen=True)
class BenchmarkReport:
    r: float
    r_items: tuple[float, ...]
    x: tuple[float, ...]
    y: tuple[float, ...]
    pair_ok: bool
    ladder_depth: int
    fb: float
    fb_stderr: float
    term1: float
    term2: float
    term3: tuple[float, ...]
    term4: tuple[float, ...]
    term5: tuple[float, ...]
    term6: tuple[float, ...]
    checks: dict


def benchmark_decomposition(inst: MarketInstance, samples: int = 10**4, seed: int = 0) -> BenchmarkReport:
    """Estimate the first-best decomposition on common random profiles.

    term1/term2 split the first-best along the per-item quantile pair (x_i,
    y_i); term3..term6 are the ladder quantities that posted prices cover. The
    report carries paired three-sigma verdicts for FB <= term1 + term2,
    term1 <= 2 * sum(term3 + term4), and term2 <= 2 * sum(term5 + term6).
    """
    n = inst.n
    r_items = inst.trade_probs
    r = min(r_items)
    x = tuple(dst.upper_quantile(inst.buyer_dists[i], r_items[i] / 2.0) for i in range(n))
    y = tuple(dst.quantile(inst.seller_dists[i], r_items[i] / 2.0) for i in range(n))
    pair_ok = all(xi >= yi - 1e-9 for xi, yi in zip(x, y))
    theta_b = np.column_stack([dst.quantile_ladder(d, r, "buyer") for d in inst.buyer_dists])
    theta_s = np.column_stack([dst.quantile_ladder(d, r, "seller") for d in inst.seller_dists])
    depth = len(theta_b)

    rng = np.random.default_rng(seed)
    B, S = inst.sample_profiles(rng, samples)
    diff = B - S
    fb_vals, star = fea.max_weight_values(inst.constraint, diff)
    t1 = item_sum(np.where(star & (S < np.asarray(x)), diff, 0.0))
    t2 = item_sum(np.where(star & (S >= np.asarray(y)), diff, 0.0))

    def ladder_terms(prices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        P = prices[:, None, :]  # (depth, 1, n) against the (samples, n) profiles
        lo = fea.max_weight(inst.constraint, np.where(S <= P, B - P, 0.0))
        hi = fea.max_weight(inst.constraint, np.where(B >= P, P - S, 0.0))
        return lo, hi

    t3, t4 = ladder_terms(theta_b)
    t5, t6 = ladder_terms(theta_s)

    def paired_check(lhs: np.ndarray, rhs: np.ndarray) -> tuple[bool, float]:
        d = rhs - lhs
        mean, err = _mean_stderr(d)
        sigma = mean / err if err > 0 else math.inf if mean >= 0 else -math.inf
        return mean >= -3.0 * err, sigma

    checks = {
        "fb_le_term1_plus_term2": paired_check(fb_vals, t1 + t2),
        "term1_le_2_sum_term34": paired_check(t1, 2.0 * (t3.sum(axis=0) + t4.sum(axis=0))),
        "term2_le_2_sum_term56": paired_check(t2, 2.0 * (t5.sum(axis=0) + t6.sum(axis=0))),
        "pair_x_ge_y": (pair_ok, math.inf if pair_ok else -math.inf),
    }
    fb_mean, fb_err = _mean_stderr(fb_vals)
    return BenchmarkReport(
        r,
        tuple(r_items),
        x,
        y,
        pair_ok,
        depth,
        fb_mean,
        fb_err,
        float(t1.mean()),
        float(t2.mean()),
        tuple(t3.mean(axis=1)),
        tuple(t4.mean(axis=1)),
        tuple(t5.mean(axis=1)),
        tuple(t6.mean(axis=1)),
        checks,
    )


@dataclass(frozen=True)
class ProphetResult:
    xi: float
    emax: float
    emax_stderr: float
    theta_b: np.ndarray
    theta_s: np.ndarray

    def fpp(self, inst: MarketInstance) -> Fpp:
        return Fpp(inst, self.theta_b, self.theta_s, name="prophet_fpp")


def prophet_threshold(inst: MarketInstance, p: Sequence[float], samples: int = 10**5, seed: int = 0) -> ProphetResult:
    """Median-style prophet threshold: xi = E[max_i v_i] / 2 with
    v_i = (p_i - s_i)^+ 1[b_i >= p_i]; the companion mechanism posts buyer
    prices p and seller prices p - xi."""
    p = np.asarray(p, dtype=float)
    rng = np.random.default_rng(seed)
    B, S = inst.sample_profiles(rng, samples)
    v = np.where(B >= p, np.maximum(p - S, 0.0), 0.0)
    m = item_max(v)
    emax, err = _mean_stderr(m)
    xi = emax / 2.0
    return ProphetResult(xi, emax, err, p.copy(), p - xi)


def hl_split(inst: MarketInstance) -> tuple[list[int], list[int]]:
    """Items with trade probability at least 1/n versus the rest."""
    cut = 1.0 / inst.n
    H = [i for i in range(inst.n) if inst.trade_probs[i] >= cut - 1e-12]
    L = [i for i in range(inst.n) if i not in H]
    return H, L


def sub_instance(inst: MarketInstance, items: Iterable[int]) -> MarketInstance:
    t = sorted(set(int(i) for i in items))
    return MarketInstance(
        tuple(inst.buyer_dists[i] for i in t),
        tuple(inst.seller_dists[i] for i in t),
        fea.reindex_restrict(inst.constraint, t),
    )


def opt_b(inst: MarketInstance, mode: str = "exact", samples: int = 10**5, seed: int = 0):
    """E[max over feasible sets of (b_i - ironed-virtual-cost_i)^+] — the GFT
    of the buyer-offering mechanism and a second-best component bound."""

    def rows(B: np.ndarray, S: np.ndarray):
        tau = inst.virtuals(S, "seller")
        return lambda b, s: fea.max_weight(inst.constraint, B[b] - tau[s])

    return audits._expectation(inst, rows, mode, samples, seed)


def expected_positive_margin(inst: MarketInstance, i: int) -> float:
    """E[(phi_i(b_i) - s_i)^+] for one item: a sum over the atoms of a
    discrete buyer, else `_margin_integral`."""
    phi = inst.buyer_ironed[i]
    db, ds = inst.buyer_dists[i], inst.seller_dists[i]
    if db.kind == "discrete":
        excess = dst.expected_excess(ds, phi(db.atoms), "below")
        return float(_ordered_sum(db.masses * excess, axis=0))
    return _margin_integral(db, phi, ds)


def _margin_integral(db: Dist, phi: dst.IronedVirtual, ds: Dist) -> float:
    """E[(X - Y)^+] = integral of Pr[X > t] Pr[Y < t] dt for X = phi(b), b ~ db
    continuous, and Y = s ~ ds: Pr[X > t] = 1 - F(phi.inverse(t)), over
    [min Y, max X] with edges at both supports' ends, at the buyer's
    `scale_points` mapped through phi, at the seller's `scale_points` (its
    atoms, where Pr[Y < t] jumps, if discrete) and, where phi is an ironed
    step function, at each of its levels (jumps of Pr[X > t])."""
    lo, hi = ds.support()
    top = phi(db.support()[1])
    if top <= lo:
        return 0.0
    levels = () if phi.exact else np.unique(phi.grid_virtuals)
    marks = ds.values if ds.kind == "discrete" else dst.scale_points(ds)
    edges = dst._inside([hi, phi(db.support()[0]), *levels, *phi(dst.scale_points(db)), *marks], lo, top)
    return dst.gauss_legendre(lambda t: db.tail(phi.inverse(t)) * ds.below(t), edges)


def separate_sale_bound(inst: MarketInstance, L: Iterable[int]) -> float:
    """max(1, log2 |L|) * sum over L of E[(phi_i(b_i) - s_i)^+]."""
    L = sorted(set(int(i) for i in L))
    if not L:
        return 0.0
    factor = max(1.0, math.log2(len(L)))
    return factor * sum(expected_positive_margin(inst, i) for i in L)


def sb_gft_upper(inst: MarketInstance, samples: int = 10**5, seed: int = 0) -> float:
    """Upper bound on second-best GFT: buyer-offering value plus separate
    sales over the thin items plus first best over the thick items."""
    H, L = hl_split(inst)
    if inst.is_discrete:
        ob = opt_b(inst, "exact")
    else:
        ob = opt_b(inst, "mc", samples, seed)[0]
    mid = separate_sale_bound(inst, L)
    if not H:
        fbh = 0.0
    else:
        hsub = sub_instance(inst, H)
        if hsub.is_discrete:
            fbh = audits.first_best_gft(hsub, "exact")
        else:
            fbh = audits.first_best_gft(hsub, "mc", samples, seed + 2)[0]
    return float(ob + mid + fbh)


def brustle_sd_upper(inst: MarketInstance) -> float:
    """Exact unit-demand upper bound: E[max_i (phi_i(b_i) - s_i)^+] plus
    E[max_i (b_i - tau_i(s_i))^+]. Discrete instances only."""
    if inst.constraint.variant != "unit_demand" and inst.n != 1:
        raise ValueError("this bound applies to unit-demand markets")

    def rows(B: np.ndarray, S: np.ndarray):
        phi, tau = inst.virtuals(B, "buyer"), inst.virtuals(S, "seller")

        def relaxation(b: np.ndarray, s: np.ndarray) -> np.ndarray:
            x = item_max(np.maximum(phi[b] - S[s], 0.0))
            y = item_max(np.maximum(B[b] - tau[s], 0.0))
            return x + y

        return relaxation

    return audits._grid_expectation(inst, rows)


@dataclass(frozen=True)
class ZReport:
    lhs: float
    lhs_stderr: float
    rhs: float
    ez: float

    @property
    def ok(self) -> bool:
        return self.lhs >= self.rhs - 3.0 * self.lhs_stderr


def z_concentration_check(
    constraint: fea.Constraint,
    t_dists: Sequence[Dist],
    c: float,
    samples: int = 10**5,
    seed: int = 0,
) -> ZReport:
    """Check Pr[Z >= c E[Z]] >= (1-c)^2 / (1 + 1/E[Z]) for the max feasible
    weight Z of i.i.d.-coordinate weights in [0, 1]."""
    if not 0.0 < c < 1.0:
        raise ValueError("c must lie in (0, 1)")
    for d in t_dists:
        lo, hi = d.support()
        if lo < -1e-9 or hi > 1.0 + 1e-9:
            raise ValueError("weights must be supported on [0, 1]")
    rng = np.random.default_rng(seed)
    T = np.column_stack([d.sample(rng, samples) for d in t_dists])
    Z = fea.max_weight(constraint, T)
    ez = float(Z.mean())
    if ez <= 0.0:
        return ZReport(1.0, 0.0, 0.0, 0.0)
    hits = float((Z >= c * ez).mean())
    err = math.sqrt(max(hits * (1.0 - hits), 1e-12) / samples)
    rhs = (1.0 - c) ** 2 / (1.0 + 1.0 / ez)
    return ZReport(hits, err, rhs, ez)


# -- bilateral first best and posted prices ---------------------------------------


def _bilateral(inst: MarketInstance) -> tuple[Dist, Dist]:
    if inst.n != 1:
        raise ValueError("bilateral helper")
    return inst.buyer_dists[0], inst.seller_dists[0]


def bilateral_fb_quad(inst: MarketInstance) -> float:
    """First best E[(b - s)^+] for a continuous bilateral instance: the
    integral of f(b) E[(b - s)^+] over the buyer's support by
    `gauss_legendre`, with edges at the seller's support ends (where the
    inner expectation kinks) and both sides' `scale_points`."""
    db, ds = _bilateral(inst)
    edges = dst._inside([*ds.support(), *dst.scale_points(db), *dst.scale_points(ds)], *db.support())
    return dst.gauss_legendre(lambda b: db.pdf(b) * dst.expected_excess(ds, b, "below"), edges)


def bilateral_fpp_gft_quad(inst: MarketInstance, p):
    """GFT of the posted price p on a bilateral instance, elementwise over
    p: E[(b - s) 1[b >= p >= s]] = Pr[s <= p] E[(b - p)^+] + Pr[b >= p]
    E[(p - s)^+] by independence. Fpp's TOL tie rule is not applied, so
    `best_fpp_bilateral` prices a discrete instance by `exact_gft`."""
    db, ds = _bilateral(inst)
    return ds.cdf(p) * dst.expected_excess(db, p, "above") + db.tail(p) * dst.expected_excess(ds, p, "below")


def best_fpp_bilateral(inst: MarketInstance) -> tuple[float, float]:
    """The best single posted price and its GFT, as (price, gft). A fully
    discrete instance takes the first maximum of the exact Fpp GFT over the
    support atoms; otherwise the best of 800 equally spaced prices,
    refined by a bounded scalar search between its neighbours."""
    db, ds = _bilateral(inst)
    if inst.is_discrete:
        support = sorted(set(db.values) | set(ds.values))
        return max(((p, audits.exact_gft(Fpp(inst, [p], [p]), inst)) for p in support), key=lambda t: t[1])
    ps = np.linspace(min(db.support()[0], ds.support()[0]), max(db.support()[1], ds.support()[1]), 800)
    vals = bilateral_fpp_gft_quad(inst, ps)
    k = int(np.argmax(vals))
    from scipy.optimize import minimize_scalar

    a = ps[max(0, k - 1)]
    b = ps[min(len(ps) - 1, k + 1)]
    res = minimize_scalar(lambda p: -bilateral_fpp_gft_quad(inst, p), bounds=(a, b), method="bounded")
    p_star = float(res.x)
    g_star = bilateral_fpp_gft_quad(inst, p_star)
    if vals[k] > g_star:
        return float(ps[k]), float(vals[k])
    return p_star, float(g_star)
