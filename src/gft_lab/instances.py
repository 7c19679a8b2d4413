"""Named instance families and generators.

The bilateral exponential family carries closed forms (trade probability,
first best, posted-price GFT) used as integration cross-checks. The thin-market
family appends near-degenerate items whose trade probability is exactly
1/(2n). The power-of-two family is built in exact rational arithmetic and
validates its defining tail identity before converting to floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import distributions as dst
from . import feasibility as fea
from .distributions import Dist
from .mechanisms import MarketInstance, market

__all__ = [
    "example_a1",
    "a1_lambda",
    "a1_r",
    "a1_fb",
    "a1_fpp_gft",
    "example_a2",
    "example_a2_discretized",
    "example_a3",
    "a3_tables",
    "matching_market",
    "random_instance",
    "equal_mass_discretize",
    "instance_to_json",
    "instance_from_json",
    "make_example",
]


# -- bilateral truncated-exponential pair ----------------------------------------


def a1_lambda(t: float) -> float:
    return 1.0 / (1.0 - math.exp(-t))


def a1_r(t: float) -> float:
    """Pr[b >= s]: ((t-1)e^t + 1) / (e^t - 1)^2."""
    et = math.expm1(t)  # e^t - 1
    return (t - 1.0) / et + t / (et * et)


def a1_fb(t: float) -> float:
    lam = a1_lambda(t)
    return lam * lam * ((t - 2.0) * math.exp(-t) + (t + 2.0) * math.exp(-2.0 * t))


def a1_fpp_gft(t: float, p: float) -> float:
    """GFT of the single posted price p in [0, t]."""
    if not 0.0 <= p <= t:
        return 0.0
    lam = a1_lambda(t)
    return lam * lam * (
        (t + 2.0) * math.exp(-2.0 * t)
        + 2.0 * math.exp(-t)
        - (p + 2.0) * math.exp(-(p + t))
        - (t + 2.0 - p) * math.exp(p - 2.0 * t)
    )


def example_a1(t: float) -> MarketInstance:
    """Bilateral market: value density falls exponentially, cost density rises,
    both truncated to [0, t]. Trade probability shrinks like t e^{-t}."""
    if t <= 0:
        raise ValueError("t must be positive")
    return market(
        [dst.exponential_truncated(t)],
        [dst.exponential_truncated_reversed(t)],
        fea.additive([0]),
    )


# -- thin-market family ----------------------------------------------------------


def example_a2(n: int, t: float, C: float = 1.0, eps: float = 0.01) -> MarketInstance:
    """Additive market whose every item trades with probability below 1/n:
    item 0 is the bilateral exponential pair, items 1..n-1 pair a point-mass
    value C with costs {C w.p. 1/(2n), C+eps otherwise}."""
    if n < 2:
        raise ValueError("need at least two items")
    r0 = a1_r(t)
    if r0 >= 1.0 / n:
        raise ValueError(
            f"item 0 trade probability {r0:.4g} is not below 1/n = {1.0 / n:.4g}; increase t"
        )
    buyers = [dst.exponential_truncated(t)]
    sellers = [dst.exponential_truncated_reversed(t)]
    for _ in range(1, n):
        buyers.append(dst.point_mass(C))
        sellers.append(dst.discrete([C, C + eps], [1.0 / (2 * n), 1.0 - 1.0 / (2 * n)]))
    return market(buyers, sellers, fea.additive(range(n)))


def equal_mass_discretize(d: Dist, grid: int = 64) -> Dist:
    """Replace a distribution by `grid` equally likely quantile midpoints."""
    us = (np.arange(grid) + 0.5) / grid
    vals = d.ppf(us)
    uniq, inv = np.unique(np.round(vals, 12), return_inverse=True)
    probs = np.zeros(len(uniq))
    np.add.at(probs, inv, 1.0 / grid)
    return dst.discrete(uniq.tolist(), probs.tolist())


def example_a2_discretized(n: int, t: float, C: float = 1.0, eps: float = 0.01, grid: int = 64) -> MarketInstance:
    """The thin-market family with item 0 replaced by its equal-mass
    discretization, so exact enumeration applies. A grid so coarse that
    item 0 cannot trade (every buyer atom below every seller atom) is
    refused."""
    cont = example_a2(n, t, C, eps)
    buyers = [equal_mass_discretize(cont.buyer_dists[0], grid)] + list(cont.buyer_dists[1:])
    sellers = [equal_mass_discretize(cont.seller_dists[0], grid)] + list(cont.seller_dists[1:])
    if dst.trade_probability(buyers[0], sellers[0]) <= 0.0:
        raise ValueError(f"a2d with n={n}, t={t}, grid={grid}: every buyer atom of item 0 lies below every seller atom, so it cannot trade; use a finer grid")
    return market(buyers, sellers, fea.additive(range(n)))


# -- power-of-two hard instance ---------------------------------------------------


def a3_tables(m: int) -> dict:
    """Exact rational support/mass tables for the scale-m hard instance."""
    if m < 4:
        raise ValueError("m must be at least 4")
    two_m = Fraction(2) ** m
    seller_vals = [Fraction(0)] + [two_m - Fraction(2) ** k for k in range(m - 1, -1, -1)]
    seller_probs = [Fraction(1, 2**m)] + [Fraction(1, 2 ** (k + 1)) for k in range(m - 1, -1, -1)]
    assert sum(seller_probs) == 1
    L = math.ceil(m - math.log2(m))
    q = [Fraction(1)]
    if L >= 1:
        q.append(Fraction(1, m - 1))
    for k in range(2, L + 1):
        q.append(q[-1] * Fraction(m - k + 2, m - k))
    total = sum(q)
    buyer_probs_by_k = [qk / total for qk in q]  # indexed by k = 0..L
    # tail identity: cumulative buyer mass at level k equals p_{k+1} (m-k-1)
    for k in range(L):
        lhs = sum(buyer_probs_by_k[: k + 1])
        rhs = buyer_probs_by_k[k + 1] * (m - k - 1)
        if lhs != rhs:
            raise AssertionError(f"tail identity fails at k={k}: {lhs} != {rhs}")
    buyer_vals = [two_m - Fraction(2) ** k for k in range(L, -1, -1)]
    buyer_probs = [buyer_probs_by_k[k] for k in range(L, -1, -1)]
    return {
        "m": m,
        "L": L,
        "seller_values": seller_vals,
        "seller_probs": seller_probs,
        "buyer_values": buyer_vals,
        "buyer_probs": buyer_probs,
    }


def example_a3(m: int) -> MarketInstance:
    """Bilateral discrete market where every posted price leaves a log factor
    on the table; values sit at 2^m - 2^k."""
    tab = a3_tables(m)
    buyer = dst.discrete([float(v) for v in tab["buyer_values"]], [float(p) for p in tab["buyer_probs"]])
    seller = dst.discrete([float(v) for v in tab["seller_values"]], [float(p) for p in tab["seller_probs"]])
    return market([buyer], [seller], fea.additive([0]))


# -- assorted builders -------------------------------------------------------------


def matching_market(pairs: Sequence[tuple[Dist, Dist]]) -> MarketInstance:
    """Unit-demand market from explicit (value, cost) distribution pairs."""
    buyers = [p[0] for p in pairs]
    sellers = [p[1] for p in pairs]
    return market(buyers, sellers, fea.unit_demand(range(len(pairs))))


_FAMILIES = ("uniform", "lognormal-discretized", "two-atom")


def random_instance(
    n: int,
    family: str = "uniform",
    seed: int = 0,
    constraint: str = "unit_demand",
) -> MarketInstance:
    """Reproducible random instance for property sweeps. Families: continuous
    uniforms with overlapping supports, equal-mass discretized lognormals, and
    random two-atom pairs. Every item is rejected-and-redrawn until its trade
    probability is positive."""
    if family not in _FAMILIES:
        raise ValueError(f"family must be one of {_FAMILIES}")
    rng = np.random.default_rng(seed)
    buyers: list[Dist] = []
    sellers: list[Dist] = []
    for i in range(n):
        for _ in range(64):
            if family == "uniform":
                blo = rng.uniform(0.0, 1.0)
                bhi = blo + rng.uniform(0.4, 1.2)
                slo = rng.uniform(0.0, 1.0)
                shi = slo + rng.uniform(0.4, 1.2)
                db = dst.uniform(blo, bhi)
                ds = dst.uniform(slo, shi)
            elif family == "lognormal-discretized":
                db = equal_mass_discretize(dst.lognormal(rng.uniform(-0.2, 0.4), rng.uniform(0.25, 0.6)), 6)
                ds = equal_mass_discretize(dst.lognormal(rng.uniform(-0.4, 0.2), rng.uniform(0.25, 0.6)), 6)
            else:
                v = np.sort(rng.uniform(0.0, 2.0, size=2))
                c = np.sort(rng.uniform(0.0, 2.0, size=2))
                if v[1] - v[0] < 1e-3 or c[1] - c[0] < 1e-3:
                    continue
                db = dst.discrete(v.tolist(), _two_masses(rng))
                ds = dst.discrete(c.tolist(), _two_masses(rng))
            if dst.trade_probability(db, ds) > 1e-6:
                buyers.append(db)
                sellers.append(ds)
                break
        else:
            raise RuntimeError("could not draw an item with positive trade probability")
    if constraint == "unit_demand":
        con = fea.unit_demand(range(n))
    elif constraint == "additive":
        con = fea.additive(range(n))
    elif constraint == "k_uniform":
        con = fea.k_uniform(max(1, n // 2), range(n))
    else:
        raise ValueError("constraint must be unit_demand, additive, or k_uniform")
    return market(buyers, sellers, con)


def _two_masses(rng: np.random.Generator) -> list[float]:
    p = float(rng.uniform(0.2, 0.8))
    return [p, 1.0 - p]


# -- JSON ---------------------------------------------------------------------------


def instance_to_json(inst: MarketInstance) -> dict:
    return {
        "items": [
            {"buyer": dst.dist_to_json(b), "seller": dst.dist_to_json(s)}
            for b, s in zip(inst.buyer_dists, inst.seller_dists)
        ],
        "constraint": fea.constraint_to_json(inst.constraint),
    }


def instance_from_json(obj: dict) -> MarketInstance:
    if "example" in obj:
        return make_example(obj["example"], **obj.get("params", {}))
    buyers = [dst.dist_from_json(item["buyer"]) for item in obj["items"]]
    sellers = [dst.dist_from_json(item["seller"]) for item in obj["items"]]
    return market(buyers, sellers, fea.constraint_from_json(obj["constraint"]))


def make_example(name: str, **params) -> MarketInstance:
    name = name.lower()
    if name == "a1":
        return example_a1(float(params.get("t", 10.0)))
    if name == "a2":
        return example_a2(
            int(params.get("n", 4)),
            float(params.get("t", 6.0)),
            float(params.get("C", 1.0)),
            float(params.get("eps", 0.01)),
        )
    if name == "a2d":
        return example_a2_discretized(
            int(params.get("n", 4)),
            float(params.get("t", 6.0)),
            float(params.get("C", 1.0)),
            float(params.get("eps", 0.01)),
            int(params.get("grid", 64)),
        )
    if name == "a3":
        return example_a3(int(params.get("m", 8)))
    raise ValueError(f"unknown example {name!r} (expected a1, a2, a2d, a3)")
