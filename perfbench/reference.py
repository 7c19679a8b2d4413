"""Reference values computed without gft_lab's evaluation code.

The output checks compare the program against these: brute-force first best
on discrete grids, closed forms and one- or two-dimensional quadrature for
continuous uniform and truncated-exponential markets, and exact OCRS
selectability by enumerating the active sets. Only instance data (atoms,
masses, uniform bounds, constraint variant) is read from the program's
objects.
"""

from __future__ import annotations

import math
from itertools import combinations, product

import numpy as np
from scipy import integrate

# -- discrete grids ------------------------------------------------------------


def _best_total(variant: str, k: int, gains: list[float]) -> float:
    pos = sorted((g for g in gains if g > 0.0), reverse=True)
    if variant == "additive":
        return sum(pos)
    if variant == "unit_demand":
        return pos[0] if pos else 0.0
    if variant == "k_uniform":
        return sum(pos[:k])
    raise ValueError(f"no brute-force first best for {variant}")


def first_best(inst) -> float:
    """E[max over feasible sets of the positive gains], by enumerating every
    buyer and seller profile."""
    c = inst.constraint
    buyers = [list(zip(d.values, d.probs)) for d in inst.buyer_dists]
    sellers = [list(zip(d.values, d.probs)) for d in inst.seller_dists]
    terms = []
    for bprof in product(*buyers):
        pb = math.prod(p for _, p in bprof)
        for sprof in product(*sellers):
            w = pb * math.prod(p for _, p in sprof)
            gains = [b - s for (b, _), (s, _) in zip(bprof, sprof)]
            terms.append(w * _best_total(c.variant, c.k, gains))
    return math.fsum(terms)


def discrete_median(d) -> float:
    """Smallest atom whose cumulative mass reaches 1/2."""
    cum = 0.0
    for v, p in zip(d.values, d.probs):
        cum += p
        if cum >= 0.5 - 1e-12:
            return v
    return d.values[-1]


# -- uniform markets -------------------------------------------------------------


def uniform_bounds(d) -> tuple[float, float]:
    params = dict(d.params)
    return params["lo"], params["hi"]


def _ramp_integral(y: float, width: float) -> float:
    """Integral over (-inf, y] of clip(u, 0, width) du."""
    if y <= 0.0:
        return 0.0
    if y <= width:
        return 0.5 * y * y
    return 0.5 * width * width + width * (y - width)


def _diff_cdf(x: float, b: tuple[float, float], s: tuple[float, float]) -> float:
    """Pr[b - s <= x] for independent uniforms b and s."""
    (bl, bh), (sl, sh) = b, s
    wb, ws = bh - bl, sh - sl
    # b <= x + s; integrate clip(x + s - bl, 0, wb) over s
    return (_ramp_integral(x + sh - bl, wb) - _ramp_integral(x + sl - bl, wb)) / (wb * ws)


def _quad(f, lo: float, hi: float, kinks) -> float:
    """Integral of a piecewise-smooth f over [lo, hi], split at its kinks."""
    points = sorted(k for k in kinks if lo < k < hi)
    val, _ = integrate.quad(f, lo, hi, points=points or None, limit=200, epsabs=1e-11)
    return val


def _cdf(v: float, lo: float, hi: float) -> float:
    return min(1.0, max(0.0, (v - lo) / (hi - lo)))


def first_best_unit_demand(inst) -> float:
    """E[max_i (b_i - s_i)^+] for independent uniform items."""
    B = [uniform_bounds(d) for d in inst.buyer_dists]
    S = [uniform_bounds(d) for d in inst.seller_dists]
    top = max(bh - sl for (_, bh), (sl, _) in zip(B, S))
    if top <= 0.0:
        return 0.0

    def tail(x: float) -> float:
        return 1.0 - math.prod(_diff_cdf(x, b, s) for b, s in zip(B, S))

    kinks = [b - s for bb, ss in zip(B, S) for b in bb for s in ss]
    return _quad(tail, 0.0, top, kinks)


def prophet_emax(inst, p) -> float:
    """E[max_i v_i] with v_i = (p_i - s_i)^+ 1[b_i >= p_i]."""
    B = [uniform_bounds(d) for d in inst.buyer_dists]
    S = [uniform_bounds(d) for d in inst.seller_dists]
    pb = [1.0 - _cdf(pi, *b) for pi, b in zip(p, B)]
    top = max(pi - sl for pi, (sl, _) in zip(p, S))
    if top <= 0.0:
        return 0.0

    def tail(x: float) -> float:
        return 1.0 - math.prod(1.0 - pbi * _cdf(pi - x, *s) for pbi, pi, s in zip(pb, p, S))

    kinks = [pi - s for pi, ss in zip(p, S) for s in ss]
    return _quad(tail, 0.0, top, kinks)


def fpp_unit_demand(inst, theta_b, theta_s) -> float:
    """GFT of fixed posted prices for a unit-demand buyer: each item is active
    when its seller accepts and the buyer can pay; the buyer takes the active
    item with the largest surplus b_i - theta_b_i."""
    B = [uniform_bounds(d) for d in inst.buyer_dists]
    S = [uniform_bounds(d) for d in inst.seller_dists]
    n = len(B)
    accept = [_cdf(ts, *s) for ts, s in zip(theta_s, S)]
    total = 0.0
    for i in range(n):
        if accept[i] <= 0.0:
            continue
        bl, bh = B[i]
        lo = max(theta_b[i], bl)
        if lo >= bh:
            continue
        sl, sh = S[i]
        mean_s = 0.5 * (sl + min(theta_s[i], sh))

        def integrand(b: float) -> float:
            u = b - theta_b[i]
            beat = 1.0
            for j in range(n):
                if j != i:
                    beat *= 1.0 - accept[j] * (1.0 - _cdf(theta_b[j] + u, *B[j]))
            return (b - mean_s) * beat / (bh - bl)

        kinks = [theta_b[i] - theta_b[j] + edge for j in range(n) if j != i for edge in B[j]]
        total += accept[i] * _quad(integrand, lo, bh, kinks)
    return total


def buyer_offering_unit_demand(inst) -> float:
    """GFT of buyer-offering for a unit-demand buyer and uniform costs: the
    ironed virtual cost of U[lo, hi] is 2s - lo, and the buyer takes the item
    with the largest positive b_i - (2 s_i - lo_i)."""
    B = [uniform_bounds(d) for d in inst.buyer_dists]
    S = [uniform_bounds(d) for d in inst.seller_dists]
    n = len(B)
    total = 0.0
    for i in range(n):
        (bl, bh), (sl, sh) = B[i], S[i]

        def integrand(b: float, s: float) -> float:
            w = b - (2.0 * s - sl)
            beat = 1.0
            for j in range(n):
                if j != i:
                    beat *= _w_cdf(w, B[j], S[j])
            return (b - s) * beat / ((bh - bl) * (sh - sl))

        val, _ = integrate.dblquad(
            integrand, sl, sh, lambda s: min(bh, max(bl, 2.0 * s - sl)), lambda s: bh, epsabs=1e-10
        )
        total += val
    return total


def _w_cdf(w: float, b: tuple[float, float], s: tuple[float, float]) -> float:
    """Pr[b - 2 s + s_lo <= w] for independent uniforms b and s."""
    (bl, bh), (sl, sh) = b, s
    wb, ws = bh - bl, sh - sl
    # b <= w + 2s - sl; integrate clip(w + 2s - sl - bl, 0, wb) over s, y = 2s
    hi = w + 2.0 * sh - sl - bl
    lo = w + 2.0 * sl - sl - bl
    return (_ramp_integral(hi, wb) - _ramp_integral(lo, wb)) / (2.0 * wb * ws)


# -- truncated-exponential bilateral pair ----------------------------------------


def a1_buyer_offering(t: float) -> float:
    """GFT of buyer-offering on the bilateral truncated-exponential pair: the
    virtual cost is s + 1 - e^{-s} and the buyer trades when b exceeds it."""
    lam = 1.0 / (1.0 - math.exp(-t))

    def inner(s: float) -> float:
        a = s + 1.0 - math.exp(-s)
        if a >= t:
            return 0.0
        return lam * ((a - s + 1.0) * math.exp(-a) - (t - s + 1.0) * math.exp(-t))

    val, _ = integrate.quad(lambda s: lam * math.exp(s - t) * inner(s), 0.0, t, limit=200, epsabs=1e-12)
    return val


# -- OCRS selectability ------------------------------------------------------------


def _admits(feasible, others: tuple[int, ...], i: int) -> bool:
    if not feasible((i,)):
        return False
    for r in range(1, len(others) + 1):
        for S in combinations(others, r):
            if feasible(S) and not feasible(S + (i,)):
                return False
    return True


def _unit_demand(S) -> bool:
    return len(S) <= 1


def _knapsack_branches(sizes, q):
    """(probability, feasibility predicate) of the two-class knapsack scheme's
    subconstraints: big items as a unit-demand family with probability rho,
    small items under the capacity otherwise. rho equalizes the classes'
    selectability lower bounds, as the scheme specifies."""
    n = len(sizes)
    big = [i for i in range(n) if sizes[i] > 0.5]
    small = [i for i in range(n) if sizes[i] <= 0.5]
    lb = 1.0
    for i in big:
        lb = min(lb, math.prod(1.0 - q[j] for j in big if j != i) if len(big) > 1 else 1.0)
    ls = 1.0
    for i in small:
        load = sum(sizes[j] * q[j] for j in small if j != i)
        ls = min(ls, 1.0 if load == 0.0 else max(0.0, 1.0 - load / (1.0 - sizes[i])))
    if not big:
        rho = 0.0
    elif not small:
        rho = 1.0
    else:
        rho = 0.5 if lb + ls <= 0.0 else ls / (lb + ls)

    def big_only(S) -> bool:
        return len(S) == 0 or (len(S) == 1 and S[0] in big)

    def small_only(S) -> bool:
        return all(j in small for j in S) and sum(sizes[j] for j in S) <= 1.0 + 1e-12

    return [(rho, big_only), (1.0 - rho, small_only)]


def selectability(branches, q, i: int) -> float:
    """Exact Pr[i admissible] for a scheme committing to subconstraint
    `feasible` with probability `prob`, over every active set of the others."""
    others = [j for j in range(len(q)) if j != i]
    total = 0.0
    for pattern in product((False, True), repeat=len(others)):
        pr = math.prod(q[j] if on else 1.0 - q[j] for j, on in zip(others, pattern))
        active = tuple(j for j, on in zip(others, pattern) if on)
        for prob, feasible in branches:
            if prob > 0.0 and _admits(feasible, active, i):
                total += pr * prob
    return total


def unit_demand_branches():
    return [(1.0, _unit_demand)]


def knapsack_branches(sizes, q):
    return _knapsack_branches(list(sizes), list(q))


def composed_branches(sizes, q):
    """Unit-demand scheme intersected with the knapsack scheme."""
    return [
        (prob, lambda S, f=feasible: _unit_demand(S) and f(S))
        for prob, feasible in _knapsack_branches(list(sizes), list(q))
    ]


def hull_point(feasible, n: int, rng: np.random.Generator) -> np.ndarray:
    """A random point of the convex hull of the feasible sets' indicators."""
    sets = [S for r in range(n + 1) for S in combinations(range(n), r) if feasible(S)]
    lam = rng.dirichlet(np.ones(len(sets)))
    x = np.zeros(n)
    for weight, S in zip(lam, sets):
        x[list(S)] += weight
    return x
