"""Tight adaptive-quadrature references for the two integrals that
`distributions.gauss_legendre` computes: the trade probability of two
continuous distributions and the expected positive margin E[(phi(b) - s)^+]
of a continuous buyer against a continuous or discrete seller.

Each integral is a sum of scalar `scipy.integrate.quad` calls with epsabs
1e-13, one per piece between the kinks of its integrand and the integration
variable's quartiles (so the adaptive rule sees where the mass is). A
positive piece spanning more than a decade is integrated in log space,
s = e^x. The margin is computed in the nested form over the buyer's value,
so it shares no step with the one-integral form that inverts phi.
"""
import math

import numpy as np
from scipy import integrate, optimize

EPSABS = 1e-13


def _cdf(d, v):
    with np.errstate(over="ignore"):  # exp overflows far past a support; the clip makes it 1
        return float(np.clip(d.cdf_fn(v), 0.0, 1.0))


def _quad(f, lo, hi, points):
    edges = [lo, *sorted({float(p) for p in points if lo < p < hi}), hi]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if a > 0.0 and b > 10.0 * a:
            val, _ = integrate.quad(lambda x: f(math.exp(x)) * math.exp(x), math.log(a), math.log(b), epsabs=EPSABS, epsrel=1e-12, limit=2000)
        else:
            val, _ = integrate.quad(f, a, b, epsabs=EPSABS, epsrel=1e-12, limit=2000)
        total += val
    return total


def _quantiles(d):
    return [float(d.ppf(u)) for u in (0.25, 0.5, 0.75)]


def trade_probability(buyer, seller):
    """Pr[b >= s] = integral of g(s) (1 - F(s)) over the seller's support."""
    lo, hi = seller.support()
    return _quad(lambda s: seller.pdf(s) * (1.0 - _cdf(buyer, s)), lo, hi, [*buyer.support(), *_quantiles(seller)])


def _e_pos(seller, x):
    """E[(x - s)^+]: a sum over a discrete seller's atoms, else the integral
    of G from the seller's lower end up to x."""
    if seller.kind == "discrete":
        return sum(p * (x - v) for v, p in zip(seller.values, seller.probs) if v < x)
    lo, hi = seller.support()
    if x <= lo:
        return 0.0
    return _quad(lambda t: _cdf(seller, t), lo, min(x, hi), _quantiles(seller)) + max(0.0, x - hi)


def expected_positive_margin(buyer, phi, seller):
    """E[(phi(b) - s)^+] in the nested form: the integral over b of
    f(b) E[(phi(b) - s)^+]. phi is evaluated, never inverted.

    A closed-form phi is integrated over the buyer's support, with points
    where phi(b) crosses the seller's support ends (every atom of a discrete
    seller, where the inner expectation kinks). An ironed phi is a step
    function of b, stepping at each grid value less 1e-9 (as it is
    evaluated), so each step adds its buyer mass times the inner expectation
    at its level."""
    lo, hi = seller.support()
    blo, bhi = buyer.support()
    if phi.exact:
        marks = seller.values if seller.kind == "discrete" else (lo, hi)
        cross = [optimize.brentq(lambda b: phi(b) - c, blo, bhi, xtol=1e-15) for c in marks if phi(blo) < c < phi(bhi)]
        return _quad(lambda b: buyer.pdf(b) * _e_pos(seller, phi(b)), blo, bhi, [*cross, *_quantiles(buyer)])
    grid = np.asarray(phi.grid_values, dtype=float)
    levels = phi(grid)
    step = np.flatnonzero(np.diff(levels) != 0.0) + 1
    ends = [blo, *(grid[step] - 1e-9), bhi]
    cells = [phi(blo), *levels[step]]
    # all the mass lies on the support: lognormal's numerical truncation
    # leaves 1e-12 outside, which a top level of 2306 (lognormal(0, 2.5))
    # would turn into 2e-9
    cdf = [0.0, *(_cdf(buyer, e) for e in ends[1:-1]), 1.0]
    return sum((b - a) * _e_pos(seller, float(y)) for a, b, y in zip(cdf[:-1], cdf[1:], cells))
