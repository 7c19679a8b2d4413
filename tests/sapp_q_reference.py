"""Adaptive-quadrature reference for q(s) of the reduction rule: the
probability that the rule serves item i and the buyer's ironed virtual value
clears s_i - TOL, for independent buyer values.

With Z_j = phi_j(b_j) - s_j the rule serves i when Z_i is the first largest
surplus and Z_i >= -TOL, so

    q_i(s) = E[1[Z_i >= -TOL] 1[phi_i(b_i) >= s_i - TOL]
               prod_{j<i} Pr[Z_j < Z_i] prod_{j>i} Pr[Z_j <= Z_i]].

The module imports nothing from gft_lab. It reads each buyer pointwise: the
atoms, masses and ironed virtuals of a discrete one (`grid_virtuals`, the
values the rule itself computes), and the cdf and density closures, support
and ironing grid of a continuous one. A phi that takes finitely many values
is a list of levels with their masses: a discrete buyer's, one per atom, and
an ironed continuous buyer's, whose phi steps up at a grid value less 1e-9
(as it is evaluated), so a level's mass is the cdf difference between its
first step and the next. Pr[Z_j < z] and Pr[Z_j <= z] of such a buyer, and
the expectation over b_i of such an item i, are sums that compare surpluses
in the rule's own float expression phi_j(a) - s_j and add masses with a
running `+=`; a tie between two items' levels has positive mass and goes to
the lower index. A closed-form phi, b - (1 - F(b)) / f(b), is evaluated
here and never inverted: its cuts inf{b : phi(b) >= y} are found by
`brentq`, and Pr[Z_j < z] integrates the density up to the cut with `quad`,
inside the outer `quad` over b_i, whose pieces end at every cut where the
inner integrand kinks or jumps.
"""
import math

import numpy as np
from scipy import integrate, optimize

TOL = 1e-9  # the rule's tolerance
EPSABS = 1e-13


def _quad(f, lo, hi, points=()):
    """The integral of f over [lo, hi], one `quad` per piece between the
    points; a positive piece spanning more than a decade in log space."""
    edges = [lo, *sorted({float(p) for p in points if lo < p < hi}), hi]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if a > 0.0 and b > 10.0 * a:
            val, _ = integrate.quad(lambda x: f(math.exp(x)) * math.exp(x), math.log(a), math.log(b), epsabs=EPSABS, epsrel=1e-12, limit=500)
        else:
            val, _ = integrate.quad(f, a, b, epsabs=EPSABS, epsrel=1e-12, limit=500)
        total += val
    return total


class Buyer:
    """One item's buyer value distribution and its ironed virtual phi: the
    levels `virt` and masses `probs` of a discrete or ironed phi, else the
    closed form."""

    def __init__(self, d, ironed):
        self.exact = d.kind != "discrete" and bool(ironed.exact)
        if d.kind == "discrete":
            self.probs = [float(p) for p in d.probs]
            self.virt = [float(v) for v in ironed.grid_virtuals]
            return
        self.d, self.lo, self.hi = d, float(d.lo), float(d.hi)
        if self.exact:
            return
        grid = [float(v) for v in ironed.grid_values]
        levels = [float(v) for v in ironed.grid_virtuals]
        step = [k for k in range(1, len(grid)) if levels[k] != levels[k - 1]]
        cdf = [0.0, *(self.cdf(grid[k] - 1e-9) for k in step), 1.0]
        self.virt = [levels[0], *(levels[k] for k in step)]
        self.probs = [b - a for a, b in zip(cdf[:-1], cdf[1:])]

    def cdf(self, v):
        with np.errstate(over="ignore"):
            return float(np.clip(self.d.cdf_fn(v), 0.0, 1.0))

    def pdf(self, v):
        return float(self.d.pdf_fn(v))

    def phi(self, b):
        """The closed form b - (1 - F(b)) / f(b), b clamped to the support."""
        b = min(max(b, self.lo), self.hi)
        return b - (1.0 - self.cdf(b)) / self.pdf(b)

    def marks(self):
        """The virtuals where Pr[phi(b) < y] jumps or kinks in y."""
        return [self.phi(self.lo), self.phi(self.hi)] if self.exact else self.virt

    def cut(self, y):
        """inf{b in the support : phi(b) >= y} of a closed-form phi, None
        when phi stays below y."""
        if self.phi(self.lo) >= y:
            return self.lo
        if self.phi(self.hi) < y:
            return None
        return optimize.brentq(lambda b: self.phi(b) - y, self.lo, self.hi, xtol=1e-15, rtol=1e-15)

    def beaten(self, z, s, strict):
        """Pr[phi(b) - s < z] (strict) or Pr[phi(b) - s <= z]."""
        if self.exact:
            c = self.cut(z + s)
            return 1.0 if c is None else _quad(self.pdf, self.lo, c)
        total = 0.0
        for v, p in zip(self.virt, self.probs):
            if (v - s < z) if strict else (v - s <= z):
                total += p
        return total


def q(inst, s):
    """q(s) of the reduction rule on inst's buyers at the seller profile s."""
    buyers = [Buyer(d, iv) for d, iv in zip(inst.buyer_dists, inst.buyer_ironed)]
    s = [float(v) for v in s]
    out = []
    for i, bi in enumerate(buyers):

        def given(v):  # the integrand at phi_i(b_i) = v, over the others' values
            z = v - s[i]
            if not (z >= -TOL and v >= s[i] - TOL):
                return 0.0
            prod = 1.0
            for j, bj in enumerate(buyers):
                if j != i:
                    prod *= bj.beaten(z, s[j], j < i)
            return prod

        if not bi.exact:
            total = 0.0
            for v, p in zip(bi.virt, bi.probs):
                total += p * given(v)
        else:
            start = bi.cut(s[i] - TOL)
            shifted = [m - s[j] + s[i] for j, bj in enumerate(buyers) if j != i for m in bj.marks()]
            cuts = [bi.cut(y) for y in shifted]
            total = 0.0 if start is None else _quad(lambda b: bi.pdf(b) * given(bi.phi(b)), start, bi.hi, [c for c in cuts if c is not None])
        out.append(total)
    return out
