"""Value and cost distributions: quantiles, virtual values, ironing, ladders.

A ``Dist`` is either a finite atom list or a continuous distribution given by
closed-form (cdf, density, quantile) closures on a bounded support. All the
quantile conventions used by the mechanisms live here so they are fixed in one
place:

* ``quantile(d, q)``    = inf{v : cdf(v) >= q}        (generalized inverse)
* ``upper_quantile``    = largest v with Pr[X >= v] >= q

Buyer-side constructions (price ladders, the x_i of the trade-probability
pair check) use the upper quantile; seller-side ones use the lower quantile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf, erfinv

ATOL = 1e-12

__all__ = [
    "Dist",
    "IronedVirtual",
    "discrete",
    "point_mass",
    "uniform",
    "exponential_truncated",
    "exponential_truncated_reversed",
    "lognormal",
    "builtin",
    "dist_to_json",
    "dist_from_json",
    "quantile",
    "upper_quantile",
    "trade_probability",
    "gauss_legendre",
    "expected_excess",
    "partial_mean",
    "buyer_virtual",
    "seller_virtual",
    "iron",
    "quantile_ladder",
    "quantile_pair_check",
]


@dataclass(frozen=True)
class Dist:
    """A buyer value or seller cost distribution.

    kind == "discrete": ``values``/``probs`` hold the atoms (strictly
    increasing values, masses summing to 1 within 1e-12).

    kind == "continuous": ``cdf_fn``, ``pdf_fn``, ``quantile_fn`` are numpy
    closures with support [lo, hi], each acting elementwise on an array.
    Point masses inside continuous inputs are not representable; model them
    as discrete atoms.

    Every query (``cdf``, ``below``, ``tail``, ``pdf``, ``ppf``) is
    elementwise: a float in gives a float out, an array gives an array of its
    shape. They fix the probability convention in one place: a continuous cdf
    is clamped to [0, 1]; an atom within ATOL of v counts as at v, and atom
    masses add in index order. No other module reads the closures.
    """

    kind: str
    values: tuple[float, ...] = ()
    probs: tuple[float, ...] = ()
    cdf_fn: Callable[[np.ndarray], np.ndarray] | None = None
    pdf_fn: Callable[[np.ndarray], np.ndarray] | None = None
    quantile_fn: Callable[[np.ndarray], np.ndarray] | None = None
    lo: float = 0.0
    hi: float = 0.0
    name: str = ""
    params: tuple[tuple[str, float], ...] = field(default=(), compare=False)

    # -- elementwise probability queries ----------------------------------

    def cdf(self, v):
        """Pr[X <= v]."""
        return self._prob(v, lambda a, x: a <= x + ATOL)

    def below(self, v):
        """Pr[X < v]."""
        return self._prob(v, lambda a, x: a < x - ATOL)

    def tail(self, v):
        """Pr[X >= v]."""
        return self._prob(v, lambda a, x: a >= x - ATOL, upper=True)

    def _prob(self, v, counts, upper: bool = False):
        """The mass of the atoms a with counts(a, v), summed in index order;
        for a continuous Dist the cdf at v clamped to [0, 1], or 1 less it if
        upper."""
        if self.kind == "discrete":
            x = np.asarray(v, dtype=float)[..., None]
            out = _ordered_sum(np.where(counts(np.asarray(self.values), x), self.probs, 0.0), axis=-1)
        else:
            c = np.asarray(self.cdf_fn(v), dtype=float)
            c = np.where(c > 0.0, c, 0.0)
            c = np.where(c < 1.0, c, 1.0)
            out = 1.0 - c if upper else c
        return _scalar_or_array(out)

    def pdf(self, v):
        """The density of a continuous Dist."""
        if self.kind == "discrete":
            raise ValueError("density undefined for discrete Dist")
        return _scalar_or_array(self.pdf_fn(v))

    def ppf(self, u):
        """The generalized-inverse cdf at levels u, clipped to [0, 1]; a
        continuous one is clamped to the support [lo, hi]. A NaN level gives
        NaN."""
        u = np.asarray(u, dtype=float)
        if self.kind == "discrete":
            cum = np.cumsum(self.probs)
            idx = np.minimum(np.searchsorted(cum, u - ATOL, side="left"), len(self.values) - 1)
            out = np.where(np.isnan(u), np.nan, np.asarray(self.values)[idx])
        else:
            out = np.clip(self.quantile_fn(np.clip(u, 0.0, 1.0)), self.lo, self.hi)
            if self.lo == 0.0 or self.hi == 0.0:
                out += 0.0  # a -0.0 at a support end reads as the end, +0.0
        return _scalar_or_array(out)

    def support(self) -> tuple[float, float]:
        if self.kind == "discrete":
            return self.values[0], self.values[-1]
        return self.lo, self.hi

    def mean(self) -> float:
        if self.kind == "discrete":
            return float(np.dot(self.values, self.probs))
        return partial_mean(self, self.hi)

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Inverse-transform sampling, so equal seeds couple across calls."""
        u = rng.random(size)
        return self.ppf(u)


def _scalar_or_array(out):
    return out if isinstance(out, np.ndarray) and out.ndim else float(out)


def _ordered_sum(a: np.ndarray, axis: int) -> np.ndarray:
    """Sum along `axis` in index order, bit for bit a running `total += t`
    from 0.0 (np.sum adds pairwise, in a different order)."""
    return np.cumsum(a, axis=axis).take(-1, axis=axis) + 0.0


# Item-axis kernels for batches of sampled rows, items on the last axis. numpy
# reduces a short last axis one row at a time; these loop over the n columns
# with whole-column operations instead and give the same bits. NaN never
# reaches them (where it would, argmax would differ).


def item_sum(W: np.ndarray) -> np.ndarray:
    """`_ordered_sum(W, axis=-1)`, bit for bit."""
    t = W[..., 0]
    for j in range(1, W.shape[-1]):
        t = t + W[..., j]
    return t + 0.0


def item_max(W: np.ndarray) -> np.ndarray:
    """`W.max(axis=-1)`; for one item, the column itself."""
    t = W[..., 0]
    for j in range(1, W.shape[-1]):
        t = np.maximum(t, W[..., j])
    return t


def item_argmax(W: np.ndarray) -> np.ndarray:
    """`np.argmax(W, axis=-1)`, the lowest index on ties: the number of
    leading columns below the row's max."""
    top = item_max(W)
    below = W[..., 0] != top
    idx = below.astype(np.intp)
    for j in range(1, W.shape[-1] - 1):
        below &= W[..., j] != top
        idx += below
    return idx


# -- constructors --------------------------------------------------------


def discrete(values: Sequence[float], probs: Sequence[float]) -> Dist:
    vals = [float(v) for v in values]
    ps = [float(p) for p in probs]
    if len(vals) != len(ps) or not vals:
        raise ValueError("values and probs must be equal-length and nonempty")
    order = np.argsort(vals)
    vals = [vals[i] for i in order]
    ps = [ps[i] for i in order]
    if any(vals[i] >= vals[i + 1] for i in range(len(vals) - 1)):
        raise ValueError("atom values must be strictly increasing")
    if any(p <= 0 for p in ps):
        raise ValueError("atom masses must be positive")
    total = sum(ps)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"atom masses sum to {total}, expected 1")
    ps = [p / total for p in ps]
    return Dist(kind="discrete", values=tuple(vals), probs=tuple(ps))


def point_mass(v: float) -> Dist:
    return Dist(kind="discrete", values=(float(v),), probs=(1.0,))


def uniform(lo: float, hi: float) -> Dist:
    if not hi > lo:
        raise ValueError("need hi > lo")
    w = hi - lo
    return Dist(
        kind="continuous",
        cdf_fn=lambda v: (v - lo) / w,
        pdf_fn=lambda v: ((v >= lo) & (v <= hi)) / w,
        quantile_fn=lambda q: lo + q * w,
        lo=lo,
        hi=hi,
        name="uniform",
        params=(("lo", lo), ("hi", hi)),
    )


def exponential_truncated(t: float) -> Dist:
    """Exponential truncated to [0, t], rescaled: cdf(v) = lam*(1 - e^{-v})."""
    if t <= 0:
        raise ValueError("t must be positive")
    lam = 1.0 / (1.0 - math.exp(-t))
    return Dist(
        kind="continuous",
        cdf_fn=lambda v: lam * (1.0 - np.exp(-v)),
        pdf_fn=lambda v: lam * np.exp(-np.clip(v, 0.0, t)) * ((v >= 0) & (v <= t)),
        quantile_fn=lambda q: -np.log(np.maximum(1.0 - q / lam, 1e-300)),
        lo=0.0,
        hi=t,
        name="exponential_truncated",
        params=(("t", t),),
    )


def exponential_truncated_reversed(t: float) -> Dist:
    """Mirror image of exponential_truncated about t/2: cdf(v) = lam*(e^{v-t} - e^{-t})."""
    if t <= 0:
        raise ValueError("t must be positive")
    lam = 1.0 / (1.0 - math.exp(-t))
    emt = math.exp(-t)
    return Dist(
        kind="continuous",
        cdf_fn=lambda v: lam * (np.exp(v - t) - emt),
        pdf_fn=lambda v: lam * np.exp(np.clip(v, 0.0, t) - t) * ((v >= 0) & (v <= t)),
        quantile_fn=lambda q: t + np.log(q / lam + emt),
        lo=0.0,
        hi=t,
        name="exponential_truncated_reversed",
        params=(("t", t),),
    )


_SQRT2 = math.sqrt(2.0)
_TINY = 1e-300  # stands in for v <= 0 inside log(); the cdf and density there are masked to 0


def lognormal(mu: float, sigma: float) -> Dist:
    """Lognormal truncated (numerically) to its central 1-1e-12 quantile range."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")

    def cdf_fn(v):
        z = (np.log(np.maximum(v, _TINY)) - mu) / (sigma * _SQRT2)
        return 0.5 * (1.0 + erf(z)) * (v > 0)

    def pdf_fn(v):
        x = np.maximum(v, _TINY)
        z = (np.log(x) - mu) / sigma
        return np.exp(-0.5 * z * z) / (x * sigma * math.sqrt(2 * math.pi)) * (v > 0)

    def quantile_fn(q):
        q = np.minimum(np.maximum(q, 1e-16), 1.0 - 1e-16)
        return np.exp(mu + sigma * _SQRT2 * erfinv(2.0 * q - 1.0))

    return Dist(
        kind="continuous",
        cdf_fn=cdf_fn,
        pdf_fn=pdf_fn,
        quantile_fn=quantile_fn,
        lo=float(quantile_fn(1e-12)),
        hi=float(quantile_fn(1.0 - 1e-12)),
        name="lognormal",
        params=(("mu", mu), ("sigma", sigma)),
    )


_BUILTINS: dict[str, Callable[..., Dist]] = {
    "uniform": uniform,
    "exponential_truncated": exponential_truncated,
    "exponential_truncated_reversed": exponential_truncated_reversed,
    "lognormal": lognormal,
}


def builtin(name: str, **params: float) -> Dist:
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin distribution {name!r}")
    return _BUILTINS[name](**params)


def dist_to_json(d: Dist) -> dict:
    if d.kind == "discrete":
        return {"kind": "discrete", "atoms": [[v, p] for v, p in zip(d.values, d.probs)]}
    if d.name in _BUILTINS:
        return {"kind": "builtin", "name": d.name, "params": dict(d.params)}
    raise ValueError("continuous Dist built from raw closures is not serializable")


def dist_from_json(obj: dict) -> Dist:
    if obj["kind"] == "discrete":
        vals = [a[0] for a in obj["atoms"]]
        ps = [a[1] for a in obj["atoms"]]
        return discrete(vals, ps)
    if obj["kind"] == "builtin":
        return builtin(obj["name"], **obj["params"])
    raise ValueError(f"unknown Dist kind {obj.get('kind')!r}")


# -- quantiles ------------------------------------------------------------


def quantile(d: Dist, q: float) -> float:
    """Generalized inverse cdf: inf{v : cdf(v) >= q}."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile level {q} outside [0,1]")
    return d.ppf(q)


def upper_quantile(d: Dist, q: float) -> float:
    """Largest v in the support with Pr[X >= v] >= q."""
    if not 0.0 < q <= 1.0:
        raise ValueError(f"upper quantile level {q} outside (0,1]")
    if d.kind == "discrete":
        tails = 1.0 - np.concatenate(([0.0], np.cumsum(d.probs)[:-1]))
        ok = np.nonzero(tails >= q - ATOL)[0]
        return d.values[int(ok[-1])]
    return d.ppf(1.0 - q)


# -- trade probability -----------------------------------------------------

GL_NODES = 16  # Gauss-Legendre nodes per panel
PANELS_PER_DECADE = 2  # geometric panels per decade on segments spanning more than one
SEGMENT_PANELS = 2  # equal panels on a segment spanning at most a decade


@cache
def _gl_rule() -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(GL_NODES)


def _panel_edges(edges) -> np.ndarray:
    """The panel boundaries `gauss_legendre` integrates over: every edge,
    with SEGMENT_PANELS equal panels between two, or geometric ones,
    PANELS_PER_DECADE a decade, when both are positive and more than a
    decade apart."""
    e = np.unique(np.asarray(edges, dtype=float))
    cuts = [e[:1]]
    for a, b in zip(e[:-1], e[1:]):
        if a > 0.0 and b > 10.0 * a:
            cuts.append(np.geomspace(a, b, math.ceil(PANELS_PER_DECADE * math.log10(b / a)) + 1)[1:])
        else:
            cuts.append(np.linspace(a, b, SEGMENT_PANELS + 1)[1:])
    return np.concatenate(cuts)


def _gl_nodes(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The GL_NODES nodes and weights of the panels [a, b], elementwise over
    arrays a and b, on a new last axis."""
    x, w = _gl_rule()
    half = 0.5 * (b - a)[..., None]
    return 0.5 * (a + b)[..., None] + half * x, half * w


def gauss_legendre(f: Callable[[np.ndarray], np.ndarray], edges) -> float:
    """The integral of f from min(edges) to max(edges) by composite
    Gauss-Legendre, GL_NODES nodes a panel.

    Every edge is a panel boundary, so put one at each kink or jump of f.
    Two edges bound SEGMENT_PANELS equal panels, unless both are positive
    and more than a decade apart: then the panels are geometric,
    PANELS_PER_DECADE a decade, so features on a log scale (lognormal
    densities, tails near zero) are resolved. `f` is called once, on the
    (panels, GL_NODES) array of all nodes; overflow to inf there (a cdf
    closure far past its support, clamped by the caller) is not warned.
    """
    p = _panel_edges(edges)
    nodes, weights = _gl_nodes(p[:-1], p[1:])
    with np.errstate(over="ignore"):
        y = f(nodes)
    return float(np.sum(y * weights))


def expected_excess(d: Dist, x, side: str):
    """E[(X - x)^+] (side "above") or E[(x - X)^+] (side "below") for X ~ d,
    elementwise over x.

    Discrete d: each atom's mass times its excess, added in index order.
    Continuous d: the integral of `tail` from x up to hi ("above") or of
    `cdf` from lo up to x ("below"), plus the part of x beyond the support.
    The panels are `gauss_legendre`'s with edges at the support ends and
    `scale_points`, so fixed by d alone: the whole panels on the far side of
    x are summed in order and one GL_NODES panel covers the rest up to x. An
    entry never depends on the others, so an array call equals float calls
    bit for bit.
    """
    if side not in ("above", "below"):
        raise ValueError("side must be 'above' or 'below'")
    x = np.asarray(x, dtype=float)
    if d.kind == "discrete":
        v = np.asarray(d.values)
        gap = v - x[..., None] if side == "above" else x[..., None] - v
        return _scalar_or_array(_ordered_sum(np.where(gap <= 0.0, 0.0, gap * d.probs), axis=-1))  # NaN x gives NaN
    lo, hi = d.support()
    p = _panel_edges(_inside(scale_points(d), lo, hi))
    f = d.tail if side == "above" else d.cdf
    nodes, weights = _gl_nodes(p[:-1], p[1:])
    whole = _ordered_sum(f(nodes) * weights, axis=-1)
    xc = np.clip(x, lo, hi)
    if side == "below":  # panels [p[0], p[k]] whole, then [p[k], x]
        k = np.clip(np.searchsorted(p, xc, side="right") - 1, 0, len(whole) - 1)
        done = np.concatenate(([0.0], np.cumsum(whole)))[k]
        nodes, weights = _gl_nodes(p[k], xc)
        beyond = np.maximum(x - hi, 0.0)
    else:  # [x, p[k]], then panels [p[k], p[-1]] whole
        k = np.clip(np.searchsorted(p, xc, side="left"), 1, len(whole))
        done = np.concatenate((np.cumsum(whole[::-1])[::-1], [0.0]))[k]
        nodes, weights = _gl_nodes(xc, p[k])
        beyond = np.maximum(lo - x, 0.0)
    return _scalar_or_array(done + _ordered_sum(f(nodes) * weights, axis=-1) + beyond)


def _inside(points, lo: float, hi: float) -> list[float]:
    """lo, hi and the points strictly between them: the edges of an integral
    over [lo, hi] whose integrand kinks at `points`."""
    return [lo, hi] + [float(v) for v in points if lo < v < hi]


SCALE_LEVELS = (1e-9, 1e-6, 1e-3, 0.05, 0.25, 0.5, 0.75, 0.95, 1 - 1e-3, 1 - 1e-6, 1 - 1e-9)


def scale_points(d: Dist) -> np.ndarray:
    """The quantiles of continuous d at SCALE_LEVELS: panel edges that follow
    its mass from the body out to tails of 1e-9, wherever on a wide support
    (an exponential truncated at 100 holds all but e^-20 below 20)."""
    return d.ppf(np.asarray(SCALE_LEVELS))


def partial_mean(d: Dist, x: float) -> float:
    """The integral of v f(v) dv over [lo, x] for continuous d, by
    `gauss_legendre` with edges at its `scale_points` and at hi (where a
    truncated density drops to 0). At x = hi it is the mean; at quantile(d, w)
    it is the integral of the quantile function over [0, w]."""
    if x <= d.lo:
        return 0.0
    return gauss_legendre(lambda v: v * d.pdf(v), _inside([*scale_points(d), d.hi], d.lo, x))


def trade_probability(buyer: Dist, seller: Dist) -> float:
    """Pr[b >= s] for independent b ~ buyer, s ~ seller.

    A discrete side is a sum over its atoms: Pr[b >= s] at each seller atom,
    or Pr[s <= b] at each buyer atom. When both are continuous, the integral
    of g(s) Pr[b >= s] over the seller's support by `gauss_legendre`, with
    edges at the buyer's support ends (where F kinks) and both sides'
    `scale_points`.
    """
    if seller.kind == "discrete":
        return float(np.dot(seller.probs, buyer.tail(np.asarray(seller.values))))
    if buyer.kind == "discrete":
        return float(np.dot(buyer.probs, seller.cdf(np.asarray(buyer.values))))
    val = gauss_legendre(
        lambda s: seller.pdf(s) * buyer.tail(s),
        _inside([*buyer.support(), *scale_points(buyer), *scale_points(seller)], *seller.support()),
    )
    return float(min(1.0, max(0.0, val)))


# -- virtual values ---------------------------------------------------------


def _atom_virtuals(d: Dist, side: str) -> np.ndarray:
    """The raw virtuals at every atom of a discrete d (the conventions of
    buyer_virtual / seller_virtual)."""
    v, p = np.asarray(d.values), np.asarray(d.probs)
    out = v.copy()
    if side == "buyer":  # Pr[X > v_k], summed down from the top atom
        out[:-1] -= np.diff(v) * np.cumsum(p[::-1])[::-1][1:] / p[:-1]
    else:  # Pr[X < v_k]
        out[1:] += np.diff(v) * np.cumsum(p)[:-1] / p[1:]
    return out


def _virtual(d: Dist, v, side: str):
    """buyer_virtual / seller_virtual, elementwise over v."""
    if d.kind == "discrete":
        x = np.asarray(v, dtype=float)
        hit = np.abs(np.asarray(d.values) - x[..., None]) <= 1e-9 * np.maximum(1.0, np.abs(x))[..., None]
        found = hit.any(axis=-1)
        if not found.all():
            raise ValueError(f"{x[~found][0]} is not a support point")
        return _scalar_or_array(_atom_virtuals(d, side)[hit.argmax(axis=-1)])
    f = d.pdf(v)
    bad = np.asarray(f) <= 0
    if bad.any():
        at = np.asarray(v, dtype=float)[bad][0]
        raise ValueError(f"zero density at {at}; virtual {'value' if side == 'buyer' else 'cost'} undefined")
    return _scalar_or_array(v - d.tail(v) / f if side == "buyer" else v + d.cdf(v) / f)


def buyer_virtual(d: Dist, b):
    """Myerson buyer virtual value phi(b) = b - (1-F(b))/f(b), elementwise.

    Discrete convention: phi(v_k) = v_k - (v_{k+1}-v_k) * Pr[X > v_k] / f(v_k),
    with phi = value at the top atom; b must be atoms (to 1e-9 relative).
    """
    return _virtual(d, b, "buyer")


def seller_virtual(d: Dist, s):
    """Myerson seller virtual cost tau(s) = s + G(s)/g(s), elementwise.

    Discrete convention: tau(v_k) = v_k + (v_k - v_{k-1}) * Pr[X < v_k] / g(v_k),
    with tau = value at the bottom atom; s must be atoms (to 1e-9 relative).
    """
    return _virtual(d, s, "seller")


# -- ironing ----------------------------------------------------------------

IRON_GRID = 512  # discretization for continuous dists whose raw virtual is non-monotone
SECANT_STEPS = 5  # most refinements of the interpolated closed-form inverse


@dataclass(frozen=True)
class IronedVirtual:
    """phi-tilde / tau-tilde as a nondecreasing function of the agent's value.

    ``grid_values`` are support points (all atoms for discrete inputs, a
    quantile grid for ironed continuous ones) and ``grid_virtuals`` the ironed
    virtual value on each. ``exact`` marks the case where ironing was the
    identity and the closed-form unironed function is used directly.
    """

    side: str
    dist: Dist
    grid_values: tuple[float, ...]
    grid_virtuals: tuple[float, ...]
    exact: bool

    def __call__(self, v):
        """The ironed virtual at v: a float for a scalar, an array for an array."""
        if self.exact and self.dist.kind == "continuous":
            fn = buyer_virtual if self.side == "buyer" else seller_virtual
            lo, hi = self.dist.support()
            return fn(self.dist, np.clip(v, lo, hi))
        if self.side == "buyer":
            # value of the largest grid point <= v (grid covers the support)
            out = self._lookup[np.searchsorted(self._grid, v + 1e-9, side="right")]
        else:
            out = self._lookup[np.searchsorted(self._grid, v - 1e-9, side="left")]
        return _scalar_or_array(out)

    @cached_property
    def _grid(self) -> np.ndarray:
        return np.asarray(self.grid_values, dtype=float)

    @cached_property
    def _lookup(self) -> np.ndarray:
        """grid_virtuals indexed by the searchsorted position: padded with the
        first entry (buyer, position 0 is below the grid) or the last (seller,
        position len is above it), so no index needs clamping."""
        g = np.asarray(self.grid_virtuals, dtype=float)
        return np.concatenate((g[:1], g)) if self.side == "buyer" else np.concatenate((g, g[-1:]))

    def at_atoms(self) -> np.ndarray:
        return np.asarray(self.grid_virtuals)

    def inverse(self, y) -> np.ndarray:
        """inf{v in the support : phi-tilde(v) >= y} elementwise over an
        array y; +inf where no support point reaches y.

        Atoms and ironed grids: one searchsorted (a grid step sits 1e-9 off
        its grid point, as in __call__). Closed form: interpolation on the
        stored grid and SECANT_STEPS secant steps, which lands within a few
        ulps of the cut but not always on it; callers needing the exact cut
        refine it with mechanisms._threshold_search.
        """
        y = np.asarray(y, dtype=float)
        lo, hi = self.dist.support()
        if self.exact and self.dist.kind == "continuous":
            shape, y = y.shape, y.ravel()
            phis, vals = self._knots
            k = np.clip(np.searchsorted(phis, y), 1, len(vals) - 1)
            x0, f0 = vals[k - 1], phis[k - 1] - y
            x1 = np.interp(y, phis, vals)
            live = np.flatnonzero((y > phis[0]) & (y <= phis[-1]))
            for _ in range(SECANT_STEPS):  # secant steps on the rows still moving
                if not live.size:
                    break
                a, fa, b = x0[live], f0[live], x1[live]
                fb = self(b) - y[live]
                den = np.where(fb != fa, fb - fa, 1.0)
                nxt = np.clip(b - np.where(fb != fa, fb * (b - a) / den, 0.0), lo, hi)
                x0[live], f0[live], x1[live] = b, fb, nxt
                live = live[nxt != b]
            return np.where(y <= phis[0], lo, np.where(y > phis[-1], np.inf, x1)).reshape(shape)
        j = np.searchsorted(self._rising, y, side="left")
        top = len(self._grid) - 1
        v = self._grid[np.minimum(j, top)]
        if self.dist.kind == "continuous":
            if self.side == "buyer":
                v = np.maximum(v - 1e-9, lo)
            else:
                v = np.minimum(self._grid[np.maximum(j - 1, 0)] + 1e-9, hi)
            v = np.where(j > 0, v, lo)
        return np.where(j <= top, v, np.inf)

    @cached_property
    def _rising(self) -> np.ndarray:
        """Running max of grid_virtuals: its first entry >= y is the first grid
        point whose virtual reaches y, even where rounding dips."""
        return np.maximum.accumulate(np.asarray(self.grid_virtuals, dtype=float))

    @cached_property
    def _knots(self) -> tuple[np.ndarray, np.ndarray]:
        """(phi-tilde, value) at lo, the stored grid and hi, the first kept
        nondecreasing for np.interp."""
        lo, hi = self.dist.support()
        vals = np.concatenate(([lo], self._grid, [hi]))
        return np.maximum.accumulate(self(vals)), vals


def _iron_discrete(values: np.ndarray, probs: np.ndarray, side: str) -> np.ndarray:
    """Hull of the cumulative virtual value in quantile space.

    Buyer: upper concave hull of the revenue curve points (tail_k, tail_k*v_k)
    plus the origin; segment slopes read off phi-tilde at each atom. Seller:
    lower convex hull of (cum_k, cum_k*v_k). Monotone-chain, ties kept left.
    """
    k = len(values)
    if side == "buyer":
        tails = 1.0 - np.concatenate(([0.0], np.cumsum(probs)[:-1]))  # Pr[X >= v_k]
        xs = np.concatenate(([0.0], tails[::-1]))  # increasing quantile axis
        ys = np.concatenate(([0.0], (tails * values)[::-1]))
        hull_y = _hull(xs, ys, upper=True)
        # slope over [tail_{k+1}, tail_k] is phi-tilde(v_k); reverse back
        slopes = np.diff(hull_y) / np.diff(xs)
        return slopes[::-1].copy()
    cums = np.cumsum(probs)  # Pr[X <= v_k]
    xs = np.concatenate(([0.0], cums))
    ys = np.concatenate(([0.0], cums * values))
    hull_y = _hull(xs, ys, upper=False)
    return (np.diff(hull_y) / np.diff(xs)).copy()


def _hull(xs: np.ndarray, ys: np.ndarray, upper: bool) -> np.ndarray:
    """y-values of the upper concave (or lower convex) hull sampled at xs."""
    pts: list[tuple[float, float]] = []
    sign = 1.0 if upper else -1.0
    for x, y in zip(xs, sign * ys):
        while len(pts) >= 2:
            (x1, y1), (x2, y2) = pts[-2], pts[-1]
            # pop while the middle point is not above the chord
            if (y2 - y1) * (x - x1) <= (y - y1) * (x2 - x1) + 1e-15:
                pts.pop()
            else:
                break
        pts.append((x, y))
    hx = np.array([p[0] for p in pts])
    hy = np.array([p[1] for p in pts])
    return sign * np.interp(xs, hx, hy)


def iron(d: Dist, side: str) -> IronedVirtual:
    """Ironed virtual value (buyer) or virtual cost (seller).

    Equals the raw function wherever it is already monotone; otherwise the
    constant-on-quantile-intervals hull version. Continuous dists are checked
    for monotonicity on a quantile grid and ironed on that grid if needed.
    """
    if side not in ("buyer", "seller"):
        raise ValueError("side must be 'buyer' or 'seller'")
    if d.kind == "discrete":
        vals = np.asarray(d.values)
        ironed = _iron_discrete(vals, np.asarray(d.probs), side)
        exact = bool(np.allclose(_atom_virtuals(d, side), ironed, atol=1e-9, rtol=1e-9))
        return IronedVirtual(side, d, tuple(vals), tuple(ironed), exact=exact)
    # continuous: probe the raw virtual on an interior quantile grid
    vals = d.ppf((np.arange(IRON_GRID) + 0.5) / IRON_GRID)
    raw = (buyer_virtual if side == "buyer" else seller_virtual)(d, vals)
    if np.all(np.diff(raw) >= -1e-9):
        return IronedVirtual(side, d, tuple(vals), tuple(raw), exact=True)
    probs = np.full(IRON_GRID, 1.0 / IRON_GRID)
    ironed = _iron_discrete(vals, probs, side)
    return IronedVirtual(side, d, tuple(vals), tuple(ironed), exact=False)


# -- quantile ladders and the pair check ------------------------------------


def quantile_ladder(d: Dist, r: float, side: str) -> list[float]:
    """Prices theta_j at tail (buyer) or cdf (seller) level 2^-j, j=1..ceil(log2(2/r))."""
    if not 0.0 < r <= 1.0:
        raise ValueError(f"trade probability {r} outside (0,1]")
    levels = math.ceil(math.log2(2.0 / r) - 1e-12)
    out = []
    for j in range(1, levels + 1):
        q = 2.0 ** (-j)
        out.append(upper_quantile(d, q) if side == "buyer" else quantile(d, q))
    return out


def quantile_pair_check(buyer: Dist, seller: Dist) -> tuple[float, float, bool]:
    """x = buyer upper r/2-quantile, y = seller r/2-quantile, and x >= y.

    The comparison holds for every pair with r > 0 under this module's
    quantile conventions; exposing it keeps that fact a testable property.
    """
    r = trade_probability(buyer, seller)
    if r <= 0:
        raise ValueError("trade probability is zero; pair check undefined")
    x = upper_quantile(buyer, r / 2.0)
    y = quantile(seller, r / 2.0)
    return x, y, bool(x >= y - 1e-9)
