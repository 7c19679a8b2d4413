"""Executable mechanisms: fixed and constrained posted prices, seller-adjusted
posted prices, buyer-offering, and seller-offering.

Every mechanism maps a realized profile (b, s) to an Outcome (traded set,
buyer payment, per-seller payments, realized GFT). Mechanism objects are bound
to a MarketInstance at construction. Each evaluates arrays of profiles with
one allocation kernel and one outcome kernel (allocation plus payments);
`run`, `run_batch` and `expected_gft_given_profile` are views of them, and the
audits reduce them.

Seller-adjusted posted prices (SAPP) deserve a note. The construction posts
theta_i(s) at the buyer quantile 1 - q_i(s)/2, and its guarantees need the
buyer to afford item i with probability exactly q_i(s)/2. On discrete buyer
grids that quantile generally lands on an atom, so the mechanism accepts the
boundary value b_i = theta_i(s) with a calibrated coin; strictly higher values
always afford, strictly lower never do. All exact audits integrate the coin
analytically: Sapp._beta_rows is the closed form, and the exact audits reduce
one table of it over the seller x buyer grid, so no sampling enters them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import distributions as dst
from . import feasibility as fea
from .distributions import GL_NODES, SEGMENT_PANELS, Dist, IronedVirtual, _gl_nodes, _ordered_sum, _zero_unless, item_argmax, item_max, item_sum
from .feasibility import Constraint

TOL = 1e-9
PRODUCT_GRID_CAP = 10**7  # points in one side's profile grid (`_product_grid`)

__all__ = [
    "MarketInstance",
    "Outcome",
    "AllocationRule",
    "SappPriceMap",
    "Fpp",
    "Cfpp",
    "Sapp",
    "BuyerOffering",
    "SellerOffering",
    "market",
    "sapp_build",
    "unlikely_trade_rule",
    "reduction_rule",
    "buyer_grid",
    "seller_grid",
]


@dataclass(frozen=True)
class MarketInstance:
    """One constrained-additive buyer facing n independent unit-supply sellers."""

    buyer_dists: tuple[Dist, ...]
    seller_dists: tuple[Dist, ...]
    constraint: Constraint

    def __post_init__(self):
        n = len(self.buyer_dists)
        if n < 1 or len(self.seller_dists) != n:
            raise ValueError("need one buyer and one seller distribution per item")
        if self.constraint.ground != tuple(range(n)):
            raise ValueError("constraint ground must be 0..n-1")

    @property
    def n(self) -> int:
        return len(self.buyer_dists)

    @cached_property
    def trade_probs(self) -> tuple[float, ...]:
        r = tuple(
            dst.trade_probability(fb, gs)
            for fb, gs in zip(self.buyer_dists, self.seller_dists)
        )
        if any(ri <= 0 for ri in r):
            raise ValueError("every item must have positive trade probability")
        return r

    @cached_property
    def buyer_ironed(self) -> tuple[IronedVirtual, ...]:
        return tuple(dst.iron(d, "buyer") for d in self.buyer_dists)

    @cached_property
    def seller_ironed(self) -> tuple[IronedVirtual, ...]:
        return tuple(dst.iron(d, "seller") for d in self.seller_dists)

    @property
    def is_discrete(self) -> bool:
        return all(d.kind == "discrete" for d in self.buyer_dists + self.seller_dists)

    def virtuals(self, V, side: str) -> np.ndarray:
        """The ironed virtual value (side "buyer") or cost ("seller") of every
        entry of V, items on the last axis."""
        ironed = getattr(self, f"{side}_ironed")
        V = np.asarray(V, dtype=float)
        out = np.empty(V.shape)
        for i, iv in enumerate(ironed):
            out[..., i] = iv(V[..., i])
        return out

    def sample_profiles(self, rng: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray]:
        if m < 1:
            raise ValueError(f"samples must be at least 1, got {m}")
        b = np.column_stack([d.sample(rng, m) for d in self.buyer_dists])
        s = np.column_stack([d.sample(rng, m) for d in self.seller_dists])
        return b, s


def market(buyers: Sequence[Dist], sellers: Sequence[Dist], constraint: Constraint) -> MarketInstance:
    return MarketInstance(tuple(buyers), tuple(sellers), constraint)


@dataclass(frozen=True)
class Outcome:
    traded: tuple[int, ...]
    buyer_payment: float
    seller_payments: tuple[float, ...]
    gft: float


# -- batch kernels and their views ---------------------------------------------
#
# Every mechanism has two array kernels over rows of profiles (B, S), items on
# the last axis: `allocation(B, S)`, the deterministic 0/1 allocation (for Sapp
# the coin-integrated purchase probabilities), and `outcome_batch(B, S, coins)`
# -> (X, buyer payments, seller payments) with X the realized allocation. The
# per-profile methods below are views of them; each class binds them in its own
# namespace, where perfbench/tracing.py wraps them.


def _gft_rows(X: np.ndarray, B: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Realized GFT per row, summed over the traded items in increasing order."""
    return item_sum(_zero_unless(np.subtract(B, S), X))


def _one_row(v) -> np.ndarray:
    return np.asarray(v, dtype=float).reshape(1, -1)


def _run(self, b, s, coins=None) -> Outcome:
    """One profile through `outcome_batch`."""
    B, S = _one_row(b), _one_row(s)
    X, pay_b, pay_S = self.outcome_batch(B, S, None if coins is None else _one_row(coins))
    traded = tuple(np.flatnonzero(X[0]).tolist())
    return Outcome(traded, float(pay_b[0]), tuple(pay_S[0].tolist()), float(_gft_rows(X, B, S)[0]))


def _realized_gft(self, B: np.ndarray, S: np.ndarray, coins=None) -> np.ndarray:
    """Per-row GFT of a deterministic allocation; no payments are computed."""
    return _gft_rows(self.allocation(B, S), B, S)


def _expected_gft(self, b, s) -> float:
    return float(self.expected_gft_rows(_one_row(b), _one_row(s))[0])


GUESS_ULPS = 32  # half-width, in floats, of the bracket tried around a guessed cut


def _order_key(x: np.ndarray) -> np.ndarray:
    """int64 keys in the order of the floats x (-0.0 just below 0.0); the map
    is its own inverse through `_from_key`."""
    i = np.asarray(x, dtype=np.float64).view(np.int64)
    return np.where(i < 0, i ^ np.int64(0x7FFFFFFFFFFFFFFF), i)


def _from_key(k: np.ndarray) -> np.ndarray:
    return np.where(k < 0, k ^ np.int64(0x7FFFFFFFFFFFFFFF), k).view(np.float64)


def _bisect_floats(trades, idx: np.ndarray, near: np.ndarray, away: np.ndarray) -> np.ndarray:
    """Per row of idx, where `near` trades and `away` does not, the trading
    end of the adjacent pair of floats between them at which `trades` flips:
    bisection of the float order (at most 64 steps), one array call per step
    over the rows still open."""
    kn, ka = _order_key(near), _order_key(away)
    live = np.arange(len(idx))
    while live.size:
        a, b = kn[live], ka[live]
        mid = (a >> 1) + (b >> 1) + (a & b & 1)  # floor of the mean, no overflow
        keep = (mid != a) & (mid != b)
        live, mid = live[keep], mid[keep]
        if live.size:
            ok = trades(idx[live], _from_key(mid))
            kn[live[ok]], ka[live[~ok]] = mid[ok], mid[~ok]
    return _from_key(kn)


def _threshold_search(trades, t: np.ndarray, far=None, atoms=None, floor=None, guess=None) -> np.ndarray:
    """Per row, the report nearest `far` at which the row still trades,
    searched from its own trading report t (Myerson's threshold payment).

    `trades(idx, v)` says whether rows idx trade at reports v. Discrete
    `atoms` (one list for all rows, or one NaN-padded row of atoms per row)
    come far end first, restricted to those >= floor when given: the first
    trading atom wins, else t; one array call per atom rank over the rows
    still open. On a continuous support (`far` one float or one per row),
    far itself when it trades, else the last trading float before `trades`
    flips, found by `_bisect_floats`. A `guess` of the cut per row (NaN:
    none) only narrows the bracket: when the row trades GUESS_ULPS floats on
    t's side of the guess and not as many on far's side (both probes in one
    call), those two floats bracket it; every other row keeps (t, far). One
    `_bisect_floats` call then closes all brackets.
    """
    t = np.asarray(t, dtype=float)
    if atoms is not None:
        atoms = np.asarray(atoms, dtype=float)
        low = -np.inf if floor is None else floor  # NaN padding never passes
        out, open_ = t.copy(), np.ones(len(t), dtype=bool)
        for a in np.broadcast_to(atoms, (len(t), atoms.shape[-1])).T:
            idx = np.flatnonzero(open_ & (a >= low))
            if idx.size:
                hit = idx[trades(idx, a[idx])]
                out[hit], open_[hit] = a[hit], False
        return out
    out = np.array(np.broadcast_to(np.asarray(far, dtype=float), t.shape))
    idx = np.flatnonzero(~trades(np.arange(len(t)), out))
    near, away = t[idx], out[idx]
    if guess is not None:
        g = np.asarray(guess, dtype=float)[idx]
        j = np.flatnonzero(~np.isnan(g))
        if j.size:
            kt, kf = _order_key(near[j]), _order_key(away[j])
            low, high = np.minimum(kt, kf), np.maximum(kt, kf)
            kg = np.clip(_order_key(g[j]), low, high)
            step = np.where(kf > kt, GUESS_ULPS, -GUESS_ULPS)
            gn, ga = _from_key(np.clip(kg - step, low, high)), _from_key(np.clip(kg + step, low, high))
            ok = trades(np.concatenate((idx[j], idx[j])), np.concatenate((gn, ga)))
            hit = ok[:j.size] & ~ok[j.size:]
            near[j[hit]], away[j[hit]] = gn[hit], ga[hit]
    out[idx] = _bisect_floats(trades, idx, near, away)
    return out


def _thresholds(dists: Sequence[Dist], X: np.ndarray, V: np.ndarray, alloc, guess=None, up: bool = True) -> np.ndarray:
    """Threshold payments of one side, reports V from dists: each traded
    (row, item) pair's report nearest its support's top (`up`, sellers) or
    bottom (buyers) at which it still trades, all pairs searched at once.

    `alloc(rows, V_trial)` is the 0/1 allocation of those rows at trial
    reports; a pair trades at v when its item is allocated with v in its own
    entry. Continuous items share one float search from each pair's report;
    discrete items one atom search by rank from the far end (a seller's atoms
    only those >= cost - TOL). `guess(rows)`, when given, is a (len(rows), n)
    guess of the continuous cuts (NaN: none).
    """
    pay = np.zeros(X.shape)
    pr, pi = np.nonzero(X)
    if not pr.size:
        return pay

    def on(pairs):
        def trades(idx, v):
            r, i, k = pr[pairs[idx]], pi[pairs[idx]], np.arange(len(idx))
            trial = V[r]
            trial[k, i] = v
            return alloc(r, trial)[k, i]

        return trades

    v = V[pr, pi]
    discrete = np.array([d.kind == "discrete" for d in dists])[pi]
    pairs = np.flatnonzero(discrete)
    if pairs.size:
        top = max(len(d.values) for d in dists)
        atoms = np.array([np.pad(d.atoms[::-1 if up else 1], (0, top - len(d.atoms)), constant_values=np.nan) for d in dists])
        pay[pr[pairs], pi[pairs]] = _threshold_search(on(pairs), v[pairs], atoms=atoms[pi[pairs]], floor=v[pairs] - TOL if up else None)
    pairs = np.flatnonzero(~discrete)
    if pairs.size:
        far = np.array([d.support()[1 if up else 0] for d in dists])[pi[pairs]]
        g = None if guess is None else guess(pr[pairs])[np.arange(pairs.size), pi[pairs]]
        pay[pr[pairs], pi[pairs]] = _threshold_search(on(pairs), v[pairs], far=far, guess=g)
    return pay


# -- profile grids (exact enumeration helpers) --------------------------------


def _product_grid(dists: Sequence[Dist]) -> tuple[np.ndarray, np.ndarray]:
    """All value tuples over the given discrete dists, row-major over their
    atoms (the `itertools.product` order), and their probabilities."""
    if any(d.kind != "discrete" for d in dists):
        raise ValueError("exact enumeration needs discrete distributions")
    n, shape = len(dists), [len(d.atoms) for d in dists]
    size = math.prod(shape)
    if size > PRODUCT_GRID_CAP:
        raise fea.CapacityError(f"profile grid exceeds {PRODUCT_GRID_CAP} points")
    grid = np.empty(shape + [n])
    probs = 1.0
    for j, d in enumerate(dists):  # item j's atoms along axis j, broadcast over the others
        axis = [1] * n
        axis[j] = -1
        grid[..., j] = d.atoms.reshape(axis)
        probs = probs * d.masses.reshape(axis)
    return grid.reshape(size, n), probs.reshape(size)


def buyer_grid(inst: MarketInstance) -> tuple[np.ndarray, np.ndarray]:
    return _product_grid(inst.buyer_dists)


def seller_grid(inst: MarketInstance) -> tuple[np.ndarray, np.ndarray]:
    return _product_grid(inst.seller_dists)


# -- fixed posted prices -------------------------------------------------------


def _posted_allocation(c: Constraint, B, S, theta_b, theta_s) -> np.ndarray:
    """The utility-maximizing purchase per row at prices theta_b under c,
    over the items of c.ground whose seller accepts theta_s
    and whose buyer affords theta_b, buying at equality: the positive-surplus
    items by max-weight, then zero-surplus ones in index order while the set
    stays feasible: for a size cap while there is room, else one pass over
    the item columns tests every row that can add i at once, T = X + i being
    feasible exactly when `fea.max_weight` at weight 1 on T reaches |T|.

    An item not available weighs -inf in the table search, which no set may
    take: a constraint that is not downward-closed (`size_floor`) could
    otherwise fill a set with it at weight 0. The size-cap mask takes
    positive weights only, so there +0.0 bars the item alike."""
    B = np.asarray(B, dtype=float)
    S = np.asarray(S, dtype=float)
    avail = (S <= theta_s + TOL) & (B >= theta_b - TOL)
    if len(c.ground) < B.shape[1]:
        avail[:, ~np.isin(np.arange(B.shape[1]), c.ground)] = False
    w = B - theta_b
    room = fea.size_cap(c)
    if room is None:
        X = np.zeros(B.shape, dtype=bool)
        X[:, c.ground] = fea.max_weight_values(c, np.where(avail, w, -np.inf)[:, c.ground])[1]
    else:  # max_weight_values' mask, without the row values it would also compute
        X = fea.top_positive(_zero_unless(w, avail), room)
    zero = avail & (w >= -TOL) & (w <= TOL) & ~X  # |w| <= TOL, without a float temporary
    if zero.any():
        if room is not None:
            X |= zero & (np.cumsum(zero, axis=1) <= room - X.sum(axis=1, keepdims=True))
        else:
            for i in np.flatnonzero(zero.any(axis=0)):
                rows = np.flatnonzero(zero[:, i])
                T = X[rows]
                T[:, i] = True
                X[rows, i] = fea.max_weight(c, np.where(T, 1.0, -np.inf)[:, c.ground]) == T.sum(axis=1)
    return X


class Fpp:
    """Fixed posted prices: sellers at theta_s, buyer at theta_b (>= theta_s)."""

    def __init__(self, inst: MarketInstance, theta_b, theta_s, name: str = "fpp"):
        self.inst = inst
        self.theta_b = np.asarray(theta_b, dtype=float)
        self.theta_s = np.asarray(theta_s, dtype=float)
        self.name = name
        if self.theta_b.shape != (inst.n,) or self.theta_s.shape != (inst.n,):
            raise ValueError("price vectors must have one entry per item")
        if np.any(self.theta_b < self.theta_s - TOL):
            raise ValueError("buyer price below seller price breaks ex-post WBB")

    def allocation(self, B, S) -> np.ndarray:
        return _posted_allocation(self.inst.constraint, B, S, self.theta_b, self.theta_s)

    def outcome_batch(self, B, S, coins=None):
        X = self.allocation(B, S)
        return X, item_sum(np.where(X, self.theta_b, 0.0)), np.where(X, self.theta_s, 0.0)

    run = _run
    run_batch = expected_gft_rows = _realized_gft
    expected_gft_given_profile = _expected_gft


class Cfpp(Fpp):
    """Constrained posted prices: the purchase set must lie in `sub`, every
    set of which the market constraint must allow.

    Under a size-floor subconstraint the buyer takes the best floor-feasible
    set of willing sellers' items with positive total utility, else the
    largest floor-feasible set of zero-utility items (ties favor purchase),
    else nothing.
    """

    def __init__(self, inst, theta_b, theta_s, sub: Constraint):
        super().__init__(inst, theta_b, theta_s, "cfpp")
        if set(sub.ground) - set(inst.constraint.ground):
            raise ValueError("subconstraint ground exceeds market ground")
        if not all(fea.is_feasible(inst.constraint, T) for T in fea.feasible_sets(sub)):
            raise ValueError("subconstraint admits a set the market constraint forbids")
        self.sub = sub

    def allocation(self, B, S) -> np.ndarray:
        if self.sub.variant != "size_floor":
            return _posted_allocation(self.sub, B, S, self.theta_b, self.theta_s)
        g = list(self.sub.ground)
        w = np.asarray(B, dtype=float)[:, g] - self.theta_b[g]
        willing = np.asarray(S, dtype=float)[:, g] <= self.theta_s[g] + TOL
        Y = fea.max_weight_values(self.sub, np.where(willing, w, -np.inf))[1]
        zero = willing & (np.abs(w) <= TOL)
        empty = ~Y.any(axis=1) & zero.any(axis=1)
        if empty.any():
            Y[empty] = fea.max_weight_values(self.sub, np.where(zero[empty], 1.0, -np.inf))[1]
        X = np.zeros((len(Y), self.inst.n), dtype=bool)
        X[:, g] = Y
        return X

    run = _run


# -- allocation rules ----------------------------------------------------------


@dataclass(frozen=True)
class AllocationRule:
    """A (b, s) -> x in {0,1}^n rule obeying the seller-adjusted construction
    hypotheses: sum x_i <= 1, x_i nonincreasing in s_i, nondecreasing in s_j.
    `fn` takes b and s with items on the last axis and any leading shapes that
    broadcast (one profile is the one-row case); calling the rule broadcasts the
    result to that shape, so a constant `fn` works too. `q_fn` maps seller rows
    to q(s) the same way (see `SappPriceMap`); it is required once a buyer is
    not discrete. `q_cut(S, q)`, where q_fn has a closed-form
    inverse, gives per entry the own cost at which q_i(s) falls to q[..., i],
    the other costs held (NaN where it has none)."""

    name: str
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    q_fn: Callable[[np.ndarray], np.ndarray] | None = None
    q_cut: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __call__(self, b, s) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        s = np.asarray(s, dtype=float)
        return np.broadcast_to(self.fn(b, s), np.broadcast_shapes(b.shape, s.shape))


def unlikely_trade_rule(inst: MarketInstance, L: Iterable[int]) -> AllocationRule:
    """Serve i in L when it is the only L-item whose buyer value covers the cost
    and its ironed virtual value clears the cost."""
    L = tuple(sorted(set(int(i) for i in L)))
    if set(L) - set(range(inst.n)):
        raise ValueError("L must be a subset of the items")
    phi = inst.buyer_ironed

    def fn(b: np.ndarray, s: np.ndarray) -> np.ndarray:
        x = np.zeros(np.broadcast_shapes(b.shape, s.shape))
        meets = b[..., list(L)] >= s[..., list(L)] - TOL
        alone = meets.sum(axis=-1) == 1
        for k, i in enumerate(L):
            x[..., i] = alone & meets[..., k] & (phi[i](b[..., i]) >= s[..., i] - TOL)
        return x

    def others(S: np.ndarray) -> dict:
        """Per i in L, the product over the other L-items of Pr[b_j < s_j]."""
        below = {j: inst.buyer_dists[j].below(S[..., j]) for j in L}
        out = {}
        for i in L:
            out[i] = 1.0
            for j in L:
                if j != i:
                    out[i] = out[i] * below[j]
        return out

    def q_fn(S: np.ndarray) -> np.ndarray:
        # per-item product form: the rule factorizes across items
        q = np.zeros(S.shape)
        for i, rest in others(S).items():
            q[..., i] = _prob_trade_willing(inst.buyer_dists[i], phi[i], S[..., i]) * rest
        return q

    def q_cut(S: np.ndarray, q: np.ndarray) -> np.ndarray:
        # only the willing factor moves with s_i: it falls to p = q_i / rest
        # where max(s_i, lowest value whose ironed virtual clears s_i - TOL)
        # reaches w = F_i^-1(1 - p), so at s_i = min(w, phi_i(w) + TOL)
        cut = np.full(S.shape, np.nan)
        for i, rest in others(S).items():
            d = inst.buyer_dists[i]
            if d.kind != "discrete":
                with np.errstate(divide="ignore", invalid="ignore"):
                    w = d.ppf(1.0 - q[..., i] / rest)
                cut[..., i] = np.minimum(w, phi[i](w) + TOL)
        return cut

    return AllocationRule(f"unlikely_trade({list(L)})", fn, q_fn, q_cut)


def _prob_trade_willing(d: Dist, phi: IronedVirtual, s: np.ndarray) -> np.ndarray:
    """Pr[b >= s and phi(b) >= s] for one item, elementwise over costs s; on
    a continuous support through the cut where phi reaches y = s - TOL, the
    guess phi.inverse(y) made exact by `_threshold_search` down from hi."""
    if d.kind == "discrete":
        keep = (d.atoms >= s[..., None] - TOL) & (phi(d.atoms) >= s[..., None] - TOL)
        return _ordered_sum(np.where(keep, d.masses, 0.0), axis=-1)
    lo, hi = d.support()
    y = s - TOL
    clears = phi(hi) >= y
    cut = np.full(y.shape, float(hi))
    y = y[clears]
    cut[clears] = _threshold_search(lambda idx, v: phi(v) >= y[idx], cut[clears], far=lo, guess=phi.inverse(y))
    return np.where(clears, d.tail(np.maximum(s, cut)), 0.0)


def _phi_levels(d: Dist, phi: IronedVirtual) -> tuple[np.ndarray, np.ndarray] | None:
    """The values phi(b) takes and their masses when there are finitely many:
    one per atom of a discrete buyer, or one per level of a continuous buyer
    ironed on its grid, which starts at the grid point less 1e-9 where phi
    steps (as phi is evaluated); None for a closed-form phi."""
    if d.kind == "discrete":
        return phi(d.atoms), d.masses
    if phi.exact:
        return None
    g = phi.grid_virtuals
    steps = np.flatnonzero(g[1:] != g[:-1]) + 1
    starts = np.concatenate(([0.0], d.cdf(phi.grid_values[steps] - 1e-9), [1.0]))
    return g[np.concatenate(([0], steps))], np.diff(starts)


def reduction_rule(inst: MarketInstance) -> AllocationRule:
    """Serve the item with the highest ironed-virtual-value surplus when that
    surplus is nonnegative (ties to the lowest index).

    Buyer values are independent, so with Z_j = phi_j(b_j) - s_j its q_fn is
    q_i(s) = E[1[Z_i >= -TOL] 1[phi_i(b_i) >= s_i - TOL] prod_{j<i} Pr[Z_j <
    Z_i] prod_{j>i} Pr[Z_j <= Z_i]]. Where phi takes finitely many values
    (`_phi_levels`), the expectation and the factors are sums over them, in
    the rule's own float expression, so ties go as the rule sends them; for a
    closed-form phi_i, Gauss-Legendre in b_i's quantile from the cut at
    s_i - TOL up to 1, with each row's panel edges where Z_i reaches a mark of
    some item."""
    phi, dists, n = inst.buyer_ironed, inst.buyer_dists, inst.n

    def fn(b: np.ndarray, s: np.ndarray) -> np.ndarray:
        d = inst.virtuals(b, "buyer") - s
        serve = (np.arange(n) == item_argmax(d)[..., None]) & (item_max(d) >= -TOL)[..., None]
        return serve.astype(float)

    @cache
    def tables() -> tuple[list, list]:
        """Per item, `_phi_levels`, and the virtuals where Pr[phi_j(b_j) < y]
        jumps or kinks in y: its levels, else phi_j at the support ends."""
        levels = [_phi_levels(d, p) for d, p in zip(dists, phi)]
        marks = [np.unique(t[0]) if t else phi[j](np.array(dists[j].support())) for j, t in enumerate(levels)]
        return levels, marks

    def beaten(j: int, z: np.ndarray, s: np.ndarray, strict: bool) -> np.ndarray:
        """Pr[Z_j < z] (strict) or Pr[Z_j <= z] per entry of the (k, m) z, costs s (k,)."""
        t = tables()[0][j]
        if t is None:
            return dists[j].below(phi[j].inverse(z + s[:, None]))
        total = np.zeros(z.shape)  # a running sum in level order, as `_ordered_sum` adds
        for a, p in zip(*t):
            zj = a - s[:, None]
            total += np.where(zj < z if strict else zj <= z, p, 0.0)
        return total

    def served(i: int, S: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.ndarray:
        """The w-weighted sum of item i's integrand over its virtuals v, (k, m) or (m,)."""
        z = v - S[:, i, None]
        keep = np.where((z >= -TOL) & (v >= S[:, i, None] - TOL), w, 0.0)
        factors = (beaten(j, z, S[:, j], j < i) for j in range(n) if j != i)
        return _ordered_sum(math.prod(factors, start=keep), axis=-1)

    def q_item(i: int, S: np.ndarray) -> np.ndarray:
        levels, marks = tables()
        if levels[i] is not None:
            return served(i, S, *levels[i])
        d = dists[i]
        y = np.concatenate([marks[j] - S[:, j, None] + S[:, i, None] for j in range(n)], axis=1)  # phi_i where Z_i meets a mark
        lo = d.cdf(phi[i].inverse(S[:, i, None] - TOL))
        cuts = np.clip(d.cdf(phi[i].inverse(y)), lo, 1.0)
        u = np.sort(np.concatenate((lo, cuts, np.ones(lo.shape)), axis=1), axis=1)
        p = np.linspace(u[:, :-1], u[:, 1:], SEGMENT_PANELS + 1, axis=-1)
        nodes, weights = _gl_nodes(p[..., :-1], p[..., 1:])
        return served(i, S, phi[i](d.ppf(nodes.reshape(len(S), -1))), weights.reshape(len(S), -1))

    def q_fn(S: np.ndarray) -> np.ndarray:
        flat = np.asarray(S, dtype=float).reshape(-1, n)
        # blocks of rows whose b_i nodes (SEGMENT_PANELS panels of GL_NODES
        # on each segment, one segment past each mark) fit SAPP_ROWS_BYTES
        nodes = GL_NODES * SEGMENT_PANELS * (1 + sum(map(len, tables()[1])))
        step = max(1, SAPP_ROWS_BYTES // (8 * nodes))
        q = [np.stack([q_item(i, flat[k:k + step]) for i in range(n)], axis=-1) for k in range(0, len(flat) or 1, step)]
        return np.concatenate(q).reshape(np.shape(S))

    return AllocationRule("reduction", fn, q_fn)


# -- seller-adjusted posted prices ---------------------------------------------

SAPP_TABLE_BYTES = 2**26  # largest (|S|, |B|, n) float table; an audit peaks near 6x it (470 MB at 63 MB)
SAPP_ROWS_BYTES = 2**23  # largest block of seller rows x buyer rows (or reduction q_fn nodes) q is computed over at once


class SappPriceMap:
    """Prices theta_i(s) derived from an allocation rule.

    q_i(s) = E_b[x_i(b,s) * 1[phi_i(b_i) >= s_i]], theta_i(s) the buyer
    quantile at 1 - q_i(s)/2, and alpha_i(s) the boundary-coin probability
    calibrated so Pr[afford i] = q_i(s)/2 exactly on discrete grids.

    q is exact: a sum over the buyer grid when every buyer is discrete, else
    the rule's `q_fn`; a rule without one is refused on a market with a
    continuous buyer. `rows` computes all three for an array of seller
    profiles. The map keeps no state: a row's prices depend on that row
    alone, so a row priced alone equals the same row priced in any batch.
    """

    def __init__(self, inst: MarketInstance, rule: AllocationRule):
        self.inst = inst
        self.rule = rule
        self._bgrid = self._bprobs = None  # the discrete buyer grid q sums over, and its probabilities
        if all(d.kind == "discrete" for d in inst.buyer_dists):
            self._bgrid, self._bprobs = buyer_grid(inst)
            self._bphi = inst.virtuals(self._bgrid, "buyer")
        elif rule.q_fn is None:
            raise ValueError(f"rule {rule.name!r} has no q_fn, which prices a market with a continuous buyer")
        self._atoms = {}  # per discrete buyer item: atoms, Pr[b > atom], (positive) mass at atom
        for i, d in enumerate(inst.buyer_dists):
            if d.kind == "discrete":
                self._atoms[i] = (d.atoms, d.tail(d.atoms) - d.masses, d.masses)

    def q(self, s) -> np.ndarray:
        return self._entries(_one_row(s))[0][0]

    def theta(self, s) -> np.ndarray:
        return self._entries(_one_row(s))[1][0]

    def alpha(self, s) -> np.ndarray:
        return self._entries(_one_row(s))[2][0]

    def _entries(self, S: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(q, theta, alpha) rows for a (k, n) array of seller profiles, each
        distinct profile priced once."""
        if not len(S):
            return np.empty(S.shape), np.empty(S.shape), np.empty(S.shape)
        uniq, inverse = np.unique(S, axis=0, return_inverse=True)
        return tuple(col[inverse.ravel()] for col in self.rows(uniq))

    def _kept(self, S: np.ndarray) -> np.ndarray:
        """x_i(b, s) * 1[phi_i(b_i) >= s_i] over seller rows S x buyer rows b."""
        s = S[:, None, :]
        return self.rule(self._bgrid, s) * (self._bphi >= s - TOL)

    def _blocks(self, S: np.ndarray) -> list[np.ndarray]:
        """The seller rows S in blocks of at most SAPP_ROWS_BYTES per (k, |B|, n)
        intermediate."""
        step = max(1, SAPP_ROWS_BYTES // (self._bgrid.size * 8))
        return [S[k:k + step] for k in range(0, len(S) or 1, step)]

    def _q_rows(self, kept: np.ndarray) -> np.ndarray:
        """q from a block's `_kept`, weighted by the buyer grid's probabilities."""
        return _ordered_sum(kept * self._bprobs[:, None], axis=1)

    def rows(self, S) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(q, theta, alpha) for a (k, n) array of seller profiles, each (k, n)."""
        S = np.asarray(S, dtype=float)
        if self._bgrid is None:
            q = np.clip(np.broadcast_to(self.rule.q_fn(S), S.shape), 0.0, 1.0)
        else:
            q = np.concatenate([self._q_rows(self._kept(blk)) for blk in self._blocks(S)])
        return (q, *self._prices(q))

    def _prices(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(theta, alpha) of q rows."""
        theta = np.empty_like(q)
        alpha = np.zeros_like(q)
        for i, d in enumerate(self.inst.buyer_dists):
            theta[:, i] = d.ppf(1.0 - q[:, i] / 2.0)
            if i in self._atoms:
                values, above, mass = self._atoms[i]
                k = np.searchsorted(values, theta[:, i])
                alpha[:, i] = np.clip((q[:, i] / 2.0 - above[k]) / mass[k], 0.0, 1.0)
        return theta, alpha


def _validate_rule(inst: MarketInstance, rule: AllocationRule) -> None:
    """Check the rule hypotheses on 48 profiles sampled with seed 7, in one
    rule call: the sampled costs, then per item i the same rows with s_i
    raised towards the top of its support. Every item is checked at once;
    the first failing item is reported."""
    B, S = inst.sample_profiles(np.random.default_rng(7), 48)
    hi, items = np.array([d.support()[1] for d in inst.seller_dists]), np.arange(inst.n)
    trial = np.repeat(S[None], inst.n + 1, axis=0)
    trial[items + 1, :, items] = np.minimum(hi, S + 0.25 * (hi - S) + 1e-6).T
    out = rule(B, trial)
    X, bumped = out[0], out[1:]  # bumped[i]: the rows with s_i raised
    if np.any(X.sum(axis=-1) > 1.0 + TOL):
        raise ValueError("allocation rule serves more than one item")
    rose = (bumped[items, :, items] > X.T + TOL).any(axis=1)
    fell = bumped < X - TOL
    fell[items, :, items] = False
    for i in np.flatnonzero(rose | fell.any(axis=(1, 2)))[:1]:
        if rose[i]:
            raise ValueError(f"rule not nonincreasing in the cost of item {i}")
        j = np.argwhere(fell[i])[0][1]
        raise ValueError(f"rule not nondecreasing in item {i}'s cost for item {j}")


def sapp_build(inst: MarketInstance, rule: AllocationRule) -> SappPriceMap:
    """Derive the seller-adjusted price map from an allocation rule, validating
    the rule hypotheses on sampled profiles first."""
    _validate_rule(inst, rule)
    return SappPriceMap(inst, rule)


class _SappTable(NamedTuple):
    """Exact SAPP quantities over the seller grid S x buyer grid B."""

    S: np.ndarray  # (|S|, n) seller profiles, row-major over the item atoms
    pS: np.ndarray
    B: np.ndarray  # (|B|, n) buyer profiles
    pB: np.ndarray
    q: np.ndarray  # (|S|, n) price-map rows of S
    theta: np.ndarray
    beta: np.ndarray  # (|S|, |B|, n) coin-integrated purchase probabilities
    xhat: np.ndarray  # (|S|, n) interim allocation E_b[beta]
    surplus: np.ndarray  # (|S|, |B|) the rule's kept items' phi(b) - s, summed over items


class Sapp:
    """Runs a SappPriceMap: posts theta(s), sells at most one item, pays the
    traded seller her threshold (largest still-trading cost report)."""

    def __init__(self, inst: MarketInstance, pmap: SappPriceMap):
        self.inst = inst
        self.pmap = pmap
        self.name = f"sapp[{pmap.rule.name}]"

    # -- realized execution --

    @staticmethod
    def _coins(coins) -> np.ndarray:
        if coins is None:
            raise ValueError("a realized SAPP run needs its coins")
        return np.asarray(coins, dtype=float)

    def _realized(self, B, S, coins) -> tuple[np.ndarray, np.ndarray]:
        """(X, theta): the buyer buys the affordable item of largest surplus
        (lowest index on ties); boundary items afford when coin < alpha."""
        _, theta, alpha = self.pmap._entries(S)
        afford = (B > theta + TOL) | ((np.abs(B - theta) <= TOL) & (coins < alpha))
        best = item_argmax(np.where(afford, B - theta, -np.inf))[:, None]
        return (np.arange(self.inst.n) == best) & afford.any(axis=1, keepdims=True), theta

    def outcome_batch(self, B, S, coins=None):
        coins = self._coins(coins)
        X, theta = self._realized(B, S, coins)
        pay = _thresholds(self.inst.seller_dists, X, S, lambda rows, St: self._realized(B[rows], St, coins[rows])[0], self._cut_guess(B, S))
        return X, item_sum(np.where(X, theta, 0.0)), pay

    def _cut_guess(self, B, S):
        """The guess of each continuous seller's threshold: the cost at which
        theta_i(s) = F_i^-1(1 - q_i(s)/2) reaches b_i - TOL, where item i
        stops being affordable, i.e. where q_i falls to 2 Pr[b > b_i - TOL].
        Only a rule with `q_cut` and continuous buyers (q from q_fn) has one."""
        if self.pmap.rule.q_cut is None or self.pmap._bgrid is not None:
            return None

        def guess(rows):
            afford = np.stack([d.below(B[rows, i] - TOL) for i, d in enumerate(self.inst.buyer_dists)], axis=-1)
            return self.pmap.rule.q_cut(S[rows], 2.0 * (1.0 - afford))

        return guess

    run = _run

    def run_batch(self, B, S, coins=None) -> np.ndarray:
        """Per-row realized GFT under the given coins; no payments are computed."""
        return _gft_rows(self._realized(B, S, self._coins(coins))[0], B, S)

    # -- exact coin-integrated machinery (discrete paths) --

    @staticmethod
    def _beta_rows(B, theta, alpha) -> np.ndarray:
        """Purchase probabilities over rows (items last; B, theta, alpha broadcast),
        coins integrated: the sure-afford item of largest surplus (lowest index
        on ties), else boundary item i with alpha_i times Pr[no earlier coin sold]."""
        sure, gain = B > theta + TOL, B - theta
        won = np.arange(B.shape[-1]) == item_argmax(np.where(sure, gain, -np.inf))[..., None]
        coin = np.where(np.abs(gain) <= TOL, alpha, 0.0)
        live = np.ones(coin.shape)  # Pr[no earlier coin sold], a running product over the item columns
        for j in range(1, B.shape[-1]):
            live[..., j] = live[..., j - 1] * (1.0 - coin[..., j - 1])
        return np.where(item_max(sure)[..., None], won, coin * live)

    def allocation(self, B, S) -> np.ndarray:
        """Purchase probabilities per row, integrating only over the boundary
        coins (closed form)."""
        _, theta, alpha = self.pmap._entries(S)
        return self._beta_rows(B, theta, alpha)

    def expected_gft_rows(self, B, S) -> np.ndarray:
        return np.vecdot(self.allocation(B, S), B - S)

    expected_gft_given_profile = _expected_gft

    @cached_property
    def _table(self) -> _SappTable:
        """Beta over the full seller x buyer grid, built once; q and the rule
        surplus come from one rule evaluation per block of seller rows."""
        inst = self.inst
        if not inst.is_discrete:
            raise ValueError("exact SAPP accounting needs a fully discrete instance")
        nbytes = math.prod(len(d.values) for d in inst.seller_dists + inst.buyer_dists) * inst.n * 8
        if nbytes > SAPP_TABLE_BYTES:
            raise fea.CapacityError(f"SAPP table needs {nbytes} bytes, over {SAPP_TABLE_BYTES}")
        S, pS = seller_grid(inst)
        pmap = self.pmap
        B, pB = pmap._bgrid, pmap._bprobs
        q, surplus = [], []
        for blk in pmap._blocks(S):
            kept = pmap._kept(blk)
            q.append(pmap._q_rows(kept))
            surplus.append(np.vecdot(kept, pmap._bphi - blk[:, None, :]))
        q = np.concatenate(q)
        theta, alpha = pmap._prices(q)
        beta = self._beta_rows(B, theta[:, None, :], alpha[:, None, :])
        xhat = _ordered_sum(pB[:, None] * beta, axis=1)
        return _SappTable(S, pS, B, pB, q, theta, beta, xhat, np.concatenate(surplus))

    def exact_report(self):
        """Single-pass exact expectations over a fully discrete instance.

        Seller payments use the amortization identity: the expected threshold
        payment equals the expected (purchase probability x discrete virtual
        cost), which telescopes exactly on the grid.
        """
        t = self._table
        S = t.S[:, None, :]
        atom = np.unravel_index(np.arange(len(t.S)), [len(d.atoms) for d in self.inst.seller_dists])  # per item, each row's atom
        tau = np.column_stack([dst._atom_virtuals(d, "seller")[k] for d, k in zip(self.inst.seller_dists, atom)])[:, None, :]
        w = np.outer(t.pS, t.pB)

        def total(per_profile) -> float:  # weighted, summed over (s, b) in row-major order
            return float(_ordered_sum((w * per_profile).ravel(), axis=0))

        gft = total(np.vecdot(t.beta, t.B - S))
        buyer_pay = total(np.vecdot(t.beta, t.theta[:, None, :]))
        seller_pay = total(item_sum(t.beta * tau))
        rule_term = total(t.surplus)
        return {
            "gft": gft,
            "buyer_payment": buyer_pay,
            "seller_payments": seller_pay,
            "wbb_slack": buyer_pay - seller_pay,
            "rule_virtual_surplus": rule_term,
            "xhat": dict(zip(map(tuple, t.S.tolist()), t.xhat)),
        }

    def sandwich_violation(self) -> float:
        """Largest violation of (q+q^2)/4 <= xhat_i(s) <= q/2 over the full
        seller grid (exact); <= 0 means the sandwich holds everywhere."""
        q, xhat = self._table.q, self._table.xhat
        return float(max(np.max((q + q * q) / 4.0 - xhat), np.max(xhat - q / 2.0)))

    def exact_dsic_gain(self) -> float:
        """Largest expected gain any seller can get from any grid misreport,
        exact over coins via the threshold-payment structure."""
        inst = self.inst
        t = self._table
        shape = tuple(len(d.values) for d in inst.seller_dists) + (len(t.B),)
        worst = -np.inf
        for i, d in enumerate(inst.seller_dists):
            atoms = d.atoms
            others = [inst.seller_dists[j] for j in range(inst.n) if j != i]
            opr = _product_grid(others)[1] if others else np.ones(1)
            # betas[r, z]: seller i's purchase probability at report atoms[z],
            # rows r over (other sellers' profile, buyer profile), row-major
            betas = np.moveaxis(t.beta[..., i].reshape(shape), i, -1).reshape(-1, len(atoms))
            w = np.outer(opr, t.pB).ravel()
            diffs = betas - np.concatenate((betas[:, 1:], np.zeros((len(betas), 1))), axis=1)  # Pr[threshold = z]
            pay_tail = np.cumsum((diffs * atoms)[:, ::-1], axis=1)[:, ::-1]
            # util[a, z]: truthful cost atoms[a], reported atoms[z]; n truthful
            # atoms at a time keep the block at the table's size
            util = np.concatenate([_ordered_sum(w[:, None] * (pay_tail - atoms[k:k + inst.n, None, None] * betas), axis=1) for k in range(0, len(atoms), inst.n)])
            worst = max(worst, float((util - np.diag(util)[:, None]).max()))
        return worst


# -- offering mechanisms ---------------------------------------------------------


class BuyerOffering:
    """The buyer procures a max-weight feasible set at ironed virtual costs and
    pays those costs; traded sellers get threshold payments. An item trades
    only when b - tau(s) > 0, with no tolerance."""

    name = "buyer_offering"

    def __init__(self, inst: MarketInstance):
        self.inst = inst

    def allocation(self, B, S) -> np.ndarray:
        return fea.max_weight_values(self.inst.constraint, B - self.inst.virtuals(S, "seller"))[1]

    def outcome_batch(self, B, S, coins=None):
        tau = self.inst.virtuals(S, "seller")
        W = B - tau
        X = fea.max_weight_values(self.inst.constraint, W)[1]
        k = fea.size_cap(self.inst.constraint)

        def guess(rows):
            # i trades while its weight beats the critical weight c_i, the
            # k-th largest positive weight among the other items (else 0):
            # the k-th largest of the row, or the (k+1)-th where i is among
            # the k largest
            P = np.maximum(W[rows], 0.0)
            top = np.sort(P, axis=1)[:, ::-1]
            c = np.where(P >= top[:, k - 1:k], top[:, k:k + 1], top[:, k - 1:k]) if k < self.inst.n else 0.0
            Y = B[rows] - c
            return np.stack([iv.inverse(Y[:, i]) for i, iv in enumerate(self.inst.seller_ironed)], axis=-1)

        pay = _thresholds(self.inst.seller_dists, X, S, lambda rows, St: self.allocation(B[rows], St), None if k is None else guess)
        return X, item_sum(np.where(X, tau, 0.0)), pay

    run = _run
    run_batch = expected_gft_rows = _realized_gft
    expected_gft_given_profile = _expected_gft


class SellerOffering:
    """Bilateral only: trade iff the buyer's ironed virtual value clears the
    cost; the buyer pays her threshold value, the seller receives it.
    A seller with phi-tilde(b) = s (within TOL) sells at the lower price."""

    name = "seller_offering"

    def __init__(self, inst: MarketInstance):
        if inst.n != 1:
            raise ValueError("seller-offering is a bilateral mechanism")
        self.inst = inst

    def allocation(self, B, S) -> np.ndarray:
        return (self.inst.buyer_ironed[0](B[:, 0]) >= S[:, 0] - TOL)[:, None]

    def outcome_batch(self, B, S, coins=None):
        X = self.allocation(B, S)
        phi = self.inst.buyer_ironed[0]
        price = _thresholds(self.inst.buyer_dists, X, B, lambda rows, Bt: self.allocation(Bt, S[rows]), lambda rows: phi.inverse(S[rows] - TOL), up=False)
        return X, price[:, 0], price

    run = _run
    run_batch = expected_gft_rows = _realized_gft
    expected_gft_given_profile = _expected_gft
