"""Executable mechanisms: fixed and constrained posted prices, seller-adjusted
posted prices, buyer-offering, and seller-offering.

Every mechanism maps a realized profile (b, s) to an Outcome (traded set,
buyer payment, per-seller payments, realized GFT). Mechanism objects are bound
to a MarketInstance at construction; module-level run_* helpers mirror them
functionally.

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

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import product
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import distributions as dst
from . import feasibility as fea
from .distributions import Dist, IronedVirtual
from .feasibility import Constraint

TOL = 1e-9

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
    "run_fpp",
    "run_cfpp",
    "sapp_build",
    "run_sapp",
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

    def sample_profiles(self, rng: np.random.Generator, m: int) -> tuple[np.ndarray, np.ndarray]:
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

    @property
    def traded_set(self) -> frozenset[int]:
        return frozenset(self.traded)


def _gft(b, s, traded: Iterable[int]) -> float:
    """Realized GFT, summed over the traded items in increasing order."""
    return float(sum(b[i] - s[i] for i in sorted(traded)))


def _outcome(b, s, traded: Iterable[int], buyer_payment: float, seller_payments) -> Outcome:
    traded = tuple(sorted(traded))
    return Outcome(traded, float(buyer_payment), tuple(float(x) for x in seller_payments), _gft(b, s, traded))


def _no_trade(n: int) -> Outcome:
    return Outcome((), 0.0, (0.0,) * n, 0.0)


# -- profile grids (exact enumeration helpers) --------------------------------


def _product_grid(dists: Sequence[Dist], cap: int = 10**7) -> tuple[np.ndarray, np.ndarray]:
    """All value tuples over the given discrete dists and their probabilities."""
    size = 1
    for d in dists:
        if d.kind != "discrete":
            raise ValueError("exact enumeration needs discrete distributions")
        size *= len(d.values)
        if size > cap:
            raise fea.CapacityError(f"profile grid exceeds {cap} points")
    grids = np.array(list(product(*(d.values for d in dists))), dtype=float)
    probs = np.ones(len(grids))
    for j, d in enumerate(dists):
        lookup = dict(zip(d.values, d.probs))
        probs *= np.array([lookup[v] for v in grids[:, j]])
    return grids, probs


def buyer_grid(inst: MarketInstance) -> tuple[np.ndarray, np.ndarray]:
    return _product_grid(inst.buyer_dists)


def seller_grid(inst: MarketInstance) -> tuple[np.ndarray, np.ndarray]:
    return _product_grid(inst.seller_dists)


# -- fixed posted prices -------------------------------------------------------


def _posted_purchase(inst, b, theta_b, available, sub: Constraint) -> tuple[int, ...]:
    """Utility-maximizing purchase from `available` at prices theta_b under sub,
    buying at equality: zero-surplus items join the chosen set when feasible."""
    if not available:
        return ()
    w = {i: float(b[i] - theta_b[i]) for i in available}
    c_eff = fea.restrict(sub, available)
    chosen, _ = fea.max_weight_set(c_eff, w)
    taken = list(chosen)
    for i in sorted(available):
        if i not in taken and abs(w[i]) <= TOL:
            if fea.is_feasible(c_eff, taken + [i]):
                taken.append(i)
    return tuple(sorted(taken))


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

    def run(self, b, s, rng=None) -> Outcome:
        b = np.asarray(b, dtype=float)
        s = np.asarray(s, dtype=float)
        willing = [i for i in range(self.inst.n) if s[i] <= self.theta_s[i] + TOL]
        afford = [i for i in willing if b[i] >= self.theta_b[i] - TOL]
        traded = _posted_purchase(self.inst, b, self.theta_b, afford, self.inst.constraint)
        pays = [self.theta_s[i] if i in traded else 0.0 for i in range(self.inst.n)]
        return _outcome(b, s, traded, sum(self.theta_b[i] for i in traded), pays)

    def run_batch(self, B: np.ndarray, S: np.ndarray, rng=None) -> np.ndarray:
        """Vectorized per-sample GFT for the simple constraint families."""
        variant = self.inst.constraint.variant
        active = (S <= self.theta_s + TOL) & (B >= self.theta_b - TOL)
        gain = np.where(active, B - S, 0.0)
        surplus = np.where(active, B - self.theta_b, -np.inf)
        if variant == "additive":
            return np.where(surplus >= -TOL, gain, 0.0).sum(axis=1)
        if variant == "unit_demand":
            best = np.argmax(surplus, axis=1)
            rows = np.arange(len(B))
            ok = surplus[rows, best] >= -TOL
            return np.where(ok, gain[rows, best], 0.0)
        if variant == "k_uniform":
            k = self.inst.constraint.k
            picked = np.where(surplus >= -TOL, gain, 0.0)
            order = np.argsort(-np.where(surplus >= -TOL, surplus, -np.inf), axis=1)
            rows = np.arange(len(B))[:, None]
            take = np.zeros_like(picked, dtype=bool)
            take[rows, order[:, :k]] = True
            return np.where(take, picked, 0.0).sum(axis=1)
        return np.array([self.run(B[t], S[t]).gft for t in range(len(B))])

    def expected_gft_given_profile(self, b, s) -> float:
        return self.run(b, s).gft


class Cfpp(Fpp):
    """Constrained posted prices: the purchase set must lie in `sub`.

    Under a size-floor subconstraint the buyer takes the best set of size >= h
    with nonnegative total utility (zero total still buys), else nothing.
    """

    def __init__(self, inst, theta_b, theta_s, sub: Constraint, name: str = "cfpp"):
        super().__init__(inst, theta_b, theta_s, name)
        if set(sub.ground) - set(inst.constraint.ground):
            raise ValueError("subconstraint ground exceeds market ground")
        self.sub = sub

    def run(self, b, s, rng=None) -> Outcome:
        b = np.asarray(b, dtype=float)
        s = np.asarray(s, dtype=float)
        n = self.inst.n
        willing = [i for i in self.sub.ground if s[i] <= self.theta_s[i] + TOL]
        if self.sub.variant == "size_floor":
            if not willing:
                return _no_trade(n)
            w = {i: float(b[i] - self.theta_b[i]) for i in willing}
            c_eff = fea.restrict(self.sub, willing)
            chosen, total = fea.max_weight_set(c_eff, w)
            if not chosen and self.sub.h >= 1:
                # a zero-utility floor-meeting set still trades (ties favor purchase)
                zero = [i for i in willing if abs(w[i]) <= TOL]
                if zero:
                    cand, card = fea.max_weight_set(fea.restrict(self.sub, zero), {i: 1.0 for i in zero})
                    if len(cand) >= self.sub.h:
                        chosen = cand
            traded = chosen
        else:
            afford = [i for i in willing if b[i] >= self.theta_b[i] - TOL]
            traded = _posted_purchase(self.inst, b, self.theta_b, afford, self.sub)
        pays = [self.theta_s[i] if i in traded else 0.0 for i in range(n)]
        return _outcome(b, s, traded, sum(self.theta_b[i] for i in traded), pays)

    run_batch = None  # the generic loop is used; sub families vary too much


# -- allocation rules ----------------------------------------------------------


@dataclass(frozen=True)
class AllocationRule:
    """A (b, s) -> x in {0,1}^n rule obeying the seller-adjusted construction
    hypotheses: sum x_i <= 1, x_i nonincreasing in s_i, nondecreasing in s_j.
    `fn` takes b and s with items on the last axis and any leading shapes that
    broadcast (one profile is the one-row case); calling the rule broadcasts the
    result to that shape, so a constant `fn` works too. `q_fn` maps one s to q(s)."""

    name: str
    n: int
    fn: Callable[[np.ndarray, np.ndarray], np.ndarray]
    q_fn: Callable[[np.ndarray], np.ndarray] | None = None

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

    def q_fn(s: np.ndarray) -> np.ndarray:
        # per-item product form: the rule factorizes across items
        q = np.zeros(inst.n)
        below = [_prob_below(inst.buyer_dists[j], s[j]) for j in range(inst.n)]
        for i in L:
            others = 1.0
            for j in L:
                if j != i:
                    others *= below[j]
            q[i] = _prob_trade_willing(inst.buyer_dists[i], phi[i], s[i]) * others
        return q

    return AllocationRule(f"unlikely_trade({list(L)})", inst.n, fn, q_fn)


def _prob_below(d: Dist, v: float) -> float:
    """Pr[X < v]."""
    if d.kind == "discrete":
        return float(sum(p for val, p in zip(d.values, d.probs) if val < v - dst.ATOL))
    return d.cdf(v)


def _prob_trade_willing(d: Dist, phi: IronedVirtual, s: float) -> float:
    """Pr[b >= s and phi(b) >= s] for one item."""
    if d.kind == "discrete":
        return float(
            sum(p for v, p in zip(d.values, d.probs) if v >= s - TOL and phi(v) >= s - TOL)
        )
    lo, hi = d.support()
    if phi(hi) < s - TOL:
        return 0.0
    # phi nondecreasing: find the lowest value clearing s, then take the tail
    a, b = lo, hi
    if phi(a) >= s - TOL:
        cut = a
    else:
        for _ in range(80):
            mid = 0.5 * (a + b)
            if phi(mid) >= s - TOL:
                b = mid
            else:
                a = mid
        cut = b
    return d.tail(max(s, cut))


def reduction_rule(inst: MarketInstance) -> AllocationRule:
    """Serve the item with the highest ironed-virtual-value surplus when that
    surplus is nonnegative (ties to the lowest index)."""
    phi = inst.buyer_ironed

    def fn(b: np.ndarray, s: np.ndarray) -> np.ndarray:
        d = np.stack([phi[i](b[..., i]) for i in range(inst.n)], axis=-1) - s
        best = np.argmax(d, axis=-1)[..., None]
        serve = (np.arange(inst.n) == best) & (np.take_along_axis(d, best, axis=-1) >= -TOL)
        return serve.astype(float)

    return AllocationRule("reduction", inst.n, fn)


# -- seller-adjusted posted prices ---------------------------------------------

SAPP_CACHE_CAP = 1024  # price-map entries kept for off-grid seller profiles
SAPP_TABLE_BYTES = 2**26  # largest (|S|, |B|, n) float table; an audit peaks near 6x it (470 MB at 63 MB)


def _ordered_sum(a: np.ndarray, axis: int) -> np.ndarray:
    """Sum along `axis` in index order, bit for bit a running `total += t`
    from 0.0 (np.sum adds pairwise, in a different order)."""
    return np.cumsum(a, axis=axis).take(-1, axis=axis) + 0.0


class SappPriceMap:
    """Prices theta_i(s) derived from an allocation rule.

    q_i(s) = E_b[x_i(b,s) * 1[phi_i(b_i) >= s_i]], theta_i(s) the buyer
    quantile at 1 - q_i(s)/2, and alpha_i(s) the boundary-coin probability
    calibrated so Pr[afford i] = q_i(s)/2 exactly on discrete grids.

    `rows` computes all three for an array of seller profiles. Entries for the
    seller grid are filled by Sapp's exact table; other profiles are cached up
    to SAPP_CACHE_CAP entries, oldest evicted first.
    """

    def __init__(self, inst: MarketInstance, rule: AllocationRule, mc_samples: int = 4096, seed: int = 0):
        self.inst = inst
        self.rule = rule
        self._grid: dict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._cache: dict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._bgrid = self._bprobs = None  # the buyer rows q averages over, and their weights
        if all(d.kind == "discrete" for d in inst.buyer_dists):
            self._bgrid, self._bprobs = buyer_grid(inst)
        elif rule.q_fn is None:
            # a fixed-seed sample, equally weighted, keeps the map deterministic
            self._bgrid, _ = inst.sample_profiles(np.random.default_rng(seed), mc_samples)
        self.q_is_exact = self._bgrid is None or self._bprobs is not None
        if self._bgrid is not None:
            self._bphi = np.column_stack([inst.buyer_ironed[i](self._bgrid[:, i]) for i in range(inst.n)])
        self._atoms = {}  # per discrete buyer item: atoms, cdf, Pr[b > atom], (positive) mass at atom
        for i, d in enumerate(inst.buyer_dists):
            if d.kind == "discrete":
                mass = np.array([d.mass(v) for v in d.values])
                above = np.array([d.tail(v) for v in d.values]) - mass
                self._atoms[i] = (np.asarray(d.values), np.cumsum(d.probs), above, mass)

    def q(self, s) -> np.ndarray:
        return self._entry(s)[0]

    def theta(self, s) -> np.ndarray:
        return self._entry(s)[1]

    def alpha(self, s) -> np.ndarray:
        return self._entry(s)[2]

    def _entry(self, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        key = tuple(np.asarray(s, dtype=float).tolist())
        hit = self._grid.get(key) or self._cache.get(key)
        if hit is None:
            q, theta, alpha = self.rows(np.array([key]))
            hit = (q[0], theta[0], alpha[0])
            if len(self._cache) >= SAPP_CACHE_CAP:
                del self._cache[next(iter(self._cache))]
            self._cache[key] = hit
        return hit

    def _kept(self, S: np.ndarray) -> np.ndarray:
        """x_i(b, s) * 1[phi_i(b_i) >= s_i] over seller rows S x buyer rows b."""
        s = S[:, None, :]
        return self.rule(self._bgrid, s) * (self._bphi >= s - TOL)

    def rows(self, S) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(q, theta, alpha) for a (k, n) array of seller profiles, each (k, n)."""
        S = np.asarray(S, dtype=float)
        if self._bgrid is None:
            q = np.array([np.clip(self.rule.q_fn(s), 0.0, 1.0) for s in S]).reshape(S.shape)
        elif self._bprobs is None:
            q = _ordered_sum(self._kept(S), axis=1) / len(self._bgrid)
        else:
            q = _ordered_sum(self._kept(S) * self._bprobs[:, None], axis=1)
        theta = np.empty_like(q)
        alpha = np.zeros_like(q)
        for i, d in enumerate(self.inst.buyer_dists):
            u = 1.0 - q[:, i] / 2.0
            if d.kind != "discrete":
                theta[:, i] = d.ppf(u)
                continue
            values, cdf, above, mass = self._atoms[i]
            k = np.minimum(np.searchsorted(cdf, u - dst.ATOL, side="left"), len(values) - 1)
            theta[:, i] = values[k]
            alpha[:, i] = np.clip((q[:, i] / 2.0 - above[k]) / mass[k], 0.0, 1.0)
        return q, theta, alpha


def _validate_rule(inst: MarketInstance, rule: AllocationRule, probes: int = 48, seed: int = 7) -> None:
    rng = np.random.default_rng(seed)
    B, S = inst.sample_profiles(rng, probes)
    X = rule(B, S)
    if np.any(X.sum(axis=-1) > 1.0 + TOL):
        raise ValueError("allocation rule serves more than one item")
    for i in range(inst.n):
        lo, hi = inst.seller_dists[i].support()
        bumped = S.copy()
        bumped[:, i] = np.minimum(hi, S[:, i] + 0.25 * (hi - S[:, i]) + 1e-6)
        X2 = rule(B, bumped)
        if np.any(X2[:, i] > X[:, i] + TOL):
            raise ValueError(f"rule not nonincreasing in the cost of item {i}")
        fell = X2 < X - TOL
        fell[:, i] = False
        if fell.any():
            j = np.argwhere(fell)[0][1]
            raise ValueError(f"rule not nondecreasing in item {i}'s cost for item {j}")


def sapp_build(inst: MarketInstance, rule: AllocationRule, mc_samples: int = 4096, seed: int = 0) -> SappPriceMap:
    """Derive the seller-adjusted price map from an allocation rule, validating
    the rule hypotheses on sampled profiles first."""
    _validate_rule(inst, rule)
    return SappPriceMap(inst, rule, mc_samples=mc_samples, seed=seed)


def _hash_coins(b: np.ndarray, s: np.ndarray, n: int) -> np.ndarray:
    """Deterministic pseudo-coins for coin-less calls; audits that need coin
    control pass their own."""
    payload = np.asarray(b, dtype=float).tobytes() + np.asarray(s, dtype=float).tobytes()
    out = np.empty(n)
    for i in range(n):
        dig = hashlib.blake2b(payload + i.to_bytes(4, "little"), digest_size=8).digest()
        out[i] = int.from_bytes(dig, "little") / 2.0**64
    return out


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


class Sapp:
    """Runs a SappPriceMap: posts theta(s), sells at most one item, pays the
    traded seller her threshold (largest still-trading cost report)."""

    def __init__(self, inst: MarketInstance, pmap: SappPriceMap, name: str | None = None):
        self.inst = inst
        self.pmap = pmap
        self.name = name or f"sapp[{pmap.rule.name}]"

    # -- realized execution --

    def _afford(self, b, theta, alpha, coins) -> np.ndarray:
        sure = b > theta + TOL
        boundary = np.abs(b - theta) <= TOL
        return sure | (boundary & (coins < alpha))

    def _winner(self, b, theta, afford) -> int | None:
        if not afford.any():
            return None
        surplus = np.where(afford, b - theta, -np.inf)
        return int(np.argmax(surplus))

    def _trades(self, i, b, s, coins) -> bool:
        _, theta, alpha = self.pmap._entry(s)
        return self._winner(b, theta, self._afford(b, theta, alpha, coins)) == i

    def run(self, b, s, rng: np.random.Generator | None = None, coins: np.ndarray | None = None) -> Outcome:
        b = np.asarray(b, dtype=float)
        s = np.asarray(s, dtype=float)
        n = self.inst.n
        if coins is None:
            coins = rng.random(n) if rng is not None else _hash_coins(b, s, n)
        _, theta, alpha = self.pmap._entry(s)
        win = self._winner(b, theta, self._afford(b, theta, alpha, coins))
        if win is None:
            return _no_trade(n)
        pays = [0.0] * n
        pays[win] = self._threshold_payment(win, b, s, coins)
        return _outcome(b, s, (win,), theta[win], pays)

    def _threshold_payment(self, i, b, s, coins) -> float:
        d = self.inst.seller_dists[i]
        if d.kind == "discrete":
            for v in sorted(d.values, reverse=True):
                if v < s[i] - TOL:
                    break
                trial = s.copy()
                trial[i] = v
                if self._trades(i, b, trial, coins):
                    return float(v)
            return float(s[i])
        lo, hi = float(s[i]), d.support()[1]
        trial = s.copy()
        trial[i] = hi
        if self._trades(i, b, trial, coins):
            return hi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            trial[i] = mid
            if self._trades(i, b, trial, coins):
                lo = mid
            else:
                hi = mid
        return lo

    # -- exact coin-integrated machinery (discrete paths) --

    @staticmethod
    def _beta_rows(B, theta, alpha) -> np.ndarray:
        """Purchase probabilities over rows (items last; B, theta, alpha broadcast),
        coins integrated: the sure-afford item of largest surplus (lowest index
        on ties), else boundary item i with alpha_i times Pr[no earlier coin sold]."""
        sure = B > theta + TOL
        best = np.argmax(np.where(sure, B - theta, -np.inf), axis=-1)[..., None]
        coin = np.where(np.abs(B - theta) <= TOL, alpha, 0.0)
        live = np.cumprod(1.0 - coin, axis=-1)
        live = np.concatenate((np.ones_like(live[..., :1]), live[..., :-1]), axis=-1)
        won = (np.arange(B.shape[-1]) == best).astype(float)
        return np.where(sure.any(axis=-1, keepdims=True), won, coin * live)

    def beta(self, b, s) -> np.ndarray:
        """Per-item purchase probability given the profile, integrating only
        over the boundary coins (closed form); one row of `_beta_rows`."""
        _, theta, alpha = self.pmap._entry(s)
        return self._beta_rows(np.asarray(b, dtype=float), theta, alpha)

    def expected_gft_given_profile(self, b, s) -> float:
        return float(np.dot(self.beta(b, s), np.asarray(b, float) - np.asarray(s, float)))

    @cached_property
    def _table(self) -> _SappTable:
        """Beta over the full seller x buyer grid, built once; it also fills
        the price map's entries for the seller grid."""
        inst = self.inst
        if not inst.is_discrete:
            raise ValueError("exact SAPP accounting needs a fully discrete instance")
        nbytes = math.prod(len(d.values) for d in inst.seller_dists + inst.buyer_dists) * inst.n * 8
        if nbytes > SAPP_TABLE_BYTES:
            raise fea.CapacityError(f"SAPP table needs {nbytes} bytes, over {SAPP_TABLE_BYTES}")
        S, pS = seller_grid(inst)
        B, pB = self.pmap._bgrid, self.pmap._bprobs
        q, theta, alpha = self.pmap.rows(S)
        self.pmap._grid.update(zip(map(tuple, S.tolist()), zip(q, theta, alpha)))
        beta = self._beta_rows(B, theta[:, None, :], alpha[:, None, :])
        xhat = _ordered_sum(pB[:, None] * beta, axis=1)
        return _SappTable(S, pS, B, pB, q, theta, beta, xhat)

    def exact_report(self):
        """Single-pass exact expectations over a fully discrete instance.

        Seller payments use the amortization identity: the expected threshold
        payment equals the expected (purchase probability x discrete virtual
        cost), which telescopes exactly on the grid.
        """
        t = self._table
        S = t.S[:, None, :]
        tau = np.column_stack([
            np.array([dst.seller_virtual(d, v) for v in d.values])[np.searchsorted(d.values, t.S[:, i])]
            for i, d in enumerate(self.inst.seller_dists)
        ])[:, None, :]
        w = np.outer(t.pS, t.pB)

        def total(per_profile) -> float:  # weighted, summed over (s, b) in row-major order
            return float(_ordered_sum((w * per_profile).ravel(), axis=0))

        gft = total(np.vecdot(t.beta, t.B - S))
        buyer_pay = total(np.vecdot(t.beta, t.theta[:, None, :]))
        seller_pay = total(_ordered_sum(t.beta * tau, axis=-1))
        rule_term = total(np.vecdot(self.pmap._kept(t.S), self.pmap._bphi - S))
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
            atoms = np.asarray(d.values, dtype=float)
            others = [inst.seller_dists[j] for j in range(inst.n) if j != i]
            opr = _product_grid(others)[1] if others else np.ones(1)
            # betas[r, z]: seller i's purchase probability at report atoms[z],
            # rows r over (other sellers' profile, buyer profile), row-major
            betas = np.moveaxis(t.beta[..., i].reshape(shape), i, -1).reshape(-1, len(atoms))
            w = np.outer(opr, t.pB).ravel()
            diffs = betas - np.concatenate((betas[:, 1:], np.zeros((len(betas), 1))), axis=1)  # Pr[threshold = z]
            pay_tail = np.cumsum((diffs * atoms)[:, ::-1], axis=1)[:, ::-1]
            # util[a, z]: truthful cost atoms[a], reported atoms[z]; one
            # truthful atom at a time keeps the block at the table's size
            util = np.array([_ordered_sum(w[:, None] * (pay_tail - a * betas), axis=0) for a in atoms])
            worst = max(worst, float((util - np.diag(util)[:, None]).max()))
        return worst


def run_fpp(inst, theta_b, theta_s, profile) -> Outcome:
    b, s = profile
    return Fpp(inst, theta_b, theta_s).run(b, s)


def run_cfpp(inst, theta_b, theta_s, sub: Constraint, profile) -> Outcome:
    b, s = profile
    return Cfpp(inst, theta_b, theta_s, sub).run(b, s)


def run_sapp(pmap: SappPriceMap, inst: MarketInstance, profile, rng=None, coins=None) -> Outcome:
    b, s = profile
    return Sapp(inst, pmap).run(b, s, rng=rng, coins=coins)


# -- offering mechanisms ---------------------------------------------------------


class BuyerOffering:
    """The buyer procures a max-weight feasible set at ironed virtual costs and
    pays those costs; traded sellers get threshold payments. An item trades
    only when b - tau(s) > 0, with no tolerance, in run and run_batch alike."""

    name = "buyer_offering"

    def __init__(self, inst: MarketInstance):
        self.inst = inst

    def _tau(self, s) -> np.ndarray:
        return np.array([self.inst.seller_ironed[i](s[i]) for i in range(self.inst.n)])

    def _alloc(self, b, tau) -> tuple[int, ...]:
        w = {i: float(b[i] - tau[i]) for i in range(self.inst.n)}
        chosen, _ = fea.max_weight_set(self.inst.constraint, w)
        return chosen

    def run(self, b, s, rng=None) -> Outcome:
        b = np.asarray(b, dtype=float)
        s = np.asarray(s, dtype=float)
        tau = self._tau(s)
        traded = self._alloc(b, tau)
        pays = [0.0] * self.inst.n
        for i in traded:
            pays[i] = self._seller_threshold(i, b, s, tau)
        return _outcome(b, s, traded, sum(tau[i] for i in traded), pays)

    def _seller_threshold(self, i, b, s, tau) -> float:
        """Largest cost report at which seller i still trades. Only tau_i
        moves with that report, so the other sellers' tau are reused."""
        d = self.inst.seller_dists[i]
        iv = self.inst.seller_ironed[i]
        trial = tau.copy()

        def traded(v) -> bool:
            trial[i] = iv(v)
            return i in self._alloc(b, trial)

        if d.kind == "discrete":
            for v in sorted(d.values, reverse=True):
                if v < s[i] - TOL:
                    break
                if traded(v):
                    return float(v)
            return float(s[i])
        lo, hi = float(s[i]), d.support()[1]
        if traded(hi):
            return hi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if traded(mid):
                lo = mid
            else:
                hi = mid
        return lo

    def run_batch(self, B: np.ndarray, S: np.ndarray, rng=None) -> np.ndarray:
        variant = self.inst.constraint.variant
        tau = np.column_stack([self.inst.seller_ironed[i](S[:, i]) for i in range(self.inst.n)])
        w = B - tau
        gain = B - S
        if variant == "additive":
            return np.where(w > 0.0, gain, 0.0).sum(axis=1)
        if variant == "unit_demand":
            best = np.argmax(w, axis=1)
            rows = np.arange(len(B))
            ok = w[rows, best] > 0.0
            return np.where(ok, gain[rows, best], 0.0)
        return np.array([self.run(B[t], S[t]).gft for t in range(len(B))])

    def expected_gft_given_profile(self, b, s) -> float:
        """GFT of the allocation alone; run's threshold payments are not needed."""
        b = np.asarray(b, dtype=float)
        s = np.asarray(s, dtype=float)
        return _gft(b, s, self._alloc(b, self._tau(s)))


class SellerOffering:
    """Bilateral only: trade iff the buyer's ironed virtual value clears the
    cost; the buyer pays her threshold value, the seller receives it.
    A seller with phi-tilde(b) = s (within TOL) sells at the lower price."""

    name = "seller_offering"

    def __init__(self, inst: MarketInstance):
        if inst.n != 1:
            raise ValueError("seller-offering is a bilateral mechanism")
        self.inst = inst

    def _trades(self, b, s) -> bool:
        return self.inst.buyer_ironed[0](b[0]) >= s[0] - TOL

    def run(self, b, s, rng=None) -> Outcome:
        b = np.asarray(b, dtype=float).reshape(1)
        s = np.asarray(s, dtype=float).reshape(1)
        if not self._trades(b, s):
            return _no_trade(1)
        price = self._buyer_threshold(s[0], b[0])
        return _outcome(b, s, (0,), price, [price])

    def _buyer_threshold(self, s, b) -> float:
        d = self.inst.buyer_dists[0]
        phi = self.inst.buyer_ironed[0]
        if d.kind == "discrete":
            for v in d.values:  # ascending
                if phi(v) >= s - TOL:
                    return float(v)
            return float(b)
        lo, hi = d.support()[0], float(b)
        if phi(lo) >= s - TOL:
            return lo
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if phi(mid) >= s - TOL:
                hi = mid
            else:
                lo = mid
        return hi

    def run_batch(self, B: np.ndarray, S: np.ndarray, rng=None) -> np.ndarray:
        pv = self.inst.buyer_ironed[0](B[:, 0])
        return np.where(pv >= S[:, 0] - TOL, B[:, 0] - S[:, 0], 0.0)

    def expected_gft_given_profile(self, b, s) -> float:
        """GFT of the allocation alone; run's threshold price is not needed."""
        b = np.asarray(b, dtype=float).reshape(1)
        s = np.asarray(s, dtype=float).reshape(1)
        return _gft(b, s, (0,)) if self._trades(b, s) else 0.0
