"""Greedy online contention resolution for downward-closed constraints.

A scheme commits, given activation probabilities q_hat in delta * P_F, to a
random subconstraint F' <= F. It is (delta, eta)-selectable when every element
i satisfies Pr[S + i in F' for every F'-feasible S subseteq R \\ {i}] >= eta,
with R the random active set. Schemes here are greedy: the subconstraint is
drawn up front from a finite set of branches, and any arrival order gives the
same guarantee. So eta depends only on the active pattern of the other
elements and on the branch drawn, which is what both selectability
computations enumerate.

Also hosts the constrained-posted-price glue: activation-calibrated seller
prices and the Frank-Wolfe search for good activation vectors.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from . import distributions as dst
from . import feasibility as fea
from .feasibility import CapacityError, Constraint
from .mechanisms import Cfpp, MarketInstance, _prob_below

__all__ = [
    "GreedyOcrs",
    "unit_demand_ocrs",
    "knapsack_ocrs",
    "compose_ocrs",
    "estimate_selectability",
    "exact_selectability",
    "CfppPrices",
    "cfpp_prices",
    "optimize_q",
    "lower_bound_value",
]

_SUBSET_LIMIT = 18


Branches = tuple[tuple[float, Constraint], ...]


@dataclass(frozen=True)
class GreedyOcrs:
    """kind names the scheme; base_for binds the offline constraint to a ground
    size; branches(q_hat) lists the subconstraints the scheme may commit to,
    as (probability, constraint) pairs whose probabilities sum to 1;
    subconstraint_sampler(q_hat, seed) draws one of them, deterministically in
    the seed; claimed_eta(q_hat) is the scheme's own selectability lower
    bound."""

    kind: str
    delta: float
    base_for: Callable[[int], Constraint]
    branches: Callable[[np.ndarray], Branches]
    subconstraint_sampler: Callable[[np.ndarray, int], Constraint]
    claimed_eta: Callable[[np.ndarray], float]


def _check_delta(delta: float) -> None:
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must lie in (0, 1]")


def _rng_for(q_hat: np.ndarray, seed: int) -> np.random.Generator:
    payload = np.asarray(q_hat, dtype=float).tobytes() + int(seed).to_bytes(8, "little", signed=True)
    dig = hashlib.blake2b(payload, digest_size=8).digest()
    return np.random.default_rng(int.from_bytes(dig, "little"))


def _pick(branches: Branches, u):
    """Index of the branch that the uniform(s) u select, by cumulative
    probability; a branch of probability 0 is never picked."""
    cum = np.cumsum([p for p, _ in branches])
    return np.minimum(np.searchsorted(cum, u, side="right"), len(branches) - 1)


def _greedy_ocrs(kind: str, delta: float, base_for, branches, claimed) -> GreedyOcrs:
    """A scheme whose sampler seeds one uniform from (q_hat, seed) and uses it
    to pick a branch; a single-branch scheme draws nothing."""

    def sampler(q_hat: np.ndarray, seed: int) -> Constraint:
        options = branches(q_hat)
        if len(options) == 1:
            return options[0][1]
        return options[int(_pick(options, _rng_for(q_hat, seed).random()))][1]

    return GreedyOcrs(kind, delta, base_for, branches, sampler, claimed)


def unit_demand_ocrs(delta: float) -> GreedyOcrs:
    """Commit to the full unit-demand family: the first active element wins.

    Element i is admitted exactly when no other element is active, so
    eta = prod_{j != i}(1 - q_hat_j) >= 1 - sum q_hat_j >= 1 - delta.
    """
    _check_delta(delta)

    def claimed(q_hat: np.ndarray) -> float:
        q = np.asarray(q_hat, dtype=float)
        full = np.prod(1.0 - q)
        return float(min(full / (1.0 - qi) if qi < 1.0 else full for qi in q))

    return _full_family_ocrs("unit_demand", delta, lambda n: fea.unit_demand(range(n)), claimed)


def _full_family_ocrs(kind: str, delta: float, base_for, claimed) -> GreedyOcrs:
    return _greedy_ocrs(kind, delta, base_for, lambda q_hat: ((1.0, base_for(len(q_hat))),), claimed)


def knapsack_ocrs(delta: float, sizes: Sequence[float]) -> GreedyOcrs:
    """Adaptive two-class scheme for a capacity-1 knapsack.

    Classes: big = size > 1/2 (mutually exclusive), small = size <= 1/2. One
    coin picks the served class: big items as a unit-demand family, or small
    items under the full capacity. Serving-probability rho equalizes the two
    classes' selectability lower bounds (exact product for big, Markov for
    small); when a class is empty all probability goes to the other. The
    equalized minimum is never below (1-2*delta)/(2-2*delta), tight when all
    items have size 1/2.
    """
    _check_delta(delta)
    sz = np.asarray(sizes, dtype=float)
    if np.any(sz < 0) or np.any(sz > 1 + 1e-12):
        raise ValueError("knapsack sizes must lie in [0, 1]")
    n = len(sz)
    big = tuple(i for i in range(n) if sz[i] > 0.5)
    small = tuple(i for i in range(n) if sz[i] <= 0.5)
    big_set = frozenset(big)
    small_set = frozenset(small)

    def _big_only(ground: Sequence[int]) -> Constraint:
        return fea.matroid_oracle(lambda S: min(1, len(set(S) & big_set)), ground)

    def _small_only(ground: Sequence[int]) -> Constraint:
        free_small = fea.matroid_oracle(lambda S: len(set(S) & small_set), ground)
        return fea.intersection(fea.knapsack(sz), free_small)

    def _bounds(q_hat: np.ndarray) -> tuple[float, float]:
        q = np.asarray(q_hat, dtype=float)
        lb = 1.0
        for i in big:
            lb = min(lb, float(np.prod([1.0 - q[j] for j in big if j != i])) if len(big) > 1 else 1.0)
        ls = 1.0
        for i in small:
            load = float(sum(sz[j] * q[j] for j in small if j != i))
            room = 1.0 - sz[i]
            ls = min(ls, 1.0 if load == 0.0 else max(0.0, 1.0 - load / room))
        return lb, ls

    def _rho(q_hat: np.ndarray) -> float:
        if not big:
            return 0.0
        if not small:
            return 1.0
        lb, ls = _bounds(q_hat)
        if lb + ls <= 0.0:
            return 0.5
        return ls / (lb + ls)

    def branches(q_hat: np.ndarray) -> Branches:
        if len(q_hat) != n:
            raise ValueError("activation vector length must match the sizes")
        rho = _rho(np.asarray(q_hat, dtype=float))
        ground = range(n)
        if rho >= 1.0:
            return ((1.0, _big_only(ground)),)
        if rho <= 0.0:
            return ((1.0, _small_only(ground)),)
        return ((rho, _big_only(ground)), (1.0 - rho, _small_only(ground)))

    def claimed(q_hat: np.ndarray) -> float:
        lb, ls = _bounds(q_hat)
        rho = _rho(q_hat)
        vals = []
        if big:
            vals.append(rho * lb)
        if small:
            vals.append((1.0 - rho) * ls)
        return float(min(vals)) if vals else 1.0

    return _greedy_ocrs("knapsack", delta, lambda m: fea.knapsack(sz), branches, claimed)


def compose_ocrs(a: GreedyOcrs, b: GreedyOcrs) -> GreedyOcrs:
    """Intersect two schemes run with independent randomness. Both admission
    events are decreasing in the active set, so the selectabilities multiply."""
    if abs(a.delta - b.delta) > 1e-12:
        raise ValueError("composed schemes must share delta")

    def base_for(n: int) -> Constraint:
        return fea.intersection(a.base_for(n), b.base_for(n))

    def branches(q_hat: np.ndarray) -> Branches:
        return tuple(
            (pa * pb, fea.intersection(ca, cb)) for pa, ca in a.branches(q_hat) for pb, cb in b.branches(q_hat)
        )

    def sampler(q_hat: np.ndarray, seed: int) -> Constraint:
        return fea.intersection(
            a.subconstraint_sampler(q_hat, 2 * seed + 1),
            b.subconstraint_sampler(q_hat, 2 * seed + 2),
        )

    def claimed(q_hat: np.ndarray) -> float:
        return a.claimed_eta(q_hat) * b.claimed_eta(q_hat)

    return GreedyOcrs(f"compose[{a.kind},{b.kind}]", a.delta, base_for, branches, sampler, claimed)


def _admits(sub: Constraint, others: tuple[int, ...], i: int) -> bool:
    if not fea.is_feasible(sub, (i,)):
        return False
    if len(others) > _SUBSET_LIMIT:
        raise CapacityError("active set too large for exhaustive admission check")
    for r in range(1, len(others) + 1):
        for S in combinations(others, r):
            if fea.is_feasible(sub, S) and not fea.is_feasible(sub, S + (i,)):
                return False
    return True


def _checked_activation(ocrs: GreedyOcrs, q_hat: Sequence[float], i: int) -> np.ndarray:
    q = np.asarray(q_hat, dtype=float)
    if not 0 <= i < len(q):
        raise ValueError("element index out of range")
    if not fea.in_scaled_polytope(ocrs.base_for(len(q)), q, ocrs.delta):
        raise ValueError("activation vector outside delta-scaled polytope")
    return q


def _admission(branches: Branches, n: int, i: int) -> Callable[[int], bool]:
    """admits(key): whether i is admissible under a key whose low n-1 bits are
    the active pattern of the other elements, in index order, and whose high
    bits are the branch index."""
    others = [j for j in range(n) if j != i]
    m = len(others)

    def admits(key: int) -> bool:
        active = tuple(j for t, j in enumerate(others) if key >> t & 1)
        return _admits(branches[key >> m][1], active, i)

    return admits


def estimate_selectability(
    ocrs: GreedyOcrs,
    q_hat: Sequence[float],
    i: int,
    samples: int = 10**5,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo estimate of Pr[element i is admissible] with its stderr.

    Each sample draws the active set and, when the scheme has more than one
    branch, a uniform that picks the branch. Admission is verified
    exhaustively (every feasible subset of the other active elements still
    admits i) once per distinct (active pattern, branch) key.
    """
    q = _checked_activation(ocrs, q_hat, i)
    n = len(q)
    branches = ocrs.branches(q)
    rng = np.random.default_rng(seed)
    active = rng.random((samples, n)) < q
    m = n - 1
    # keys wider than int64 fall back to Python integers
    dtype = np.int64 if m + (len(branches) - 1).bit_length() < 63 else object
    keys = np.delete(active, i, axis=1).astype(dtype) @ np.array([1 << t for t in range(m)], dtype=dtype)
    if len(branches) > 1:
        keys = keys + _pick(branches, rng.random(samples)).astype(dtype) * (1 << m)
    admits = _admission(branches, n, int(i))
    distinct, counts = np.unique(keys, return_counts=True)
    hits = sum(int(c) for key, c in zip(distinct, counts) if admits(int(key)))
    eta = hits / samples
    return eta, math.sqrt(max(eta * (1.0 - eta), 1e-12) / samples)


def exact_selectability(ocrs: GreedyOcrs, q_hat: Sequence[float], i: int) -> float:
    """Pr[element i is admissible]: the sum over every active pattern of the
    other elements and every branch of Pr[pattern] * Pr[branch] * admits."""
    q = _checked_activation(ocrs, q_hat, i)
    n = len(q)
    m = n - 1
    if m > _SUBSET_LIMIT:
        raise CapacityError(f"2^{m} active patterns exceed the exact enumeration limit 2^{_SUBSET_LIMIT}")
    branches = ocrs.branches(q)
    q_others = np.delete(q, i)
    admits = _admission(branches, n, int(i))
    total = 0.0
    for key in range(len(branches) << m):
        if admits(key):
            pr = math.prod(q_others[t] if key >> t & 1 else 1.0 - q_others[t] for t in range(m))
            total += branches[key >> m][0] * pr
    return float(total)


# -- constrained posted prices from activation targets ---------------------------


def _scheme_for(constraint: Constraint, delta: float) -> GreedyOcrs:
    v = constraint.variant
    if v == "additive":
        return _full_family_ocrs("additive", delta, lambda n: fea.additive(range(n)), lambda q: 1.0)
    if v == "unit_demand":
        return unit_demand_ocrs(delta)
    if v == "k_uniform":
        k = constraint.k

        def claimed(q_hat: np.ndarray) -> float:
            # Markov: Pr[|R \ i| >= k] <= sum q_hat / k <= delta
            return max(0.0, 1.0 - float(np.sum(q_hat)) / k)

        return _full_family_ocrs("k_uniform", delta, lambda n: fea.k_uniform(k, range(n)), claimed)
    if v == "knapsack":
        return knapsack_ocrs(delta, constraint.sizes)
    if v == "intersection":
        scheme = _scheme_for(constraint.members[0], delta)
        for m in constraint.members[1:]:
            scheme = compose_ocrs(scheme, _scheme_for(m, delta))
        return scheme
    raise ValueError(f"no greedy scheme for constraint variant {v!r}")


@dataclass(frozen=True)
class CfppPrices:
    theta_b: np.ndarray
    theta_s: np.ndarray
    activation: np.ndarray
    ocrs: GreedyOcrs

    def mechanism(self, inst: MarketInstance, seed: int = 0) -> Cfpp:
        sub = self.ocrs.subconstraint_sampler(self.activation, seed)
        return Cfpp(inst, self.theta_b, self.theta_s, sub)


def cfpp_prices(inst: MarketInstance, p: Sequence[float], q: Sequence[float], delta: float) -> CfppPrices:
    """Seller prices calibrated so item i activates (buyer clears p_i, seller
    accepts) with probability delta * q_i, plus the matching greedy scheme."""
    _check_delta(delta)
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    n = inst.n
    if p.shape != (n,) or q.shape != (n,):
        raise ValueError("p and q must have one entry per item")
    if not fea.in_scaled_polytope(inst.constraint, q, 1.0):
        raise ValueError("q must lie in the constraint polytope")
    theta_s = np.empty(n)
    for i in range(n):
        pr_b = inst.buyer_dists[i].tail(p[i])
        cap = pr_b * _prob_below(inst.seller_dists[i], p[i])
        if q[i] > cap + 1e-9:
            raise ValueError(f"q[{i}] exceeds Pr[b >= p > s] = {cap:.6g}")
        if pr_b <= 0.0 or q[i] <= 0.0:
            lo = inst.seller_dists[i].support()[0]
            theta_s[i] = lo - 1.0
        else:
            theta_s[i] = dst.quantile(inst.seller_dists[i], min(1.0, delta * q[i] / pr_b))
    return CfppPrices(p.copy(), theta_s, delta * q, _scheme_for(inst.constraint, delta))


# -- activation search (Frank-Wolfe on the concave surrogate) --------------------


def _h_integral(d: dst.Dist, w: float) -> float:
    """int_0^w quantile_d(u) du, exact for discrete d."""
    if w <= 0.0:
        return 0.0
    if d.kind == "discrete":
        total = 0.0
        prev = 0.0
        for v, pmass in zip(d.values, d.probs):
            hi = min(w, prev + pmass)
            if hi > prev:
                total += v * (hi - prev)
            prev += pmass
            if prev >= w:
                break
        return total
    from scipy.integrate import quad

    val, _ = quad(lambda u: dst.quantile(d, u), 0.0, min(w, 1.0), limit=200)
    return float(val)


def lower_bound_value(inst: MarketInstance, p: Sequence[float], q: Sequence[float]) -> float:
    """The concave objective sum_i [q_i * p_i - PrB_i * int_0^{q_i/PrB_i} G_i^{-1}]
    with q clamped to its per-item cap."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    total = 0.0
    for i in range(inst.n):
        pr_b = inst.buyer_dists[i].tail(p[i])
        if pr_b <= 0.0:
            continue
        cap = pr_b * _prob_below(inst.seller_dists[i], p[i])
        w = min(q[i], cap)
        if w <= 0.0:
            continue
        total += w * p[i] - pr_b * _h_integral(inst.seller_dists[i], w / pr_b)
    return float(total)


def optimize_q(
    inst: MarketInstance,
    p: Sequence[float],
    iters: int = 500,
    gap_tol: float = 1e-8,
) -> np.ndarray:
    """Frank-Wolfe maximization of lower_bound_value over the constraint
    polytope; the linear subproblem is a max-weight feasible set."""
    p = np.asarray(p, dtype=float)
    n = inst.n
    pr_b = np.array([inst.buyer_dists[i].tail(p[i]) for i in range(n)])
    cap = np.array(
        [pr_b[i] * _prob_below(inst.seller_dists[i], p[i]) for i in range(n)]
    )
    q = np.zeros(n)

    def grad(qv: np.ndarray) -> np.ndarray:
        g = np.zeros(n)
        for i in range(n):
            if pr_b[i] <= 0.0 or qv[i] >= cap[i] - 1e-15:
                continue
            g[i] = max(0.0, p[i] - dst.quantile(inst.seller_dists[i], qv[i] / pr_b[i]))
        return g

    for t in range(iters):
        g = grad(q)
        S, _ = fea.max_weight_set(inst.constraint, g)
        v = np.zeros(n)
        v[list(S)] = 1.0
        gap = float(np.dot(g, v - q))
        if gap <= gap_tol:
            break
        step = 2.0 / (t + 2.0)
        q = (1.0 - step) * q + step * v
    return np.minimum(q, cap)
