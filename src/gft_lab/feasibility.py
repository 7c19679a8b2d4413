"""Downward-closed feasibility constraints over item index sets.

Variants: additive, unit-demand, k-uniform, matroid (rank oracle), matching
(items are edges of a graph), knapsack (sizes in [0,1], capacity 1),
intersection, and size-floor (|S| >= h, the one sanctioned non-downward-closed
family, used only as a purchase subconstraint).

Exact solvers throughout: closed forms (`top_positive`) for additive,
unit-demand and k-uniform weights and for a size floor over an additive base,
the greedy for a matroid, and one depth-first branch and bound
(`_branch_and_bound`) for knapsack, matching, intersection and the other size
floors, at desk scale. Tie-breaking is global and deterministic: smallest
total weight-attaining set by cardinality, then lexicographically smallest
index tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .distributions import item_argmax, item_max

BRUTE_FORCE_LIMIT = 24  # capacity guard for exhaustive variants
POLYTOPE_ENUM_LIMIT = 20

__all__ = [
    "Constraint",
    "additive",
    "unit_demand",
    "k_uniform",
    "matroid_oracle",
    "matching",
    "knapsack",
    "intersection",
    "size_floor",
    "is_feasible",
    "max_weight_set",
    "size_cap",
    "max_weight_values",
    "top_positive",
    "restrict",
    "reindex_restrict",
    "in_scaled_polytope",
    "feasible_sets",
    "constraint_to_json",
    "constraint_from_json",
]


class CapacityError(RuntimeError):
    """Ground set too large for an exact search on this variant."""


@dataclass(frozen=True)
class Constraint:
    variant: str
    ground: tuple[int, ...]
    k: int = 0
    rank_fn: Callable[[frozenset[int]], int] | None = field(default=None, compare=False)
    edge_ends: tuple[tuple[int, int], ...] = ()  # aligned with ground (matching)
    sizes: tuple[float, ...] = ()  # aligned with ground (knapsack)
    members: tuple["Constraint", ...] = ()
    base: "Constraint | None" = None
    h: int = 0

    def index_of(self, item: int) -> int:
        return self.ground.index(item)


def _norm_ground(ground: Iterable[int]) -> tuple[int, ...]:
    g = tuple(sorted(set(int(i) for i in ground)))
    if not g:
        raise ValueError("ground set must be nonempty")
    return g


def additive(ground: Iterable[int]) -> Constraint:
    return Constraint("additive", _norm_ground(ground))


def unit_demand(ground: Iterable[int]) -> Constraint:
    return Constraint("unit_demand", _norm_ground(ground))


def k_uniform(k: int, ground: Iterable[int]) -> Constraint:
    if k < 1:
        raise ValueError("k must be >= 1")
    return Constraint("k_uniform", _norm_ground(ground), k=int(k))


def matroid_oracle(rank_fn: Callable[[frozenset[int]], int], ground: Iterable[int]) -> Constraint:
    return Constraint("matroid", _norm_ground(ground), rank_fn=rank_fn)


def matching(edges: Mapping[int, tuple] | Sequence[tuple]) -> Constraint:
    """Items are edges; a set is feasible iff its edges form a matching.

    ``edges`` maps item -> (u, v) vertex pair, or is a sequence of pairs
    (items then numbered 0..len-1).
    """
    if isinstance(edges, Mapping):
        items = _norm_ground(edges.keys())
        ends = tuple(tuple(edges[i]) for i in items)
    else:
        items = tuple(range(len(edges)))
        ends = tuple(tuple(e) for e in edges)
    for u, v in ends:
        if u == v:
            raise ValueError("self-loop edge cannot appear in a matching")
    return Constraint("matching", items, edge_ends=ends)


def knapsack(sizes: Mapping[int, float] | Sequence[float]) -> Constraint:
    if isinstance(sizes, Mapping):
        items = _norm_ground(sizes.keys())
        sz = tuple(float(sizes[i]) for i in items)
    else:
        items = tuple(range(len(sizes)))
        sz = tuple(float(c) for c in sizes)
    if any(not 0.0 <= c <= 1.0 for c in sz):
        raise ValueError("knapsack sizes must lie in [0,1]")
    return Constraint("knapsack", items, sizes=sz)


def intersection(*members: Constraint) -> Constraint:
    if not members:
        raise ValueError("need at least one member")
    ground = members[0].ground
    if any(m.ground != ground for m in members):
        raise ValueError("all members must share the ground set")
    return Constraint("intersection", ground, members=tuple(members))


def size_floor(base: Constraint, h: int) -> Constraint:
    if h < 1:
        raise ValueError("size floor h must be >= 1")
    return Constraint("size_floor", base.ground, base=base, h=int(h))


# -- membership -------------------------------------------------------------


def is_feasible(c: Constraint, S: Iterable[int]) -> bool:
    s = frozenset(int(i) for i in S)
    if not s <= set(c.ground):
        raise ValueError(f"set {sorted(s)} not within ground {c.ground}")
    return _feasible(c, s)


def _feasible(c: Constraint, s: frozenset[int]) -> bool:
    if c.variant == "additive":
        return True
    if c.variant == "unit_demand":
        return len(s) <= 1
    if c.variant == "k_uniform":
        return len(s) <= c.k
    if c.variant == "matroid":
        return c.rank_fn(s) == len(s)
    if c.variant == "matching":
        seen = set()
        for i in s:
            u, v = c.edge_ends[c.index_of(i)]
            if u in seen or v in seen:
                return False
            seen.add(u)
            seen.add(v)
        return True
    if c.variant == "knapsack":
        return sum(c.sizes[c.index_of(i)] for i in s) <= 1.0 + 1e-12
    if c.variant == "intersection":
        return all(_feasible(m, s) for m in c.members)
    if c.variant == "size_floor":
        return _feasible(c.base, s) and (len(s) == 0 or len(s) >= c.h)
    raise ValueError(f"unknown variant {c.variant}")


# -- max weight feasible set --------------------------------------------------


def _weights_dict(c: Constraint, w) -> dict[int, float]:
    if isinstance(w, Mapping):
        return {int(i): float(w.get(i, 0.0)) for i in c.ground}
    w = list(w)
    if len(w) != len(c.ground):
        raise ValueError("weight vector length must match ground size")
    return {i: float(x) for i, x in zip(c.ground, w)}


def _better(cand: tuple[float, tuple[int, ...]], best: tuple[float, tuple[int, ...]]) -> bool:
    """The tie rule: higher by more than 1e-12, else fewer items, else the
    lexicographically smaller tuple."""
    val, items = cand
    bval, bitems = best
    if val > bval + 1e-12:
        return True
    if val < bval - 1e-12:
        return False
    return (len(items), items) < (len(bitems), bitems)


def max_weight_set(c: Constraint, w) -> tuple[tuple[int, ...], float]:
    """Exact argmax_{S feasible} sum of weights; ties to the smallest set,
    then lexicographic. Negative-weight items are never useful for
    downward-closed variants and only enter under a size floor."""
    wd = _weights_dict(c, w)
    k = size_cap(c)
    if k is not None:
        mask = top_positive(np.array([[wd[i] for i in c.ground]]), k)[0]
        chosen = tuple(i for i, m in zip(c.ground, mask) if m)
    elif c.variant == "matroid":
        chosen = _greedy_matroid(c, wd)
    elif c.variant == "size_floor" and c.base.variant == "additive":
        chosen = _additive_floor(c, wd)
    elif c.variant in ("knapsack", "matching", "intersection", "size_floor"):
        chosen = _branch_and_bound(c, wd)
    else:
        raise ValueError(f"unknown variant {c.variant}")
    total = sum(wd[i] for i in chosen)
    return chosen, total


def size_cap(c: Constraint) -> int | None:
    """The largest feasible set size when that size is c's only limit
    (additive, unit-demand, k-uniform), else None: the variant needs a search."""
    return {"additive": len(c.ground), "unit_demand": 1, "k_uniform": c.k}.get(c.variant)


def max_weight_values(c: Constraint, W) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise max_weight_set over the positive parts of W, whose columns
    follow c.ground: (values, argmax mask). Additive, unit-demand and
    k-uniform rows are closed forms with the same tie rule; other variants
    fall back to one search per row."""
    W = np.asarray(W, dtype=float)
    m, n = W.shape
    k = size_cap(c)
    if k is None:
        values = np.empty(m)
        mask = np.zeros((m, n), dtype=bool)
        col = {item: j for j, item in enumerate(c.ground)}
        for t in range(m):
            chosen, values[t] = max_weight_set(c, {item: w for item, w in zip(c.ground, W[t]) if w > 0})
            mask[t, [col[i] for i in chosen]] = True
        return values, mask
    pos = np.maximum(W, 0.0)
    if k >= n:
        values = pos.sum(axis=1)
    elif k == 1:
        values = item_max(pos)
    else:
        values = np.partition(pos, n - k, axis=1)[:, n - k:].sum(axis=1)
    return values, top_positive(W, k)


def top_positive(W: np.ndarray, k: int) -> np.ndarray:
    """Mask of the k largest positive entries of each row, ties to the lowest
    index: max_weight_set's choice under a k-uniform constraint."""
    if k >= W.shape[1]:
        return W > 0
    if k == 1:
        mask = np.arange(W.shape[1]) == item_argmax(W)[:, None]
    else:
        mask = np.zeros(W.shape, dtype=bool)
        np.put_along_axis(mask, np.argsort(-W, axis=1, kind="stable")[:, :k], True, axis=1)
    return mask & (W > 0)


def _greedy_matroid(c: Constraint, wd: dict[int, float]) -> tuple[int, ...]:
    chosen: list[int] = []
    cur = frozenset()
    for i in sorted((i for i in c.ground if wd[i] > 0.0), key=lambda i: (-wd[i], i)):
        if c.rank_fn(cur | {i}) == len(cur) + 1:
            chosen.append(i)
            cur = cur | {i}
    return tuple(sorted(chosen))


def _additive_floor(c: Constraint, wd: dict[int, float]) -> tuple[int, ...]:
    """The closed form of a size floor over an additive base: every positive
    item if there are h of them, else the h best items when they beat nothing."""
    pos = tuple(i for i in c.ground if wd[i] > 0.0)
    if len(pos) >= c.h:
        return pos
    cand = tuple(sorted(sorted(c.ground, key=lambda i: (-wd[i], i))[: c.h]))
    return cand if _better((sum(wd[i] for i in cand), cand), (0.0, ())) else ()


def _branch_and_bound(c: Constraint, wd: dict[int, float]) -> tuple[int, ...]:
    """Depth-first search over take/skip of each item, asking `_feasible` at
    every take; branches worse than the best set by more than 1e-12 are cut,
    so ties keep exploring and the tie rule stays globally exact.

    Downward-closed variants search their positive items, by density for a
    knapsack (its fractional relaxation is the bound) and by weight otherwise
    (the positive weight left is the bound). A size floor |S| >= h searches
    every item of its base in index order, negative ones too since reaching
    the floor may need them, records only sets of at least h items, and cuts
    a branch once h is out of reach."""
    floor, knap = c.variant == "size_floor", c.variant == "knapsack"
    fc, h = (c.base, c.h) if floor else (c, 0)
    size = lambda i: c.sizes[c.index_of(i)] if knap else 0.0
    if floor:
        items = list(c.ground)
    elif knap:
        items = sorted((i for i in c.ground if wd[i] > 0.0), key=lambda i: (-wd[i] / max(size(i), 1e-15), i))
    else:
        items = sorted((i for i in c.ground if wd[i] > 0.0), key=lambda i: (-wd[i], i))
    if len(items) > BRUTE_FORCE_LIMIT:
        raise CapacityError(f"{c.variant} search over {len(items)} items exceeds {BRUTE_FORCE_LIMIT}")
    vals, sizes = [wd[i] for i in items], [size(i) for i in items]
    rest = [sum(v for v in vals[j:] if v > 0.0) for j in range(len(vals) + 1)]
    best = (0.0, ())

    def bound(j: int, cap: float) -> float:
        if not knap:
            return rest[j]
        out = 0.0
        for t in range(j, len(items)):
            if sizes[t] <= cap:
                out += vals[t]
                cap -= sizes[t]
            else:
                out += vals[t] * (cap / sizes[t]) if sizes[t] > 0 else 0.0
                break
        return out

    def dfs(j: int, cap: float, acc: float, taken: list[int]) -> None:
        nonlocal best
        if len(taken) >= h:
            cand = (acc, tuple(sorted(taken)))
            if _better(cand, best):
                best = cand
        if j == len(items) or len(taken) + len(items) - j < h:
            return
        if acc + bound(j, cap) < best[0] - 1e-12:
            return
        if _feasible(fc, frozenset(taken) | {items[j]}):
            taken.append(items[j])
            dfs(j + 1, cap - sizes[j], acc + vals[j], taken)
            taken.pop()
        dfs(j + 1, cap, acc, taken)

    dfs(0, 1.0, 0.0, [])
    return best[1]


# -- restriction -------------------------------------------------------------


def restrict(c: Constraint, T: Iterable[int]) -> Constraint:
    return _restricted(c, T, relabel=False)


def reindex_restrict(c: Constraint, T: Iterable[int]) -> Constraint:
    """Restrict to T and relabel its items as 0..len(T)-1 (sorted order), so
    the result can ground a standalone sub-market."""
    return _restricted(c, T, relabel=True)


def _restricted(c: Constraint, T: Iterable[int], relabel: bool) -> Constraint:
    """c on the items T, relabeled 0..len(T)-1 when asked: the fields aligned
    with the ground are subset, members and base restricted alike."""
    t = tuple(sorted(set(int(i) for i in T)))
    if not set(t) <= set(c.ground):
        raise ValueError(f"restriction {t} not within ground {c.ground}")
    if relabel and c.variant == "size_floor":
        raise ValueError(f"cannot reindex variant {c.variant}")
    pick = [c.index_of(i) for i in t]
    ground, rank = t, c.rank_fn
    if relabel:
        ground = tuple(range(len(t)))
        if rank is not None:
            rank = lambda S: c.rank_fn(frozenset(t[j] for j in S))
    return replace(
        c,
        ground=ground,
        rank_fn=rank,
        edge_ends=tuple(c.edge_ends[j] for j in pick) if c.edge_ends else (),
        sizes=tuple(c.sizes[j] for j in pick) if c.sizes else (),
        members=tuple(_restricted(m, t, relabel) for m in c.members),
        base=None if c.base is None else _restricted(c.base, t, relabel),
    )


# -- scaled polytope membership ----------------------------------------------


def feasible_sets(c: Constraint) -> list[frozenset[int]]:
    """Every feasible set; capacity-guarded enumeration."""
    if len(c.ground) > POLYTOPE_ENUM_LIMIT:
        raise CapacityError(f"enumeration over {len(c.ground)} items exceeds {POLYTOPE_ENUM_LIMIT}")
    out = []
    for r in range(len(c.ground) + 1):
        for comb in combinations(c.ground, r):
            s = frozenset(comb)
            if _feasible(c, s):
                out.append(s)
    return out


def in_scaled_polytope(c: Constraint, q, delta: float) -> bool:
    """Whether q lies in delta * P, P = convex hull of feasible-set indicators."""
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must be in (0,1]")
    qd = _weights_dict(c, q)
    vals = np.array([qd[i] for i in c.ground])
    if np.any(vals < -1e-12) or np.any(vals > 1.0 + 1e-12):
        raise ValueError("q must lie in [0,1]^n")
    x = vals / delta
    tol = 1e-9
    if c.variant == "additive":
        return bool(np.all(x <= 1.0 + tol))
    if c.variant == "unit_demand":
        return bool(x.sum() <= 1.0 + tol)
    if c.variant == "k_uniform":
        return bool(x.sum() <= c.k + tol and np.all(x <= 1.0 + tol))
    if c.variant == "knapsack":
        sz = np.array(c.sizes)
        return bool(np.dot(x, sz) <= 1.0 + tol and np.all(x <= 1.0 + tol))
    if c.variant == "matroid":
        if len(c.ground) > POLYTOPE_ENUM_LIMIT:
            raise CapacityError("matroid polytope check is exact only for small grounds")
        for r in range(1, len(c.ground) + 1):
            for comb in combinations(c.ground, r):
                rank = c.rank_fn(frozenset(comb))
                if sum(x[c.index_of(i)] for i in comb) > rank + tol:
                    return False
        return True
    if c.variant in ("matching", "intersection"):
        return _in_hull_lp(c, x, tol)
    raise ValueError(f"scaled-polytope membership undefined for {c.variant}")


def _in_hull_lp(c: Constraint, x: np.ndarray, tol: float) -> bool:
    """LP feasibility for downward-closed families: x is in the hull iff some
    distribution over feasible sets dominates it coordinatewise."""
    from scipy.optimize import linprog

    sets = feasible_sets(c)
    a_ub = np.zeros((len(c.ground), len(sets)))
    for j, s in enumerate(sets):
        for i in s:
            a_ub[c.index_of(i), j] = -1.0
    a_eq = np.ones((1, len(sets)))
    res = linprog(
        np.zeros(len(sets)),
        A_ub=a_ub,
        b_ub=-(x - tol),
        A_eq=a_eq,
        b_eq=[1.0],
        bounds=(0, None),
        method="highs",
    )
    return res.status == 0


# -- JSON --------------------------------------------------------------------


def constraint_to_json(c: Constraint) -> dict:
    out: dict = {"variant": c.variant, "ground": list(c.ground)}
    if c.variant == "k_uniform":
        out["k"] = c.k
    elif c.variant == "matching":
        out["edges"] = [list(e) for e in c.edge_ends]
    elif c.variant == "knapsack":
        out["sizes"] = list(c.sizes)
    elif c.variant == "intersection":
        out["members"] = [constraint_to_json(m) for m in c.members]
    elif c.variant == "size_floor":
        out["base"] = constraint_to_json(c.base)
        out["h"] = c.h
    elif c.variant == "matroid":
        if len(c.ground) > 16:
            raise ValueError("matroid serialization uses an explicit rank table; ground too large")
        table = {}
        for r in range(len(c.ground) + 1):
            for comb in combinations(c.ground, r):
                table[",".join(map(str, comb))] = c.rank_fn(frozenset(comb))
        out["rank_table"] = table
    return out


def constraint_from_json(obj: dict) -> Constraint:
    variant = obj["variant"]
    ground = obj["ground"]
    if variant == "additive":
        return additive(ground)
    if variant == "unit_demand":
        return unit_demand(ground)
    if variant == "k_uniform":
        return k_uniform(obj["k"], ground)
    if variant == "matching":
        return matching({i: tuple(e) for i, e in zip(sorted(ground), obj["edges"])})
    if variant == "knapsack":
        return knapsack({i: s for i, s in zip(sorted(ground), obj["sizes"])})
    if variant == "intersection":
        return intersection(*(constraint_from_json(m) for m in obj["members"]))
    if variant == "size_floor":
        return size_floor(constraint_from_json(obj["base"]), obj["h"])
    if variant == "matroid":
        table = {frozenset(int(x) for x in k.split(",") if x): v for k, v in obj["rank_table"].items()}
        return matroid_oracle(lambda s: table[frozenset(s)], ground)
    raise ValueError(f"unknown variant {variant}")
