"""Downward-closed feasibility constraints over item index sets.

Variants: additive, unit-demand, k-uniform, matroid (rank oracle), matching
(items are edges of a graph), knapsack (sizes in [0,1], capacity 1),
intersection, and size-floor (|S| >= h, the one sanctioned non-downward-closed
family, used only as a purchase subconstraint).

Exact max-weight choices in two ways. A size cap (additive, unit-demand,
k-uniform) is a closed form (`top_positive`). Every other variant reads its
table: the feasible sets, sorted by (size, index tuple), as a bool incidence
matrix built once per constraint object, by extending feasible sets only (a
size floor keeps its base's sets of at least h items). One cap, `SET_CAP`,
bounds a table's sets and the values computed per block of rows.

The tie rule is global and deterministic: among the feasible sets whose total
weight is within 1e-12 of the best, the fewest items, then the
lexicographically smallest index tuple. The table applies it exactly. The one
place it differs is `top_positive`, which keeps positive weights in
(0, 1e-12] that the rule would drop.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import accumulate, chain, combinations, compress
from math import comb
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .distributions import item_argmax, item_max

SET_CAP = 2**20  # feasible sets in one table, and values in one block of rows
MATROID_ROWS_LIMIT = 16  # 2^n rank rows (polytope, JSON rank table)

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
    "max_weight",
    "max_weight_values",
    "top_positive",
    "reindex_restrict",
    "polytope_rows",
    "in_scaled_polytope",
    "feasible_sets",
    "constraint_to_json",
    "constraint_from_json",
]


class CapacityError(RuntimeError):
    """Input too large for an exact computation: over a capacity guard."""


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

    @cached_property
    def _table(self) -> np.ndarray:
        """The (F, n) bool incidence matrix of every feasible set over the
        ground, rows sorted by (size, index tuple), read-only. Cached on this
        object, never by `==`: two matroids on one ground compare equal. A
        size cap k over n items is refused before enumerating when its
        sum_{r<=k} C(n, r) sets exceed SET_CAP."""
        k = size_cap(self)
        if k is not None and any(t > SET_CAP for t in accumulate(comb(len(self.ground), r) for r in range(k + 1))):
            raise CapacityError(f"{self.variant} has over {SET_CAP} feasible sets")
        if self.variant == "size_floor":
            size = self.base._table.sum(axis=1)
            M = self.base._table[(size == 0) | (size >= self.h)]
        else:
            after = {i: j + 1 for j, i in enumerate(self.ground)}
            sets, level = [()], [()]
            while level:
                grown = []
                for s in level:
                    for i in self.ground[after[s[-1]] if s else 0:]:
                        if _feasible(self, frozenset(s + (i,))):
                            grown.append(s + (i,))
                    if len(sets) + len(grown) > SET_CAP:
                        raise CapacityError(f"{self.variant} has over {SET_CAP} feasible sets")
                sets += grown
                level = grown
            sizes = np.fromiter(map(len, sets), dtype=np.intp, count=len(sets))
            items = np.fromiter(chain.from_iterable(sets), dtype=np.intp, count=int(sizes.sum()))
            M = np.zeros((len(sets), len(self.ground)), dtype=bool)
            M[np.repeat(np.arange(len(sets)), sizes), np.searchsorted(self.ground, items)] = True
        M.flags.writeable = False
        return M


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


def max_weight_set(c: Constraint, w) -> tuple[tuple[int, ...], float]:
    """Exact argmax_{S feasible} sum of weights, under the tie rule: the
    one-row view of max_weight_values. The value sums the chosen items'
    weights in index order."""
    wd = _weights_dict(c, w)
    mask = max_weight_values(c, [[wd[i] for i in c.ground]])[1][0]
    chosen = tuple(i for i, m in zip(c.ground, mask) if m)
    return chosen, sum(wd[i] for i in chosen)


def size_cap(c: Constraint) -> int | None:
    """The largest feasible set size when that size is c's only limit
    (additive, unit-demand, k-uniform), else None: the variant is searched
    through its feasible-set table."""
    return {"additive": len(c.ground), "unit_demand": 1, "k_uniform": c.k}.get(c.variant)


def max_weight_values(c: Constraint, W) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise max_weight_set over W, whose columns follow c.ground:
    (values, argmax mask); a -inf entry is an item no set may take.
    Additive, unit-demand and k-uniform rows are closed forms; other
    variants read c's feasible-set table."""
    W = np.asarray(W, dtype=float)
    k = size_cap(c)
    if k is None:
        return _searched(c, W)
    return max_weight(c, W), top_positive(W, k)


def max_weight(c: Constraint, W) -> np.ndarray:
    """The values of max_weight_values alone, over the last axis of W with
    any leading axes."""
    W = np.asarray(W, dtype=float)
    k = size_cap(c)
    if k is None:
        return _searched(c, W.reshape(-1, W.shape[-1]))[0].reshape(W.shape[:-1])
    n = W.shape[-1]
    pos = np.maximum(W, 0.0)
    if k >= n:
        return pos.sum(axis=-1)
    if k == 1:
        return item_max(pos)
    return np.partition(pos, n - k, axis=-1)[..., n - k:].sum(axis=-1)


def _searched(c: Constraint, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(values, argmax mask) of the rows of W over c's feasible-set table, in
    blocks of at most SET_CAP values: each set's value sums its items' weights
    in index order, and each row takes the first set in (size, tuple) order
    whose value is within 1e-12 of the row's best."""
    M = c._table
    step = max(1, SET_CAP // len(M))
    values = np.empty(len(W))
    first = np.empty(len(W), dtype=np.intp)
    for lo in range(0, len(W), step):
        block = W[lo:lo + step]
        V = np.zeros((len(block), len(M)))
        for i in range(M.shape[1]):
            V += np.where(M[:, i], block[:, i:i + 1], 0.0)
        j = np.argmax(V >= V.max(axis=1, keepdims=True) - 1e-12, axis=1)
        first[lo:lo + step] = j
        values[lo:lo + step] = V[np.arange(len(V)), j]
    return values, M[first]


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


# -- restriction -------------------------------------------------------------


def reindex_restrict(c: Constraint, T: Iterable[int]) -> Constraint:
    """c on the items T, renumbered 0..len(T)-1 (sorted order) so the result
    can ground a standalone sub-market: the fields aligned with the ground are
    subset, and members restricted alike."""
    t = tuple(sorted(set(int(i) for i in T)))
    if not set(t) <= set(c.ground):
        raise ValueError(f"restriction {t} not within ground {c.ground}")
    if c.variant == "size_floor":
        raise ValueError(f"cannot reindex variant {c.variant}")
    pick = [c.index_of(i) for i in t]
    return replace(
        c,
        ground=tuple(range(len(t))),
        rank_fn=None if c.rank_fn is None else lambda S: c.rank_fn(frozenset(t[j] for j in S)),
        edge_ends=tuple(c.edge_ends[j] for j in pick) if c.edge_ends else (),
        sizes=tuple(c.sizes[j] for j in pick) if c.sizes else (),
        members=tuple(reindex_restrict(m, t) for m in c.members),
    )


# -- scaled polytope membership ----------------------------------------------


def feasible_sets(c: Constraint) -> list[frozenset[int]]:
    """Every feasible set, in (size, index tuple) order: the rows of c's table."""
    return [frozenset(compress(c.ground, row)) for row in c._table.tolist()]


def polytope_rows(c: Constraint) -> list[tuple[dict[int, float], float]]:
    """Rows (coef-by-item, rhs) describing sum coef*x <= rhs; the box 0<=x<=1
    is left to the caller. For a knapsack this is the fractional relaxation,
    and for an intersection the intersection of its members' polytopes."""
    v = c.variant
    if v == "additive":
        return []
    if v == "unit_demand":
        return [({i: 1.0 for i in c.ground}, 1.0)]
    if v == "k_uniform":
        return [({i: 1.0 for i in c.ground}, float(c.k))]
    if v == "knapsack":
        return [({i: float(c.sizes[c.index_of(i)]) for i in c.ground}, 1.0)]
    if v == "matroid":
        if len(c.ground) > MATROID_ROWS_LIMIT:
            raise CapacityError(f"matroid polytope rows need at most {MATROID_ROWS_LIMIT} items")
        return [
            ({i: 1.0 for i in T}, float(c.rank_fn(frozenset(T))))
            for r in range(1, len(c.ground) + 1)
            for T in combinations(c.ground, r)
        ]
    if v == "intersection":
        return [row for m in c.members for row in polytope_rows(m)]
    raise ValueError(f"no polytope description for variant {v!r}")


def in_scaled_polytope(c: Constraint, q, delta: float) -> bool:
    """Whether q lies in delta * P. P is the box plus `polytope_rows` (for a
    knapsack its fractional relaxation, not the hull of its feasible sets);
    for matching and intersection it is the convex hull of feasible-set
    indicators."""
    if not 0.0 < delta <= 1.0:
        raise ValueError("delta must be in (0,1]")
    qd = _weights_dict(c, q)
    vals = np.array([qd[i] for i in c.ground])
    if np.any(vals < -1e-12) or np.any(vals > 1.0 + 1e-12):
        raise ValueError("q must lie in [0,1]^n")
    x = vals / delta
    tol = 1e-9
    if c.variant in ("matching", "intersection"):
        return _in_hull_lp(c, x, tol)
    xd = dict(zip(c.ground, x.tolist()))
    rows = polytope_rows(c)
    return bool(np.all(x <= 1.0 + tol)) and all(
        sum(a * xd[i] for i, a in coefs.items()) <= rhs + tol for coefs, rhs in rows
    )


def _in_hull_lp(c: Constraint, x: np.ndarray, tol: float) -> bool:
    """LP feasibility for downward-closed families: x is in the hull iff some
    distribution over feasible sets dominates it coordinatewise."""
    from scipy.optimize import linprog

    M = c._table
    a_eq = np.ones((1, len(M)))
    res = linprog(
        np.zeros(len(M)),
        A_ub=np.where(M.T, -1.0, 0.0),
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
        if len(c.ground) > MATROID_ROWS_LIMIT:
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
