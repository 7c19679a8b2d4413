"""Linear-programming ground truth for small discrete markets.

second_best_lp solves for the best GFT attainable by any interim-incentive-
compatible, interim-individually-rational, (ex-ante by default) weakly
budget-balanced mechanism, with the allocation relaxed per profile to the
constraint polytope. That relaxation is exact whenever the per-profile
polytope has integral vertices (additive, unit-demand, k-uniform, matroid);
for intersections the value is a labeled upper bound.

opt_s_lp drops the seller-side constraints entirely: the designer sees costs,
pays them at face value, and only the buyer's incentives bind.

Allocation and payments are variables per profile, where the objective, the
polytope rows and the budget rows live. Incentives are stated over interim
variables: each buyer type's expected allocation and payment over the seller
profiles, and each seller cost type's expected trade and payment given that
cost. Equality rows tie the interim variables to the profile ones, so an
agent's IR/BIC rows cost O(types^2) nonzeros rather than O(types^2 *
profiles). Both LPs are assembled as one sparse matrix with row bounds by
index arithmetic on the product type grids and solved by one HiGHS call;
variable names exist only in lp_text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.optimize import linprog  # noqa: F401  (unused; perfbench/tracing.py patches oracle.linprog)

from .feasibility import CapacityError, Constraint
from .mechanisms import MarketInstance, buyer_grid, seller_grid

__all__ = [
    "DiscreteMarket",
    "second_best_lp",
    "opt_s_lp",
    "lp_text",
    "opt_s_partition_check",
    "verify_ub_chain",
]

# Largest second-best LP admitted, in constraint-matrix nonzeros. A solve
# peaks at about 560 bytes per nonzero over the interpreter's ~80 MB
# (measured 460-590 B on two-item grids up to 12x12 and bilateral grids up
# to 280x280, 1.1M nonzeros), so an LP at the cap peaks near 1 GB.
LP_NNZ_CAP = 1_750_000
CHAIN_TOL = 1e-6  # slack allowed in each inequality of the bound chain


@dataclass(frozen=True)
class DiscreteMarket:
    """A fully discrete instance with its enumerated type spaces."""

    inst: MarketInstance

    def __post_init__(self):
        if not self.inst.is_discrete:
            raise ValueError("LP oracle needs a fully discrete instance")
        nnz = self.lp_nnz
        if nnz > LP_NNZ_CAP:
            raise CapacityError(f"second-best LP has {nnz} nonzeros, over the cap {LP_NNZ_CAP}")

    @property
    def lp_nnz(self) -> int:
        """Nonzeros of the second-best LP (the larger of the two) counted from
        the grid sizes, before any grid or matrix is built; zero coefficients,
        e.g. from a zero cost atom, make the built LP sparser."""
        n = self.inst.n
        nb = math.prod(len(d.values) for d in self.inst.buyer_dists)
        sizes = [len(d.values) for d in self.inst.seller_dists]
        ns = math.prod(sizes)
        feas = sum(len(coefs) for coefs, _ in self._prows)
        # per profile: feasibility rows and n+1 budget coefficients; per buyer
        # type: n+1 interim sums over ns profiles and (2nb-1)(n+1) in IR/BIC;
        # per seller i: two interim sums over all profiles and, per cost
        # type, 2(2m_i-1) in IR/BIC
        return (
            nb * ns * (feas + n + 1)
            + nb * (n + 1) * (ns + 2 * nb)
            + sum(2 * nb * ns + 4 * k * k for k in sizes)
        )

    @cached_property
    def _prows(self):
        return _polytope_rows(self.inst.constraint)

    @cached_property
    def _bgrid(self):
        return buyer_grid(self.inst)

    @cached_property
    def _sgrid(self):
        return seller_grid(self.inst)

    @property
    def btypes(self) -> np.ndarray:
        return self._bgrid[0]

    @property
    def bprobs(self) -> np.ndarray:
        return self._bgrid[1]

    @property
    def stypes(self) -> np.ndarray:
        return self._sgrid[0]

    @property
    def sprobs(self) -> np.ndarray:
        return self._sgrid[1]


def _polytope_rows(c: Constraint) -> list[tuple[dict[int, float], float]]:
    """Rows (coef-by-item, rhs) describing sum coef*x <= rhs; the box 0<=x<=1
    is handled separately."""
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
        rows = []
        ground = list(c.ground)
        if len(ground) > 16:
            raise CapacityError("matroid polytope rows need at most 16 items")
        for r in range(1, len(ground) + 1):
            for T in combinations(ground, r):
                rows.append(({i: 1.0 for i in T}, float(c.rank_fn(frozenset(T)))))
        return rows
    if v == "intersection":
        rows = []
        for m in c.members:
            rows.extend(_polytope_rows(m))
        return rows
    raise ValueError(f"no polytope description for variant {v!r}")


def _fmt(vals: Sequence[float]) -> str:
    return ",".join(f"{v:g}" for v in vals)


# Both LPs lay out one block of `stride` variables per profile (a, k), in
# buyer-major order: variable j of profile (a, k) is (a*ns + k)*stride + j.
# Second best has stride 2n+1 (x[0..n-1], pB, pS[0..n-1]); OPT-S has n+1
# (x, pB). The interim variables follow the profile blocks: buyer type a's
# block (XB[0..n-1](a), PB(a)), then, second best only, each seller i's
# pairs (XS[i](t), PS[i](t)) by cost type t. Every row block below is
# (rows, cols, vals, lo, hi) with local rows, lo <= sum vals*var <= hi; an
# equality row has lo == hi.


def _upper(rhs: np.ndarray):
    """Row bounds of the rows sum vals*var <= rhs."""
    return np.full(len(rhs), -np.inf), rhs


def _feasibility_rows(m: DiscreteMarket, base: np.ndarray):
    """The allocation polytope's rows for every profile, in profile order."""
    prows = m._prows
    sizes = [len(coefs) for coefs, _ in prows]
    ridx = np.repeat(np.arange(len(prows)), sizes)
    items = np.array([i for coefs, _ in prows for i in coefs], dtype=int)
    coef = np.array([w for coefs, _ in prows for w in coefs.values()], dtype=float)
    rhs = np.array([r for _, r in prows], dtype=float)
    rows = np.arange(base.size).reshape(-1, 1) * len(prows) + ridx
    cols = base.reshape(-1, 1) + items
    return rows.ravel(), cols.ravel(), np.tile(coef, base.size), *_upper(np.tile(rhs, base.size))


def _interim_rows(cols: np.ndarray, members: np.ndarray, w: np.ndarray):
    """Equality rows sum_q w[j, q] * var[members[j, q]] - var[cols[j]] = 0
    defining the interim variables cols[j]."""
    k, width = members.shape
    return (
        np.repeat(np.arange(k), width + 1),
        np.hstack([members, cols.reshape(k, 1)]).ravel(),
        np.hstack([np.broadcast_to(w, members.shape), -np.ones((k, 1))]).ravel(),
        np.zeros(k),
        np.zeros(k),
    )


def _incentive_rows(cols: np.ndarray, vals: np.ndarray, step: int):
    """Interim IR and BIC rows of one agent with m types. Row t*m is the IR row
    of true type t, sum vals[t] * var[cols[t]] <= 0; rows t*m+1 .. t*m+m-1 are
    its misreports r != t in order, which add -vals[t] at the same variables
    of type r, i.e. at cols[t] + (r - t)*step."""
    m, width = cols.shape
    t = np.arange(m).reshape(-1, 1)
    q = np.arange(m - 1).reshape(1, -1)
    shift = (q + (q >= t) - t) * step
    rows = np.concatenate([np.arange(m * m), (t * m + 1 + q).ravel()])
    own_cols, own_vals = np.repeat(cols, m, axis=0), np.repeat(vals, m, axis=0)
    dev_cols = cols[:, None, :] + shift[:, :, None]
    dev_vals = np.broadcast_to(-vals[:, None, :], dev_cols.shape)
    return (
        np.repeat(rows, width),
        np.concatenate([own_cols.ravel(), dev_cols.ravel()]),
        np.concatenate([own_vals.ravel(), dev_vals.ravel()]),
        *_upper(np.zeros(m * m)),
    )


def _buyer_rows(m: DiscreteMarket, base: np.ndarray, first: int):
    """The buyer's interim variables from column `first`, (XB, PB)(a) =
    sum_k pS[k] * (x, pB)(a, k), and its IR/BIC rows over them: type a's
    value of reporting a2 is B[a].XB(a2) - PB(a2)."""
    B = m.btypes
    nb, ns = base.shape
    n = B.shape[1]
    interim = first + np.arange(nb * (n + 1)).reshape(nb, n + 1)
    members = (base[:, None, :] + np.arange(n + 1)[:, None]).reshape(-1, ns)
    vals = np.hstack([-B, np.ones((nb, 1))])
    return [_interim_rows(interim, members, m.sprobs), _incentive_rows(interim, vals, n + 1)]


def _seller_rows(m: DiscreteMarket, base: np.ndarray, first: int, i: int):
    """Seller i's interim variables from column `first`, (XS, PS)[i](t) =
    sum over the profiles (b, k) with cost atoms[t] of pB[b]*pS[k]/g[t] *
    (x[i], pS[i])(b, k), and its IR/BIC rows over them: cost type t's value
    of reporting r is PS[i](r) - atoms[t]*XS[i](r)."""
    inst = m.inst
    n = inst.n
    atoms = np.array(inst.seller_dists[i].values)
    g = np.array(inst.seller_dists[i].probs)
    mi = len(atoms)
    stride_i = math.prod(len(d.values) for d in inst.seller_dists[i + 1 :])
    nb, ns = base.shape
    digit = np.arange(ns) // stride_i % mi
    K = np.argsort(digit, kind="stable").reshape(mi, -1)  # profiles k with cost atoms[t]
    w = m.bprobs[None, :, None] * (m.sprobs[K] / g[:, None])[:, None, :]
    prof = base[:, K].transpose(1, 0, 2).reshape(mi, 1, -1)
    interim = first + np.arange(2 * mi).reshape(mi, 2)
    members = (prof + np.array([i, n + 1 + i])[:, None]).reshape(2 * mi, -1)
    vals = np.column_stack([atoms, -np.ones(mi)])
    weights = np.repeat(w.reshape(mi, -1), 2, axis=0)
    return [_interim_rows(interim, members, weights), _incentive_rows(interim, vals, 2)]


def _budget_rows(m: DiscreteMarket, base: np.ndarray, budget: str):
    """sum_i pS[i] - pB <= 0: in expectation (one row) or per profile."""
    n = m.inst.n
    sign = np.r_[-1.0, np.ones(n)]
    cols = (base.reshape(-1, 1) + n + np.arange(n + 1)).ravel()
    if budget == "exante":
        w = np.outer(m.bprobs, m.sprobs).ravel()
        return np.zeros(cols.size, dtype=int), cols, np.outer(w, sign).ravel(), *_upper(np.zeros(1))
    return np.repeat(np.arange(base.size), n + 1), cols, np.tile(sign, base.size), *_upper(np.zeros(base.size))


def _stack(blocks, nv: int):
    """One canonical CSR matrix (sorted indices, no duplicates or explicit
    zeros) and its row bounds from the row blocks, in order."""
    rows, cols, vals, lo, hi = [], [], [], [], []
    nrows = 0
    for r, c, v, lo_r, hi_r in blocks:
        rows.append(r + nrows)
        cols.append(c)
        vals.append(v)
        lo.append(lo_r)
        hi.append(hi_r)
        nrows += len(hi_r)
    coo = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    A = sp.csr_array(coo, shape=(nrows, nv))
    A.sum_duplicates()
    A.eliminate_zeros()
    return A, np.concatenate(lo), np.concatenate(hi)


def _lp(m: DiscreteMarket, stride: int, interim: int):
    """The per-profile base offsets, shape (nb, ns), the x columns, and the
    box of an LP with `interim` interim variables after the profile blocks:
    0 <= x <= 1, every payment and interim variable free."""
    nb, ns = len(m.btypes), len(m.stypes)
    n = m.inst.n
    base = np.arange(nb * ns).reshape(nb, ns) * stride
    xcols = (base[:, :, None] + np.arange(n)).ravel()
    nv = base.size * stride + interim
    lb, ub = np.full(nv, -np.inf), np.full(nv, np.inf)
    lb[xcols], ub[xcols] = 0.0, 1.0
    return base, xcols, Bounds(lb, ub)


def _second_best(m: DiscreteMarket, budget: str):
    if budget not in ("exante", "expost"):
        raise ValueError("budget must be 'exante' or 'expost'")
    n = m.inst.n
    nb = len(m.btypes)
    sizes = [len(d.values) for d in m.inst.seller_dists]
    stride = 2 * n + 1
    base, xcols, box = _lp(m, stride, nb * (n + 1) + 2 * sum(sizes))
    B, S = m.btypes, m.stypes
    c = np.zeros(len(box.lb))
    c[xcols] = -(np.outer(m.bprobs, m.sprobs)[:, :, None] * (B[:, None, :] - S[None, :, :])).ravel()
    first = base.size * stride
    blocks = [_feasibility_rows(m, base), *_buyer_rows(m, base, first)]
    first += nb * (n + 1)
    for i, k in enumerate(sizes):
        blocks += _seller_rows(m, base, first, i)
        first += 2 * k
    blocks.append(_budget_rows(m, base, budget))
    return c, *_stack(blocks, len(c)), box


def _maximize(c: np.ndarray, A, lo: np.ndarray, hi: np.ndarray, box: Bounds) -> float:
    res = milp(c, constraints=LinearConstraint(A, lo, hi), bounds=box)
    if not res.success:
        raise RuntimeError(f"LP solve failed: {res.message}")
    return float(-res.fun)


def second_best_lp(m: DiscreteMarket, budget: str = "exante") -> float:
    return _maximize(*_second_best(m, budget))


def _ic_names(who: str, sub: str, labels: list[str]) -> list[str]:
    out = []
    for t, lt in enumerate(labels):
        out.append(f"{who}IR{sub}({lt})")
        out += [f"{who}BIC{sub}({lt}->{lr})" for r, lr in enumerate(labels) if r != t]
    return out


def lp_text(m: DiscreteMarket, budget: str = "exante") -> str:
    """The second-best LP in readable form, one named row per line; the row
    defining an interim variable V is named defV."""
    c, A, lo, hi, _ = _second_best(m, budget)
    inst = m.inst
    n = inst.n
    tags = [f"({_fmt(bt)}|{_fmt(st)})" for bt in m.btypes for st in m.stypes]
    slots = [f"x[{i}]" for i in range(n)] + ["pB"] + [f"pS[{i}]" for i in range(n)]
    vnames = [s + tag for tag in tags for s in slots]
    rnames = [f"feas[{r}]{tag}" for tag in tags for r in range(len(m._prows))]
    blabels = [_fmt(bt) for bt in m.btypes]
    interim = [v for la in blabels for v in [f"XB[{i}]({la})" for i in range(n)] + [f"PB({la})"]]
    vnames += interim
    rnames += ["def" + v for v in interim] + _ic_names("buyer", "", blabels)
    for i, d in enumerate(inst.seller_dists):
        slabels = [f"{v:g}" for v in d.values]
        interim = [v for lt in slabels for v in (f"XS[{i}]({lt})", f"PS[{i}]({lt})")]
        vnames += interim
        rnames += ["def" + v for v in interim] + _ic_names("seller", f"[{i}]", slabels)
    rnames += ["budget(exante)"] if budget == "exante" else [f"budget{tag}" for tag in tags]

    def expr(cols, vals) -> str:
        return " ".join(f"{'+' if w >= 0 else '-'} {abs(w):.6g} {vnames[j]}" for j, w in zip(cols, vals))

    x = np.flatnonzero([s.startswith("x[") for s in vnames])
    lines = ["maximize", "  " + expr(x, -c[x]), "subject to"]
    for r, name in enumerate(rnames):
        start, end = A.indptr[r], A.indptr[r + 1]
        sense = "=" if lo[r] == hi[r] else "<="
        lines.append(f"  {name}: {expr(A.indices[start:end], A.data[start:end])} {sense} {hi[r]:.6g}")
    return "\n".join(lines)


def opt_s_lp(m: DiscreteMarket) -> float:
    """Best E[buyer payment - allocated costs] under buyer BIC/IR only, with
    the allocation free to depend on the full cost profile."""
    n = m.inst.n
    stride = n + 1
    base, xcols, box = _lp(m, stride, len(m.btypes) * (n + 1))
    w = np.outer(m.bprobs, m.sprobs)
    c = np.zeros(len(box.lb))
    c[base.ravel() + n] = -w.ravel()
    c[xcols] = (w[:, :, None] * m.stypes[None, :, :]).ravel()
    blocks = [_feasibility_rows(m, base), *_buyer_rows(m, base, base.size * stride)]
    return _maximize(c, *_stack(blocks, len(c)), box)


def opt_s_partition_check(m: DiscreteMarket) -> dict:
    """OPT-S over all items is at most OPT-S on one part plus first best on the
    complement, for every 1/(n-1)-style split of a two-item market."""
    from . import audits
    from .bounds import sub_instance

    inst = m.inst
    if inst.n != 2:
        raise ValueError("partition check written for two-item markets")
    whole = opt_s_lp(m)
    results = {}
    for keep in (0, 1):
        drop = 1 - keep
        part = opt_s_lp(DiscreteMarket(sub_instance(inst, [keep])))
        fb = audits.first_best_gft(sub_instance(inst, [drop]), "exact")
        results[f"keep{keep}"] = (whole, part + fb, whole <= part + fb + CHAIN_TOL)
    return results


def verify_ub_chain(m: DiscreteMarket) -> dict:
    """Recompute the bound chain on one market: every implemented mechanism's
    exact GFT <= SB <= min(FB, OPT-B + OPT-S)."""
    from . import audits, bounds
    from .mechanisms import BuyerOffering, Fpp, Sapp, SellerOffering, reduction_rule, sapp_build

    inst = m.inst
    sb = second_best_lp(m)
    fb = audits.first_best_gft(inst, "exact")
    ob = bounds.opt_b(inst, "exact")
    os_ = opt_s_lp(m)
    report = {
        "sb": sb,
        "fb": fb,
        "opt_b": ob,
        "opt_s": os_,
        "sb_le_fb": sb <= fb + CHAIN_TOL,
        "sb_le_optb_plus_opts": sb <= ob + os_ + CHAIN_TOL,
        "mechanisms": {},
    }
    mechanisms = []
    prices = sorted({float(v) for d in inst.buyer_dists + inst.seller_dists for v in d.values})
    for p in prices:
        pv = np.full(inst.n, p)
        try:
            mechanisms.append(Fpp(inst, pv, pv, name=f"fpp[{p:g}]"))
        except ValueError:
            pass
    mechanisms.append(BuyerOffering(inst))
    if inst.n == 1:
        mechanisms.append(SellerOffering(inst))
    try:
        mechanisms.append(Sapp(inst, sapp_build(inst, reduction_rule(inst))))
    except ValueError:
        pass
    for mech in mechanisms:
        g = audits.exact_gft(mech, inst)
        report["mechanisms"][getattr(mech, "name", type(mech).__name__)] = (g, g <= sb + CHAIN_TOL)
    return report
