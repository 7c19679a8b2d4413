"""Linear-programming ground truth for small discrete markets.

second_best_lp solves for the best GFT attainable by any interim-incentive-
compatible, interim-individually-rational, (ex-ante by default) weakly
budget-balanced mechanism, with the allocation relaxed per profile to the
constraint polytope. That relaxation is exact whenever the per-profile
polytope has integral vertices (additive, unit-demand, k-uniform, matroid);
for intersections the value is a labeled upper bound.

opt_s_lp drops the seller-side constraints entirely: the designer sees costs,
pays them at face value, and only the buyer's incentives bind.

Both LPs are assembled as sparse matrices by index arithmetic on the product
type grids; variable names exist only in lp_text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

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
# peaks at about 190 bytes per nonzero over the interpreter's ~80 MB
# (measured 173-194 B on two-item and bilateral grids), so an LP at the cap
# peaks near 1 GB.
LP_NNZ_CAP = 5_000_000


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
        profiles = nb * math.prod(sizes)
        feas = sum(len(coefs) for coefs, _ in self._prows)
        # per profile: buyer IR/BIC (2nb-1)(n+1), seller i's IR/BIC 2(2m_i-1),
        # budget n+1, feasibility rows
        return profiles * ((2 * nb - 1) * (n + 1) + 2 * sum(2 * k - 1 for k in sizes) + n + 1 + feas)

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
# (x, pB). Every row block below is (rows, cols, vals, rhs) with local rows.


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
    return rows.ravel(), cols.ravel(), np.tile(coef, base.size), np.tile(rhs, base.size)


def _incentive_rows(cols: np.ndarray, vals: np.ndarray, step: int):
    """Interim IR and BIC rows of one agent with m types. Row t*m is the IR row
    of true type t, sum vals[t] * var[cols[t]] <= 0; rows t*m+1 .. t*m+m-1 are
    its misreports r != t in order, which add -vals[t] at the same variables
    of the profiles reporting r, i.e. at cols[t] + (r - t)*step."""
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
        np.zeros(m * m),
    )


def _buyer_rows(m: DiscreteMarket, base: np.ndarray, stride: int):
    """Buyer interim IR/BIC over (x, pB): type a's value of reporting a2 is
    sum_k pS[k] * (B[a].x(a2, k) - pB(a2, k))."""
    B, pS = m.btypes, m.sprobs
    nb, ns = base.shape
    n = B.shape[1]
    util = np.empty((nb, ns, n + 1))
    util[:, :, :n] = pS[None, :, None] * B[:, None, :]
    util[:, :, n] = -pS
    cols = base[:, :, None] + np.arange(n + 1)
    return _incentive_rows(cols.reshape(nb, -1), -util.reshape(nb, -1), ns * stride)


def _seller_rows(m: DiscreteMarket, base: np.ndarray, stride: int, i: int):
    """Seller i's interim IR/BIC over (x[i], pS[i]): reporting r instead of the
    true cost t moves profile k to k + (r - t)*stride_i in the seller grid."""
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
    prof = base[:, K].transpose(1, 0, 2)
    cols = np.stack([prof + n + 1 + i, prof + i], axis=1)
    vals = np.stack([-w, w * atoms[:, None, None]], axis=1)
    return _incentive_rows(cols.reshape(mi, -1), vals.reshape(mi, -1), stride_i * stride)


def _budget_rows(m: DiscreteMarket, base: np.ndarray, budget: str):
    """sum_i pS[i] - pB <= 0: in expectation (one row) or per profile."""
    n = m.inst.n
    sign = np.r_[-1.0, np.ones(n)]
    cols = (base.reshape(-1, 1) + n + np.arange(n + 1)).ravel()
    if budget == "exante":
        w = np.outer(m.bprobs, m.sprobs).ravel()
        return np.zeros(cols.size, dtype=int), cols, np.outer(w, sign).ravel(), np.zeros(1)
    return np.repeat(np.arange(base.size), n + 1), cols, np.tile(sign, base.size), np.zeros(base.size)


def _stack(blocks, nv: int):
    """One canonical CSR matrix (sorted indices, no duplicates or explicit
    zeros) and the right-hand side from the row blocks, in order."""
    rows, cols, vals, rhs = [], [], [], []
    nrows = 0
    for r, c, v, b in blocks:
        rows.append(r + nrows)
        cols.append(c)
        vals.append(v)
        rhs.append(b)
        nrows += len(b)
    coo = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    A = sp.csr_array(coo, shape=(nrows, nv))
    A.sum_duplicates()
    A.eliminate_zeros()
    return A, np.concatenate(rhs)


def _lp(m: DiscreteMarket, stride: int):
    """The variable base offsets, shape (nb, ns), the x columns, and the box
    0 <= x <= 1 with every payment free."""
    nb, ns = len(m.btypes), len(m.stypes)
    n = m.inst.n
    base = np.arange(nb * ns).reshape(nb, ns) * stride
    xcols = (base[:, :, None] + np.arange(n)).ravel()
    bounds = ([(0.0, 1.0)] * n + [(None, None)] * (stride - n)) * (nb * ns)
    return base, xcols, bounds


def _second_best(m: DiscreteMarket, budget: str):
    if budget not in ("exante", "expost"):
        raise ValueError("budget must be 'exante' or 'expost'")
    n = m.inst.n
    stride = 2 * n + 1
    base, xcols, bounds = _lp(m, stride)
    B, S = m.btypes, m.stypes
    c = np.zeros(len(bounds))
    c[xcols] = -(np.outer(m.bprobs, m.sprobs)[:, :, None] * (B[:, None, :] - S[None, :, :])).ravel()
    blocks = [_feasibility_rows(m, base), _buyer_rows(m, base, stride)]
    blocks += [_seller_rows(m, base, stride, i) for i in range(n)]
    blocks.append(_budget_rows(m, base, budget))
    A, b = _stack(blocks, len(c))
    return c, A, b, bounds


def _maximize(c: np.ndarray, A, b: np.ndarray, bounds: list) -> float:
    res = linprog(c, A_ub=A, b_ub=b, bounds=bounds, method="highs")
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
    """The second-best LP in readable form, one named row per line."""
    c, A, b, _ = _second_best(m, budget)
    inst = m.inst
    n = inst.n
    tags = [f"({_fmt(bt)}|{_fmt(st)})" for bt in m.btypes for st in m.stypes]
    slots = [f"x[{i}]" for i in range(n)] + ["pB"] + [f"pS[{i}]" for i in range(n)]
    vnames = [s + tag for tag in tags for s in slots]
    rnames = [f"feas[{r}]{tag}" for tag in tags for r in range(len(m._prows))]
    rnames += _ic_names("buyer", "", [_fmt(bt) for bt in m.btypes])
    for i, d in enumerate(inst.seller_dists):
        rnames += _ic_names("seller", f"[{i}]", [f"{v:g}" for v in d.values])
    rnames += ["budget(exante)"] if budget == "exante" else [f"budget{tag}" for tag in tags]

    def expr(cols, vals) -> str:
        return " ".join(f"{'+' if w >= 0 else '-'} {abs(w):.6g} {vnames[j]}" for j, w in zip(cols, vals))

    x = np.flatnonzero([s.startswith("x[") for s in vnames])
    lines = ["maximize", "  " + expr(x, -c[x]), "subject to"]
    for r, name in enumerate(rnames):
        lo, hi = A.indptr[r], A.indptr[r + 1]
        lines.append(f"  {name}: {expr(A.indices[lo:hi], A.data[lo:hi])} <= {b[r]:.6g}")
    return "\n".join(lines)


def opt_s_lp(m: DiscreteMarket) -> float:
    """Best E[buyer payment - allocated costs] under buyer BIC/IR only, with
    the allocation free to depend on the full cost profile."""
    n = m.inst.n
    stride = n + 1
    base, xcols, bounds = _lp(m, stride)
    w = np.outer(m.bprobs, m.sprobs)
    c = np.zeros(len(bounds))
    c[base.ravel() + n] = -w.ravel()
    c[xcols] = (w[:, :, None] * m.stypes[None, :, :]).ravel()
    A, b = _stack([_feasibility_rows(m, base), _buyer_rows(m, base, stride)], len(c))
    return _maximize(c, A, b, bounds)


def opt_s_partition_check(m: DiscreteMarket, tol: float = 1e-6) -> dict:
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
        results[f"keep{keep}"] = (whole, part + fb, whole <= part + fb + tol)
    return results


def verify_ub_chain(m: DiscreteMarket, mechanisms: Sequence | None = None, tol: float = 1e-6) -> dict:
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
        "sb_le_fb": sb <= fb + tol,
        "sb_le_optb_plus_opts": sb <= ob + os_ + tol,
        "mechanisms": {},
    }
    if mechanisms is None:
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
        report["mechanisms"][getattr(mech, "name", type(mech).__name__)] = (g, g <= sb + tol)
    return report
