"""Linear-programming ground truth for small discrete markets.

second_best_lp solves for the best GFT attainable by any interim-incentive-
compatible, interim-individually-rational, (ex-ante by default) weakly
budget-balanced mechanism, with the allocation relaxed per profile to the
constraint polytope. That relaxation is exact whenever the per-profile
polytope has integral vertices (additive, unit-demand, k-uniform, matroid);
for intersections the value is a labeled upper bound.

opt_s_lp drops the seller-side constraints entirely: the designer sees costs,
pays them at face value, and only the buyer's incentives bind.

The allocation is a variable per profile, where the objective and the
polytope rows live. Incentives are stated over interim variables: each buyer
type's expected allocation XB and payment PB over the seller profiles, and
each seller cost type's expected trade XS and payment PS given that cost.
Equality rows define XB and XS from the allocation. A payment enters only its
interim mean and the budget, so the per-profile payments are projected out
exactly: ex ante, PB and PS are free and the budget is one row over them; ex
post, the sellers' payments stay per profile (they define PS) and the buyer's
per-profile budget rows sum to one row per buyer type against PB. A
single-dimensional agent (every seller, and the buyer of one item) has IR at
its worst type and BIC between neighbouring types only, which imply all the
others (Myerson 1981); the multi-dimensional buyer has every pair. Both LPs are
assembled as one sparse matrix with row bounds by index arithmetic on the
product type grids and solved by one HiGHS call; variable names exist only in
lp_text. The call sees the objective divided by a power of two, so that its
largest coefficient lies in [0.5, 1), and the point it returns is checked
against the unscaled rows and bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.optimize import linprog  # noqa: F401  (unused; perfbench/tracing.py patches oracle.linprog)

from .feasibility import CapacityError, polytope_rows
from .mechanisms import MarketInstance, buyer_grid, seller_grid

__all__ = [
    "DiscreteMarket",
    "second_best_lp",
    "opt_s_lp",
    "lp_text",
    "opt_s_partition_check",
    "verify_ub_chain",
]

# Largest LP admitted, in constraint-matrix nonzeros. A solve peaks at about
# 540 bytes per nonzero over the interpreter's ~80 MB (measured 477-538 B on
# ex-post LPs of two-item grids up to 14x14 and bilateral grids up to 600x600,
# 1.45M nonzeros), so an LP at the cap peaks near 1 GB.
LP_NNZ_CAP = 1_800_000
CHAIN_TOL = 1e-6  # slack allowed in each inequality of the bound chain
# Largest residual of a returned point on the unscaled rows and box: HiGHS's
# own primal feasibility tolerance. The scaled solves break no row by more
# than about 1e-13; an unscaled ex-ante solve on a bilateral 150x150 grid
# broke a buyer IC row by 2e-6 and overstated SB by 1.0e-4.
PRIMAL_TOL = 1e-7


@dataclass(frozen=True)
class DiscreteMarket:
    """A fully discrete instance with its enumerated type spaces. A market is
    refused when even its smallest LP, OPT-S, is over the cap; each
    second-best LP is checked again, by its own count, before it is built."""

    inst: MarketInstance

    def __post_init__(self):
        if not self.inst.is_discrete:
            raise ValueError("LP oracle needs a fully discrete instance")
        self.admit("opt_s")

    def admit(self, kind: str) -> None:
        """Raise CapacityError when the LP of this kind is over the cap."""
        nnz = self.lp_nnz(kind)
        if nnz > LP_NNZ_CAP:
            raise CapacityError(f"{kind} LP has {nnz} nonzeros, over the cap {LP_NNZ_CAP}")

    def lp_nnz(self, kind: str) -> int:
        """Nonzeros of the `exante` or `expost` second-best LP or of `opt_s`,
        counted from the grid sizes before any grid or matrix is built; zero
        coefficients, e.g. from a zero cost atom, make the built LP sparser."""
        n = self.inst.n
        per_profile = {"opt_s": n, "exante": 2 * n, "expost": 4 * n}[kind]
        nb = math.prod(len(d.values) for d in self.inst.buyer_dists)
        sizes = [len(d.values) for d in self.inst.seller_dists]
        ns = math.prod(sizes)
        feas = sum(len(coefs) for coefs, _ in self._prows)
        # per profile: feasibility rows, each x[i] in defXB[i] (and, second
        # best, in defXS[i]), and ex post each pS[i] in defPS[i] and its buyer
        # type's budget row; per buyer type: each XB[i] once in defXB[i], and
        # IR/BIC rows of n+1 and 2(n+1) entries over all pairs of types. Local
        # incentive rows of an agent with k types (the single-item buyer, each
        # seller) are one IR row of 2 and 2(k-1) BIC rows of 4. The second
        # best adds PB once in a budget row and a seller's XS and PS in two
        # more rows per type (defXS, and the ex-ante budget or defPS).
        buyer = 8 * nb - 6 if n == 1 else (n + 1) * nb * (2 * nb - 1)
        total = nb * ns * (feas + per_profile) + nb * n + buyer
        return total if kind == "opt_s" else total + nb + sum(10 * k - 6 for k in sizes)

    @cached_property
    def _prows(self):
        return polytope_rows(self.inst.constraint)

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


def _fmt(vals: Sequence[float]) -> str:
    return ",".join(f"{v:g}" for v in vals)


# Both LPs lay out one block of `stride` variables per profile (a, k), in
# buyer-major order: variable j of profile (a, k) is (a*ns + k)*stride + j.
# The block is x[0..n-1], followed by pS[0..n-1] in the ex-post second best
# (stride 2n); the ex-ante second best and OPT-S keep x alone (stride n). The
# interim variables follow the profile blocks: buyer type a's block
# (XB[0..n-1](a), PB(a)), then, second best only, each seller i's pairs
# (XS[i](t), PS[i](t)) by cost type t. Equality rows define XB and XS from x,
# and PS from pS ex post; PB, and PS ex ante, are free. Every row block below
# is (rows, cols, vals, lo, hi) with local rows, lo <= sum vals*var <= hi; an
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


def _ic_pairs(m: int, ir: int | None) -> tuple[np.ndarray, np.ndarray]:
    """(true type t, report r) of one agent's IR/BIC rows in row order, r == t
    for the IR row of t. With ir None, every pair: per true type its IR row,
    then each other report in order. Otherwise the agent is single-dimensional
    with its m types in order, and IR at type ir (the highest cost or lowest
    value) with BIC between neighbours implies every pair (Myerson 1981): per
    true type, its IR row if it is ir, then BIC to t-1 and to t+1."""
    if ir is None:
        t = np.repeat(np.arange(m), m)
        q = np.tile(np.arange(m), m) - 1
        return t, np.where(q < 0, t, q + (q >= t))
    t = np.repeat(np.arange(m), 3)
    r = t + np.tile([0, -1, 1], m)
    keep = np.where(r == t, t == ir, (r >= 0) & (r < m))
    return t[keep], r[keep]


def _buyer_pairs(m: DiscreteMarket):
    """A single-item buyer's types are its increasing values."""
    return _ic_pairs(len(m.btypes), 0 if m.inst.n == 1 else None)


def _incentive_rows(cols: np.ndarray, vals: np.ndarray, pairs):
    """One row per pair (t, r) over an agent's interim columns cols, shape (m,
    width), where true type t's value of reporting r is -vals[t] . var[cols[r]]:
    the IR row sum vals[t] * var[cols[t]] <= 0, and a BIC row that adds
    -vals[t] at cols[r]."""
    t, r = pairs
    bic = np.flatnonzero(t != r)
    return (
        np.repeat(np.concatenate([np.arange(t.size), bic]), cols.shape[1]),
        np.concatenate([cols[t].ravel(), cols[r[bic]].ravel()]),
        np.concatenate([vals[t].ravel(), -vals[t[bic]].ravel()]),
        *_upper(np.zeros(t.size)),
    )


def _buyer_rows(m: DiscreteMarket, base: np.ndarray, first: int):
    """The buyer's interim block from column `first`, XB(a) = sum_k pS[k] *
    x(a, k) beside a free PB(a), and its IR/BIC rows over them: type a's value
    of reporting a2 is B[a].XB(a2) - PB(a2)."""
    B = m.btypes
    nb, ns = base.shape
    n = B.shape[1]
    interim = first + np.arange(nb * (n + 1)).reshape(nb, n + 1)
    members = (base[:, None, :] + np.arange(n)[:, None]).reshape(-1, ns)
    vals = np.hstack([-B, np.ones((nb, 1))])
    return [_interim_rows(interim[:, :n], members, m.sprobs), _incentive_rows(interim, vals, _buyer_pairs(m))]


def _seller_rows(m: DiscreteMarket, base: np.ndarray, first: int, i: int, pay: int | None):
    """Seller i's interim pairs from column `first`: XS[i](t) = sum over the
    profiles (b, k) with cost atoms[t] of pB[b]*pS[k]/g[t] * x[i](b, k), and
    PS[i](t) the same sum of the variable at offset pay + i of the profile
    block, or free when pay is None; and its IR/BIC rows over them: cost type
    t's value of reporting r is PS[i](r) - atoms[t]*XS[i](r)."""
    inst = m.inst
    atoms, g = inst.seller_dists[i].atoms, inst.seller_dists[i].masses
    mi = len(atoms)
    stride_i = math.prod(len(d.values) for d in inst.seller_dists[i + 1 :])
    nb, ns = base.shape
    digit = np.arange(ns) // stride_i % mi
    K = np.argsort(digit, kind="stable").reshape(mi, -1)  # profiles k with cost atoms[t]
    w = m.bprobs[None, :, None] * (m.sprobs[K] / g[:, None])[:, None, :]
    prof = base[:, K].transpose(1, 0, 2).reshape(mi, 1, -1)
    offsets = np.array([i] if pay is None else [i, pay + i])
    interim = first + np.arange(2 * mi).reshape(mi, 2)
    members = (prof + offsets[:, None]).reshape(mi * offsets.size, -1)
    weights = np.repeat(w.reshape(mi, -1), offsets.size, axis=0)
    vals = np.column_stack([atoms, -np.ones(mi)])
    return [
        _interim_rows(interim[:, : offsets.size], members, weights),
        _incentive_rows(interim, vals, _ic_pairs(mi, mi - 1)),
    ]


def _budget_rows(m: DiscreteMarket, base: np.ndarray, budget: str, pb: np.ndarray, ps: np.ndarray):
    """Weak budget balance over the buyer's PB columns pb. Ex ante, one row
    sum_i sum_t g_i[t]*PS[i](t) - sum_a pB[a]*PB(a) <= 0 over the sellers' PS
    columns ps. Ex post, with the buyer's per-profile payment projected out,
    one row per buyer type: sum_k pS[k] * sum_i pS[i](a, k) - PB(a) <= 0."""
    if budget == "exante":
        g = np.concatenate([d.probs for d in m.inst.seller_dists])
        cols = np.concatenate([ps, pb])
        return np.zeros(cols.size, dtype=int), cols, np.concatenate([g, -m.bprobs]), *_upper(np.zeros(1))
    n = m.inst.n
    members = (base[:, :, None] + n + np.arange(n)).reshape(len(pb), -1)
    rows, cols, vals, _, rhs = _interim_rows(pb, members, np.repeat(m.sprobs, n))
    return rows, cols, vals, *_upper(rhs)


def _stack(blocks, nv: int):
    """One canonical CSC matrix (sorted indices, no duplicates or explicit
    zeros), column-wise as HiGHS takes it, and its row bounds from the row
    blocks, in order."""
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
    A = sp.csc_array(coo, shape=(nrows, nv))
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
    m.admit(budget)
    n = m.inst.n
    nb = len(m.btypes)
    sizes = [len(d.values) for d in m.inst.seller_dists]
    stride = n if budget == "exante" else 2 * n
    base, xcols, box = _lp(m, stride, nb * (n + 1) + 2 * sum(sizes))
    B, S = m.btypes, m.stypes
    c = np.zeros(len(box.lb))
    c[xcols] = -(np.outer(m.bprobs, m.sprobs)[:, :, None] * (B[:, None, :] - S[None, :, :])).ravel()
    first = base.size * stride
    pb = first + np.arange(nb) * (n + 1) + n
    blocks = [_feasibility_rows(m, base), *_buyer_rows(m, base, first)]
    first += nb * (n + 1)
    ps = []
    for i, k in enumerate(sizes):
        blocks += _seller_rows(m, base, first, i, None if budget == "exante" else n)
        ps.append(first + 2 * np.arange(k) + 1)
        first += 2 * k
    blocks.append(_budget_rows(m, base, budget, pb, np.concatenate(ps)))
    return c, *_stack(blocks, len(c)), box


def _maximize(kind: str, c: np.ndarray, A, lo: np.ndarray, hi: np.ndarray, box: Bounds) -> float:
    """The optimum of the `kind` LP, min c.x subject to lo <= A x <= hi and
    the box, negated. The solver sees c divided by the power of two just
    above its largest |coefficient|, which loses no bit of c: coefficients
    such as pB*pS*(b - s) fall to 1e-5 and below on larger grids, far under
    the solver's absolute tolerances, where the simplex slowed down or
    stopped at a wrong point. The point returned must meet every unscaled
    row and bound within PRIMAL_TOL."""
    scale = 2.0 ** math.frexp(np.abs(c).max())[1]
    res = milp(c / scale, constraints=LinearConstraint(A, lo, hi), bounds=box)
    if not res.success:
        raise RuntimeError(f"{kind} LP solve failed: {res.message}")
    ax = A @ res.x
    rows = np.maximum(lo - ax, ax - hi)
    bounds = np.maximum(box.lb - res.x, res.x - box.ub)
    for what, resid in (("row", rows), ("bound of variable", bounds)):
        worst = int(np.argmax(resid))
        if resid[worst] > PRIMAL_TOL:
            raise RuntimeError(f"{kind} LP solution breaks {what} {worst} by {resid[worst]:.3g} > {PRIMAL_TOL:g}")
    return float(-res.fun * scale)


def second_best_lp(m: DiscreteMarket, budget: str = "exante") -> float:
    return _maximize(budget, *_second_best(m, budget))


def _ic_names(who: str, sub: str, labels: list[str], pairs) -> list[str]:
    return [
        f"{who}IR{sub}({labels[t]})" if t == r else f"{who}BIC{sub}({labels[t]}->{labels[r]})" for t, r in zip(*pairs)
    ]


def lp_text(m: DiscreteMarket, budget: str = "exante") -> str:
    """The second-best LP in readable form, one named row per line; the row
    defining an interim variable V is named defV, and the ex-post budget row
    of buyer type a is budget(a)."""
    c, A, lo, hi, _ = _second_best(m, budget)
    A = A.tocsr()
    inst = m.inst
    n = inst.n
    tags = [f"({_fmt(bt)}|{_fmt(st)})" for bt in m.btypes for st in m.stypes]
    slots = [f"x[{i}]" for i in range(n)] + ([] if budget == "exante" else [f"pS[{i}]" for i in range(n)])
    vnames = [s + tag for tag in tags for s in slots]
    rnames = [f"feas[{r}]{tag}" for tag in tags for r in range(len(m._prows))]
    blabels = [_fmt(bt) for bt in m.btypes]
    vnames += [v for la in blabels for v in [f"XB[{i}]({la})" for i in range(n)] + [f"PB({la})"]]
    rnames += [f"defXB[{i}]({la})" for la in blabels for i in range(n)]
    rnames += _ic_names("buyer", "", blabels, _buyer_pairs(m))
    defined = ("XS",) if budget == "exante" else ("XS", "PS")
    for i, d in enumerate(inst.seller_dists):
        slabels = [f"{v:g}" for v in d.values]
        vnames += [v for lt in slabels for v in (f"XS[{i}]({lt})", f"PS[{i}]({lt})")]
        rnames += [f"def{v}[{i}]({lt})" for lt in slabels for v in defined]
        rnames += _ic_names("seller", f"[{i}]", slabels, _ic_pairs(len(slabels), len(slabels) - 1))
    rnames += ["budget(exante)"] if budget == "exante" else [f"budget({la})" for la in blabels]

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
    nb = len(m.btypes)
    base, xcols, box = _lp(m, n, nb * (n + 1))
    first = base.size * n
    c = np.zeros(len(box.lb))
    c[first + np.arange(nb) * (n + 1) + n] = -m.bprobs
    c[xcols] = (np.outer(m.bprobs, m.sprobs)[:, :, None] * m.stypes[None, :, :]).ravel()
    blocks = [_feasibility_rows(m, base), *_buyer_rows(m, base, first)]
    return _maximize("opt_s", c, *_stack(blocks, len(c)), box)


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
    prices = sorted({float(v) for d in inst.buyer_dists + inst.seller_dists for v in d.values})
    mechanisms = [Fpp(inst, np.full(inst.n, p), np.full(inst.n, p), name=f"fpp[{p:g}]") for p in prices]
    mechanisms.append(BuyerOffering(inst))
    if inst.n == 1:
        mechanisms.append(SellerOffering(inst))
    mechanisms.append(Sapp(inst, sapp_build(inst, reduction_rule(inst))))
    for mech in mechanisms:
        g = audits.exact_gft(mech, inst)
        report["mechanisms"][getattr(mech, "name", type(mech).__name__)] = (g, g <= sb + CHAIN_TOL)
    return report
