"""Per-profile reference form of the second-best and OPT-S LPs, kept so the
interim form in `oracle` can be checked against it.

Here every incentive row sums over the profiles directly: buyer type a's
value of reporting a2 is sum_k pS[k] * (B[a].x(a2, k) - pB(a2, k)), and seller
i's rows sum over all profiles whose i-th cost is the reported type. The LP is
one block of variables per profile and is solved by `linprog`, so it shares
neither the interim variables nor the solve call with `oracle`. Its incentive
rows have O(types^2 * profiles) nonzeros, so keep the markets small.
"""
import math

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

# One block of `stride` variables per profile (a, k), buyer-major: variable j
# of profile (a, k) is (a*ns + k)*stride + j. Second best has stride 2n+1
# (x[0..n-1], pB, pS[0..n-1]); OPT-S has n+1 (x, pB). Every row block is
# (rows, cols, vals, rhs) with local rows, each row sum vals*var <= rhs.


def feasibility_rows(m, base):
    prows = m._prows
    sizes = [len(coefs) for coefs, _ in prows]
    ridx = np.repeat(np.arange(len(prows)), sizes)
    items = np.array([i for coefs, _ in prows for i in coefs], dtype=int)
    coef = np.array([w for coefs, _ in prows for w in coefs.values()], dtype=float)
    rhs = np.array([r for _, r in prows], dtype=float)
    rows = np.arange(base.size).reshape(-1, 1) * len(prows) + ridx
    cols = base.reshape(-1, 1) + items
    return rows.ravel(), cols.ravel(), np.tile(coef, base.size), np.tile(rhs, base.size)


def incentive_rows(cols, vals, step):
    """IR row t*m and BIC rows t*m+1 .. t*m+m-1 of true type t; misreport r
    adds -vals[t] at cols[t] + (r - t)*step."""
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


def buyer_rows(m, base, stride):
    B, pS = m.btypes, m.sprobs
    nb, ns = base.shape
    n = B.shape[1]
    util = np.empty((nb, ns, n + 1))
    util[:, :, :n] = pS[None, :, None] * B[:, None, :]
    util[:, :, n] = -pS
    cols = base[:, :, None] + np.arange(n + 1)
    return incentive_rows(cols.reshape(nb, -1), -util.reshape(nb, -1), ns * stride)


def seller_rows(m, base, stride, i):
    inst = m.inst
    n = inst.n
    atoms = np.array(inst.seller_dists[i].values)
    g = np.array(inst.seller_dists[i].probs)
    mi = len(atoms)
    stride_i = math.prod(len(d.values) for d in inst.seller_dists[i + 1 :])
    nb, ns = base.shape
    digit = np.arange(ns) // stride_i % mi
    K = np.argsort(digit, kind="stable").reshape(mi, -1)
    w = m.bprobs[None, :, None] * (m.sprobs[K] / g[:, None])[:, None, :]
    prof = base[:, K].transpose(1, 0, 2)
    cols = np.stack([prof + n + 1 + i, prof + i], axis=1)
    vals = np.stack([-w, w * atoms[:, None, None]], axis=1)
    return incentive_rows(cols.reshape(mi, -1), vals.reshape(mi, -1), stride_i * stride)


def budget_rows(m, base, budget):
    n = m.inst.n
    sign = np.r_[-1.0, np.ones(n)]
    cols = (base.reshape(-1, 1) + n + np.arange(n + 1)).ravel()
    if budget == "exante":
        w = np.outer(m.bprobs, m.sprobs).ravel()
        return np.zeros(cols.size, dtype=int), cols, np.outer(w, sign).ravel(), np.zeros(1)
    return np.repeat(np.arange(base.size), n + 1), cols, np.tile(sign, base.size), np.zeros(base.size)


def stack(blocks, nv):
    rows, cols, vals, rhs = [], [], [], []
    nrows = 0
    for r, c, v, b in blocks:
        rows.append(r + nrows)
        cols.append(c)
        vals.append(v)
        rhs.append(b)
        nrows += len(b)
    A = sp.csr_array((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(nrows, nv))
    return A, np.concatenate(rhs)


def layout(m, stride):
    nb, ns = len(m.btypes), len(m.stypes)
    n = m.inst.n
    base = np.arange(nb * ns).reshape(nb, ns) * stride
    xcols = (base[:, :, None] + np.arange(n)).ravel()
    bounds = ([(0.0, 1.0)] * n + [(None, None)] * (stride - n)) * (nb * ns)
    return base, xcols, bounds


def maximize(c, A, b, bounds):
    res = linprog(c, A_ub=A, b_ub=b, bounds=bounds, method="highs")
    assert res.success, res.message
    return float(-res.fun)


def second_best(m, budget="exante"):
    n = m.inst.n
    stride = 2 * n + 1
    base, xcols, bounds = layout(m, stride)
    B, S = m.btypes, m.stypes
    c = np.zeros(len(bounds))
    c[xcols] = -(np.outer(m.bprobs, m.sprobs)[:, :, None] * (B[:, None, :] - S[None, :, :])).ravel()
    blocks = [feasibility_rows(m, base), buyer_rows(m, base, stride)]
    blocks += [seller_rows(m, base, stride, i) for i in range(n)]
    blocks.append(budget_rows(m, base, budget))
    return maximize(c, *stack(blocks, len(c)), bounds)


def opt_s(m):
    n = m.inst.n
    stride = n + 1
    base, xcols, bounds = layout(m, stride)
    w = np.outer(m.bprobs, m.sprobs)
    c = np.zeros(len(bounds))
    c[base.ravel() + n] = -w.ravel()
    c[xcols] = (w[:, :, None] * m.stypes[None, :, :]).ravel()
    A, b = stack([feasibility_rows(m, base), buyer_rows(m, base, stride)], len(c))
    return maximize(c, A, b, bounds)
