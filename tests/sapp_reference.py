"""Per-profile reference implementations of the SAPP price map and exact
audits, kept as plain loops so the array code in `mechanisms` can be checked
against them: one rule call per (buyer profile, seller profile), prices from
`dst.quantile`, `d.tail` and the atom's own mass, and every sum a running `+=`.
"""
import numpy as np

from gft_lab import distributions as dst
from gft_lab import mechanisms as mech

TOL = mech.TOL


def mass(d, v):
    """The mass of the atom at v (to 1e-12 relative), 0 if none."""
    for val, p in zip(d.values, d.probs):
        if abs(val - v) <= 1e-12 * max(1.0, abs(v)):
            return p
    return 0.0


def entry(inst, rule, s):
    """(q, theta, alpha) at seller profile s over a discrete buyer grid."""
    B, pB = mech.buyer_grid(inst)
    phi = inst.buyer_ironed
    q = np.zeros(inst.n)
    for m in range(len(B)):
        x = rule(B[m], s)
        if x.any():
            pv = np.array([phi[i](B[m][i]) for i in range(inst.n)])
            q += pB[m] * (x * (pv >= s - TOL))
    theta = np.empty(inst.n)
    alpha = np.zeros(inst.n)
    for i, d in enumerate(inst.buyer_dists):
        theta[i] = dst.quantile(d, 1.0 - q[i] / 2.0)
        m = mass(d, theta[i])
        above = d.tail(theta[i]) - m
        alpha[i] = 0.0 if m <= 0 else min(1.0, max(0.0, (q[i] / 2.0 - above) / m))
    return q, theta, alpha


class Reference:
    """Exact SAPP accounting by enumerating every (seller, buyer) profile."""

    def __init__(self, inst, rule):
        self.inst = inst
        self.rule = rule
        self.entries = {}

    def entry(self, s):
        key = tuple(np.asarray(s, dtype=float).tolist())
        if key not in self.entries:
            self.entries[key] = entry(self.inst, self.rule, np.asarray(s, dtype=float))
        return self.entries[key]

    def beta(self, b, s):
        _, theta, alpha = self.entry(s)
        beta = np.zeros(self.inst.n)
        sure = b > theta + TOL
        if sure.any():
            beta[int(np.argmax(np.where(sure, b - theta, -np.inf)))] = 1.0
            return beta
        live = 1.0
        for i in np.nonzero(np.abs(b - theta) <= TOL)[0]:
            beta[i] = alpha[i] * live
            live *= 1.0 - alpha[i]
        return beta

    def report(self):
        inst = self.inst
        B, pB = mech.buyer_grid(inst)
        S, pS = mech.seller_grid(inst)
        tau = [{v: dst.seller_virtual(d, v) for v in d.values} for d in inst.seller_dists]
        phi = inst.buyer_ironed
        gft = buyer_pay = seller_pay = rule_term = 0.0
        xhat = {}
        for kk, s in enumerate(S):
            _, theta, _ = self.entry(s)
            xh = np.zeros(inst.n)
            for mm, b in enumerate(B):
                w = pS[kk] * pB[mm]
                bt = self.beta(b, s)
                xh += pB[mm] * bt
                gft += w * float(np.dot(bt, b - s))
                buyer_pay += w * float(np.dot(bt, theta))
                seller_pay += w * float(sum(bt[i] * tau[i][s[i]] for i in range(inst.n) if bt[i] > 0))
                pv = np.array([phi[i](b[i]) for i in range(inst.n)])
                keep = self.rule(b, s) * (pv >= s - TOL)
                rule_term += w * float(np.dot(keep, pv - s))
            xhat[tuple(s.tolist())] = xh
        return {
            "gft": gft,
            "buyer_payment": buyer_pay,
            "seller_payments": seller_pay,
            "wbb_slack": buyer_pay - seller_pay,
            "rule_virtual_surplus": rule_term,
            "xhat": xhat,
        }

    def sandwich_violation(self):
        B, pB = mech.buyer_grid(self.inst)
        worst = -np.inf
        for s in mech.seller_grid(self.inst)[0]:
            q = self.entry(s)[0]
            xh = np.zeros(self.inst.n)
            for mm, b in enumerate(B):
                xh += pB[mm] * self.beta(b, s)
            worst = max(worst, float(np.max((q + q * q) / 4.0 - xh)), float(np.max(xh - q / 2.0)))
        return worst

    def dsic_gain(self):
        inst = self.inst
        B, pB = mech.buyer_grid(inst)
        worst = -np.inf
        for i in range(inst.n):
            atoms = inst.seller_dists[i].values
            others = [inst.seller_dists[j] for j in range(inst.n) if j != i]
            OG, opr = mech._product_grid(others) if others else (np.zeros((1, 0)), np.ones(1))
            K = len(atoms)
            util = np.zeros((K, K))  # util[a][z]: truthful cost atoms[a], report atoms[z]
            for gg in range(len(OG)):
                for mm in range(len(B)):
                    w = opr[gg] * pB[mm]
                    betas = np.empty(K)
                    for z in range(K):
                        s = np.insert(OG[gg], i, atoms[z])
                        betas[z] = self.beta(B[mm], s)[i]
                    diffs = betas - np.append(betas[1:], 0.0)  # Pr[threshold index = z]
                    pay_tail = np.cumsum((diffs * np.asarray(atoms))[::-1])[::-1]
                    for a in range(K):
                        util[a] += w * (pay_tail - atoms[a] * betas)
            worst = max(worst, float((util - np.diag(util)[:, None]).max()))
        return worst
