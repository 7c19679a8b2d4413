"""Test-side seller incentive scan: the largest expected gain a seller gets by
a unilateral misreport, over a grid of deviations.

An exact scan when the mechanism offers one on a discrete market, else Monte
Carlo with common random numbers: one sample of profiles and coins (drawn as
`audits._sample` draws them) is shared by the truthful run and every
deviation.
"""
import numpy as np

from gft_lab import audits


def expost_ok(report: audits.BudgetReport) -> bool:
    """Weak budget balance on every sampled profile, to 1e-9."""
    return report.expost_min_slack >= -1e-9


def deviation_grid(inst, i: int) -> np.ndarray:
    """Seller i's atoms, else the midpoints of 33 equal-mass cells of its cost."""
    d = inst.seller_dists[i]
    if d.kind == "discrete":
        return np.asarray(d.values, dtype=float)
    return d.ppf((np.arange(33) + 0.5) / 33)


def dsic_audit_sellers(mechanism, inst, samples: int = 2000, seed: int = 0) -> float:
    if inst.is_discrete and hasattr(mechanism, "exact_dsic_gain"):
        return float(mechanism.exact_dsic_gain())
    B, S, coins = audits._sample(inst, samples, seed)

    def util(i: int, reports: np.ndarray) -> np.ndarray:
        X, _, pay = mechanism.outcome_batch(B, reports, coins)
        return np.where(X[:, i], pay[:, i] - S[:, i], pay[:, i])

    worst = -np.inf
    for i in range(inst.n):
        truth = util(i, S)
        for z in deviation_grid(inst, i):
            reports = S.copy()
            reports[:, i] = z
            worst = max(worst, float((util(i, reports) - truth).mean()))
    return worst
