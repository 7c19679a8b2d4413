"""Estimation and verification: GFT estimates, first-best accounting, budget
balance, individual rationality, and seller incentive audits.

Monte Carlo checks quote mean and standard error so callers can apply
three-sigma bands. Every audit is an array reduction of a mechanism's
kernels: Monte Carlo paths call `run_batch` or `outcome_batch` once on all
samples (with one coin per sample and item), and exact paths evaluate
`expected_gft_rows`, which integrates coins, on the profile grid.
`_grid_expectation` is the one reducer over that grid; the exact first best
and `bounds.opt_b` / `bounds.brustle_sd_upper` use it too.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Callable

import numpy as np

from . import feasibility as fea
from .distributions import _ordered_sum, item_sum
from .mechanisms import MarketInstance, buyer_grid, seller_grid

__all__ = [
    "estimate_gft",
    "exact_gft",
    "first_best_gft",
    "budget_audit",
    "BudgetReport",
    "ir_audit",
    "dsic_audit_sellers",
    "AuditReport",
    "audit_report",
]

GRID_CAP = 10**7


def _mean_stderr(x: np.ndarray) -> tuple[float, float]:
    x = np.asarray(x, dtype=float)
    if len(x) < 2:
        return float(x.mean()) if len(x) else 0.0, 0.0
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(len(x)))


def _sample(inst: MarketInstance, samples: int, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Profiles, then one coin per (sample, item): the stream a per-sample
    `run(b, s, rng=rng)` loop draws, so coin-flipping mechanisms keep it."""
    rng = np.random.default_rng(seed)
    B, S = inst.sample_profiles(rng, samples)
    return B, S, rng.random((samples, inst.n))


def _first_min(x: np.ndarray) -> float:
    """The minimum, taken as a running `min` would (first of equal values)."""
    x = np.ravel(x)
    return float(x[np.argmin(x)]) if x.size else math.inf


def estimate_gft(mechanism, inst: MarketInstance, samples: int = 10**4, seed: int = 0) -> tuple[float, float]:
    """Sample-mean GFT of a mechanism and its standard error."""
    B, S, coins = _sample(inst, samples, seed)
    return _mean_stderr(mechanism.run_batch(B, S, coins=coins))


EXACT_CHUNK = 2**16  # profiles per row-function call in _grid_expectation


def _grid_expectation(
    inst: MarketInstance,
    rows: Callable[[np.ndarray, np.ndarray], Callable[[np.ndarray, np.ndarray], np.ndarray]],
) -> float:
    """E[f(b, s)] over the discrete profile grid of inst. rows(B, S) is
    called once with the buyer and seller grids, so per-side work such as the
    ironed virtuals is done once per side, and returns the row function
    f(b, s) -> one value per profile, for arrays of buyer and seller grid
    indices. The profile count is checked against GRID_CAP before either grid
    is built; profiles go to f seller-major in blocks of EXACT_CHUNK and are
    summed in index order."""
    if not inst.is_discrete:
        raise ValueError("exact enumeration needs discrete distributions")
    if math.prod(len(d.values) for d in inst.buyer_dists + inst.seller_dists) > GRID_CAP:
        raise fea.CapacityError("profile grid too large for exact evaluation")
    B, pB = buyer_grid(inst)
    S, pS = seller_grid(inst)
    f = rows(B, S)
    total = 0.0
    for k in range(0, len(S) * len(B), EXACT_CHUNK):
        s, b = np.divmod(np.arange(k, min(k + EXACT_CHUNK, len(S) * len(B))), len(B))
        w = pS[s] * pB[b]
        g = f(b, s)
        total = float(_ordered_sum(np.concatenate(([total], np.where(w > 0.0, w * g, 0.0))), axis=0))
    return total


def exact_gft(mechanism, inst: MarketInstance) -> float:
    """Exact expected GFT on a fully discrete instance: the mechanism's
    per-profile expectation (which integrates internal randomness) over the
    product grid."""
    return _grid_expectation(inst, lambda B, S: lambda b, s: mechanism.expected_gft_rows(B[b], S[s]))


def first_best_gft(inst: MarketInstance, mode: str = "exact", samples: int = 10**5, seed: int = 0):
    """E[max over feasible sets of the positive-part surplus].

    mode="exact" enumerates discrete grids and returns a float; mode="mc"
    returns (mean, stderr).
    """
    if mode == "exact":
        c = inst.constraint
        return _grid_expectation(inst, lambda B, S: lambda b, s: fea.max_weight_values(c, B[b] - S[s])[0])
    if mode != "mc":
        raise ValueError("mode must be 'exact' or 'mc'")
    rng = np.random.default_rng(seed)
    B, S = inst.sample_profiles(rng, samples)
    return _mean_stderr(fea.max_weight_values(inst.constraint, B - S)[0])


@dataclass(frozen=True)
class BudgetReport:
    expost_min_slack: float
    exante_slack: float
    exante_stderr: float

    @property
    def expost_ok(self) -> bool:
        return self.expost_min_slack >= -1e-9


def budget_audit(mechanism, inst: MarketInstance, samples: int = 10**4, seed: int = 0) -> BudgetReport:
    """Buyer payment minus total seller payments, ex post (min) and ex ante."""
    B, S, coins = _sample(inst, samples, seed)
    _, pay_b, pay_S = mechanism.outcome_batch(B, S, coins)
    slack = pay_b - item_sum(pay_S)
    mean, err = _mean_stderr(slack)
    return BudgetReport(float(slack.min()), mean, err)


def ir_audit(mechanism, inst: MarketInstance, samples: int = 4096, seed: int = 0) -> tuple[float, float]:
    """Minimum ex-post utility slack over samples: (buyer, worst seller)."""
    B, S, coins = _sample(inst, samples, seed)
    X, pay_b, pay_S = mechanism.outcome_batch(B, S, coins)
    buyer = item_sum(np.where(X, B, 0.0)) - pay_b
    return _first_min(buyer), _first_min(np.where(X, pay_S - S, pay_S))


def _deviation_grid(inst: MarketInstance, i: int) -> np.ndarray:
    """Seller i's atoms, else the midpoints of 33 equal-mass cells of its cost."""
    d = inst.seller_dists[i]
    if d.kind == "discrete":
        return np.asarray(d.values, dtype=float)
    return d.ppf((np.arange(33) + 0.5) / 33)


def dsic_audit_sellers(
    mechanism,
    inst: MarketInstance,
    samples: int = 2000,
    seed: int = 0,
) -> float:
    """Largest estimated expected gain from a unilateral seller misreport.

    Prefers a mechanism-provided exact deviation scan on discrete instances;
    otherwise Monte Carlo with common random numbers (shared profiles, and
    shared coins for coin-flipping mechanisms) across deviations.
    """
    if inst.is_discrete and hasattr(mechanism, "exact_dsic_gain"):
        return float(mechanism.exact_dsic_gain())
    B, S, coins = _sample(inst, samples, seed)

    def util(i: int, reports: np.ndarray) -> np.ndarray:
        X, _, pay = mechanism.outcome_batch(B, reports, coins)
        return np.where(X[:, i], pay[:, i] - S[:, i], pay[:, i])

    worst = -np.inf
    for i in range(inst.n):
        truth = util(i, S)
        for z in _deviation_grid(inst, i):
            reports = S.copy()
            reports[:, i] = z
            worst = max(worst, float((util(i, reports) - truth).mean()))
    return worst


@dataclass(frozen=True)
class AuditReport:
    mechanism: str
    gft: float
    gft_stderr: float
    expost_budget_min: float
    exante_budget: float
    exante_budget_stderr: float
    buyer_ir_min: float
    seller_ir_min: float
    exact: bool = False

    def as_dict(self) -> dict:
        return asdict(self)


AuditReport.CSV_FIELDS = tuple(f.name for f in fields(AuditReport))


def audit_report(mechanism, inst: MarketInstance, samples: int = 10**4, seed: int = 0, exact: bool = False) -> AuditReport:
    if exact:
        gft, err = exact_gft(mechanism, inst), 0.0
    else:
        gft, err = estimate_gft(mechanism, inst, samples, seed)
    bud = budget_audit(mechanism, inst, min(samples, 10**4), seed + 1)
    bir, sir = ir_audit(mechanism, inst, min(samples, 4096), seed + 2)
    name = getattr(mechanism, "name", type(mechanism).__name__)
    return AuditReport(name, gft, err, bud.expost_min_slack, bud.exante_slack, bud.exante_stderr, bir, sir, exact)

