"""Estimation and verification: GFT estimates, first-best accounting, budget
balance and individual rationality audits.

Monte Carlo checks quote mean and standard error so callers can apply
three-sigma bands. Every audit is an array reduction of a mechanism's
kernels: Monte Carlo paths draw once (with one coin per sample and item)
and run each row once through `run_batch` or `outcome_batch`, and exact
paths evaluate `expected_gft_rows`, which integrates coins, on the profile
grid. `_grid_expectation` is the one reducer over that grid; the exact
first best and `bounds.opt_b` / `bounds.brustle_sd_upper` use it too.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Callable

import numpy as np

from . import feasibility as fea
from .distributions import _ordered_sum, item_sum
from .mechanisms import MarketInstance, _gft_rows, buyer_grid, seller_grid

__all__ = [
    "estimate_gft",
    "exact_gft",
    "first_best_gft",
    "budget_audit",
    "BudgetReport",
    "ir_audit",
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
    """Profiles, then one coin per (sample, item) from the same generator:
    the coins a realized SAPP run takes."""
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


def _expectation(inst: MarketInstance, rows, mode: str, samples: int, seed: int):
    """E[f(b, s)] for rows(B, S) -> f as in `_grid_expectation`: exactly over
    the grid (mode="exact", a float), or as (mean, stderr) over `samples`
    seeded profile draws (mode="mc"), f then taking every row in place."""
    if mode == "exact":
        return _grid_expectation(inst, rows)
    if mode != "mc":
        raise ValueError("mode must be 'exact' or 'mc'")
    every = slice(None)
    return _mean_stderr(rows(*inst.sample_profiles(np.random.default_rng(seed), samples))(every, every))


def first_best_gft(inst: MarketInstance, mode: str = "exact", samples: int = 10**5, seed: int = 0):
    """E[max over feasible sets of the positive-part surplus].

    mode="exact" enumerates discrete grids and returns a float; mode="mc"
    returns (mean, stderr).
    """
    c = inst.constraint
    return _expectation(inst, lambda B, S: lambda b, s: fea.max_weight(c, B[b] - S[s]), mode, samples, seed)


@dataclass(frozen=True)
class BudgetReport:
    expost_min_slack: float
    exante_slack: float
    exante_stderr: float


def _budget(pay_b: np.ndarray, pay_S: np.ndarray) -> BudgetReport:
    slack = pay_b - item_sum(pay_S)
    mean, err = _mean_stderr(slack)
    return BudgetReport(float(slack.min()), mean, err)


def _ir(B, S, X, pay_b, pay_S) -> tuple[float, float]:
    buyer = item_sum(np.where(X, B, 0.0)) - pay_b
    return _first_min(buyer), _first_min(np.where(X, pay_S - S, pay_S))


def budget_audit(mechanism, inst: MarketInstance, samples: int = 10**4, seed: int = 0) -> BudgetReport:
    """Buyer payment minus total seller payments, ex post (min) and ex ante."""
    B, S, coins = _sample(inst, samples, seed)
    return _budget(*mechanism.outcome_batch(B, S, coins)[1:])


def ir_audit(mechanism, inst: MarketInstance, samples: int = 4096, seed: int = 0) -> tuple[float, float]:
    """Minimum ex-post utility slack over samples: (buyer, worst seller)."""
    B, S, coins = _sample(inst, samples, seed)
    return _ir(B, S, *mechanism.outcome_batch(B, S, coins))


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
    """One draw at `seed`, each row run once: the first k = min(samples, 10^4)
    rows through `outcome_batch`, whose payments give the budget and IR, the
    rest through `run_batch`. GFT is over all rows (`estimate_gft`'s stream),
    or `exact_gft` with `exact`, when only the k rows are drawn."""
    k = min(samples, 10**4)
    B, S, coins = _sample(inst, k if exact else samples, seed)
    X, pay_b, pay_S = mechanism.outcome_batch(B[:k], S[:k], coins[:k])
    bud, (bir, sir) = _budget(pay_b, pay_S), _ir(B[:k], S[:k], X, pay_b, pay_S)
    if exact:
        gft, err = exact_gft(mechanism, inst), 0.0
    else:
        rest = [mechanism.run_batch(B[k:], S[k:], coins=coins[k:])] if samples > k else []
        gft, err = _mean_stderr(np.concatenate([_gft_rows(X, B[:k], S[:k]), *rest]))
    name = getattr(mechanism, "name", type(mechanism).__name__)
    return AuditReport(name, gft, err, bud.expost_min_slack, bud.exante_slack, bud.exante_stderr, bir, sir, exact)
