"""Reference copies of the discrete kernels as they read before discrete
distributions kept their atoms as arrays: each rebuilds numpy arrays from the
Dist's `values`/`probs` tuples on every call, the profile grid comes from
`np.indices`, and the hull's monotone chain runs on numpy scalars. The array
forms in `distributions` and `mechanisms._product_grid` must match them bit
for bit.
"""
import math

import numpy as np

from gft_lab.distributions import ATOL, _ordered_sum


def product_grid(dists):
    shape = [len(d.values) for d in dists]
    size = math.prod(shape)
    grids = np.empty(shape + [len(dists)])
    probs = np.ones(shape)
    for j, (d, idx) in enumerate(zip(dists, np.indices(shape, sparse=True))):
        grids[..., j] = np.asarray(d.values, dtype=float)[idx]
        probs *= np.asarray(d.probs, dtype=float)[idx]
    return grids.reshape(size, len(dists)), probs.reshape(size)


def _prob(d, v, counts):
    x = np.asarray(v, dtype=float)[..., None]
    return _ordered_sum(np.where(counts(np.asarray(d.values), x), d.probs, 0.0), axis=-1)


def cdf(d, v):
    return _prob(d, v, lambda a, x: a <= x + ATOL)


def below(d, v):
    return _prob(d, v, lambda a, x: a < x - ATOL)


def tail(d, v):
    return _prob(d, v, lambda a, x: a >= x - ATOL)


def ppf(d, u):
    u = np.asarray(u, dtype=float)
    cum = np.cumsum(d.probs)
    idx = np.minimum(np.searchsorted(cum, u - ATOL, side="left"), len(d.values) - 1)
    return np.where(np.isnan(u), np.nan, np.asarray(d.values)[idx])


def iron_discrete(values, probs, side):
    if side == "buyer":
        tails = 1.0 - np.concatenate(([0.0], np.cumsum(probs)[:-1]))
        xs = np.concatenate(([0.0], tails[::-1]))
        ys = np.concatenate(([0.0], (tails * values)[::-1]))
        hull_y = _hull(xs, ys, upper=True)
        return (np.diff(hull_y) / np.diff(xs))[::-1].copy()
    cums = np.cumsum(probs)
    xs = np.concatenate(([0.0], cums))
    ys = np.concatenate(([0.0], cums * values))
    return np.diff(_hull(xs, ys, upper=False)) / np.diff(xs)


def _hull(xs, ys, upper):
    pts = []
    sign = 1.0 if upper else -1.0
    for x, y in zip(xs, sign * ys):
        while len(pts) >= 2:
            (x1, y1), (x2, y2) = pts[-2], pts[-1]
            if (y2 - y1) * (x - x1) <= (y - y1) * (x2 - x1) + 1e-15:
                pts.pop()
            else:
                break
        pts.append((x, y))
    return sign * np.interp(xs, np.array([p[0] for p in pts]), np.array([p[1] for p in pts]))
