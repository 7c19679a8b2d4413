"""Exhaustive OCRS admission, independent of the feasible-set table: every
subset of the active set is listed with `itertools.combinations` and judged
by `is_feasible`. The tests compare `ocrs._admitted` and
`ocrs.exact_selectability` with these loops."""

import math
from itertools import combinations

from gft_lab import feasibility as fea


def admits(sub, others, i):
    """Whether i is admissible under the active set `others` (i not in it):
    {i} is feasible and S + i is feasible for every feasible S within it."""
    if not fea.is_feasible(sub, (i,)):
        return False
    for r in range(1, len(others) + 1):
        for S in combinations(others, r):
            if fea.is_feasible(sub, S) and not fea.is_feasible(sub, S + (i,)):
                return False
    return True


def exact_selectability(scheme, q, i):
    """The sum over every branch and every active pattern of the other
    elements (bit t of the pattern for the t-th other element in index
    order) of Pr[branch] * Pr[pattern] * admits, added in that order."""
    n = len(q)
    others = [j for j in range(n) if j != i]
    m = len(others)
    total = 0.0
    for prob, sub in scheme.branches(q):
        for key in range(1 << m):
            if admits(sub, tuple(j for t, j in enumerate(others) if key >> t & 1), i):
                pr = math.prod(q[others[t]] if key >> t & 1 else 1.0 - q[others[t]] for t in range(m))
                total += prob * pr
    return float(total)

