"""Per-profile reference implementations of every mechanism's outcome, kept
as plain loops (one max-weight call per trial report, one price lookup per
SAPP trial profile, Python sums in item order) so the array kernels in
`mechanisms` can be checked against them bit for bit.

Each function takes a mechanism object and one profile and returns
(traded, buyer payment, seller payments, GFT) as Python values.
"""
import numpy as np

from gft_lab import feasibility as fea
from gft_lab import mechanisms as mech

TOL = mech.TOL


def _result(b, s, traded, buyer_payment, pays):
    traded = tuple(sorted(int(i) for i in traded))
    gft = float(sum(b[i] - s[i] for i in traded))
    return traded, float(buyer_payment), tuple(float(p) for p in pays), gft


def _posted_purchase(b, theta_b, available, sub):
    if not available:
        return ()
    w = {i: float(b[i] - theta_b[i]) for i in available}
    chosen, _ = fea.max_weight_set(sub, w)
    taken = list(chosen)
    for i in sorted(available):
        if i not in taken and abs(w[i]) <= TOL and fea.is_feasible(sub, taken + [i]):
            taken.append(i)
    return tuple(sorted(taken))


def _floor_brute_force(b, theta_b, willing, sub):
    """Brute force over the floor-feasible sets within the willing sellers:
    the best total that beats buying nothing by more than 1e-12 (ties to
    fewer items, then the smaller tuple), else the largest feasible set of
    zero-utility items (ties to the smaller tuple), else nothing."""
    w = {i: float(b[i] - theta_b[i]) for i in willing}
    sets = [tuple(sorted(s)) for s in fea.feasible_sets(sub) if s and s <= set(willing)]
    gains = [(sum(w[i] for i in s), s) for s in sets]
    best = max((v for v, _ in gains), default=0.0)
    if best > 1e-12:
        return min((len(s), s) for v, s in gains if v >= best - 1e-12)[1]
    zero = [s for s in sets if all(abs(w[i]) <= TOL for i in s)]
    return min(zero, key=lambda s: (-len(s), s)) if zero else ()


def posted(m, b, s):
    """Fpp, or Cfpp when m has a subconstraint."""
    sub = getattr(m, "sub", m.inst.constraint)
    willing = [i for i in sub.ground if s[i] <= m.theta_s[i] + TOL]
    if sub.variant == "size_floor":
        traded = _floor_brute_force(b, m.theta_b, willing, sub)
    else:
        afford = [i for i in willing if b[i] >= m.theta_b[i] - TOL]
        traded = _posted_purchase(b, m.theta_b, afford, sub)
    pays = [m.theta_s[i] if i in traded else 0.0 for i in range(m.inst.n)]
    return _result(b, s, traded, sum(m.theta_b[i] for i in traded), pays)


def _search(trades, t, far, atoms=None, floor=None):
    """Scalar threshold search: atoms far end first, else bisection."""
    if atoms is not None:
        for v in atoms:
            if floor is not None and v < floor:
                break
            if trades(v):
                return float(v)
        return float(t)
    if trades(far):
        return far
    near = t
    for _ in range(60):
        mid = 0.5 * (near + far)
        if trades(mid):
            near = mid
        else:
            far = mid
    return near


def buyer_offering(m, b, s):
    inst = m.inst
    tau = np.array([inst.seller_ironed[i](float(s[i])) for i in range(inst.n)])

    def alloc(tv):
        return fea.max_weight_set(inst.constraint, {i: float(b[i] - tv[i]) for i in range(inst.n)})[0]

    traded = alloc(tau)
    pays = [0.0] * inst.n
    for i in traded:
        d, trial = inst.seller_dists[i], tau.copy()

        def trades(v, i=i, trial=trial):
            trial[i] = inst.seller_ironed[i](float(v))
            return i in alloc(trial)

        if d.kind == "discrete":
            pays[i] = _search(trades, s[i], None, sorted(d.values, reverse=True), s[i] - TOL)
        else:
            pays[i] = _search(trades, float(s[i]), d.support()[1])
    return _result(b, s, traded, sum(tau[i] for i in traded), pays)


def seller_offering(m, b, s):
    d, phi = m.inst.buyer_dists[0], m.inst.buyer_ironed[0]
    if not phi(float(b[0])) >= s[0] - TOL:
        return _result(b, s, (), 0.0, [0.0])

    def trades(v):
        return phi(float(v)) >= s[0] - TOL

    if d.kind == "discrete":
        price = _search(trades, b[0], None, list(d.values))
    else:
        price = _search(trades, float(b[0]), d.support()[0])
    return _result(b, s, (0,), price, [price])


def sapp(m, b, s, coins):
    n = m.inst.n

    def winner(sv):
        theta, alpha = m.pmap.theta(sv), m.pmap.alpha(sv)
        afford = (b > theta + TOL) | ((np.abs(b - theta) <= TOL) & (coins < alpha))
        return int(np.argmax(np.where(afford, b - theta, -np.inf))) if afford.any() else None, theta

    win, theta = winner(s)
    if win is None:
        return _result(b, s, (), 0.0, [0.0] * n)
    d = m.inst.seller_dists[win]

    def trades(v):
        trial = np.array(s, dtype=float)
        trial[win] = v
        return winner(trial)[0] == win

    if d.kind == "discrete":
        pay = _search(trades, s[win], None, sorted(d.values, reverse=True), s[win] - TOL)
    else:
        pay = _search(trades, float(s[win]), d.support()[1])
    pays = [0.0] * n
    pays[win] = pay
    return _result(b, s, (win,), theta[win], pays)


def trade_willing_cut(d, phi, s):
    """The lowest value whose ironed virtual clears each cost in s, by 80
    bisection steps over the support (lo where lo already clears)."""
    lo, hi = d.support()
    a, b = np.full(s.shape, lo), np.full(s.shape, hi)
    for _ in range(80):
        mid = 0.5 * (a + b)
        up = phi(mid) >= s - TOL
        a, b = np.where(up, a, mid), np.where(up, mid, b)
    return np.where(phi(lo) >= s - TOL, lo, b)


def prob_trade_willing(d, phi, s):
    """Pr[b >= s and phi(b) >= s] of a continuous buyer d over an array of
    costs s, from the bisected cut."""
    lo, hi = d.support()
    cut = trade_willing_cut(d, phi, s)
    return np.where(phi(hi) < s - TOL, 0.0, 1.0 - d.cdf(np.maximum(s, cut)))


def bisect_floats(trades, idx, near, away):
    """The float-order bisection as one `trades` call per level: per row of
    idx, where `near` trades and `away` does not, the trading end of the
    adjacent pair of floats between them at which `trades` flips."""
    kn, ka = mech._order_key(near), mech._order_key(away)
    live = np.arange(len(idx))
    while live.size:
        a, b = kn[live], ka[live]
        mid = (a >> 1) + (b >> 1) + (a & b & 1)  # floor of the mean, no overflow
        keep = (mid != a) & (mid != b)
        live, mid = live[keep], mid[keep]
        if live.size:
            ok = trades(idx[live], mech._from_key(mid))
            kn[live[ok]], ka[live[~ok]] = mid[ok], mid[~ok]
    return mech._from_key(kn)
