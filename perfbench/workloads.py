"""The three workloads: seeded instances, the timed tasks, and their checks.

``build(name, seed)`` is the set-up step: it draws every instance and Monte
Carlo seed from the workload seed and returns the batch of tasks. A task's
``run`` is one in-process call of the kind the CLI or a selftest criterion
makes; it wraps the prepared instance in a fresh ``MarketInstance`` so lazily
computed trade probabilities and ironing are paid inside the task on every
batch, and builds its mechanism afresh so price-map caches start empty.
``check`` runs after the batch, outside the timed section, and returns an
error message or None.

Tolerances: values from exact enumeration must match their references to
1e-12 (relative to max(1, |ref|)); LP optima to 1e-7, the solver's own
tolerance; Monte Carlo values must lie within MC_SIGMAS standard errors of an
independent reference.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from gft_lab import audits, bounds, instances, ocrs, oracle
from gft_lab import distributions as dst
from gft_lab import feasibility as fea
from gft_lab import mechanisms as mech

import reference as ref

EXACT_TOL = 1e-12
LP_TOL = 1e-7
IR_TOL = 1e-9
MC_SIGMAS = 5.0

# Values of the fixed instances' tasks as computed at the commit that defined
# this benchmark (written by record_reference.py).
RECORDED_PATH = Path(__file__).with_name("reference_values.json")
RECORDED = json.loads(RECORDED_PATH.read_text()) if RECORDED_PATH.exists() else {}


@dataclass
class Task:
    id: str
    run: Callable[[], object]
    check: Callable[[object, dict], str | None]


def fresh(inst: mech.MarketInstance) -> mech.MarketInstance:
    return mech.MarketInstance(inst.buyer_dists, inst.seller_dists, inst.constraint)


_memo: dict = {}


def memo(key, compute):
    """Reference values are computed once per process, at the first check."""
    if key not in _memo:
        _memo[key] = compute()
    return _memo[key]


def _close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def _fail_unless(ok: bool, msg: str) -> str | None:
    return None if ok else msg


def _first_error(*errors: str | None) -> str | None:
    return next((e for e in errors if e), None)


def _seeds(rng: np.random.Generator, k: int) -> list[int]:
    return [int(x) for x in rng.integers(0, 2**31 - 1, size=k)]


def _recorded(task_id: str, tol: float = EXACT_TOL):
    def check(out, outputs):
        want = RECORDED[task_id]
        got = out if isinstance(out, (list, tuple)) else [out]
        want = want if isinstance(want, list) else [want]
        bad = [(g, w) for g, w in zip(got, want) if not _close(g, w, tol)]
        return _fail_unless(len(got) == len(want) and not bad, f"{task_id}: {got} != recorded {want}")

    return check


# -- exact-grid -------------------------------------------------------------------


def _exact_tasks(tag: str, inst: mech.MarketInstance, rule: str, recorded: bool) -> list[Task]:
    """exact_gft of BuyerOffering and of Fpp at the buyers' median prices,
    first best, OPT-B, and (n > 1) the exact SAPP accounting."""
    p = [ref.discrete_median(d) for d in inst.buyer_dists]

    def fb_ref():
        return memo((tag, "fb"), lambda: ref.first_best(inst))

    def sapp():
        I = fresh(inst)
        if rule == "unlikely":
            _, L = bounds.hl_split(I)
            alloc = mech.unlikely_trade_rule(I, L)
        else:
            alloc = mech.reduction_rule(I)
        return mech.Sapp(I, mech.sapp_build(I, alloc))

    def run_bo():
        I = fresh(inst)
        return audits.exact_gft(mech.BuyerOffering(I), I)

    def run_fpp():
        I = fresh(inst)
        return audits.exact_gft(mech.Fpp(I, p, p), I)

    def run_fb():
        return audits.first_best_gft(fresh(inst), "exact")

    def run_optb():
        return bounds.opt_b(fresh(inst), "exact")

    def run_report():
        rep = sapp().exact_report()
        return [rep["gft"], rep["wbb_slack"], rep["rule_virtual_surplus"]]

    def run_sandwich():
        return sapp().sandwich_violation()

    def run_dsic():
        return sapp().exact_dsic_gain()

    # chain checks hold on every instance; fixed instances also match the
    # values recorded for them
    def check_bo(v, outs):
        optb = outs.get(f"{tag}.optb")
        return _first_error(
            _fail_unless(optb is not None and optb <= v + EXACT_TOL, f"opt_b {optb} > exact GFT(BuyerOffering) {v}"),
            _fail_unless(v <= fb_ref() + EXACT_TOL, f"exact GFT(BuyerOffering) {v} > FB {fb_ref()}"),
        )

    def check_fpp(v, outs):
        return _fail_unless(-EXACT_TOL <= v <= fb_ref() + EXACT_TOL, f"exact GFT(Fpp) {v} outside [0, FB {fb_ref()}]")

    def check_fb(v, outs):
        return _fail_unless(_close(v, fb_ref(), EXACT_TOL), f"FB {v} != brute force {fb_ref()}")

    def check_optb(v, outs):
        return _fail_unless(-EXACT_TOL <= v <= fb_ref() + EXACT_TOL, f"opt_b {v} outside [0, FB {fb_ref()}]")

    def check_report(v, outs):
        gft, wbb, _ = v
        other = memo((tag, "sapp-gft"), lambda: audits.exact_gft(sapp(), fresh(inst)))
        return _first_error(
            _fail_unless(wbb >= -IR_TOL, f"SAPP ex-ante budget slack {wbb} < 0"),
            _fail_unless(-EXACT_TOL <= gft <= fb_ref() + EXACT_TOL, f"SAPP GFT {gft} outside [0, FB]"),
            _fail_unless(_close(gft, other, EXACT_TOL), f"exact_report GFT {gft} != exact_gft(Sapp) {other}"),
        )

    def check_sandwich(v, outs):
        return _fail_unless(v <= EXACT_TOL, f"sandwich violated by {v}")

    def check_dsic(v, outs):
        return _fail_unless(v <= IR_TOL, f"seller misreport gains {v}")

    specs = [
        ("bo", run_bo, check_bo),
        ("fpp", run_fpp, check_fpp),
        ("fb", run_fb, check_fb),
        ("optb", run_optb, check_optb),
    ]
    if inst.n > 1:
        specs += [
            ("sapp", run_report, check_report),
            ("sandwich", run_sandwich, check_sandwich),
            ("dsic", run_dsic, check_dsic),
        ]
    tasks = []
    for name, run, check in specs:
        tid = f"{tag}.{name}"
        if recorded:
            check = _chain(_recorded(tid), check)
        tasks.append(Task(tid, run, check))
    return tasks


def _chain(*checks):
    def check(v, outs):
        return _first_error(*(c(v, outs) for c in checks))

    return check


def _bilateral_tasks(tag: str, inst: mech.MarketInstance, recorded: bool) -> list[Task]:
    """Seller-offering on a bilateral instance, alongside the exact tasks."""

    def run_so():
        I = fresh(inst)
        return audits.exact_gft(mech.SellerOffering(I), I)

    def check_so(v, outs):
        fb = memo((tag, "fb"), lambda: ref.first_best(inst))
        return _fail_unless(-EXACT_TOL <= v <= fb + EXACT_TOL, f"exact GFT(SellerOffering) {v} outside [0, FB {fb}]")

    check = _chain(_recorded(f"{tag}.so"), check_so) if recorded else check_so
    return [Task(f"{tag}.so", run_so, check)] + _exact_tasks(tag, inst, "reduction", recorded)


A3_EXACT = {"a3-6.fb": 39 / 20, "a3-6.so": 28 / 15}


def exact_grid(seed: int) -> list[Task]:
    rng = np.random.default_rng(seed)
    tasks: list[Task] = []
    cons = ("unit_demand", "additive", "k_uniform")
    for j, s in enumerate(_seeds(rng, 3)):
        inst = instances.random_instance(2, "lognormal-discretized", seed=s, constraint=cons[j % 3])
        tasks += _exact_tasks(f"ln2-{j}", inst, "reduction", False)
    for j, s in enumerate(_seeds(rng, 6)):
        inst = instances.random_instance(3, "two-atom", seed=s, constraint=cons[j % 3])
        tasks += _exact_tasks(f"ta3-{j}", inst, "reduction", False)
    for j, s in enumerate(_seeds(rng, 4)):
        inst = instances.random_instance(1, "lognormal-discretized", seed=s, constraint="additive")
        tasks += _bilateral_tasks(f"ln1-{j}", inst, False)
    for m in (6, 8, 10):
        tasks += _bilateral_tasks(f"a3-{m}", instances.example_a3(m), True)
    tasks += _exact_tasks("a2d", instances.example_a2_discretized(4, 6.0, grid=16), "unlikely", True)
    for t in tasks:
        if t.id in A3_EXACT:
            t.check = _chain(t.check, _exact_value(A3_EXACT[t.id]))
    return tasks


def _exact_value(want: float):
    def check(v, outs):
        return _fail_unless(_close(v, want, EXACT_TOL), f"{v} != {want}")

    return check


# -- mc-estimate ------------------------------------------------------------------

# sb_gft_upper's Monte Carlo OPT-B looks up one ironed virtual cost per sampled
# cost, so its sample count sets how much of this workload is scalar lookups
SB_SAMPLES = 4000
OCRS_SAMPLES = 4000


def _mc_close(got: float, se: float, want: float, what: str) -> str | None:
    return _fail_unless(
        abs(got - want) <= MC_SIGMAS * se + 1e-12,
        f"{what} {got} is {abs(got - want) / max(se, 1e-300):.1f} stderr from reference {want}",
    )


def _audit_ir(rep) -> str | None:
    return _first_error(
        _fail_unless(rep["buyer_ir_min"] >= -IR_TOL, f"buyer IR {rep['buyer_ir_min']}"),
        _fail_unless(rep["seller_ir_min"] >= -IR_TOL, f"seller IR {rep['seller_ir_min']}"),
    )


def _uniform_tasks(tag: str, inst: mech.MarketInstance, rng: np.random.Generator) -> list[Task]:
    B = [ref.uniform_bounds(d) for d in inst.buyer_dists]
    S = [ref.uniform_bounds(d) for d in inst.seller_dists]
    p = [0.5 * (lo + hi) for lo, hi in B]
    theta_s = [min(pi, 0.5 * (lo + hi)) for pi, (lo, hi) in zip(p, S)]
    s1, s2, s3, s4, s5, s6 = _seeds(rng, 6)
    span = max(hi for _, hi in B) - min(lo for lo, _ in S)

    def fpp_ref():
        return memo((tag, "fpp"), lambda: ref.fpp_unit_demand(inst, p, theta_s))

    def run_prophet():
        I = fresh(inst)
        pr = bounds.prophet_threshold(I, p, samples=30000, seed=s1)
        gft, se = audits.estimate_gft(pr.fpp(I), I, samples=30000, seed=s2)
        return [pr.emax, pr.emax_stderr, pr.xi, gft, se]

    def check_prophet(v, outs):
        emax, emax_se, xi, gft, se = v
        want_emax = memo((tag, "emax"), lambda: ref.prophet_emax(inst, p))
        want_gft = memo((tag, "post", xi), lambda: ref.fpp_unit_demand(inst, p, [pi - xi for pi in p]))
        return _first_error(
            _mc_close(emax, emax_se, want_emax, "prophet E[max]"),
            _mc_close(gft, se, want_gft, "prophet posting GFT"),
        )

    def run_audit_fpp():
        I = fresh(inst)
        return audits.audit_report(mech.Fpp(I, p, theta_s), I, samples=2000, seed=s3).as_dict()

    def check_audit_fpp(rep, outs):
        return _first_error(
            _mc_close(rep["gft"], rep["gft_stderr"], fpp_ref(), "Fpp GFT"),
            _fail_unless(rep["expost_budget_min"] >= -IR_TOL, f"Fpp ex-post budget {rep['expost_budget_min']}"),
            _audit_ir(rep),
        )

    def run_decomp():
        rep = bounds.benchmark_decomposition(fresh(inst), samples=4000, seed=s4)
        return [rep.fb, rep.fb_stderr, float(rep.pair_ok)]

    def check_decomp(v, outs):
        fb, se, pair_ok = v
        want = memo((tag, "fb"), lambda: ref.first_best_unit_demand(inst))
        return _first_error(_mc_close(fb, se, want, "decomposition FB"), _fail_unless(pair_ok == 1.0, "x < y"))

    def run_sb():
        return bounds.sb_gft_upper(fresh(inst), samples=SB_SAMPLES, seed=s5)

    def check_sb(v, outs):
        # any posted-price mechanism's GFT is at most SB, hence at most this bound
        slack = MC_SIGMAS * span / math.sqrt(SB_SAMPLES)
        return _fail_unless(v >= fpp_ref() - slack, f"SB upper bound {v} < Fpp GFT {fpp_ref()}")

    # each sample that trades runs a 60-step threshold bisection per traded
    # seller, so the cost follows the instance's trade rate: a few samples on
    # every instance vary less across seeds than many on one
    def run_audit_bo():
        I = fresh(inst)
        return audits.audit_report(mech.BuyerOffering(I), I, samples=40, seed=s6).as_dict()

    def check_audit_bo(rep, outs):
        want = memo((tag, "bo"), lambda: ref.buyer_offering_unit_demand(inst))
        return _first_error(_mc_close(rep["gft"], rep["gft_stderr"], want, "BuyerOffering GFT"), _audit_ir(rep))

    return [
        Task(f"{tag}.prophet", run_prophet, check_prophet),
        Task(f"{tag}.audit-fpp", run_audit_fpp, check_audit_fpp),
        Task(f"{tag}.decomp", run_decomp, check_decomp),
        Task(f"{tag}.sb-upper", run_sb, check_sb),
        Task(f"{tag}.audit-bo", run_audit_bo, check_audit_bo),
    ]


def _a1_tasks(t: float, p: float, rng: np.random.Generator) -> list[Task]:
    inst = instances.example_a1(t)
    s1, s2, s3, s4, s5 = _seeds(rng, 5)
    fb = instances.a1_fb(t)
    fpp = instances.a1_fpp_gft(t, p)

    def run_audit_bo():
        I = fresh(inst)
        return audits.audit_report(mech.BuyerOffering(I), I, samples=2000, seed=s1).as_dict()

    def check_audit_bo(rep, outs):
        want = memo(("a1", "bo", t), lambda: ref.a1_buyer_offering(t))
        return _first_error(_mc_close(rep["gft"], rep["gft_stderr"], want, "BuyerOffering GFT"), _audit_ir(rep))

    def run_audit_fpp():
        I = fresh(inst)
        return audits.audit_report(mech.Fpp(I, [p], [p]), I, samples=4000, seed=s2).as_dict()

    def check_audit_fpp(rep, outs):
        return _first_error(
            _mc_close(rep["gft"], rep["gft_stderr"], fpp, "Fpp GFT"),
            _fail_unless(rep["expost_budget_min"] >= -IR_TOL, f"Fpp ex-post budget {rep['expost_budget_min']}"),
            _audit_ir(rep),
        )

    def run_decomp():
        rep = bounds.benchmark_decomposition(fresh(inst), samples=4000, seed=s3)
        return [rep.fb, rep.fb_stderr]

    def run_fb():
        return list(audits.first_best_gft(fresh(inst), "mc", samples=20000, seed=s4))

    def check_fb(v, outs):
        return _mc_close(v[0], v[1], fb, "first best")

    def run_sb():
        return bounds.sb_gft_upper(fresh(inst), samples=SB_SAMPLES, seed=s5)

    def check_sb(v, outs):
        slack = MC_SIGMAS * t / math.sqrt(SB_SAMPLES)
        return _fail_unless(v >= fpp - slack, f"SB upper bound {v} < posted-price GFT {fpp}")

    return [
        Task("a1.audit-bo", run_audit_bo, check_audit_bo),
        Task("a1.audit-fpp", run_audit_fpp, check_audit_fpp),
        Task("a1.decomp", run_decomp, check_fb),
        Task("a1.fb", run_fb, check_fb),
        Task("a1.sb-upper", run_sb, check_sb),
    ]


def _a2_tasks(t: float, rng: np.random.Generator) -> list[Task]:
    """Thin market: item 0 is the exponential pair, the point-mass items never
    gain from trade, so its first best is a1_fb(t)."""
    inst = instances.example_a2(4, t)
    s1, s2, s3 = _seeds(rng, 3)
    fb = instances.a1_fb(t)
    fpp = instances.a1_fpp_gft(t, t / 2.0)

    def run_audit_sapp():
        I = fresh(inst)
        _, L = bounds.hl_split(I)
        sp = mech.Sapp(I, mech.sapp_build(I, mech.unlikely_trade_rule(I, L)))
        return audits.audit_report(sp, I, samples=150, seed=s1).as_dict()

    def check_audit_sapp(rep, outs):
        se = rep["gft_stderr"]
        return _first_error(
            _fail_unless(
                rep["exante_budget"] >= -MC_SIGMAS * rep["exante_budget_stderr"] - 1e-12,
                f"SAPP ex-ante budget {rep['exante_budget']} +- {rep['exante_budget_stderr']}",
            ),
            _fail_unless(-1e-12 <= rep["gft"] <= fb + MC_SIGMAS * se + 1e-12, f"SAPP GFT {rep['gft']} outside [0, FB {fb}]"),
            _audit_ir(rep),
        )

    def run_decomp():
        rep = bounds.benchmark_decomposition(fresh(inst), samples=4000, seed=s2)
        return [rep.fb, rep.fb_stderr]

    def check_decomp(v, outs):
        return _mc_close(v[0], v[1], fb, "decomposition FB")

    def run_sb():
        return bounds.sb_gft_upper(fresh(inst), samples=SB_SAMPLES, seed=s3)

    def check_sb(v, outs):
        slack = MC_SIGMAS * t / math.sqrt(SB_SAMPLES)
        return _fail_unless(v >= fpp - slack, f"SB upper bound {v} < posted-price GFT {fpp}")

    return [
        Task("a2.audit-sapp", run_audit_sapp, check_audit_sapp),
        Task("a2.decomp", run_decomp, check_decomp),
        Task("a2.sb-upper", run_sb, check_sb),
    ]


def _ocrs_task(tid: str, make_scheme, branches, q: np.ndarray, i: int, seed: int) -> Task:
    def run():
        return list(ocrs.estimate_selectability(make_scheme(), q, i, samples=OCRS_SAMPLES, seed=seed))

    def check(v, outs):
        want = memo((tid, "eta"), lambda: ref.selectability(branches, list(q), i))
        se = math.sqrt(want * (1.0 - want) / OCRS_SAMPLES)
        return _mc_close(v[0], se, want, "selectability")

    return Task(tid, run, check)


def _ocrs_tasks(rng: np.random.Generator) -> list[Task]:
    """Every element of a unit-demand scheme (n=4), of a two-class knapsack
    scheme (n=3, one big item) and of their composition (n=4), plus the
    composition's parts alone at element 0."""
    s = iter(_seeds(rng, 13))
    tasks = []
    q_ud = 0.5 * 0.95 * ref.hull_point(lambda S: len(S) <= 1, 4, rng)
    for i in range(4):
        ud = _ocrs_task(f"ocrs.ud-{i}", lambda: ocrs.unit_demand_ocrs(0.5), ref.unit_demand_branches(), q_ud, i, next(s))
        tasks.append(ud)
    sizes = [rng.uniform(0.55, 0.8), rng.uniform(0.2, 0.45), rng.uniform(0.2, 0.45)]
    q_kn = 0.25 * 0.95 * ref.hull_point(lambda S: sum(sizes[j] for j in S) <= 1.0, 3, rng)
    kn_branches = ref.knapsack_branches(sizes, q_kn)
    for i in range(3):
        tasks.append(_ocrs_task(f"ocrs.knapsack-{i}", lambda: ocrs.knapsack_ocrs(0.25, sizes), kn_branches, q_kn, i, next(s)))
    sizes4 = [rng.uniform(0.55, 0.8)] + [rng.uniform(0.2, 0.45) for _ in range(3)]
    q_c = 0.25 * 0.95 * ref.hull_point(lambda S: len(S) <= 1, 4, rng)

    def composed():
        return ocrs.compose_ocrs(ocrs.unit_demand_ocrs(0.25), ocrs.knapsack_ocrs(0.25, sizes4))

    for i in range(4):
        tasks.append(_ocrs_task(f"ocrs.compose-{i}", composed, ref.composed_branches(sizes4, q_c), q_c, i, next(s)))
    tasks.append(
        _ocrs_task("ocrs.compose-ud-0", lambda: ocrs.unit_demand_ocrs(0.25), ref.unit_demand_branches(), q_c, 0, next(s))
    )
    tasks.append(
        _ocrs_task(
            "ocrs.compose-knapsack-0",
            lambda: ocrs.knapsack_ocrs(0.25, sizes4),
            ref.knapsack_branches(sizes4, q_c),
            q_c,
            0,
            next(s),
        )
    )
    return tasks


def mc_estimate(seed: int) -> list[Task]:
    rng = np.random.default_rng(seed)
    tasks: list[Task] = []
    for j, s in enumerate(_seeds(rng, 4)):
        inst = instances.random_instance(5, "uniform", seed=s, constraint="unit_demand")
        tasks += _uniform_tasks(f"u5-{j}", inst, rng)
    t1 = float(rng.uniform(3.5, 4.5))
    tasks += _a1_tasks(t1, float(rng.uniform(0.3, 0.7)) * t1, rng)
    tasks += _a2_tasks(6.0, rng)
    tasks += _ocrs_tasks(rng)
    return tasks


# -- lp-oracle --------------------------------------------------------------------


def _lp_tasks(tag: str, inst: mech.MarketInstance, expost: bool, recorded: bool) -> list[Task]:
    """second_best_lp (ex ante and, optionally, ex post) and opt_s_lp. The
    exact mechanism values the checks use are computed outside the tasks."""
    p = [ref.discrete_median(d) for d in inst.buyer_dists]

    def fb():
        return memo((tag, "fb"), lambda: ref.first_best(inst))

    def run_exante():
        return oracle.second_best_lp(oracle.DiscreteMarket(fresh(inst)), "exante")

    def run_expost():
        return oracle.second_best_lp(oracle.DiscreteMarket(fresh(inst)), "expost")

    def run_opt_s():
        return oracle.opt_s_lp(oracle.DiscreteMarket(fresh(inst)))

    def check_exante(v, outs):
        opt_s = outs.get(f"{tag}.opt-s")
        optb = memo((tag, "optb"), lambda: bounds.opt_b(fresh(inst), "exact"))
        bo = memo((tag, "bo"), lambda: audits.exact_gft(mech.BuyerOffering(fresh(inst)), fresh(inst)))
        return _first_error(
            _fail_unless(v <= fb() + LP_TOL, f"SB {v} > FB {fb()}"),
            _fail_unless(opt_s is not None and v <= optb + opt_s + LP_TOL, f"SB {v} > OPT-B {optb} + OPT-S {opt_s}"),
            _fail_unless(v >= bo - LP_TOL, f"SB {v} < exact GFT(BuyerOffering) {bo}"),
        )

    def check_expost(v, outs):
        exante = outs.get(f"{tag}.sb-exante")
        fpp = memo((tag, "fpp"), lambda: audits.exact_gft(mech.Fpp(fresh(inst), p, p), fresh(inst)))
        return _first_error(
            _fail_unless(exante is not None and v <= exante + LP_TOL, f"ex-post SB {v} > ex-ante SB {exante}"),
            _fail_unless(v >= fpp - LP_TOL, f"ex-post SB {v} < exact GFT(Fpp) {fpp}"),
        )

    def check_opt_s(v, outs):
        return _fail_unless(v >= -LP_TOL, f"OPT-S {v} < 0")

    specs = [("sb-exante", run_exante, check_exante)]
    if expost:
        specs.append(("sb-expost", run_expost, check_expost))
    specs.append(("opt-s", run_opt_s, check_opt_s))
    tasks = []
    for name, run, check in specs:
        tid = f"{tag}.{name}"
        if recorded:
            check = _chain(_recorded(tid, LP_TOL), check)
        tasks.append(Task(tid, run, check))
    return tasks


def _uniform_atoms(rng: np.random.Generator, lo: float, hi: float, k: int) -> dst.Dist:
    return dst.discrete(np.sort(rng.uniform(lo, hi, k)).tolist(), [1.0 / k] * k)


def _lp_chain_fixtures() -> list[tuple[str, mech.MarketInstance]]:
    """The fixtures of the lp-oracle-chain selftest criterion."""
    d = dst.discrete

    def grid(k: int) -> mech.MarketInstance:
        atoms = [(j + 1) / k for j in range(k)]
        p = [1.0 / k] * k
        return mech.market([d(atoms, p)], [d(atoms, p)], fea.additive([0]))

    out = [(f"grid-{k}", grid(k)) for k in (2, 3, 4, 5, 6, 8)]
    out += [
        ("bi-a", mech.market([d([1.0, 2.0], [0.5, 0.5])], [d([0.0, 0.5], [0.5, 0.5])], fea.additive([0]))),
        ("bi-b", mech.market([d([0.8, 1.6], [0.4, 0.6])], [d([0.1, 0.9], [0.6, 0.4])], fea.additive([0]))),
        (
            "bi-c",
            mech.market(
                [d([0.5, 1.0, 1.5], [1 / 3, 1 / 3, 1 / 3])], [d([0.25, 0.75], [0.5, 0.5])], fea.additive([0])
            ),
        ),
        (
            "ud-2a",
            mech.market(
                [d([1.0, 2.0], [0.5, 0.5]), d([0.5, 1.5], [0.5, 0.5])],
                [d([0.0, 0.5], [0.5, 0.5]), d([0.2, 1.0], [0.5, 0.5])],
                fea.unit_demand(range(2)),
            ),
        ),
        (
            "ud-2b",
            mech.market(
                [d([1.0, 2.0], [0.5, 0.5]), d([0.8, 1.6], [0.4, 0.6])],
                [d([0.0, 0.5], [0.5, 0.5]), d([0.1, 0.9], [0.6, 0.4])],
                fea.unit_demand(range(2)),
            ),
        ),
    ]
    return out


LP_GRIDS = ((6, 1), (5, 1), (4, 2), (3, 2))  # (k, instances): two-item unit-demand k x k grids


def lp_oracle(seed: int) -> list[Task]:
    rng = np.random.default_rng(seed)
    tasks: list[Task] = []
    for k, count in LP_GRIDS:
        for j in range(count):
            buyers = [_uniform_atoms(rng, 0.5, 2.0, k) for _ in range(2)]
            sellers = [_uniform_atoms(rng, 0.0, 1.5, k) for _ in range(2)]
            inst = mech.market(buyers, sellers, fea.unit_demand(range(2)))
            # ex post at k=6 peaks at 750 MB with the dense builder; ex ante 565 MB
            tasks += _lp_tasks(f"ud{k}-{j}", inst, expost=k < 6, recorded=False)
    for k in (4, 6, 8):
        inst = mech.market([_uniform_atoms(rng, 0.0, 1.0, k)], [_uniform_atoms(rng, 0.0, 1.0, k)], fea.additive([0]))
        tasks += _lp_tasks(f"bi{k}", inst, expost=True, recorded=False)
    for label, inst in _lp_chain_fixtures():
        tasks += _lp_tasks(f"chain-{label}", inst, expost=False, recorded=True)
    return tasks


WORKLOADS = {"exact-grid": exact_grid, "mc-estimate": mc_estimate, "lp-oracle": lp_oracle}


def build(name: str, seed: int) -> list[Task]:
    return WORKLOADS[name](seed)
