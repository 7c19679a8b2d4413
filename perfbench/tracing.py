"""Run-time spans and counters around the public calls of each gft_lab layer.

Nothing in ``src/`` knows about this module: ``Tracer.install`` replaces the
module attributes and class methods it names with wrappers, and
``uninstall`` puts the originals back. Only the traced process installs it.

Every wrapped call is one span: name, task id, parent span, start and end.
Spans are kept in flat arrays in memory and written out by ``save``. Self time
(span time minus the time its direct children and the counters cover) and the
counts are accumulated while the spans are recorded, so the report needs no
second pass.
"""

from __future__ import annotations

import dataclasses
import inspect
from array import array
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# Counter names are "<span>.<what>"; "feasibility.constraints_built" and
# "ocrs.subconstraint.draws" are counted without a span of their own.
SPAN_NAMES = (
    "distributions.sample",
    "distributions.quantile",
    "distributions.iron",
    "distributions.virtual",
    "distributions.trade_probability",
    "feasibility.max_weight_set",
    "feasibility.is_feasible",
    "ocrs.selectability",
    "mechanisms.run",
    "mechanisms.run_batch",
    "mechanisms.expected_gft",
    "mechanisms.sapp_exact",
    "mechanisms.sapp_price",
    "mechanisms.sapp_build",
    "mechanisms.grid",
    "audits.exact_gft",
    "audits.estimate_gft",
    "audits.budget_audit",
    "audits.ir_audit",
    "audits.first_best",
    "bounds.opt_b",
    "bounds.prophet_threshold",
    "bounds.decomposition",
    "bounds.sb_upper",
    "oracle.lp_build",
    "oracle.lp_solve",
    "instances.build",
)

COUNTER_NAMES = (
    "distributions.sample.values",
    "distributions.quantile.calls",
    "distributions.iron.calls",
    "distributions.virtual.calls",
    "feasibility.max_weight_set.calls",
    "feasibility.is_feasible.calls",
    "feasibility.constraints_built",
    "ocrs.selectability.samples",
    "ocrs.subconstraint.draws",
    "mechanisms.run.calls",
    "mechanisms.run_batch.rows",
    "mechanisms.expected_gft.calls",
    "mechanisms.sapp_price.calls",
    "mechanisms.sapp_price.distinct_profiles",
    "mechanisms.grid.points",
    "audits.exact_gft.profiles",
    "oracle.lp.solves",
    "oracle.lp.vars",
    "oracle.lp.rows",
    "oracle.lp.nnz",
)


def _arg(fn, name, args, kwargs):
    """Value of parameter `name` in a call of `fn`, defaults applied."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def _grid_size(dists) -> int:
    size = 1
    for d in dists:
        size *= len(d.values)
    return size


class Tracer:
    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._index = {name: k for k, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_task = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.self_s = [0.0] * len(self.names)
        self.counts: Counter = Counter({name: 0 for name in COUNTER_NAMES})
        self.count_s = 0.0  # counting time inside spans, excluded from self times
        self.task = -1
        self._stack: list[list] = []
        self._price_keys: dict[tuple[int, int], set] = defaultdict(set)
        self._saved: list[tuple[object, str, object]] = []

    # -- accounting ---------------------------------------------------------

    def reset(self) -> None:
        """Forget self times, counts and distinct-profile sets; keep spans."""
        self.self_s = [0.0] * len(self.names)
        self.counts = Counter({name: 0 for name in COUNTER_NAMES})
        self.count_s = 0.0
        self._price_keys.clear()

    def root_time(self, first_span: int) -> float:
        """Total duration of the top-level spans recorded since `first_span`."""
        par = np.frombuffer(self.span_parent, dtype=np.int32)[first_span:]
        start = np.frombuffer(self.span_start, dtype=np.float64)[first_span:]
        end = np.frombuffer(self.span_end, dtype=np.float64)[first_span:]
        roots = par == -1
        return float((end[roots] - start[roots]).sum())

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            task=np.frombuffer(self.span_task, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )

    # -- wrappers -----------------------------------------------------------

    def _count(self, count, args, kwargs, out) -> None:
        """Run a counter; its time is charged to no span's self time."""
        t0 = perf_counter()
        count(self.counts, args, kwargs, out)
        if self._stack:
            spent = perf_counter() - t0
            self._stack[-1][1] += spent
            self.count_s += spent

    def _span(self, name: str, fn, count=None, count_first: bool = False):
        """Wrap `fn` in a span; `count(counts, args, kwargs, out)` runs after
        the call, or before it (with out=None) when `count_first` is set so
        that an expensive count stays out of every span's time."""
        idx = self._index[name]
        tr = self

        def wrapper(*args, **kwargs):
            if count_first:
                tr._count(count, args, kwargs, None)
            stack = tr._stack
            parent = stack[-1][0] if stack else -1
            me = len(tr.span_start)
            tr.span_name.append(idx)
            tr.span_task.append(tr.task)
            tr.span_parent.append(parent)
            tr.span_start.append(0.0)
            tr.span_end.append(0.0)
            frame = [me, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                tr.self_s[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                tr.span_start[me] = t0
                tr.span_end[me] = t1
            if count is not None and not count_first:
                tr._count(count, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, name: str, count=None, count_first: bool = False) -> None:
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, self._span(name, fn, count, count_first))

    def _patch_plain(self, owner, attr: str, make) -> None:
        fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, fn))
        setattr(owner, attr, make(fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def install(self) -> None:
        if self._saved:
            return
        from gft_lab import audits, bounds, instances, ocrs, oracle
        from gft_lab import distributions as dst
        from gft_lab import feasibility as fea
        from gft_lab import mechanisms as mech

        def calls(key):
            def count(c, args, kwargs, out):
                c[key] += 1

            return count

        # distributions
        def sampled(c, args, kwargs, out):
            c["distributions.sample.values"] += int(np.size(out))

        self._patch(dst.Dist, "sample", "distributions.sample", sampled)
        self._patch(dst, "quantile", "distributions.quantile", calls("distributions.quantile.calls"))
        self._patch(dst, "upper_quantile", "distributions.quantile", calls("distributions.quantile.calls"))
        self._patch(dst, "iron", "distributions.iron", calls("distributions.iron.calls"))
        self._patch(dst.IronedVirtual, "__call__", "distributions.virtual", calls("distributions.virtual.calls"))
        self._patch(dst, "trade_probability", "distributions.trade_probability")

        # feasibility
        self._patch(fea, "max_weight_set", "feasibility.max_weight_set", calls("feasibility.max_weight_set.calls"))
        self._patch(fea, "is_feasible", "feasibility.is_feasible", calls("feasibility.is_feasible.calls"))

        def counted_init(init):
            def wrapper(obj, *args, **kwargs):
                self.counts["feasibility.constraints_built"] += 1
                return init(obj, *args, **kwargs)

            return wrapper

        self._patch_plain(fea.Constraint, "__init__", counted_init)

        # ocrs: the schemes' subconstraint samplers are closures held by a
        # frozen dataclass, so the factories hand out copies whose sampler
        # counts its draws (composed schemes count the draws of their parts)
        def counted_scheme(factory):
            def wrapper(*args, **kwargs):
                scheme = factory(*args, **kwargs)
                draw = scheme.subconstraint_sampler

                def sampler(q_hat, seed):
                    self.counts["ocrs.subconstraint.draws"] += 1
                    return draw(q_hat, seed)

                return dataclasses.replace(scheme, subconstraint_sampler=sampler)

            return wrapper

        for factory in ("unit_demand_ocrs", "knapsack_ocrs", "compose_ocrs"):
            self._patch_plain(ocrs, factory, counted_scheme)

        def selectability(c, args, kwargs, out):
            c["ocrs.selectability.samples"] += int(_arg(ocrs.estimate_selectability.__wrapped__, "samples", args, kwargs))

        self._patch(ocrs, "estimate_selectability", "ocrs.selectability", selectability)

        # mechanisms
        for cls in (mech.Fpp, mech.Cfpp, mech.Sapp, mech.BuyerOffering, mech.SellerOffering):
            self._patch(cls, "run", "mechanisms.run", calls("mechanisms.run.calls"))

        def rows(c, args, kwargs, out):
            c["mechanisms.run_batch.rows"] += len(args[1])

        for cls in (mech.Fpp, mech.BuyerOffering, mech.SellerOffering):
            self._patch(cls, "run_batch", "mechanisms.run_batch", rows)
        for cls in (mech.Fpp, mech.Sapp, mech.BuyerOffering, mech.SellerOffering):
            self._patch(cls, "expected_gft_given_profile", "mechanisms.expected_gft", calls("mechanisms.expected_gft.calls"))
        for attr in ("exact_report", "sandwich_violation", "exact_dsic_gain"):
            self._patch(mech.Sapp, attr, "mechanisms.sapp_exact")

        def price(c, args, kwargs, out):
            c["mechanisms.sapp_price.calls"] += 1
            key = tuple(np.asarray(args[1], dtype=float).tolist())
            seen = self._price_keys[(self.task, id(args[0]))]
            if key not in seen:
                seen.add(key)
                c["mechanisms.sapp_price.distinct_profiles"] += 1

        for attr in ("q", "theta", "alpha"):
            self._patch(mech.SappPriceMap, attr, "mechanisms.sapp_price", price)
        self._patch(mech, "sapp_build", "mechanisms.sapp_build")

        def points(c, args, kwargs, out):
            c["mechanisms.grid.points"] += len(out[0])

        self._patch(mech, "_product_grid", "mechanisms.grid", points)

        # audits and bounds
        def profiles(c, args, kwargs, out):
            inst = args[1]
            c["audits.exact_gft.profiles"] += _grid_size(inst.buyer_dists) * _grid_size(inst.seller_dists)

        self._patch(audits, "exact_gft", "audits.exact_gft", profiles)
        self._patch(audits, "estimate_gft", "audits.estimate_gft")
        self._patch(audits, "budget_audit", "audits.budget_audit")
        self._patch(audits, "ir_audit", "audits.ir_audit")
        self._patch(audits, "first_best_gft", "audits.first_best")
        self._patch(bounds, "opt_b", "bounds.opt_b")
        self._patch(bounds, "prophet_threshold", "bounds.prophet_threshold")
        self._patch(bounds, "benchmark_decomposition", "bounds.decomposition")
        self._patch(bounds, "sb_gft_upper", "bounds.sb_upper")

        # LP oracle: assembly is everything in the public call except linprog
        def lp_shape(c, args, kwargs, out):
            A = kwargs.get("A_ub")
            c["oracle.lp.solves"] += 1
            c["oracle.lp.vars"] += len(args[0])
            if A is not None:
                c["oracle.lp.rows"] += A.shape[0]
                c["oracle.lp.nnz"] += int(A.nnz if hasattr(A, "nnz") else np.count_nonzero(A))

        self._patch(oracle, "second_best_lp", "oracle.lp_build")
        self._patch(oracle, "opt_s_lp", "oracle.lp_build")
        self._patch(oracle, "linprog", "oracle.lp_solve", lp_shape, count_first=True)

        for fn in ("random_instance", "example_a1", "example_a2", "example_a2_discretized", "example_a3", "matching_market"):
            self._patch(instances, fn, "instances.build")
