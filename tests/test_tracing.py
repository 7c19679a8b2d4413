"""
The perfbench tracer patches gft_lab names at run time, so a rename in
`src/` silently turns its counters to 0. This loads the tracer from its path,
runs an exact grid audit, a SAPP exact report and a Monte Carlo GFT estimate
on a continuous market under it, and checks that the grid and sampling
counters move (sampled batches must keep drawing through `Dist.sample`) and
that every patched attribute is put back.
"""
import importlib.util
from pathlib import Path

from gft_lab import audits, instances
from gft_lab import mechanisms as mech

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_counts_grid_work_and_restores_every_patch():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    saved = list(tracer._saved)
    try:
        assert saved and all(_current(owner, attr) is not fn for owner, attr, fn in saved)
        inst = instances.example_a3(6)
        audits.exact_gft(mech.BuyerOffering(inst), inst)
        mech.Sapp(inst, mech.sapp_build(inst, mech.reduction_rule(inst))).exact_report()
        cont = instances.random_instance(3, "uniform", seed=1)
        audits.estimate_gft(mech.BuyerOffering(cont), cont, samples=50, seed=2)
    finally:
        tracer.uninstall()
    assert tracer.counts["mechanisms.grid.points"] > 0
    assert tracer.counts["audits.exact_gft.profiles"] > 0
    assert tracer.counts["distributions.sample.values"] > 0
    assert all(_current(owner, attr) is fn for owner, attr, fn in saved)
