"""Batch driver: load instances, run mechanisms, bounds, and oracles, and
emit versioned CSV or JSON tables.

Output contract: identical configuration produces byte-identical files. CSV
files start with the schema line ``#gft-lab-v1``; JSON mirrors the same rows.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import acceptance, audits, bounds, instances
from . import feasibility as fea
from . import mechanisms as mech
from .feasibility import CapacityError

EXIT_BAD_CONFIG = 2
EXIT_CAPACITY = 3
SCHEMA = "#gft-lab-v1"
MECHANISMS = ("fpp", "cfpp", "sapp", "buyer_offering", "seller_offering")


def _seed(args) -> int:
    """--seed; an exact run defaults it to 0, a Monte Carlo run requires it."""
    if args.seed is not None:
        return args.seed
    if args.exact:
        return 0
    raise ValueError("--seed is required for Monte Carlo runs")


def _parse_params(pairs: list[str] | None) -> dict:
    out: dict = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValueError(f"--param expects k=v, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            out[key] = int(raw)
        except ValueError:
            try:
                out[key] = float(raw)
            except ValueError:
                out[key] = raw
    return out


def _load_instance(args) -> mech.MarketInstance:
    if getattr(args, "example", None):
        return instances.make_example(args.example, **_parse_params(args.param))
    if getattr(args, "instance", None):
        with open(args.instance, encoding="utf-8") as fh:
            obj = json.load(fh)
        if not obj:
            raise ValueError(f"instance file {args.instance} is empty")
        return instances.instance_from_json(obj)
    raise ValueError("provide --example NAME or --instance FILE")


def _load_prices(path: str | None, inst: mech.MarketInstance):
    if path is None:
        raise ValueError("this mechanism needs --prices FILE")
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if "p" in obj:
        theta = [float(obj["p"])] * inst.n
        return theta, list(theta), obj
    return (
        [float(v) for v in obj["theta_b"]],
        [float(v) for v in obj["theta_s"]],
        obj,
    )


def _build_mechanism(name: str, inst: mech.MarketInstance, args):
    if name == "fpp":
        tb, ts, _ = _load_prices(args.prices, inst)
        return mech.Fpp(inst, tb, ts)
    if name == "cfpp":
        tb, ts, obj = _load_prices(args.prices, inst)
        if "sub" not in obj:
            raise ValueError("cfpp prices file needs a 'sub' constraint entry")
        return mech.Cfpp(inst, tb, ts, fea.constraint_from_json(obj["sub"]))
    if name == "sapp":
        if args.rule == "reduction":
            rule = mech.reduction_rule(inst)
        else:
            _, low = bounds.hl_split(inst)
            rule = mech.unlikely_trade_rule(inst, low)
        return mech.Sapp(inst, mech.sapp_build(inst, rule))
    if name == "buyer_offering":
        return mech.BuyerOffering(inst)
    if name == "seller_offering":
        return mech.SellerOffering(inst)
    raise ValueError(f"unknown mechanism {name!r}; choose from {', '.join(MECHANISMS)}")


def _norm(value):
    if hasattr(value, "item"):
        value = value.item()
    return value


def _cell(value) -> str:
    value = _norm(value)
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(rows: list[dict], fields: tuple[str, ...], args) -> None:
    rows = [{k: _norm(v) for k, v in row.items()} for row in rows]
    if args.format == "json":
        body = {"schema": SCHEMA.lstrip("#"), "rows": rows}
        text = json.dumps(body, sort_keys=True, indent=2) + "\n"
    else:
        buf = io.StringIO()
        buf.write(SCHEMA + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_cell(row[f]) for f in fields])
        text = buf.getvalue()
    _write_text(args.output, text)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_simulate(args) -> int:
    inst = _load_instance(args)
    seed = _seed(args)
    mechs = [_build_mechanism(name, inst, args) for name in args.mechanism]
    rows = [audits.audit_report(mm, inst, args.samples, seed, args.exact).as_dict() for mm in mechs]
    _emit(rows, audits.AuditReport.CSV_FIELDS, args)
    return 0


def cmd_bounds(args) -> int:
    inst = _load_instance(args)
    seed = _seed(args)
    rep = bounds.benchmark_decomposition(inst, samples=args.samples, seed=seed)
    rows = [
        {"metric": "r_min", "value": rep.r},
        {"metric": "ladder_depth", "value": rep.ladder_depth},
        {"metric": "fb", "value": rep.fb},
        {"metric": "fb_stderr", "value": rep.fb_stderr},
        {"metric": "term1", "value": rep.term1},
        {"metric": "term2", "value": rep.term2},
        {"metric": "sum_term3", "value": sum(rep.term3)},
        {"metric": "sum_term4", "value": sum(rep.term4)},
        {"metric": "sum_term5", "value": sum(rep.term5)},
        {"metric": "sum_term6", "value": sum(rep.term6)},
        {"metric": "pair_x_ge_y", "value": rep.pair_ok},
    ]
    for name, (good, _) in rep.checks.items():
        rows.append({"metric": f"check_{name}", "value": good})
    rows.append(
        {"metric": "sb_gft_upper", "value": bounds.sb_gft_upper(inst, args.samples, seed)}
    )
    if inst.n == 1:
        best_p, best_g = bounds.best_fpp_bilateral(inst)
        rows.append({"metric": "best_fpp_price", "value": best_p})
        rows.append({"metric": "best_fpp_gft", "value": best_g})
    _emit(rows, ("metric", "value"), args)
    return 0


def cmd_oracle(args) -> int:
    from . import oracle

    inst = _load_instance(args)
    if not inst.is_discrete:
        raise CapacityError("continuous instance; discretize first")
    m = oracle.DiscreteMarket(inst)
    if args.dump_lp:
        _write_text(args.output, oracle.lp_text(m, args.budget))
        return 0
    chain = oracle.verify_ub_chain(m)
    rows = [
        {"metric": "sb", "value": chain["sb"]},
        {"metric": "fb", "value": chain["fb"]},
        {"metric": "opt_b", "value": chain["opt_b"]},
        {"metric": "opt_s", "value": chain["opt_s"]},
        {"metric": "sb_le_fb", "value": chain["sb_le_fb"]},
        {"metric": "sb_le_optb_plus_opts", "value": chain["sb_le_optb_plus_opts"]},
    ]
    for name, (gft, good) in sorted(chain["mechanisms"].items()):
        rows.append({"metric": f"gft[{name}]", "value": gft})
        rows.append({"metric": f"gft[{name}]_le_sb", "value": good})
    if inst.n == 2:
        for label, (_, _, good) in sorted(oracle.opt_s_partition_check(m).items()):
            rows.append({"metric": f"opt_s_partition_{label}", "value": good})
    _emit(rows, ("metric", "value"), args)
    return 0


def cmd_example(args) -> int:
    inst = instances.make_example(args.example, **_parse_params(args.param))
    text = json.dumps(instances.instance_to_json(inst), sort_keys=True, indent=2) + "\n"
    _write_text(args.output, text)
    return 0


def cmd_selftest(args) -> int:
    return acceptance.run_all(args.only or None)


def _add_instance_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--example", help="named instance family")
    p.add_argument("--param", action="append", metavar="K=V", help="family parameter")
    p.add_argument("--instance", help="instance JSON file")


def _add_run_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", help="write here instead of stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gft-lab",
        description="simulation lab for gains from trade in two-sided markets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="audit mechanisms on an instance")
    _add_instance_args(p)
    _add_run_args(p)
    p.add_argument("--mechanism", action="append", required=True, metavar="NAME")
    p.add_argument("--prices", help="JSON price file for fpp/cfpp")
    p.add_argument("--rule", choices=("unlikely", "reduction"), default="unlikely")
    p.add_argument("--exact", action="store_true", help="exact GFT on discrete grids")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("bounds", help="benchmark decomposition and upper bounds")
    _add_instance_args(p)
    _add_run_args(p)
    p.set_defaults(fn=cmd_bounds, exact=False)

    p = sub.add_parser("oracle", help="LP benchmarks on a discrete instance")
    _add_instance_args(p)
    _add_run_args(p)
    p.add_argument("--budget", choices=("exante", "expost"), default="exante")
    p.add_argument("--dump-lp", action="store_true")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("example", help="dump a named instance to JSON")
    p.add_argument("--example", required=True)
    p.add_argument("--param", action="append", metavar="K=V")
    p.add_argument("--output")
    p.set_defaults(fn=cmd_example)

    p = sub.add_parser("selftest", help="run the acceptance criteria")
    p.add_argument("--only", action="append", metavar="NAME")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "samples", 1) < 1:
            raise ValueError(f"--samples must be at least 1, got {args.samples}")
        return args.fn(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
