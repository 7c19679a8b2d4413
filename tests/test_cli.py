"""
Tests for the command line interface: subcommands, output formats, seeded
determinism, and exit codes for configuration and capacity errors.
"""
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gft_lab
from gft_lab import audits, bounds, cli, oracle
from gft_lab import distributions as dst
from gft_lab import feasibility as fsb
from gft_lab import instances
from gft_lab import mechanisms as mech


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.splitlines()
    assert lines[0] == "#gft-lab-v1"
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


def grid8_file(tmp_path):
    atoms = [(j + 1) / 8 for j in range(8)]
    grid = dst.discrete(atoms, [1 / 8] * 8)
    inst = instances.MarketInstance((grid,), (grid,), fsb.additive([0]))
    path = tmp_path / "grid8.json"
    path.write_text(json.dumps(instances.instance_to_json(inst)))
    return str(path)


def uniform_bilateral_file(tmp_path, name):
    u = dst.uniform(0.0, 1.0)
    inst = instances.MarketInstance((u,), (u,), fsb.additive([0]))
    path = tmp_path / name
    path.write_text(json.dumps(instances.instance_to_json(inst)))
    return str(path)


def test_simulate_exact_geometric_market(capsys):
    code, out, _ = run_cli(
        ["simulate", "--example", "a3", "--param", "m=8",
         "--mechanism", "buyer_offering", "--exact", "--format", "csv"],
        capsys,
    )
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    assert rows[0]["mechanism"] == "buyer_offering"
    assert float(rows[0]["gft"]) <= 1.0
    assert float(rows[0]["gft_stderr"]) == 0.0


def test_simulate_deterministic_output_files(tmp_path, capsys):
    args = [
        "simulate", "--example", "a3", "--param", "m=6",
        "--mechanism", "seller_offering", "--mechanism", "buyer_offering",
        "--samples", "400", "--seed", "3", "--format", "csv",
    ]
    f1, f2 = tmp_path / "one.csv", tmp_path / "two.csv"
    assert cli.main(args + ["--output", str(f1)]) == 0
    assert cli.main(args + ["--output", str(f2)]) == 0
    capsys.readouterr()
    assert f1.read_bytes() == f2.read_bytes()


def test_simulate_requires_seed_for_monte_carlo(capsys):
    code, _, err = run_cli(
        ["simulate", "--example", "a3", "--param", "m=6", "--mechanism", "buyer_offering"],
        capsys,
    )
    assert code == 2
    assert "seed" in err


@pytest.mark.parametrize("samples", ["0", "-5"])
@pytest.mark.parametrize("command", [
    ["simulate", "--example", "a1", "--mechanism", "buyer_offering", "--seed", "1"],
    ["bounds", "--example", "a1", "--seed", "1"],
], ids=["simulate", "bounds"])
def test_sample_counts_below_one_are_config_errors(command, samples, capsys):
    code, out, err = run_cli(command + ["--samples", samples], capsys)
    assert (code, out) == (2, "")
    assert f"--samples must be at least 1, got {samples}" in err


def test_simulate_rejects_unknown_mechanism(capsys):
    code, _, err = run_cli(
        ["simulate", "--example", "a3", "--param", "m=6",
         "--mechanism", "vcg", "--exact"],
        capsys,
    )
    assert code == 2
    assert "error:" in err


def test_simulate_json_schema(capsys):
    code, out, _ = run_cli(
        ["simulate", "--example", "a3", "--param", "m=6",
         "--mechanism", "buyer_offering", "--exact", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "gft-lab-v1"
    assert len(doc["rows"]) == 1


def test_bounds_uniform_instance(tmp_path, capsys):
    path = uniform_bilateral_file(tmp_path, "uni.json")
    code, out, _ = run_cli(
        ["bounds", "--instance", path, "--samples", "4000", "--seed", "1",
         "--format", "csv"],
        capsys,
    )
    assert code == 0
    rows = {r["metric"]: r["value"] for r in parse_csv(out)}
    assert abs(float(rows["r_min"]) - 0.5) < 1e-9
    assert abs(float(rows["fb"]) - 1.0 / 6.0) < 0.02
    assert rows["check_fb_le_term1_plus_term2"] == "1"
    assert rows["check_pair_x_ge_y"] == "1"
    assert abs(float(rows["best_fpp_price"]) - 0.5) < 0.01


def test_bounds_exponential_pair_emits_calibrated_numbers(capsys):
    code, out, _ = run_cli(
        ["bounds", "--example", "a1", "--param", "t=10",
         "--samples", "2000", "--seed", "2", "--format", "csv"],
        capsys,
    )
    assert code == 0
    rows = {r["metric"]: r["value"] for r in parse_csv(out)}
    assert abs(float(rows["r_min"]) - instances.a1_r(10.0)) < 1e-6
    assert "best_fpp_gft" in rows
    assert float(rows["best_fpp_gft"]) > 0.0


def test_oracle_uniform_grid_verdicts(tmp_path, capsys):
    code, out, _ = run_cli(
        ["oracle", "--instance", grid8_file(tmp_path), "--format", "csv"],
        capsys,
    )
    assert code == 0
    rows = {r["metric"]: r["value"] for r in parse_csv(out)}
    assert abs(float(rows["sb"]) - 0.153125) < 1e-9
    assert abs(float(rows["fb"]) - 0.1640625) < 1e-9
    assert float(rows["sb"]) < float(rows["fb"])
    assert rows["sb_le_fb"] == "1"
    assert rows["sb_le_optb_plus_opts"] == "1"
    mech_flags = [v for k, v in rows.items() if k.endswith("_le_sb")]
    assert mech_flags and all(v == "1" for v in mech_flags)


def test_oracle_dump_lp(tmp_path, capsys):
    out_path = tmp_path / "model.lp"
    code, _, _ = run_cli(
        ["oracle", "--instance", grid8_file(tmp_path), "--dump-lp",
         "--output", str(out_path)],
        capsys,
    )
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("maximize")
    assert "buyerIR" in text


def test_oracle_rejects_continuous_instance(tmp_path, capsys):
    path = uniform_bilateral_file(tmp_path, "cont.json")
    code, _, err = run_cli(["oracle", "--instance", path], capsys)
    assert code == 3
    assert "discretize" in err


def test_empty_instance_file_is_config_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text("")
    code, _, err = run_cli(["simulate", "--instance", str(path),
                            "--mechanism", "buyer_offering", "--exact"], capsys)
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("command", ["example", "simulate"])
def test_unknown_example_param_exits_2(command, capsys):
    extra = ["--mechanism", "buyer_offering", "--exact"] if command == "simulate" else []
    code, out, err = run_cli([command, "--example", "a3", "--param", "M=6", *extra], capsys)
    assert code == 2
    assert out == ""
    assert "unknown parameter(s) M for example a3; it accepts m" in err


def test_example_dump_round_trips(capsys):
    code, out, _ = run_cli(["example", "--example", "a3", "--param", "m=6"], capsys)
    assert code == 0
    inst = instances.instance_from_json(json.loads(out))
    assert inst.n == 1
    assert max(inst.buyer_dists[0].values) == 63.0


def test_simulate_with_prices(tmp_path, capsys):
    prices = tmp_path / "p.json"
    prices.write_text(json.dumps({"p": 32.0}))
    code, out, _ = run_cli(
        ["simulate", "--example", "a3", "--param", "m=6",
         "--mechanism", "fpp", "--prices", str(prices), "--exact", "--format", "csv"],
        capsys,
    )
    assert code == 0
    rows = parse_csv(out)
    assert rows[0]["mechanism"] == "fpp"
    assert float(rows[0]["gft"]) >= 0.0


def test_simulate_cfpp_size_floor_matches_audit_report(tmp_path, capsys):
    u = dst.uniform(0.0, 1.0)
    inst = instances.MarketInstance((u,) * 3, (u,) * 3, fsb.additive(range(3)))
    path = tmp_path / "u3.json"
    path.write_text(json.dumps(instances.instance_to_json(inst)))
    tb, ts, sub = [0.5, 0.6, 0.4], [0.4, 0.5, 0.3], fsb.size_floor(fsb.additive(range(3)), 2)
    prices = tmp_path / "p.json"
    prices.write_text(json.dumps({"theta_b": tb, "theta_s": ts, "sub": fsb.constraint_to_json(sub)}))
    argv = ["simulate", "--instance", str(path), "--mechanism", "cfpp", "--prices", str(prices),
            "--samples", "500", "--seed", "3", "--format", "csv"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    (row,) = parse_csv(out)
    want = audits.audit_report(mech.Cfpp(inst, tb, ts, sub), inst, 500, 3).as_dict()
    assert row == {k: cli._cell(v) for k, v in want.items()}
    prices.write_text(json.dumps({"theta_b": tb, "theta_s": ts}))
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert "sub" in err


def test_selftest_single_fast_criterion(capsys):
    code, out, _ = run_cli(["selftest", "--only", "lp-oracle-chain"], capsys)
    assert code == 0
    assert out.startswith("PASS lp-oracle-chain")


def test_selftest_unknown_criterion(capsys):
    code, _, err = run_cli(["selftest", "--only", "nope"], capsys)
    assert code == 2
    assert "unknown" in err


def test_cli_import_leaves_scipy_integrate_unloaded():
    # no code in gft_lab integrates by scipy: not at start-up, nor on the
    # bilateral first best and best posted price of `bounds --example a1`
    # and `lowtrade-ratio-trend`
    src = str(Path(gft_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, gft_lab.cli as c\n"
        "print('scipy.integrate' in sys.modules)\n"
        "c.main(['bounds', '--example', 'a1', '--seed', '1', '--samples', '2000'])\n"
        "c.main(['selftest', '--only', 'lowtrade-ratio-trend'])\n"
        "print('scipy.integrate' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    assert lines[0] == lines[-1] == "False"
    assert any(line.startswith("best_fpp_gft,") for line in lines)
    assert "PASS" in out.stdout and "lowtrade-ratio-trend" in out.stdout


def test_cli_start_up_and_exact_runs_leave_scipy_unloaded():
    # scipy loads only where it is used (the LP oracle, lognormal, the
    # bilateral optimizers): not at start-up, nor on an exact SAPP run or
    # the logsep exact suite
    src = str(Path(gft_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = (
        "import sys, gft_lab.cli as c\n"
        "def loaded(): print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "loaded()\n"
        "c.main(['simulate', '--example', 'a3', '--mechanism', 'sapp', '--exact'])\n"
        "loaded()\n"
        "c.main(['selftest', '--only', 'logsep-exact-suite'])\n"
        "loaded()"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    assert [line for line in lines if line.startswith("[")] == ["[]"] * 3
    assert any(line.startswith("sapp[unlikely_trade([0])],") for line in lines)
    assert "PASS logsep-exact-suite" in out.stdout


def test_simulate_cfpp_refuses_a_sub_the_market_constraint_forbids(tmp_path, capsys):
    u = dst.uniform(0.0, 1.0)
    inst = instances.MarketInstance((u,) * 3, (u,) * 3, fsb.unit_demand(range(3)))
    path = tmp_path / "ud3.json"
    path.write_text(json.dumps(instances.instance_to_json(inst)))
    prices = tmp_path / "p.json"
    prices.write_text(json.dumps({"theta_b": [0.5] * 3, "theta_s": [0.4] * 3, "sub": fsb.constraint_to_json(fsb.k_uniform(2, range(3)))}))
    code, out, err = run_cli(["simulate", "--instance", str(path), "--mechanism", "cfpp", "--prices", str(prices),
                              "--samples", "100", "--seed", "1"], capsys)
    assert code == 2
    assert out == ""
    assert "market constraint forbids" in err


@pytest.mark.parametrize("rule", ["unlikely", "reduction"])
def test_simulate_sapp_matches_audit_report(rule, capsys):
    code, out, _ = run_cli(["simulate", "--example", "a2", "--param", "n=2", "--mechanism", "sapp", "--rule", rule,
                            "--samples", "500", "--seed", "3", "--format", "csv"], capsys)
    assert code == 0
    (row,) = parse_csv(out)
    inst = instances.make_example("a2", n=2)
    made = mech.reduction_rule(inst) if rule == "reduction" else mech.unlikely_trade_rule(inst, bounds.hl_split(inst)[1])
    want = audits.audit_report(mech.Sapp(inst, mech.sapp_build(inst, made)), inst, 500, 3).as_dict()
    assert want["gft"] > 0.0
    assert row == {k: cli._cell(v) for k, v in want.items()}


@pytest.mark.parametrize("mechanism", ["sapp", "buyer_offering"])
def test_simulate_refuses_a_trade_free_a2d_grid(mechanism, capsys):
    # grid=8 leaves the discretized item 0 without trade: a configuration
    # error naming the grid, for every mechanism
    code, out, err = run_cli(["simulate", "--example", "a2d", "--param", "n=2", "--param", "grid=8",
                              "--mechanism", mechanism, "--exact"], capsys)
    assert code == 2
    assert out == ""
    assert "a2d with n=2, t=6.0, grid=8: every buyer atom of item 0 lies below every seller atom" in err
    assert "use a finer grid" in err


def test_oracle_two_item_instance_reports_the_partition_check(tmp_path, capsys):
    inst = mech.market(
        [dst.discrete([0.5, 1.0], [0.5, 0.5]), dst.discrete([0.4, 0.9], [0.3, 0.7])],
        [dst.discrete([0.1, 0.6], [0.5, 0.5])] * 2,
        fsb.unit_demand(range(2)),
    )
    path = tmp_path / "two.json"
    path.write_text(json.dumps(instances.instance_to_json(inst)))
    code, out, _ = run_cli(["oracle", "--instance", str(path), "--format", "csv"], capsys)
    assert code == 0
    rows = {r["metric"]: r["value"] for r in parse_csv(out)}
    check = oracle.opt_s_partition_check(oracle.DiscreteMarket(inst))
    got = {k[len("opt_s_partition_"):]: v for k, v in rows.items() if k.startswith("opt_s_partition_")}
    assert got == {label: cli._cell(good) for label, (_, _, good) in check.items()}
    assert sorted(got) == ["keep0", "keep1"]
