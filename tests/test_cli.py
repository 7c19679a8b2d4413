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
from gft_lab import cli
from gft_lab import distributions as dst
from gft_lab import feasibility as fsb
from gft_lab import instances


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
