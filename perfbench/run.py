"""gft-lab benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload exact-grid --seed 1 --seconds 25 --trace 0

Run from the root of a gft-lab checkout; gft_lab is imported from ./src.
The workload runs in a fresh worker process (worker.py) with BLAS/OpenMP
threads capped; set-up time is measured from spawning a worker to its
``ready`` line, over SETUP_RUNS workers (some before the measured one, some
after, so they sample different moments of a shared machine), each scaled to
the reference machine speed by a probe taken just before it (calibrate.py),
and reported as the median. The last
line of standard output is the JSON result; the lines before it are a
readable summary and the run record (seed, machine, raw timings), which is
also written to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 7
SETUP_BEFORE = 3  # set-up probes before the measured worker; the rest run after it
THREAD_CAP = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKER_TIMEOUT_S = 160


def machine() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": "",
        "mem_total_mb": None,
        "python": platform.python_version(),
        "thread_cap": THREAD_CAP,
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal"):
                info["mem_total_mb"] = int(line.split()[1]) // 1024
                break
    except OSError:
        pass
    return info


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = str(THREAD_CAP)
    return env


def spawn(args: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ready line; returns it and the set-up time."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args], stdout=subprocess.PIPE, text=True, env=env
    )
    line = proc.stdout.readline().strip()
    setup = perf_counter() - t0
    if line != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker did not get ready (said {line!r}, exit {proc.returncode})")
    return proc, setup


def finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out.strip()


def versions(env: dict) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    ).stdout.split()
    return {"numpy": out[0], "scipy": out[1]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("exact-grid", "mc-estimate", "lp-oracle"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gft_lab" / "__init__.py").is_file():
        print(f"error: {root} is not a gft-lab checkout (no src/gft_lab)", file=sys.stderr)
        return 2
    env = worker_env(root)
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]

    # the measured worker is one set-up sample; untraced runs add set-up-only
    # workers before and after it
    extra = 0 if args.trace else SETUP_RUNS - 1
    setups, raw_setups, speed_probes = [], [], []
    for k in range(extra + 1):
        speed_probes.append(calibrate.probe())
        if k == min(SETUP_BEFORE, extra):
            proc, setup = spawn([*common, "--trace", str(args.trace), "--spans", str(out_dir / f"{stem}.spans.npz")], env)
            record = json.loads(finish(proc).splitlines()[-1])
        else:
            proc, setup = spawn([*common, "--setup-only"], env)
            finish(proc)
        raw_setups.append(setup)
        setups.append(setup * calibrate.REFERENCE_PROBE_S / speed_probes[-1])

    failed = len(record["failures"])
    attempted = record["attempted"]
    problems = record.get("problems", [])
    declared = _declared(root, "per_layer" if args.trace else "end_to_end")
    if args.trace:
        metrics = {name: {"value": value, "unit": declared.get(name, "?")} for name, value in record["metrics"].items()}
    else:
        record.update(setup_s=setups, setup_raw_s=raw_setups, setup_probes_s=speed_probes)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": record["wall_s"], "unit": "s"},
            "task_p50_s": {"value": record["task_p50_s"], "unit": "s"},
            "task_tail_s": {"value": record["task_tail_s"], "unit": "s"},
            "peak_rss_mb": {"value": record["peak_rss_mb"], "unit": "MB"},
        }
    if declared and set(metrics) != set(declared):
        problems.append(f"metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json")
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    record["machine"] = {**machine(), **versions(env)}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))

    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_frac = {failed / attempted:.6g} ratio ({failed} of {attempted} tasks)")
    if not args.trace:
        print(
            f"task times are each task's median over {record['timed_batches']} timed batches, at reference speed; "
            f"task_tail_s is the p{math.floor(100 * record['tail_quantile'])} of {record['tasks']} tasks"
        )
    for msg in (record["failures"] + problems)[:20]:
        print(f"FAILED {msg}")
    print("machine: " + json.dumps(record["machine"]))
    correct = failed == 0 and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _declared(root: Path, kind: str) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    path = root / "BENCHMARK.json"
    if not path.is_file():
        return {}
    return {m["name"]: m["unit"] for m in json.loads(path.read_text())[kind]}


if __name__ == "__main__":
    sys.exit(main())
