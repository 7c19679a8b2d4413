"""One workload in one process: set up, run batches, check, report.

Started by run.py with the thread caps already in the environment. Prints
``ready`` once gft_lab is imported and the instances are built (run.py times
set-up from process start to that line), then, unless ``--setup-only``, runs
the batch repeatedly and prints one JSON record as its last line.

Batches: the first is a warm-up and is not timed into any metric; at least
MIN_TIMED more follow, and batches continue until their total time reaches
``--seconds``. Every task of every batch is checked after the batch.

On shared CPUs the same code can run up to 1.8x slower for seconds to
minutes at a time. So a machine-speed probe
(calibrate.py) runs between tasks, at least every PROBE_EVERY_S, outside the
timed sections, and each task repetition is scaled to the reference speed by
the probes taken around it. A task's time is the median of its scaled timed
repetitions. wall_s is the sum of these over the batch (a median batch),
task_p50_s their median, and task_tail_s the time with TAIL_BEYOND tasks
slower than it. Raw times and probes go into the record.

Traced run (``--trace 1``): set-up runs traced; untimed-by-trace batches fill
the first half of ``--seconds`` and give the untraced wall time; then
TRACED_BATCHES batches run with the spans installed. Counts must agree
exactly between the traced batches.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import calibrate

MIN_TIMED = 6
PROBE_EVERY_S = 0.25
TRACED_BATCHES = 2
TAIL_BEYOND = 10


def run_batch(tasks, tracer=None, probe_every: float | None = None):
    """Run every task once. Returns (wall, per-task seconds, outputs, errors,
    per-task probe seconds). With `probe_every`, the machine-speed probe runs
    before the batch and after any task that ends at least that long after
    the last probe; each task gets the mean of the probes around it."""
    times, outputs, errors, around = [], {}, {}, []
    probes = [calibrate.probe()] if probe_every else []
    pending = []  # tasks since the last probe
    last = perf_counter()
    start = perf_counter()
    for k, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = k
        t0 = perf_counter()
        try:
            out = task.run()
        except Exception as exc:  # a failed task is counted, never fatal
            out = None
            errors[task.id] = f"raised {type(exc).__name__}: {exc}"
        t1 = perf_counter()
        times.append(t1 - t0)
        outputs[task.id] = out
        if probe_every:
            pending.append(k)
            if t1 - last >= probe_every or k == len(tasks) - 1:
                before = probes[-1]
                probes.append(calibrate.probe())
                around += [0.5 * (before + probes[-1])] * len(pending)
                pending = []
                last = perf_counter()
    wall = sum(times) if probe_every else perf_counter() - start
    if tracer is not None:
        tracer.task = -1
    return wall, times, outputs, errors, around


def check_batch(tasks, outputs, errors) -> dict:
    for task in tasks:
        if task.id in errors:
            continue
        try:
            msg = task.check(outputs[task.id], outputs)
        except Exception as exc:
            msg = f"check raised {type(exc).__name__}: {exc}"
        if msg:
            errors[task.id] = msg
    return errors


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced(tasks, until: float, min_timed: int) -> dict:
    """Run batches until their total time reaches `until` and at least
    `min_timed` batches after the warm-up are done."""
    walls, times, around, failures, attempted = [], [], [], [], 0
    spent = 0.0
    k = 0
    while k <= min_timed or spent < until:
        wall, t, outputs, errors, probes = run_batch(tasks, probe_every=PROBE_EVERY_S)
        check_batch(tasks, outputs, errors)
        attempted += len(tasks)
        failures += [f"batch {k}: {tid}: {msg}" for tid, msg in errors.items()]
        spent += wall
        if k > 0:
            walls.append(wall)
            times += t
            around += probes
        k += 1
    return {"walls": walls, "times": times, "probes": around, "failures": failures, "attempted": attempted}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="where the traced run writes its spans (.npz)")
    args = ap.parse_args(argv)

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    import workloads

    tasks = workloads.build(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    if tracer is None:
        res = untraced(tasks, args.seconds, MIN_TIMED)
        n = len(tasks)
        scaled = [t * calibrate.REFERENCE_PROBE_S / p for t, p in zip(res["times"], res["probes"])]
        per_task = [statistics.median(scaled[k::n]) for k in range(n)]
        ranked = sorted(per_task)
        record = {
            "tasks": n,
            "timed_batches": len(res["walls"]),
            "wall_s": math.fsum(per_task),
            "task_p50_s": statistics.median(ranked),
            "task_tail_s": ranked[n - 1 - TAIL_BEYOND],
            "tail_quantile": (n - 1 - TAIL_BEYOND) / (n - 1),
            "peak_rss_mb": peak_rss_mb(),
            "attempted": res["attempted"],
            "failures": res["failures"],
            "batch_walls_s": res["walls"],
            "task_times_s": {t.id: res["times"][k::n] for k, t in enumerate(tasks)},
            "task_probes_s": {t.id: res["probes"][k::n] for k, t in enumerate(tasks)},
        }
        print(json.dumps(record), flush=True)
        return 0

    setup_self = list(tracer.self_s)
    setup_counts = dict(tracer.counts)
    tracer.uninstall()
    res = untraced(tasks, args.seconds / 2.0, 1)
    failures = list(res["failures"])
    problems = []
    attempted = res["attempted"]
    runs = []
    for k in range(TRACED_BATCHES):
        tracer.reset()
        first = len(tracer.span_start)
        tracer.install()
        wall, _, outputs, errors, _ = run_batch(tasks, tracer)
        tracer.uninstall()
        check_batch(tasks, outputs, errors)
        attempted += len(tasks)
        failures += [f"traced batch {k}: {tid}: {msg}" for tid, msg in errors.items()]
        covered = tracer.root_time(first)
        self_total = math.fsum(tracer.self_s) + tracer.count_s
        if abs(self_total - covered) > 1e-6 * max(1.0, covered):
            problems.append(f"traced batch {k}: self and count times sum to {self_total} but top-level spans cover {covered}")
        runs.append({"wall": wall, "self": list(tracer.self_s), "counts": dict(tracer.counts), "covered": covered, "count_s": tracer.count_s})
    for k in range(1, TRACED_BATCHES):
        if runs[k]["counts"] != runs[0]["counts"]:
            diff = {n: (runs[0]["counts"][n], runs[k]["counts"][n]) for n in runs[0]["counts"] if runs[0]["counts"][n] != runs[k]["counts"][n]}
            problems.append(f"counts differ between traced batches: {diff}")
    if args.spans:
        Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
        tracer.save(args.spans)

    metrics = {}
    for idx, name in enumerate(tracer.names):
        metrics[f"{name}.self_s"] = setup_self[idx] + statistics.median([r["self"][idx] for r in runs])
    for name, value in runs[0]["counts"].items():
        metrics[name] = setup_counts.get(name, 0) + value
    traced_wall = statistics.median([r["wall"] for r in runs])
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = min(r["wall"] for r in runs) - min(res["walls"])
    metrics["trace.count_s"] = statistics.median([r["count_s"] for r in runs])
    metrics["bench.uncovered_s"] = statistics.median([r["wall"] - r["covered"] for r in runs])
    record = {
        "tasks": len(tasks),
        "untraced_walls_s": res["walls"],
        "traced_walls_s": [r["wall"] for r in runs],
        "spans": len(tracer.span_start),
        "metrics": metrics,
        "attempted": attempted,
        "failures": failures,
        "problems": problems,
    }
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
