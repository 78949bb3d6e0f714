"""qmaxwell benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  The workloads are defined in
``workloads.py``.

``--trace 0`` starts SETUPS fresh interpreters one after another.  Each
imports the package, builds the basis, generates the seeded inputs, runs
one warm-up op (together this is ``setup_s``) and then runs ops as a closed
loop, one caller, for S / SETUPS seconds.  The end-to-end metrics pool the
ops of all of them.

``--trace 1`` starts one interpreter that traces its set-up, runs S/2
seconds untraced and S/2 seconds with every module boundary wrapped (see
``tracing.py``), and reports the per-layer metrics.

The last line of standard output is one JSON object with the metrics named
in BENCHMARK.json; the lines before it are a readable report and one
``detail`` line with every op's record.  Exits 2, printing no result, when
the package source is missing, and 1 when a worker process fails.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUPS = 3
TIME_LIMIT_S = 170.0
P90_MIN_OPS = 100  # at least ten ops beyond the 90th percentile


def thread_cap():
    return len(os.sched_getaffinity(0))


def worker_env():
    env = dict(os.environ)
    cap = str(thread_cap())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, workdir, budget, mode, child, children, deadline):
    started = time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--budget", repr(budget), "--started", repr(started),
           "--mode", mode, "--child", str(child), "--children", str(children),
           "--workdir", str(workdir / f"child{child}"),
           "--trace-out", str(workdir.parent / f"trace-{args.workload}-s{args.seed}.jsonl")]
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def p90(values):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def summarize(children, ops):
    times = [r["t"] for r in ops]
    ok = [r for r in ops if r["fail"] is None]
    loop_s = math.fsum(c["loop_s"] for c in children)
    return {
        "op_s_p50": statistics.median(times),
        "op_s_p90": p90(times),
        "solutions_per_s": len(ok) / loop_s,
        "fail_frac": (len(ops) - len(ok)) / len(ops),
        "setup_s": statistics.median(c["setup_s"] for c in children),
        "peak_rss_mb": max(c["peak_rss_mb"] for c in children),
    }


UNITS = {"op_s_p50": "s", "op_s_p90": "s", "solutions_per_s": "1/s", "fail_frac": "ratio",
         "setup_s": "s", "peak_rss_mb": "MB"}


def accuracy(ops):
    def worst(key, fn=abs):
        values = [fn(r[key]) for r in ops if r[key] is not None]
        return max(values) if values else None
    return {"max_residual_l2": worst("residual"), "max_abs_A_minus_A_star": worst("err"),
            "max_abs_duality_gap": worst("gap")}


def report_end_to_end(workload, values, ops, children):
    n, failed = len(ops), Counter(r["fail"] for r in ops if r["fail"])
    print(f"workload {workload}: {n} ops over {len(children)} fresh processes, "
          f"{n - sum(failed.values())} verified, failures by type {dict(failed) or '{}'}")
    notes = {"op_s_p50": f"n={n}",
             "op_s_p90": f"n={n}" + ("" if n >= P90_MIN_OPS
                                     else f", not valid: needs >= {P90_MIN_OPS} ops"),
             "solutions_per_s": f"{n - sum(failed.values())} verified ops",
             "fail_frac": f"{sum(failed.values())}/{n}",
             "setup_s": f"median of n={len(children)}",
             "peak_rss_mb": f"max of n={len(children)}"}
    for name, value in values.items():
        print(f"  {name:<16} {value:>12.6g} {UNITS[name]:<4} {notes[name]}")
    for name, value in accuracy(ops).items():
        print(f"  {name:<24} {'n/a' if value is None else f'{value:.3e}'}  (not gated)")


# predicted Hessian share of an op at the parent commit, per workload
HESSIAN_SHARE_PREDICTION = {"solve-m20": (">=", 0.90), "cli-verify-m8": ("<=", 0.05)}


def report_layers(workload, layers, absent):
    print(f"workload {workload}: per-layer metrics, means per traced op")
    for name in sorted(layers):
        print(f"  {name:<40} {layers[name]:>12.6g}")
    for name in absent:
        print(f"  absent: {name} (not found in the package; its metrics read 0)")
    if workload in HESSIAN_SHARE_PREDICTION:
        op, bound = HESSIAN_SHARE_PREDICTION[workload]
        share = layers["functionals.hessian_share"]
        held = share >= bound if op == ">=" else share <= bound
        print(f"  prediction Hessian share {op} {bound:.0%}: measured {share:.1%}, "
              f"{'confirmed' if held else 'NOT confirmed'}")
    if layers["trace.nondeterministic_ops"]:
        print(f"  NONDETERMINISM: {layers['trace.nondeterministic_ops']:g} replayed ops "
              "gave different counts")


def main():
    p = argparse.ArgumentParser(description="qmaxwell benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "qmaxwell" / "__init__.py").is_file():
        print(f"error: package source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS or args.seconds <= 0:
        print(f"error: workload must be one of {sorted(WORKLOADS)} and seconds > 0",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = time.monotonic() + TIME_LIMIT_S
    workdir = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            child = run_worker(args, workdir, args.seconds, "trace", 0, 1, deadline)
            children, ops = [child], child["ops"]
            layers = child["layers"]
            report_layers(args.workload, layers, child["absent"])
            metrics = {m["name"]: {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
                       for m in spec["per_layer"]}
        else:
            children = [run_worker(args, workdir, args.seconds / SETUPS, "measure", j,
                                   SETUPS, deadline) for j in range(SETUPS)]
            ops = [r for c in children for r in c["ops"]]
            values = summarize(children, ops)
            report_end_to_end(args.workload, values, ops, children)
            metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = children[0]["environment"]
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    failed = [r for r in ops if r["fail"]]
    print("detail " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env, "accuracy": accuracy(ops),
        "failures": dict(Counter(r["fail"] for r in failed)),
        "warmups": [c["warmup"] for c in children], "ops": ops}))
    checked = ops + [c["warmup"] for c in children]
    print(json.dumps({"correct": not any(r["fail"] == "CheckFailed" for r in checked),
                      "attempted": len(ops), "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
