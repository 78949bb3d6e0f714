"""One fresh-interpreter process of the benchmark: import the package, build
the basis, generate the inputs, run one warm-up op, then run ops as a closed
loop until the time budget is spent.  Prints one JSON object on stdout.

Started by run.py, which sets the BLAS thread cap in the environment and
passes its own ``time.monotonic()`` reading taken just before the start, so
``setup_s`` covers the interpreter start as well.

In ``--mode trace`` the set-up is traced, then half the budget runs
untraced and half traced, and the first traced inputs are run a second time
to check that their counts repeat exactly.
"""

import argparse
import itertools
import json
import math
import os
import platform
import resource
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from tracing import Tracer, self_times  # noqa: E402

# calls the per-layer metrics need beyond the automatically found boundaries:
# (module, attribute path, layer)
EXTRA_SPANS = (
    ("spectral_core", "SpectralBasis.triple_products", "spectral_core"),
    ("io_cli", "parse_density_csv", "io_cli"),
    ("io_cli", "parse_potential", "io_cli"),
    ("io_cli", "write_density_csv", "io_cli"),
    ("io_cli", "serialize_report", "io_cli"),
    ("io_cli", "run_inequality_suite", "io_cli"),
)
REPLAYS = 2


def run_op(runner, index, call=None):
    t0 = time.perf_counter()
    result = error = None
    try:
        result = call(index) if call else runner.call(index)
    except Exception as exc:  # a failed op is recorded by type, never retried
        error = exc
    elapsed = time.perf_counter() - t0
    rec = runner.outcome(index, result, error)
    rec["t"] = elapsed
    return rec


def closed_loop(runner, indices, budget, call=None):
    """Run ops on ``indices`` until ``budget`` seconds have passed (at least one)."""
    records = []
    start = time.monotonic()
    for index in indices:
        records.append(run_op(runner, index, call))
        if time.monotonic() - start >= budget:
            break
    return records, time.monotonic() - start


def cycle(pool, first, step):
    return (i % pool for i in itertools.count(first, step))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--started", type=float, required=True)
    p.add_argument("--mode", choices=("measure", "trace"), default="measure")
    p.add_argument("--child", type=int, default=0)
    p.add_argument("--children", type=int, default=1)
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace-out", default=None)
    args = p.parse_args()

    t0 = time.perf_counter()
    import numpy  # noqa: F401  (timed apart from the package import)
    t1 = time.perf_counter()
    import qmaxwell as qm
    import_s = time.perf_counter() - t1

    import workloads
    workload = workloads.WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.mode == "trace":
        tracer = Tracer("qmaxwell")
        tracer.install(EXTRA_SPANS)
        tracer.op = "setup"
    runner = workloads.Runner(workload, args.seed, workdir, qm)
    warmup = run_op(runner, runner.warmup)
    setup_s = time.monotonic() - args.started

    out = {"workload": workload.name, "setup_s": setup_s, "import_s": import_s,
           "numpy_import_s": t1 - t0, "warmup": warmup, "environment": environment()}
    if tracer is None:
        ops, loop_s = closed_loop(runner, cycle(workload.pool, args.child, args.children),
                                  args.budget)
        out.update(ops=ops, loop_s=loop_s)
    else:
        tracer.uninstall()
        untraced, _ = closed_loop(runner, cycle(workload.pool, 0, 1), args.budget / 2)
        tracer.install(EXTRA_SPANS)
        traced_call = traced_op(tracer, runner)
        traced, _ = closed_loop(runner, cycle(workload.pool, 0, 1), args.budget / 2,
                                traced_call)
        replayed = [run_op(runner, index, traced_call)
                    for index in [r["input"] for r in traced[:REPLAYS]]]
        tracer.uninstall()
        layers = layer_metrics(tracer, traced, untraced, replayed)
        layers["io_cli.import_s"] = import_s
        out.update(ops=untraced + traced, layers=layers, absent=absent_spans(tracer))
        tracer.dump(args.trace_out)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "usable_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}"}


def traced_op(tracer, runner):
    """Op call recorded under a root span tagged with the op's sequence number."""
    sequence = itertools.count()

    def call(index):
        tracer.op = next(sequence)
        try:
            return tracer.call("bench.op", "bench", runner.call, index)
        finally:
            tracer.op = None

    return call


GIBBS = "spectral_core.assemble_hamiltonian_plus_potential"
VALIDATORS = {f"functionals.{n}" for n in (
    "validate_lieb", "validate_peierls", "convexity_probe",
    "eigenvalue_perturbation_check", "log_sobolev_gap")}
PARSERS = {"io_cli.parse_density_csv", "io_cli.parse_potential"}
WRITERS = {"io_cli.write_density_csv", "io_cli.serialize_report"}
LAYERS = ("spectral_core", "functionals", "maxwellian_solver", "io_cli", "linalg", "bench")


def absent_spans(tracer):
    """Span names the per-layer metrics read that no longer exist in the package;
    their metrics read 0."""
    named = {GIBBS, "functionals._hessian_from_spectrum", "spectral_core.triple_products",
             "io_cli.run_inequality_suite", *VALIDATORS, *PARSERS, *WRITERS,
             *(f"linalg.{n}" for n in ("eigh", "eigvalsh", "cond", "solve"))}
    return sorted(named - tracer.wrapped)


def is_hessian(span):
    """Hessian builds: today ``_hessian_from_spectrum``, any renamed successor
    in functionals still matches."""
    return span[1] == "functionals" and "hessian" in span[0]


def op_counts(spans, rec):
    """The counts that must repeat exactly for one op on one input."""
    return {"newton_iters": rec["iters"], "backtracks": rec["backtracks"],
            "gibbs_evals": sum(1 for s in spans if s[0] == GIBBS),
            "hessian_calls": sum(1 for s in spans if is_hessian(s)),
            "fail": rec["fail"]}


def layer_metrics(tracer, traced, untraced, replayed):
    """Per-layer means over the traced ops, plus the replay comparison."""
    by_op = {}
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        by_op.setdefault(span[5], []).append((span, self_s))
    n = len(traced)
    op_spans = [pair for i in range(n) for pair in by_op.get(i, [])]

    def total(pred, key=lambda span, self_s: span[3] - span[2]):
        return math.fsum(key(s, t) for s, t in op_spans if pred(s)) / n

    def count(pred):
        return sum(1 for s, _ in op_spans if pred(s)) / n

    m = {f"{layer}.self_s": total(lambda s, k=layer: s[1] == k, lambda s, t: t)
         for layer in LAYERS}
    m["functionals.hessian_calls"] = count(is_hessian)
    m["functionals.hessian_s"] = total(is_hessian)
    m["functionals.hessian_share"] = (m["functionals.hessian_s"]
                                      / (math.fsum(r["t"] for r in traced) / n))
    m["functionals.validate_s"] = total(lambda s: s[0] in VALIDATORS)
    m["spectral_core.triple_cache_s"] = math.fsum(
        s[3] - s[2] for s, _ in by_op.get("setup", [])
        if s[0] == "spectral_core.triple_products")
    m["spectral_core.gibbs_evals"] = count(lambda s: s[0] == GIBBS)
    for name in ("eigh", "eigvalsh", "cond", "solve"):
        m[f"linalg.{name}_calls"] = count(lambda s, k=f"linalg.{name}": s[0] == k)
        m[f"linalg.{name}_s"] = total(lambda s, k=f"linalg.{name}": s[0] == k)
    m["io_cli.suite_s"] = total(lambda s: s[0] == "io_cli.run_inequality_suite",
                                lambda s, t: t)
    m["io_cli.parse_s"] = total(lambda s: s[0] in PARSERS)
    m["io_cli.write_s"] = total(lambda s: s[0] in WRITERS)

    counts = [op_counts([s for s, _ in by_op.get(i, [])], r) for i, r in enumerate(traced)]
    steps = sum(c["newton_iters"] or 0 for c in counts)
    gibbs = sum(c["gibbs_evals"] for c in counts)
    m["maxwellian_solver.newton_iters"] = steps / n
    m["maxwellian_solver.backtracks"] = sum(c["backtracks"] or 0 for c in counts) / n
    m["maxwellian_solver.step_accept_ratio"] = steps / gibbs if gibbs else 0.0
    fails = Counter(r["fail"] for r in untraced + traced if r["fail"])
    m["maxwellian_solver.fail.BasisTooSmall"] = fails.pop("BasisTooSmall", 0)
    m["maxwellian_solver.fail.MaxIterExceeded"] = fails.pop("MaxIterExceeded", 0)
    m["maxwellian_solver.fail.other"] = sum(fails.values())

    traced_p50 = median(r["t"] for r in traced)
    m["trace.op_s"] = traced_p50
    m["trace.overhead_frac"] = traced_p50 / median(r["t"] for r in untraced) - 1.0
    m["trace.spans_per_op"] = len(op_spans) / n
    m["trace.replayed_ops"] = len(replayed)
    m["trace.nondeterministic_ops"] = sum(
        op_counts([s for s, _ in by_op.get(n + j, [])], rec) != counts[j]
        for j, rec in enumerate(replayed))
    return m


if __name__ == "__main__":
    main()
