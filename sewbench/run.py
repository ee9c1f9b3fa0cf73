"""Benchmark of sewkernel: cold partition functions, warm genus-two kernel
evaluations and CLI modular sweeps.

    python3 sewbench/run.py --workload partition_cold --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the metrics
are the end-to-end ones, with `--trace 1` the per-layer ones from a traced
run (see README.md).  Result and span files go to sewbench/out/.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# one BLAS/OpenMP thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("partition_cold", "kernel_warm", "modular_sweep")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


SRC = os.path.join(ROOT, "src")
IMPORT_REPEATS = 2  # fresh interpreters timed besides this one


def import_package():
    """Import sewkernel from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "sewkernel", "__init__.py")):
        sys.exit(f"sewbench: no package source at {SRC}/sewkernel; run from a checkout root")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import sewkernel

    if not os.path.abspath(sewkernel.__file__).startswith(SRC + os.sep):
        sys.exit(f"sewbench: sewkernel imported from {sewkernel.__file__}, not {SRC}")


def import_times():
    """Import time of the package in fresh interpreters, measured the same
    way as in this process: from the first statement to the import done."""
    code = ("import time; t = time.perf_counter(); import sys; "
            f"sys.path.insert(0, {SRC!r}); import sewkernel; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=60)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def make_workload(name, seed):
    import workloads as wl

    if name == "partition_cold":
        return wl.PartitionCold(seed)
    if name == "kernel_warm":
        return wl.KernelWarm(seed)
    # SEWKERNEL_THREADS caps the CLI's pool at the cores this process may use
    os.environ["SEWKERNEL_THREADS"] = str(min(4, len(os.sched_getaffinity(0))))
    return wl.ModularSweep(seed, OUT_DIR)


def run_ops(workload, count=None, seconds=None):
    """Run operations 0, 1, ... until `count` are done, or until `seconds`
    have passed and at least workload.min_ops are done.
    Returns [(index, seconds, output or None)]."""
    done = []
    t0 = time.perf_counter()
    i = 0
    while True:
        if count is not None and len(done) >= count:
            break
        if count is None and len(done) >= workload.min_ops and time.perf_counter() - t0 >= seconds:
            break
        args = workload.prepare(i)
        t = time.perf_counter()
        try:
            out = workload.op(args)
        except (ArithmeticError, ValueError, RuntimeError) as exc:
            print(f"operation {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            out = None
        done.append((i, time.perf_counter() - t, out))
        i += 1
    return done


def check_ops(workload, done):
    """Check every output; returns (all passed, worst relative deviation
    over the first min_ops operations)."""
    ok = True
    worst = 0.0
    for n, (i, _, out) in enumerate(done):
        if out is None:
            continue
        if n < workload.min_ops or workload.check_all:
            checks = workload.check(out, i)
        else:
            checks = workload.quick_check(out)
        for c in checks:
            if not c.ok:
                ok = False
                print(f"check failed (op {i}): {c.name}: {c.deviation:.3e} > {c.tolerance:.1e}",
                      file=sys.stderr)
            if c.accuracy and n < workload.min_ops:
                worst = max(worst, c.deviation if math.isfinite(c.deviation) else 1.0)
    return ok, worst


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def accuracy_digits(worst):
    # a deviation below 1e-17 is beyond double precision and reads as 17 digits
    return -math.log10(max(worst, 1e-17))


def end_to_end(args, workload, import_s):
    import_s = statistics.median([import_s] + import_times())
    setup_times = []
    for rep in range(workload.setup_repeats):
        t = time.perf_counter()
        workload.setup(rep)
        setup_times.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(setup_times)

    t = time.perf_counter()
    done = run_ops(workload, seconds=args.seconds)
    elapsed = time.perf_counter() - t
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ok, worst = check_ops(workload, done)
    good = [d for _, d, out in done if out is not None]
    failed = len(done) - len(good)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(len(good) / elapsed, "1/s"),
        "op_s_p50": metric(statistics.median(good or [d for _, d, _ in done]), "s"),
        "accuracy_digits": metric(accuracy_digits(worst), "digits"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }
    detail = {"import_s": import_s, "setup_times_s": setup_times,
              "op_times_s": [d for _, d, _ in done], "elapsed_s": elapsed}
    return ok, len(done), failed, metrics, detail


def traced(args, workload, import_s):
    """Untraced pass, then a traced pass over the same set-up and the same
    trace_ops operations, with the package caches emptied in between."""
    import tracing
    import workloads as wl

    def one_pass():
        workload.reset()
        workload.setup(0)
        return run_ops(workload, count=workload.trace_ops)

    plain = one_pass()
    wl.reset_caches()
    before = wl.cache_misses()
    tracer = tracing.Tracer()
    tracer.install([m for n, m in sorted(sys.modules.items())
                    if n == "sewkernel" or n.startswith("sewkernel.")])
    try:
        with tracer.span("traced_pass"):
            traced_ops = one_pass()
    finally:
        tracer.uninstall()
    after = wl.cache_misses()

    ok1, _ = check_ops(workload, plain)
    ok2, _ = check_ops(workload, traced_ops)
    done = plain + traced_ops
    failed = sum(out is None for _, _, out in done)

    stats = tracer.layer_stats()
    metrics = {}
    for layer, stat in tracing.REPORTED:
        value = stats[layer][stat]
        metrics[f"{layer}.{stat}"] = metric(value, "s" if stat == "self_s" else "count")
    blocks, lus = (b - a if a is not None else None for a, b in zip(before, after))
    metrics["szego.moment_block.computed"] = metric(
        blocks if blocks is not None else stats["szego.moment_block"]["calls"], "count")
    metrics["genus2.resolvent.computed"] = metric(
        lus if lus is not None else stats["genus2.s2_eval"]["calls"], "count")
    n = workload.trace_ops
    overhead = (sum(d for _, d, _ in traced_ops) - sum(d for _, d, _ in plain)) / n
    metrics["trace.overhead_s"] = metric(overhead, "s")

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.dump(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))
    detail = {"import_s": import_s, "untraced_op_s": [d for _, d, _ in plain],
              "traced_op_s": [d for _, d, _ in traced_ops]}
    return ok1 and ok2, len(done), failed, metrics, detail


def main(argv=None):
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("sewbench: --seconds must be positive")
    import_package()
    import_s = time.perf_counter() - T_START
    workload = make_workload(args.workload, args.seed)
    try:
        run = traced if args.trace else end_to_end
        ok, attempted, failed, metrics, detail = run(args, workload, import_s)
    finally:
        workload.cleanup()

    result = {"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                       detail=detail), fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
