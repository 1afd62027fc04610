"""ssfit benchmark: one workload, one process, one closed-loop client.

Usage (from the repository root)::

    python3 bench/run.py --workload fit-active --seed 1 --seconds 10 --trace 0

Each operation starts when the previous one finishes; operations run until
``--seconds`` have elapsed (at least one always completes).  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1``
every operation is run twice, untraced and then traced, and the run reports
the per-layer metrics from the spans plus the tracing overhead.  A
human-readable report precedes the last stdout line, which is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  A full record
(metadata, every metric, per-operation outcomes) goes to ``bench/out/``.

``attempted`` counts operations; ``failed`` counts those that raised or whose
output failed its correctness check.  A solve that ends with a status other
than ``converged`` is reported in ``failed_frac`` but is not a failure of the
run unless the workload's check requires convergence (see NOTES.md).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5


def parse_args(names, argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile of a non-empty sample."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def git_sha() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_lines() -> int:
    total = 0
    pkg = os.path.join(SRC, "ssfit")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def metadata(args) -> dict:
    import numpy as np
    import scipy

    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": "closed loop, 1 client, 1 process",
        "src_lines": src_lines(),
    }


def fresh_import() -> None:
    """Import the package in a fresh interpreter, as every CLI call does."""
    env = dict(os.environ, PYTHONPATH=SRC)
    # no timeout: with one, subprocess polls the child every 50 ms, which
    # quantizes the measured set-up time
    subprocess.run([sys.executable, "-c", "import ssfit"], env=env,
                   check=True)


def run_ops(workload, inputs, seconds: float, tracer=None):
    """Closed loop until ``seconds`` elapse; returns per-op records.

    Each record keeps the operation's wall and process CPU time.  With a
    tracer, each operation runs untraced and then traced on the same input,
    and the traced wall time is kept too.
    """
    records = []
    t_begin = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - t_begin < seconds:
        rec = {"k": k}
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = workload.operation(inputs, k)
        except Exception:  # a raising operation is a counted failure
            rec["error"] = traceback.format_exc(limit=3)
        rec["wall_s"] = time.perf_counter() - t0
        rec["cpu_s"] = time.process_time() - c0
        if "error" not in rec:
            try:
                rec["outcome"] = workload.check(inputs, result)
            except Exception:
                rec["error"] = traceback.format_exc(limit=3)
        if tracer is not None:
            tracer.begin_op(k)
            tracer.install()
            t0 = time.perf_counter()
            try:
                result = workload.operation(inputs, k)
            except Exception:
                rec["traced_error"] = traceback.format_exc(limit=3)
            finally:
                rec["traced_wall_s"] = time.perf_counter() - t0
                tracer.uninstall()
            if "traced_error" not in rec:
                try:
                    rec["traced_outcome"] = workload.check(inputs, result)
                except Exception:
                    rec["traced_error"] = traceback.format_exc(limit=3)
        records.append(rec)
        k += 1
    return records


def main(argv=None) -> int:
    for var in BLAS_THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "ssfit", "__init__.py")):
        print(f"error: no ssfit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads as wl
    from tracer import Tracer, per_layer_metrics

    args = parse_args(sorted(wl.WORKLOADS), argv)
    workload = wl.WORKLOADS[args.workload]
    setup_times = []
    inputs = None
    for _ in range(SETUP_REPEATS):
        if inputs is not None:
            workload.teardown(inputs)
        t0 = time.perf_counter()
        fresh_import()
        inputs = workload.setup(args.seed)
        setup_times.append(time.perf_counter() - t0)
    setup_s = statistics.median(setup_times)

    tracer = Tracer() if args.trace else None
    try:
        records = run_ops(workload, inputs, args.seconds, tracer)
    finally:
        workload.teardown(inputs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outcomes = [r["outcome"] for r in records if "outcome" in r]
    attempted = len(records)
    failed = sum(1 for r in records if "outcome" not in r
                 or not r["outcome"].ok)
    if args.trace:
        failed += sum(1 for r in records if "traced_outcome" not in r
                      or not r["traced_outcome"].ok)
        attempted *= 2
    walls = [r["wall_s"] for r in records]
    cpus = [r["cpu_s"] for r in records]
    not_converged = sum(1 for r in records if "outcome" not in r
                        or not r["outcome"].ok
                        or r["outcome"].status != "converged")

    report = {  # every end-to-end figure, name -> (value, unit)
        "setup_s": (setup_s, "s"),
        "op_cpu_s_p50": (quantile(cpus, 0.5), "s"),
        "op_s_p50": (quantile(walls, 0.5), "s"),
        "op_s_p90": (quantile(walls, 0.9), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "failed_frac": (not_converged / len(records), "1"),
        "ops": (len(records), "count"),
    }
    if workload.op_name.endswith("_ms"):
        report[workload.op_name + "_p50"] = (1e3 * report["op_s_p50"][0], "ms")
        report[workload.op_name + "_p90"] = (1e3 * report["op_s_p90"][0], "ms")
    else:
        report[workload.op_name] = report["op_s_p50"]
    report.update(workload.summary(outcomes))
    end_to_end = ("setup_s", "op_cpu_s_p50", "peak_rss_mb")
    if args.trace:
        layer = per_layer_metrics(tracer, len(records))
        traced = [r["traced_wall_s"] for r in records]
        layer["trace_overhead_s"] = statistics.median(traced) \
            - statistics.median(walls)
        metrics = {k: {"value": v, "unit": _layer_unit(k)}
                   for k, v in layer.items()}
    else:
        metrics = {k: {"value": report[k][0], "unit": report[k][1]}
                   for k in end_to_end}

    meta = metadata(args)
    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds:g}  trace {args.trace}  ops {len(records)}  "
          f"nproc {meta['nproc']}  blas threads 1")
    for name, (value, unit) in report.items():
        print(f"  {name:<24s} {value:>14.6g} {unit}")
    if args.trace:
        _print_trace_report(metrics)
    for r in records:
        if "error" in r or "traced_error" in r:
            print(r.get("error") or r.get("traced_error"), file=sys.stderr)

    os.makedirs(wl.OUT_DIR, exist_ok=True)
    stem = os.path.join(wl.OUT_DIR, f"{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}")
    if tracer is not None:
        tracer.save(stem + "-spans.npz")
    with open(stem + ".json", "w") as fh:
        json.dump({"meta": meta,
                   "report": {k: {"value": v, "unit": u}
                              for k, (v, u) in report.items()},
                   "metrics": metrics,
                   "operations": [_record_doc(r) for r in records]},
                  fh, indent=1, default=float)

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if ".barrier_ms." in name:
        return "ms"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_frac") or name.endswith("_per_iter") \
            or name.endswith("_per_query") or name.endswith("_penalty"):
        return "1"
    return "count"


def _print_trace_report(metrics: dict) -> None:
    layers = sorted(((k, m["value"]) for k, m in metrics.items()
                     if k.endswith(".self_s")), key=lambda kv: -kv[1])
    print("  layer self time per operation, largest first:")
    for name, value in layers:
        print(f"    {name:<28s} {value:>12.6g} s")
    spans = sorted(((k, m["value"]) for k, m in metrics.items()
                    if m["unit"] == "s" and not k.endswith(".self_s")
                    and not k.startswith("cli.")
                    and k != "trace_overhead_s"), key=lambda kv: -kv[1])
    print("  call time per operation (inclusive, below the CLI verbs), "
          "largest first:")
    for name, value in spans[:8]:
        print(f"    {name:<28s} {value:>12.6g} s")
    for name, m in metrics.items():
        if m["unit"] != "s":
            print(f"  {name:<30s} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'trace_overhead_s':<30s} "
          f"{metrics['trace_overhead_s']['value']:>14.6g} s")


def _record_doc(rec: dict) -> dict:
    doc = {k: v for k, v in rec.items()
           if k not in ("outcome", "traced_outcome")}
    for key in ("outcome", "traced_outcome"):
        if key in rec:
            o = rec[key]
            doc[key] = {"ok": o.ok, "status": o.status, "detail": o.detail}
    return doc


if __name__ == "__main__":
    sys.exit(main())
