"""somalloc benchmark: one workload per run, seeded inputs, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload survey-k20 --seed 1 --seconds 10 --trace 0

``--workload all`` runs every workload in turn, each in its own process.

A run sets the workload up SETUP_REPEATS times (input generation, CSV
writing and, for alloc-30k, the model fit) and reports the median as
setup_s; every set-up must write the same bytes.  The timed phase then
repeats until --seconds have passed, at least twice, and the repetitions
must write byte-identical results.  With --trace 1 one more repetition
runs with spans around the calls into each somalloc module, and the
per-layer metrics replace the end-to-end ones.

Every operation (set-up or repetition) that raises or fails an output
check counts as failed.  Human-readable figures, machine facts, result
hashes and spans go to standard output first; the last line is the JSON
object {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
TRACED_SETUP_REPEATS = 1  # a traced run reports no setup_s
MIN_REPS = 2  # two repetitions are needed for the byte-identity check

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "alloc_rows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "exact_rate": "fraction",
    "correct_rate": "fraction",
    "qe": "pct2",
}

PER_LAYER_UNITS = {
    "dataset.parse_s": "s",
    "dataset.parse_mb_per_s": "MB/s",
    "dataset.write_s": "s",
    "dataset.prep_s": "s",
    "varselect.screen_s": "s",
    "varselect.vars_kept": "count",
    "som.train_s": "s",
    "som.steps": "count",
    "som.us_per_step": "us",
    "som.dead_units": "count",
    "som.assign_s": "s",
    "som.assign_rows": "count",
    "som.assign_peak_mb": "MB",
    "profiles.describe_s": "s",
    "logit.fit_s": "s",
    "logit.newton_iters": "count",
    "logit.s_per_iter": "s",
    "logit.ridge_refit": "count",
    "allocation.allocate_s": "s",
    "allocation.us_per_row": "us",
    "allocation.missing_cells": "count",
    "allocation.score_s": "s",
    "pipeline.self_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few hundred rows, for the smoke test")
    return parser.parse_args(argv)


def import_somalloc():
    """Import the checkout's own somalloc, never an installed copy."""
    src = ROOT / "src"
    if not (src / "somalloc" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'somalloc'} not found; run from a full checkout")
    sys.path.insert(0, str(src))
    import somalloc

    if Path(somalloc.__file__).resolve().parent != (src / "somalloc").resolve():
        raise SystemExit(f"error: imported somalloc from {somalloc.__file__}, not {src}")


def blas_threads() -> str:
    """BLAS thread count as set in the environment, else as OpenBLAS reports it."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var):
            return f"{os.environ[var]} ({var})"
    import ctypes

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return f"{fn()} (OpenBLAS default)"
    return "unknown"


def machine_facts() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timing_summary(samples: list[float]) -> str:
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"median of n={n}"
    if n >= 11:
        q = (100 * (n - 10)) // n
        cut = statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
        text += f", p{q} {cut:.6g}"
    else:
        text += ", no percentile has ten samples beyond it"
    return text


class Operations:
    """Counts operations and the ones that raised or failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, label, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:  # a failed operation is reported, not fatal
            self.failures.append(f"{label}: {traceback.format_exc(limit=3)}")
            return None

    def fail(self, label, message):
        self.failures.append(f"{label}: {message}")


def run(args) -> tuple[Operations, dict, dict]:
    import workloads as W
    from tracing import Tracer, layer_metrics

    w = W.WORKLOADS[args.workload]
    if args.size == "tiny":
        w = w.tiny()
    ops = Operations()
    details: dict = {"workload": w.name, "seed": args.seed, "trace": args.trace,
                     "size": args.size, "machine": machine_facts()}

    setups = []
    for i in range(TRACED_SETUP_REPEATS if args.trace else SETUP_REPEATS):
        s = ops.run(f"setup {i}", W.setup, w, args.seed)
        if s is None:
            continue
        if setups and s.sha256 != setups[0].sha256:
            ops.fail(f"setup {i}", "inputs differ from the first set-up's")
            continue
        setups.append(s)
    if not setups:
        return ops, {}, details
    details["input_sha256"] = setups[0].sha256

    details["setup_peak_rss_mb"] = peak_rss_mb()
    once = W.run_allocation_once if w.n_new else W.run_pipeline_once
    runs = []
    t_start = time.perf_counter()
    rep = 0
    while rep < MIN_REPS or time.perf_counter() - t_start < args.seconds:
        r = ops.run(f"rep {rep}", once, w, args.seed)
        if r is not None and runs and r.sha256 != runs[0].sha256:
            ops.fail(f"rep {rep}", "results differ from the first repetition's")
        elif r is not None:
            runs.append(r)
        rep += 1
    details["rep_seconds"] = [r.seconds for r in runs]
    details["result_sha256"] = runs[0].sha256 if runs else None
    if not runs:
        return ops, {}, details
    first = runs[0]
    run_median = statistics.median(r.seconds for r in runs)
    if w.n_new:
        pipeline_samples = [s.fit_seconds for s in setups]
        qe = setups[0].fit_report["quantization_error"]
        details["fit_report_sha256"] = setups[0].fit_sha256
    else:
        pipeline_samples = [r.seconds for r in runs]
        qe = first.qe
    details["setup_seconds"] = [s.seconds for s in setups]

    if not args.trace:
        metrics = {
            "setup_s": statistics.median(s.seconds for s in setups),
            "pipeline_s": statistics.median(pipeline_samples),
            "alloc_rows_per_s": first.rows / run_median,
            "peak_rss_mb": peak_rss_mb(),
            "exact_rate": first.exact_rate,
            "correct_rate": first.correct_rate,
            "qe": qe,
        }
        details["timings"] = {
            "setup_s": timing_summary([s.seconds for s in setups]),
            "pipeline_s": timing_summary(pipeline_samples),
            "alloc_rows_per_s": f"{first.rows} rows per repetition; repetition time "
                                f"{timing_summary([r.seconds for r in runs])}",
        }
        return ops, metrics, details

    tracer = Tracer()
    untraced_wall = run_median
    with tracer.installed():
        if w.n_new:
            fitted = ops.run("traced fit", W.fit_model, w, args.seed, span=tracer.span)
            untraced_wall += setups[0].fit_seconds
            if fitted and W.sha256_of("fit/report.json") != setups[0].fit_sha256:
                ops.fail("traced fit", "report.json differs from the untraced fit's")
        traced = ops.run("traced rep", once, w, args.seed, span=tracer.span)
    if traced is not None:
        for key in ("sha256", "exact_rate", "correct_rate", "qe"):
            if getattr(traced, key) != getattr(first, key):
                ops.fail("traced rep", f"{key} differs from the untraced run's")
    details["spans"] = tracer.to_list()
    return ops, layer_metrics(tracer, untraced_wall), details


def main(argv=None) -> int:
    args = parse_args(argv)
    import_somalloc()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads as W

    if args.workload == "all":
        # one process per workload, so peak_rss_mb stays per workload
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace), "--size", args.size]).returncode
            for name in W.WORKLOADS
        ]
        return max(codes)
    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(W.WORKLOADS)} or all", file=sys.stderr)
        return 2

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    try:
        os.chdir(workdir)
        ops, metrics, details = run(args)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    failed = len(ops.failures)
    for failure in ops.failures:
        print(f"FAILED {failure}")
    missing = [name for name in units if name not in metrics]
    if missing:
        print(f"error: no successful operation to measure {', '.join(missing)}",
              file=sys.stderr)
        return 1

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} size {args.size}")
    for key, value in details["machine"].items():
        print(f"  machine.{key}: {value}")
    for name, unit in units.items():
        note = details.get("timings", {}).get(name, "")
        print(f"  {name:<28} {metrics[name]:>14.6g} {unit:<8} {note}")
    print(f"  {'failed_frac':<28} {failed / ops.attempted:>14.6g} fraction "
          f"({failed} of {ops.attempted} operations)")
    print(f"  result sha256: {details.get('result_sha256')}")
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ops.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
