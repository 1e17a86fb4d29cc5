"""One workload in one fresh process; started by ``run.py``.

BLAS is pinned to one thread through the environment before numpy is
imported, and the effective OpenBLAS thread count is read back through
ctypes; the worker refuses to run if it is not 1.  The worker prints
``READY <monotonic time>`` once it has imported ``overlap_lab``, built
its specs and run one warm-up op, and (unless ``--setup-only``) a final
``RESULT <json>`` line after its passes.
"""

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path[:0] = [SRC, HERE]


def openblas():
    """(effective thread count, runtime config) of numpy's OpenBLAS."""
    import numpy as np
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir,
                          "numpy.libs")
    libs = sorted(glob.glob(os.path.join(libdir, "libscipy_openblas64_*.so")))
    if not libs:
        raise RuntimeError(f"no libscipy_openblas64_*.so in {libdir}")
    lib = ctypes.CDLL(libs[0])
    get_threads = lib.scipy_openblas_get_num_threads64_
    get_threads.argtypes = []
    get_threads.restype = ctypes.c_int
    get_config = lib.scipy_openblas_get_config64_
    get_config.argtypes = []
    get_config.restype = ctypes.c_char_p
    return int(get_threads()), get_config().decode()


def environment(blas_threads, blas_runtime):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_build_config": blas.get("openblas configuration"),
        "blas_runtime_config": blas_runtime,
        "blas_threads": blas_threads,
        "pinned_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MALLOC_MMAP_THRESHOLD_")},
    }




def run_passes(workload, clock, seconds, tracer=None):
    """Run passes until ``seconds`` are used; return per-pass records."""
    passes = []
    t_begin = time.perf_counter()
    index = 0
    while True:
        modes = [False, True] if tracer is not None else [False]
        for traced in modes:
            if traced:
                tracer.install()
            first = len(clock.kind)
            extra = clock.extra_failed
            t0 = time.perf_counter()
            try:
                workload.run_pass(clock, index)
            finally:
                t1 = time.perf_counter()
                if traced:
                    tracer.uninstall()
            messages = clock.settle()
            counts = dict(workload.pass_counts)
            workload.end_pass()
            if traced:
                tracer.forget_samples()
            last = len(clock.kind)
            extra = clock.extra_failed - extra
            passes.append({
                "index": index, "traced": traced, "wall_s": t1 - t0,
                "t0": t0, "t1": t1, "first": first, "last": last,
                "ops": last - first + extra,
                "failed": sum(clock.failed[first:last]) + extra,
                "messages": messages, "counts": counts})
        index += 1
        elapsed = time.perf_counter() - t_begin
        recent = sum(p["wall_s"] for p in passes[-len(modes):])
        if index >= 2 and elapsed + recent > seconds:
            return passes


def untraced_metrics(passes, clock):
    """Means over passes of each pass's wall time, rate and percentiles.

    The shared machine switches between speed states every few seconds,
    so a pass runs mostly in one state.  A mean over passes moves in
    proportion to the time spent in each state, whereas a median, or a
    percentile pooled over all passes, jumps between the two states.
    Every workload's pass holds at least 100 ops, so at least 10 lie
    beyond each pass's p90.
    """
    import numpy as np
    per_pass = []
    for p in passes:
        lat = [1e3 * (clock.end[i] - clock.start[i])
               for i in range(p["first"], p["last"])]
        p50, p90 = np.percentile(lat, [50, 90])
        per_pass.append({"wall_s": p["wall_s"],
                         "ops_per_s": (p["ops"] - p["failed"]) / p["wall_s"],
                         "op_ms.p50": float(p50), "op_ms.p90": float(p90)})
    out = {k: statistics.fmean(q[k] for q in per_pass) for k in per_pass[0]}
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    return out


def traced_metrics(passes, tracer, pass_counts):
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    out = tracer.metrics(len(traced))
    for key in pass_counts:
        out[key] = sum(p["counts"].get(key, 0) for p in traced) / len(traced)
    out["trace.unattributed_s"] = statistics.fmean(
        p["wall_s"] - tracer.top_level_busy(p["t0"], p["t1"]) for p in traced)
    out["trace.overhead_frac"] = (
        statistics.fmean(p["wall_s"] for p in traced)
        / statistics.fmean(p["wall_s"] for p in plain) - 1.0)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import overlap_lab
    if os.path.dirname(os.path.abspath(overlap_lab.__file__)) != os.path.join(
            SRC, "overlap_lab"):
        sys.exit(f"overlap_lab imported from {overlap_lab.__file__}, "
                 f"not from {SRC}")
    threads, runtime = openblas()
    if threads != 1:
        sys.exit(f"OpenBLAS runs {threads} threads, not 1; refusing to report")

    import workloads
    scratch = os.path.join(OUT, "tmp")
    os.makedirs(scratch, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
    workload.warm_up()
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    clock = workloads.OpClock()
    tracer = None
    if args.trace:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer(clock)
    passes = run_passes(workload, clock, args.seconds, tracer)

    plain = [p for p in passes if not p["traced"]]
    result = {
        "environment": environment(threads, runtime),
        "attempted": sum(p["ops"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "messages": [m for p in passes for m in p["messages"]],
        "passes": [{k: p[k] for k in ("index", "traced", "wall_s", "ops",
                                      "failed")} for p in passes],
        "n_ops_untraced": sum(p["ops"] for p in plain),
        "untraced": untraced_metrics(plain, clock),
    }
    if tracer is not None:
        result["traced"] = traced_metrics(passes, tracer,
                                          workloads.PASS_COUNTS)
        result["eig_per_sample_by_block"] = tracer.eig_per_sample_by_block()
        spans_path = os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.json")
        with open(spans_path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": tracer.spans,
                       "ops": [clock.kind, list(clock.start),
                               list(clock.end)]}, fh)
        result["spans_file"] = os.path.relpath(spans_path, ROOT)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
