"""overlap-lab benchmark: one workload per invocation.

    python3 bench/run.py --workload mc_library --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  The workload runs in a fresh
worker process (``worker.py``) that imports ``overlap_lab`` from
``src/``.  Set-up time is measured on that process and on
``SETUP_RUNS`` extra processes that only set up, and its median is
reported.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
A full record, including the environment, is written to
``.bench_out/``.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
PACKAGE = os.path.join(ROOT, "src", "overlap_lab")

# glibc raises its mmap threshold after the first large free, after which
# whether a later pass's peak lands in the heap depends on allocation
# order; pinned at its 128 KiB default, peak RSS repeats from run to run.
WORKER_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}

SETUP_RUNS = 4
SETUP_TIMEOUT_S = 60
RUN_GRACE_S = 100   # worker time allowed beyond --seconds

WORKLOADS = ("mc_library", "cli_roundtrip", "analytic_crosscheck")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def source_digest():
    """sha256 over the package sources (the checkout may lack git)."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_worker(args, setup_only, timeout):
    """Start a worker; return (setup seconds, RESULT payload or None)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env=dict(os.environ, **WORKER_ENV))
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit(f"worker exceeded {timeout} s")
    if proc.returncode != 0:
        sys.exit(f"worker exited with code {proc.returncode}")
    ready, result = None, None
    for line in out.splitlines():
        if line.startswith("READY "):
            ready = float(line.split()[1])
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if ready is None or (result is None and not setup_only):
        sys.exit("worker did not report")
    return ready - t0, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measuring time (default: run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        sys.exit(f"no overlap_lab sources under {os.path.relpath(PACKAGE)}; "
                 "run from the root of a source checkout")
    if args.seed < 0:
        sys.exit("--seed must be nonnegative")
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    os.makedirs(OUT, exist_ok=True)

    setups = [run_worker(args, True, SETUP_TIMEOUT_S)[0]
              for _ in range(SETUP_RUNS)]
    setup_s, result = run_worker(args, False, args.seconds + RUN_GRACE_S)
    setups.append(setup_s)

    untraced = dict(result["untraced"], setup_s=statistics.median(setups))
    attempted, failed = result["attempted"], result["failed"]
    untraced["failed_frac"] = failed / attempted
    env = dict(result["environment"], seed=args.seed, git_sha=git_sha(),
               source_sha256=source_digest(), workload=args.workload,
               seconds=args.seconds, trace=args.trace)
    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = result["traced"]
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        values = untraced
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {n: {"value": values[n], "unit": units[n]} for n in names}
    correct = not result["messages"]

    record = dict(result, environment=env, setup_runs_s=setups,
                  untraced=untraced, correct=correct)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    for msg in result["messages"]:
        print(f"check failed: {msg}", file=sys.stderr)
    print("env " + json.dumps(env))
    print(f"{args.workload}: {len(result['passes'])} passes, "
          f"{result['n_ops_untraced']} untraced ops, record {os.path.relpath(path, ROOT)}")
    for name in ("wall_s", "ops_per_s", "op_ms.p50", "op_ms.p90", "setup_s",
                 "peak_rss_mb", "failed_frac"):
        unit = units.get(name, "1")
        print(f"  {name:<12} {untraced[name]:>12.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
