"""Fold benchmark runs and tier-1 timings of a parent tree and a change
into one ``BENCH_<pr>.json``.

    python3 tools/fold_bench.py --runs DIR --pr 21 \
        --parent-junit old.xml --change-junit new.xml \
        --parent-record P/.bench_out/cli_roundtrip-seed1-trace0.json \
        --change-record .bench_out/cli_roundtrip-seed1-trace0.json \
        --parent-sha SHA --out BENCH_21.json

``DIR`` holds the last stdout line of each ``bench/run.py`` run, saved as
``<workload>.<parent|change>.<i>.json``.  The junit files come from the
tier-1 command run with ``--junitxml``.  The records are the full
``bench/run.py`` records of each tree; their ``environment`` is copied.
Quartiles are ``statistics.quantiles(..., n=4, method="inclusive")``.
A workload with fewer than ``MIN_RUNS`` runs on either side is refused.
"""

import argparse
import glob
import json
import os
import statistics
import xml.etree.ElementTree as ET

SIDES = ("parent", "change")
MIN_RUNS = 3


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def fold_runs(directory):
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        workload, side, index = os.path.basename(path).split(".")[:3]
        with open(path) as fh:
            result = json.load(fh)
        runs.setdefault(workload, {}).setdefault(side, []).append(
            (int(index), result))
    out = {}
    for workload, by_side in runs.items():
        entry = {}
        for side in SIDES:
            results = [r for _, r in sorted(by_side.get(side, []))]
            if len(results) < MIN_RUNS:
                raise SystemExit(f"{workload}: {len(results)} {side} runs, "
                                 f"at least {MIN_RUNS} needed")
            entry.setdefault("runs", {})[side] = len(results)
            entry.setdefault("correct", {})[side] = all(
                r["correct"] for r in results)
            entry.setdefault("failed", {})[side] = sum(
                r["failed"] for r in results)
            for name, metric in results[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in results]
                slot = entry.setdefault("metrics", {}).setdefault(
                    name, {"unit": metric["unit"]})
                slot[side] = summary(values)
        for slot in entry["metrics"].values():
            slot["change_over_parent"] = (slot["change"]["median"]
                                          / slot["parent"]["median"])
        out[workload] = entry
    return out


def fold_junit(path):
    suite = ET.parse(path).getroot()
    if suite.tag == "testsuites":
        suite = suite[0]
    criteria = {case.get("name"): float(case.get("time"))
                for case in suite.iter("testcase")
                if case.get("name", "").startswith("test_criterion_")}
    return {"tests": int(suite.get("tests")),
            "failures": int(suite.get("failures")),
            "errors": int(suite.get("errors")),
            "time_s": float(suite.get("time")),
            "criteria_s": dict(sorted(criteria.items()))}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", required=True)
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--parent-sha", required=True)
    ap.add_argument("--out", required=True)
    for side in SIDES:
        ap.add_argument(f"--{side}-junit", required=True)
        ap.add_argument(f"--{side}-record", required=True)
    args = ap.parse_args(argv)
    environment = {}
    for side in SIDES:
        with open(getattr(args, f"{side}_record")) as fh:
            env = json.load(fh)["environment"]
        # a change is measured before it is committed, so its record's
        # git sha is its parent's: source_sha256 names each tree instead
        env.pop("git_sha", None)
        # overlaps.WORKERS: the usable cores over the BLAS thread count
        env["workers"] = max(1, env["affinity"] // env["blas_threads"])
        environment[side] = env
    bench = {
        "pr": args.pr,
        "parent_git_sha": args.parent_sha,
        "environment": environment,
        "workloads": fold_runs(args.runs),
        "tier1": {side: fold_junit(getattr(args, f"{side}_junit"))
                  for side in SIDES},
    }
    with open(args.out, "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
