"""Tests of ``tools/fold_bench.py``, which folds benchmark runs and tier-1
timings of a parent tree and a change into one ``BENCH_<pr>.json``."""

import importlib.util
import json
import os

import pytest

TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools",
                    "fold_bench.py")
_spec = importlib.util.spec_from_file_location("fold_bench", TOOL)
fold_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fold_bench)

# wall_s of three synthetic runs per side, in run-index order
WALLS = {"parent": [1.2, 1.0, 1.6], "change": [0.9, 1.5, 1.0]}
JUNIT = """<?xml version="1.0" encoding="utf-8"?>
<testsuites><testsuite name="pytest" errors="0" failures="{failures}"
 tests="3" time="{time}">
<testcase classname="tests.test_acceptance"
 name="test_criterion_02_ginibre_o1" time="{c02}"/>
<testcase classname="tests.test_acceptance"
 name="test_criterion_01_sum_rule" time="0.25"/>
<testcase classname="tests.test_cli" name="test_other" time="9.0"/>
</testsuite></testsuites>
"""


def write_run(directory, workload, side, index, wall):
    result = {"correct": True, "failed": 0,
              "metrics": {"wall_s": {"value": wall, "unit": "s"}}}
    path = directory / f"{workload}.{side}.{index}.json"
    path.write_text(json.dumps(result))


def write_inputs(tmp_path, walls=WALLS):
    runs = tmp_path / "runs"
    runs.mkdir()
    for side, values in walls.items():
        for i, wall in enumerate(values):
            write_run(runs, "cli_roundtrip", side, i, wall)
    argv = ["--runs", str(runs), "--pr", "7", "--parent-sha", "abc",
            "--out", str(tmp_path / "BENCH_7.json")]
    for side, (failures, time, c02) in {"parent": (0, 96.5, 14.4),
                                        "change": (1, 90.0, 12.1)}.items():
        junit = tmp_path / f"{side}.xml"
        junit.write_text(JUNIT.format(failures=failures, time=time, c02=c02))
        record = tmp_path / f"{side}.json"
        record.write_text(json.dumps({"environment": {
            "affinity": 2, "blas_threads": 1, "git_sha": "x"}}))
        argv += [f"--{side}-junit", str(junit),
                 f"--{side}-record", str(record)]
    return argv


def test_fold(tmp_path):
    fold_bench.main(write_inputs(tmp_path))
    bench = json.loads((tmp_path / "BENCH_7.json").read_text())
    wall = bench["workloads"]["cli_roundtrip"]["metrics"]["wall_s"]
    # inclusive quartiles of three values: midpoints of the sorted halves
    assert wall["parent"] == {"median": 1.2, "q1": 1.1, "q3": 1.4,
                              "values": [1.2, 1.0, 1.6]}
    assert wall["change"] == {"median": 1.0, "q1": 0.95, "q3": 1.25,
                              "values": [0.9, 1.5, 1.0]}
    assert wall["change_over_parent"] == pytest.approx(1.0 / 1.2)
    assert bench["workloads"]["cli_roundtrip"]["runs"] == {
        "parent": 3, "change": 3}
    assert bench["tier1"]["parent"] == {
        "tests": 3, "failures": 0, "errors": 0, "time_s": 96.5,
        "criteria_s": {"test_criterion_01_sum_rule": 0.25,
                       "test_criterion_02_ginibre_o1": 14.4}}
    assert bench["tier1"]["change"]["criteria_s"] == {
        "test_criterion_01_sum_rule": 0.25,
        "test_criterion_02_ginibre_o1": 12.1}
    assert bench["environment"]["parent"] == {
        "affinity": 2, "blas_threads": 1, "workers": 2}


@pytest.mark.parametrize("walls,side", [
    ({"parent": [1.0], "change": [1.0, 1.1, 1.2]}, "parent"),
    ({"parent": [1.0, 1.1, 1.2], "change": [1.0, 1.1]}, "change"),
    ({"parent": [1.0, 1.1, 1.2]}, "change"),
], ids=["one-parent-run", "two-change-runs", "no-change-side"])
def test_incomplete_side_refused(tmp_path, walls, side):
    # one run failed with StatisticsError, a missing side with KeyError
    with pytest.raises(SystemExit, match=f"^cli_roundtrip: .* {side} runs"):
        fold_bench.main(write_inputs(tmp_path, walls))
    assert not (tmp_path / "BENCH_7.json").exists()
