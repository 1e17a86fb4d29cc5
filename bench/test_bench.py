"""Tests of the benchmark's own machinery.

    python3 -m pytest -q bench/test_bench.py

Every correctness check is shown to accept a correct output and to
reject a deliberately corrupted one.  The tracer, the op clock, the
stored references and the refusal to run without the package sources
are tested as well.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from overlap_lab import estimators, qsolver  # noqa: E402
from overlap_lab.ensembles import EnsembleSpec, sample_many  # noqa: E402

import checks  # noqa: E402
import references  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import (AnalyticCrosscheck, CliRoundtrip, McLibrary,  # noqa: E402
                       OpClock)


def scaled(est, factor, attr="estimate"):
    setattr(est, attr, getattr(est, attr) * factor)
    return est


# -- statistical checks of mc_library ------------------------------------

@pytest.fixture(scope="module")
def mc():
    return McLibrary(seed=3, scratch=None)


@pytest.fixture(scope="module")
def ginibre_samples():
    return [x for _, x, _ in sample_many(EnsembleSpec("ginibre", 100), 11,
                                         McLibrary.GINIBRE_SAMPLES)]


@pytest.fixture(scope="module")
def real_samples():
    return [x for _, x, _ in sample_many(
        EnsembleSpec("pseudo_hermitian_product", 100), 12,
        McLibrary.REAL_SAMPLES)]


def test_o1_check(mc, ginibre_samples):
    est = estimators.estimate_o1(ginibre_samples, mc.O1_EDGES)
    assert mc.check_o1(est)[0]
    assert not mc.check_o1(scaled(est, 2.0))[0]


def test_o2_windows_check(mc, ginibre_samples):
    est = estimators.estimate_o2_windows(ginibre_samples, mc.WINDOWS,
                                         mc.HALF_WIDTH, mc.o2_config)
    assert mc.check_o2_windows(est)[0]
    # At 16 samples the stderr exceeds |O2|, so only gross errors show.
    assert not mc.check_o2_windows(scaled(est, 20.0))[0]


def test_resolvent_and_trace_cov_checks(ginibre_samples):
    est = estimators.estimate_traced_resolvent_product(ginibre_samples, 2, 2)
    assert workloads.check_resolvent(est)[0]
    est.value *= 1.2
    assert not workloads.check_resolvent(est)[0]
    cov = estimators.estimate_trace_covariance(ginibre_samples, "XX", "X+X+")
    assert workloads.check_trace_cov(cov)[0]
    cov.value *= 10.0
    assert not workloads.check_trace_cov(cov)[0]


def test_real_spectrum_checks(mc, real_samples):
    dens = estimators.estimate_density_real(real_samples,
                                            references.DENSITY_EDGES)
    assert mc.check_density_real(dens)[0]
    assert not mc.check_density_real(scaled(dens, 1.5))[0]
    pairs = estimators.estimate_o2_real_pairs(real_samples,
                                              references.PAIR_EDGES)
    assert mc.check_o2_real_pairs(pairs)[0]
    assert not mc.check_o2_real_pairs(
        scaled(pairs, -1.0, "grid_estimate"))[0]


def test_sum_rule_check(ginibre_samples):
    res = estimators.sum_rule_residual(ginibre_samples[0])
    assert workloads.check_sum_rule(res)[0]
    assert not workloads.check_sum_rule(1e-3)[0]
    assert not workloads.check_sum_rule(float("nan"))[0]


# -- cli_roundtrip -------------------------------------------------------

@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    scratch = str(tmp_path_factory.mktemp("cli"))
    wl = CliRoundtrip(seed=5, scratch=scratch)
    clock = OpClock()
    try:
        wl.run_pass(clock, 0)
        assert clock.settle() == []
        run = os.path.join(wl.run_dir, "run")
        copy = os.path.join(scratch, "copy")
        shutil.copytree(run, copy)
        wl.end_pass()
    finally:
        workloads.cli.sample_many = wl._sample_many
    return wl, copy, clock


def rewrite_column(path, column, func):
    rows, tag = checks.read_table(path)
    with open(path, "w", newline="") as fh:
        fh.write(f"# {tag}\n")
        names = list(rows[0])
        fh.write(",".join(names) + "\n")
        for r in rows:
            r[column] = repr(func(float(r[column])))
            fh.write(",".join(r[n] for n in names) + "\n")


def test_cli_pass_ops_and_tag_mismatch(cli_run):
    wl, _, clock = cli_run
    assert clock.kind.count("sample") == CliRoundtrip.SAMPLES
    assert clock.kind.count("hprod") == CliRoundtrip.SAMPLES
    assert len(clock.kind) >= 100   # per-pass p90 keeps 10 ops beyond it
    assert wl.pass_counts["cli.manifest_tag_mismatch"] == 3


def test_cli_sample_check(cli_run, tmp_path):
    wl, run, _ = cli_run
    assert wl.check_sample(0, run)[0]
    assert not wl.check_sample(1, run)[0]
    bad = str(tmp_path / "bad")
    shutil.copytree(run, bad)
    with open(os.path.join(bad, "pairs.csv"), "a") as fh:
        fh.write("0,0,1,0,0,0,0,0,0\n")
    assert not wl.check_sample(0, bad)[0]


@pytest.mark.parametrize("name,column,func", [
    ("o1", "estimate_re", lambda v: 2.0 * v),
    ("o2", "estimate_re", lambda v: 20.0 * v),
    ("hprod", "estimate_re", lambda v: 1.2 * v),
])
def test_cli_estimate_checks(cli_run, tmp_path, name, column, func):
    wl, run, _ = cli_run
    check = getattr(wl, f"check_{name}")
    assert check(0, run)[0]
    bad = str(tmp_path / "bad")
    shutil.copytree(run, bad)
    rewrite_column(os.path.join(bad, f"{name}.csv"), column, func)
    assert not check(0, bad)[0]


# -- analytic_crosscheck -------------------------------------------------

def test_pipeline_check():
    rt = qsolver.elliptic_rt(1.0, 0.5)
    z1, z2 = 0.3 + 0.1j, -0.4 - 0.1j
    from overlap_lab import analytic
    got = qsolver.o2_from_k(rt, z1, z2)
    ref = analytic.o2_elliptic(1.0, 0.5, z1, z2)
    assert workloads.check_pipeline((got, ref))[0]
    assert not workloads.check_pipeline((got * (1 + 1e-3), ref))[0]


def test_exact_value_checks():
    wl = AnalyticCrosscheck(seed=1, scratch=None)
    wl.pass_counts = {"qsolver.qs_o2_nonzero": 0}
    assert wl.check_qs(1e-11 + 0j)[0]
    assert wl.check_qs(1e-3 + 0j)[0]
    assert wl.pass_counts["qsolver.qs_o2_nonzero"] == 1
    assert not wl.check_qs(complex(float("nan"), 0.0))[0]
    assert checks.is_real(-0.01)[0]
    assert not checks.is_real(complex(-0.01, 0.0))[0]
    assert not checks.is_real(float("nan"))[0]
    assert checks.close(2.0 + 1e-15j, 2.0, atol=1e-8)[0]
    assert not checks.close(1.0, 2.0, atol=1e-8)[0]


def test_sweep_check():
    wl = AnalyticCrosscheck(seed=1, scratch=None)
    peaks = wl.sweep(OpClock())
    assert workloads.check_sweep(peaks)[0]
    peaks["edge"][-1] *= 2.0
    assert not workloads.check_sweep(peaks)[0]


# -- references, clock, tracer -------------------------------------------

def test_references_match_qsolver():
    refs = references.load()
    for i, value in refs["density"][::9]:
        assert math.isclose(references.density_value(qsolver, i), value,
                            rel_tol=1e-9)
    for ix, j, value in refs["o2_cross"][::23]:
        assert math.isclose(references.o2_value(qsolver, ix, j), value,
                            rel_tol=1e-9)


def test_clock_marks_failed_ops():
    clock = OpClock()
    clock.group("ok", lambda: sum(clock.pulls(range(3), "a")),
                lambda v: (v == 3, "sum"))
    clock.group("bad", lambda: sum(clock.pulls(range(2), "b")),
                lambda v: (False, "wrong"))
    clock.group("raise", lambda: 1 / 0, kind="c")
    clock.group("early", lambda: 1 / 0)
    messages = clock.settle()
    assert clock.kind == ["a"] * 3 + ["b"] * 2 + ["c"]
    assert clock.failed == [False] * 3 + [True] * 3
    assert clock.extra_failed == 1
    assert len(messages) == 3
    assert all(e >= s for s, e in zip(clock.start, clock.end))


def test_tracer_counts_and_restores():
    from overlap_lab import numcore
    orig_green = qsolver.solve_green
    orig_acc = numcore.PairHistogram.accumulate
    clock = OpClock()
    tr = tracer.Tracer(clock)
    tr.install()
    try:
        assert qsolver.solve_green is not orig_green
        clock.group("x", lambda: qsolver.o2_from_k(
            qsolver.elliptic_rt(1.0, 0.5), 0.3 + 0.1j, -0.4 - 0.1j),
            kind="o2_from_k")
    finally:
        tr.uninstall()
    assert qsolver.solve_green is orig_green
    assert numcore.PairHistogram.accumulate is orig_acc
    m = tr.metrics(1)
    assert m["qsolver.o2_from_k.calls"] == 1
    assert m["qsolver.solve_green.per_o2_from_k.calls"] == 64
    assert m["qsolver.solve_green.per_o2_from_k.distinct"] == 16
    assert m["qsolver.o2_from_k.busy_s"] >= m["qsolver.o2_from_k.self_s"] >= 0
    assert all(s[4] == 0 for s in tr.spans)
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    missing = {x["name"] for x in spec["per_layer"]} - set(m) - set(
        workloads.PASS_COUNTS) - {"trace.unattributed_s",
                                  "trace.overhead_frac"}
    assert not missing


def test_refuses_without_package_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload",
                          "mc_library", "--seed", "1", "--seconds", "1"],
                         cwd=tmp_path, capture_output=True, text=True,
                         timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
