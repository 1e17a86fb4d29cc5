"""End-to-end tests of the command line interface."""

import csv
import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlap_lab import cli, estimators, overlaps
from overlap_lab.cli import _complex_arg, main
from overlap_lab.ensembles import (DEFAULTS, KINDS, PARAMS, EnsembleSpec,
                                   sample_many)
from overlap_lab.numcore import RngStream


def read_csv(path):
    with open(path, newline="") as fh:
        lines = [l for l in fh if not l.startswith("#")]
    return list(csv.DictReader(lines))


def run_sample(tmp_path, name="run", ensemble="ginibre", n=12, samples=3,
               seed=7, extra=()):
    out = tmp_path / name
    rc = main(["sample", "--ensemble", ensemble, "--n", str(n),
               "--samples", str(samples), "--seed", str(seed),
               "--out", str(out), *extra])
    assert rc == 0
    return out


class TestArgs:
    def test_complex_arg(self):
        assert _complex_arg("2") == 2.0 + 0.0j
        assert _complex_arg("1.5,-0.5") == 1.5 - 0.5j
        with pytest.raises(Exception):
            _complex_arg("1,2,3")

    @pytest.mark.parametrize("first,env,threads", [
        ("numpy", {"OVERLAP_LAB_THREADS": "1"}, 1),
        ("overlap_lab", {}, 1),
        ("overlap_lab", {"OPENBLAS_NUM_THREADS": "2"}, 2),
    ], ids=["cap-after-numpy", "default", "blas-variable"])
    def test_thread_cap(self, first, env, threads):
        # both bundled OpenBLAS pools, read through ctypes after the first
        # decomposition, and the Monte Carlo window, in a fresh process
        # that imports `first` first
        probe = textwrap.dedent(f"""
            import ctypes, glob, os
            import {first}
            from overlap_lab import cli, overlaps
            import numpy as np
            import scipy
            overlaps.eig_biorthogonal(np.eye(3))

            def pool(package, symbol):
                libs = glob.glob(os.path.join(
                    os.path.dirname(package.__file__), os.pardir,
                    package.__name__ + ".libs", "libscipy_openblas*"))
                if not libs:
                    return "absent"
                get = getattr(ctypes.CDLL(sorted(libs)[0]), symbol)
                get.argtypes, get.restype = [], ctypes.c_int
                return get()

            print(pool(np, "scipy_openblas_get_num_threads64_"),
                  pool(scipy, "scipy_openblas_get_num_threads"),
                  overlaps.WORKERS, len(os.sched_getaffinity(0)))
        """)
        env = dict({k: v for k, v in os.environ.items()
                    if k not in ("OVERLAP_LAB_THREADS", "OMP_NUM_THREADS",
                                 "OPENBLAS_NUM_THREADS")}, **env)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        numpy_pool, scipy_pool, workers, cores = out.stdout.split()
        if "absent" in (numpy_pool, scipy_pool):
            pytest.skip("numpy or scipy does not bundle scipy-openblas")
        # scipy's pool runs LAPACK only, at one thread whatever the count
        assert (int(numpy_pool), int(scipy_pool)) == (threads, 1)
        assert int(workers) == max(1, int(cores) // threads)


# runs `cli.main(argv)` in a fresh interpreter; its last stderr line lists
# the scipy modules loaded by then
FOOTPRINT_PROBE = textwrap.dedent("""
    import json, sys
    sys.path.insert(0, {src!r})
    from overlap_lab import cli
    argv = {argv!r}
    rc = cli.main(argv) if argv else 0
    sys.stdout.flush()
    print(json.dumps([m for m in sys.modules if m.startswith("scipy")]),
          file=sys.stderr)
    sys.exit(rc)
""")
NO_SCIPY = [
    ["qsolve", "green", "--model", "ginibre", "--z", "0.5,0.2"],
    ["qsolve", "o1", "--model", "ginibre", "--z", "0.5,0.2"],
    ["qsolve", "k", "--model", "ginibre", "--z1", "0.5,0.2", "--z2=-0.3,0.4"],
    ["qsolve", "o2", "--model", "ginibre", "--z1", "0.3,0.1", "--z2=-0.2,0.4"],
    ["qsolve", "h", "--model", "ginibre", "--z1", "2,0", "--z2", "2,0"],
    ["qsolve", "wheel", "--model", "ginibre", "--word-cov", "2,2"],
    ["analytic", "o2", "--model", "ginibre", "--z1", "0.3,0", "--z2=-0.2,0.1"],
    ["analytic", "phi", "--omega", "0.5", "--omega", "2"],
    ["compare", "--table", "{tables}/a.csv", "--ref", "{tables}/b.csv"],
    ["estimate", "o1", "--in", "{run}", "--rbins", "4", "--rmax", "1.2"],
    ["estimate", "rho", "--in", "{run}", "--rbins", "4", "--rmax", "1.2"],
    ["estimate", "hprod", "--in", "{run}"],
    ["estimate", "tracecov", "--in", "{run}"],
]
SCIPY_LINALG = [
    ["sample", "--ensemble", "ginibre", "--n", "8", "--samples", "3",
     "--seed", "5", "--out", "{tables}/fresh"],
    ["estimate", "o2", "--in", "{run}", "--pair", "0.5,0,-0.5,0"],
    ["analytic", "exact-o2", "--n", "5", "--z1", "0.3,0", "--z2=-0.2,0.1"],
]


class TestScipyFootprint:
    """Only the decomposition and the exact finite-N determinant load
    scipy, and then only scipy.linalg: every other command starts
    without it."""

    @pytest.fixture(scope="class")
    def dirs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("footprint")
        run = run_sample(root, n=8, samples=3)
        for name in ("a.csv", "b.csv"):
            assert main(["estimate", "o1", "--in", str(run), "--rbins", "3",
                         "--out", str(root / name)]) == 0
        return {"run": str(run), "tables": str(root)}

    def probe(self, argv):
        """(exit code, stdout, loaded scipy modules) of a fresh process."""
        src = os.path.dirname(os.path.dirname(cli.__file__))
        out = subprocess.run(
            [sys.executable, "-c", FOOTPRINT_PROBE.format(src=src, argv=argv)],
            capture_output=True, text=True, timeout=120)
        return (out.returncode, out.stdout,
                set(json.loads(out.stderr.splitlines()[-1])))

    def test_import_loads_no_scipy(self):
        assert self.probe([]) == (0, "", set())

    @pytest.mark.parametrize("argv,linalg", [
        *((argv, False) for argv in NO_SCIPY),
        *((argv, True) for argv in SCIPY_LINALG)],
        ids=lambda v: ("-".join(a for a in v[:2] if a[0] != "-")
                       if isinstance(v, list) else "linalg" if v else "none"))
    def test_command_footprint(self, capsys, dirs, argv, linalg):
        argv = [arg.format(**dirs) for arg in argv]
        rc, out, modules = self.probe(argv)
        if linalg:
            assert "scipy.linalg" in modules
            assert not modules & {"scipy.integrate", "scipy.optimize"}
        else:
            assert modules == set()
        capsys.readouterr()
        assert (rc, out) == (main(argv), capsys.readouterr().out)


class TestSample:
    def test_outputs_and_manifest(self, tmp_path):
        out = run_sample(tmp_path, n=10, samples=3)
        eigen = read_csv(out / "eigen.csv")
        pairs = read_csv(out / "pairs.csv")
        assert len(eigen) == 3 * 10
        assert len(pairs) == 3 * 10 * 9
        with open(out / "manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["command"] == "sample"
        assert manifest["seed"] == 7
        assert set(manifest["outputs"]) == {"eigen.csv", "pairs.csv"}
        # overlap row sums: per (sample, k) the pair rows plus the diagonal
        # entry must sum to one
        diag = {(r["sample_id"], r["k"]): float(r["o_kk"]) for r in eigen}
        sums = {}
        for r in pairs:
            key = (r["sample_id"], r["k"])
            sums[key] = sums.get(key, 0.0) + float(r["re_o_kl"])
        for key, off_sum in sums.items():
            assert off_sum + diag[key] == pytest.approx(1.0, abs=1e-8)

    def test_rerun_byte_identical(self, tmp_path):
        a = run_sample(tmp_path, name="a")
        b = run_sample(tmp_path, name="b")
        assert (a / "eigen.csv").read_bytes() == (b / "eigen.csv").read_bytes()
        assert (a / "pairs.csv").read_bytes() == (b / "pairs.csv").read_bytes()

    def test_csv_bytes_pinned(self, tmp_path):
        # digests of the per-row csv.writer output for this run (ginibre,
        # N=12, 3 samples, seed 7) on the reference platform
        out = run_sample(tmp_path)
        digest = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                  for name in ("eigen.csv", "pairs.csv")}
        assert digest == {
            "eigen.csv": "4241c26994283a017a291a387d949f38"
                         "f2d3ed4dbdd60573e403cf56440fca27",
            "pairs.csv": "2604b93187c9051c67253c5141725310"
                         "f38557320289b9d255a3fb447353aaf6"}

    def test_thinned_pairs_csv_bytes_pinned(self, tmp_path):
        # a thinned run leaves many pairs without their mirror (l, k), so
        # the writer formats those overlaps itself; digest of the per-row
        # writer's output for this run on the reference platform
        out = run_sample(tmp_path, n=40, samples=4, seed=3,
                         extra=("--min-separation", "0.1",
                                "--pair-subsample", "0.7"))
        assert hashlib.sha256((out / "pairs.csv").read_bytes()).hexdigest() \
            == ("be0d7cf04f361598ae757d0debac9f6d"
                "d23290ae91ee1bf2f45ebd236dec4eb8")

    def test_pair_subsample_stream_is_reserved(self, tmp_path):
        out = run_sample(tmp_path, n=6, samples=2,
                         extra=("--pair-subsample", "0.5"))
        got = [(int(r["sample_id"]), int(r["k"]), int(r["l"]))
               for r in read_csv(out / "pairs.csv")]

        def kept(stream):
            u = iter(stream.generator().random(2 * 6 * 5))
            return [(s, k, l) for s in range(2) for k in range(6)
                    for l in range(6) if k != l and not next(u) > 0.5]

        assert got == kept(RngStream(7, 2 ** 64 - 1))
        # Philox(key=seed ^ 0xA5A5) is sample stream seed ^ 0xA5A5 of a
        # seed-0 run; the subsampling draws must not be those
        assert got != kept(RngStream(0, 7 ^ 0xA5A5))

    def test_near_defective_draw_dropped(self, tmp_path, monkeypatch):
        n = 10
        draws = list(sample_many(EnsembleSpec("ginibre", n), 7, 3))
        jordan = np.eye(n, k=1) + 0.5 * np.eye(n)

        def with_jordan(spec, seed, n_samples):
            yield draws[0]
            yield 1, jordan, {}
            yield draws[2]

        monkeypatch.setattr(cli, "sample_many", with_jordan)
        out = run_sample(tmp_path, name="dropped", n=n, samples=3)
        monkeypatch.undo()
        full = run_sample(tmp_path, name="full", n=n, samples=3)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["n_dropped"] == 1
        assert "n_dropped" not in manifest["params"]
        eigen = read_csv(out / "eigen.csv")
        assert {r["sample_id"] for r in eigen} == {"0", "2"}
        assert eigen == [r for r in read_csv(full / "eigen.csv")
                         if r["sample_id"] != "1"]
        assert {r["sample_id"] for r in read_csv(out / "pairs.csv")} == \
            {"0", "2"}

    def test_leading_and_trailing_draws_dropped(self, tmp_path, monkeypatch):
        n = 10
        draws = list(sample_many(EnsembleSpec("ginibre", n), 7, 2))
        jordan = np.eye(n, k=1) + 0.5 * np.eye(n)

        def with_jordan(spec, seed, n_samples):
            yield 0, jordan, {}
            yield from draws
            yield 3, jordan, {}
            yield 4, jordan, {}

        monkeypatch.setattr(cli, "sample_many", with_jordan)
        out = run_sample(tmp_path, n=n, samples=5)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["results"]["n_dropped"] == 3
        assert {r["sample_id"] for r in read_csv(out / "eigen.csv")} == \
            {"0", "1"}

    def test_pulls_after_decomposition(self, tmp_path, monkeypatch):
        # pair_rows is the last per-sample step of the sampling loop; one
        # worker keeps the strict pull-then-decompose order
        monkeypatch.setattr(overlaps, "WORKERS", 1)
        events = []
        draws = list(sample_many(EnsembleSpec("ginibre", 8), 7, 3))

        def logged(spec, seed, n_samples):
            for k, x, info in draws:
                events.append(("pull", k))
                yield k, x, info

        def pair_rows(sample_id, *args, **kwargs):
            events.append(("rows", sample_id))
            return orig_pair_rows(sample_id, *args, **kwargs)

        orig_pair_rows = cli.pair_rows
        monkeypatch.setattr(cli, "sample_many", logged)
        monkeypatch.setattr(cli, "pair_rows", pair_rows)
        run_sample(tmp_path, n=8, samples=3)
        assert events == [(e, k) for k in range(3) for e in ("pull", "rows")]

    def test_pair_thinning(self, tmp_path):
        dense = run_sample(tmp_path, name="dense")
        thin = run_sample(tmp_path, name="thin",
                          extra=("--min-separation", "0.3"))
        assert len(read_csv(thin / "pairs.csv")) < \
            len(read_csv(dense / "pairs.csv"))

    @pytest.mark.parametrize("frac", ["-1", "0", "1.5", "nan"])
    def test_pair_subsample_outside_unit_interval(self, tmp_path, frac):
        # -1 wrote 0 pair rows and exited 0
        with pytest.raises(SystemExit, match="must lie in"):
            run_sample(tmp_path, extra=("--pair-subsample", frac))
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_refused(self, tmp_path, capsys, samples):
        # --samples 0 wrote header-only CSVs and exited 0
        with pytest.raises(SystemExit) as exc:
            run_sample(tmp_path, samples=samples)
        assert exc.value.code == 2
        assert "--samples: must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_outside_64_bits_refused(self, tmp_path, capsys, seed):
        # --seed -1 wrote the rows of --seed 18446744073709551615 under
        # another tag
        with pytest.raises(SystemExit) as exc:
            run_sample(tmp_path, seed=seed)
        assert exc.value.code == 2
        assert "--seed must lie in [0, 2**64)" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_largest_seed_allowed(self, tmp_path):
        run_sample(tmp_path, n=4, samples=1, seed=2 ** 64 - 1)

    def test_n_below_two_refused(self, tmp_path, capsys):
        # exited 1 but left an empty run directory
        assert main(["sample", "--ensemble", "ginibre", "--n", "1",
                     "--samples", "1", "--seed", "7",
                     "--out", str(tmp_path / "run")]) == 1
        assert "n must be at least 2" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("sep", ["nan", "-3", "inf"])
    def test_min_separation_refused(self, tmp_path, sep):
        # nan and -3 wrote the pairs.csv rows of 0 under another tag
        with pytest.raises(SystemExit, match="--min-separation"):
            run_sample(tmp_path, extra=("--min-separation", sep))
        assert not (tmp_path / "run").exists()

    def test_one_sample_allowed(self, tmp_path):
        out = run_sample(tmp_path, samples=1)
        assert {r["sample_id"] for r in read_csv(out / "eigen.csv")} == {"0"}

    def test_o_kk_is_diagonal_overlaps(self, tmp_path):
        out = run_sample(tmp_path, n=12, samples=3)
        rows = read_csv(out / "eigen.csv")
        for k, x, _ in sample_many(EnsembleSpec("ginibre", 12), 7, 3):
            es = overlaps.eig_biorthogonal(x)
            got = np.array([float(r["o_kk"]) for r in rows
                            if r["sample_id"] == str(k)])
            assert got.tobytes() == overlaps.diagonal_overlaps(es).tobytes()
            o = np.diagonal(overlaps.overlap_matrix(es)).real
            assert np.max(np.abs(got - o) / o) <= 1e-12

    def test_record_output_digest_of_multichunk_file(self, tmp_path):
        path = tmp_path / "big.bin"
        data = np.random.default_rng(3).bytes(2 * cli.HASH_CHUNK + 123)
        path.write_bytes(data)
        manifest = cli.RunManifest("sample", {}, 0)
        manifest.record_output(str(path))
        assert manifest.outputs == {
            "big.bin": hashlib.sha256(data).hexdigest()}


# the flags each `estimate` statistic reads, and a valid value of each
ESTIMATE_FLAGS = {"rho": ("--rbins", "--rmax"), "o1": ("--rbins", "--rmax"),
                  "o2": ("--dmin", "--pair", "--half-width"),
                  "hprod": ("--z1", "--z2"), "tracecov": ("--word1", "--word2")}
FLAG_VALUES = {"--rbins": "4", "--rmax": "1.2", "--dmin": "0.3",
               "--pair": "0.3,0,-0.3,0.1", "--half-width": "0.3",
               "--z1": "2,0", "--z2": "2,0", "--word1": "X", "--word2": "X+"}


class TestEstimate:
    def test_rho_and_o1(self, tmp_path):
        out = run_sample(tmp_path, n=30, samples=10)
        assert main(["estimate", "rho", "--in", str(out),
                     "--rbins", "6", "--rmax", "1.2"]) == 0
        rows = read_csv(out / "rho.csv")
        assert len(rows) == 6
        assert main(["estimate", "o1", "--in", str(out),
                     "--rbins", "6", "--rmax", "1.2"]) == 0
        assert len(read_csv(out / "o1.csv")) == 6

    def test_o2_windows(self, tmp_path):
        out = run_sample(tmp_path, n=30, samples=10)
        rc = main(["estimate", "o2", "--in", str(out), "--dmin", "auto",
                   "--pair", "0.3,0.0,-0.3,0.1", "--half-width", "0.3"])
        assert rc == 0
        rows = read_csv(out / "o2.csv")
        assert len(rows) == 1
        assert float(rows[0]["re_z"]) == 0.3

    @pytest.mark.parametrize("opts,match", [
        (["--half-width", "0"], "half_width"),
        (["--half-width=-0.25"], "half_width"),
        (["--dmin", "nan"], "delta_min"),
    ])
    def test_o2_rejects_bad_window(self, tmp_path, capsys, opts, match):
        # these wrote nan,nan,nan,0 or 0.0,0.0,0.0,0 and exited 0
        out = run_sample(tmp_path, n=10, samples=3)
        assert main(["estimate", "o2", "--in", str(out),
                     "--pair", "0.3,0.0,-0.3,0.1", *opts]) == 1
        assert match in capsys.readouterr().err
        assert not (out / "o2.csv").exists()

    def test_o2_requires_pairs(self, tmp_path):
        out = run_sample(tmp_path, n=10, samples=3)
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "o2", "--in", str(out)])
        assert "--pair re1,im1,re2,im2" in str(exc.value)

    @pytest.mark.parametrize("what", ["rho", "o1"])
    @pytest.mark.parametrize("opts,flag", [
        (["--rbins", "0"], "--rbins"), (["--rbins=-3"], "--rbins"),
        (["--rmax", "0"], "--rmax"), (["--rmax=-1"], "--rmax"),
        (["--rmax", "nan"], "--rmax"), (["--rmax", "inf"], "--rmax"),
    ], ids=["rbins0", "rbins-3", "rmax0", "rmax-1", "rmax_nan", "rmax_inf"])
    def test_binned_rejects_empty_range(self, tmp_path, what, opts, flag):
        # --rbins 0 wrote a header-only table and --rmax 0 rows of nan,
        # both exiting 0; --rmax -1 failed with numpy's message on bins
        out = run_sample(tmp_path, n=10, samples=3)
        with pytest.raises(SystemExit, match=flag):
            main(["estimate", what, "--in", str(out), *opts])
        assert not (out / f"{what}.csv").exists()

    @pytest.mark.parametrize("what,opts", [
        ("o1", ["--rbins", "4", "--rmax", "1.2"]),
        ("tracecov", ["--word1", "X", "--word2", "X+"]),
    ])
    def test_rejections_printed(self, tmp_path, monkeypatch, capsys, what,
                                opts):
        out = run_sample(tmp_path, n=10, samples=4)
        assert main(["estimate", what, "--in", str(out), *opts]) == 0
        clean = capsys.readouterr().out
        assert "sampler rejections" not in clean
        draws = list(sample_many(EnsembleSpec("ginibre", 10), 7, 4))
        monkeypatch.setattr(cli, "sample_many", lambda spec, seed, n: (
            (k, x, {"rejections": 3}) for k, x, _ in draws))
        table = (out / f"{what}.csv").read_bytes()
        if what == "o1":
            # o1 bins eigen.csv and draws nothing, so the rejections are
            # the sample run's, as its manifest records them
            out = run_sample(tmp_path, name="rejecting", n=10, samples=4)
            monkeypatch.undo()
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["results"]["rejections"] == 12
        assert main(["estimate", what, "--in", str(out), *opts]) == 0
        assert "sampler rejections: 12" in capsys.readouterr().out
        assert (out / f"{what}.csv").read_bytes() == table

    @pytest.mark.parametrize("what,opts", [
        ("o1", ["--rbins", "4", "--rmax", "1.2"]),
        ("o2", ["--pair", "0.3,0.0,-0.3,0.1", "--half-width", "0.4"]),
    ])
    def test_drops_printed(self, tmp_path, monkeypatch, capsys, what, opts):
        out = run_sample(tmp_path, n=10, samples=4)
        assert main(["estimate", what, "--in", str(out), *opts]) == 0
        assert "near-defective" not in capsys.readouterr().out
        calls, schur = itertools.count(), overlaps._schur

        def one_defective(x):
            if next(calls) == 1:
                raise overlaps.NearDefectiveError("patched")
            return schur(x)

        monkeypatch.setattr(overlaps, "_schur", one_defective)
        if what == "o1":
            # o1 decomposes nothing: the drop is the sample run's, as its
            # manifest records it
            out = run_sample(tmp_path, name="dropping", n=10, samples=4)
            monkeypatch.undo()
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["results"]["n_dropped"] == 1
        assert main(["estimate", what, "--in", str(out), *opts]) == 0
        assert "near-defective samples dropped: 1" in capsys.readouterr().out

    def test_estimate_tag_matches_sample_tag(self, tmp_path):
        # the rejection count the sample run records must not enter the tag
        out = run_sample(tmp_path, n=10, samples=3)
        assert main(["estimate", "o1", "--in", str(out),
                     "--rbins", "4", "--rmax", "1.2"]) == 0
        with open(out / "eigen.csv") as fh:
            sample_tag = fh.readline()
        with open(out / "o1.csv") as fh:
            assert fh.readline() == sample_tag
        assert sample_tag.startswith("# manifest ")

    def test_manifest_without_results_loads(self, tmp_path):
        out = run_sample(tmp_path, n=10, samples=3)
        path = out / "manifest.json"
        data = json.loads(path.read_text())
        del data["results"]
        path.write_text(json.dumps(data))
        assert main(["estimate", "rho", "--in", str(out),
                     "--rbins", "4", "--rmax", "1.2"]) == 0

    @pytest.mark.parametrize("what,opts", [
        ("rho", ["--dmin", "0.3"]),
        ("hprod", ["--pair", "0.3,0,-0.3,0.1"]),
        ("o1", ["--z1", "2,0"]),
        ("tracecov", ["--rbins", "4"]),
    ])
    def test_flag_of_another_statistic_refused(self, tmp_path, capsys, what,
                                               opts):
        # each of these ignored its flag, wrote a table and exited 0
        out = run_sample(tmp_path, n=10, samples=3)
        with pytest.raises(SystemExit) as exc:
            main(["estimate", what, "--in", str(out), *opts])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(opts)}" in \
            capsys.readouterr().err
        assert not (out / f"{what}.csv").exists()

    @pytest.mark.parametrize("what", sorted(ESTIMATE_FLAGS))
    def test_each_statistic_parses_only_its_flags(self, what):
        parser = cli.build_parser()
        for flag, value in FLAG_VALUES.items():
            argv = ["estimate", what, "--in", "run", flag, value]
            if flag in ESTIMATE_FLAGS[what]:
                assert parser.parse_args(argv).indir == "run"
                continue
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            assert exc.value.code == 2, flag

    def test_manifest_missing_a_parameter_fails(self, tmp_path, capsys):
        # a missing parameter was read as its default, silently
        out = run_sample(tmp_path, n=10, samples=3)
        path = out / "manifest.json"
        data = json.loads(path.read_text())
        del data["params"]["tau"]
        path.write_text(json.dumps(data))
        assert main(["estimate", "o1", "--in", str(out),
                     "--rbins", "4", "--rmax", "1.2"]) == 1
        assert "manifest params lack tau" in capsys.readouterr().err
        assert not (out / "o1.csv").exists()

    def test_hprod_and_tracecov(self, tmp_path):
        out = run_sample(tmp_path, n=30, samples=10)
        assert main(["estimate", "hprod", "--in", str(out),
                     "--z1", "2,0", "--z2", "2,0"]) == 0
        row = read_csv(out / "hprod.csv")[0]
        assert float(row["estimate_re"]) == pytest.approx(1 / 3, abs=0.1)
        assert main(["estimate", "tracecov", "--in", str(out),
                     "--word1", "X", "--word2", "X+"]) == 0
        assert read_csv(out / "tracecov.csv")[0]["word1"] == "X"

    def test_estimate_csv_bytes_pinned(self, tmp_path):
        # digests of the estimate CSVs of one fixed run (ginibre, N=12,
        # 6 samples, seed 7) on the reference platform
        out = run_sample(tmp_path, samples=6)
        commands = {
            "rho": ["--rbins", "4", "--rmax", "1.2"],
            "o1": ["--rbins", "4", "--rmax", "1.2"],
            "o2": ["--dmin", "0.2", "--pair", "0.3,0.0,-0.3,0.1",
                   "--pair", "0.2,0.4,0.1,-0.5", "--half-width", "0.4"],
            "hprod": ["--z1", "2,0.5", "--z2", "1.5,-0.5"],
            "tracecov": [],
        }
        digest = {}
        for what, extra in commands.items():
            assert main(["estimate", what, "--in", str(out), *extra]) == 0
            digest[what] = hashlib.sha256(
                (out / f"{what}.csv").read_bytes()).hexdigest()
        assert digest == {
            "rho": "2fa735fa6fccefbabd43d9516cd116ef"
                   "f6b68ba0b29c4e4973601b9333f456e5",
            "o1": "da8985aeddc01b794fd8915311fb3374"
                  "df47317f548caf98252971faaefadafa",
            "o2": "d0e8a6e69886676c30d8d0047a68ccc0"
                  "16091c1ca03c090bb4e6acfae4398934",
            "hprod": "53fdd6fbf55abd401cc594687d15eaf9"
                     "a7729d30e7151f52dc1a1ddcf56e1258",
            "tracecov": "5c60abc108bf809e55831baea884576a"
                        "60326919182d33560846cb8f4e4b43f9"}

    def test_csv_bytes_identical_at_one_and_two_workers(self, tmp_path,
                                                        monkeypatch):
        names = ("eigen.csv", "pairs.csv", "o1.csv", "o2.csv", "hprod.csv",
                 "tracecov.csv")
        data = []
        for workers in (1, 2):
            monkeypatch.setattr(overlaps, "WORKERS", workers)
            out = run_sample(tmp_path, name=f"w{workers}", n=12, samples=7,
                             extra=("--pair-subsample", "0.5"))
            assert main(["estimate", "o1", "--in", str(out),
                         "--rbins", "4", "--rmax", "1.2"]) == 0
            assert main(["estimate", "o2", "--in", str(out), "--dmin", "0.2",
                         "--pair", "0.3,0.0,-0.3,0.1",
                         "--half-width", "0.4"]) == 0
            assert main(["estimate", "hprod", "--in", str(out),
                         "--z1", "2,0.5", "--z2", "1.5,-0.5"]) == 0
            assert main(["estimate", "tracecov", "--in", str(out),
                         "--word1", "XX", "--word2", "X+X+"]) == 0
            data.append([(out / name).read_bytes() for name in names])
        assert data[0] == data[1]

    @given(command=st.sampled_from(["sample", "estimate"]),
           params=st.dictionaries(
               st.text(max_size=12),
               st.one_of(st.none(), st.booleans(), st.integers(),
                         st.floats(allow_nan=False), st.text(max_size=12)),
               max_size=12),
           seed=st.integers(0, 2 ** 64 - 1))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_params_hash_survives_write_load(self, command, params, seed):
        manifest = cli.RunManifest(command, params, seed)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "manifest.json")
            manifest.write(path)
            loaded = cli.RunManifest.load(path)
        assert loaded.params_hash() == manifest.params_hash()

    def test_missing_run_dir_exit_code(self, tmp_path):
        assert main(["estimate", "rho", "--in", str(tmp_path / "nope")]) == 1

    @pytest.mark.parametrize("what", ["rho", "o1"])
    def test_eigen_csv_route_matches_estimators(self, tmp_path, monkeypatch,
                                                capsys, what):
        # the same draws as the estimator sees them: one near-defective,
        # and every draw reporting two sampler rejections
        n = 10
        draws = [(k, x, {"rejections": 2}) for k, x, _ in
                 sample_many(EnsembleSpec("ginibre", n), 7, 6)]
        draws[2] = (2, np.eye(n, k=1) + 0.5 * np.eye(n), {"rejections": 2})
        monkeypatch.setattr(cli, "sample_many", lambda spec, seed, k: draws)
        out = run_sample(tmp_path, n=n, samples=6)
        monkeypatch.undo()
        edges = np.linspace(0.0, 1.2, 5)
        estimate = (estimators.estimate_o1 if what == "o1"
                    else estimators.estimate_density)
        ref = estimate(draws, edges)
        manifest = cli.RunManifest.load(out / "manifest.json")
        got = estimators.estimate_radial(cli._eigen_blocks(out, manifest),
                                         edges, what == "o1")
        for name in ("centers", "estimate", "stderr", "count"):
            assert getattr(got, name).tobytes() == getattr(ref, name).tobytes()
        assert got.n_samples == ref.n_samples == 5
        assert (ref.n_dropped, ref.rejections) == (1, 12)
        assert main(["estimate", what, "--in", str(out),
                     "--rbins", "4", "--rmax", "1.2"]) == 0
        printed = capsys.readouterr().out
        assert "sampler rejections: 12" in printed
        assert "near-defective samples dropped: 1" in printed
        assert [tuple(map(float, r.values()))
                for r in read_csv(out / f"{what}.csv")] == [
            tuple(map(float, row)) for row in cli._binned_rows(ref)]

    @pytest.mark.parametrize("what", ["rho", "o1"])
    @pytest.mark.parametrize("damage", ["flipped", "deleted", "unrecorded"])
    def test_eigen_csv_checked_against_manifest(self, tmp_path, capsys, what,
                                                damage):
        out = run_sample(tmp_path, n=10, samples=3)
        path = out / "eigen.csv"
        if damage == "flipped":
            data = bytearray(path.read_bytes())
            data[-5] ^= 1  # a digit of the last o_kk: still a number
            path.write_bytes(bytes(data))
        elif damage == "deleted":
            path.unlink()
        else:
            manifest = json.loads((out / "manifest.json").read_text())
            del manifest["outputs"]["eigen.csv"]
            (out / "manifest.json").write_text(json.dumps(manifest))
        assert main(["estimate", what, "--in", str(out),
                     "--rbins", "4", "--rmax", "1.2"]) == 1
        assert str(path) in capsys.readouterr().err
        assert not (out / f"{what}.csv").exists()


E_ARGS = ["--model", "elliptic", "--sigma", "1", "--tau", "0.5"]
IG_ARGS = ["--model", "induced_ginibre", "--alpha", "0.5"]
TU_ARGS = ["--model", "truncated_unitary", "--kappa", "1"]
PT_ARGS = ["--model", "pseudo_hermitian_product"]
QS_ARGS = ["--model", "quantum_scattering", "--m", "1.5", "--gamma", "0.8"]
QS_PAIR_ARGS = ["--z1=-1.137,-0.201", "--z2=-1.121,-0.502"]
# every qsolve `what` at every R-transform kind (all five single rings),
# inside and outside the spectrum
QSOLVE_RUNS = [
    ["green", *E_ARGS, "--z", "0.3,0.2"], ["green", *E_ARGS, "--z", "4,0"],
    ["o1", *E_ARGS, "--z", "0.3,0.2"],
    ["k", *E_ARGS, "--z1", "0.3,0.2", "--z2=-0.5,0.1"],
    ["o2", *E_ARGS, "--z1", "0.3,0.2", "--z2=-0.5,0.1"],
    ["h", *E_ARGS, "--z1", "3,1", "--z2", "2.5,-1"],
    ["wheel", *E_ARGS, "--word-cov", "2,2"],
    ["wheel", *E_ARGS, "--z1", "3,0", "--z2", "0,3"],
    ["green", "--model", "ginibre", "--z", "0.5,0.2"],
    ["green", "--model", "ginibre", "--z", "2,1"],
    ["green", "--model", "ginibre", "--z", "0,0"],
    ["o1", "--model", "ginibre", "--z", "0.5,0.2"],
    ["k", "--model", "ginibre", "--z1", "0.5,0.2", "--z2=-0.3,0.4"],
    ["o2", "--model", "ginibre", "--z1", "0.3,0.1", "--z2=-0.2,0.4"],
    ["h", "--model", "ginibre", "--z1", "2,0", "--z2", "2,0"],
    ["wheel", "--model", "ginibre", "--word-cov", "2,2"],
    ["wheel", "--model", "ginibre", "--z1", "2,0", "--z2", "0,2"],
    ["green", *IG_ARGS, "--z", "0.9,0"], ["o1", *IG_ARGS, "--z", "0,0.9"],
    ["k", *IG_ARGS, "--z1=-0.0634,0.9205", "--z2=-0.8718,0.3462"],
    ["o2", *IG_ARGS, "--z1", "0.9,0", "--z2", "0,1.1"],
    ["h", *IG_ARGS, "--z1", "2,0", "--z2", "0,2"],
    ["wheel", *IG_ARGS, "--word-cov", "1,1"],
    ["green", *TU_ARGS, "--z", "0.3,0.3"], ["o1", *TU_ARGS, "--z", "0.3,0.3"],
    ["k", *TU_ARGS, "--z1", "0.3,0.3", "--z2=-0.4,0.2"],
    ["o2", *TU_ARGS, "--z1", "0.3,0.3", "--z2=-0.4,0.2"],
    ["h", *TU_ARGS, "--z1", "2,1", "--z2", "2,-1"],
    ["wheel", *TU_ARGS, "--word-cov", "2,1"],
    ["green", "--model", "spherical", "--z", "1.3,0.4"],
    ["o1", "--model", "spherical", "--z", "1.3,0.4"],
    ["k", "--model", "spherical", "--z1", "1.3,0.4", "--z2=-0.5,2"],
    ["o2", "--model", "spherical", "--z1", "1.3,0.4", "--z2=-0.5,2"],
    ["green", "--model", "product_ginibre", "--z", "0.5,0.3"],
    ["o1", "--model", "product_ginibre", "--z", "0.5,0.3"],
    ["k", "--model", "product_ginibre", "--z1", "0.5,0.3", "--z2=-0.4,0.6"],
    ["o2", "--model", "product_ginibre", "--z1", "0.5,0.3", "--z2=-0.4,0.6"],
    ["h", "--model", "product_ginibre", "--z1", "2,0", "--z2", "2,0.5"],
    ["wheel", "--model", "product_ginibre", "--word-cov", "1,1"],
    ["green", *PT_ARGS, "--z", "3,1"], ["green", *PT_ARGS, "--z", "2,0"],
    ["o1", *PT_ARGS, "--z", "2,0"],
    ["o2", *PT_ARGS, "--z1", "1,0", "--z2", "3,0"],
    ["h", *PT_ARGS, "--z1", "3,1", "--z2", "2,-1"],
    ["green", *QS_ARGS, "--z", "5,0"], ["green", *QS_ARGS, "--z=-0.5,-1"],
    ["o1", *QS_ARGS, "--z", "5,0"],
    ["k", *QS_ARGS, *QS_PAIR_ARGS], ["o2", *QS_ARGS, *QS_PAIR_ARGS],
    ["h", *QS_ARGS, "--z1", "5,0", "--z2", "4,3"],
    ["wheel", *QS_ARGS, "--z1", "5,0", "--z2", "4,3"],
]

# the flags each `qsolve` statistic reads, and a valid value of each
QSOLVE_FLAGS = {"green": ("--z",), "o1": ("--z",), "k": ("--z1", "--z2"),
                "o2": ("--z1", "--z2"), "h": ("--z1", "--z2"),
                "wheel": ("--z1", "--z2", "--word-cov")}
QSOLVE_FLAG_VALUES = {"--z": "0.5,0.2", "--z1": "3,0", "--z2": "0,3",
                      "--word-cov": "2,2"}


def accepts(call):
    """Whether ``call()`` returns rather than raising a usage or value
    error."""
    try:
        call()
    except (SystemExit, ValueError):
        return False
    return True


class TestAnalyticQsolve:
    def test_qsolve_stdout_pinned(self, capsys):
        # digest of the printed reprs of QSOLVE_RUNS, as the CSV bytes are
        # pinned: a refactor of the solver keeps every bit (restated once,
        # when `o1 --model pseudo_hermitian_product --z 2,0` went from
        # o1,-0.0 to o1,0.0 and every other line kept its bytes)
        digest = hashlib.sha256()
        for args in QSOLVE_RUNS:
            assert main(["qsolve", *args]) == 0, args
            digest.update(capsys.readouterr().out.encode())
        assert digest.hexdigest() == ("6be4382163d6722500ac5e08705a99a6"
                                      "6fd7b8a61782942eec81e4c74b20e776")

    @pytest.mark.parametrize("what", sorted(QSOLVE_FLAGS))
    def test_each_qsolve_statistic_parses_only_its_flags(self, capsys, what):
        parser = cli.build_parser()
        for flag, value in QSOLVE_FLAG_VALUES.items():
            argv = ["qsolve", what, "--model", "ginibre", flag, value]
            if flag in QSOLVE_FLAGS[what]:
                assert parser.parse_args(argv).what == what
                continue
            with pytest.raises(SystemExit) as exc:
                parser.parse_args(argv)
            assert exc.value.code == 2, flag
            assert f"unrecognized arguments: {flag}" in \
                capsys.readouterr().err

    def test_qsolve_flags_of_other_statistics_refused(self, capsys):
        # o1 ignored --z1 and --word-cov, printed its value and exited 0
        with pytest.raises(SystemExit) as exc:
            main(["qsolve", "o1", "--model", "ginibre", "--z", "0.5,0.2",
                  "--z1", "3,0", "--word-cov", "1,1"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "unrecognized arguments: --z1 3,0 --word-cov 1,1" in err

    @pytest.mark.parametrize("points", [["--z1", "9,9"], ["--z2=-1,0"],
                                        ["--z1", "3,0", "--z2", "0,3"]])
    def test_qsolve_wheel_word_cov_refuses_points(self, capsys, points):
        # the word covariance ignored the points and exited 0
        with pytest.raises(SystemExit) as exc:
            main(["qsolve", "wheel", "--model", "ginibre", "--word-cov",
                  "2,2", *points])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--word-cov: not allowed with --z1 or --z2" in err

    @pytest.mark.parametrize("what", ["o1", "o2"])
    def test_analytic_models_are_the_radial_cdf_kinds(self, capsys, what):
        # elliptic, pseudo_hermitian_product and quantum_scattering passed
        # parsing and then exited 1 in radial_cdf
        from overlap_lab import analytic
        parser = cli.build_parser()
        models = {kind for kind in KINDS if accepts(
            lambda: parser.parse_args(["analytic", what, "--model", kind]))}
        rings = {kind for kind in KINDS
                 if accepts(lambda: analytic.radial_cdf(kind))}
        assert models == rings == set(analytic.SINGLE_RINGS)
        with pytest.raises(SystemExit) as exc:
            main(["analytic", what, "--model", "elliptic"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "argument --model: invalid choice: 'elliptic'" in err

    @pytest.mark.parametrize("flag", ["--m", "--gamma"])
    def test_analytic_refuses_scattering_params(self, capsys, flag):
        # no analytic command reads them: `analytic o1 --m 2` printed the
        # line it prints without --m and exited 0
        with pytest.raises(SystemExit) as exc:
            main(["analytic", "o1", "--r", "0.5", flag, "2"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["o1", "--model", "ginibre", "--r", "0.5", "--tau", "0.9"],
        ["phi", "--omega", "0.5", "--alpha", "3"],
        ["exact-o2", "--n", "5", "--kappa", "7", "--omega", "2"],
        ["o1", "--r", "0.5", "--z1", "0.1,0"],
        ["o2", "--rout", "2"],
        ["h", "--model", "ginibre"],
        ["elliptic-o2", "--n", "5"],
        ["phi", "--raw"],
    ])
    def test_analytic_flag_of_another_statistic_refused(self, capsys, argv):
        # each exited 0, printing what it prints without the flag
        with pytest.raises(SystemExit) as exc:
            main(["analytic", *argv])
        assert exc.value.code == 2
        assert "unrecognized arguments: --" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["o1", "--r", "0.5", "--alpha", "0.5"],
         "--alpha is not read by ginibre"),
        (["o2", "--model", "induced_ginibre", "--kappa", "2"],
         "--kappa is not read by induced_ginibre"),
        (["o2", "--model", "truncated_unitary", "--kappa", "nan"],
         "--kappa must be finite"),
        (["o1", "--model", "induced_ginibre", "--alpha=-1", "--r", "0.5"],
         "--alpha must be nonnegative"),
    ], ids=["unread-alpha", "unread-kappa", "nan-kappa", "negative-alpha"])
    def test_analytic_params_checked_against_model(self, capsys, argv,
                                                   message):
        # ginibre ignored --alpha 0.5 and printed its own O1
        with pytest.raises(SystemExit) as exc:
            main(["analytic", *argv])
        assert exc.value.code == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["o1", "--model", "induced_ginibre", "--alpha", "0.5", "--kappa", "1",
         "--r", "0.9", "--r", "1.1"],
        ["o2", "--model", "truncated_unitary", "--alpha", "0", "--kappa", "2",
         "--z1", "0.3,0.1", "--z2=-0.2,0.1"],
        ["h", "--z1", "2,0", "--z2", "0,2", "--rout", "1.5"],
        ["phi", "--omega", "0.5", "--omega", "0"],
        ["exact-o2", "--n", "5", "--z1", "0.3,0", "--z2=-0.2,0.1", "--raw"],
        ["elliptic-o2", "--sigma", "1.2", "--tau", "0.5", "--z1", "0.3,0",
         "--z2=-0.2,0.1"],
    ])
    def test_analytic_statistic_takes_its_flags(self, capsys, argv):
        assert main(["analytic", *argv]) == 0
        assert capsys.readouterr().out

    def test_analytic_outputs(self, capsys):
        assert main(["analytic", "o2", "--model", "ginibre",
                     "--z1", "0.3,0.0", "--z2=-0.2,0.1"]) == 0
        line = capsys.readouterr().out.strip()
        label, re, im = line.split(",")
        assert label == "o2"
        assert float(re) < 0

    def test_exact_o2_raw(self, capsys):
        assert main(["analytic", "exact-o2", "--n", "2", "--raw"]) == 0
        _, re, _ = capsys.readouterr().out.strip().split(",")
        assert float(re) == pytest.approx(-6.0 / np.pi ** 2, rel=1e-10)

    def test_qsolve_green(self, capsys):
        assert main(["qsolve", "green", "--model", "elliptic",
                     "--sigma", "1", "--tau", "0.5", "--z", "4,0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "branch,holomorphic"
        g11 = float(out[1].split(",")[1])
        assert g11 == pytest.approx(4.0 - np.sqrt(14.0), rel=1e-10)

    def test_qsolve_o2_matches_analytic(self, capsys):
        assert main(["qsolve", "o2", "--model", "ginibre",
                     "--z1", "0.3,0.1", "--z2=-0.2,0.4"]) == 0
        _, re, im = capsys.readouterr().out.strip().split(",")
        from overlap_lab import analytic
        ref = analytic.o2_biunitary_closed_form("ginibre", 0.3 + 0.1j,
                                                -0.2 + 0.4j)
        assert complex(float(re), float(im)) == pytest.approx(ref, rel=1e-4)

    def test_qsolve_k_is_ladder(self, capsys):
        # the single-ring closed form, near two radii of equal O_1 where
        # the rung grows to |T| ~ 3e3; entries printed as plain floats
        from overlap_lab import qsolver
        z1, z2 = -0.0634 + 0.9205j, -0.8718 + 0.3462j
        assert main(["qsolve", "k", "--model", "induced_ginibre",
                     "--alpha", "0.5", "--z1=-0.0634,0.9205",
                     "--z2=-0.8718,0.3462"]) == 0
        out = capsys.readouterr().out.splitlines()
        rt = qsolver.biunitary_rt("induced_ginibre", alpha=0.5)
        k, pole, _ = qsolver.ladder(rt, qsolver.solve_green(rt, z1),
                                    qsolver.solve_green(rt, z2))
        assert out[0] == f"pole,{pole}"
        vals = np.array([[float(v) for v in line.split(",")]
                         for line in out[1:]])
        assert np.array_equal(vals[:, 0::2] + 1j * vals[:, 1::2], k)

    def test_qsolve_wheel_word_cov(self, capsys):
        assert main(["qsolve", "wheel", "--model", "ginibre",
                     "--word-cov", "2,2"]) == 0
        label, re, im = capsys.readouterr().out.strip().split(",")
        assert label == "word_cov"
        assert float(re) == pytest.approx(2.0, abs=1e-8)
        assert abs(float(im)) < 1e-8

    def test_qsolve_wheel_points(self, capsys):
        from overlap_lab import qsolver
        assert main(["qsolve", "wheel", "--model", "induced_ginibre",
                     "--alpha", "0.5", "--z1=-0.0634,0.9205",
                     "--z2=-0.8718,0.3462"]) == 0
        label, re, im = capsys.readouterr().out.strip().split(",")
        rt = qsolver.biunitary_rt("induced_ginibre", alpha=0.5)
        ref = qsolver.wheel_from_points(rt, -0.0634 + 0.9205j,
                                        -0.8718 + 0.3462j)
        assert label == "wheel"
        assert complex(float(re), float(im)) == ref

    @pytest.mark.parametrize("what", ["k", "wheel"])
    def test_qsolve_singular_pole(self, what, capsys):
        # 1 - F B is exactly singular at coincident elliptic bulk points
        assert main(["qsolve", what, "--model", "elliptic", "--tau", "0.5",
                     "--z1", "0.5,0", "--z2", "0.5,0"]) == 1
        assert "Bethe-Salpeter pole" in capsys.readouterr().err

    def test_qsolve_unknown_model(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["qsolve", "green", "--model", "nope"])
        assert exc.value.code == 2
        assert "'nope'" in capsys.readouterr().err


# every (kind, flag) whose value the kind refuses: an unread parameter
# away from its default, a non-finite read one, and a tau out of range
REFUSED_ENSEMBLE_FLAGS = (
    [(kind, name, str(DEFAULTS[name] + 0.5)) for kind in KINDS
     for name in DEFAULTS if name not in PARAMS[kind]]
    + [(kind, name, value) for kind in KINDS for name in PARAMS[kind]
       for value in ("nan", "inf")]
    + [("elliptic", "tau", "2")])


@pytest.mark.parametrize("kind,name,value", REFUSED_ENSEMBLE_FLAGS)
def test_ensemble_flag_refused(tmp_path, capsys, kind, name, value):
    # qsolve printed a value (ginibre --tau 0.9 the one without --tau),
    # and sample recorded the ignored parameter or failed unnamed in LAPACK
    for argv in (["sample", "--ensemble", kind, "--n", "4", "--samples",
                  "1", "--seed", "7", "--out", str(tmp_path / "run")],
                 ["qsolve", "o1", "--model", kind, "--z", "0.5,0.2"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--{name}", value])
        assert exc.value.code == 2
        assert f"error: --{name} " in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


class TestCompare:
    def write_table(self, path, values, stderr=0.1):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "estimate_re", "estimate_im", "stderr", "count"])
            for i, v in enumerate(values):
                w.writerow([i, v, 0.0, stderr, 100])

    def test_within_tolerance_exit_zero(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        self.write_table(a, [1.0, 2.0, 3.0])
        self.write_table(b, [1.05, 2.05, 2.95])
        assert main(["compare", "--table", str(a), "--ref", str(b)]) == 0

    def test_failure_exit_two(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        self.write_table(a, [1.0, 2.0, 3.0])
        self.write_table(b, [1.0, 2.0, 10.0])
        assert main(["compare", "--table", str(a), "--ref", str(b)]) == 2

    def test_key_columns_differ(self, tmp_path, capsys):
        # o1 centres 0.125... against 0.25...: the rows were compared by
        # position and three of four called ok
        out = run_sample(tmp_path, n=10, samples=3)
        for name, rmax in (("a.csv", "1"), ("b.csv", "2")):
            assert main(["estimate", "o1", "--in", str(out), "--rbins", "4",
                         "--rmax", rmax, "--out", str(tmp_path / name)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="row 0: key columns differ"):
            main(["compare", "--table", str(tmp_path / "a.csv"),
                  "--ref", str(tmp_path / "b.csv")])
        assert "row," not in capsys.readouterr().out

    def test_key_column_names_differ(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        self.write_table(a, [1.0, 2.0])
        b.write_text(a.read_text().replace("x,", "y,", 1))
        with pytest.raises(SystemExit, match="different key columns"):
            main(["compare", "--table", str(a), "--ref", str(b)])
        assert capsys.readouterr().out == ""

    def test_mismatched_rows(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        self.write_table(a, [1.0, 2.0])
        self.write_table(b, [1.0])
        with pytest.raises(SystemExit):
            main(["compare", "--table", str(a), "--ref", str(b)])
