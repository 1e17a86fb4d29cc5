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

from overlap_lab import cli, overlaps
from overlap_lab.cli import _complex_arg, main
from overlap_lab.ensembles import EnsembleSpec, sample_many
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
            "eigen.csv": "3bc8fe26ef6d6b89e37e3ca766ebbbc0"
                         "ded80328dacb6da960bfdcac9966e8c7",
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


class TestAnalyticQsolve:
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
        assert main(["qsolve", "green", "--model", "nope"]) == 1
        assert "'nope'" in capsys.readouterr().err


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

    def test_mismatched_rows(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        self.write_table(a, [1.0, 2.0])
        self.write_table(b, [1.0])
        with pytest.raises(SystemExit):
            main(["compare", "--table", str(a), "--ref", str(b)])
