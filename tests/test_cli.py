"""End-to-end tests of the command line interface."""

import csv
import hashlib
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

from overlap_lab import cli
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

    def test_thread_cap(self):
        # the effective OpenBLAS pool size after importing the CLI, read
        # through ctypes from numpy's bundled OpenBLAS
        probe = textwrap.dedent("""
            import ctypes, glob, os
            from overlap_lab import cli
            import numpy as np
            libs = glob.glob(os.path.join(os.path.dirname(np.__file__),
                                          os.pardir, "numpy.libs",
                                          "libscipy_openblas64_*.so"))
            if not libs:
                print("absent")
            else:
                lib = ctypes.CDLL(sorted(libs)[0])
                get = lib.scipy_openblas_get_num_threads64_
                get.argtypes = []
                get.restype = ctypes.c_int
                print(get())
        """)
        env = {k: v for k, v in os.environ.items()
               if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                            "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        env["OVERLAP_LAB_THREADS"] = "1"
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        if out.stdout.strip() == "absent":
            pytest.skip("numpy does not bundle scipy-openblas")
        assert out.stdout.strip() == "1"


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
            "eigen.csv": "829f8cf5fb8628408dba5fa7b44d6fe7"
                         "397da0e5a4462c817f7cd60c99963eb4",
            "pairs.csv": "e900e8b55409b52c746e3368d08acc8a"
                         "075190880676fb91049f3a1be02d791d"}

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
        # pair_rows is the last per-sample step of the sampling loop
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

    def test_o2_requires_pairs(self, tmp_path):
        out = run_sample(tmp_path, n=10, samples=3)
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "o2", "--in", str(out)])
        assert "--pair re1,im1,re2,im2" in str(exc.value)

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
            "o1": "a1cbf55da401e2d6f563a63716009e97"
                  "dbd5a8438eedcdb93c90feadd309d4ac",
            "o2": "755b23ab75f962199870e50151be6582"
                  "0eaf2b53077b0939774ece5b0b7d50cc",
            "hprod": "53fdd6fbf55abd401cc594687d15eaf9"
                     "a7729d30e7151f52dc1a1ddcf56e1258",
            "tracecov": "5c60abc108bf809e55831baea884576a"
                        "60326919182d33560846cb8f4e4b43f9"}

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
        k, pole = qsolver.ladder(rt, qsolver.solve_green(rt, z1),
                                 qsolver.solve_green(rt, z2))
        assert out[0] == f"pole,{pole}"
        vals = np.array([[float(v) for v in line.split(",")]
                         for line in out[1:]])
        assert np.array_equal(vals[:, 0::2] + 1j * vals[:, 1::2], k)


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
