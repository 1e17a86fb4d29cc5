"""Unit tests for the biorthogonal eigendecomposition and overlap matrix."""

import csv
import ctypes
import glob
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
import scipy.linalg

from overlap_lab import overlaps
from overlap_lab.ensembles import KINDS, EnsembleSpec, sample
from overlap_lab.numcore import RngStream
from overlap_lab.overlaps import (EigenSystem, MonteCarloLoop,
                                  NearDefectiveError, PairBlock,
                                  diagonal_overlaps,
                                  eig_biorthogonal, eig_with_overlaps,
                                  eigen_rows, overlap_matrix, pair_rows,
                                  write_eigen_csv, write_pairs_csv)


def ginibre(n, seed=0, stream=0):
    x, _ = sample(EnsembleSpec("ginibre", n), RngStream(seed, stream))
    return x


class TestEigBiorthogonal:
    def test_biorthogonality_and_completeness(self):
        es = eig_biorthogonal(ginibre(30))
        assert np.max(np.abs(es.left @ es.right - np.eye(es.n))) < 1e-8
        recon = sum(np.outer(es.right[:, k], es.left[k, :])
                    for k in range(es.n))
        assert np.max(np.abs(recon - np.eye(es.n))) < 1e-8

    def test_eigen_equation_residual(self):
        # the system is in the Schur basis X = Q T Q^H: QV and V^-1 Q^H
        # are the right and left eigenvectors of X
        x = ginibre(25)
        es = eig_biorthogonal(x)
        _, q = scipy.linalg.schur(x, output="complex")
        right, left = q @ es.right, es.left @ q.conj().T
        for k in range(es.n):
            lhs = x @ right[:, k]
            assert np.allclose(lhs, es.eigenvalues[k] * right[:, k],
                               atol=1e-10)
        recon = sum(np.outer(right[:, k], left[k, :]) for k in range(es.n))
        assert np.max(np.abs(recon - np.eye(es.n))) < 1e-10

    def test_lexicographic_order(self):
        es = eig_biorthogonal(ginibre(20))
        lam = es.eigenvalues
        key = np.lexsort((lam.imag, lam.real))
        assert np.array_equal(key, np.arange(es.n))

    def test_normal_matrix_unit_overlaps(self):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        h = h + h.conj().T
        es = eig_biorthogonal(h)
        assert np.allclose(diagonal_overlaps(es).real, 1.0, atol=1e-10)

    def test_jordan_block_raises(self):
        j = np.eye(6, k=1) + 0.5 * np.eye(6)
        with pytest.raises(NearDefectiveError):
            eig_biorthogonal(j)


# one setting per kind, as the benchmark's sum-rule group draws them
SCHUR_PARAMS = {
    "ginibre": {}, "elliptic": {"tau": 0.5},
    "induced_ginibre": {"alpha": 0.5},
    "truncated_unitary": {"kappa": 1.0}, "spherical": {},
    "product_ginibre": {}, "pseudo_hermitian_product": {},
    "quantum_scattering": {"gamma": 0.7},
}


class TestSchurRoute:
    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_eig_oracle(self, kind):
        # the back-transformed eigenvectors of np.linalg.eig and their
        # inverse give the same eigenvalues and overlaps
        x, _ = sample(EnsembleSpec(kind, 100, **SCHUR_PARAMS[kind]),
                      RngStream(1, 0))
        lam, r = np.linalg.eig(x)
        order = np.lexsort((lam.imag, lam.real))
        lam, r = lam[order], r[:, order]
        left = np.linalg.inv(r)
        oracle = (left @ left.conj().T) * (r.conj().T @ r).T
        es = eig_biorthogonal(x)
        o = overlap_matrix(es)
        assert np.max(np.abs(es.eigenvalues - lam)) <= 1e-12 * np.max(
            np.abs(lam))
        assert np.max(np.abs(o - oracle)) <= 1e-10 * np.max(np.abs(oracle))
        assert np.max(np.abs(o.sum(axis=1) - 1.0)) < 1e-10

    def test_singular_eigenvector_matrix_raises(self):
        # a nilpotent Jordan block's V has a diagonal entry that underflows
        with pytest.raises(NearDefectiveError, match="singular"):
            eig_biorthogonal(np.eye(3, k=1))

    def test_unconverged_schur_dropped_and_counted(self, monkeypatch):
        lapack = dict(overlaps._lapack())

        def unconverged(*args):
            lapack_zgees(*args)
            args[-1]._obj.value = 1  # info > 0: the QR iteration failed

        lapack_zgees, lapack["zgees"] = lapack["zgees"], unconverged
        xs = [ginibre(10, stream=k) for k in range(3)]
        monkeypatch.setattr(overlaps, "_lapack", lambda: lapack)
        loop = MonteCarloLoop(xs, eig_biorthogonal)
        assert list(loop) == []
        assert loop.n_dropped == 3

    def test_unexpected_prototype_raises(self, monkeypatch):
        prototypes = dict(overlaps._PROTOTYPES)
        prototypes["ztrtri"] = prototypes["ztrtri"].replace("int *)",
                                                            "long *)")
        monkeypatch.setattr(overlaps, "_PROTOTYPES", prototypes)
        with pytest.raises(ImportError, match="ztrtri"):
            overlaps._lapack.__wrapped__()

    def test_scipy_openblas_pool_has_one_thread(self):
        # its spinning threads would contend with numpy's BLAS pool
        overlaps._lapack()
        libs = glob.glob(os.path.join(
            os.path.dirname(os.path.dirname(scipy.__file__)), "scipy.libs",
            "libscipy_openblas*"))
        if not libs:
            pytest.skip("scipy does not bundle scipy-openblas")
        get = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads
        get.argtypes, get.restype = [], ctypes.c_int
        assert get() == 1

    def test_import_leaves_scipy_linalg_unloaded(self):
        # the LAPACK binding loads scipy.linalg on first use only
        src = os.path.dirname(os.path.dirname(overlaps.__file__))
        code = (f"import sys; sys.path.insert(0, {src!r}); "
                "import overlap_lab; "
                "assert 'scipy.linalg' not in sys.modules, 'loaded'")
        out = subprocess.run([sys.executable, "-c", code],
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr


class TestBlasThreads:
    @pytest.mark.parametrize("environ,threads", [
        ({}, 1),
        ({"OMP_NUM_THREADS": "3"}, 3),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "3"}, 2),
        ({"OVERLAP_LAB_THREADS": "1", "OPENBLAS_NUM_THREADS": "2"}, 1),
        ({"OVERLAP_LAB_THREADS": "", "OPENBLAS_NUM_THREADS": "2"}, 2),
    ])
    def test_first_variable_set_wins(self, environ, threads):
        assert overlaps._blas_threads(environ) == threads

    @pytest.mark.parametrize("value", ["0", "-1", "two", "1.5", " 2"])
    @pytest.mark.parametrize("var", ["OVERLAP_LAB_THREADS",
                                     "OPENBLAS_NUM_THREADS",
                                     "OMP_NUM_THREADS"])
    def test_malformed_count_raises(self, var, value):
        # a pure function of the mapping: no pool ever sees the value
        with pytest.raises(ValueError, match=var):
            overlaps._blas_threads({var: value})


class TestMonteCarloLoop:
    def test_window_of_two(self, monkeypatch):
        # sample k + 2 is pulled only after the caller has taken item k,
        # and items come back in pull order
        monkeypatch.setattr(overlaps, "WORKERS", 2)
        xs = [ginibre(10, stream=k) for k in range(6)]
        pulled = []

        def pulls():
            for k, x in enumerate(xs):
                pulled.append(k)
                yield x

        received, ahead = [], []
        for k, (es, o) in MonteCarloLoop(pulls(), eig_with_overlaps):
            received.append(k)
            ahead.append(len(pulled) - len(received))
            assert np.array_equal(es.eigenvalues,
                                  eig_biorthogonal(xs[k]).eigenvalues)
            assert np.array_equal(o, overlap_matrix(es))
        assert received == list(range(6))
        assert ahead == [1, 1, 1, 1, 1, 0]

    def test_early_stop_leaves_no_pool_thread(self, monkeypatch):
        monkeypatch.setattr(overlaps, "WORKERS", 2)
        systems = iter(MonteCarloLoop([ginibre(40, stream=k)
                                       for k in range(8)], eig_biorthogonal))
        next(systems)
        assert any(t.name.startswith("MonteCarloLoop")
                   for t in threading.enumerate())
        systems.close()
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("MonteCarloLoop")]


class TestOverlapMatrix:
    def test_row_sum_identity(self):
        es = eig_biorthogonal(ginibre(50))
        o = overlap_matrix(es)
        assert np.max(np.abs(o.sum(axis=1) - 1.0)) < 1e-9

    def test_diagonal_consistency(self):
        es = eig_biorthogonal(ginibre(30))
        o = overlap_matrix(es)
        d = diagonal_overlaps(es)
        assert np.allclose(np.diagonal(o), d, rtol=1e-10)
        assert np.all(d.real >= 1.0 - 1e-10)
        assert np.max(np.abs(d.imag)) < 1e-10

    def test_rescaling_invariance(self):
        x = ginibre(20)
        es = eig_biorthogonal(x)
        scales = np.exp(np.linspace(-1, 1, es.n) + 0.3j)
        es2 = EigenSystem(es.eigenvalues, es.right * scales[np.newaxis, :],
                          es.left / scales[:, np.newaxis], es.cond)
        assert np.allclose(overlap_matrix(es), overlap_matrix(es2),
                           rtol=1e-10)

    def test_unitary_conjugation_invariance(self):
        x = ginibre(20)
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((20, 20))
                            + 1j * rng.standard_normal((20, 20)))
        o1 = overlap_matrix(eig_biorthogonal(x))
        o2 = overlap_matrix(eig_biorthogonal(q @ x @ q.conj().T))
        assert np.allclose(o1, o2, atol=1e-8)

    def test_two_by_two_closed_form(self):
        # for N=2, O_12 = -|t|^2 / |l1-l2|^2 with |t|^2 from the Schur form
        x = ginibre(2, seed=4)
        es = eig_biorthogonal(x)
        l1, l2 = es.eigenvalues
        t2 = np.sum(np.abs(x) ** 2) - abs(l1) ** 2 - abs(l2) ** 2
        o = overlap_matrix(es)
        assert o[0, 1] == pytest.approx(-t2 / abs(l1 - l2) ** 2, rel=1e-10)
        assert o[0, 1] == pytest.approx(o[1, 0], rel=1e-10)


class TestCsvRows:
    def test_eigen_rows_and_csv(self, tmp_path):
        es = eig_biorthogonal(ginibre(6))
        rows = eigen_rows(3, es, diagonal_overlaps(es))
        assert len(rows) == 6
        assert rows.sample_id == 3
        path = tmp_path / "eigen.csv"
        write_eigen_csv(path, [rows], header_comment="tag abc")
        text = path.read_text().splitlines()
        assert text[0] == "# tag abc"
        assert text[1].startswith("sample_id,")
        assert len(text) == 2 + 6

    def test_pair_rows_filters(self, tmp_path):
        es = eig_biorthogonal(ginibre(8))
        o = overlap_matrix(es)
        all_rows = pair_rows(0, es, o)
        assert len(all_rows) == 8 * 7
        lam = es.eigenvalues
        dmin = np.median(np.abs(lam[:, None] - lam[None, :])[
            ~np.eye(8, dtype=bool)])
        kept = pair_rows(0, es, o, min_separation=dmin)
        assert 0 < len(kept) < len(all_rows)
        rng = np.random.default_rng(0)
        thinned = pair_rows(0, es, o, subsample=0.25, rng=rng)
        assert len(thinned) < len(all_rows)
        path = tmp_path / "pairs.csv"
        write_pairs_csv(path, [all_rows])
        assert len(path.read_text().splitlines()) == 1 + 56


# The per-row writers the block writers replace, kept as the byte reference.
def reference_eigen_rows(sample_id, es, overlaps_diag):
    lam = es.eigenvalues
    return [(sample_id, k, lam[k].real, lam[k].imag,
             float(overlaps_diag[k].real)) for k in range(es.n)]


def reference_pair_rows(sample_id, es, o, min_separation=0.0,
                        subsample=None, rng=None):
    lam = es.eigenvalues
    rows = []
    for k in range(es.n):
        for l in range(es.n):
            if k == l:
                continue
            if min_separation > 0 and abs(lam[k] - lam[l]) < min_separation:
                continue
            if subsample is not None and rng.random() > subsample:
                continue
            rows.append((sample_id, k, l,
                         lam[k].real, lam[k].imag, lam[l].real, lam[l].imag,
                         o[k, l].real, o[k, l].imag))
    return rows


def reference_csv(path, header, rows, header_comment):
    with open(path, "w", newline="") as fh:
        fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


class TestCsvBytes:
    """The block writers give the bytes of the per-row csv.writer loop."""

    def systems(self):
        # sample 1 is N=1: an eigen row but no pairs
        mats = [ginibre(9, stream=0), np.array([[0.3 - 0.2j]]),
                ginibre(2, seed=4), ginibre(12, stream=3)]
        return [(sid, eig_biorthogonal(x)) for sid, x in enumerate(mats)]

    def test_eigen_csv_bytes(self, tmp_path):
        blocks, rows = [], []
        for sid, es in self.systems():
            d = np.real(np.diagonal(overlap_matrix(es)))
            blocks.append(eigen_rows(sid, es, d))
            rows.extend(reference_eigen_rows(sid, es, d))
        write_eigen_csv(tmp_path / "new.csv", blocks, header_comment="tag")
        reference_csv(tmp_path / "ref.csv", ["sample_id", "k", "re_lambda",
                                             "im_lambda", "o_kk"],
                      rows, "tag")
        assert sum(map(len, blocks)) == len(rows) == 9 + 1 + 2 + 12
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())

    @pytest.mark.parametrize("kwargs", [
        {}, {"min_separation": 1.0}, {"subsample": 0.3},
        {"min_separation": 1.0, "subsample": 0.5}],
        ids=["all", "min_separation", "subsample", "both"])
    def test_pairs_csv_bytes(self, tmp_path, kwargs):
        rng_new = np.random.default_rng(11)
        rng_ref = np.random.default_rng(11)
        blocks, rows = [], []
        for sid, es in self.systems():
            o = overlap_matrix(es)
            blocks.append(pair_rows(sid, es, o, rng=rng_new, **kwargs))
            rows.extend(reference_pair_rows(sid, es, o, rng=rng_ref,
                                            **kwargs))
        assert len(blocks[1]) == 0
        self.assert_pairs_bytes(tmp_path, blocks, rows)
        # both generators consumed the same number of draws
        assert rng_new.random() == rng_ref.random()

    @staticmethod
    def assert_pairs_bytes(tmp_path, blocks, rows):
        write_pairs_csv(tmp_path / "new.csv", blocks, header_comment="tag")
        reference_csv(tmp_path / "ref.csv", [
            "sample_id", "k", "l", "re_lambda_k", "im_lambda_k",
            "re_lambda_l", "im_lambda_l", "re_o_kl", "im_o_kl"], rows, "tag")
        assert sum(map(len, blocks)) == len(rows) > 0
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())

    @staticmethod
    def block_rows(block):
        """The per-row writer's rows of any block, in the block's order."""
        lam = block.eigenvalues.tolist()
        return [(block.sample_id, k, l, lam[k].real, lam[k].imag,
                 lam[l].real, lam[l].imag, o.real, o.imag)
                for k, l, o in zip(block.k.tolist(), block.l.tolist(),
                                   block.o_kl.tolist())]

    def test_pairs_csv_bytes_special_values(self, tmp_path):
        # mirrors that are not the bitwise conjugate, and values whose
        # text a sign flip would get wrong, next to exact conjugates
        es = eig_biorthogonal(ginibre(6, stream=5))
        o = overlap_matrix(es)
        nan, inf, tiny = float("nan"), float("inf"), 5e-324
        entries = {
            # real part one ulp off
            (0, 1): complex(np.nextafter(o[0, 1].real, inf), -o[0, 1].imag),
            # equal, not conjugate: +0.0 against +0.0
            (0, 2): (0.5 + 0j, 0.5 + 0j),
            # exact conjugates around zero and a subnormal
            (0, 3): (complex(0.25, 0.0), complex(0.25, -0.0)),
            (1, 2): (complex(-0.0, tiny), complex(-0.0, -tiny)),
            # bitwise conjugates that hold a NaN or an infinity
            (1, 3): (complex(1.0, nan), complex(1.0, -nan)),
            (1, 4): (complex(-nan, 2.0), complex(-nan, -2.0)),
            (2, 3): (complex(inf, -inf), complex(inf, inf)),
            (2, 4): (complex(-inf, 0.0), complex(-inf, -0.0)),
            # imaginary part one ulp off
            (3, 4): (complex(3.0, 1e-300),
                     complex(3.0, np.nextafter(-1e-300, 0.0))),
        }
        for (k, l), value in entries.items():
            if isinstance(value, tuple):
                o[k, l], o[l, k] = value
            else:
                o[l, k] = value
        assert np.signbit(o[3, 1].imag) and np.signbit(o[4, 1].real)
        self.assert_pairs_bytes(tmp_path, [pair_rows(0, es, o)],
                                reference_pair_rows(0, es, o))

    def test_pairs_csv_bytes_hand_built_blocks(self, tmp_path):
        # rows out of row-major order, with diagonal rows, a repeated row
        # and pairs without their mirror; then a block whose o is not
        # Hermitian at all
        es = eig_biorthogonal(ginibre(7, stream=2))
        o = overlap_matrix(es)
        k, l = np.nonzero(np.ones((7, 7), dtype=bool))
        pick = np.random.default_rng(5).permutation(len(k))[:35]
        k, l = np.append(k[pick], k[pick[0]]), np.append(l[pick], l[pick[0]])
        blocks = [PairBlock(2, es.eigenvalues, k, l, o[k, l]),
                  PairBlock(3, es.eigenvalues, l, k,
                            (o * (1 + 1e-3j))[l, k])]
        assert np.any(k == l) and np.any(np.diff(k * 7 + l) < 0)
        rows = [r for b in blocks for r in self.block_rows(b)]
        self.assert_pairs_bytes(tmp_path, blocks, rows)

    def test_pairs_csv_formats_each_mirror_pair_once(self, tmp_path,
                                                     monkeypatch):
        # O of a real decomposition is bitwise Hermitian off the diagonal,
        # so the writer formats n(n-1) overlap floats, not 2n(n-1).  (The
        # BLAS products leave about a quarter of the pairs one ulp apart
        # at n = 10, where those pairs fall back to repr.)
        n = 12
        es = eig_biorthogonal(ginibre(n, stream=1))
        o = overlap_matrix(es)
        off = ~np.eye(n, dtype=bool)
        assert np.array_equal(o[off].view(np.uint64),
                              o.T.conj()[off].view(np.uint64))
        calls = []

        def counting_repr(value):
            calls.append(value)
            return repr(value)

        monkeypatch.setattr(overlaps, "repr", counting_repr, raising=False)
        self.assert_pairs_bytes(tmp_path, [pair_rows(0, es, o)],
                                reference_pair_rows(0, es, o))
        assert len(calls) == n * (n - 1)
