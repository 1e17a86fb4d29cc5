"""Unit tests for the biorthogonal eigendecomposition and overlap matrix."""

import csv

import numpy as np
import pytest

from overlap_lab.ensembles import EnsembleSpec, sample
from overlap_lab.numcore import RngStream
from overlap_lab.overlaps import (EigenSystem, NearDefectiveError,
                                  diagonal_overlaps, eig_biorthogonal,
                                  eigen_rows, overlap_matrix, pair_rows,
                                  write_eigen_csv, write_pairs_csv)


def ginibre(n, seed=0, stream=0):
    x, _ = sample(EnsembleSpec("ginibre", n), RngStream(seed, stream))
    return x


class TestEigBiorthogonal:
    def test_biorthogonality_and_completeness(self):
        es = eig_biorthogonal(ginibre(30))
        assert es.biorthogonality_residual() < 1e-8
        recon = sum(np.outer(es.right[:, k], es.left[k, :])
                    for k in range(es.n))
        assert np.max(np.abs(recon - np.eye(es.n))) < 1e-8

    def test_eigen_equation_residual(self):
        x = ginibre(25)
        es = eig_biorthogonal(x)
        assert es.residual < 1e-10
        for k in range(es.n):
            lhs = x @ es.right[:, k]
            assert np.allclose(lhs, es.eigenvalues[k] * es.right[:, k],
                               atol=1e-10)

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
                          es.left / scales[:, np.newaxis], es.cond,
                          es.residual)
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
        rows = eigen_rows(3, es)
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
        all_rows = pair_rows(0, es)
        assert len(all_rows) == 8 * 7
        lam = es.eigenvalues
        dmin = np.median(np.abs(lam[:, None] - lam[None, :])[
            ~np.eye(8, dtype=bool)])
        kept = pair_rows(0, es, min_separation=dmin)
        assert 0 < len(kept) < len(all_rows)
        rng = np.random.default_rng(0)
        thinned = pair_rows(0, es, subsample=0.25, rng=rng)
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
        write_pairs_csv(tmp_path / "new.csv", blocks, header_comment="tag")
        reference_csv(tmp_path / "ref.csv", [
            "sample_id", "k", "l", "re_lambda_k", "im_lambda_k",
            "re_lambda_l", "im_lambda_l", "re_o_kl", "im_o_kl"], rows, "tag")
        assert sum(map(len, blocks)) == len(rows) > 0
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "ref.csv").read_bytes())
        # both generators consumed the same number of draws
        assert rng_new.random() == rng_ref.random()
