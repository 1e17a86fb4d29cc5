"""Biorthogonal eigendecomposition and Chalker-Mehlig overlap matrices.

The left eigenvectors are obtained by inverting the right-eigenvector
matrix, so biorthogonality ``<L_i|R_j> = delta_ij`` and completeness
``sum_k R_k L_k = 1`` hold by construction up to inversion error.  As a
consequence the row-sum identity ``sum_l O_kl = 1`` is exact per matrix
and serves as the main numerical self-check.

:class:`EigenSystems` is the Monte Carlo loop of the package: the
estimators and ``overlap-lab sample`` pull their samples through it, so
a near-defective draw is dropped and counted in one place.

The CSV writers take per-sample column blocks (:class:`EigenBlock`,
:class:`PairBlock`) and format them in one pass.  The layout of
eigen.csv and pairs.csv is the one ``csv.writer`` gives for row tuples
(shortest round-trip float text, ``\\r\\n`` row ends), so the bytes are
those of a per-row writer loop.
"""

import csv
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenSystem",
    "NearDefectiveError",
    "eig_biorthogonal",
    "overlap_matrix",
    "diagonal_overlaps",
    "EigenSystems",
    "iter_samples",
    "write_eigen_csv",
    "write_pairs_csv",
]

COND_LIMIT = 1e12  # near-defective bound, also the spherical sampler's


class NearDefectiveError(np.linalg.LinAlgError):
    """Eigenvector matrix too ill-conditioned for trustworthy overlaps."""


@dataclass
class EigenSystem:
    """Eigenvalues with biorthogonal right/left eigenvector sets.

    ``right[:, k]`` is the k-th right eigenvector (column), ``left[k, :]``
    the k-th left eigenvector (row).  ``cond`` estimates the condition
    number of the right-eigenvector matrix and ``residual`` the largest
    eigenequation residual relative to ``||X||``.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    cond: float
    residual: float

    @property
    def n(self):
        return len(self.eigenvalues)

    def biorthogonality_residual(self):
        return float(np.max(np.abs(self.left @ self.right - np.eye(self.n))))


def eig_biorthogonal(x):
    """Eigendecompose a complex matrix into a biorthogonal system.

    Eigenvalues are sorted lexicographically by (Re, Im) for
    reproducibility.  A condition estimate of the right-eigenvector
    matrix above ``COND_LIMIT`` flags the sample as near-defective;
    callers typically drop such samples and count them.
    """
    x = np.asarray(x, dtype=complex)
    lam, r = np.linalg.eig(x)
    order = np.lexsort((lam.imag, lam.real))
    lam = lam[order]
    r = r[:, order]
    cond = float(np.linalg.cond(r))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise NearDefectiveError(
            f"eigenvector condition estimate {cond:.3g} above limit")
    left = np.linalg.inv(r)
    norm = np.linalg.norm(x, 2)
    res_r = np.max(np.abs(x @ r - r * lam[np.newaxis, :]))
    res_l = np.max(np.abs(left @ x - lam[:, np.newaxis] * left))
    residual = float(max(res_r, res_l) / max(norm, 1.0))
    return EigenSystem(lam, r, left, cond, residual)


def overlap_matrix(es):
    """Full overlap matrix O_kl = <L_k|L_l><R_l|R_k>.

    Row sums obey ``sum_l O_kl = 1`` exactly (up to inversion error), a
    direct consequence of completeness.
    """
    a = es.left @ es.left.conj().T      # a[k, l] = <L_k|L_l>
    b = es.right.conj().T @ es.right    # b[l, k] = <R_l|R_k>
    return a * b.T


def diagonal_overlaps(es):
    """Diagonal overlaps O_kk = |L_k|^2 |R_k|^2 (squared condition numbers)."""
    ln = np.sum(np.abs(es.left) ** 2, axis=1)
    rn = np.sum(np.abs(es.right) ** 2, axis=0)
    return ln * rn


def iter_samples(samples):
    """Yield ``(index, matrix, info)`` for each item of ``samples``.

    Items are bare matrices, indexed by position with empty ``info``,
    or ``(index, matrix, info)`` triples as produced by
    :func:`overlap_lab.ensembles.sample_many`.
    """
    for i, item in enumerate(samples):
        yield item if isinstance(item, tuple) else (i, item, {})


class EigenSystems:
    """Decomposes samples one at a time: yields ``(index, es, overlaps)``.

    Each sample is pulled only after the previous one's item has been
    consumed.  The third item is the :func:`overlap_matrix` of ``es``
    when the caller sets ``overlaps``, else ``None``.  Near-defective
    draws are dropped and counted in ``n_dropped``, whether or not an
    accepted sample follows them; ``rejections`` sums the samplers'
    reported ``info["rejections"]``.
    """

    def __init__(self, samples, overlaps=False):
        self.samples = samples
        self.overlaps = overlaps
        self.n_dropped = 0
        self.rejections = 0

    def __iter__(self):
        for k, x, info in iter_samples(self.samples):
            self.rejections += info.get("rejections", 0)
            try:
                es = eig_biorthogonal(x)
            except NearDefectiveError:
                self.n_dropped += 1
                continue
            yield k, es, overlap_matrix(es) if self.overlaps else None


@dataclass(frozen=True, eq=False)
class EigenBlock:
    """The eigen.csv rows of one sample, held as columns."""

    sample_id: int
    eigenvalues: np.ndarray
    o_kk: np.ndarray

    def __len__(self):
        return len(self.eigenvalues)


@dataclass(frozen=True, eq=False)
class PairBlock:
    """The pairs.csv rows of one sample: row i is the pair ``(k[i], l[i])``."""

    sample_id: int
    eigenvalues: np.ndarray
    k: np.ndarray
    l: np.ndarray
    o_kl: np.ndarray

    def __len__(self):
        return len(self.k)


def _write_header(fh, header_comment, columns):
    if header_comment:
        fh.write(f"# {header_comment}\n")
    csv.writer(fh).writerow(columns)


def _coordinates(lam):
    """The ``re,im`` text of each eigenvalue, as the csv module writes it."""
    return [f"{re!r},{im!r}"
            for re, im in zip(lam.real.tolist(), lam.imag.tolist())]


def write_eigen_csv(path, rows, header_comment=None):
    """Write :func:`eigen_rows` blocks to eigen.csv.

    Columns: sample_id, k, re_lambda, im_lambda, o_kk.
    """
    with open(path, "w", newline="") as fh:
        _write_header(fh, header_comment, ["sample_id", "k", "re_lambda",
                                           "im_lambda", "o_kk"])
        for block in rows:
            fh.writelines(
                f"{block.sample_id},{k},{xy},{o!r}\r\n"
                for k, (xy, o) in enumerate(zip(
                    _coordinates(block.eigenvalues), block.o_kk.tolist())))


def write_pairs_csv(path, rows, header_comment=None):
    """Write :func:`pair_rows` blocks to pairs.csv.

    Columns: sample_id, k, l, re_lambda_k, im_lambda_k, re_lambda_l,
    im_lambda_l, re_o_kl, im_o_kl.  Each eigenvalue's coordinates are
    formatted once per sample; only the overlap is formatted per row.
    """
    with open(path, "w", newline="") as fh:
        _write_header(fh, header_comment,
                      ["sample_id", "k", "l", "re_lambda_k", "im_lambda_k",
                       "re_lambda_l", "im_lambda_l", "re_o_kl", "im_o_kl"])
        for block in rows:
            xy = _coordinates(block.eigenvalues)
            fh.writelines(
                f"{block.sample_id},{k},{l},{xy[k]},{xy[l]},{re!r},{im!r}\r\n"
                for k, l, re, im in zip(block.k.tolist(), block.l.tolist(),
                                        block.o_kl.real.tolist(),
                                        block.o_kl.imag.tolist()))


def eigen_rows(sample_id, es, overlaps_diag=None):
    """The :func:`write_eigen_csv` block of one eigensystem."""
    if overlaps_diag is None:
        overlaps_diag = diagonal_overlaps(es)
    return EigenBlock(sample_id, es.eigenvalues, np.real(overlaps_diag))


def pair_rows(sample_id, es, o=None, min_separation=0.0, subsample=None,
              rng=None):
    """The :func:`write_pairs_csv` block of one eigensystem, optionally thinned.

    Pairs ``k != l`` are taken in row-major order.  ``min_separation``
    drops pairs closer than the given eigenvalue distance; ``subsample``
    keeps each remaining pair with the given probability (requires
    ``rng``), drawing one uniform per candidate pair in that order.
    """
    if o is None:
        o = overlap_matrix(es)
    lam = es.eigenvalues
    k, l = np.nonzero(~np.eye(es.n, dtype=bool))
    # the masks negate the drop conditions, so a NaN is kept, not dropped
    if min_separation > 0:
        keep = ~(np.abs(lam[k] - lam[l]) < min_separation)
        k, l = k[keep], l[keep]
    if subsample is not None:
        keep = ~(rng.random(len(k)) > subsample)
        k, l = k[keep], l[keep]
    return PairBlock(sample_id, lam, k, l, o[k, l])
