"""Biorthogonal eigendecomposition and Chalker-Mehlig overlap matrices.

The left eigenvectors are obtained by inverting the right-eigenvector
matrix, so biorthogonality ``<L_i|R_j> = delta_ij`` and completeness
``sum_k R_k L_k = 1`` hold by construction up to inversion error.  As a
consequence the row-sum identity ``sum_l O_kl = 1`` is exact per matrix
and serves as the main numerical self-check.

:class:`MonteCarloLoop` is the Monte Carlo loop of the package: every
estimator and ``overlap-lab sample`` pull their samples through it, so
a near-defective draw is dropped and counted in one place.  It runs a
per-sample function given by the caller (a decomposition, a pair of
resolvents, word traces) on a bounded window of ``WORKERS`` samples in
flight on a thread pool and hands the results back in pull order; the
functions are pure, so the window changes no result.  The window
overlaps only work that releases the GIL: ``np.linalg.eig``, ``inv`` and
the BLAS products, which make up :func:`eig_biorthogonal`,
:func:`eig_with_overlaps`, the resolvent pair and the word traces.  Not
all of LAPACK does: ``np.linalg.eigvals``, ``np.linalg.cond`` (the SVD
that :func:`eig_biorthogonal` runs past its bound) and the
``scipy.linalg.lapack`` wrappers hold the GIL, and two threads of them
ran at 0.85-0.91x the throughput of one (N = 100, one BLAS thread,
2 cores) against 1.7-1.9x for ``np.linalg.eig``.  ``WORKERS`` is the
number of usable cores divided by the BLAS thread count
(``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``, else all cores), so
an unpinned BLAS gets one worker.

The CSV writers take per-sample column blocks (:class:`EigenBlock`,
:class:`PairBlock`) and format them in one pass.  The layout of
eigen.csv and pairs.csv is the one ``csv.writer`` gives for row tuples
(shortest round-trip float text, ``\\r\\n`` row ends), so the bytes are
those of a per-row writer loop.
"""

import collections
import csv
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = [
    "EigenSystem",
    "NearDefectiveError",
    "eig_biorthogonal",
    "overlap_matrix",
    "diagonal_overlaps",
    "eig_with_overlaps",
    "MonteCarloLoop",
    "write_eigen_csv",
    "write_pairs_csv",
]

COND_LIMIT = 1e12  # near-defective bound, also the spherical sampler's


def _workers():
    """Usable cores divided by the BLAS threads each decomposition uses."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    blas = (os.environ.get("OPENBLAS_NUM_THREADS")
            or os.environ.get("OMP_NUM_THREADS"))
    try:
        threads = int(blas)
    except (TypeError, ValueError):
        threads = cores
    return max(1, cores // max(threads, 1))


WORKERS = _workers()  # samples in flight in one MonteCarloLoop


class NearDefectiveError(np.linalg.LinAlgError):
    """Eigenvector matrix too ill-conditioned for trustworthy overlaps."""


@dataclass
class EigenSystem:
    """Eigenvalues with biorthogonal right/left eigenvector sets.

    ``right[:, k]`` is the k-th right eigenvector (column), ``left[k, :]``
    the k-th left eigenvector (row).  ``cond`` bounds the 2-norm
    condition number of the right-eigenvector matrix from above by
    ``||R||_F ||L||_F``; where that bound exceeds ``COND_LIMIT`` it is
    the exact 2-norm condition number.  ``residual`` is the largest
    eigenequation residual relative to the Frobenius norm ``||X||_F``.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    cond: float
    residual: float

    @property
    def n(self):
        return len(self.eigenvalues)


def eig_biorthogonal(x):
    """Eigendecompose a complex matrix into a biorthogonal system.

    Eigenvalues are sorted lexicographically by (Re, Im) for
    reproducibility.  A 2-norm condition number of the right-eigenvector
    matrix above ``COND_LIMIT`` flags the sample as near-defective;
    callers typically drop such samples and count them, as they do a
    singular one.  The SVD behind that number runs only where the bound
    ``||R||_F ||R^-1||_F`` exceeds the limit, so the drop decision is the
    SVD's alone.
    """
    x = np.asarray(x, dtype=complex)
    lam, r = np.linalg.eig(x)
    order = np.lexsort((lam.imag, lam.real))
    lam = lam[order]
    r = r[:, order]
    try:
        left = np.linalg.inv(r)
    except np.linalg.LinAlgError:
        raise NearDefectiveError("singular eigenvector matrix") from None
    # a near-singular r overflows the bound to inf; the SVD decides then
    with np.errstate(over="ignore", invalid="ignore"):
        cond = float(np.linalg.norm(r) * np.linalg.norm(left))
    if not cond <= COND_LIMIT:
        cond = float(np.linalg.cond(r))
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise NearDefectiveError(
                f"eigenvector condition estimate {cond:.3g} above limit")
    norm = np.linalg.norm(x)
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


def eig_with_overlaps(x):
    """:func:`eig_biorthogonal` of ``x`` and its :func:`overlap_matrix`."""
    es = eig_biorthogonal(x)
    return es, overlap_matrix(es)


class MonteCarloLoop:
    """Runs ``work`` on samples on a thread pool: yields ``(index, work(x))``.

    Samples are bare matrices, indexed by position, or ``(index, matrix,
    info)`` triples from :func:`overlap_lab.ensembles.sample_many`.  Up to
    ``WORKERS`` samples are worked on at once.  Sample ``k + WORKERS`` is
    pulled only after the caller has taken the item of sample ``k``, and
    items come back in pull order, so with one worker each sample is
    pulled only after the previous one's item has been consumed.  A
    sample whose ``work`` raises :class:`NearDefectiveError` is dropped
    and counted in ``n_dropped``, whether or not an accepted sample
    follows it; ``rejections`` sums the samplers' ``info["rejections"]``.
    Closing the iterator early cancels the pending work and waits for the
    running work.
    """

    def __init__(self, samples, work):
        self.samples = samples
        self.work = work
        self.n_dropped = 0
        self.rejections = 0

    def __iter__(self):
        pool = ThreadPoolExecutor(WORKERS, thread_name_prefix="MonteCarloLoop")
        pending = collections.deque()
        try:
            for i, item in enumerate(self.samples):
                k, x, info = item if isinstance(item, tuple) else (i, item, {})
                self.rejections += info.get("rejections", 0)
                pending.append((k, pool.submit(self.work, x)))
                if len(pending) == WORKERS:
                    yield from self._settle(*pending.popleft())
            while pending:
                yield from self._settle(*pending.popleft())
        finally:
            pool.shutdown(cancel_futures=True)

    def _settle(self, k, future):
        try:
            result = future.result()
        except NearDefectiveError:
            self.n_dropped += 1
            return
        yield k, result


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


def eigen_rows(sample_id, es, overlaps_diag):
    """The :func:`write_eigen_csv` block of one eigensystem."""
    return EigenBlock(sample_id, es.eigenvalues, np.real(overlaps_diag))


def pair_rows(sample_id, es, o, min_separation=0.0, subsample=None,
              rng=None):
    """The :func:`write_pairs_csv` block of one eigensystem, optionally thinned.

    Pairs ``k != l`` are taken in row-major order.  ``min_separation``
    drops pairs closer than the given eigenvalue distance; ``subsample``
    keeps each remaining pair with the given probability (requires
    ``rng``), drawing one uniform per candidate pair in that order.
    """
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
