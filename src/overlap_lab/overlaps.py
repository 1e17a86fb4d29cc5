"""Biorthogonal eigendecomposition and Chalker-Mehlig overlap matrices.

The overlap matrix does not change under a unitary change of basis, so
:func:`eig_biorthogonal` works in the Schur basis X = Q T Q^H and never
forms Q: the eigenvalues are diag T, the right eigenvectors are T's
eigenvectors V and the left ones are the rows of V^-1, which LAPACK
inverts as a triangular matrix.  Biorthogonality ``<L_i|R_j> = delta_ij``
and completeness ``sum_k R_k L_k = 1`` hold by construction up to
inversion error.  As a consequence the row-sum identity ``sum_l O_kl =
1`` is exact per matrix and is the decomposition's numerical self-check.

:class:`MonteCarloLoop` is the Monte Carlo loop of the package: every
estimator and ``overlap-lab sample`` pull their samples through it, so
a near-defective draw is dropped and counted in one place.  It runs a
per-sample function given by the caller (a decomposition, a pair of
resolvents, word traces) on a bounded window of ``WORKERS`` samples in
flight on a thread pool and hands the results back in pull order; the
functions are pure, so the window changes no result.  The window
overlaps only work that releases the GIL.  The decomposition calls
LAPACK's ``zgees``, ``ztrevc`` and ``ztrtri`` through ctypes, which
drops the GIL for every foreign call, and ``np.linalg.inv`` and the
BLAS products release it too; so :func:`eig_biorthogonal`,
:func:`eig_with_overlaps`, the resolvent pair and the word traces run
on both cores.  Not all of LAPACK does: ``np.linalg.eigvals``,
``np.linalg.cond`` (the SVD that :func:`eig_biorthogonal` runs past its
bound) and the ``scipy.linalg.lapack`` wrappers hold the GIL, and two
threads of them ran at 0.85-0.91x the throughput of one (N = 100, one
BLAS thread, 2 cores) against 1.7-1.9x for ``np.linalg.eig``.
The BLAS thread count is ``OVERLAP_LAB_THREADS``, else
``OPENBLAS_NUM_THREADS``, else ``OMP_NUM_THREADS``, else 1.  Importing
this module sets the pool of numpy's bundled OpenBLAS to it, whatever
was imported first, and ``WORKERS`` is the number of usable cores
divided by it.  The first decomposition sets scipy's bundled OpenBLAS,
which runs only its LAPACK calls, to one thread; builds without those
libraries keep their own settings.

The CSV writers take per-sample column blocks (:class:`EigenBlock`,
:class:`PairBlock`) and format them in one pass.  The layout of
eigen.csv and pairs.csv is the one ``csv.writer`` gives for row tuples
(shortest round-trip float text, ``\\r\\n`` row ends), so the bytes are
those of a per-row writer loop.  Most of the cost of pairs.csv is
``repr`` of its overlaps, and it pays for one float per row: O is
Hermitian, so a row (k, l) with k > l reuses the text of its mirror row
(l, k) where the mirror's overlap is bitwise the conjugate of its own.
"""

import collections
import csv
import ctypes
import functools
import glob
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


def _blas_threads(environ):
    """The BLAS thread count of the rule above, read from the mapping
    ``environ``; a value that is not a positive integer raises ValueError."""
    for var in ("OVERLAP_LAB_THREADS", "OPENBLAS_NUM_THREADS",
                "OMP_NUM_THREADS"):
        value = environ.get(var)
        if value:
            if not value.isdecimal() or int(value) < 1:
                raise ValueError(f"{var}={value!r} is not a positive integer")
            return int(value)
    return 1


def _workers(threads):
    """Usable cores divided by the BLAS threads each decomposition uses."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return max(1, cores // threads)


def _set_openblas_threads(package, symbol, threads):
    """Set the pool of the OpenBLAS bundled with ``package``'s wheel, which
    starts with a thread per core, to ``threads`` by its C function
    ``symbol``."""
    libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                        f"{package.__name__}.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        set_threads = getattr(ctypes.CDLL(path), symbol, None)
        if set_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(threads)


_BLAS_THREADS = _blas_threads(os.environ)  # numpy's OpenBLAS pool
WORKERS = _workers(_BLAS_THREADS)  # samples in flight in one MonteCarloLoop
# numpy has loaded its OpenBLAS already, so this loads nothing
_set_openblas_threads(np, "scipy_openblas_set_num_threads64_", _BLAS_THREADS)


class NearDefectiveError(np.linalg.LinAlgError):
    """Eigenvector matrix too ill-conditioned for trustworthy overlaps."""


@dataclass
class EigenSystem:
    """Eigenvalues with biorthogonal right/left eigenvector sets.

    The vectors are in the Schur basis of X = Q T Q^H: ``right[:, k]`` is
    the k-th eigenvector of T (a column of unit 2-norm), ``left[k, :]``
    the k-th row of ``right``'s inverse, and X's own eigenvectors are
    ``Q @ right`` and ``left @ Q^H``.  Overlaps, being invariant under
    unitary changes of basis, are those of X.  ``cond`` bounds the 2-norm
    condition number of the right-eigenvector matrix from above by
    ``||R||_F ||L||_F``; where that bound exceeds ``COND_LIMIT`` it is
    the exact 2-norm condition number.  Both are the same in either
    basis.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    cond: float

    @property
    def n(self):
        return len(self.eigenvalues)


# C prototypes of the scipy.linalg.cython_lapack capsules that _lapack
# binds, with Cython's type-name prefixes taken out
_PROTOTYPES = {
    "zgees": "void (char *, char *, zselect1 *, int *, double_complex *, "
             "int *, int *, double_complex *, double_complex *, int *, "
             "double_complex *, int *, d *, int *, int *)",
    "ztrevc": "void (char *, char *, int *, int *, double_complex *, int *, "
              "double_complex *, int *, double_complex *, int *, int *, "
              "int *, double_complex *, d *, int *)",
    "ztrtri": "void (char *, char *, int *, double_complex *, int *, int *)",
}
_CYTHON_PREFIXES = ("__pyx_t_5scipy_6linalg_13cython_lapack_", "__pyx_t_")


@functools.cache
def _lapack():
    """``zgees``, ``ztrevc`` and ``ztrtri`` of scipy's LAPACK as ctypes
    functions, which release the GIL for the duration of the call.

    Bound on first use, so that importing the package does not load
    ``scipy.linalg``.  A capsule whose C prototype is not the expected one
    raises ImportError instead of being called with the wrong arguments.
    """
    import scipy
    from scipy.linalg import cython_lapack

    # private function objects: the shared ctypes.pythonapi ones keep
    # whatever argument types other code gave them
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(
        ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    funcs = {}
    for name, expected in _PROTOTYPES.items():
        capsule = cython_lapack.__pyx_capi__[name]
        raw = get_name(capsule)
        prototype = raw.decode()
        for prefix in _CYTHON_PREFIXES:
            prototype = prototype.replace(prefix, "")
        if prototype != expected:
            raise ImportError(f"scipy.linalg.cython_lapack.{name} has the "
                              f"prototype {prototype!r}, not {expected!r}")
        # every argument is a pointer
        signature = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p]
                                     * (expected.count(",") + 1))
        funcs[name] = signature(get_pointer(capsule, raw))
    # zgees gains nothing from a second thread at N = 100-200, and idle
    # pool threads spin: with both pools at two threads on 2 cores,
    # criterion #02 ran 2.4x slower than with scipy's at one
    _set_openblas_threads(scipy, "scipy_openblas_set_num_threads", 1)
    return funcs


def _schur(x):
    """The upper triangular Schur factor T of ``x`` (Fortran order).

    ``zgees`` without Schur vectors; it balances by permutation only, a
    unitary change of basis, so T has the eigenvalues and overlaps of x.
    """
    t = np.array(x, dtype=complex, order="F")
    n, sdim, info = ctypes.c_int(len(t)), ctypes.c_int(), ctypes.c_int()
    w, rwork = np.empty(n.value, complex), np.empty(n.value)
    bwork = np.empty(n.value, np.intc)

    def zgees(work, lwork):
        _lapack()["zgees"](
            b"N", b"N", None, ctypes.byref(n), t.ctypes.data, ctypes.byref(n),
            ctypes.byref(sdim), w.ctypes.data, None,
            ctypes.byref(ctypes.c_int(1)), work.ctypes.data,
            ctypes.byref(ctypes.c_int(lwork)), rwork.ctypes.data,
            bwork.ctypes.data, ctypes.byref(info))

    work = np.empty(1, complex)
    zgees(work, -1)  # workspace query
    work = np.empty(max(int(work[0].real), 1), complex)
    zgees(work, len(work))
    if info.value:
        raise NearDefectiveError(f"zgees failed to converge (info "
                                 f"{info.value})")
    return t


def _triangular_eigenvectors(t):
    """Unit 2-norm eigenvectors V of an upper triangular ``t`` and V^-1.

    V is upper triangular (``ztrevc``, no back-transform); ``ztrtri``
    inverts it in place of a copy.
    """
    funcs = _lapack()
    n, m, info = ctypes.c_int(len(t)), ctypes.c_int(), ctypes.c_int()
    v = np.empty(t.shape, complex, order="F")
    work, rwork = np.empty(2 * n.value, complex), np.empty(n.value)
    funcs["ztrevc"](b"R", b"A", None, ctypes.byref(n), t.ctypes.data,
                    ctypes.byref(n), None, ctypes.byref(n), v.ctypes.data,
                    ctypes.byref(n), ctypes.byref(n), ctypes.byref(m),
                    work.ctypes.data, rwork.ctypes.data, ctypes.byref(info))
    v /= np.linalg.norm(v, axis=0)
    v_inv = v.copy(order="F")
    funcs["ztrtri"](b"U", b"N", ctypes.byref(n), v_inv.ctypes.data,
                    ctypes.byref(n), ctypes.byref(info))
    if info.value > 0:
        raise NearDefectiveError("singular eigenvector matrix")
    return v, v_inv


def eig_biorthogonal(x):
    """Eigendecompose a complex matrix into a biorthogonal system.

    Works in the Schur basis: X = Q T Q^H with T upper triangular, V the
    eigenvectors of T and the system (diag T, V, V^-1); Q is never formed
    (see :class:`EigenSystem`).  Eigenvalues are sorted lexicographically
    by (Re, Im) for reproducibility.  A 2-norm condition number of the
    eigenvector matrix above ``COND_LIMIT`` flags the sample as
    near-defective; callers typically drop such samples and count them,
    as they do a singular one or a Schur factorisation that does not
    converge.  Since Q is unitary, cond(V) = cond(QV).  The SVD behind
    that number runs only where the bound ``||V||_F ||V^-1||_F`` exceeds
    the limit, so the drop decision is the SVD's alone.
    """
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise np.linalg.LinAlgError("expected a square matrix")
    if not np.isfinite(x).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    t = _schur(x)
    lam = np.diagonal(t).copy()
    v, v_inv = _triangular_eigenvectors(t)
    order = np.lexsort((lam.imag, lam.real))
    lam, right, left = lam[order], v[:, order], v_inv[order, :]
    # a near-singular v overflows the bound to inf; the SVD decides then
    with np.errstate(over="ignore", invalid="ignore"):
        cond = float(np.linalg.norm(right) * np.linalg.norm(left))
    if not cond <= COND_LIMIT:
        cond = float(np.linalg.cond(right))
        if not np.isfinite(cond) or cond > COND_LIMIT:
            raise NearDefectiveError(
                f"eigenvector condition estimate {cond:.3g} above limit")
    return EigenSystem(lam, right, left, cond)


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
    im_lambda_l, re_o_kl, im_o_kl.
    """
    with open(path, "w", newline="") as fh:
        _write_header(fh, header_comment,
                      ["sample_id", "k", "l", "re_lambda_k", "im_lambda_k",
                       "re_lambda_l", "im_lambda_l", "re_o_kl", "im_o_kl"])
        for block in rows:
            fh.writelines(_pairs_text(block))


# rows joined per write; joining a whole block (about 1.3 MB of text at
# N = 100) doubles the writer's transient memory and is no faster
_ROWS_PER_WRITE = 1024


def _pairs_text(block):
    """Yield the pairs.csv rows of one :class:`PairBlock` as strings of
    ``_ROWS_PER_WRITE`` rows.

    Each eigenvalue's coordinates are formatted once.  A row (k, l) with
    k > l whose mirror row (l, k) is in the block and holds bitwise the
    conjugate of its finite overlap takes the mirror's text with the sign
    of the imaginary part flipped, the text ``repr`` gives the conjugate
    ("-0.0" and "0.0" included; a NaN keeps no sign in its text, hence
    finite only).  Every other overlap goes through ``repr``, so the bytes
    do not depend on O being Hermitian.  The rows are joined in C from
    columns of text.
    """
    n, k, l = len(block.eigenvalues), block.k, block.l
    o = np.ascontiguousarray(block.o_kl, dtype=complex)
    bits = o.view(np.uint64).reshape(-1, 2)
    at = np.full(n * n, -1)
    at[k * n + l] = np.arange(len(k))
    mirror = at[l * n + k]
    reuse = (k > l) & (mirror >= 0) & np.isfinite(o)
    mirror[~reuse] = 0
    reuse &= ((bits[:, 0] == bits[mirror, 0])
              & (bits[:, 1] == bits[mirror, 1] ^ np.uint64(1 << 63)))
    re, im = np.empty(len(k), object), np.empty(len(k), object)
    new, src = ~reuse, mirror[reuse]
    re[new] = list(map(repr, o.real[new].tolist()))
    im[new] = list(map(repr, o.imag[new].tolist()))
    re[reuse] = re[src]
    im[reuse] = [t[1:] if t[0] == "-" else "-" + t for t in im[src].tolist()]
    # the leading columns, formatted once per eigenvalue index
    head = np.array([f"{block.sample_id},{i}" for i in range(n)], object)
    index = np.array(list(map(str, range(n))), object)
    xy = np.array(_coordinates(block.eigenvalues), object)
    columns = [c.tolist() for c in (head[k], index[l], xy[k], xy[l], re, im)]
    for i in range(0, len(k), _ROWS_PER_WRITE):
        yield "\r\n".join(map(",".join, zip(
            *(c[i:i + _ROWS_PER_WRITE] for c in columns)))) + "\r\n"


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
