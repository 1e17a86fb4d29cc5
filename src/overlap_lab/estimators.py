"""Monte Carlo estimators for spectral and eigenvector statistics.

All estimators consume an iterable of sample matrices (bare arrays or
``(index, matrix, info)`` triples as produced by
:func:`overlap_lab.ensembles.sample_many`) through
:class:`overlap_lab.overlaps.MonteCarloLoop`.  Each estimator gives the
loop a per-sample function (a decomposition, two resolvents, two word
traces), which runs on up to ``overlaps.WORKERS`` pulled samples at once
on a thread pool (:mod:`overlap_lab.overlaps` gives the thread rule).
The results come back in pull order, and near-defective draws are
dropped and counted.  On the calling thread each estimator maps a result
to a ``(value, count)`` contribution, and one batching routine averages
the contributions over ``N_BATCHES`` round-robin batches for batch-means
error bars.  Only the two-point estimators take an
:class:`EstimatorConfig`, for the one setting they read, ``delta_min``.
:func:`estimate_radial` bins eigenvalues and diagonal overlaps that are
already known, one ``(eigenvalues, o_kk)`` block per sample, such as the
rows of a run's eigen.csv; :func:`estimate_density` and
:func:`estimate_o1` feed it from the loop.
"""

import re
import warnings
from dataclasses import dataclass
from functools import reduce
from typing import ClassVar

import numpy as np

from .numcore import PairHistogram
from .overlaps import (MonteCarloLoop, diagonal_overlaps, eig_biorthogonal,
                       eig_with_overlaps)

__all__ = [
    "EstimatorConfig",
    "BinnedEstimate",
    "ScalarEstimate",
    "estimate_density",
    "estimate_density_real",
    "estimate_o1",
    "estimate_radial",
    "estimate_o2_windows",
    "estimate_o2_real_pairs",
    "estimate_traced_resolvent_product",
    "estimate_trace_covariance",
    "sum_rule_residual",
]

REAL_TOL = 1e-8  # |Im lambda| <= REAL_TOL max(|lambda|, 1) counts as real
RESOLVENT_MARGIN = 0.05  # eigenvalues this close to z1 or z2 draw a warning
N_BATCHES = 20  # round-robin batches behind every batch-means error bar


@dataclass(frozen=True)
class EstimatorConfig:
    """The one setting of the two-point estimators, ``delta_min``.

    ``delta_min`` excludes close pairs from macroscopic two-point
    estimates (the microscopic kernel dominates below several mean
    spacings; the usual choice is 5/sqrt(N)).  ``n_batches`` reads the
    module constant :data:`N_BATCHES` and cannot be set.
    """

    delta_min: float = 0.0
    n_batches: ClassVar[int] = N_BATCHES

    def __post_init__(self):
        if not 0.0 <= self.delta_min < np.inf:
            raise ValueError("delta_min must be finite and nonnegative")


@dataclass
class BinnedEstimate:
    """Binned estimate with batch-means standard errors.

    ``n_dropped`` counts the near-defective samples left out, and
    ``rejections`` the draws the samplers rejected and regenerated.
    """

    centers: np.ndarray
    estimate: np.ndarray
    stderr: np.ndarray
    count: np.ndarray
    n_samples: int
    n_dropped: int = 0
    rejections: int = 0


@dataclass
class ScalarEstimate:
    """Scalar estimate; ``rejections`` as for :class:`BinnedEstimate`."""

    value: complex
    stderr: float
    n_samples: int
    rejections: int = 0


def _batch_stats(batch_values, batch_weights=None):
    """Mean and standard error across batches.

    ``batch_values`` has the batch index first; batches may carry
    unequal sample counts via ``batch_weights``.
    """
    vals = np.asarray(batch_values)
    if batch_weights is None:
        mean = vals.mean(axis=0)
    else:
        w = np.asarray(batch_weights, dtype=float)
        mean = np.tensordot(w, vals, axes=(0, 0)) / w.sum()
    n_b = vals.shape[0]
    err = np.sqrt(np.sum(np.abs(vals - mean) ** 2, axis=0)
                  / (n_b - 1) / n_b)
    return mean, err


def _batch_means(contributions):
    """Batch means of per-sample ``(value, count)`` contributions.

    Contribution i joins batch ``i % N_BATCHES`` in arrival order.
    Returns the mean value with its batch-means standard error over the
    non-empty batches, the summed counts and the number of
    contributions.
    """
    sums = total = None
    sizes = np.zeros(N_BATCHES, dtype=np.int64)
    for i, (value, count) in enumerate(contributions):
        if sums is None:
            sums = np.zeros((N_BATCHES,) + np.shape(value), dtype=complex)
            total = np.zeros(np.shape(count), dtype=np.int64)
        sums[i % N_BATCHES] += value
        sizes[i % N_BATCHES] += 1
        total += count
    used = sizes > 0
    if used.sum() < 2:
        raise ValueError("need at least 2 non-empty batches")
    shape = (-1,) + (1,) * (sums.ndim - 1)
    mean, err = _batch_stats(sums[used] / sizes[used].reshape(shape),
                             sizes[used])
    return mean, err, total, int(sizes.sum())


def _loop_batch_means(samples, work, contribution):
    """:func:`_batch_means` of ``contribution(work(x))`` over the samples:
    ``work`` runs in a :class:`MonteCarloLoop`, ``contribution`` on the
    calling thread.  Returns ``(mean, stderr, count, n_used, n_dropped,
    rejections)``.
    """
    loop = MonteCarloLoop(samples, work)
    return (*_batch_means(contribution(r) for _, r in loop),
            loop.n_dropped, loop.rejections)


def estimate_radial(blocks, radial_edges, o1):
    """Radial density, or O_1(r) when ``o1`` is set, binned from per-sample
    ``(eigenvalues, o_kk)`` blocks.

    Each block is one sample's N eigenvalues with their diagonal overlaps
    (``o_kk`` may be None when ``o1`` is not set).  Block i joins batch
    ``i % N_BATCHES``.  The annulus mass of a block is its eigenvalue
    count over N, or its O_kk sum over N^2 for O_1; the estimate divides
    it by the annulus area.  The result's ``n_dropped`` and
    ``rejections`` are 0: the caller knows them and sets them.
    """
    edges = np.asarray(radial_edges, dtype=float)
    areas = np.pi * (edges[1:] ** 2 - edges[:-1] ** 2)

    def contribution(block):
        lam, o_kk = block
        n = len(lam)
        r = np.abs(lam)
        count, _ = np.histogram(r, bins=edges)
        if not o1:
            return count / n, count
        mass, _ = np.histogram(r, bins=edges, weights=o_kk)
        return mass / n ** 2, count

    mean, err, count, n_used = _batch_means(map(contribution, blocks))
    if count.sum() == 0:
        warnings.warn("no eigenvalues fell into the declared bins")
    centers = 0.5 * (edges[:-1] + edges[1:])
    return BinnedEstimate(centers[:, None], mean.real / areas, err / areas,
                          count, n_used)


def _radial(samples, radial_edges, o1):
    """:func:`estimate_radial` of the decomposed samples."""
    def work(x):
        es = eig_biorthogonal(x)
        return es.eigenvalues, diagonal_overlaps(es) if o1 else None

    loop = MonteCarloLoop(samples, work)
    est = estimate_radial((block for _, block in loop), radial_edges, o1)
    est.n_dropped, est.rejections = loop.n_dropped, loop.rejections
    return est


def estimate_density(samples, radial_edges):
    """Radial spectral density <(1/N) sum_k delta2(z - lambda_k)>.

    Returns per-annulus density values; their integral over the plane
    (sum over bins times annulus areas) is <= 1, with equality when the
    bins cover the spectrum.
    """
    return _radial(samples, radial_edges, o1=False)


def estimate_density_real(samples, edges):
    """Density of real eigenvalues binned along the real axis.

    Intended for ensembles with (predominantly) real spectra; the
    returned object's ``n_dropped`` counts near-defective samples, and
    the complex-eigenvalue fraction is reported in ``complex_fraction``.
    """
    edges = np.asarray(edges, dtype=float)
    n_total = n_complex = 0

    def contribution(es):
        nonlocal n_total, n_complex
        lam = es.eigenvalues
        real_mask = np.abs(lam.imag) <= REAL_TOL * np.maximum(np.abs(lam), 1.0)
        n_total += es.n
        n_complex += int(np.sum(~real_mask))
        count, _ = np.histogram(lam.real[real_mask], bins=edges)
        return count / es.n, count

    mean, err, count, n_used, n_dropped, rejections = _loop_batch_means(
        samples, eig_biorthogonal, contribution)
    widths = np.diff(edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    out = BinnedEstimate(centers[:, None], mean.real / widths, err / widths,
                         count, n_used, n_dropped, rejections)
    out.complex_fraction = n_complex / max(n_total, 1)
    return out


def estimate_o1(samples, radial_edges):
    """Radial one-point eigenvector function O_1(r).

    Bins <(1/N) sum_k O_kk delta2(z - lambda_k)> and divides by N, the
    standard scaling that keeps the bulk value finite at large N.
    """
    return _radial(samples, radial_edges, o1=True)


def _separated(es, o, delta_min):
    """Zero the diagonal of ``o`` and its pairs closer than ``delta_min``.

    Works in place and returns the mask of the pairs ``k != l`` at least
    ``delta_min`` apart.
    """
    lam = es.eigenvalues
    keep = np.abs(lam[:, None] - lam[None, :]) >= delta_min
    np.fill_diagonal(keep, False)
    o[~keep] = 0.0
    return keep


def estimate_o2_windows(samples, windows, half_width,
                        config=EstimatorConfig()):
    """Two-point function estimated on square windows around point pairs.

    ``windows`` is a sequence of complex pairs (z, w); each estimate is
    the pair mass <(1/N) sum_{k != l} O_kl 1[lambda_k near z]
    1[lambda_l near w]> divided by the squared window area.  Pairs
    closer than ``config.delta_min`` are excluded.
    """
    if not 0.0 < half_width < np.inf:
        raise ValueError("half_width must be positive and finite")
    windows = [(complex(z), complex(w)) for z, w in windows]
    area = (2.0 * half_width) ** 2

    def contribution(system):
        es, o = system
        lam = es.eigenvalues
        keep = _separated(es, o, config.delta_min)
        value = np.zeros(len(windows), dtype=complex)
        count = np.zeros(len(windows), dtype=np.int64)
        for i, (z, w) in enumerate(windows):
            in1 = ((np.abs(lam.real - z.real) < half_width)
                   & (np.abs(lam.imag - z.imag) < half_width))
            in2 = ((np.abs(lam.real - w.real) < half_width)
                   & (np.abs(lam.imag - w.imag) < half_width))
            mask = in1[:, None] & in2[None, :]
            value[i] = o[mask].sum()
            count[i] = np.count_nonzero(mask & keep)
        return value / (es.n * area ** 2), count

    mean, err, count, n_used, n_dropped, rejections = _loop_batch_means(
        samples, eig_with_overlaps, contribution)
    centers = np.array([[z.real, z.imag, w.real, w.imag]
                        for z, w in windows])
    return BinnedEstimate(centers, mean, err, count, n_used, n_dropped,
                          rejections)


def estimate_o2_real_pairs(samples, edges, config=EstimatorConfig()):
    """Two-point function binned over pairs of real eigenvalue positions.

    For real-spectrum ensembles: accumulates O_kl into a 2D histogram of
    (Re lambda_k, Re lambda_l) and normalizes by the squared bin widths,
    giving a grid of O_2(x, y) estimates; ``config.delta_min`` applies.
    """
    edges = np.asarray(edges, dtype=float)
    areas = PairHistogram(edges, edges).bin_areas()

    def contribution(system):
        es, o = system
        keep = _separated(es, o, config.delta_min)
        k, l = np.nonzero(keep)
        x = es.eigenvalues.real
        hist = PairHistogram(edges, edges)
        hist.accumulate(x[k], x[l], o[k, l] / es.n)
        return hist.weight, hist.count

    mean, err, count, n_used, n_dropped, rejections = _loop_batch_means(
        samples, eig_with_overlaps, contribution)
    centers = 0.5 * (edges[:-1] + edges[1:])
    out = BinnedEstimate(
        np.array([[a, b] for a in centers for b in centers]),
        mean / areas, err / areas, count, n_used, n_dropped, rejections)
    out.grid_centers = centers
    out.grid_estimate = out.estimate
    out.grid_stderr = out.stderr
    return out


def estimate_traced_resolvent_product(samples, z1, z2):
    """MC mean of (1/N) Tr[(z1 - X)^{-1} (zbar2 - X+)^{-1}].

    Warns when a resolvent norm indicates an eigenvalue within
    ``RESOLVENT_MARGIN`` of an evaluation point.
    """
    z1 = complex(z1)
    z2 = complex(z2)

    warned = False

    def work(x):
        n = x.shape[0]
        eye = np.eye(n)
        # one inverse per distinct point: (zbar2 - X+)^{-1} = r[z2]^H
        r = {z: np.linalg.inv(z * eye - x) for z in {z1, z2}}
        limit = np.sqrt(n) / RESOLVENT_MARGIN
        near = any(np.linalg.norm(a, "fro") > limit for a in r.values())
        return np.vdot(r[z2], r[z1]) / n, near

    def contribution(result):
        nonlocal warned
        value, near = result
        if near and not warned:
            warnings.warn("evaluation point close to the empirical spectrum")
            warned = True
        return value, 1

    mean, err, _, n_used, _, rejections = _loop_batch_means(
        samples, work, contribution)
    return ScalarEstimate(complex(mean), float(err), n_used, rejections)


def _word_trace(x, word):
    """(1/N) Tr of a word over {X, X+}; word syntax: 'X' and 'X+' tokens."""
    letters = re.findall(r"X\+?", word)
    if "".join(letters) != word:
        raise ValueError(f"bad word {word!r}")
    if not letters:
        return 1.0 + 0.0j
    x = np.asarray(x, dtype=complex)
    acc = reduce(np.matmul, [x.conj().T if t == "X+" else x for t in letters])
    return np.trace(acc) / x.shape[0]


def estimate_trace_covariance(samples, word1, word2):
    """Connected covariance <t1 t2> - <t1><t2> of two word traces.

    ``t1 = (1/N) Tr word1(X)`` and ``t2 = (1/N) Tr word2(X)`` enter as
    written, without conjugation; spell the adjoint in the word instead,
    e.g. ('X', 'X+') estimates cov((1/N) Tr X, (1/N) Tr X+).  The samples
    are split round-robin into ``min(N_BATCHES, n // 2)`` batches of
    m >= 2; each batch covariance divides by m - 1, so it is unbiased,
    and the error bar is the batch-means standard error.
    """
    loop = MonteCarloLoop(
        samples, lambda x: (_word_trace(x, word1), _word_trace(x, word2)))
    traces = np.array([t for _, t in loop])
    n = len(traces)
    if n < 4:
        raise ValueError("need at least 4 samples for a covariance estimate")
    n_b = min(N_BATCHES, n // 2)
    batch_cov = []
    for b in range(n_b):
        t1, t2 = traces[b::n_b].T
        batch_cov.append(np.sum((t1 - t1.mean()) * (t2 - t2.mean()))
                         / (len(t1) - 1))
    mean, err = _batch_stats(np.array(batch_cov))
    return ScalarEstimate(complex(mean), float(err), n, loop.rejections)


def sum_rule_residual(x):
    """max_k |sum_l O_kl - 1| for one matrix (completeness sum rule)."""
    _, o = eig_with_overlaps(x)
    return float(np.max(np.abs(o.sum(axis=1) - 1.0)))
