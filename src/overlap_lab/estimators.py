"""Monte Carlo estimators for spectral and eigenvector statistics.

All estimators consume an iterable of sample matrices (bare arrays or
``(index, matrix, info)`` triples as produced by
:func:`overlap_lab.ensembles.sample_many`) and pull one sample at a
time, finishing its work before the next pull.  The eigenvalue-based
estimators decompose each sample once through
:class:`overlap_lab.overlaps.EigenSystems`, which drops and counts
near-defective draws.  Each estimator maps a sample to a ``(value,
count)`` contribution, and one batching routine averages the
contributions over round-robin batches for batch-means error bars.
"""

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .numcore import PairHistogram
from .overlaps import (EigenSystems, diagonal_overlaps, eig_biorthogonal,
                       iter_samples, overlap_matrix)

__all__ = [
    "EstimatorConfig",
    "BinnedEstimate",
    "ScalarEstimate",
    "estimate_density",
    "estimate_density_real",
    "estimate_o1",
    "estimate_o2_windows",
    "estimate_o2_real_pairs",
    "estimate_traced_resolvent_product",
    "estimate_trace_covariance",
    "sum_rule_residual",
    "write_estimate_csv",
]

REAL_TOL = 1e-8  # |Im lambda| <= REAL_TOL max(|lambda|, 1) counts as real
RESOLVENT_MARGIN = 0.05  # eigenvalues this close to z1 or z2 draw a warning


@dataclass(frozen=True)
class EstimatorConfig:
    """Binning and statistics configuration shared by the estimators.

    ``delta_min`` excludes close pairs from macroscopic two-point
    estimates (the microscopic kernel dominates below several mean
    spacings; the usual choice is 5/sqrt(N)).
    """

    delta_min: float = 0.0
    n_batches: int = 20

    def __post_init__(self):
        if self.delta_min < 0:
            raise ValueError("delta_min must be nonnegative")
        if self.n_batches < 2:
            raise ValueError("need at least 2 batches for error bars")


@dataclass
class BinnedEstimate:
    """Binned estimate with batch-means standard errors."""

    centers: np.ndarray
    estimate: np.ndarray
    stderr: np.ndarray
    count: np.ndarray
    n_samples: int
    n_dropped: int = 0

    def rows(self):
        """Rows (center..., re, im, stderr, count) for CSV output."""
        est = np.asarray(self.estimate).ravel()
        err = np.asarray(self.stderr).ravel()
        cnt = np.asarray(self.count).ravel()
        out = []
        for i in range(est.size):
            c = np.asarray(self.centers[i], dtype=float).ravel()
            out.append((*c, est[i].real, est[i].imag, err[i], int(cnt[i])))
        return out


@dataclass
class ScalarEstimate:
    value: complex
    stderr: float
    n_samples: int


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


def _batch_means(contributions, n_batches):
    """Batch means of per-sample ``(value, count)`` contributions.

    Contribution i joins batch ``i % n_batches`` in arrival order.
    Returns the mean value with its batch-means standard error over the
    non-empty batches, the summed counts and the number of
    contributions.
    """
    sums = total = None
    sizes = np.zeros(n_batches, dtype=np.int64)
    for i, (value, count) in enumerate(contributions):
        if sums is None:
            sums = np.zeros((n_batches,) + np.shape(value), dtype=complex)
            total = np.zeros(np.shape(count), dtype=np.int64)
        sums[i % n_batches] += value
        sizes[i % n_batches] += 1
        total += count
    used = sizes > 0
    if used.sum() < 2:
        raise ValueError("need at least 2 non-empty batches")
    shape = (-1,) + (1,) * (sums.ndim - 1)
    mean, err = _batch_stats(sums[used] / sizes[used].reshape(shape),
                             sizes[used])
    return mean, err, total, int(sizes.sum())


def _eigen_batch_means(samples, config, contribution, overlaps=False):
    """:func:`_batch_means` of ``contribution(es, o)`` over decomposed samples.

    Returns ``(mean, stderr, count, n_used, n_dropped)``.
    """
    systems = EigenSystems(samples, overlaps)
    return (*_batch_means((contribution(es, o) for _, es, o in systems),
                          config.n_batches), systems.n_dropped)


def _radial(samples, radial_edges, config, o1):
    """Per-annulus eigenvalue mass, weighted by O_kk / N when ``o1`` is set."""
    edges = np.asarray(radial_edges, dtype=float)
    areas = np.pi * (edges[1:] ** 2 - edges[:-1] ** 2)

    def contribution(es, _):
        r = np.abs(es.eigenvalues)
        count, _ = np.histogram(r, bins=edges)
        if not o1:
            return count / es.n, count
        mass, _ = np.histogram(r, bins=edges,
                               weights=diagonal_overlaps(es).real)
        return mass / es.n ** 2, count

    mean, err, count, n_used, n_dropped = _eigen_batch_means(
        samples, config, contribution)
    if count.sum() == 0:
        warnings.warn("no eigenvalues fell into the declared bins")
    centers = 0.5 * (edges[:-1] + edges[1:])
    return BinnedEstimate(centers[:, None], mean.real / areas, err / areas,
                          count, n_used, n_dropped)


def estimate_density(samples, radial_edges, config=EstimatorConfig()):
    """Radial spectral density <(1/N) sum_k delta2(z - lambda_k)>.

    Returns per-annulus density values; their integral over the plane
    (sum over bins times annulus areas) is <= 1, with equality when the
    bins cover the spectrum.
    """
    return _radial(samples, radial_edges, config, o1=False)


def estimate_density_real(samples, edges, config=EstimatorConfig()):
    """Density of real eigenvalues binned along the real axis.

    Intended for ensembles with (predominantly) real spectra; the
    returned object's ``n_dropped`` counts near-defective samples, and
    the complex-eigenvalue fraction is reported in ``complex_fraction``.
    """
    edges = np.asarray(edges, dtype=float)
    n_total = n_complex = 0

    def contribution(es, _):
        nonlocal n_total, n_complex
        lam = es.eigenvalues
        real_mask = np.abs(lam.imag) <= REAL_TOL * np.maximum(np.abs(lam), 1.0)
        n_total += es.n
        n_complex += int(np.sum(~real_mask))
        count, _ = np.histogram(lam.real[real_mask], bins=edges)
        return count / es.n, count

    mean, err, count, n_used, n_dropped = _eigen_batch_means(
        samples, config, contribution)
    widths = np.diff(edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    out = BinnedEstimate(centers[:, None], mean.real / widths, err / widths,
                         count, n_used, n_dropped)
    out.complex_fraction = n_complex / max(n_total, 1)
    return out


def estimate_o1(samples, radial_edges, config=EstimatorConfig()):
    """Radial one-point eigenvector function O_1(r).

    Bins <(1/N) sum_k O_kk delta2(z - lambda_k)> and divides by N, the
    standard scaling that keeps the bulk value finite at large N.
    """
    return _radial(samples, radial_edges, config, o1=True)


def _separated(es, o, delta_min):
    """Zero the diagonal of ``o`` and its pairs closer than ``delta_min``.

    Works in place and returns the mask of pairs at least ``delta_min``
    apart.
    """
    lam = es.eigenvalues
    keep = np.abs(lam[:, None] - lam[None, :]) >= delta_min
    np.fill_diagonal(o, 0.0)
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
    windows = [(complex(z), complex(w)) for z, w in windows]
    area = (2.0 * half_width) ** 2

    def contribution(es, o):
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

    mean, err, count, n_used, n_dropped = _eigen_batch_means(
        samples, config, contribution, overlaps=True)
    centers = np.array([[z.real, z.imag, w.real, w.imag]
                        for z, w in windows])
    return BinnedEstimate(centers, mean, err, count, n_used, n_dropped)


def estimate_o2_real_pairs(samples, edges, config=EstimatorConfig()):
    """Two-point function binned over pairs of real eigenvalue positions.

    For real-spectrum ensembles: accumulates O_kl into a 2D histogram of
    (Re lambda_k, Re lambda_l) and normalizes by the squared bin widths,
    giving a grid of O_2(x, y) estimates; ``config.delta_min`` applies.
    """
    edges = np.asarray(edges, dtype=float)
    areas = PairHistogram(edges, edges).bin_areas()

    def contribution(es, o):
        keep = _separated(es, o, config.delta_min)
        np.fill_diagonal(keep, False)
        k, l = np.nonzero(keep)
        x = es.eigenvalues.real
        hist = PairHistogram(edges, edges)
        hist.accumulate(x[k], x[l], o[k, l] / es.n)
        return hist.weight, hist.count

    mean, err, count, n_used, n_dropped = _eigen_batch_means(
        samples, config, contribution, overlaps=True)
    centers = 0.5 * (edges[:-1] + edges[1:])
    out = BinnedEstimate(
        np.array([[a, b] for a in centers for b in centers]),
        mean / areas, err / areas, count, n_used, n_dropped)
    out.grid_centers = centers
    out.grid_estimate = out.estimate
    out.grid_stderr = out.stderr
    return out


def estimate_traced_resolvent_product(samples, z1, z2,
                                      config=EstimatorConfig()):
    """MC mean of (1/N) Tr[(z1 - X)^{-1} (zbar2 - X+)^{-1}].

    Warns when a resolvent norm indicates an eigenvalue within
    ``RESOLVENT_MARGIN`` of an evaluation point.
    """
    z1 = complex(z1)
    z2bar = np.conj(complex(z2))

    def contributions():
        warned = False
        for _, x, _ in iter_samples(samples):
            n = x.shape[0]
            eye = np.eye(n)
            a = np.linalg.solve(z1 * eye - x, eye)
            b = np.linalg.solve(z2bar * eye - x.conj().T, eye)
            limit = np.sqrt(n) / RESOLVENT_MARGIN
            if not warned and (np.linalg.norm(a, "fro") > limit
                               or np.linalg.norm(b, "fro") > limit):
                warnings.warn(
                    "evaluation point close to the empirical spectrum")
                warned = True
            yield np.trace(a @ b) / n, 1

    mean, err, _, n_used = _batch_means(contributions(), config.n_batches)
    return ScalarEstimate(complex(mean), float(err), n_used)


def _word_trace(x, word):
    """(1/N) Tr of a word over {X, X+}; word syntax: 'X' and 'X+' tokens."""
    n = x.shape[0]
    acc = np.eye(n, dtype=complex)
    i = 0
    any_factor = False
    while i < len(word):
        if word[i] != "X":
            raise ValueError(f"bad word {word!r}")
        if i + 1 < len(word) and word[i + 1] == "+":
            acc = acc @ x.conj().T
            i += 2
        else:
            acc = acc @ x
            i += 1
        any_factor = True
    if not any_factor:
        return 1.0 + 0.0j
    return np.trace(acc) / n


def estimate_trace_covariance(samples, word1, word2,
                              config=EstimatorConfig()):
    """Connected covariance <t1 t2> - <t1><t2> of two word traces.

    ``t1 = (1/N) Tr word1(X)`` and ``t2 = (1/N) Tr word2(X)`` enter as
    written, without conjugation; spell the adjoint in the word instead,
    e.g. ('X', 'X+') estimates cov((1/N) Tr X, (1/N) Tr X+).  The samples
    are split round-robin into ``min(n_batches, n // 2)`` batches of
    m >= 2; each batch covariance divides by m - 1, so it is unbiased,
    and the error bar is the batch-means standard error.
    """
    traces = np.array([(_word_trace(x, word1), _word_trace(x, word2))
                       for _, x, _ in iter_samples(samples)])
    n = len(traces)
    if n < 4:
        raise ValueError("need at least 4 samples for a covariance estimate")
    n_b = min(config.n_batches, n // 2)
    batch_cov = []
    for b in range(n_b):
        t1, t2 = traces[b::n_b].T
        batch_cov.append(np.sum((t1 - t1.mean()) * (t2 - t2.mean()))
                         / (len(t1) - 1))
    mean, err = _batch_stats(np.array(batch_cov))
    return ScalarEstimate(complex(mean), float(err), n)


def sum_rule_residual(x):
    """max_k |sum_l O_kl - 1| for one matrix (completeness sum rule)."""
    es = eig_biorthogonal(x)
    o = overlap_matrix(es)
    return float(np.max(np.abs(o.sum(axis=1) - 1.0)))


def write_estimate_csv(path, estimate, center_names, header_comment=None):
    """Write a BinnedEstimate: center columns, re, im, stderr, count."""
    with open(path, "w", newline="") as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        writer = csv.writer(fh)
        writer.writerow(list(center_names)
                        + ["estimate_re", "estimate_im", "stderr", "count"])
        for row in estimate.rows():
            writer.writerow(row)
