"""Monte Carlo estimators for spectral and eigenvector statistics.

All estimators consume an iterable of sample matrices (bare arrays or
``(index, matrix, info)`` triples as produced by
:func:`overlap_lab.ensembles.sample_many`), eigendecompose each sample
once, and accumulate binned statistics with batch-means error bars.
"""

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .numcore import PairHistogram
from .overlaps import (NearDefectiveError, diagonal_overlaps,
                       eig_biorthogonal, overlap_matrix)

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


@dataclass(frozen=True)
class EstimatorConfig:
    """Binning and statistics configuration shared by the estimators.

    ``delta_min`` excludes close pairs from macroscopic two-point
    estimates (the microscopic kernel dominates below several mean
    spacings; the usual choice is 5/sqrt(N)).
    """

    delta_min: float = 0.0
    n_batches: int = 20
    cond_limit: float = 1e12

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


def _iter_matrices(samples):
    for item in samples:
        if isinstance(item, tuple):
            yield item[1]
        else:
            yield item


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


class _BatchAccumulator:
    """Accumulates per-sample contributions into round-robin batches."""

    def __init__(self, shape, n_batches):
        self.sums = np.zeros((n_batches,) + tuple(shape), dtype=complex)
        self.counts = np.zeros(n_batches, dtype=np.int64)
        self.n_batches = n_batches
        self._i = 0

    def add(self, contribution):
        b = self._i % self.n_batches
        self.sums[b] += contribution
        self.counts[b] += 1
        self._i += 1

    def finalize(self):
        if (self.counts == 0).any():
            used = self.counts > 0
            sums = self.sums[used]
            counts = self.counts[used]
        else:
            sums, counts = self.sums, self.counts
        if len(counts) < 2:
            raise ValueError("need at least 2 non-empty batches")
        per_batch = sums / counts[(slice(None),) + (np.newaxis,) * (sums.ndim - 1)]
        mean, err = _batch_stats(per_batch, counts)
        return mean, err, int(self.counts.sum())


class _EigenSystems:
    """Iterates ``(eigensystem, overlaps or None)`` per sample.

    Near-defective draws are dropped and counted in ``dropped``, whether
    or not an accepted sample follows them.
    """

    def __init__(self, samples, config, need_overlaps):
        self.samples = samples
        self.config = config
        self.need_overlaps = need_overlaps
        self.dropped = 0

    def __iter__(self):
        for x in _iter_matrices(self.samples):
            try:
                es = eig_biorthogonal(x, cond_limit=self.config.cond_limit)
            except NearDefectiveError:
                self.dropped += 1
                continue
            yield es, overlap_matrix(es) if self.need_overlaps else None


def _annulus_areas(edges):
    return np.pi * (edges[1:] ** 2 - edges[:-1] ** 2)


def estimate_density(samples, radial_edges, config=EstimatorConfig()):
    """Radial spectral density <(1/N) sum_k delta2(z - lambda_k)>.

    Returns per-annulus density values; their integral over the plane
    (sum over bins times annulus areas) is <= 1, with equality when the
    bins cover the spectrum.
    """
    edges = np.asarray(radial_edges, dtype=float)
    areas = _annulus_areas(edges)
    acc = _BatchAccumulator((len(edges) - 1,), config.n_batches)
    cnt = np.zeros(len(edges) - 1, dtype=np.int64)
    systems = _EigenSystems(samples, config, False)
    for es, _ in systems:
        r = np.abs(es.eigenvalues)
        hist, _ = np.histogram(r, bins=edges)
        cnt += hist.astype(np.int64)
        acc.add(hist / es.n)
    mean, err, n_used = acc.finalize()
    if mean.sum() == 0:
        warnings.warn("no eigenvalues fell into the declared bins")
    centers = 0.5 * (edges[:-1] + edges[1:])
    return BinnedEstimate(centers[:, None], mean.real / areas, err / areas,
                          cnt, n_used, systems.dropped)


def estimate_density_real(samples, edges, config=EstimatorConfig(),
                          imag_tol=1e-8):
    """Density of real eigenvalues binned along the real axis.

    Intended for ensembles with (predominantly) real spectra; the
    returned object's ``n_dropped`` counts near-defective samples, and
    the complex-eigenvalue fraction is reported in ``complex_fraction``.
    """
    edges = np.asarray(edges, dtype=float)
    widths = np.diff(edges)
    acc = _BatchAccumulator((len(edges) - 1,), config.n_batches)
    cnt = np.zeros(len(edges) - 1, dtype=np.int64)
    n_total = 0
    n_complex = 0
    systems = _EigenSystems(samples, config, False)
    for es, _ in systems:
        lam = es.eigenvalues
        scale = np.maximum(np.abs(lam), 1.0)
        real_mask = np.abs(lam.imag) <= imag_tol * scale
        n_total += es.n
        n_complex += int(np.sum(~real_mask))
        hist, _ = np.histogram(lam.real[real_mask], bins=edges)
        cnt += hist.astype(np.int64)
        acc.add(hist / es.n)
    mean, err, n_used = acc.finalize()
    centers = 0.5 * (edges[:-1] + edges[1:])
    out = BinnedEstimate(centers[:, None], mean.real / widths, err / widths,
                         cnt, n_used, systems.dropped)
    out.complex_fraction = n_complex / max(n_total, 1)
    return out


def estimate_o1(samples, radial_edges, config=EstimatorConfig()):
    """Radial one-point eigenvector function O_1(r).

    Bins <(1/N) sum_k O_kk delta2(z - lambda_k)> and divides by N, the
    standard scaling that keeps the bulk value finite at large N.
    """
    edges = np.asarray(radial_edges, dtype=float)
    areas = _annulus_areas(edges)
    acc = _BatchAccumulator((len(edges) - 1,), config.n_batches)
    cnt = np.zeros(len(edges) - 1, dtype=np.int64)
    systems = _EigenSystems(samples, config, False)
    for es, _ in systems:
        r = np.abs(es.eigenvalues)
        okk = diagonal_overlaps(es).real
        hist, _ = np.histogram(r, bins=edges, weights=okk)
        c, _ = np.histogram(r, bins=edges)
        cnt += c.astype(np.int64)
        acc.add(hist / es.n ** 2)
    mean, err, n_used = acc.finalize()
    centers = 0.5 * (edges[:-1] + edges[1:])
    return BinnedEstimate(centers[:, None], mean.real / areas, err / areas,
                          cnt, n_used, systems.dropped)


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
    acc = _BatchAccumulator((len(windows),), config.n_batches)
    cnt = np.zeros(len(windows), dtype=np.int64)
    systems = _EigenSystems(samples, config, True)
    for es, o in systems:
        lam = es.eigenvalues
        np.fill_diagonal(o, 0.0)
        sep = np.abs(lam[:, None] - lam[None, :])
        if config.delta_min > 0:
            o = np.where(sep >= config.delta_min, o, 0.0)
        contrib = np.zeros(len(windows), dtype=complex)
        for i, (z, w) in enumerate(windows):
            in1 = ((np.abs(lam.real - z.real) < half_width)
                   & (np.abs(lam.imag - z.imag) < half_width))
            in2 = ((np.abs(lam.real - w.real) < half_width)
                   & (np.abs(lam.imag - w.imag) < half_width))
            mask = in1[:, None] & in2[None, :]
            contrib[i] = o[mask].sum()
            cnt[i] += int(np.count_nonzero(mask & (sep >= config.delta_min)
                                           if config.delta_min > 0 else mask))
        acc.add(contrib / (es.n * area ** 2))
    mean, err, n_used = acc.finalize()
    centers = np.array([[z.real, z.imag, w.real, w.imag]
                        for z, w in windows])
    return BinnedEstimate(centers, mean, err, cnt, n_used, systems.dropped)


def estimate_o2_real_pairs(samples, edges, config=EstimatorConfig()):
    """Two-point function binned over pairs of real eigenvalue positions.

    For real-spectrum ensembles: accumulates O_kl into a 2D histogram of
    (Re lambda_k, Re lambda_l) and normalizes by the squared bin widths,
    giving a grid of O_2(x, y) estimates.
    """
    edges = np.asarray(edges, dtype=float)
    n_bins = len(edges) - 1
    hists = [PairHistogram(edges, edges) for _ in range(config.n_batches)]
    i = 0
    systems = _EigenSystems(samples, config, True)
    for es, o in systems:
        lam = es.eigenvalues
        np.fill_diagonal(o, 0.0)
        if config.delta_min > 0:
            sep = np.abs(lam[:, None] - lam[None, :])
            o = np.where(sep >= config.delta_min, o, 0.0)
        kk, ll = np.meshgrid(np.arange(es.n), np.arange(es.n), indexing="ij")
        off = kk != ll
        hists[i % config.n_batches].accumulate(
            lam.real[kk[off]], lam.real[ll[off]], o[off] / es.n)
        i += 1
    areas = hists[0].bin_areas()
    per_batch = np.array([h.weight / max(h.n_matrices, 1) / areas
                          for h in hists if h.n_matrices > 0])
    weights = np.array([h.n_matrices for h in hists if h.n_matrices > 0])
    mean, err = _batch_stats(per_batch, weights)
    count = sum(h.count for h in hists)
    centers = 0.5 * (edges[:-1] + edges[1:])
    out = BinnedEstimate(
        np.array([[a, b] for a in centers for b in centers]),
        mean, err, count, int(weights.sum()), systems.dropped)
    out.grid_centers = centers
    out.grid_estimate = mean
    out.grid_stderr = err
    return out


def estimate_traced_resolvent_product(samples, z1, z2,
                                      config=EstimatorConfig(), margin=0.05):
    """MC mean of (1/N) Tr[(z1 - X)^{-1} (zbar2 - X+)^{-1}].

    Warns when a resolvent norm indicates an eigenvalue within
    ``margin`` of an evaluation point.
    """
    z1 = complex(z1)
    z2bar = np.conj(complex(z2))
    acc = _BatchAccumulator((), config.n_batches)
    warned = False
    for x in _iter_matrices(samples):
        n = x.shape[0]
        eye = np.eye(n)
        a = np.linalg.solve(z1 * eye - x, eye)
        b = np.linalg.solve(z2bar * eye - x.conj().T, eye)
        if not warned and max(np.linalg.norm(a, "fro"),
                              np.linalg.norm(b, "fro")) > np.sqrt(n) / margin:
            warnings.warn("evaluation point close to the empirical spectrum")
            warned = True
        acc.add(np.trace(a @ b) / n)
    mean, err, n_used = acc.finalize()
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
    """Connected covariance of (1/N)Tr word1(X) and conj((1/N)Tr word2(X)).

    The second word enters conjugated so that e.g. ('X', 'X+') estimates
    cov((1/N)Tr X, (1/N)Tr X+) = <t1 conj(conj(t2))>... explicitly:
    cov = <t1 t2> - <t1><t2> with t2 the plain trace of word2.
    """
    t1s, t2s = [], []
    for x in _iter_matrices(samples):
        t1s.append(_word_trace(x, word1))
        t2s.append(_word_trace(x, word2))
    t1s = np.asarray(t1s)
    t2s = np.asarray(t2s)
    n = len(t1s)
    if n < 4:
        raise ValueError("need at least 4 samples for a covariance estimate")
    n_b = min(config.n_batches, n // 2)
    idx = np.arange(n) % n_b
    batch_cov = []
    for b in range(n_b):
        m = idx == b
        if m.sum() < 2:
            continue
        a, c = t1s[m], t2s[m]
        batch_cov.append((a * c).mean() - a.mean() * c.mean())
    batch_cov = np.array(batch_cov)
    mean, err = _batch_stats(batch_cov)
    return ScalarEstimate(complex(mean), float(err), n)


def sum_rule_residual(x, cond_limit=1e12):
    """max_k |sum_l O_kl - 1| for one matrix (completeness sum rule)."""
    es = eig_biorthogonal(x, cond_limit=cond_limit)
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
