"""Unit tests for the Monte Carlo estimators."""

import math

import numpy as np
import pytest

from overlap_lab import analytic, estimators
from overlap_lab.ensembles import EnsembleSpec, sample_many
from overlap_lab.estimators import EstimatorConfig


def ginibre_samples(n, n_samples, seed=0):
    return list(sample_many(EnsembleSpec("ginibre", n), seed, n_samples))


def haar_samples(n, n_samples, seed=0):
    # normal matrices: every overlap O_kl (k != l) vanishes identically
    out = []
    for k in range(n_samples):
        rng = np.random.default_rng(seed + k)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(g)
        d = np.diagonal(r)
        out.append(q * (d / np.abs(d)))
    return out


# the eigenvalue-based estimators, each on bins that hold Ginibre spectra
EIGEN_ESTIMATORS = {
    "density": lambda s: estimators.estimate_density(
        s, np.linspace(0.0, 1.2, 4)),
    "density_real": lambda s: estimators.estimate_density_real(
        s, np.linspace(-1.2, 1.2, 4)),
    "o1": lambda s: estimators.estimate_o1(s, np.linspace(0.0, 1.2, 4)),
    "o2_windows": lambda s: estimators.estimate_o2_windows(
        s, [(0.3, -0.3)], 0.3),
    "o2_real_pairs": lambda s: estimators.estimate_o2_real_pairs(
        s, np.linspace(-1.2, 1.2, 4)),
}


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EstimatorConfig(delta_min=-1.0)
        with pytest.raises(ValueError):
            EstimatorConfig(n_batches=1)


class TestSumRule:
    def test_ginibre_sum_rule(self):
        for _, x, _ in ginibre_samples(40, 3):
            assert estimators.sum_rule_residual(x) < 1e-9


class TestDensity:
    def test_ginibre_density(self):
        edges = np.linspace(0.0, 1.3, 14)
        est = estimators.estimate_density(ginibre_samples(80, 60), edges)
        areas = math.pi * (edges[1:] ** 2 - edges[:-1] ** 2)
        total = np.sum(est.estimate * areas)
        assert total == pytest.approx(1.0, abs=0.01)
        # bulk density is 1/pi well inside the disk
        assert est.estimate[3] == pytest.approx(1 / math.pi, rel=0.15)

    def test_sample_order_invariance(self):
        samples = ginibre_samples(30, 40)
        edges = np.linspace(0.0, 1.3, 10)
        a = estimators.estimate_density(samples, edges)
        b = estimators.estimate_density(list(reversed(samples)), edges)
        assert np.allclose(a.estimate, b.estimate, atol=1e-12)

    def test_real_density_mask(self):
        samples = list(sample_many(
            EnsembleSpec("pseudo_hermitian_product", 50), 1, 20))
        edges = np.linspace(0.0, 12.0, 25)
        est = estimators.estimate_density_real(samples, edges)
        assert est.complex_fraction < 0.02
        widths = np.diff(edges)
        assert np.sum(est.estimate * widths) == pytest.approx(1.0, abs=0.05)


class TestO1:
    def test_ginibre_profile(self):
        edges = np.linspace(0.1, 0.9, 5)
        est = estimators.estimate_o1(ginibre_samples(100, 100, seed=2), edges)
        for i, r in enumerate(est.centers[:, 0]):
            ref = (1.0 - r ** 2) / math.pi
            assert abs(est.estimate[i] - ref) < max(3.0 * est.stderr[i],
                                                    0.05 * ref)

    def test_normal_matrices_give_flat_density_scale(self):
        # for unitary samples O_kk = 1, so the O1 estimate reduces to the
        # spectral density divided by N
        n = 40
        samples = haar_samples(n, 40)
        edges = np.array([0.9, 1.1])
        est = estimators.estimate_o1(samples, edges)
        rho = estimators.estimate_density(samples, edges)
        assert est.estimate[0] == pytest.approx(rho.estimate[0] / n,
                                                rel=1e-10)


class TestMonteCarloLoop:
    @pytest.mark.parametrize("position", ["start", "middle", "end"])
    @pytest.mark.parametrize("name", list(EIGEN_ESTIMATORS))
    def test_near_defective_draws_counted(self, name, position):
        jordan = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        good = ginibre_samples(20, 4)
        samples = {"start": [jordan] + good,
                   "middle": good[:2] + [jordan] + good[2:],
                   "end": good + [jordan, jordan]}[position]
        est = EIGEN_ESTIMATORS[name](samples)
        assert est.n_samples == 4
        assert est.n_dropped == len(samples) - 4

    @pytest.mark.parametrize("name", list(EIGEN_ESTIMATORS))
    def test_pulls_after_decomposition(self, name, monkeypatch):
        events = []
        eig = np.linalg.eig

        def logged_eig(x):
            events.append(("eig", int(x[0, 0].real)))
            return eig(x)

        def pulls(samples):
            for k, x in enumerate(samples):
                events.append(("pull", k))
                x = x.copy()
                x[0, 0] = k
                yield x

        samples = [x for _, x, _ in ginibre_samples(12, 3)]
        monkeypatch.setattr(np.linalg, "eig", logged_eig)
        EIGEN_ESTIMATORS[name](pulls(samples))
        assert events == [(e, k) for k in range(3) for e in ("pull", "eig")]

    @pytest.mark.parametrize("name", list(EIGEN_ESTIMATORS) + ["resolvent"])
    def test_one_batch_raises(self, name):
        samples = list(sample_many(
            EnsembleSpec("pseudo_hermitian_product", 12), 0, 1))
        run = EIGEN_ESTIMATORS.get(
            name, lambda s: estimators.estimate_traced_resolvent_product(
                s, 2.0, 2.0))
        with pytest.raises(ValueError, match="2 non-empty batches"):
            run(samples)


class TestO2Windows:
    def test_normal_matrices_give_zero(self):
        est = estimators.estimate_o2_windows(
            haar_samples(40, 30), [(1.0, 1.0j)], 0.3)
        assert abs(est.estimate[0]) < 1e-10

    def test_ginibre_macroscopic(self):
        n = 60
        config = EstimatorConfig(delta_min=5.0 / math.sqrt(n))
        z, w = 0.45, -0.35
        est = estimators.estimate_o2_windows(
            ginibre_samples(n, 400, seed=5), [(z, w)], 0.2, config)
        ref = analytic.o2_biunitary_closed_form("ginibre", z, w)
        assert abs(est.estimate[0] - ref) < max(3.0 * est.stderr[0],
                                                0.15 * abs(ref))

    def test_delta_min_drops_close_pairs(self):
        samples = ginibre_samples(40, 30)
        wide = estimators.estimate_o2_windows(
            samples, [(0.3, 0.35)], 0.25, EstimatorConfig(delta_min=0.0))
        tight = estimators.estimate_o2_windows(
            samples, [(0.3, 0.35)], 0.25, EstimatorConfig(delta_min=0.5))
        assert tight.count[0] < wide.count[0]


class TestO2RealPairs:
    def test_grid_shape_and_symmetry(self):
        samples = list(sample_many(
            EnsembleSpec("pseudo_hermitian_product", 60), 3, 40))
        edges = np.arange(0.0, 12.0, 1.0)
        est = estimators.estimate_o2_real_pairs(samples, edges)
        nb = len(edges) - 1
        assert est.grid_estimate.shape == (nb, nb)
        # O_kl pairs enter symmetrically on average; spot-check hermiticity
        # of the accumulated grid within error bars
        i, j = 2, 5
        diff = abs(est.grid_estimate[i, j] - np.conj(est.grid_estimate[j, i]))
        err = est.grid_stderr[i, j] + est.grid_stderr[j, i]
        assert diff < 4.0 * err + 1e-12

    def test_delta_min_drops_counts(self):
        samples = list(sample_many(
            EnsembleSpec("pseudo_hermitian_product", 20), 3, 6))
        edges = np.linspace(0.0, 12.0, 7)
        every = estimators.estimate_o2_real_pairs(
            samples, edges, EstimatorConfig(delta_min=0.0, n_batches=3))
        none = estimators.estimate_o2_real_pairs(
            samples, edges, EstimatorConfig(delta_min=100.0, n_batches=3))
        assert every.count.sum() > 0
        assert none.count.sum() == 0
        assert np.all(none.estimate == 0)


class TestTracedResolventProduct:
    def test_zero_matrix_exact(self):
        samples = [np.zeros((8, 8), dtype=complex) for _ in range(4)]
        z1, z2 = 2.0, 1.0 - 1.0j
        est = estimators.estimate_traced_resolvent_product(samples, z1, z2)
        assert est.value == pytest.approx(1.0 / (z1 * np.conj(z2)), rel=1e-12)
        assert est.stderr == pytest.approx(0.0, abs=1e-14)

    def test_ginibre_universal_value(self):
        est = estimators.estimate_traced_resolvent_product(
            ginibre_samples(60, 80, seed=8), 2.0, 2.0)
        assert est.value.real == pytest.approx(1.0 / 3.0, rel=0.03)

    def test_near_spectrum_warning(self):
        close = np.diag([2.0 - 1e-6, 0.1, -0.3, 0.5]).astype(complex)
        with pytest.warns(UserWarning):
            estimators.estimate_traced_resolvent_product(
                [close, close], 2.0, 2.0)


class TestTraceCovariance:
    def test_word_trace_syntax(self):
        x = np.array([[0.0, 1.0], [2.0, 0.0]], dtype=complex)
        assert estimators._word_trace(x, "XX") == pytest.approx(2.0)
        assert estimators._word_trace(x, "X+") == pytest.approx(0.0)
        assert estimators._word_trace(x, "XX+") == pytest.approx(2.5)
        with pytest.raises(ValueError):
            estimators._word_trace(x, "Y")

    def test_ginibre_first_moment_covariance(self):
        n = 50
        est = estimators.estimate_trace_covariance(
            ginibre_samples(n, 600, seed=9), "X", "X+")
        # cov(Tr X, Tr X+) = 1 at matrix scale, so 1/n^2 in trace units
        assert est.value.real * n ** 2 == pytest.approx(1.0, abs=0.2)

    def test_unbiased_batch_covariance(self):
        # +-1 draws of variance 1: the four batches of two hold every
        # ordered pair once, so the unbiased batch covariances average
        # to exactly 1 (dividing by m instead of m - 1 gives 0.5)
        values = [1, 1, -1, -1, 1, -1, 1, -1]
        samples = [np.array([[v]], dtype=complex) for v in values]
        est = estimators.estimate_trace_covariance(
            samples, "X", "X", EstimatorConfig(n_batches=4))
        assert est.value == 1.0

    def test_error_scaling(self):
        small = estimators.estimate_trace_covariance(
            ginibre_samples(30, 200, seed=11), "X", "X+")
        large = estimators.estimate_trace_covariance(
            ginibre_samples(30, 800, seed=11), "X", "X+")
        ratio = small.stderr / large.stderr
        assert 1.2 < ratio < 3.5


class TestCsv:
    def test_round_trip(self, tmp_path):
        edges = np.linspace(0.0, 1.0, 5)
        est = estimators.estimate_density(ginibre_samples(30, 20), edges)
        path = tmp_path / "rho.csv"
        estimators.write_estimate_csv(path, est, ["r"],
                                      header_comment="tag 123")
        lines = path.read_text().splitlines()
        assert lines[0] == "# tag 123"
        assert lines[1] == "r,estimate_re,estimate_im,stderr,count"
        assert len(lines) == 2 + 4
        first = lines[2].split(",")
        assert float(first[1]) == pytest.approx(est.estimate[0].real)
