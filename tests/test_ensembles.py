"""Unit tests for the ensemble samplers: covariance conventions,
determinism and structural properties."""

import numpy as np
import pytest

from overlap_lab.ensembles import (DEFAULTS, KINDS, PARAMS, EnsembleSpec,
                                   sample, sample_many)
from overlap_lab.numcore import RngStream


def pooled_entries(spec, n_samples, seed=0):
    mats = [x for _, x, _ in sample_many(spec, seed, n_samples)]
    return np.stack(mats)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            EnsembleSpec("weibull", 10)

    def test_bad_params(self):
        with pytest.raises(ValueError, match="^n must be at least 2"):
            EnsembleSpec("ginibre", 1)
        for kind, params, message in [
                ("elliptic", {"tau": 1.5}, "tau must lie in"),
                ("elliptic", {"sigma": 0.0}, "sigma must be positive"),
                ("induced_ginibre", {"alpha": -0.5}, "alpha must be nonneg"),
                ("truncated_unitary", {"kappa": -1.0}, "kappa must be nonneg"),
                ("quantum_scattering", {"m": -1.0}, "m must be nonneg")]:
            with pytest.raises(ValueError, match=f"^{message}"):
                EnsembleSpec(kind, 10, **params)

    @pytest.mark.parametrize("n", [4.5, 4.0, np.float64(4.0), "4"])
    def test_non_integer_n_refused(self, n):
        # EnsembleSpec("ginibre", 4.5) constructed and failed only in sample
        with pytest.raises(TypeError, match="^n must be an integer"):
            EnsembleSpec("ginibre", n)

    def test_numpy_integer_n_accepted(self):
        spec = EnsembleSpec("ginibre", np.int64(4))
        assert type(spec.n) is int and spec == EnsembleSpec("ginibre", 4)
        x, _ = sample(spec, RngStream(1))
        assert np.array_equal(x, sample(EnsembleSpec("ginibre", 4),
                                        RngStream(1))[0])

    def test_kinds_are_the_params_table(self):
        assert KINDS == tuple(PARAMS)
        assert {p for names in PARAMS.values() for p in names} == set(DEFAULTS)

    @pytest.mark.parametrize("kind,name", [
        (kind, name) for kind in KINDS for name in DEFAULTS
        if name not in PARAMS[kind]])
    def test_unread_parameter_refused(self, kind, name):
        # ginibre with tau=0.9 drew what tau=0 draws, under another spec
        with pytest.raises(ValueError, match=f"^{name} is not read by {kind}"):
            EnsembleSpec(kind, 4, **{name: DEFAULTS[name] + 0.5})
        assert EnsembleSpec(kind, 4, **{name: DEFAULTS[name]})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("kind,name", [
        (kind, name) for kind in KINDS for name in PARAMS[kind]])
    def test_non_finite_parameter_refused(self, kind, name, value):
        # quantum_scattering with gamma=nan failed in LAPACK, naming nothing
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            EnsembleSpec(kind, 4, **{name: value})

    def test_rng_type_checked(self):
        with pytest.raises(TypeError):
            sample(EnsembleSpec("ginibre", 4), np.random.default_rng())


class TestDeterminism:
    @pytest.mark.parametrize("kind", KINDS)
    def test_bit_identical_redraw(self, kind):
        params = dict(sigma=1.0, tau=0.3, alpha=0.5, kappa=1.0, m=1.0,
                      gamma=0.7)
        spec = EnsembleSpec(kind, 12, **{name: params[name]
                                         for name in PARAMS[kind]})
        x1, _ = sample(spec, RngStream(123, 4))
        x2, _ = sample(spec, RngStream(123, 4))
        assert np.array_equal(x1, x2)

    def test_streams_independent(self):
        spec = EnsembleSpec("ginibre", 12)
        x1, _ = sample(spec, RngStream(123, 4))
        x2, _ = sample(spec, RngStream(123, 5))
        assert not np.array_equal(x1, x2)


class TestCovariances:
    def test_ginibre_entry_variance(self):
        n = 40
        xs = pooled_entries(EnsembleSpec("ginibre", n), 60)
        var = np.mean(np.abs(xs) ** 2)
        assert var == pytest.approx(1.0 / n, rel=0.05)
        # independent real/imag parts: <X_ij^2> vanishes
        assert abs(np.mean(xs ** 2)) < 3.0 / np.sqrt(xs.size)

    def test_elliptic_covariances(self):
        n, sigma, tau = 40, 1.3, 0.5
        xs = pooled_entries(EnsembleSpec("elliptic", n, sigma=sigma, tau=tau),
                            120)
        # <X_ab X+_cd> = sigma^2 delta_ad delta_bc / n  -> <|X_ab|^2>
        v_abs = np.mean(np.abs(xs) ** 2)
        assert v_abs == pytest.approx(sigma ** 2 / n, rel=0.05)
        # <X_ab X_ba> = sigma^2 tau / n  (pair covariance across the diagonal)
        pair = np.mean(xs[:, 2, 5] * xs[:, 5, 2])
        assert pair.real == pytest.approx(sigma ** 2 * tau / n, rel=0.3)
        # same-entry second moment <X_ab^2> vanishes off-diagonal
        assert abs(np.mean(xs[:, 2, 5] ** 2)) < 5 * sigma ** 2 / n / np.sqrt(120)

    def test_elliptic_tau_one_is_hermitian(self):
        spec = EnsembleSpec("elliptic", 16, tau=1.0)
        x, _ = sample(spec, RngStream(5, 0))
        assert np.allclose(x, x.conj().T)

    def test_quantum_scattering_structure(self):
        spec = EnsembleSpec("quantum_scattering", 30, m=2.0, gamma=0.8)
        x, _ = sample(spec, RngStream(9, 0))
        h = 0.5 * (x + x.conj().T)
        a = (x - x.conj().T) / 2j
        assert np.allclose(h, h.conj().T)
        # anti-Hermitian part is gamma * (positive semidefinite)
        w = np.linalg.eigvalsh(a)
        assert w.min() > -1e-12


class TestStructure:
    def test_truncated_unitary_contraction(self):
        spec = EnsembleSpec("truncated_unitary", 30, kappa=1.0)
        for k in range(5):
            x, _ = sample(spec, RngStream(2, k))
            s = np.linalg.svd(x, compute_uv=False)
            assert s.max() <= 1.0 + 1e-10

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
    def test_truncated_unitary_is_corner_of_full_haar_unitary(self, kappa):
        # the top N x N block of the Haar unitary built in full from the
        # same (N+M)^2 Gaussian draw
        n = 30
        total = n + int(round(kappa * n))
        spec = EnsembleSpec("truncated_unitary", n, kappa=kappa)
        for k in range(3):
            x, _ = sample(spec, RngStream(4, k))
            rng = RngStream(4, k).generator()
            g = (rng.standard_normal((total, total))
                 + 1j * rng.standard_normal((total, total)))
            q, r = np.linalg.qr(g)
            d = np.diagonal(r)
            u = q * (d / np.abs(d))
            assert x.shape == (n, n)
            assert np.max(np.abs(x - u[:n, :n])) < 1e-13

    def test_pseudo_hermitian_mostly_real_spectrum(self):
        spec = EnsembleSpec("pseudo_hermitian_product", 100)
        n_complex = 0
        n_total = 0
        for _, x, _ in sample_many(spec, 3, 5):
            lam = np.linalg.eigvals(x)
            scale = np.maximum(np.abs(lam), 1.0)
            n_complex += int(np.sum(np.abs(lam.imag) > 1e-8 * scale))
            n_total += len(lam)
        assert n_complex <= 0.01 * n_total

    def test_induced_alpha_zero_matches_ginibre_radially(self):
        from scipy.stats import ks_2samp
        r_ind, r_gin = [], []
        for _, x, _ in sample_many(EnsembleSpec("induced_ginibre", 60,
                                                alpha=0.0), 11, 20):
            r_ind.extend(np.abs(np.linalg.eigvals(x)))
        for _, x, _ in sample_many(EnsembleSpec("ginibre", 60), 13, 20):
            r_gin.extend(np.abs(np.linalg.eigvals(x)))
        assert ks_2samp(r_ind, r_gin).pvalue > 0.01

    def test_induced_annulus_support(self):
        alpha = 1.0
        radii = []
        for _, x, _ in sample_many(EnsembleSpec("induced_ginibre", 80,
                                                alpha=alpha), 17, 10):
            radii.extend(np.abs(np.linalg.eigvals(x)))
        radii = np.array(radii)
        # inner hole at sqrt(alpha), outer edge at sqrt(1+alpha)
        assert np.quantile(radii, 0.01) > np.sqrt(alpha) - 0.15
        assert np.quantile(radii, 0.99) < np.sqrt(1 + alpha) + 0.15

    def test_spherical_heavy_tail(self):
        # the spherical spectrum is unbounded: radii beyond any single-ring
        # edge appear already in small batches
        radii = []
        for _, x, _ in sample_many(EnsembleSpec("spherical", 50), 19, 10):
            radii.extend(np.abs(np.linalg.eigvals(x)))
        assert np.max(radii) > 2.0

    def test_product_support_radius(self):
        radii = []
        for _, x, _ in sample_many(EnsembleSpec("product_ginibre", 80), 23, 10):
            radii.extend(np.abs(np.linalg.eigvals(x)))
        assert np.quantile(radii, 0.995) < 1.15

    def test_sample_many_indices(self):
        out = list(sample_many(EnsembleSpec("ginibre", 4), 0, 3))
        assert [k for k, _, _ in out] == [0, 1, 2]
        direct, _ = sample(EnsembleSpec("ginibre", 4), RngStream(0, 1))
        assert np.array_equal(out[1][1], direct)
