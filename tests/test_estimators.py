"""Unit tests for the Monte Carlo estimators."""

import math
import threading
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from overlap_lab import analytic, estimators, overlaps
from overlap_lab.ensembles import KINDS, PARAMS, EnsembleSpec, sample_many
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

# every estimator: the eigenvalue-based ones, and the two whose per-sample
# work is a pair of resolvents or a pair of word traces
ESTIMATORS = {
    **EIGEN_ESTIMATORS,
    "resolvent": lambda s: estimators.estimate_traced_resolvent_product(
        s, 2.0 + 0.5j, 1.5 - 0.5j),
    "trace_cov": lambda s: estimators.estimate_trace_covariance(
        s, "XX", "X+X+"),
}

# the call in each estimator's per-sample work, and its calls per sample
WORK_CALLS = {"resolvent": (np.linalg, "inv", 2),
              "trace_cov": (estimators, "_word_trace", 2)}


class TestConfig:
    def test_validation(self):
        for delta_min in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                EstimatorConfig(delta_min=delta_min)

    def test_batch_count_is_a_constant(self):
        # every caller used 20 batches: a constant, not a setting
        assert EstimatorConfig().n_batches == estimators.N_BATCHES == 20
        with pytest.raises(TypeError):
            EstimatorConfig(n_batches=3)


class TestSumRule:
    def test_ginibre_sum_rule(self):
        for _, x, _ in ginibre_samples(40, 3):
            assert estimators.sum_rule_residual(x) < 1e-9

    @given(kind=st.sampled_from(KINDS), n=st.integers(2, 12),
           sigma=st.floats(0.1, 3.0), tau=st.floats(-1.0, 1.0),
           alpha=st.floats(0.0, 3.0), kappa=st.floats(0.0, 3.0),
           m=st.floats(0.0, 3.0), gamma=st.floats(0.0, 3.0),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_sum_rule_any_valid_spec(self, kind, n, sigma, tau, alpha, kappa,
                                     m, gamma, seed):
        params = dict(sigma=sigma, tau=tau, alpha=alpha, kappa=kappa, m=m,
                      gamma=gamma)
        spec = EnsembleSpec(kind, n, **{name: params[name]
                                        for name in PARAMS[kind]})
        (_, x, _), = sample_many(spec, seed, 1)
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

    @pytest.mark.parametrize("name", list(ESTIMATORS))
    def test_sampler_rejections_reported(self, name):
        # every estimator dropped the samplers' rejection counts
        samples = [(k, x, {"rejections": 2})
                   for k, x, _ in ginibre_samples(12, 5, seed=3)]
        assert ESTIMATORS[name](samples).rejections == 10
        assert ESTIMATORS[name](ginibre_samples(12, 5, seed=3)).rejections == 0

    @pytest.mark.parametrize("name", list(ESTIMATORS))
    def test_identical_at_one_and_two_workers(self, name, monkeypatch):
        jordan = np.eye(12, k=1) + 0.5 * np.eye(12)
        good = ginibre_samples(12, 9, seed=4)
        samples = [jordan] + good[:5] + [jordan] + good[5:] + [jordan]
        results = []
        for workers in (1, 2):
            monkeypatch.setattr(overlaps, "WORKERS", workers)
            results.append(ESTIMATORS[name](samples))
        one, two = results
        # only a decomposition drops the near-defective draws
        dropped = 3 if name in EIGEN_ESTIMATORS else 0
        assert (getattr(one, "n_dropped", 0) == getattr(two, "n_dropped", 0)
                == dropped)
        for field in ("estimate", "stderr", "count", "value", "n_samples"):
            if hasattr(one, field):
                a = np.asarray(getattr(one, field))
                b = np.asarray(getattr(two, field))
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("name", list(ESTIMATORS))
    def test_pulls_after_decomposition(self, name, monkeypatch):
        # one worker keeps the strict pull-then-work order
        monkeypatch.setattr(overlaps, "WORKERS", 1)
        events = []
        owner, attr, calls = WORK_CALLS.get(name, (overlaps, "_schur", 1))
        work = getattr(owner, attr)

        def logged(a, *args):
            # sample k carries k at [0, 0] and 0 at [1, 1]; the resolvent
            # argument z - X carries -k between them
            events.append(("work", round(abs((a[0, 0] - a[1, 1]).real))))
            return work(a, *args)

        def pulls(samples):
            for k, x in enumerate(samples):
                events.append(("pull", k))
                x = x.copy()
                x[0, 0], x[1, 1] = k, 0
                yield x

        samples = [x for _, x, _ in ginibre_samples(12, 4)]
        monkeypatch.setattr(owner, attr, logged)
        ESTIMATORS[name](pulls(samples))
        assert events == [e for k in range(4)
                          for e in [("pull", k)] + [("work", k)] * calls]

    def test_resolvent_window_of_two(self, monkeypatch):
        # the resolvents run on the loop's pool, and sample k + 2 is
        # pulled only after the caller has taken the item of sample k
        monkeypatch.setattr(overlaps, "WORKERS", 2)
        pulled, seen = [], {}
        inv = np.linalg.inv

        def logged_inv(a):
            # a = 2 - X, and sample k carries k at [0, 0] and 0 at [1, 1]
            k = round((a[1, 1] - a[0, 0]).real)
            seen[k] = (threading.current_thread().name, len(pulled))
            return inv(a)

        def pulls(samples):
            for k, x in enumerate(samples):
                pulled.append(k)
                x = x.copy()
                x[0, 0], x[1, 1] = k, 0
                yield x

        samples = [x for _, x, _ in ginibre_samples(10, 6)]
        monkeypatch.setattr(np.linalg, "inv", logged_inv)
        est = estimators.estimate_traced_resolvent_product(
            pulls(samples), 2.0, 2.0)
        assert est.n_samples == 6 and sorted(seen) == list(range(6))
        for k, (thread, n_pulled) in seen.items():
            assert thread.startswith("MonteCarloLoop")
            assert k + 1 <= n_pulled <= k + 2

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

    def test_coincident_windows_count_off_diagonal_pairs(self):
        # with both windows on one square and delta_min = 0, the count is
        # the number of ordered pairs k != l in it (4), not 9 with the
        # five diagonal entries k = l
        samples = list(sample_many(EnsembleSpec("ginibre", 20), 3, 6))
        est = estimators.estimate_o2_windows(samples, [(0.3, 0.3)], 0.25)
        inside = [np.count_nonzero((np.abs(lam.real - 0.3) < 0.25)
                                   & (np.abs(lam.imag) < 0.25))
                  for lam in (np.linalg.eigvals(x) for _, x, _ in samples)]
        assert est.count[0] == sum(m * (m - 1) for m in inside) == 4

    @pytest.mark.parametrize("half_width", [0.0, -0.25, math.nan, math.inf])
    def test_bad_half_width_rejected(self, half_width):
        # 0 gave nan estimates and -0.25 gave 0, both with count 0
        samples = sample_many(EnsembleSpec("ginibre", 20), 3, 6)
        with pytest.raises(ValueError, match="half_width"):
            estimators.estimate_o2_windows(samples, [(0.3, -0.3)], half_width)


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
            samples, edges, EstimatorConfig(delta_min=0.0))
        none = estimators.estimate_o2_real_pairs(
            samples, edges, EstimatorConfig(delta_min=100.0))
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

    def test_one_inverse_per_distinct_point(self, monkeypatch):
        samples = [x for _, x, _ in ginibre_samples(10, 4, seed=3)]
        z1, z2 = 2.0 + 0.5j, 1.5 - 0.5j
        direct = np.mean([
            np.trace(np.linalg.inv(z1 * np.eye(10) - x)
                     @ np.linalg.inv(np.conj(z2) * np.eye(10) - x.conj().T))
            / 10 for x in samples])
        calls = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv",
                            lambda a: calls.append(1) or inv(a))
        est = estimators.estimate_traced_resolvent_product(samples, z1, z2)
        assert est.value == pytest.approx(direct, rel=1e-13)
        assert len(calls) == 8
        est = estimators.estimate_traced_resolvent_product(samples, z1, z1)
        assert len(calls) == 12
        assert abs(est.value.imag) <= 1e-15 * est.value.real

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
        assert estimators._word_trace(x, "") == 1.0
        for word in ("Y", "X++", "+X", "XY"):
            with pytest.raises(ValueError):
                estimators._word_trace(x, word)
        # two-letter words against an explicit product, bit for bit
        (_, g, _), = ginibre_samples(9, 1)
        xh = g.conj().T
        assert estimators._word_trace(g, "XX") == np.trace(g @ g) / 9
        assert estimators._word_trace(g, "X+X+") == np.trace(xh @ xh) / 9

    @pytest.mark.parametrize("length", range(5))
    def test_word_trace_matches_full_product(self, length):
        # every word of the length, against matmul of all letters then trace
        (_, g, _), = ginibre_samples(30, 1, seed=4)
        for bits in range(2 ** length):
            letters = ["X+" if bits >> k & 1 else "X" for k in range(length)]
            ref = np.trace(reduce(np.matmul, [
                g.conj().T if t == "X+" else g for t in letters],
                np.eye(30))) / 30
            got = estimators._word_trace(g, "".join(letters))
            assert abs(got - ref) <= 1e-13 * max(abs(ref), 1.0)

    def test_ginibre_first_moment_covariance(self):
        n = 50
        est = estimators.estimate_trace_covariance(
            ginibre_samples(n, 600, seed=9), "X", "X+")
        # cov(Tr X, Tr X+) = 1 at matrix scale, so 1/n^2 in trace units
        assert est.value.real * n ** 2 == pytest.approx(1.0, abs=0.2)

    def test_unbiased_batch_covariance(self):
        # +-1 draws of variance 1: eight samples make min(N_BATCHES, 4)
        # = 4 batches of two, which hold every ordered pair once, so the
        # unbiased batch covariances average to exactly 1 (dividing by m
        # instead of m - 1 gives 0.5)
        values = [1, 1, -1, -1, 1, -1, 1, -1]
        samples = [np.array([[v]], dtype=complex) for v in values]
        est = estimators.estimate_trace_covariance(samples, "X", "X")
        assert est.value == 1.0

    def test_error_scaling(self):
        small = estimators.estimate_trace_covariance(
            ginibre_samples(30, 200, seed=11), "X", "X+")
        large = estimators.estimate_trace_covariance(
            ginibre_samples(30, 800, seed=11), "X", "X+")
        ratio = small.stderr / large.stderr
        assert 1.2 < ratio < 3.5
