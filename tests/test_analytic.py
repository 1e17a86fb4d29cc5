"""Unit tests for the closed-form large-N statistics and the exact
finite-N two-point function."""

import cmath
import math
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import lapack

from overlap_lab import analytic


class TestRadialCdf:
    @pytest.mark.parametrize("kind,kwargs", [
        ("ginibre", {}),
        ("induced_ginibre", {"alpha": 0.5}),
        ("truncated_unitary", {"kappa": 1.0}),
        ("product_ginibre", {}),
    ])
    def test_cdf_range_and_monotonicity(self, kind, kwargs):
        fs = analytic.radial_cdf(kind, **kwargs)
        assert fs(fs.r_in) == pytest.approx(0.0, abs=1e-12)
        assert fs(fs.r_out) == pytest.approx(1.0, abs=1e-12)
        r = np.linspace(fs.r_in, fs.r_out, 50)
        vals = fs(r)
        assert np.all(np.diff(vals) >= -1e-12)
        # df is the derivative of f
        mid = 0.5 * (fs.r_in + fs.r_out)
        h = 1e-6
        assert fs.df(mid) == pytest.approx((fs.f(mid + h) - fs.f(mid - h))
                                           / (2 * h), rel=1e-5)

    def test_spherical_unbounded(self):
        fs = analytic.radial_cdf("spherical")
        assert fs.r_out == np.inf
        assert fs(100.0) == pytest.approx(1.0, abs=1e-3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            analytic.radial_cdf("elliptic")


class TestO1Biunitary:
    def test_ginibre_profile(self):
        fs = analytic.radial_cdf("ginibre")
        for r in (0.2, 0.5, 0.9):
            assert analytic.o1_biunitary(fs, r) == pytest.approx(
                (1 - r ** 2) * r ** 2 / (math.pi * r ** 2))

    def test_origin_limit(self):
        fs = analytic.radial_cdf("ginibre")
        assert analytic.o1_biunitary(fs, 0.0) == pytest.approx(1 / math.pi,
                                                               rel=1e-5)

    @pytest.mark.parametrize("kind, kwargs, limit", [
        ("ginibre", {}, 1 / math.pi),
        ("truncated_unitary", {"kappa": 3.0}, 3 / math.pi),
        ("spherical", {}, 1 / math.pi),
        ("induced_ginibre", {"alpha": 0.5}, 0.0),
    ])
    def test_origin_finite_limits(self, kind, kwargs, limit):
        fs = analytic.radial_cdf(kind, **kwargs)
        assert analytic.o1_biunitary(fs, 0.0) == pytest.approx(limit,
                                                               rel=1e-5)

    @pytest.mark.parametrize("kind, kwargs, limit", [
        ("truncated_unitary", {"kappa": 1.0}, 1 / math.pi),
        ("truncated_unitary", {"kappa": 0.5}, 0.5 / math.pi),
        ("spherical", {}, 1 / math.pi),
    ])
    def test_origin_limit_unbiased(self, kind, kwargs, limit):
        # F(eps)/(pi eps^2) read at eps = 1e-6 was about 1e-12 off
        fs = analytic.radial_cdf(kind, **kwargs)
        assert abs(analytic.o1_biunitary(fs, 0.0) - limit) <= 2 * math.ulp(limit)

    def test_origin_divergence(self):
        # F ~ r near the origin, so F(1-F)/(pi r^2) ~ 1/(pi r)
        fs = analytic.radial_cdf("product_ginibre")
        assert analytic.o1_biunitary(fs, 0.0) == math.inf
        # the master-formula stencil around z2 = h touches the origin,
        # where the bracket takes z2 O1(|z2|) as 0
        assert np.isfinite(analytic.o2_biunitary(fs, 0.4, 1e-3))

    def test_vanishes_outside_support(self):
        fs = analytic.radial_cdf("induced_ginibre", alpha=1.0)
        assert analytic.o1_biunitary(fs, 0.5) == 0.0
        assert analytic.o1_biunitary(fs, 2.0) == 0.0


class TestO2ClosedForms:
    def test_induced_alpha_zero_is_ginibre(self):
        z1, z2 = 0.4 + 0.2j, -0.3 + 0.5j
        a = analytic.o2_biunitary_closed_form("induced_ginibre", z1, z2,
                                              alpha=0.0)
        b = analytic.o2_biunitary_closed_form("ginibre", z1, z2)
        assert a == pytest.approx(b, rel=1e-12)

    def test_bulk_negativity(self):
        # separated bulk pairs repel: O2 < 0 for all worked single-ring cases
        pairs = [(0.3 + 0.1j, -0.2 + 0.3j), (0.5, 0.2 + 0.4j)]
        for z1, z2 in pairs:
            for kind, kw in [("ginibre", {}), ("spherical", {}),
                             ("product_ginibre", {}),
                             ("truncated_unitary", {"kappa": 1.0})]:
                val = analytic.o2_biunitary_closed_form(kind, z1, z2, **kw)
                assert val.real < 0

    def test_hermiticity_swap(self):
        # swapping arguments conjugates the two-point function
        z1, z2 = 0.4 + 0.2j, -0.1 - 0.3j
        for kind in ("ginibre", "product_ginibre", "spherical"):
            a = analytic.o2_biunitary_closed_form(kind, z1, z2)
            b = analytic.o2_biunitary_closed_form(kind, z2, z1)
            assert a == pytest.approx(np.conj(b), rel=1e-12)

    @pytest.mark.parametrize("kind,kwargs", [
        ("ginibre", {}),
        ("induced_ginibre", {"alpha": 0.5}),
        ("truncated_unitary", {"kappa": 1.0}),
        ("spherical", {}),
        ("product_ginibre", {}),
    ])
    def test_finite_difference_master_formula(self, kind, kwargs):
        fs = analytic.radial_cdf(kind, **kwargs)
        shift = fs.r_in if np.isfinite(fs.r_in) else 0.0
        lo = shift + 0.25 * ((min(fs.r_out, 2.0)) - shift)
        hi = shift + 0.75 * ((min(fs.r_out, 2.0)) - shift)
        z1 = lo * np.exp(0.4j)
        z2 = hi * np.exp(-0.9j)
        got = analytic.o2_biunitary(fs, z1, z2)
        ref = analytic.o2_biunitary_closed_form(kind, z1, z2, **kwargs)
        assert got == pytest.approx(ref, rel=1e-5)

    def test_equal_radius_path(self):
        fs = analytic.radial_cdf("ginibre")
        z1 = 0.6 * np.exp(0.3j)
        z2 = 0.6 * np.exp(-1.1j)
        got = analytic.o2_biunitary(fs, z1, z2)
        ref = analytic.o2_biunitary_closed_form("ginibre", z1, z2)
        assert got == pytest.approx(ref, rel=1e-4)

    def test_coincident_rejected(self):
        fs = analytic.radial_cdf("ginibre")
        with pytest.raises(ValueError):
            analytic.o2_biunitary(fs, 0.5, 0.5)

    @pytest.mark.parametrize("kind,kwargs,z1,z2", [
        ("induced_ginibre", {"alpha": 0.5}, 0.1 + 0.2j, -0.3 + 0.1j),
        ("ginibre", {}, 1.5 + 0.2j, -1.3 + 0.1j),
    ])
    def test_zero_where_o1_vanishes_at_both_points(self, kind, kwargs, z1,
                                                   z2):
        # both points in the hole, or both outside the support: there
        # F(r1) - F(r2) = 0 as well, and the bracket must not read 0/0
        fs = analytic.radial_cdf(kind, **kwargs)
        assert analytic.o2_biunitary(fs, z1, z2) == 0.0


class TestHUniversal:
    def test_value(self):
        assert analytic.h_universal(2.0, 2.0) == pytest.approx(1 / 3)
        assert analytic.h_universal(2.0, 2.0, r_out=math.sqrt(0.5)) == \
            pytest.approx(1 / 3.5)

    def test_pole(self):
        with pytest.raises(ZeroDivisionError):
            analytic.h_universal(1.0, 1.0)


class TestPhi:
    def test_origin_value(self):
        assert analytic.phi_microscopic(0.0) == pytest.approx(
            -1.0 / (2 * math.pi ** 2))

    def test_series_switch_continuity(self):
        lo = analytic.phi_microscopic(1e-2 - 1e-9)
        hi = analytic.phi_microscopic(1e-2 + 1e-9)
        assert lo == pytest.approx(hi, rel=1e-10)

    def test_large_argument_tail(self):
        w = 6.0
        assert analytic.phi_microscopic(w) == pytest.approx(
            -1.0 / (math.pi ** 2 * w ** 4), rel=1e-10)

    def test_plane_integral(self):
        assert analytic.phi_plane_integral() == pytest.approx(
            -1.0 / math.pi, abs=1e-8)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValueError):
            analytic.phi_microscopic(-1.0)


def quadrature_exact_o2(n, z1, z2):
    """Independent finite-N evaluation via direct numerical Gaussian moments.

    Rebuilds the pentadiagonal moment matrix entry-by-entry from 2D
    quadrature of the raw bracket, then applies the same determinant
    prefactor.  Only feasible for small N.
    """
    z1 = complex(z1)
    z2 = complex(z2)

    def entry(i, j):
        def integrand(y, x, part):
            lam = complex(x, y)
            bracket = (abs(z1 - lam) ** 2 * abs(z2 - lam) ** 2
                       + np.conj(z1 - lam) * (z2 - lam) / n)
            val = (bracket * lam ** j * np.conj(lam) ** i
                   * math.exp(-n * abs(lam) ** 2))
            return val.real if part == 0 else val.imag

        lim = 7.0 / math.sqrt(n)
        re, _ = integrate.dblquad(integrand, -lim, lim, -lim, lim, args=(0,),
                                  epsabs=1e-13)
        im, _ = integrate.dblquad(integrand, -lim, lim, -lim, lim, args=(1,),
                                  epsabs=1e-13)
        # apply the per-column scale absorbed into the library's h-matrix
        scale = n ** (j + 3) / (math.pi * math.factorial(j + 1))
        return (re + 1j * im) * scale

    dim = n - 1
    h = np.array([[entry(i, j) for j in range(dim)] for i in range(dim)])
    pref = (n / (math.pi ** 2 * math.factorial(n - 1))
            * math.exp(-n * (abs(z1) ** 2 + abs(z2) ** 2)))
    return -pref * np.linalg.det(h)


def loop_exact_h_matrix(n, z1, z2):
    """Entry-by-entry reference for the h of analytic._exact_h_band: each entry
    sums its terms h_ij = sum_p (c_p d_q + f_pq/N) (j+p)!/(j+1)! N^{2-p},
    q = p + i - j, in increasing p."""
    z1 = complex(z1)
    z2 = complex(z2)
    c = np.array([z1 * z2, -(z1 + z2), 1.0], dtype=complex)
    d = np.array([np.conj(z1) * np.conj(z2),
                  -(np.conj(z1) + np.conj(z2)), 1.0], dtype=complex)
    f = {(0, 0): np.conj(z1) * z2, (0, 1): -z2, (1, 0): -np.conj(z1),
         (1, 1): 1.0 + 0.0j}
    dim = n - 1
    h = np.zeros((dim, dim), dtype=complex)
    w = [lambda j: 1.0 / (j + 1.0), lambda j: 1.0, lambda j: j + 2.0]
    for i in range(dim):
        for j in range(max(0, i - 2), min(dim, i + 3)):
            t = i - j
            acc = 0.0 + 0.0j
            for p in range(3):
                q = p - t
                if not 0 <= q <= 2:
                    continue
                coef = c[p] * d[q] + f.get((p, q), 0.0) / n
                acc += coef * w[p](j) * float(n) ** (2 - p)
            h[i, j] = acc
    return h


def mp_band_det(h):
    """det h of a pentadiagonal h in mpmath arithmetic at the current
    precision: Gaussian elimination with row pivoting inside the band."""
    from mpmath import mp
    dim = len(h)
    a = [[mp.mpc(x) for x in row] for row in h]
    det = mp.mpc(1)
    for k in range(dim):
        below = range(k, min(dim, k + 3))
        piv = max(below, key=lambda i: abs(a[i][k]))
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        for i in below[1:]:
            m = a[i][k] / a[k][k]
            for j in range(k, min(dim, k + 5)):
                a[i][j] -= m * a[k][j]
    return det


# bulk, rim (|z| ~ 1) and outside pairs of points; the last two pivot
EXACT_POINTS = {
    "bulk": (0.3 + 0.1j, -0.2 + 0.4j),
    "rim": (0.99 * cmath.exp(0.3j), 1.01 * cmath.exp(-0.4j)),
    "outside": (1.3 + 0.0j, -1.2j),
}


class TestExactFiniteN:
    @pytest.mark.parametrize("n", [2, 3, 5, 40, 80])
    def test_h_matrix_matches_loop_bit_for_bit(self, n):
        dim = n - 1
        for z1, z2 in [(0.0, 0.0), (0.3 + 0.1j, -0.2 + 0.4j),
                       (0.7 - 0.2j, 0.1), (1.1 + 0.3j, -0.9j)]:
            ab = analytic._exact_h_band(n, z1, z2)
            ref = loop_exact_h_matrix(n, z1, z2)
            rest = ab.copy()
            # band row 4 + t holds the diagonal i - j = t of h
            for t in range(-2, 3):
                cols = slice(max(0, -t), dim - max(0, t))
                assert (ab[4 + t, cols].tobytes()
                        == np.diagonal(ref, -t).tobytes())
                rest[4 + t, cols] = 0.0
            assert not rest.any()

    def test_mp_band_det_matches_mp_det(self):
        mp = pytest.importorskip("mpmath").mp
        h = loop_exact_h_matrix(40, *EXACT_POINTS["rim"])
        with mp.workdps(50):
            dense = mp.det(mp.matrix([[mp.mpc(x) for x in row] for row in h]))
            assert abs(mp_band_det(h) / dense - 1) < mp.mpf(10) ** -40

    @pytest.mark.parametrize("where", sorted(EXACT_POINTS))
    @pytest.mark.parametrize("n", [40, 80, 160, 300])
    def test_matches_mpmath_determinant(self, n, where):
        mp = pytest.importorskip("mpmath").mp
        z1, z2 = EXACT_POINTS[where]
        with mp.workdps(50):
            det = mp_band_det(loop_exact_h_matrix(n, z1, z2))
            r2 = abs(mp.mpc(z1)) ** 2 + abs(mp.mpc(z2)) ** 2
            ref = complex(-n * mp.exp(-n * r2) * det
                          / (mp.pi ** 2 * mp.gamma(n) * (n + 1)))
        got = analytic.o2_exact_ginibre(n, z1, z2)
        assert abs(got - ref) <= 1e-10 * abs(ref)

    def test_band_lu_swaps_rows(self):
        swaps = {}
        for where in ("rim", "outside"):
            ab = analytic._exact_h_band(40, *EXACT_POINTS[where])
            _, piv, info = lapack.zgbtrf(ab, 2, 2)
            assert info == 0
            swaps[where] = np.count_nonzero(piv != np.arange(piv.size))
        assert swaps["rim"] > 0
        # odd, so the mpmath comparison at N = 40 checks the pivot sign
        assert swaps["outside"] % 2 == 1

    def test_zero_pivot_gives_zero_without_warning(self, monkeypatch):
        band = analytic._exact_h_band

        def singular_band(n, z1, z2):
            ab = band(n, z1, z2)
            ab[:, 4] = 0.0  # a zero column: zgbtrf meets an exact 0 pivot
            return ab

        monkeypatch.setattr(analytic, "_exact_h_band", singular_band)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = analytic.o2_exact_ginibre(10, 0.3 + 0.1j, -0.2 + 0.4j)
        assert got == 0j

    def test_raw_origin_n2(self):
        got = analytic.o2_exact_ginibre(2, 0.0, 0.0, normalized=False)
        assert got == pytest.approx(-6.0 / math.pi ** 2, abs=1e-10)

    def test_raw_matches_quadrature_oracle(self):
        for n, z1, z2 in [(2, 0.0, 0.0), (2, 0.3 + 0.1j, -0.2j),
                          (3, 0.2, 0.5 + 0.3j)]:
            got = analytic.o2_exact_ginibre(n, z1, z2, normalized=False)
            ref = quadrature_exact_o2(n, z1, z2)
            assert got == pytest.approx(ref, rel=1e-7)

    def test_normalization_factor(self):
        raw = analytic.o2_exact_ginibre(25, 0.1, 0.5, normalized=False)
        norm = analytic.o2_exact_ginibre(25, 0.1, 0.5)
        assert raw / norm == pytest.approx(26.0, rel=1e-12)

    def test_macroscopic_limit(self):
        z1, z2 = 0.1 + 0.2j, 0.55 - 0.15j
        got = analytic.o2_exact_ginibre(60, z1, z2)
        ref = analytic.o2_biunitary_closed_form("ginibre", z1, z2)
        assert got == pytest.approx(ref, rel=0.05)

    def test_microscopic_kernel(self):
        n = 80
        for w in (0.7, 1.5, 2.5):
            got = analytic.o2_exact_ginibre(n, 0.0, w / math.sqrt(n)) / n ** 2
            assert got.real == pytest.approx(analytic.phi_microscopic(w),
                                             rel=0.02)

    def test_bounds(self):
        with pytest.raises(ValueError):
            analytic.o2_exact_ginibre(1, 0, 0)
        with pytest.raises(ValueError):
            analytic.o2_exact_ginibre(500, 0, 0)


class TestElliptic:
    def test_tau_zero_reduces_to_ginibre(self):
        z1, z2 = 0.3 + 0.1j, -0.4 + 0.2j
        a = analytic.o2_elliptic(1.0, 0.0, z1, z2)
        b = analytic.o2_biunitary_closed_form("ginibre", z1, z2)
        assert a == pytest.approx(b, rel=1e-12)
        assert analytic.o1_elliptic(1.0, 0.0, 0.5) == pytest.approx(
            (1 - 0.25) / math.pi)

    def test_support_boundary(self):
        sigma, tau = 1.0, 0.5
        assert analytic.o1_elliptic(sigma, tau, 1.6) == 0.0
        assert analytic.o1_elliptic(sigma, tau, 1.4) > 0.0

    def test_coincident_rejected(self):
        with pytest.raises(ValueError):
            analytic.o2_elliptic(1.0, 0.5, 0.2, 0.2)
