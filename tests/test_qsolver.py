"""Unit tests for the quaternionic Green's function / Bethe-Salpeter
machinery."""

import math

import numpy as np
import pytest

from overlap_lab import analytic, qsolver


class TestEllipticGreen:
    def test_outside_point(self):
        rt = qsolver.elliptic_rt(1.0, 0.5)
        res = qsolver.solve_green(rt, 4.0)
        assert res.branch == "holomorphic"
        assert res.g[0, 0] == pytest.approx(4.0 - math.sqrt(14.0), rel=1e-12)
        far = qsolver.solve_green(rt, 200.0)
        assert far.g[0, 0] * 200.0 == pytest.approx(1.0, rel=1e-3)

    def test_inside_origin(self):
        rt = qsolver.elliptic_rt(1.0, 0.5)
        res = qsolver.solve_green(rt, 0.0)
        assert res.branch == "nonholomorphic"
        assert res.g[0, 0] == 0.0
        # density from the off-diagonal element: rho = G_1b G_b1 ... via
        # the one-point function at the ellipse centre
        assert qsolver.o1_from_green(res) == pytest.approx(
            analytic.o1_elliptic(1.0, 0.5, 0.0), rel=1e-12)

    def test_tau_zero_is_circular(self):
        rt = qsolver.elliptic_rt(1.0, 0.0)
        res = qsolver.solve_green(rt, 3.0)
        assert res.g[0, 0] == pytest.approx(1.0 / 3.0, rel=1e-12)


class TestBiunitaryGreen:
    def test_inside_matches_radial_cdf(self):
        rt = qsolver.biunitary_rt("ginibre")
        z = 0.6 * np.exp(0.7j)
        res = qsolver.solve_green(rt, z)
        assert res.branch == "nonholomorphic"
        assert res.g[0, 0] == pytest.approx(abs(z) ** 2 / z, rel=1e-12)
        assert qsolver.o1_from_green(res) == pytest.approx(
            analytic.o1_biunitary(rt.fspec, abs(z)), rel=1e-12)

    def test_outside_is_free(self):
        rt = qsolver.biunitary_rt("product_ginibre")
        res = qsolver.solve_green(rt, 2.0 + 1.0j)
        assert res.branch == "holomorphic"
        assert res.g[0, 0] == pytest.approx(1.0 / (2.0 + 1.0j), rel=1e-12)
        assert qsolver.o1_from_green(res) == 0.0

    def test_inner_hole(self):
        rt = qsolver.biunitary_rt("induced_ginibre", alpha=1.0)
        res = qsolver.solve_green(rt, 0.3)
        assert res.branch == "holomorphic"


class TestScalarGreens:
    def test_pt_cubic_residual_and_asymptotics(self):
        for z in (20.0, 5.0 + 2.0j, -3.0 + 0.5j):
            g = qsolver.pt_green_scalar(z)
            res = np.polyval(qsolver._pt_cubic_coeffs(z), g)
            assert abs(res) < 1e-9
        assert qsolver.pt_green_scalar(200.0) == pytest.approx(1 / 200.0,
                                                               rel=0.05)

    def test_pt_conjugate_symmetry(self):
        z = 4.0 + 1.5j
        assert qsolver.pt_green_scalar(np.conj(z)) == pytest.approx(
            np.conj(qsolver.pt_green_scalar(z)), rel=1e-9)

    def test_pt_density_positive_inside(self):
        for x in (0.5, 2.0, 8.0):
            g = qsolver.pt_green_scalar(x + 1e-9j)
            assert abs(g.imag) / math.pi > 1e-3
        # outside the support the boundary value is real
        g = qsolver.pt_green_scalar(qsolver.PT_EDGE + 1.0 + 1e-9j)
        assert abs(g.imag) < 1e-6

    def test_pt_density_normalized(self):
        from scipy.integrate import quad
        total, _ = quad(lambda x: abs(qsolver.pt_green_scalar(
            complex(x, 1e-9)).imag) / math.pi, 1e-3, qsolver.PT_EDGE,
            limit=100)
        assert total == pytest.approx(1.0, abs=1e-3)

    def test_pt_exceptional_point(self):
        with pytest.raises(ValueError):
            qsolver.pt_green_scalar(0.0)

    def test_qs_cubic_residual(self):
        m, gamma = 2.0, 0.7
        for z in (3.0 + 1.0j, -2.0 + 0.5j, 10.0 + 0.1j):
            g = qsolver.qs_green_scalar(z, m, gamma)
            ig = 1j * gamma
            res = (g ** 2 + 1.0 - z * g) * (1.0 - ig * g) \
                + 1j * m * gamma * g ** 2
            assert abs(res) < 1e-9
        assert qsolver.qs_green_scalar(100.0, m, gamma) == pytest.approx(
            0.01, rel=0.05)


class TestPipeline:
    @pytest.mark.parametrize("kind,kwargs", [
        ("ginibre", {}),
        ("induced_ginibre", {"alpha": 0.5}),
        ("truncated_unitary", {"kappa": 1.0}),
        ("spherical", {}),
        ("product_ginibre", {}),
    ])
    def test_biunitary_pipeline_vs_closed_form(self, kind, kwargs):
        rt = qsolver.biunitary_rt(kind, **kwargs)
        fs = rt.fspec
        shift = fs.r_in
        top = min(fs.r_out, 2.0)
        rng = np.random.default_rng(42)
        for _ in range(3):
            r1, r2 = shift + (top - shift) * (0.15 + 0.7 * rng.random(2))
            th1, th2 = 2 * math.pi * rng.random(2)
            z1 = r1 * np.exp(1j * th1)
            z2 = r2 * np.exp(1j * th2)
            if abs(z1 - z2) < 0.1:
                continue
            got = qsolver.o2_from_k(rt, z1, z2)
            ref = analytic.o2_biunitary_closed_form(kind, z1, z2, **kwargs)
            assert got == pytest.approx(ref, rel=2e-4)

    def test_elliptic_pipeline_vs_closed_form(self):
        rt = qsolver.elliptic_rt(1.0, 0.5)
        for z1, z2 in [(0.3 + 0.2j, -0.5 + 0.1j), (0.8, 0.1 + 0.3j)]:
            got = qsolver.o2_from_k(rt, z1, z2)
            ref = analytic.o2_elliptic(1.0, 0.5, z1, z2)
            assert got == pytest.approx(ref, rel=1e-4)

    def test_outside_support_vanishes(self):
        rt = qsolver.biunitary_rt("ginibre")
        got = qsolver.o2_from_k(rt, 1.5 + 0.2j, 1.8 - 0.4j)
        assert abs(got) < 1e-10

    def test_coincident_rejected(self):
        rt = qsolver.biunitary_rt("ginibre")
        with pytest.raises(ValueError):
            qsolver.o2_from_k(rt, 0.5, 0.5)

    def test_pole_flag_near_coincidence(self):
        rt = qsolver.elliptic_rt(1.0, 0.0)
        z = 0.4 + 0.1j
        g1 = qsolver.solve_green(rt, z)
        g2 = qsolver.solve_green(rt, z + 1e-12)
        b = qsolver.build_rung(rt, g1, g2)
        _, pole = qsolver.solve_bethe_salpeter(g1.g, g2.g, b)
        assert pole

    def test_hole_point_vanishes(self):
        # z1 lies in the induced_ginibre hole (|z1| < sqrt(alpha)), z2 in
        # the bulk: the hole point enters only through A(|z2|)
        rt = qsolver.biunitary_rt("induced_ginibre", alpha=0.5)
        assert qsolver.o2_from_k(rt, 0.3 + 0.2j, 0.9 - 0.3j) == 0

    @pytest.mark.parametrize("z2", [0.0009, 0.001])
    def test_divergent_origin_rejected(self, z2):
        # O1 of product_ginibre diverges at the origin; a stencil reaching
        # it gave -147.9 at z2 = 9e-4 (closed form -228.4) and an SVD
        # failure at 1e-3.  LinAlgError is a ValueError: match the message.
        rt = qsolver.biunitary_rt("product_ginibre")
        with pytest.raises(ValueError, match="where O_1 diverges"):
            qsolver.o2_from_k(rt, 0.5, z2)

    def test_rung_needs_green_results_for_biunitary(self):
        rt = qsolver.biunitary_rt("ginibre")
        q = np.diag([0.5, 0.5]).astype(complex)
        with pytest.raises(ValueError):
            qsolver.build_rung(rt, q, q)


# The determining sequences A(r) of the five single-ring kinds in closed
# form, with their slopes A'(0) at the exterior: the reference for the
# values that qsolver derives from the radial cdf.
ALPHA, KAPPA = 0.5, 1.0
CLOSED_FORM_A = {
    "ginibre": (lambda r: 1.0, 0.0),
    "product_ginibre": (lambda r: min(r, 1.0), 1.0),
    "spherical": (lambda r: 1.0 + r ** 2, None),
    "induced_ginibre": (lambda r: r ** 2 / (r ** 2 - ALPHA),
                        -ALPHA * (1.0 + ALPHA)),
    "truncated_unitary": (lambda r: (1.0 - r ** 2) / KAPPA,
                          -1.0 / (1.0 + KAPPA) ** 3),
}


class TestSingleRingData:
    @pytest.mark.parametrize("kind", sorted(CLOSED_FORM_A))
    def test_a_matches_closed_form(self, kind):
        rt = qsolver.biunitary_rt(kind, alpha=ALPHA, kappa=KAPPA)
        fs = rt.fspec
        top = min(fs.r_out, 3.0)
        a_of_r = CLOSED_FORM_A[kind][0]
        for r in fs.r_in + (top - fs.r_in) * np.linspace(0.02, 0.98, 25):
            _, a = qsolver._x_and_a(fs, r)
            assert a == pytest.approx(a_of_r(r), rel=1e-14)

    @pytest.mark.parametrize(
        "kind", sorted(set(CLOSED_FORM_A) - {"spherical"}))
    def test_exterior_slope(self, kind):
        rt = qsolver.biunitary_rt(kind, alpha=ALPHA, kappa=KAPPA)
        r_out = rt.fspec.r_out
        s, t = qsolver._s_t_functions(rt, 1.5 * r_out, 2.0 * r_out)
        assert s == pytest.approx(r_out ** 2, rel=1e-14)
        assert t == pytest.approx(CLOSED_FORM_A[kind][1], rel=1e-14, abs=1e-15)

    def test_spec_identity(self):
        # without per-kind fields, the radial cdf carries the parameter
        a = qsolver.biunitary_rt("induced_ginibre", alpha=0.5)
        assert a == qsolver.biunitary_rt("induced_ginibre", alpha=0.5)
        assert a != qsolver.biunitary_rt("induced_ginibre", alpha=1.0)
        assert (qsolver.biunitary_rt("truncated_unitary", kappa=1.0)
                != qsolver.biunitary_rt("truncated_unitary", kappa=2.0))

    def test_spherical_has_no_slope(self):
        rt = qsolver.biunitary_rt("spherical")
        with pytest.raises(ValueError, match="no exterior"):
            qsolver._s_t_functions(rt, 1e4, 2e4)


class TestQuantumScatteringRung:
    def test_closed_form_matches_series(self):
        rt = qsolver.quantum_scattering_rt(m=1.5, gamma=0.8)
        rng = np.random.default_rng(7)
        for _ in range(5):
            vals = 0.05 * (rng.random(8) - 0.5)
            gq = np.array([[vals[0] + 1j * vals[1], vals[2]],
                           [vals[3], vals[4]]], dtype=complex)
            gp = np.array([[vals[5], vals[6] + 1j * vals[7]],
                           [vals[1], vals[0]]], dtype=complex)
            closed = qsolver.build_rung(rt, gq, gp)
            series = qsolver.quantum_scattering_rung_series(rt, gq, gp)
            assert np.max(np.abs(closed - series)) < 1e-8


class TestHolomorphicTwoPoint:
    @pytest.mark.parametrize("kind,r_out2", [
        ("ginibre", 1.0),
        ("product_ginibre", 1.0),
        ("truncated_unitary", 0.5),
    ])
    def test_matches_universal_form(self, kind, r_out2):
        rt = qsolver.biunitary_rt(kind, kappa=1.0)
        got = qsolver.h_holomorphic(rt, 2.0, 2.0)
        assert got == pytest.approx(1.0 / (4.0 - r_out2), rel=1e-10)

    def test_spherical_has_no_exterior(self):
        rt = qsolver.biunitary_rt("spherical")
        with pytest.raises(ValueError):
            qsolver.h_holomorphic(rt, 2.0, 2.0)

    def test_pseudo_hermitian_value(self):
        # anchor value cross-checked against direct Monte Carlo sampling
        rt = qsolver.pseudo_hermitian_rt()
        got = qsolver.h_holomorphic(rt, 20.0, 20.0)
        assert got.real == pytest.approx(0.0044009, rel=1e-3)
        assert abs(got.imag) < 1e-10

    def test_elliptic_far_field(self):
        rt = qsolver.elliptic_rt(1.0, 0.5)
        z = 50.0
        got = qsolver.h_holomorphic(rt, z, z)
        assert got == pytest.approx(1.0 / (z * z - 1.0), rel=1e-2)


class TestRealSpectrumO2:
    def test_symmetry(self):
        rt = qsolver.pseudo_hermitian_rt()
        a = qsolver.o2_real_spectrum(rt, 1.475, 3.975)
        b = qsolver.o2_real_spectrum(rt, 3.975, 1.475)
        assert a == pytest.approx(b, rel=1e-6)

    def test_repulsion_sign(self):
        rt = qsolver.pseudo_hermitian_rt()
        assert qsolver.o2_real_spectrum(rt, 2.0, 2.5) < 0.0

    def test_decay_with_separation(self):
        rt = qsolver.pseudo_hermitian_rt()
        near = abs(qsolver.o2_real_spectrum(rt, 2.0, 2.5))
        far = abs(qsolver.o2_real_spectrum(rt, 2.0, 8.0))
        assert far < near


class TestWheel:
    def test_ginibre_word_covariances(self):
        rt = qsolver.biunitary_rt("ginibre")
        assert qsolver.wheel_word_covariance(rt, 1, 1) == pytest.approx(
            1.0, abs=1e-8)
        assert qsolver.wheel_word_covariance(rt, 2, 2) == pytest.approx(
            2.0, abs=1e-8)
        assert abs(qsolver.wheel_word_covariance(rt, 1, 2)) < 1e-8

    def test_wheel_vanishes_far_outside(self):
        rt = qsolver.biunitary_rt("ginibre")
        val = qsolver.wheel_from_points(rt, 50.0, 50.0)
        assert abs(val) < 1e-3
