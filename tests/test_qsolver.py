"""Unit tests for the quaternionic Green's function / Bethe-Salpeter
machinery."""

import math
import warnings

import numpy as np
import pytest

from overlap_lab import analytic, estimators, qsolver
from overlap_lab.ensembles import EnsembleSpec, sample_many
from overlap_lab.numcore import STENCIL_H, stencil_pairs


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
        assert not qsolver.solve_green(rt, 0.0).g.any()

    def test_origin_bulk_limit(self):
        rt = qsolver.biunitary_rt("ginibre")
        res = qsolver.solve_green(rt, 0.0)
        assert res.branch == "nonholomorphic"
        assert res.g[0, 0] == 0.0
        assert qsolver.o1_from_green(res) == pytest.approx(1.0 / math.pi,
                                                           rel=1e-12)
        with pytest.raises(ValueError, match="diverges at the origin"):
            qsolver.solve_green(qsolver.biunitary_rt("product_ginibre"), 0.0)


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

    @pytest.mark.parametrize("x", [0.5, 2.0, 8.0])
    def test_pt_o1_on_real_spectrum_is_positive_zero(self, x):
        # a point of the real spectrum is tagged nonholomorphic with
        # G_1b = 0, and -(0 * 0)/pi printed `qsolve o1 ... --z 2,0` as
        # o1,-0.0
        res = qsolver.solve_green(qsolver.pseudo_hermitian_rt(), x)
        o1 = qsolver.o1_from_green(res)
        assert o1 == 0.0 and math.copysign(1.0, o1) == 1.0

    def test_qs_cubic_residual(self):
        # GUE g + 1/g plus the channel R-transform m i gamma/(1 - i gamma g)
        m, gamma = 2.0, 0.7
        for z in (3.0 + 1.0j, -2.0 + 0.5j, 10.0 + 0.1j):
            g = qsolver.qs_green_scalar(z, m, gamma)
            ig = 1j * gamma
            assert abs(g + 1.0 / g + m * ig / (1.0 - ig * g) - z) < 1e-9
        assert qsolver.qs_green_scalar(100.0, m, gamma) == pytest.approx(
            0.01, rel=0.05)

    @pytest.mark.parametrize("z", [5.0, 4.0 + 3.0j, 1.0 - 3.0j,
                                   -1.137 - 0.201j])
    def test_qs_r_transform_identity(self, z):
        # the cubic once carried i m gamma g^2 for i m gamma g: at z = 5
        # it gave 0.2059+0.0105i against Monte Carlo 0.19025+0.04506i
        m, gamma = 1.5, 0.8
        g = qsolver.qs_green_scalar(z, m, gamma)
        ig = 1j * gamma
        assert abs(g + 1.0 / g + m * ig / (1.0 - ig * g) - z) < 1e-10 * abs(z)


def serial_track(coeff_func, z_target):
    """The np.roots homotopy one step at a time, from LAPACK's
    companion-matrix eigenvalues: the tracker's accuracy oracle."""
    s = 1.0 if z_target.imag >= 0 else -1.0
    z0 = complex(z_target.real, s * qsolver.TRACK_FAR)
    g = 1.0 / z0
    for t in np.linspace(0.0, 1.0, qsolver.TRACK_STEPS)[1:]:
        z = z0 + t * (z_target - z0)
        roots = np.roots(coeff_func(z))
        g = roots[np.argmin(np.abs(roots - g))]
    return g


def scaled_residual(coeff_func, z, g):
    """|f(g)| over the sum of the magnitudes of f's terms at g."""
    c = np.broadcast_arrays(*coeff_func(np.asarray(z)))
    terms = [ck * g ** (3 - k) for k, ck in enumerate(c)]
    return np.abs(sum(terms)) / sum(np.abs(term) for term in terms)


QS_PAIR = (-1.137 - 0.201j, -1.121 - 0.502j)
# O_1(0.9227) = O_1(0.9381) for induced_ginibre alpha=0.5: the single
# ring's rung grows like 1/(x1 - x2) at this pair (|T| ~ 3.5e3)
EQUAL_O1_PAIR = (-0.06342816491394528 + 0.920540934630426j,
                 -0.8718494645803783 + 0.34615481444249896j)
# targets within 1e-8 to 1e-2 of the double root at PT_EDGE, both sides,
# and PT_EDGE itself, where Cardano is only sqrt(eps)-accurate and f'(g)
# nearly vanishes: an unguarded Newton step jumped 6e-3 away there
PT_EDGE_TARGETS = [qsolver.PT_EDGE] + [
    qsolver.PT_EDGE + side * d + 1j * im
    for side in (-1.0, 1.0) for d in (1e-8, 1e-6, 1e-4, 1e-2)
    for im in (1e-12, -1e-12, 1e-9, -1e-9, 1e-3, -1e-3)]
# quantum scattering m = 1.5, gamma = 0.8 down to the real axis; Re z = 0
# is left out, since there two roots meet on the path inside the spectrum
# (at z ~ 3.37i) and rounding alone picks the branch below
QS_GRID = [x + 1j * y for x in np.linspace(-3.75, 3.75, 16)
           for y in (-2.0, -0.5, -1e-3, -1e-9, 1e-9, 1e-3, 0.5, 2.0, 4.0)]


class TestStackedTracker:
    def assert_matches_serial(self, coeff_func, targets):
        got = qsolver._track_cubic_roots(coeff_func, targets)
        ref = np.array([serial_track(coeff_func, complex(z)) for z in targets])
        assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))
        # a point's root does not depend on the other points of the stack
        one = [qsolver._track_cubic_roots(coeff_func, [z])[0] for z in targets]
        assert got.tobytes() == np.array(one).tobytes()

    def test_eps_ladder_targets(self):
        x, y = 1.475, 4.0
        eps = np.array(qsolver.EPS_LADDER)
        self.assert_matches_serial(qsolver._pt_cubic_coeffs, np.concatenate(
            [x + 1j * eps, x - 1j * eps, y + 1j * eps, y - 1j * eps]))

    def test_quantum_scattering_stencil(self):
        points = list(dict.fromkeys(w for pair in stencil_pairs(*QS_PAIR)
                                    for w in pair))
        assert len(points) == 16
        self.assert_matches_serial(qsolver._qs_cubic_coeffs(1.5, 0.8), points)

    @pytest.mark.parametrize("x", [0.5, 2.0, 8.0])
    def test_on_axis_substitution(self, x):
        track = qsolver._track_cubic_roots(qsolver._pt_cubic_coeffs,
                                           [complex(x, 1e-12)])[0]
        assert qsolver.pt_green_scalar(x) == track
        self.assert_matches_serial(qsolver._pt_cubic_coeffs,
                                   [complex(x, 1e-12), x + 1e-3j])


class TestCubicRoots:
    def test_triple_root(self):
        # (g - 1)^3: D0 = D1 = 0, so C = 0 and f'(1) = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            roots = qsolver._cubic_roots(1.0, -3.0, 3.0, -1.0)
        assert roots.shape == (3,)
        assert np.all(np.isfinite(roots))
        assert np.all(np.abs(roots - 1.0) < 1e-12)

    def test_matches_np_roots(self):
        rng = np.random.default_rng(13)
        coeffs = rng.standard_normal((50, 4)) + 1j * rng.standard_normal(
            (50, 4))
        roots = qsolver._cubic_roots(*coeffs.T)
        for c, got in zip(coeffs, roots):
            ref = np.roots(c)
            # every reference root has a distinct partner among ours
            dist = np.abs(got[:, None] - ref[None, :])
            assert sorted(np.argmin(dist, axis=0)) == [0, 1, 2]
            assert np.all(dist.min(axis=0) <= 1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize("coeff_func,targets", [
        (qsolver._pt_cubic_coeffs, PT_EDGE_TARGETS),
        (qsolver._qs_cubic_coeffs(1.5, 0.8), QS_GRID),
    ], ids=["pt_edge", "qs_grid"])
    def test_tracked_branch_and_residual(self, coeff_func, targets):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = qsolver._track_cubic_roots(coeff_func, targets)
        assert np.all(scaled_residual(coeff_func, np.array(targets), got)
                      <= 1e-14)
        ref = np.array([serial_track(coeff_func, complex(z)) for z in targets])
        assert np.all(np.abs(got - ref) < 1e-6 * np.abs(ref))

    def test_no_lapack_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.eigvals called")

        monkeypatch.setattr(np.linalg, "eigvals", refuse)
        rt = qsolver.pseudo_hermitian_rt()
        assert math.isfinite(qsolver.o2_real_spectrum(rt, 1.475, 4.0))
        qs = qsolver.quantum_scattering_rt(m=1.5, gamma=0.8)
        assert np.isfinite(qsolver.o2_from_k(qs, *QS_PAIR))


RING_RADII = [0.0, 0.3, 0.5 ** 0.5, 0.7, 0.999, 1.0, 1.3, 2.5]
RING_KINDS = [("ginibre", {}), ("induced_ginibre", {"alpha": 0.5}),
              ("truncated_unitary", {"kappa": 1.0}), ("spherical", {}),
              ("product_ginibre", {})]
# points of both regimes per kind, with the edges and the origin where
# valid (product_ginibre raises there)
STACK_POINTS = {
    "elliptic": (qsolver.elliptic_rt(1.0, 0.5),
                 [0.0, 0.3 + 0.2j, 1.49, 1.6, -0.4 - 0.45j, 4.0, 2.0 - 3.0j]),
    "elliptic_circular": (qsolver.elliptic_rt(1.0, 0.0),
                          [0.0, 0.5j, 0.99, 1.0, 1.7 - 0.2j]),
    "pseudo_hermitian_product": (qsolver.pseudo_hermitian_rt(),
                                 [0.5, 2.0, 8.0, 12.0, -1.0, 3.0 + 1e-3j,
                                  6.0 - 2.0j, 20.0]),
    "quantum_scattering": (qsolver.quantum_scattering_rt(m=1.5, gamma=0.8),
                           list(QS_PAIR) + [5.0, 4.0 + 3.0j, 1.0 - 3.0j,
                                            -0.5j, 3.5j]),
    **{kind: (qsolver.biunitary_rt(kind, **kw),
              [r * np.exp(1j * th) for r in RING_RADII for th in (0.0, 2.1)
               if r or kind != "product_ginibre"])
       for kind, kw in RING_KINDS},
}


class TestStackedSolve:
    @pytest.mark.parametrize("kind", sorted(STACK_POINTS))
    def test_solve_green_is_stack_of_one(self, kind):
        rt, points = STACK_POINTS[kind]
        green = qsolver._solve_stack(rt, np.array(points))
        # both regimes are covered (the spherical bulk is the plane)
        assert green.inside.any() or kind == "quantum_scattering"
        assert not green.inside.all() or kind == "spherical"
        for i, z in enumerate(points):
            one = qsolver.solve_green(rt, z)
            assert one.g.tobytes() == green.g[i].tobytes()
            assert one.z == green.z[i] and one.inside == green.inside[i]
            assert one.branch == green[i].branch == (
                "nonholomorphic" if green.inside[i] else "holomorphic")

    @pytest.mark.parametrize("rt,points,bad", [
        (qsolver.biunitary_rt("product_ginibre"), [0.5, 0.3j], 0.0),
        (qsolver.quantum_scattering_rt(m=1.5, gamma=0.8), [5.0, -0.5j], 1j),
        (qsolver.pseudo_hermitian_rt(), [3.0 + 1j, 2.0], 0.0),
    ], ids=["product_ginibre_origin", "qs_inside", "pt_exceptional"])
    def test_invalid_point_raises_for_stack(self, rt, points, bad):
        with pytest.raises(ValueError) as scalar:
            qsolver.solve_green(rt, bad)
        with pytest.raises(ValueError) as stacked:
            qsolver._solve_stack(rt, np.array(points[:1] + [bad]
                                              + points[1:], dtype=complex))
        assert str(stacked.value) == str(scalar.value)


class TestQuantumScatteringSupport:
    RT = qsolver.quantum_scattering_rt(m=1.5, gamma=0.8)

    @pytest.mark.parametrize("z", [1j, 0.5 + 0.5j, 1.8j, 3.3j])
    def test_inside_raises(self, z):
        # 1 - |g|^2 B^{11}_{bb}(z, zbar) <= 0 here (3.06 at 1j, 1.76 at
        # 3.3j; Monte Carlo top edge 3.29-3.46): once tagged holomorphic
        with pytest.raises(ValueError, match="inside the spectrum"):
            qsolver.solve_green(self.RT, z)
        with pytest.raises(ValueError):
            qsolver.h_holomorphic(self.RT, z, np.conj(z))

    def test_scalar_green_raises_inside(self):
        # at 2i two roots of the cubic have met on the continuation path,
        # so rounding alone picked the branch the scalar solver returned
        with pytest.raises(ValueError, match="inside the spectrum"):
            qsolver.qs_green_scalar(2j, self.RT.m, self.RT.gamma)
        assert qsolver.qs_green_scalar(3.5j, self.RT.m, self.RT.gamma) == \
            qsolver.solve_green(self.RT, 3.5j).g[0, 0]

    @pytest.mark.parametrize("z", list(QS_PAIR) + [5.0, 4.0 + 3.0j, 1.0 - 3.0j,
                                                   -0.5j, 3.5j])
    def test_outside_is_holomorphic(self, z):
        assert qsolver.solve_green(self.RT, z).branch == "holomorphic"

    def test_wheel_circle_crosses_spectrum(self):
        with pytest.raises(ValueError, match="inside the spectrum"):
            qsolver.wheel_word_covariance(self.RT, 1, 1)

    def test_zero_coupling_raises(self):
        # gamma = 0 zeroes the cubic's leading coefficient
        rt = qsolver.quantum_scattering_rt(m=1.5, gamma=0.0)
        with pytest.raises(ValueError, match="gamma != 0"):
            qsolver.solve_green(rt, 5.0)
        with pytest.raises(ValueError, match="gamma != 0"):
            qsolver.qs_green_scalar(5.0, 1.5, 0.0)


def _pair_stacks(rt, pairs):
    """The records of the first and of the second points of ``pairs``,
    indexed into one stacked solve."""
    green = qsolver._solve_stack(rt, np.array(pairs).ravel())
    return green[0::2], green[1::2]


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

    @pytest.mark.parametrize("rt,z1,z2", [
        (qsolver.elliptic_rt(1.0, 0.5), 0.1, 0.1015),
        (qsolver.biunitary_rt("ginibre"), 0.5, 0.502),
        (qsolver.biunitary_rt("ginibre"), 0.0, 0.002),
    ], ids=["elliptic", "ginibre", "ginibre_origin"])
    def test_near_coincident_rejected(self, rt, z1, z2):
        # the stencils reach 2h from each point and crossed the pole at
        # z1 = z2: -7.1e10 (closed form -1.5e10), -1.4e19 (-4.7e9) and a
        # LinAlgError (a ValueError: match the message)
        with pytest.raises(ValueError, match="within 4h of each other"):
            qsolver.o2_from_k(rt, z1, z2)

    @pytest.mark.parametrize("steps,rel", [(10, 5e-3), (20, 3e-4)])
    def test_error_near_coincidence(self, steps, rel):
        # the error grows like (h/|z1 - z2|)^4 outside the 4h guard
        z1 = 0.3 + 0.1j
        z2 = z1 + steps * STENCIL_H * np.exp(0.7j)
        got = qsolver.o2_from_k(qsolver.biunitary_rt("ginibre"), z1, z2)
        ref = analytic.o2_biunitary_closed_form("ginibre", z1, z2)
        assert got == pytest.approx(ref, rel=rel)

    def test_pole_flag_near_coincidence(self):
        rt = qsolver.elliptic_rt(1.0, 0.0)
        z = 0.4 + 0.1j
        g1 = qsolver.solve_green(rt, z)
        g2 = qsolver.solve_green(rt, z + 1e-12)
        b = qsolver.build_rung(rt, g1, g2)
        assert qsolver.solve_bethe_salpeter(g1.g, g2.g, b)[1]

    @pytest.mark.parametrize("rt,z1,z2", [
        (qsolver.biunitary_rt("ginibre"), 0.5 + 0.2j, -0.3 + 0.4j),
        (qsolver.elliptic_rt(1.0, 0.5), 0.3 + 0.2j, -0.5 + 0.1j),
        (qsolver.quantum_scattering_rt(m=1.5, gamma=0.8), *QS_PAIR),
    ], ids=["ginibre", "elliptic", "quantum_scattering"])
    def test_stencil_points_solved_once(self, monkeypatch, rt, z1, z2):
        # the h and h/2 stencils share 16 points among their 32 pairs
        points = []
        solve = qsolver._solve_stack
        monkeypatch.setattr(qsolver, "_solve_stack", lambda rt, z: (
            points.extend(z.tolist()) or solve(rt, z)))
        qsolver.o2_from_k(rt, z1, z2)
        assert len(points) == len(set(points)) == 16

    @pytest.mark.parametrize("rt,z1,z2", [
        (qsolver.biunitary_rt("induced_ginibre", alpha=0.5), 0.9, 1.1j),
        (qsolver.elliptic_rt(1.0, 0.5), 0.3 + 0.2j, 2.0),
        (qsolver.quantum_scattering_rt(m=1.5, gamma=0.8), *QS_PAIR),
    ], ids=["induced_ginibre", "elliptic", "quantum_scattering"])
    def test_stacks_match_single_matrices(self, rt, z1, z2):
        pairs = stencil_pairs(z1, z2)
        q1, q2 = _pair_stacks(rt, pairs)
        b = qsolver.build_rung(rt, q1, q2)
        k, pole, det = qsolver.solve_bethe_salpeter(q1, q2, b)
        for i, (w1, w2) in enumerate(pairs):
            a, c = qsolver.solve_green(rt, w1), qsolver.solve_green(rt, w2)
            bi = qsolver.build_rung(rt, a, c)
            ki, pi, di = qsolver.solve_bethe_salpeter(a.g, c.g, bi)
            assert np.array_equal(b[i], bi) and np.array_equal(k[i], ki)
            assert pole[i] == pi and det[i] == di

    def test_equal_o1_at_distinct_radii(self):
        # at EQUAL_O1_PAIR the 4x4 ladder solve gave 1.0e-4 relative
        # error (closed form -0.131124559+8.7e-5i)
        rt = qsolver.biunitary_rt("induced_ginibre", alpha=0.5)
        z1, z2 = EQUAL_O1_PAIR
        ref = analytic.o2_biunitary_closed_form("induced_ginibre", z1, z2,
                                                alpha=0.5)
        assert qsolver.o2_from_k(rt, z1, z2) == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("kind,kwargs", [
        ("ginibre", {}), ("induced_ginibre", {"alpha": 0.5}),
        ("truncated_unitary", {"kappa": 1.0}), ("spherical", {}),
        ("product_ginibre", {})])
    def test_ring_ladder_is_bethe_salpeter_solve(self, kind, kwargs):
        rt = qsolver.biunitary_rt(kind, **kwargs)
        q1, q2 = _pair_stacks(
            rt, stencil_pairs(0.9 * np.exp(0.4j), 1.1 * np.exp(2.0j)))
        k, pole, det = qsolver.solve_bethe_salpeter(
            q1, q2, qsolver.build_rung(rt, q1, q2))
        got, got_pole, got_det = qsolver.ladder(rt, q1, q2)
        assert np.max(np.abs(got - k)) < 1e-13 * np.max(np.abs(k))
        assert np.max(np.abs(got_det - det)) < 1e-13 * np.max(np.abs(det))
        assert not pole.any() and not got_pole.any()

    def test_ring_ladder_pole_flag(self):
        rt = qsolver.biunitary_rt("ginibre")
        g1 = qsolver.solve_green(rt, 0.4 + 0.1j)
        g2 = qsolver.solve_green(rt, 0.4 + 0.1j + 1e-12)
        assert qsolver.ladder(rt, g1, g2)[1]

    def test_quantum_scattering_vanishes_outside(self):
        # below the real axis O2 = 0; the wrong cubic gave 1.7e-4 here
        rt = qsolver.quantum_scattering_rt(m=1.5, gamma=0.8)
        got = qsolver.o2_from_k(rt, *QS_PAIR)
        assert abs(got) < 1e-9

    def test_hole_point_vanishes(self):
        # z1 lies in the induced_ginibre hole (|z1| < sqrt(alpha)), z2 in
        # the bulk: the hole point enters only through A(|z2|)
        rt = qsolver.biunitary_rt("induced_ginibre", alpha=0.5)
        assert qsolver.o2_from_k(rt, 0.3 + 0.2j, 0.9 - 0.3j) == 0

    @pytest.mark.parametrize("kind,kwargs", [
        ("ginibre", {}), ("truncated_unitary", {"kappa": 1.0}),
        ("spherical", {}), ("induced_ginibre", {"alpha": 0.0})])
    @pytest.mark.parametrize("z1,z2", [(0.5, 0.001),
                                       (0.3 + 0.2j, 0.001j),
                                       (-0.4, -0.001)])
    def test_stencil_through_origin(self, kind, kwargs, z1, z2):
        # one stencil point of z2 sits exactly on z = 0, where the hole
        # branch gave G = 0 and o2_from_k about 66 against -1.63
        rt = qsolver.biunitary_rt(kind, **kwargs)
        ref = analytic.o2_biunitary_closed_form(kind, z1, z2, **kwargs)
        assert qsolver.o2_from_k(rt, z1, z2) == pytest.approx(ref, rel=1e-8)

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
        s, t, _ = qsolver._s_t_functions(rt, 1.5 * r_out, 2.0 * r_out)
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
    @pytest.mark.parametrize("rt,z1,z2bar", [
        (qsolver.elliptic_rt(1.0, 0.5), 0.2, 0.1),
        (qsolver.biunitary_rt("induced_ginibre", alpha=1.0), 0.3, 0.3),
        (qsolver.pseudo_hermitian_rt(), 3.0, 3.0),
        (qsolver.biunitary_rt("spherical"), 2.0, 2.0),
    ], ids=["elliptic_interior", "hole", "pt_axis", "spherical"])
    def test_raises_inside_spectrum(self, rt, z1, z2bar):
        # these once returned continuation values, e.g. -0.524 in the hole
        # for ||(z - X)^{-1}||_F^2/N > 0
        with pytest.raises(ValueError):
            qsolver.h_holomorphic(rt, z1, z2bar)

    @pytest.mark.parametrize("rt,z1,z2", [
        (qsolver.elliptic_rt(1.0, 0.5), 4.0, 2.0 + 1.0j),
        (qsolver.biunitary_rt("truncated_unitary", kappa=1.0),
         1.5 + 1.0j, -2.0 + 0.3j),
        (qsolver.quantum_scattering_rt(m=1.5, gamma=0.8), 5.0, 4.0 + 3.0j),
    ])
    def test_is_ladder_component(self, rt, z1, z2):
        g1 = qsolver.solve_green(rt, z1)
        g2 = qsolver.solve_green(rt, z2)
        k = qsolver.solve_bethe_salpeter(
            g1.g, g2.g, qsolver.build_rung(rt, g1, g2))[0]
        assert qsolver.h_holomorphic(rt, z1, np.conj(z2)) == pytest.approx(
            k[1, 1], rel=1e-14)

    @pytest.mark.parametrize("z1,z2", [(5.0, 5.0), (4.0 + 3.0j, 4.0 + 3.0j),
                                       (1.0 - 3.0j, 4.0 + 3.0j)])
    def test_quantum_scattering_matches_monte_carlo(self, z1, z2):
        # h took g(zbar2) for conj g(z2) and a wrong cubic: 15-27% off
        spec = EnsembleSpec("quantum_scattering", 100, m=1.5, gamma=0.8)
        est = estimators.estimate_traced_resolvent_product(
            sample_many(spec, 23, 100), z1, z2)
        rt = qsolver.quantum_scattering_rt(m=1.5, gamma=0.8)
        got = qsolver.h_holomorphic(rt, z1, np.conj(z2))
        assert abs(got - est.value) < 0.01 * abs(est.value)

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

    @pytest.mark.parametrize("rt", [qsolver.pseudo_hermitian_rt(),
                                    qsolver.elliptic_rt(1.0, 0.5)],
                             ids=["pt", "elliptic"])
    def test_arrays_match_points(self, rt):
        z1 = np.array([[6.0 + 1e-3j], [-1.0 - 2.0j]])
        z2bar = np.array([7.5 - 0.5j, 3.0 + 4.0j, 2.0 + 2.5e-4j])
        got = qsolver.h_holomorphic(rt, z1, z2bar)
        assert got.shape == (2, 3)
        # equal up to the rounding of array against scalar arithmetic
        for (i, j), val in np.ndenumerate(got):
            assert val == pytest.approx(
                qsolver.h_holomorphic(rt, z1[i, 0], z2bar[j]), rel=1e-14)

    def test_pt_array_inside_raises(self):
        rt = qsolver.pseudo_hermitian_rt()
        with pytest.raises(ValueError, match="outside the spectrum"):
            qsolver.h_holomorphic(rt, np.array([6.0, 3.0]), 7.0)


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

    def test_eps_ladder_tracked_once(self, monkeypatch):
        calls = []
        track = qsolver._track_cubic_roots
        monkeypatch.setattr(qsolver, "_track_cubic_roots",
                            lambda f, t: calls.append(len(t)) or track(f, t))
        qsolver.o2_real_spectrum(qsolver.pseudo_hermitian_rt(), 1.475, 4.0)
        assert calls == [4 * len(qsolver.EPS_LADDER)]


class TestWheel:
    def test_ginibre_word_covariances(self):
        rt = qsolver.biunitary_rt("ginibre")
        assert qsolver.wheel_word_covariance(rt, 1, 1) == pytest.approx(
            1.0, abs=1e-8)
        assert qsolver.wheel_word_covariance(rt, 2, 2) == pytest.approx(
            2.0, abs=1e-8)
        assert abs(qsolver.wheel_word_covariance(rt, 1, 2)) < 1e-8

    def test_circle_solved_once(self, monkeypatch):
        # z2 = R e^{-i phi_k} is circle point -k: one solve per point
        points = []
        solve = qsolver._solve_stack
        monkeypatch.setattr(qsolver, "_solve_stack", lambda rt, z: (
            points.extend(z.tolist()) or solve(rt, z)))
        qsolver.wheel_word_covariance(qsolver.biunitary_rt("ginibre"), 1, 1)
        assert len(points) == len(set(points)) == qsolver.WHEEL_N_THETA

    def test_one_determinant_call(self, monkeypatch):
        # the determinants of all circle pairs come from one stacked ladder
        calls = []
        ladder = qsolver.ladder
        monkeypatch.setattr(qsolver, "ladder", lambda rt, gq, gp: (
            calls.append((gq.z.size, gp.z.size)) or ladder(rt, gq, gp)))
        qsolver.wheel_word_covariance(qsolver.biunitary_rt("ginibre"), 1, 1)
        assert calls == [(qsolver.WHEEL_N_THETA ** 2,) * 2]

    def test_ring_determinant_is_closed_form(self):
        # det(1 - F B) of a single ring is 1 - tr(R F_PP) + det R det F_PP;
        # the 4x4 determinant was 6e-14 relative off it at this pair
        rt = qsolver.biunitary_rt("induced_ginibre", alpha=0.5)
        g1, g2 = (qsolver.solve_green(rt, z) for z in EQUAL_O1_PAIR)
        r, det_r = qsolver._ring_block(rt, g1, g2)
        fpp = qsolver._free_ladder(g1, g2)[1:3, 1:3]
        det = 1.0 - np.trace(r @ fpp) + det_r * np.linalg.det(fpp)
        # det is negative real here, read with Im det = +0.0 (-i pi)
        assert det.real < 0 and abs(det.imag) <= 1e-14 * abs(det)
        assert qsolver.wheel_from_points(rt, *EQUAL_O1_PAIR) == pytest.approx(
            -np.log(det.real + 0j), rel=1e-15)

    @pytest.mark.parametrize("rt", [qsolver.biunitary_rt("ginibre"),
                                    qsolver.elliptic_rt(1.0, 0.5)],
                             ids=["ginibre", "elliptic"])
    def test_pole_raises(self, rt):
        # det(1 - F B) vanishes at coincident bulk points; -log of its
        # rounding residue came out as 36.3 (ginibre) and 60.6 (elliptic)
        with pytest.raises(ZeroDivisionError):
            qsolver.wheel_from_points(rt, 0.5, 0.5 + 1e-13j)

    def test_circle_through_spectrum_hits_pole(self):
        # the spherical ensemble's bulk is the plane: the circle's
        # coincident pairs sit on the pole
        with pytest.raises(ZeroDivisionError):
            qsolver.wheel_word_covariance(qsolver.biunitary_rt("spherical"),
                                          1, 1)

    def test_negative_real_determinant_takes_minus_i_pi(self):
        # det(1 - F B) is negative real at single-ring bulk pairs; the
        # rounding residue of Im det gave -i pi at this pair and +i pi at
        # its conjugate
        rt = qsolver.biunitary_rt("induced_ginibre", alpha=0.5)
        z1, z2 = (-0.6726384944604337 + 0.435976578914115j,
                  0.8958361727505727 + 0.26194504195065027j)
        for pair in ((z1, z2), (np.conj(z1), np.conj(z2))):
            assert qsolver.wheel_from_points(rt, *pair).imag == -math.pi

    def test_wheel_vanishes_far_outside(self):
        rt = qsolver.biunitary_rt("ginibre")
        val = qsolver.wheel_from_points(rt, 50.0, 50.0)
        assert abs(val) < 1e-3
