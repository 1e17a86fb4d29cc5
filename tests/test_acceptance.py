"""Acceptance gate: thirteen cross-validation criteria comparing the
Monte Carlo estimators against the large-N and finite-N analytics.

Each criterion test prints exactly one PASS/FAIL line (visible even under
pytest output capture) and asserts the same condition.
"""

import contextlib
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from overlap_lab import analytic, estimators, qsolver
from overlap_lab.ensembles import KINDS, EnsembleSpec, sample_many
from overlap_lab.estimators import EstimatorConfig

_write_line = print


@pytest.fixture(autouse=True)
def _route_lines_past_capture(request):
    """Emit criterion lines through the terminal reporter with output
    capture suspended, so they stay visible in a captured run."""
    global _write_line
    plugins = request.config.pluginmanager
    reporter = plugins.getplugin("terminalreporter")
    capman = plugins.getplugin("capturemanager")
    suspended = (capman.global_and_fixture_disabled if capman is not None
                 else contextlib.nullcontext)
    if reporter is not None:
        def _write_line(line):
            with suspended():
                reporter.ensure_newline()
                if reporter._tw.width_of_current_line:  # -q progress dots
                    reporter._tw.line()
                reporter.write_line(line)
    yield
    _write_line = print


def criterion(num, description, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    line = f"CRITERION {num:02d} {status} {description}"
    if detail:
        line += f" [{detail}]"
    _write_line(line)
    assert passed, line


def window_average(func, z, w, half_width, points=5):
    """Average func(z', w') over the two square windows."""
    gx, gw = np.polynomial.legendre.leggauss(points)
    offs = half_width * gx
    wts = gw / 2.0
    acc = 0.0
    for ax, wa in zip(offs, wts):
        for ay, wb in zip(offs, wts):
            for bx, wc in zip(offs, wts):
                for by, wd in zip(offs, wts):
                    acc += wa * wb * wc * wd * func(
                        z + complex(ax, ay), w + complex(bx, by))
    return acc


def test_criterion_01_sum_rule():
    specs = {
        "ginibre": {}, "elliptic": {"tau": 0.5},
        "induced_ginibre": {"alpha": 0.5}, "truncated_unitary": {"kappa": 1.0},
        "spherical": {}, "product_ginibre": {},
        "pseudo_hermitian_product": {}, "quantum_scattering": {"gamma": 0.7},
    }
    worst = 0.0
    for kind in KINDS:
        spec = EnsembleSpec(kind, 100, **specs[kind])
        for _, x, _ in sample_many(spec, 201, 3):
            worst = max(worst, estimators.sum_rule_residual(x))
    criterion(1, "overlap row-sum identity across all 8 ensembles",
              worst < 1e-6, f"max residual {worst:.2e}")


def test_criterion_02_ginibre_o1():
    n = 200
    edges = np.linspace(0.1, 0.8, 8)
    est = estimators.estimate_o1(
        sample_many(EnsembleSpec("ginibre", n), 202, 500), edges)
    zs = []
    for i in range(len(edges) - 1):
        a, b = edges[i], edges[i + 1]
        # exact annulus average of (1 - r^2)/pi
        ref = ((b ** 2 - a ** 2) - (b ** 4 - a ** 4) / 2.0) \
            / (math.pi * (b ** 2 - a ** 2))
        zs.append(abs(est.estimate[i].real - ref) / est.stderr[i])
    worst = max(zs)
    criterion(2, "Ginibre radial one-point function vs (1-r^2)/pi",
              worst < 3.0, f"max |z-score| {worst:.2f} over {len(zs)} bins")


def test_criterion_03_ginibre_o2_macroscopic():
    n = 100
    windows = [(0.5 + 0.0j, -0.5 + 0.0j),
               (0.45 + 0.35j, -0.35 - 0.35j),
               (0.0 + 0.55j, 0.0 - 0.55j),
               (0.5 + 0.3j, -0.5 + 0.3j),
               (0.6 - 0.2j, -0.4 + 0.2j)]
    half_width = 0.15
    config = EstimatorConfig(delta_min=5.0 / math.sqrt(n))
    est = estimators.estimate_o2_windows(
        sample_many(EnsembleSpec("ginibre", n), 203, 2000),
        windows, half_width, config)
    ok = True
    details = []
    for i, (z, w) in enumerate(windows):
        ref = window_average(
            lambda a, b: analytic.o2_biunitary_closed_form("ginibre", a, b),
            z, w, half_width)
        diff = abs(est.estimate[i] - ref)
        tol = max(0.10 * abs(ref), 3.0 * est.stderr[i])
        ok &= diff < tol
        details.append(f"{diff / abs(ref):.1%}")
    criterion(3, "Ginibre macroscopic two-point function, 5 window pairs",
              ok, "rel dev " + "/".join(details))


def test_criterion_04_biunitary_master_formula():
    cases = [("induced_ginibre", {"alpha": 0.5}),
             ("truncated_unitary", {"kappa": 1.0}),
             ("spherical", {}),
             ("product_ginibre", {})]
    worst = 0.0
    for kind, kwargs in cases:
        fs = analytic.radial_cdf(kind, **kwargs)
        top = min(fs.r_out, 2.0)
        lo, hi = fs.r_in + 0.15 * (top - fs.r_in), fs.r_in + 0.85 * (top - fs.r_in)
        radii = np.linspace(lo, hi, 5)
        pairs = [(radii[i] * np.exp(0.5j * (i + 1)),
                  radii[(i + 2) % 5] * np.exp(-0.7j * (i + 1)))
                 for i in range(5)]
        pairs += [(r1 * np.exp(2.1j), r2 * np.exp(0.4j))
                  for r1, r2 in [(radii[0], radii[3]), (radii[1], radii[4]),
                                 (radii[2], radii[0]), (radii[3], radii[1]),
                                 (radii[4], radii[2])]]
        for z1, z2 in pairs:
            got = analytic.o2_biunitary(fs, z1, z2)
            ref = analytic.o2_biunitary_closed_form(kind, z1, z2, **kwargs)
            worst = max(worst, abs(got - ref) / abs(ref))
    criterion(4, "single-ring master formula vs 4 closed forms, 10 pairs each",
              worst < 1e-5, f"max rel dev {worst:.2e}")


def test_criterion_05_elliptic_pipeline():
    sigma, tau = 1.0, 0.5
    rt = qsolver.elliptic_rt(sigma, tau)
    rng = np.random.default_rng(205)
    worst = 0.0
    n_pairs = 0
    while n_pairs < 10:
        z1 = complex(1.2 * (rng.random() - 0.5) * 2, 0.4 * (rng.random() - 0.5) * 2)
        z2 = complex(1.2 * (rng.random() - 0.5) * 2, 0.4 * (rng.random() - 0.5) * 2)
        if abs(z1 - z2) < 0.3:
            continue
        if not (analytic.o1_elliptic(sigma, tau, z1) > 0.02
                and analytic.o1_elliptic(sigma, tau, z2) > 0.02):
            continue
        got = qsolver.o2_from_k(rt, z1, z2)
        ref = analytic.o2_elliptic(sigma, tau, z1, z2)
        worst = max(worst, abs(got - ref) / abs(ref))
        n_pairs += 1
    pipeline_ok = worst < 1e-4

    n = 100
    windows = [(0.7 + 0.0j, -0.7 + 0.0j), (0.6 + 0.15j, -0.6 - 0.15j)]
    half_width = 0.15
    config = EstimatorConfig(delta_min=5.0 / math.sqrt(n))
    est = estimators.estimate_o2_windows(
        sample_many(EnsembleSpec("elliptic", n, sigma=sigma, tau=tau),
                    206, 2000), windows, half_width, config)
    mc_ok = True
    mc_detail = []
    for i, (z, w) in enumerate(windows):
        ref = window_average(
            lambda a, b: analytic.o2_elliptic(sigma, tau, a, b),
            z, w, half_width)
        diff = abs(est.estimate[i] - ref)
        mc_ok &= diff < max(0.10 * abs(ref), 3.0 * est.stderr[i])
        mc_detail.append(f"{diff / abs(ref):.1%}")
    criterion(5, "elliptic Bethe-Salpeter pipeline and Monte Carlo",
              pipeline_ok and mc_ok,
              f"pipeline max rel {worst:.1e}; MC dev "
              + "/".join(mc_detail))


def test_criterion_06_universal_traced_resolvent():
    cases = [("ginibre", {}, 1.0),
             ("product_ginibre", {}, 1.0),
             ("truncated_unitary", {"kappa": 1.0}, 0.5)]
    ok = True
    details = []
    for kind, kwargs, r_out2 in cases:
        est = estimators.estimate_traced_resolvent_product(
            sample_many(EnsembleSpec(kind, 100, **kwargs), 207, 800),
            2.0, 2.0)
        ref = 1.0 / (4.0 - r_out2)
        rel = abs(est.value - ref) / ref
        ok &= rel < 0.02
        details.append(f"{kind}:{rel:.2%}")
    criterion(6, "traced resolvent product matches 1/(z1 zbar2 - r_out^2)",
              ok, " ".join(details))


def test_criterion_07_exact_finite_n():
    raw = analytic.o2_exact_ginibre(2, 0.0, 0.0, normalized=False)
    origin_ok = abs(raw - (-6.0 / math.pi ** 2)) < 1e-10
    z1, z2 = 0.25 + 0.15j, -0.3 + 0.35j
    got = analytic.o2_exact_ginibre(30, z1, z2)
    ref = analytic.o2_biunitary_closed_form("ginibre", z1, z2)
    macro_rel = abs(got - ref) / abs(ref)
    criterion(7, "exact finite-N determinant: N=2 origin and N=30 bulk",
              origin_ok and macro_rel < 0.10,
              f"origin dev {abs(raw + 6 / math.pi ** 2):.1e}, "
              f"N=30 rel dev {macro_rel:.1%}")


def test_criterion_08_microscopic_bulk_limit():
    def deviation(n, w):
        got = analytic.o2_exact_ginibre(n, 0.0, w / math.sqrt(n)) / n ** 2
        ref = analytic.phi_microscopic(w)
        return abs(got.real - ref) / abs(ref)

    ok = True
    details = []
    floor = 1e-8
    for w in (0.5, 1.0, 2.0, 3.0):
        d50 = deviation(50, w)
        d100 = deviation(100, w)
        ok &= d100 < 0.02 and d100 <= d50 + floor
        details.append(f"w={w}:{d100:.1e}")
    criterion(8, "microscopic bulk kernel from the exact determinant",
              ok, " ".join(details))


def test_criterion_09_edge_scaling_exponent():
    xs = np.linspace(0.05, 3.0, 40)
    ns = np.array([40, 80, 160])

    def peak(n, center):
        vals = [abs(analytic.o2_exact_ginibre(
            n, center + x / (2.0 * math.sqrt(n)),
            center - x / (2.0 * math.sqrt(n)))) for x in xs]
        return max(vals)

    edge_slope = np.polyfit(np.log(ns), np.log([peak(n, 1.0) for n in ns]),
                            1)[0]
    bulk_slope = np.polyfit(np.log(ns), np.log([peak(n, 0.0) for n in ns]),
                            1)[0]
    criterion(9, "near-coincident scaling exponent: 3/2 at the edge, 2 in "
              "the bulk",
              abs(edge_slope - 1.5) < 0.1 and abs(bulk_slope - 2.0) < 0.1,
              f"edge {edge_slope:.3f}, bulk {bulk_slope:.3f}")


def test_criterion_10_pseudo_hermitian_model():
    n = 100
    rt = qsolver.pseudo_hermitian_rt()
    samples = list(sample_many(
        EnsembleSpec("pseudo_hermitian_product", n), 7, 2000))

    edges = np.arange(0.0, 10.5, 0.25)
    dens = estimators.estimate_density_real(samples, edges)
    gx, gw = np.polynomial.legendre.leggauss(5)

    def rho(x):
        return abs(qsolver.pt_green_scalar(complex(x, 1e-9)).imag) / math.pi

    dens_zs = []
    for i, c in enumerate(dens.centers[:, 0]):
        if not 0.5 <= c <= 10.0:
            continue
        a, b = edges[i], edges[i + 1]
        ref = 0.5 * float(np.dot(gw, [rho(0.5 * (b - a) * t + 0.5 * (a + b))
                                      for t in gx]))
        dens_zs.append(abs(dens.estimate[i].real - ref) / dens.stderr[i])
    dens_ok = max(dens_zs) < 3.0

    pair_edges = 0.1 + 0.25 * np.arange(41)
    o2 = estimators.estimate_o2_real_pairs(samples, pair_edges)
    centers = o2.grid_centers
    n_ok = 0
    n_tot = 0
    for x_cut in (1.475, 3.975):
        ix = int(np.argmin(np.abs(centers - x_cut)))
        for j, y in enumerate(centers):
            if not 0.5 <= y <= 10.0 or abs(y - centers[ix]) < 0.3:
                continue
            ref = qsolver.o2_real_spectrum(rt, centers[ix], y)
            diff = abs(o2.grid_estimate[ix, j].real - ref)
            n_tot += 1
            n_ok += int(diff <= 3.0 * o2.grid_stderr[ix, j])
    cross_ok = n_ok >= 0.9 * n_tot
    criterion(10, "real-spectrum model: density and two-point cross sections",
              dens_ok and cross_ok,
              f"density max|z| {max(dens_zs):.2f}; cross sections "
              f"{n_ok}/{n_tot} within 3 sigma")


def test_criterion_11_quantum_scattering_rung():
    rt = qsolver.quantum_scattering_rt(m=1.5, gamma=0.8)
    rng = np.random.default_rng(211)
    worst = 0.0
    for _ in range(10):
        vals = 0.05 * (rng.random(16) - 0.5)
        gq = np.array([[vals[0] + 1j * vals[1], vals[2] + 1j * vals[3]],
                       [vals[4] + 1j * vals[5], vals[6] + 1j * vals[7]]])
        gp = np.array([[vals[8] + 1j * vals[9], vals[10] + 1j * vals[11]],
                       [vals[12] + 1j * vals[13], vals[14] + 1j * vals[15]]])
        closed = qsolver.build_rung(rt, gq, gp)
        series = qsolver.quantum_scattering_rung_series(rt, gq, gp)
        worst = max(worst, float(np.max(np.abs(closed - series))))
    criterion(11, "quantum scattering rung: closed form vs order-40 series",
              worst < 1e-8, f"max abs dev {worst:.2e}")


def test_criterion_12_wheel_function():
    n = 100
    rt = qsolver.biunitary_rt("ginibre")
    samples = list(sample_many(EnsembleSpec("ginibre", n), 212, 5000))
    ok = True
    details = []
    for (p, q), (w1, w2) in [((1, 1), ("X", "X+")), ((2, 2), ("XX", "X+X+"))]:
        pred = qsolver.wheel_word_covariance(rt, p, q).real
        est = estimators.estimate_trace_covariance(samples, w1, w2)
        mc = est.value.real * n ** 2
        err = est.stderr * n ** 2
        z = abs(mc - pred) / err
        ok &= z < 3.0
        details.append(f"({w1},{w2}): mc {mc:.3f} vs {pred:.0f} (z={z:.2f})")
    criterion(12, "wheel generating function vs Monte Carlo trace "
              "covariances", ok, "; ".join(details))


def test_criterion_13_phi_plane_integral():
    val = analytic.phi_plane_integral()
    dev = abs(val - (-1.0 / math.pi))
    criterion(13, "microscopic kernel plane integral equals -1/pi",
              dev < 1e-8, f"dev {dev:.2e}")


def test_criterion_lines_shown_under_capture():
    # the criterion lines of a captured run (pytest's default) reach the
    # terminal, one per criterion test
    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]]
                 if os.environ.get("PYTHONPATH") else [])))
    env.pop("PYTEST_ADDOPTS", None)
    ids = [f"{__file__}::{name}" for name in (
        "test_criterion_07_exact_finite_n",
        "test_criterion_11_quantum_scattering_rung",
        "test_criterion_13_phi_plane_integral")]
    out = subprocess.run([sys.executable, "-m", "pytest", "-q",
                          "-p", "no:cacheprovider", *ids],
                         cwd=os.path.dirname(tests), env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    lines = [l for l in out.stdout.splitlines() if l.startswith("CRITERION")]
    assert [l.split()[1:3] for l in lines] == [
        ["07", "PASS"], ["11", "PASS"], ["13", "PASS"]], out.stdout
