"""Quaternionic large-N machinery.

One-point Green's functions from the quaternionic R-transform fixed
point, the ladder rung built from planar cumulants, the Bethe-Salpeter
resummation of the two-point function, holomorphic traced resolvent
products, the real-spectrum boundary-value route, and the wheel (double
trace) generating function.

Quaternions are plain ``(2, 2)`` complex arrays laid out as
``[[G_11, G_1b], [G_b1, G_bb]]``.  The 4x4 two-point objects use the
composite index ordering ``(alpha mu) in [(1,1), (1,b), (b,1), (b,b)]``
for rows and ``(beta nu)`` for columns, so that the free ladder is the
Kronecker product ``G(Q) (x) G(P)^T`` and the eigenvector component of
interest sits at position ``[1, 1]``.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .analytic import _elliptic_inside, _o1_at, o1_biunitary, radial_cdf
from .numcore import STENCIL_H, wirtinger_mixed_derivative

__all__ = [
    "RTransformSpec",
    "GreenResult",
    "elliptic_rt",
    "biunitary_rt",
    "pseudo_hermitian_rt",
    "quantum_scattering_rt",
    "solve_green",
    "o1_from_green",
    "build_rung",
    "solve_bethe_salpeter",
    "k_eigenvector_component",
    "o2_from_k",
    "h_holomorphic",
    "o2_real_spectrum",
    "wheel_generating_function",
]

# Fourier circles of wheel_word_covariance, eps -> 0 ladder and Im-part
# tolerance of o2_real_spectrum, terms of quantum_scattering_rung_series.
WHEEL_RADIUS, WHEEL_N_THETA = 1.8, 32
EPS_LADDER = (1e-3, 5e-4, 2.5e-4)
IMAG_TOL = 1e-8
RUNG_SERIES_ORDER = 40


@dataclass(frozen=True)
class RTransformSpec:
    """Cumulant data of one ensemble, as needed by the two-point solver.

    ``kind`` selects the closed-form route.  A biunitary kind is defined
    by the radial cdf ``fspec`` of its spectrum alone, from which its
    determining sequence follows (see :func:`_s_t_functions`).
    """

    kind: str
    sigma: float = 1.0
    tau: float = 0.0
    m: float = 1.0
    gamma: float = 1.0
    fspec: object = None


def elliptic_rt(sigma=1.0, tau=0.0):
    return RTransformSpec("elliptic", sigma=sigma, tau=tau)


def biunitary_rt(kind, alpha=0.0, kappa=1.0):
    """R-transform data of a biunitarily invariant ensemble."""
    return RTransformSpec("biunitary_" + kind,
                          fspec=radial_cdf(kind, alpha=alpha, kappa=kappa))


def pseudo_hermitian_rt():
    """Product of two shifted GUE matrices (2 + G1)(2 + G2)."""
    return RTransformSpec("pseudo_hermitian_product")


def quantum_scattering_rt(m=1.0, gamma=1.0):
    return RTransformSpec("quantum_scattering", m=m, gamma=gamma)


@dataclass(frozen=True)
class GreenResult:
    g: np.ndarray  # (2, 2) complex
    branch: str  # "holomorphic" or "nonholomorphic"
    z: complex = 0.0


def _quaternion(g11, off=0j):
    """On-shell Green's function ``[[g11, off], [off, conj(g11)]]``."""
    return np.array([[g11, off], [off, np.conj(g11)]], dtype=complex)


def _sqrt_towards(value, reference):
    """Square root branch whose real inner product with reference is >= 0."""
    s = cmath.sqrt(value)
    if (s * reference.conjugate()).real < 0:
        s = -s
    return s


def _elliptic_g_holo(sigma, tau, z):
    if abs(tau) < 1e-14:
        return 1.0 / z
    s = _sqrt_towards(z * z - 4.0 * sigma ** 2 * tau, z)
    return (z - s) / (2.0 * sigma ** 2 * tau)


def _track_cubic_root(coeff_func, z_target, steps=160, far=60.0):
    """Follow the 1/z root of a parametric cubic from far away to z_target.

    Continuation runs along the straight segment from
    ``Re(z) + i sign(Im z) far`` down to ``z_target``, which never
    crosses a real spectrum for targets off (or just off) the real axis.
    """
    s = 1.0 if z_target.imag >= 0 else -1.0
    z0 = complex(z_target.real, s * far)
    g = 1.0 / z0
    for t in np.linspace(0.0, 1.0, steps)[1:]:
        z = z0 + t * (z_target - z0)
        roots = np.roots(coeff_func(z))
        g = roots[np.argmin(np.abs(roots - g))]
    return g


def _pt_cubic_coeffs(z):
    # z g^3 - (2z+1) g^2 + (z-2) g - 1 = 0, from 4/(1-g)^2 + 1/g = z
    return [z, -(2.0 * z + 1.0), z - 2.0, -1.0]


PT_EDGE = 0.5 * (11.0 + 5.0 * math.sqrt(5.0))


def pt_green_scalar(z):
    """Holomorphic Green's function of the pseudohermitian product.

    The 1/z branch of the cubic, chosen by homotopy continuation from
    large imaginary part.  For real ``z`` inside the spectrum the upper
    boundary value g(x + i0) is returned.  The exceptional point x = 0
    is excluded (no controlled formula exists there).
    """
    z = complex(z)
    if abs(z) < 1e-8:
        raise ValueError("exceptional point x=0: Green's function diagnostic")
    if z.imag == 0.0 and 0.0 < z.real < PT_EDGE:
        z = complex(z.real, 1e-12)
    return _track_cubic_root(_pt_cubic_coeffs, z)


def qs_green_scalar(z, m, gamma):
    """Holomorphic traced resolvent of the quantum scattering ensemble."""
    z = complex(z)
    ig = 1j * gamma

    def coeffs(zz):
        # (g^2 + 1 - zz g)(1 - ig g) + i m gamma g^2 = 0
        # -ig g^3 + (1 + ig zz + i m gamma) g^2 + (-zz - ig) g + 1 = 0
        return [-ig, 1.0 + ig * zz + 1j * m * gamma, -(zz + ig), 1.0]

    return _track_cubic_root(coeffs, z)


def solve_green(rt, z):
    """Quaternionic Green's function at spectral point z (w -> 0 taken).

    Returns a :class:`GreenResult` whose branch tag reports whether z
    fell in the holomorphic (outside) or nonholomorphic (inside) regime.
    """
    z = complex(z)
    if rt.kind == "elliptic" and _elliptic_inside(rt.sigma, rt.tau, z):
        sigma, tau = rt.sigma, rt.tau
        s2 = sigma ** 2
        denom = s2 * (1.0 - tau ** 2)
        g11 = (np.conj(z) - z * tau) / denom
        rad = 1.0 - abs(z - np.conj(z) * tau) ** 2 / (s2 * (1.0 - tau ** 2) ** 2)
        off = 1j * math.sqrt(max(rad, 0.0)) / sigma
        return GreenResult(_quaternion(g11, off), "nonholomorphic", z)
    if rt.kind.startswith("biunitary_"):
        fspec = rt.fspec
        r = abs(z)
        if fspec.r_in < r < fspec.r_out:
            off = 1j * math.sqrt(max(math.pi * o1_biunitary(fspec, r), 0.0))
            return GreenResult(_quaternion(fspec(r) / z, off),
                               "nonholomorphic", z)
        if r <= fspec.r_in:
            g = 0.0 + 0.0j if r == 0 else fspec(r) / z  # zero inside the hole
            return GreenResult(_quaternion(g), "holomorphic", z)
    branch = "holomorphic"
    if (rt.kind == "pseudo_hermitian_product"
            and z.imag == 0.0 and 0.0 < z.real < PT_EDGE):
        branch = "nonholomorphic"
    return GreenResult(_quaternion(holo_g_scalar(rt, z)), branch, z)


def o1_from_green(green):
    """One-point eigenvector function -G_1b G_b1 / pi (0 if holomorphic)."""
    if green.branch == "holomorphic":
        return 0.0
    val = -(green.g[0, 1] * green.g[1, 0]) / math.pi
    return float(val.real)


def _x_and_a(fspec, r):
    """``x = -pi O_1(r)`` and ``A = r^2/F(r)`` from one evaluation of F.

    A solves ``x A = F - 1`` (A(0) = 1/(pi O_1(0)), 0 if O_1 diverges).
    Outside the bulk (x = 0) A is not needed, since T multiplies that
    point's G_1b = 0, and 0 is returned.
    """
    if r == 0.0:
        o1 = o1_biunitary(fspec, 0.0)
        return -math.pi * o1, (1.0 / (math.pi * o1) if o1 else 0.0)
    f = fspec(r)
    x = -math.pi * _o1_at(f, r)
    return x, (r ** 2 / f if x else 0.0)


def _s_t_functions(rt, r1, r2):
    """Auxiliary rung functions S and T of the determining sequence.

    S = (x1 A1 - x2 A2)/(x1 - x2) and T = (A1 - A2)/(x1 - x2), taken
    along the radius (both induced_ginibre edges map to x = 0), with the
    equal-radius limit.  Both points outside the support give A(0) =
    r_out^2 and A'(0) = r_out^2 (2 r_out/F'(r_out) - r_out^2).
    """
    fspec = rt.fspec
    x1, a1 = _x_and_a(fspec, r1)
    x2, a2 = _x_and_a(fspec, r2)
    if max(abs(x1), abs(x2)) < 1e-12:
        r_out = fspec.r_out
        if not math.isfinite(r_out):
            raise ValueError("no exterior for an unbounded spectrum")
        return r_out ** 2, r_out ** 2 * (2.0 * r_out / fspec.df(r_out)
                                         - r_out ** 2)
    if abs(r1 - r2) < 1e-7:
        rm = 0.5 * (r1 + r2)
        xm, am = _x_and_a(fspec, rm)
        xp, ap = _x_and_a(fspec, rm + 1e-6)
        xn, an = _x_and_a(fspec, rm - 1e-6)
        t = (ap - an) / (xp - xn)
        return am + xm * t, t
    s = (x1 * a1 - x2 * a2) / (x1 - x2)
    t = (a1 - a2) / (x1 - x2)
    return s, t


def _green_parts(g):
    """(2, 2) array and (optional) spectral point of a Green's function."""
    if isinstance(g, GreenResult):
        return g.g, g.z
    return np.asarray(g), None


def build_rung(rt, gq, gp):
    """4x4 rung matrix B of the Bethe-Salpeter equation.

    ``gq`` and ``gp`` are the Green's functions at the two spectral
    points, as :class:`GreenResult` (or bare (2, 2) arrays for kinds whose
    rung needs no spectral-point information).  For elliptic ensembles
    the rung is the constant diagonal of second cumulants; for biunitary
    kinds only the four alternating-cumulant components survive; for the
    quantum scattering ensemble it is the closed resummation of the
    channel cumulants.
    """
    qq, zq = _green_parts(gq)
    qp, zp = _green_parts(gp)
    if rt.kind == "elliptic":
        s2 = rt.sigma ** 2
        return np.diag([s2 * rt.tau, s2, s2, s2 * rt.tau]).astype(complex)
    if rt.kind.startswith("biunitary_"):
        if zq is None or zp is None:
            raise ValueError(
                "biunitary rung needs GreenResult inputs (radius-dependent)")
        s, t = _s_t_functions(rt, abs(zq), abs(zp))
        b = np.zeros((4, 4), dtype=complex)
        b[1, 1] = s           # B^{11}_{bb}
        b[2, 2] = s           # B^{bb}_{11}
        b[1, 2] = qq[0, 1] * qp[0, 1] * t   # B^{1b}_{b1}
        b[2, 1] = qq[1, 0] * qp[1, 0] * t   # B^{b1}_{1b}
        return b
    if rt.kind == "quantum_scattering":
        g_small = np.diag([1j * rt.gamma, -1j * rt.gamma])
        ainv = np.linalg.inv(np.linalg.inv(g_small) - qq)
        cinv = np.linalg.inv(np.linalg.inv(g_small) - qp.T)
        return np.eye(4, dtype=complex) + rt.m * np.kron(ainv, cinv)
    raise ValueError(f"no rung construction for kind {rt.kind!r}")


def quantum_scattering_rung_series(rt, gq, gp):
    """Order-limited cumulant series for the quantum scattering rung.

    Direct summation of the power series of the rung in the cumulants,
    usable as an independent check of :func:`build_rung` for Green's
    function inputs of small norm.
    """
    g_small = np.diag([1j * rt.gamma, -1j * rt.gamma])
    mq = np.asarray(gq)
    mp = np.asarray(gp)
    # sum_{k>=1} (g G)^{k-1} g on each rail
    left = np.zeros((2, 2), dtype=complex)
    right = np.zeros((2, 2), dtype=complex)
    term_l = g_small.copy()
    term_r = g_small.copy()
    for _ in range(RUNG_SERIES_ORDER):
        left += term_l
        right += term_r
        term_l = g_small @ mq @ term_l
        term_r = g_small @ mp @ term_r
    b = np.eye(4, dtype=complex)
    for a in range(2):
        for bb in range(2):
            for mu in range(2):
                for nu in range(2):
                    b[2 * a + mu, 2 * bb + nu] += rt.m * left[a, bb] * right[nu, mu]
    return b


def solve_bethe_salpeter(gq, gp, b):
    """Resummed ladder K = (1 - (G_Q (x) G_P^T) B)^{-1} (G_Q (x) G_P^T).

    Returns ``(k, pole_flag)``; the flag marks a (near-)singular system,
    which is the physical pole at coincident arguments rather than a
    numerical failure.
    """
    free = np.kron(gq, np.transpose(gp))
    system = np.eye(4, dtype=complex) - free @ b
    pole = np.linalg.cond(system) > 1e12
    k = np.linalg.solve(system, free)
    return k, pole


def k_eigenvector_component(rt, z1, z2):
    """K^{11}_{bb}(z1, z2): the regularized product of resolvents."""
    g1 = solve_green(rt, z1)
    g2 = solve_green(rt, z2)
    b = build_rung(rt, g1, g2)
    k, _ = solve_bethe_salpeter(g1.g, g2.g, b)
    return k[1, 1]


def o2_from_k(rt, z1, z2):
    """Two-point eigenvector function via the Bethe-Salpeter pipeline.

    (1/pi^2) d/dzbar1 d/dz2 of K^{11}_{bb}, with the full
    green -> rung -> ladder pipeline re-solved at every stencil point.
    A point within 4h of the origin where O_1 diverges (product_ginibre;
    O_1 is finite at every r > 0) raises ValueError.
    """
    z1 = complex(z1)
    z2 = complex(z2)
    if abs(z1 - z2) < 1e-9:
        raise ValueError("coincident arguments")
    if (rt.kind.startswith("biunitary_")
            and min(abs(z1), abs(z2)) < 4.0 * STENCIL_H
            and math.isinf(o1_biunitary(rt.fspec, 0.0))):
        raise ValueError("point within 4h of the origin, where O_1 diverges")
    d = wirtinger_mixed_derivative(
        lambda w1, w2: k_eigenvector_component(rt, w1, w2), z1, z2)
    return d / math.pi ** 2


def _rtilde_1b(rt, a, b):
    """R_1b / Q_1b at Q = diag(a, b) (the holomorphic rung component)."""
    if rt.kind == "elliptic":
        return rt.sigma ** 2
    if rt.kind.startswith("biunitary_"):
        if not np.isfinite(rt.fspec.r_out):
            raise ValueError("no holomorphic exterior for unbounded spectrum")
        return rt.fspec.r_out ** 2
    if rt.kind == "pseudo_hermitian_product":
        return ((-3.0 + a + b + a * b) ** 2
                / ((1.0 - a) ** 2 * (1.0 - b) ** 2))
    if rt.kind == "quantum_scattering":
        ig = 1j * rt.gamma
        return 1.0 + rt.m * ig / (1.0 - ig * a) * (-ig) / (1.0 + ig * b)
    raise ValueError(f"no holomorphic rung for kind {rt.kind!r}")


def holo_g_scalar(rt, z):
    """Scalar holomorphic resolvent g(z) outside the spectrum."""
    z = complex(z)
    if rt.kind == "elliptic":
        return _elliptic_g_holo(rt.sigma, rt.tau, z)
    if rt.kind.startswith("biunitary_"):
        return 1.0 / z
    if rt.kind == "pseudo_hermitian_product":
        return pt_green_scalar(z)
    if rt.kind == "quantum_scattering":
        return qs_green_scalar(z, rt.m, rt.gamma)
    raise ValueError(f"unsupported R-transform kind {rt.kind!r}")


def h_holomorphic(rt, z1, z2bar):
    """Traced product of resolvents h(z1, zbar2) outside the spectrum.

    ``z2bar`` is the value of the conjugated second argument.  Evaluates
    g gbar / (1 - g gbar B) with the rung component obtained from the
    reduced R-transform at diag(g(z1), gbar(zbar2)).
    """
    g1 = holo_g_scalar(rt, z1)
    g2 = holo_g_scalar(rt, z2bar)
    b = _rtilde_1b(rt, g1, g2)
    den = 1.0 - g1 * g2 * b
    if abs(den) < 1e-13:
        raise ZeroDivisionError("pole of the two-point resolvent product")
    return g1 * g2 / den


def _neville_to_zero(eps, vals):
    """Polynomial extrapolation of vals(eps) to eps = 0."""
    eps = list(eps)
    tab = list(vals)
    n = len(tab)
    for j in range(1, n):
        for i in range(n - j):
            tab[i] = ((0.0 - eps[i + j]) * tab[i]
                      - (0.0 - eps[i]) * tab[i + 1]) / (eps[i] - eps[i + j])
    return tab[0]


def o2_real_spectrum(rt, x, y):
    """Two-point eigenvector function on a real spectrum.

    Boundary-value combination of the holomorphic traced resolvent
    product, -(1/4pi^2)[h(+,+) - h(+,-) - h(-,+) + h(-,-)], extrapolated
    to eps -> 0 over ``EPS_LADDER``.  The result must come out real.
    """
    x = float(x)
    y = float(y)
    vals = []
    for eps in EPS_LADDER:
        hpp = h_holomorphic(rt, x + 1j * eps, y + 1j * eps)
        hpm = h_holomorphic(rt, x + 1j * eps, y - 1j * eps)
        hmp = h_holomorphic(rt, x - 1j * eps, y + 1j * eps)
        hmm = h_holomorphic(rt, x - 1j * eps, y - 1j * eps)
        vals.append(-(hpp - hpm - hmp + hmm) / (4.0 * math.pi ** 2))
    out = _neville_to_zero(EPS_LADDER, vals)
    if abs(out.imag) > IMAG_TOL * max(1.0, abs(out.real)):
        raise ArithmeticError(
            f"non-real boundary-value combination: {out!r}")
    return float(out.real)


def wheel_generating_function(gq, gp, b):
    """Wheel (double-trace) generating function -log det[1 - (G(x)G^T)B].

    Principal branch; series extraction should stay in the region where
    the determinant does not wind around zero.
    """
    free = np.kron(gq, np.transpose(gp))
    arg = np.eye(4, dtype=complex) - free @ b
    sign, logabs = np.linalg.slogdet(arg)
    if sign == 0:
        raise ZeroDivisionError("determinant vanished in wheel function")
    return -(logabs + np.log(sign))


def wheel_from_points(rt, z1, z2):
    """Wheel generating function at two spectral points."""
    g1 = solve_green(rt, z1)
    g2 = solve_green(rt, z2)
    b = build_rung(rt, g1, g2)
    return wheel_generating_function(g1.g, g2.g, b)


def wheel_word_covariance(rt, p, q):
    """Large-N covariance of Tr X^p and Tr (X+)^q from the wheel function.

    The wheel function expands as
    ``sum_{p,q} cov(Tr X^p, Tr X+^q)/(p q) z1^{-p} zbar2^{-q}`` far
    outside the spectrum; the coefficient is extracted by a double
    Fourier transform over the circles ``z1 = R e^{i theta}``,
    ``zbar2 = R e^{i phi}``.
    """
    thetas = 2.0 * math.pi * np.arange(WHEEL_N_THETA) / WHEEL_N_THETA
    vals = np.empty((WHEEL_N_THETA, WHEEL_N_THETA), dtype=complex)
    for i, th in enumerate(thetas):
        z1 = WHEEL_RADIUS * np.exp(1j * th)
        for j, ph in enumerate(thetas):
            z2 = WHEEL_RADIUS * np.exp(-1j * ph)   # zbar2 = R e^{i phi}
            vals[i, j] = wheel_from_points(rt, z1, z2)
    # coefficient of e^{-i p theta} e^{-i q phi}
    phase = np.exp(1j * (p * thetas[:, None] + q * thetas[None, :]))
    coeff = np.sum(vals * phase) / WHEEL_N_THETA ** 2
    return coeff * p * q * WHEEL_RADIUS ** (p + q)
