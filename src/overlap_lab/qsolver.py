"""Quaternionic large-N machinery.

One-point Green's functions from the quaternionic R-transform fixed
point, the ladder rung built from planar cumulants, the Bethe-Salpeter
resummation of the two-point function, holomorphic traced resolvent
products, the real-spectrum boundary-value route, and the wheel (double
trace) generating function, which reads det(1 - F B) from :func:`ladder`.

Quaternions are plain ``(2, 2)`` complex arrays laid out as
``[[G_11, G_1b], [G_b1, G_bb]]``.  The 4x4 two-point objects use the
composite index ordering ``(alpha mu) in [(1,1), (1,b), (b,1), (b,b)]``
for rows and ``(beta nu)`` for columns, so that the free ladder is the
Kronecker product ``G(Q) (x) G(P)^T`` and the eigenvector component of
interest sits at position ``[1, 1]``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .analytic import _elliptic_inside, _o1_at, o1_biunitary, radial_cdf
from .numcore import STENCIL_H, stencil_pairs, wirtinger_mixed_derivative

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
    "ladder",
    "o2_from_k",
    "h_holomorphic",
    "o2_real_spectrum",
]

# Fourier circles of wheel_word_covariance, eps -> 0 ladder and Im-part
# tolerance of o2_real_spectrum, terms of quantum_scattering_rung_series,
# steps and starting height of the _track_cubic_roots continuation.
WHEEL_RADIUS, WHEEL_N_THETA = 1.8, 32
EPS_LADDER = (1e-3, 5e-4, 2.5e-4)
IMAG_TOL = 1e-8
RUNG_SERIES_ORDER = 40
TRACK_STEPS, TRACK_FAR = 160, 60.0


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
    """Green's functions ``g`` (..., 2, 2) at the spectral points ``z``
    (...) of one solve, and the mask ``inside`` (...) of the points in the
    nonholomorphic regime; ``branch`` names the regime of one point.
    Indexing selects points, so a sweep's pairs are index arrays into the
    one record of its distinct points."""

    g: np.ndarray
    z: np.ndarray
    inside: np.ndarray

    @property
    def branch(self):
        return "nonholomorphic" if self.inside else "holomorphic"

    def __getitem__(self, index):
        return GreenResult(self.g[index], self.z[index], self.inside[index])


def _quaternion(g11, off=0j):
    """On-shell Green's functions ``[[g11, off], [off, conj(g11)]]``,
    one (2, 2) block per point of ``g11``."""
    q = np.empty(np.shape(g11) + (2, 2), dtype=complex)
    q[..., 0, 0] = g11
    q[..., 0, 1] = q[..., 1, 0] = off
    q[..., 1, 1] = np.conj(g11)
    return q


def _elliptic_g_holo(sigma, tau, z):
    """Holomorphic elliptic g(z), the square-root branch taken towards z."""
    if abs(tau) < 1e-14:
        return 1.0 / z
    s = np.sqrt(z * z - 4.0 * sigma ** 2 * tau)
    s = np.where((s * np.conj(z)).real < 0, -s, s)
    return (z - s) / (2.0 * sigma ** 2 * tau)


_CUBE_UNITY = np.exp(2j * math.pi / 3.0) ** np.arange(3)


def _cubic_roots(a, b, c, d):
    """The three roots (..., 3) of a g^3 + b g^2 + c g + d = 0, elementwise.

    Complex Cardano: C is the cube root of (D1 + s)/2, s = sqrt(D1^2 -
    4 D0^3) taken with the sign that gives the larger |D1 + s|, and the
    roots are -(b + C xi^k + D0/(C xi^k))/(3a) for the cube roots of
    unity xi^k.  C = 0 only at a triple root, -b/(3a).  Two Newton steps
    polish every root.  A step is kept only where it lowers |f(g)|, so
    next to a double root, where f'(g) is about 0 and Cardano is only
    sqrt(eps)-accurate, a root never jumps away; where f'(g) = 0 no
    division occurs.
    """
    a, b, c, d = (np.asarray(v, dtype=complex)[..., None]
                  for v in (a, b, c, d))
    d0 = b * b - 3.0 * a * c
    d1 = (2.0 * b * b - 9.0 * a * c) * b + 27.0 * a * a * d
    s = np.sqrt(d1 * d1 - 4.0 * d0 ** 3)
    w = np.where(np.abs(d1 + s) >= np.abs(d1 - s), d1 + s, d1 - s)
    ck = (0.5 * w) ** (1.0 / 3.0) * _CUBE_UNITY
    triple = ck == 0.0
    g = np.where(triple, -b, -(b + ck + d0 / np.where(triple, 1.0, ck)))
    g = g / (3.0 * a)

    def poly(g):
        return ((a * g + b) * g + c) * g + d

    f = poly(g)
    for _ in range(2):
        fp = (3.0 * a * g + 2.0 * b) * g + c
        flat = fp == 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            g_new = g - f / np.where(flat, 1.0, fp)
            f_new = poly(g_new)
            better = ~flat & (np.abs(f_new) < np.abs(f))
        g = np.where(better, g_new, g)
        f = np.where(better, f_new, f)
    return g


def _track_cubic_roots(coeff_func, targets):
    """Follow the 1/z root of a parametric cubic from far away to each target.

    Continuation runs along the straight segment from
    ``Re(z) + i sign(Im z) TRACK_FAR`` down to the target, which never
    crosses a real spectrum for targets off (or just off) the real axis.
    The cubics of every step of every target form one
    ``(P, TRACK_STEPS - 1)`` stack whose roots :func:`_cubic_roots`
    gives in closed form, as array operations; the nearest-root rule
    then walks each path.
    """
    targets = np.asarray(targets, dtype=complex)
    z0 = targets.real + 1j * np.where(targets.imag >= 0, TRACK_FAR, -TRACK_FAR)
    t = np.linspace(0.0, 1.0, TRACK_STEPS)[1:]
    z = z0[:, None] + t * (targets - z0)[:, None]
    roots = _cubic_roots(*coeff_func(z))
    g = 1.0 / z0
    path = np.arange(len(targets))
    for step in np.moveaxis(roots, 1, 0):
        g = step[path, np.argmin(np.abs(step - g[:, None]), axis=1)]
    return g


def _pt_cubic_coeffs(z):
    # z g^3 - (2z+1) g^2 + (z-2) g - 1 = 0, from 4/(1-g)^2 + 1/g = z
    return [z, -(2.0 * z + 1.0), z - 2.0, -1.0]


PT_EDGE = 0.5 * (11.0 + 5.0 * math.sqrt(5.0))


def _pt_on_axis(z):
    """Whether z is on the pseudohermitian product's spectrum (0, PT_EDGE)."""
    return (np.imag(z) == 0.0) & (0.0 < np.real(z)) & (np.real(z) < PT_EDGE)


def pt_green_scalar(z):
    """Holomorphic Green's function of the pseudohermitian product.

    The 1/z branch of the cubic, chosen by homotopy continuation from
    large imaginary part.  For real ``z`` inside the spectrum the upper
    boundary value g(x + i0) is returned.  The exceptional point x = 0
    is excluded (no controlled formula exists there).
    """
    return _pt_green(complex(z))[()]


def _pt_green(z):
    """:func:`pt_green_scalar` at an array of points, tracked in one call."""
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z) < 1e-8):
        raise ValueError("exceptional point x=0: Green's function diagnostic")
    z = np.where(_pt_on_axis(z), z.real + 1e-12j, z)
    return _track_cubic_roots(_pt_cubic_coeffs, z.ravel()).reshape(z.shape)


def _qs_cubic_coeffs(m, gamma):
    # (g^2 + 1 - z g)(1 - ig g) + ig m g = 0, ig = i gamma:
    # -ig g^3 + (1 + ig z) g^2 + (ig m - z - ig) g + 1 = 0
    if gamma == 0:
        raise ValueError("quantum_scattering needs gamma != 0: at gamma = 0 "
                         "the cubic degenerates and the rung is singular")
    ig = 1j * gamma
    return lambda z: [-ig, 1.0 + ig * z, ig * m - z - ig, 1.0]


def qs_green_scalar(z, m, gamma):
    """Holomorphic traced resolvent of the quantum scattering ensemble.

    Solves g + 1/g + m i gamma/(1 - i gamma g) = z: the GUE's R-transform
    plus the channel term, the scalar form of :func:`build_rung`'s rung.
    A point inside the spectrum raises ValueError, as in
    :func:`solve_green`.
    """
    return _qs_green(quantum_scattering_rt(m, gamma), [complex(z)])[0]


def _qs_green(rt, z):
    """The quantum scattering g at the points ``z``, outside the spectrum."""
    g11 = _track_cubic_roots(_qs_cubic_coeffs(rt.m, rt.gamma), z)
    q = _quaternion(g11)
    # 1 - |g|^2 B^{11}_{bb}(z, zbar) <= 0, the ladder's pole: inside
    if np.any((np.abs(g11) ** 2 * build_rung(rt, q, q)[..., 1, 1]).real
              >= 1.0):
        raise ValueError("quantum_scattering point inside the spectrum, "
                         "where no nonholomorphic solution is known")
    return g11


def _solve_stack(rt, z):
    """Green's functions at the 1-D array of points ``z``, in one pass.

    Returns their :class:`GreenResult`.  Every operation acts elementwise
    on the stack (the cubic kinds track all points in one
    :func:`_track_cubic_roots` call), so a point's Green's function does
    not depend on the other points; an invalid point raises for the
    whole stack what :func:`solve_green` raises for it alone.
    """
    z = np.asarray(z, dtype=complex)
    inside = np.zeros(z.shape, dtype=bool)
    off = np.zeros(z.shape, dtype=complex)
    if rt.kind == "elliptic":
        sigma, tau = rt.sigma, rt.tau
        inside = _elliptic_inside(sigma, tau, z)
        g11 = np.empty_like(z)
        g11[~inside] = _elliptic_g_holo(sigma, tau, z[~inside])
        zi = z[inside]
        s2 = sigma ** 2
        g11[inside] = (np.conj(zi) - zi * tau) / (s2 * (1.0 - tau ** 2))
        rad = 1.0 - (np.abs(zi - np.conj(zi) * tau) ** 2
                     / (s2 * (1.0 - tau ** 2) ** 2))
        off[inside] = 1j * np.sqrt(np.maximum(rad, 0.0)) / sigma
    elif rt.kind.startswith("biunitary_"):
        fspec = rt.fspec
        r = np.abs(z)
        f = fspec(r)
        origin = r == 0.0
        inside = ((fspec.r_in < r) & (r < fspec.r_out)
                  | origin & (fspec.r_in == 0.0))
        # zero inside the hole and at the origin, 1/z outside
        g11 = np.where(origin, 0j, f / np.where(origin, 1.0, z))
        o1 = _o1_at(f, np.where(origin, 1.0, r))
        if np.any(origin & inside):
            o1_0 = o1_biunitary(fspec, 0.0)
            if math.isinf(o1_0):
                raise ValueError("O_1 diverges at the origin")
            o1 = np.where(origin, o1_0, o1)
        off[inside] = 1j * np.sqrt(np.maximum(math.pi * o1[inside], 0.0))
    elif rt.kind == "pseudo_hermitian_product":
        g11 = _pt_green(z)
        inside = _pt_on_axis(z)
    elif rt.kind == "quantum_scattering":
        g11 = _qs_green(rt, z)
    else:
        raise ValueError(f"unsupported R-transform kind {rt.kind!r}")
    return GreenResult(_quaternion(g11, off), z, inside)


def solve_green(rt, z):
    """Quaternionic Green's function at spectral point z (w -> 0 taken).

    Returns the one-point :class:`GreenResult`, whose ``branch`` reports
    whether z fell in the holomorphic (outside) or nonholomorphic (inside)
    regime.  The origin of a single ring without a hole takes the bulk
    limit G_11 = 0, G_1b = i sqrt(pi O_1(0)); where O_1(0) diverges
    (product_ginibre) it raises ValueError.  This is point 0 of the solve
    that the sweeps run on all their points at once.
    """
    return _solve_stack(rt, np.array([complex(z)]))[0]


def o1_from_green(green):
    """One-point eigenvector function -G_1b G_b1 / pi (0 if holomorphic)."""
    if not green.inside:
        return 0.0
    val = -(green.g[0, 1] * green.g[1, 0]) / math.pi
    return float(val.real) + 0.0  # +0.0 where G_1b = 0 (a real-spectrum point)


def _x_and_a(fspec, r):
    """``x = -pi O_1(r)`` and ``A = r^2/F(r)`` at an array of radii, from
    one evaluation of F.

    A solves ``x A = F - 1`` (A(0) = 1/(pi O_1(0)), 0 if O_1 diverges).
    Outside the bulk (x = 0) A is not needed, since T multiplies that
    point's G_1b = 0, and 0 is returned.
    """
    r = np.asarray(r, dtype=float)
    f = fspec(r)
    origin = r == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        x = -math.pi * _o1_at(f, r)
        a = np.where(x != 0.0, r ** 2 / f, 0.0)
    if np.any(origin):
        o1 = o1_biunitary(fspec, 0.0)
        x = np.where(origin, -math.pi * o1, x)
        a = np.where(origin, 1.0 / (math.pi * o1) if o1 else 0.0, a)
    return x, a


def _s_t_functions(rt, r1, r2):
    """Auxiliary rung functions S and T of the determining sequence, and
    det R = S^2 - x1 x2 T^2 of the rung block R of :func:`_ring_block`,
    at arrays of radii broadcast against each other.

    S = (x1 A1 - x2 A2)/(x1 - x2) and T = (A1 - A2)/(x1 - x2), taken
    along the radius (both induced_ginibre edges map to x = 0), with the
    equal-radius limit.  Both points outside the support give A(0) =
    r_out^2 and A'(0) = r_out^2 (2 r_out/F'(r_out) - r_out^2).  Where
    x1 = x2 at r1 != r2 (around a hole) S and T diverge, but det R =
    (x1 A1^2 - x2 A2^2)/(x1 - x2) keeps its ratio to them exact.  The
    three cases are masks over the pairs.
    """
    fspec = rt.fspec
    shape = np.broadcast_shapes(np.shape(r1), np.shape(r2))
    r1, r2 = (np.broadcast_to(np.asarray(r, dtype=float), shape).ravel()
              for r in (r1, r2))
    x1, a1 = _x_and_a(fspec, r1)
    x2, a2 = _x_and_a(fspec, r2)
    outside = np.maximum(np.abs(x1), np.abs(x2)) < 1e-12
    equal = ~outside & (np.abs(r1 - r2) < 1e-7)
    general = ~(outside | equal)
    s, t, det = np.empty((3,) + r1.shape)
    d = (x1 - x2)[general]
    s[general] = (x1 * a1 - x2 * a2)[general] / d
    t[general] = (a1 - a2)[general] / d
    det[general] = (x1 * a1 ** 2 - x2 * a2 ** 2)[general] / d
    if np.any(outside):
        r_out = fspec.r_out
        if not math.isfinite(r_out):
            raise ValueError("no exterior for an unbounded spectrum")
        s[outside] = r_out ** 2
        t[outside] = r_out ** 2 * (2.0 * r_out / fspec.df(r_out)
                                   - r_out ** 2)
    if np.any(equal):
        rm = 0.5 * (r1 + r2)[equal]
        xm, am = _x_and_a(fspec, rm)
        xp, ap = _x_and_a(fspec, rm + 1e-6)
        xn, an = _x_and_a(fspec, rm - 1e-6)
        t[equal] = (ap - an) / (xp - xn)
        s[equal] = am + xm * t[equal]
    special = ~general
    det[special] = (s * s - x1 * x2 * t * t)[special]
    return s.reshape(shape), t.reshape(shape), det.reshape(shape)


def _green_parts(g):
    """(..., 2, 2) array and spectral points of a :class:`GreenResult`, or
    a bare (..., 2, 2) array and None."""
    if isinstance(g, GreenResult):
        return g.g, g.z
    return np.asarray(g), None


def _ring_block(rt, gq, gp):
    """Nonzero (1b, b1) block R = [[S, a T], [b T, S]] of a single ring's
    rung per pair, a and b the products of the G_1b and of the G_b1, and
    det R of :func:`_s_t_functions`."""
    qq, zq = _green_parts(gq)
    qp, zp = _green_parts(gp)
    if zq is None or zp is None:
        raise ValueError(
            "biunitary rung needs GreenResult inputs (radius-dependent)")
    s, t, det = _s_t_functions(rt, np.abs(zq), np.abs(zp))
    r = np.empty(np.shape(s) + (2, 2), dtype=complex)
    r[..., 0, 0] = r[..., 1, 1] = s   # B^{11}_{bb}, B^{bb}_{11}
    r[..., 0, 1] = qq[..., 0, 1] * qp[..., 0, 1] * t   # B^{1b}_{b1}
    r[..., 1, 0] = qq[..., 1, 0] * qp[..., 1, 0] * t   # B^{b1}_{1b}
    return r, det


def build_rung(rt, gq, gp):
    """4x4 rung matrix B of the Bethe-Salpeter equation.

    ``gq`` and ``gp`` are the Green's functions at the two spectral
    points, as :class:`GreenResult` (or bare (2, 2) arrays for kinds whose
    rung needs no spectral-point information); records of n points each
    give the ``(n, 4, 4)`` stack of their pairs' rungs.  For
    elliptic ensembles the rung is the constant diagonal of second
    cumulants; for biunitary kinds only the four alternating-cumulant
    components survive; for the quantum scattering ensemble it is the
    closed resummation of the channel cumulants.
    """
    qq, zq = _green_parts(gq)
    qp, zp = _green_parts(gp)
    shape = qq.shape[:-2] + (4, 4)
    if rt.kind == "elliptic":
        s2 = rt.sigma ** 2
        b = np.diag([s2 * rt.tau, s2, s2, s2 * rt.tau]).astype(complex)
        return np.broadcast_to(b, shape).copy()
    if rt.kind.startswith("biunitary_"):
        b = np.zeros(shape, dtype=complex)
        b[..., 1:3, 1:3] = _ring_block(rt, gq, gp)[0]
        return b
    if rt.kind == "quantum_scattering":
        g_small = np.diag([1j * rt.gamma, -1j * rt.gamma])
        ainv = np.linalg.inv(np.linalg.inv(g_small) - qq)
        cinv = np.linalg.inv(np.linalg.inv(g_small) - np.swapaxes(qp, -1, -2))
        return np.eye(4, dtype=complex) + rt.m * _kron(ainv, cinv)
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


def _kron(a, b):
    """Kronecker product of two (stacks of) 2x2 matrices."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (4, 4))


def _free_ladder(gq, gp):
    """Free ladder G_Q (x) G_P^T, single or stacked."""
    return _kron(_green_parts(gq)[0], np.swapaxes(_green_parts(gp)[0], -1, -2))


def solve_bethe_salpeter(gq, gp, b):
    """Resummed ladder K = (1 - (G_Q (x) G_P^T) B)^{-1} (G_Q (x) G_P^T).

    Takes Green's functions as for :func:`build_rung` (or bare arrays)
    and the rung, single or stacked.  Returns ``(k, pole_flag, det)``: a
    flag per matrix marks a near-singular system (the physical pole at
    coincident arguments, not a numerical failure), det is its determinant.
    An exactly singular system raises ZeroDivisionError.
    """
    free = _free_ladder(gq, gp)
    system = np.eye(4, dtype=complex) - free @ b
    pole = np.linalg.cond(system) > 1e12
    try:
        k = np.linalg.solve(system, free)
    except np.linalg.LinAlgError:
        raise ZeroDivisionError("singular at a Bethe-Salpeter pole") from None
    return k, pole, np.linalg.det(system)


def ladder(rt, gq, gp):
    """Resummed ladder, pole flag and det(1 - F B): ``(k, pole, det)``.

    Takes Green's functions as :func:`build_rung` does, single or
    stacked.  Every kind but a single ring goes through
    :func:`solve_bethe_salpeter`.  A single ring's rung is nonzero only on
    the block R of :func:`_ring_block`, at the (1b, b1) indices P, so K =
    F + F_{:P} G F_{P:} and det = 1 - tr(R F_PP) + det R det F_PP, with F
    the free ladder and G = (R - det R adj F_PP)/det, in closed form: where
    R diverges (x1 = x2 at r1 != r2, around a hole) a 4x4 solve loses
    about eps/|x1 - x2|.  The flag then marks a near-singular 1 - R F_PP.
    """
    if not rt.kind.startswith("biunitary_"):
        return solve_bethe_salpeter(gq, gp, build_rung(rt, gq, gp))
    r, det = _ring_block(rt, gq, gp)
    free = _free_ladder(gq, gp)
    fpp = free[..., 1:3, 1:3]
    adj = fpp[..., ::-1, ::-1] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    tr = np.einsum("...ij,...ji->...", r, fpp)
    den = 1.0 - tr + det * np.linalg.det(fpp)
    g = (r - det[..., None, None] * adj) / den[..., None, None]
    pole = np.linalg.cond(np.eye(2) - r @ fpp) > 1e12
    return free + free[..., :, 1:3] @ g @ free[..., 1:3, :], pole, den


def o2_from_k(rt, z1, z2):
    """Two-point eigenvector function via the Bethe-Salpeter pipeline.

    (1/pi^2) d/dzbar1 d/dz2 of K^{11}_{bb}.  The Green's function is
    solved in one stack at the 16 distinct points of the h and h/2
    stencils, and the 32 ladders of the stencil pairs, indexed into that
    stack, are resummed as one stack by :func:`ladder`.  The stencils
    reach 2h from each point, so the error grows like (h/|z1 - z2|)^4
    near the pole at z1 = z2 (8e-2 relative at 4h, 1.3e-3 at 10h, 8e-5 at
    20h).  A pair closer than 4h, or a point within 4h of the origin where
    O_1 diverges (product_ginibre; O_1 is finite at every r > 0), raises
    ValueError.
    """
    z1 = complex(z1)
    z2 = complex(z2)
    if abs(z1 - z2) < 4.0 * STENCIL_H:
        raise ValueError("arguments within 4h of each other")
    if (rt.kind.startswith("biunitary_")
            and min(abs(z1), abs(z2)) < 4.0 * STENCIL_H
            and math.isinf(o1_biunitary(rt.fspec, 0.0))):
        raise ValueError("point within 4h of the origin, where O_1 diverges")
    pairs = stencil_pairs(z1, z2)
    index = {w: i for i, w in enumerate(
        dict.fromkeys(w for pair in pairs for w in pair))}
    green = _solve_stack(rt, np.array(list(index)))
    i1, i2 = (np.array([index[w] for w in ws]) for ws in zip(*pairs))
    k = ladder(rt, green[i1], green[i2])[0]
    k11 = dict(zip(pairs, k[:, 1, 1]))
    d = wirtinger_mixed_derivative(lambda w1, w2: k11[w1, w2], z1, z2)
    return d / math.pi ** 2


def h_holomorphic(rt, z1, z2bar):
    """Traced product of resolvents h(z1, zbar2) outside the spectrum.

    ``z2bar`` is the value of the conjugated second argument.  Outside
    the spectrum G and the rung are diagonal, so the ladder's
    K^{11}_{bb} reduces to g1 g2 / (1 - g1 g2 B^{11}_{bb}) with g1 =
    g(z1) and g2 = conj g(z2), the resolvent of X+ at zbar2.  A point
    inside the spectrum or a single-ring hole (G = 0) raises ValueError.
    ``z1`` and ``z2bar`` may be arrays, broadcast against each other; G
    is solved at all their points in one stack.
    """
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.conj(np.asarray(z2bar, dtype=complex))
    green = _solve_stack(rt, np.concatenate([z1.ravel(), z2.ravel()]))
    if np.any(green.inside) or not np.all(green.g[:, 0, 0]):
        raise ValueError("h_holomorphic needs both points outside the "
                         "spectrum and any hole")
    q1, q2 = (green[i] for i in np.broadcast_arrays(
        np.arange(z1.size).reshape(z1.shape),
        z1.size + np.arange(z2.size).reshape(z2.shape)))
    g1, g2 = q1.g[..., 0, 0], q2.g[..., 1, 1]
    # B^{11}_{bb}; the pseudohermitian product has no 4x4 rung to take it
    # from (build_rung refuses it), so its one component is written out
    b = ((-3.0 + g1 + g2 + g1 * g2) ** 2 / ((1.0 - g1) ** 2 * (1.0 - g2) ** 2)
         if rt.kind == "pseudo_hermitian_product"
         else build_rung(rt, q1, q2)[..., 1, 1])
    den = 1.0 - g1 * g2 * b
    if np.any(np.abs(den) < 1e-13):
        raise ZeroDivisionError("pole of the two-point resolvent product")
    return (g1 * g2 / den)[()]


def _neville_to_zero(eps, vals):
    """Polynomial extrapolation of vals(eps) to eps = 0."""
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
    to eps -> 0 over ``EPS_LADDER``.  One :func:`h_holomorphic` call
    covers the whole grid (for the pseudohermitian product, one track of
    the 12 points x +- i eps, y +- i eps).  The result must come out real.
    """
    x = float(x)
    y = float(y)
    pm = 1j * np.array([[1.0], [-1.0]]) * EPS_LADDER
    # rows z1 = x +- i eps, columns zbar2 = y +- i eps, last axis eps
    h = h_holomorphic(rt, x + pm[:, None], y + pm)
    vals = -(h[0, 0] - h[0, 1] - h[1, 0] + h[1, 1]) / (4.0 * math.pi ** 2)
    out = _neville_to_zero(EPS_LADDER, vals)
    if abs(out.imag) > IMAG_TOL * max(1.0, abs(out.real)):
        raise ArithmeticError(
            f"non-real boundary-value combination: {out!r}")
    return float(out.real)


def _wheel(rt, gq, gp):
    """Wheel (double-trace) generating function -log det[1 - (G(x)G^T)B]
    from :func:`ladder`'s determinant, single or stacked, and
    ZeroDivisionError at its flagged pole.  Principal branch: series
    extraction should stay where the determinant does not wind around zero.
    A det negative real up to rounding (|Im det| <= 1e-14 |det|), as at
    single-ring bulk pairs, is read with Im det = +0.0 and gives -i pi.
    """
    _, pole, det = ladder(rt, gq, gp)
    if np.any(pole):
        raise ZeroDivisionError("determinant vanished in wheel function")
    cut = (det.real < 0) & (np.abs(det.imag) <= 1e-14 * np.abs(det))
    return -np.log(np.where(cut, det.real + 0j, det))


def wheel_from_points(rt, z1, z2):
    """Wheel generating function at two spectral points."""
    green = _solve_stack(rt, np.array([complex(z1), complex(z2)]))
    return _wheel(rt, green[0], green[1])


def wheel_word_covariance(rt, p, q):
    """Large-N covariance of Tr X^p and Tr (X+)^q from the wheel function.

    The wheel function expands as
    ``sum_{p,q} cov(Tr X^p, Tr X+^q)/(p q) z1^{-p} zbar2^{-q}`` far
    outside the spectrum; the coefficient is extracted by a double
    Fourier transform over the circles ``z1 = R e^{i theta}``,
    ``zbar2 = R e^{i phi}``.  G is solved in one stack at the circle
    points, and one :func:`ladder` call resums all point pairs, indexed
    into that stack.  A circle that crosses the spectrum
    (quantum_scattering at the default radius) raises ValueError.
    """
    k = np.arange(WHEEL_N_THETA)
    thetas = 2.0 * math.pi * k / WHEEL_N_THETA
    circle = _solve_stack(rt, WHEEL_RADIUS * np.exp(1j * thetas))
    # zbar2 = R e^{i phi_k}, so z2 = R e^{-i phi_k} is circle point -k
    rows, cols = np.broadcast_arrays(k[:, None], -k % WHEEL_N_THETA)
    vals = _wheel(rt, circle[rows], circle[cols])
    # coefficient of e^{-i p theta} e^{-i q phi}
    phase = np.exp(1j * (p * thetas[:, None] + q * thetas[None, :]))
    coeff = np.sum(vals * phase) / WHEEL_N_THETA ** 2
    return coeff * p * q * WHEEL_RADIUS ** (p + q)
