"""Closed-form large-N overlap statistics and the exact finite-N Ginibre
two-point function.

Conventions: O1 is the diagonal-overlap density scaled by 1/N; O2 is the
off-diagonal pair density.  Both follow the single-ring structure for
biunitarily invariant ensembles, where everything is determined by the
radial cumulative distribution function F(r).

Only two functions call scipy, and each imports it when called:
:func:`o2_exact_ginibre` (``scipy.linalg.lapack.zgbtrf`` and
``scipy.special.gammaln``) and :func:`phi_plane_integral`
(``scipy.integrate.quad``).  Everything else, and importing the module,
needs numpy alone, so the closed forms and the large-N solver start
without loading scipy.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .numcore import STENCIL_H, wirtinger_mixed_derivative

__all__ = [
    "RadialCdfSpec",
    "SINGLE_RINGS",
    "radial_cdf",
    "o1_biunitary",
    "o2_biunitary",
    "o2_biunitary_closed_form",
    "h_universal",
    "phi_microscopic",
    "phi_plane_integral",
    "o2_exact_ginibre",
    "o2_elliptic",
    "o1_elliptic",
]

EXACT_MAX_N = 300  # largest N that o2_exact_ginibre accepts
# the kinds radial_cdf defines, and so the closed forms' models
SINGLE_RINGS = ("ginibre", "induced_ginibre", "truncated_unitary",
                "spherical", "product_ginibre")


@dataclass(frozen=True)
class RadialCdfSpec:
    """Radial cumulative eigenvalue distribution of a single-ring ensemble.

    ``f(r)`` evaluates F, ``df(r)`` its derivative; the support is the
    annulus ``[r_in, r_out]`` (``r_out = inf`` for the unbounded
    spherical ensemble, in which case F only approaches 1).  Specs
    compare by name and support, which fix the parameter of each kind.
    """

    name: str
    r_in: float
    r_out: float
    f: callable = field(compare=False)
    df: callable = field(compare=False)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        out = np.where(r <= self.r_in, 0.0,
                       np.where(r >= self.r_out, 1.0, self.f(np.clip(r, self.r_in, self.r_out))))
        return out if out.ndim else float(out)


def radial_cdf(kind, alpha=0.0, kappa=1.0):
    """Radial cdf of a biunitarily invariant ensemble.

    Supported kinds: ``ginibre`` (F = r^2 on [0, 1]), ``induced_ginibre``
    (r^2 - alpha on [sqrt(alpha), sqrt(1+alpha)]), ``truncated_unitary``
    (kappa r^2/(1 - r^2) up to (1+kappa)^{-1/2}), ``spherical``
    (r^2/(1+r^2) on [0, inf)) and ``product_ginibre`` (min(r, 1)).
    """
    if kind == "ginibre":
        return RadialCdfSpec("ginibre", 0.0, 1.0,
                             lambda r: r ** 2, lambda r: 2.0 * r)
    if kind == "induced_ginibre":
        return RadialCdfSpec(
            "induced_ginibre", math.sqrt(alpha), math.sqrt(1.0 + alpha),
            lambda r: r ** 2 - alpha, lambda r: 2.0 * r)
    if kind == "truncated_unitary":
        r_out = (1.0 + kappa) ** -0.5
        return RadialCdfSpec(
            "truncated_unitary", 0.0, r_out,
            lambda r: kappa * r ** 2 / (1.0 - r ** 2),
            lambda r: 2.0 * kappa * r / (1.0 - r ** 2) ** 2)
    if kind == "spherical":
        return RadialCdfSpec(
            "spherical", 0.0, np.inf,
            lambda r: r ** 2 / (1.0 + r ** 2),
            lambda r: 2.0 * r / (1.0 + r ** 2) ** 2)
    if kind == "product_ginibre":
        return RadialCdfSpec(
            "product_ginibre", 0.0, 1.0,
            lambda r: np.minimum(r, 1.0), lambda r: np.ones_like(np.asarray(r, dtype=float)))
    raise ValueError(f"no radial cdf for ensemble kind {kind!r}")


def o1_biunitary(fspec, r):
    """One-point eigenvector function F(r)(1 - F(r))/(pi r^2).

    Vanishes outside the support.  At r = 0 the limit c/pi is finite
    when F ~ c r^2 near the origin; it is read off F(eps)/eps^2 at small
    eps.  Where F(r)/r^2 still grows as r -> 0 (product_ginibre, F ~ r)
    the function diverges and ``inf`` is returned.
    """
    r = float(r)
    if not 0 <= r:
        raise ValueError(f"radius must be nonnegative, got {r}")
    if r == 0.0:
        if fspec.r_in > 0:
            return 0.0
        eps = 1e-8
        c = fspec(eps) / eps ** 2
        if c > (1.0 + 1e-3) * fspec(100.0 * eps) / (100.0 * eps) ** 2:
            return math.inf
        return c / math.pi
    return _o1_at(fspec(r), r)


def _o1_at(f, r):
    """F(1 - F)/(pi r^2) at r > 0 from the value ``f = F(r)``."""
    return f * (1.0 - f) / (math.pi * r ** 2)


def _biunitary_bracket(fspec, z1, z2):
    r1 = abs(z1)
    r2 = abs(z2)
    # O1 enters multiplied by conj(z1) or z2, which vanish at the origin,
    # where O1 itself may diverge (product_ginibre): that product is 0
    o1_1 = o1_biunitary(fspec, r1) if r1 > 0 else 0.0
    o1_2 = o1_biunitary(fspec, r2) if r2 > 0 else 0.0
    if o1_1 == o1_2 == 0.0:
        # both points in a hole or outside the support, where the bracket
        # is 0 although F(r1) - F(r2) may vanish as well
        return 0.0
    num = (np.conj(z1) * (z1 - z2) * o1_1
           + z2 * (np.conj(z1) - np.conj(z2)) * o1_2)
    den = abs(z1 - z2) ** 2 * (fspec(r1) - fspec(r2))
    return num / den


def o2_biunitary(fspec, z1, z2):
    """Two-point eigenvector function of a biunitarily invariant ensemble.

    Generic evaluation: (1/pi) d/dzbar1 d/dz2 of the single-ring bracket,
    by numerical Wirtinger differentiation.  Requires z1 != z2 and
    |z1| != |z2| (the bracket denominator F(r1) - F(r2) vanishes at equal
    radii; the structure is removable but the generic evaluator does not
    cross it).
    """
    z1 = complex(z1)
    z2 = complex(z2)
    if abs(z1 - z2) < 1e-9:
        raise ValueError("coincident arguments")
    if abs(abs(z1) - abs(z2)) < 4.0 * STENCIL_H:
        # symmetric radial limit: nudge both radii apart by a fixed step
        step = 1e-5
        u1 = z1 * (1.0 + step)
        u2 = z2 * (1.0 - step)
        v1 = z1 * (1.0 - step)
        v2 = z2 * (1.0 + step)
        a = wirtinger_mixed_derivative(
            lambda w1, w2: _biunitary_bracket(fspec, w1, w2), u1, u2)
        b = wirtinger_mixed_derivative(
            lambda w1, w2: _biunitary_bracket(fspec, w1, w2), v1, v2)
        return (a + b) / (2.0 * math.pi)
    d = wirtinger_mixed_derivative(
        lambda w1, w2: _biunitary_bracket(fspec, w1, w2), z1, z2)
    return d / math.pi


def o2_biunitary_closed_form(kind, z1, z2, alpha=0.0, kappa=1.0):
    """Closed-form two-point functions of the worked single-ring cases."""
    z1 = complex(z1)
    z2 = complex(z2)
    d4 = abs(z1 - z2) ** 4
    pi2 = math.pi ** 2
    zz = z1 * np.conj(z2)
    if kind == "ginibre":
        return -(1.0 - zz) / (pi2 * d4)
    if kind == "induced_ginibre":
        return (1.0 + alpha - zz) * (alpha - zz) / (pi2 * zz * d4)
    if kind == "truncated_unitary":
        return (-1.0 + zz * (1.0 + kappa)) / (pi2 * d4)
    if kind == "spherical":
        return -1.0 / (pi2 * d4)
    if kind == "product_ginibre":
        a1 = abs(z1)
        a2 = abs(z2)
        num = (2.0 * (a1 + a2) * (zz + a1 * a2)
               - abs(z1 + z2) ** 2 - 4.0 * a1 * a2)
        return num / (4.0 * a1 * a2 * pi2 * d4)
    raise ValueError(f"no closed form for ensemble kind {kind!r}")


def h_universal(z1, z2, r_out=1.0):
    """Universal traced resolvent product 1/(z1 conj(z2) - r_out^2)."""
    z1 = complex(z1)
    z2 = complex(z2)
    den = z1 * np.conj(z2) - r_out ** 2
    if abs(den) < 1e-14:
        raise ZeroDivisionError("pole of the universal traced resolvent")
    return 1.0 / den


def phi_microscopic(omega_abs):
    """Universal bulk microscopic kernel of the two-point function.

    Phi(|w|) = -(1 - (1 + |w|^2) exp(-|w|^2)) / (pi^2 |w|^4), continued
    to -1/(2 pi^2) at the origin.  Below |w| = 1e-2 the Taylor series is
    used to dodge the catastrophic cancellation in 1 - (1+t)e^{-t}.
    """
    w = float(omega_abs)
    if not 0 <= w < math.inf:
        raise ValueError(f"|omega| must be finite and nonnegative, got {w}")
    t = w * w
    if w < 1e-2:
        # (1-(1+t)e^{-t})/t^2 = sum_{k>=2} (-1)^k (k-1) t^{k-2} / k!
        acc = 0.0
        for k in range(2, 10):
            acc += (-1.0) ** k * (k - 1) / math.factorial(k) * t ** (k - 2)
        return -acc / math.pi ** 2
    return -(1.0 - (1.0 + t) * math.exp(-t)) / (math.pi ** 2 * t * t)


def phi_plane_integral():
    """Integral of Phi(|u|) over the complex plane (expected -1/pi)."""
    from scipy import integrate

    def integrand(r):
        return 2.0 * math.pi * r * phi_microscopic(r)

    val, err = integrate.quad(integrand, 0.0, np.inf, limit=200,
                              epsabs=1e-12, epsrel=1e-12)
    if err > 1e-8:
        raise RuntimeError(f"plane-integral quadrature error {err:.2e}")
    return val


def _exact_h_band(n, z1, z2):
    """Pentadiagonal moment matrix h of the finite-N Ginibre determinant
    in ``zgbtrf`` band storage (kl = ku = 2): ``ab[4 + i - j, j] = h_ij``.

    The bracket |z1-l|^2 |z2-l|^2 + (conj(z1)-conj(l))(z2-l)/N is expanded
    into monomials l^p conj(l)^q (p, q <= 2) and integrated against the
    Gaussian moments int d^2l conj(l)^a l^b e^{-N|l|^2} =
    delta_ab pi a! / N^{a+1}.  After absorbing the N^{j+3}/(pi (j+1)!)
    prefactor the entries reduce to

        h_ij = sum_p (c_p d_q + f_pq/N) (j+p)!/(j+1)! N^{2-p},  q = p+i-j,

    which stays O(N^2 j): no overflow handling is needed beyond the
    log-scaled determinant.
    """
    z1 = complex(z1)
    z2 = complex(z2)
    c = np.array([z1 * z2, -(z1 + z2), 1.0], dtype=complex)
    d = np.array([np.conj(z1) * np.conj(z2),
                  -(np.conj(z1) + np.conj(z2)), 1.0], dtype=complex)
    f = {(0, 0): np.conj(z1) * z2, (0, 1): -z2, (1, 0): -np.conj(z1),
         (1, 1): 1.0 + 0.0j}
    dim = n - 1
    ab = np.zeros((7, dim), dtype=complex, order="F")
    j = np.arange(dim)
    w = [1.0 / (j + 1.0), np.ones(dim), j + 2.0]
    # term (p, q) fills the diagonal i - j = p - q, so each entry sums its
    # terms in increasing p
    for p in range(3):
        for q in range(3):
            cols = j[max(0, q - p):dim - max(0, p - q)]
            coef = c[p] * d[q] + f.get((p, q), 0.0) / n
            ab[4 + p - q, cols] += coef * w[p][cols] * float(n) ** (2 - p)
    return ab


def o2_exact_ginibre(n, z1, z2, normalized=True):
    """Exact finite-N Ginibre two-point function.

    Evaluates -(N / (pi^2 Gamma(N))) e^{-N(|z1|^2+|z2|^2)} det[h_ij] with
    the external factorial and exponential absorbed in log space; det h
    comes from a pentadiagonal band LU, O(N) work per point.

    The raw determinant expression (``normalized=False``) overcounts the
    pair density by a factor N+1: dividing it out (the default) makes
    the value agree with direct sampling of the pair density at
    separated points, reproduce the macroscopic limit without any
    further N-scaling, and reach the microscopic kernel as
    N^{-2} o2(0, w/sqrt(N)) -> Phi(|w|) with constant exactly 1.
    """
    from scipy.linalg import lapack
    from scipy.special import gammaln

    n = int(n)
    if not 2 <= n <= EXACT_MAX_N:
        raise ValueError(f"needs 2 <= N <= {EXACT_MAX_N}, got N={n}")
    ab = _exact_h_band(n, z1, z2)
    lu, piv, info = lapack.zgbtrf(ab, 2, 2, overwrite_ab=True)
    if info > 0:  # an exactly zero pivot: det h = 0
        return 0.0 + 0.0j
    log_pref = (math.log(n) - 2.0 * math.log(math.pi) - gammaln(n)
                - n * (abs(complex(z1)) ** 2 + abs(complex(z2)) ** 2))
    if normalized:
        log_pref -= math.log(n + 1.0)
    absu = np.abs(lu[4])
    log_det = float(np.sum(np.log(absu))) + log_pref
    if log_det > 700.0:
        raise OverflowError("log-scaled determinant exceeds range")
    sign = (-1) ** np.count_nonzero(piv != np.arange(piv.size))
    return -sign * np.prod(lu[4] / absu) * np.exp(log_det)


def o2_elliptic(sigma, tau, z1, z2):
    """Large-N elliptic two-point function (both points inside the ellipse)."""
    z1 = complex(z1)
    z2 = complex(z2)
    if abs(z1 - z2) < 1e-12:
        raise ValueError("coincident arguments")
    s2 = sigma ** 2
    omt = 1.0 - tau ** 2
    num = s2 * omt ** 2 - (z1 - np.conj(z2) * tau) * (np.conj(z2) - z1 * tau)
    return -num / (math.pi ** 2 * s2 * omt * abs(z1 - z2) ** 4)


def _elliptic_inside(sigma, tau, z):
    """Whether z lies strictly inside the support of the elliptic law."""
    x, y = z.real, z.imag
    return (x ** 2 / (1.0 + tau) ** 2 + y ** 2 / (1.0 - tau) ** 2) < sigma ** 2


def o1_elliptic(sigma, tau, z):
    """Large-N elliptic one-point function inside the ellipse, else 0."""
    z = complex(z)
    if not _elliptic_inside(sigma, tau, z):
        return 0.0
    s2 = sigma ** 2
    val = (1.0 / (math.pi * s2)) * (
        1.0 - abs(z - np.conj(z) * tau) ** 2 / (s2 * (1.0 - tau ** 2) ** 2))
    return max(val, 0.0)
