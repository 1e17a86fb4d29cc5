"""Seeded samplers for the non-Hermitian ensembles under study.

Entry-scale conventions: the complex Gaussian (Ginibre) matrix has
``<|X_ij|^2> = 1/N`` (real and imaginary parts independent, variance
``1/(2N)`` each); the GUE factors are Hermitian with ``<|H_ij|^2> =
sigma^2/N`` and semicircle support ``[-2 sigma, 2 sigma]``.  The
elliptic ensemble interpolates between these with pair covariances
``<X_ab X_cd> = sigma^2 tau delta_ad delta_bc / N`` and
``<X_ab X+_cd> = sigma^2 delta_ad delta_bc / N``.
"""

import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .numcore import RngStream, as_index
from .overlaps import COND_LIMIT

__all__ = ["EnsembleSpec", "sample", "KINDS", "PARAMS", "check_params"]

# the parameters each kind reads; a kind keeps every other at its default
PARAMS = {
    "ginibre": (),
    "elliptic": ("sigma", "tau"),
    "induced_ginibre": ("alpha",),
    "truncated_unitary": ("kappa",),
    "spherical": (),
    "product_ginibre": (),
    "pseudo_hermitian_product": (),
    "quantum_scattering": ("m", "gamma"),
}
KINDS = tuple(PARAMS)


@dataclass(frozen=True)
class EnsembleSpec:
    """Tagged description of one ensemble plus its parameters.

    Parameters
    ----------
    kind : str
        One of :data:`KINDS`; it reads only the parameters :data:`PARAMS`
        names for it, and :func:`check_params` refuses any other value.
    n : int
        Matrix size, at least 2.
    sigma, tau : float
        Gaussian scale and Hermiticity correlation (elliptic only;
        ``tau=0, sigma=1`` is Ginibre).
    alpha : float
        Induced-Ginibre rectangularity ratio ``(M - N)/N``.
    kappa : float
        Truncated-unitary truncation ratio ``L/N``.
    m : float
        Quantum-scattering channel ratio ``M/N``.
    gamma : float
        Quantum-scattering coupling strength.
    """

    kind: str
    n: int
    sigma: float = 1.0
    tau: float = 0.0
    alpha: float = 0.0
    kappa: float = 1.0
    m: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        object.__setattr__(self, "n", as_index("n", self.n))
        if self.n < 2:
            raise ValueError("n must be at least 2")
        check_params(self.kind, {name: getattr(self, name)
                                 for name in DEFAULTS})


DEFAULTS = {f.name: f.default for f in fields(EnsembleSpec)
            if f.default is not MISSING}


def check_params(kind, params):
    """Refuse, by a ``ValueError`` led by its name, a parameter in ``params``
    (all of :data:`DEFAULTS`) that is not finite, out of range, or away
    from its default though ``kind`` does not read it."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
        if name not in PARAMS[kind] and value != DEFAULTS[name]:
            raise ValueError(f"{name} is not read by {kind}; leave it at "
                             f"{DEFAULTS[name]}")
    if not -1.0 <= params["tau"] <= 1.0:
        raise ValueError("tau must lie in [-1, 1]")
    if params["sigma"] <= 0:
        raise ValueError("sigma must be positive")
    for name in ("alpha", "kappa", "m"):
        if params[name] < 0:
            raise ValueError(f"{name} must be nonnegative")


def _ginibre(rng, n):
    """Complex Gaussian matrix with <|X_ij|^2> = 1/n."""
    scale = 1.0 / np.sqrt(2.0 * n)
    return scale * (rng.standard_normal((n, n))
                    + 1j * rng.standard_normal((n, n)))


def _gue(rng, n, sigma=1.0):
    """GUE matrix with <|H_ij|^2> = sigma^2/n, semicircle on [-2s, 2s]."""
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (sigma / (2.0 * np.sqrt(n))) * (b + b.conj().T)


def _haar_unitary(rng, n, cols=None):
    """Haar unitary via QR with the R-diagonal phases fixed positive real.

    Only its first ``cols`` columns (all by default) are formed: they are
    the QR factor of the first ``cols`` columns of the same n x n draw.
    """
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q, r = np.linalg.qr(g[:, :cols])
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def sample(spec, rng_stream):
    """Draw one matrix from the ensemble.

    Parameters
    ----------
    spec : EnsembleSpec
    rng_stream : RngStream
        Per-sample substream; the draw is a pure function of
        ``(spec, rng_stream)``.

    Returns
    -------
    x : (n, n) complex ndarray
    info : dict
        Sampler diagnostics (currently the spherical rejection count).
    """
    if not isinstance(rng_stream, RngStream):
        raise TypeError("rng_stream must be an RngStream")
    rng = rng_stream.generator()
    n = spec.n
    info = {"rejections": 0}

    if spec.kind == "ginibre":
        x = _ginibre(rng, n)
    elif spec.kind == "elliptic":
        h1 = _gue(rng, n, spec.sigma)
        h2 = _gue(rng, n, spec.sigma)
        x = (np.sqrt((1.0 + spec.tau) / 2.0) * h1
             + 1j * np.sqrt((1.0 - spec.tau) / 2.0) * h2)
    elif spec.kind == "induced_ginibre":
        m_cols = int(round(n * (1.0 + spec.alpha)))
        scale = 1.0 / np.sqrt(2.0 * n)
        a = scale * (rng.standard_normal((n, m_cols))
                     + 1j * rng.standard_normal((n, m_cols)))
        # Orthonormal basis of the row space of a (complement of ker a).
        # The basis is fixed only up to a right U(N) rotation; a Haar
        # rotation of the basis is required for the square factor to
        # carry the induced-Ginibre statistics (the canonical QR basis
        # alone would leave a triangular matrix).
        q, _ = np.linalg.qr(a.conj().T)
        w = _haar_unitary(rng, n)
        x = a @ q @ w
    elif spec.kind == "truncated_unitary":
        total = n + int(round(spec.kappa * n))
        x = _haar_unitary(rng, total, n)[:n].copy()
    elif spec.kind == "spherical":
        x1 = _ginibre(rng, n)
        x2 = _ginibre(rng, n)
        attempt = 0
        while np.linalg.cond(x2) > COND_LIMIT:
            attempt += 1
            info["rejections"] += 1
            sub = rng_stream.substream(attempt).generator()
            x2 = _ginibre(sub, n)
        x = np.linalg.solve(x2.T, x1.T).T  # x1 @ inv(x2)
    elif spec.kind == "product_ginibre":
        x = _ginibre(rng, n) @ _ginibre(rng, n)
    elif spec.kind == "pseudo_hermitian_product":
        g1 = _gue(rng, n)
        g2 = _gue(rng, n)
        eye = np.eye(n)
        x = (2.0 * eye + g1) @ (2.0 * eye + g2)
    else:  # quantum_scattering
        h = _gue(rng, n)
        m_ch = int(round(spec.m * n))
        v = (rng.standard_normal((n, m_ch))
             + 1j * rng.standard_normal((n, m_ch))) / np.sqrt(2.0 * n)
        x = h + 1j * spec.gamma * (v @ v.conj().T)
    return x, info


def sample_many(spec, seed, n_samples):
    """Yield ``(stream_index, matrix, info)`` for streams 0..n_samples-1."""
    for k in range(n_samples):
        x, info = sample(spec, RngStream(seed, k))
        yield k, x, info
