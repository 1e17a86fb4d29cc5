"""Foundational numerics shared by all other modules.

Contains numerical Wirtinger derivatives, a 2D-binned pair
accumulator and the deterministic RNG stream contract used by the
samplers.
"""

import operator
from dataclasses import dataclass
from itertools import product

import numpy as np

__all__ = [
    "PairHistogram",
    "RngStream",
    "stencil_pairs",
    "wirtinger_mixed_derivative",
]

STENCIL_H = 1e-3  # step of the Wirtinger stencils in analytic and qsolver


def _stencil(z1, z2, h):
    """The 16 argument pairs of the stencil of step h: four for each pair
    of real-coordinate directions, in the order x1 x2, x1 y2, y1 x2, y1 y2."""
    return [(w1, w2) for d1, d2 in product((h, 1j * h), repeat=2)
            for w1 in (z1 + d1, z1 - d1) for w2 in (z2 + d2, z2 - d2)]


def _mixed_second(f, z1, z2, h):
    """Raw O(h^2) estimate of d/dzbar1 d/dz2 f on a 16-point stencil."""
    v = [f(w1, w2) for w1, w2 in _stencil(z1, z2, h)]
    # cross second derivatives in the four real-coordinate pairs
    dxx, dxy, dyx, dyy = ((v[i] - v[i + 1] - v[i + 2] + v[i + 3])
                          / (4.0 * h * h) for i in range(0, 16, 4))
    # d_zbar1 = (d_x1 + i d_y1)/2,  d_z2 = (d_x2 - i d_y2)/2
    return 0.25 * (dxx + dyy + 1j * (dyx - dxy))


def stencil_pairs(z1, z2):
    """The 32 argument pairs at which :func:`wirtinger_mixed_derivative`
    evaluates ``f``, as the same expressions: a table of precomputed
    values keyed by them is hit bit for bit."""
    z1 = complex(z1)
    z2 = complex(z2)
    return _stencil(z1, z2, STENCIL_H) + _stencil(z1, z2, 0.5 * STENCIL_H)


def wirtinger_mixed_derivative(f, z1, z2):
    """Mixed Wirtinger derivative d/dzbar1 d/dz2 of ``f(z1, z2)``.

    ``f`` must be evaluable on the central-difference stencil around
    ``(z1, z2)`` (the points of :func:`stencil_pairs`); it may depend on
    ``conj(z1)``, ``conj(z2)`` (the derivative is taken in the four real
    coordinates).  The raw stencil is O(h^2) accurate; the h and h/2
    results at h = ``STENCIL_H`` are Richardson-combined to O(h^4).
    """
    z1 = complex(z1)
    z2 = complex(z2)
    coarse = _mixed_second(f, z1, z2, STENCIL_H)
    fine = _mixed_second(f, z1, z2, 0.5 * STENCIL_H)
    return (4.0 * fine - coarse) / 3.0


def _bin_index(edges, v):
    """Index of the bin of each ``v`` among ``edges``, 0 below and
    ``len(edges)`` above (or at NaN), as ``np.histogramdd`` numbers them."""
    v = np.asarray(v, dtype=float)
    index = np.searchsorted(edges, v, side="right")
    index[v == edges[-1]] -= 1  # the right edge closes the last bin
    return index


class PairHistogram:
    """2D-binned accumulator over coordinate pairs with complex weights.

    Bin edges are fixed at construction; per-bin complex weight sums and
    pair counts are accumulated.
    """

    def __init__(self, edges1, edges2):
        self.edges1 = np.asarray(edges1, dtype=float)
        self.edges2 = np.asarray(edges2, dtype=float)
        if self.edges1.ndim != 1 or self.edges2.ndim != 1:
            raise ValueError("bin edges must be 1D arrays")
        if (np.diff(self.edges1) <= 0).any() or (np.diff(self.edges2) <= 0).any():
            raise ValueError("bin edges must be strictly increasing")
        shape = (len(self.edges1) - 1, len(self.edges2) - 1)
        self.weight = np.zeros(shape, dtype=complex)
        self.count = np.zeros(shape, dtype=np.int64)

    def accumulate(self, x, y, weights):
        """Add pairs with coordinates ``(x, y)`` and complex weights.

        Binned as ``np.histogram2d`` bins, bitwise: each bin holds its left
        edge, the last also its right edge, and a point outside the edges
        or at NaN is left out.
        """
        weights = np.asarray(weights, dtype=complex)
        n1, n2 = self.count.shape
        # flat index into the bins padded by one outlier bin on each side
        flat = (_bin_index(self.edges1, x) * (n2 + 2)
                + _bin_index(self.edges2, y))

        def binned(w=None):
            return np.bincount(flat, w, minlength=(n1 + 2) * (n2 + 2)) \
                .reshape(n1 + 2, n2 + 2)[1:-1, 1:-1]

        self.weight += binned(weights.real) + 1j * binned(weights.imag)
        self.count += binned()

    def bin_areas(self):
        d1 = np.diff(self.edges1)
        d2 = np.diff(self.edges2)
        return np.outer(d1, d2)


def as_index(name, value):
    """``value`` as a Python int through ``operator.index``, so that numpy
    integers pass; a float or any other type raises ``TypeError`` led by
    ``name`` instead of being truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class RngStream:
    """Deterministic, parallel-safe RNG substream.

    A counter-based Philox generator keyed by ``(seed, stream)``:
    identical pairs reproduce identical draws bit-exactly on one
    platform, distinct stream indices are statistically independent.
    ``sub`` selects a substream of the same key by starting the 256-bit
    counter at ``sub * 2**192``; ``sub = 0`` is the stream itself.
    """

    seed: int
    stream: int = 0
    sub: int = 0

    def __post_init__(self):
        for name in ("seed", "stream", "sub"):
            value = as_index(name, getattr(self, name))
            if not 0 <= value < 1 << 64:
                raise ValueError(f"{name} must lie in [0, 2**64)")
            object.__setattr__(self, name, value)

    def generator(self):
        key = self.seed << 64 | self.stream
        counter = np.array([0, 0, 0, self.sub], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key, counter=counter))

    def substream(self, index):
        """Derived stream, used e.g. for resampling rejected draws."""
        return RngStream(self.seed, self.stream, index)
