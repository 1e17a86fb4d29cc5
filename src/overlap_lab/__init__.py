"""Eigenvector non-orthogonality statistics of non-Hermitian ensembles.

The package computes Chalker-Mehlig overlap correlation functions two
independent ways: Monte Carlo sampling with exact biorthogonal
eigendecompositions, and large-N analytics (quaternionic Green's
functions, Bethe-Salpeter resummation, single-ring master formulas and
the exact finite-N Ginibre determinant), so the two routes can be
cross-validated.

``OVERLAP_LAB_THREADS``, when set, caps the BLAS and OpenMP thread
pools: it is copied into each pool's own variable that is not already
set.  The pools read those variables when numpy is first imported, so
the cap takes effect only if this package is imported before numpy.
"""

import os


def _apply_thread_cap():
    cap = os.environ.get("OVERLAP_LAB_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, cap)


_apply_thread_cap()

__version__ = "0.1.0"

from .ensembles import KINDS, EnsembleSpec, sample, sample_many
from .numcore import PairHistogram, RngStream
from .overlaps import (EigenSystem, NearDefectiveError, diagonal_overlaps,
                       eig_biorthogonal, overlap_matrix)

__all__ = [
    "KINDS",
    "EnsembleSpec",
    "EigenSystem",
    "NearDefectiveError",
    "PairHistogram",
    "RngStream",
    "diagonal_overlaps",
    "eig_biorthogonal",
    "overlap_matrix",
    "sample",
    "sample_many",
    "__version__",
]
