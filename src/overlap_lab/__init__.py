"""Eigenvector non-orthogonality statistics of non-Hermitian ensembles.

The package computes Chalker-Mehlig overlap correlation functions two
independent ways: Monte Carlo sampling with exact biorthogonal
eigendecompositions, and large-N analytics (quaternionic Green's
functions, Bethe-Salpeter resummation, single-ring master formulas and
the exact finite-N Ginibre determinant), so the two routes can be
cross-validated.

``OVERLAP_LAB_THREADS``, else ``OPENBLAS_NUM_THREADS``, else
``OMP_NUM_THREADS``, else 1, is the number of BLAS threads per
decomposition.  Importing the package sets the pool of numpy's bundled
OpenBLAS to it for the whole process, whether or not numpy was imported
first (builds without that library keep their own), and the Monte
Carlo loop runs the usable cores divided by it as workers (see
:mod:`overlap_lab.overlaps`).
"""

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
