"""Eigenvector non-orthogonality statistics of non-Hermitian ensembles.

The package computes Chalker-Mehlig overlap correlation functions two
independent ways: Monte Carlo sampling with exact biorthogonal
eigendecompositions, and large-N analytics (quaternionic Green's
functions, Bethe-Salpeter resummation, single-ring master formulas and
the exact finite-N Ginibre determinant), so the two routes can be
cross-validated.

Importing the package applies the BLAS thread rule that
:mod:`overlap_lab.overlaps` documents.
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
