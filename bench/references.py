"""Large-N reference values for the real-spectrum block of ``mc_library``.

The block compares Monte Carlo estimates for the pseudo-Hermitian
product against the analytic route, as acceptance criterion #10 does.
Evaluating that route costs ~0.2 s per two-point value, and
``mc_library`` is meant to measure the Monte Carlo chain with no
``qsolver`` work in it, so the values are computed once and stored in
``references.json``.  ``test_bench.py`` recomputes a subset and checks
that the stored table still agrees with ``qsolver``.

Regenerate the table (about 20 s) with::

    python3 bench/references.py
"""

import json
import math
import os

import numpy as np

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "references.json")

# Binning of criterion #10.
DENSITY_EDGES = np.arange(0.0, 10.5, 0.25)
PAIR_EDGES = 0.1 + 0.25 * np.arange(41)
CROSS_SECTIONS = (1.475, 3.975)


def density_bins():
    """Indices of the density bins whose centres lie in [0.5, 10]."""
    centers = 0.5 * (DENSITY_EDGES[:-1] + DENSITY_EDGES[1:])
    return [i for i, c in enumerate(centers) if 0.5 <= c <= 10.0]


def cross_section_cells():
    """(ix, j) grid cells of the two O2 cross sections of criterion #10."""
    centers = 0.5 * (PAIR_EDGES[:-1] + PAIR_EDGES[1:])
    cells = []
    for x_cut in CROSS_SECTIONS:
        ix = int(np.argmin(np.abs(centers - x_cut)))
        for j, y in enumerate(centers):
            if 0.5 <= y <= 10.0 and abs(y - centers[ix]) >= 0.3:
                cells.append((ix, j))
    return cells


def density_value(qsolver, i):
    """Bin average of rho(x) = |Im g(x + i0)|/pi, 5-point Gauss rule."""
    a, b = DENSITY_EDGES[i], DENSITY_EDGES[i + 1]
    gx, gw = np.polynomial.legendre.leggauss(5)
    vals = [abs(qsolver.pt_green_scalar(
        complex(0.5 * (b - a) * t + 0.5 * (a + b), 1e-9)).imag) / math.pi
        for t in gx]
    return 0.5 * float(np.dot(gw, vals))


def o2_value(qsolver, ix, j):
    centers = 0.5 * (PAIR_EDGES[:-1] + PAIR_EDGES[1:])
    return qsolver.o2_real_spectrum(qsolver.pseudo_hermitian_rt(),
                                    centers[ix], centers[j])


def compute(qsolver):
    return {
        "density": [[i, density_value(qsolver, i)] for i in density_bins()],
        "o2_cross": [[ix, j, o2_value(qsolver, ix, j)]
                     for ix, j in cross_section_cells()],
    }


def load():
    with open(PATH) as fh:
        return json.load(fh)


if __name__ == "__main__":
    import sys
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(PATH)),
                                    "src"))
    from overlap_lab import qsolver as _qsolver
    with open(PATH, "w") as fh:
        json.dump(compute(_qsolver), fh, indent=1)
        fh.write("\n")
    print(f"wrote {PATH}")
