"""Correctness checks applied to every workload's outputs.

Each check returns ``(ok, detail)``.  Exact checks compare against a
tolerance that a correct program meets on every input.  Statistical
checks compare Monte Carlo estimates with their large-N references in
units of ``sigma = max(stderr, rel * |ref| + abs_floor)``; the floor
absorbs finite-N bias and the batch-means error of near-empty bins.
A statistical check passes when no single value is off by more than
``Z_ONE`` sigma and the pooled deviation of all values is below
``Z_POOL``, which a correct program passes on any seed while an output
that is off by a fixed factor or sign fails it.
"""

import csv
import hashlib
import math
import os

import numpy as np

Z_ONE = 7.0
Z_POOL = 6.0


def agree(got, ref, stderr, rel=0.0, abs_floor=0.0):
    """Statistical agreement of estimates with reference values."""
    got = np.atleast_1d(np.asarray(got, dtype=complex))
    ref = np.atleast_1d(np.asarray(ref, dtype=complex))
    err = np.atleast_1d(np.asarray(stderr, dtype=float))
    if not (np.all(np.isfinite(got)) and np.all(np.isfinite(err))):
        return False, "non-finite estimate or stderr"
    sigma = np.maximum(err, rel * np.abs(ref) + abs_floor)
    if np.any(sigma <= 0):
        return False, "zero uncertainty"
    z = np.abs(got - ref) / sigma
    pooled = abs(np.sum(got - ref)) / math.sqrt(np.sum(sigma ** 2))
    ok = bool(z.max() <= Z_ONE and pooled <= Z_POOL)
    return ok, f"max|z| {z.max():.2f}, pooled |z| {pooled:.2f} over {z.size}"


def close(got, ref, rtol=0.0, atol=0.0):
    """Exact agreement within ``atol + rtol * |ref|`` for every value."""
    got = np.atleast_1d(np.asarray(got, dtype=complex))
    ref = np.atleast_1d(np.asarray(ref, dtype=complex))
    dev = np.abs(got - ref)
    ok = bool(np.all(np.isfinite(got))
              and np.all(dev <= atol + rtol * np.abs(ref)))
    return ok, f"max dev {float(np.max(dev)):.2e}"


def below(value, limit, what="value"):
    ok = bool(np.isfinite(value) and value < limit)
    return ok, f"{what} {value:.2e} (limit {limit:.0e})"


def is_real(value):
    ok = isinstance(value, float) and math.isfinite(value)
    return ok, f"{type(value).__name__} {value!r}"


# -- references --------------------------------------------------------

def annulus_o1_ginibre(edges):
    """Exact annulus averages of the Ginibre O1(r) = (1 - r^2)/pi."""
    a, b = np.asarray(edges[:-1]), np.asarray(edges[1:])
    return (((b ** 2 - a ** 2) - (b ** 4 - a ** 4) / 2.0)
            / (math.pi * (b ** 2 - a ** 2)))


def window_average(func, z, w, half_width, points=5):
    """Average of func(z', w') over two square windows (Gauss-Legendre)."""
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


def edge_bulk_slopes(peaks, ns):
    """Log-log slopes of the near-coincident peak over N (criterion #09)."""
    logn = np.log(np.asarray(ns, dtype=float))
    return tuple(float(np.polyfit(logn, np.log(peaks[c]), 1)[0])
                 for c in ("edge", "bulk"))


# -- CLI outputs -------------------------------------------------------

def read_table(path):
    """Rows of a CLI CSV and its ``# manifest`` tag (or None)."""
    tag = None
    lines = []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                tag = line[1:].strip()
            else:
                lines.append(line)
    return list(csv.DictReader(lines)), tag


def manifest_digests(run_dir, manifest):
    """The manifest's ``outputs`` digests match the files on disk."""
    outputs = manifest.get("outputs", {})
    if set(outputs) != {"eigen.csv", "pairs.csv"}:
        return False, f"outputs {sorted(outputs)}"
    for name, digest in outputs.items():
        with open(os.path.join(run_dir, name), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != digest:
                return False, f"{name} digest mismatch"
    return True, "digests match"


def estimate_columns(rows):
    got = np.array([complex(float(r["estimate_re"]), float(r["estimate_im"]))
                    for r in rows])
    err = np.array([float(r["stderr"]) for r in rows])
    return got, err
