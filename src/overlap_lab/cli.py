"""Command line interface for reproducible sampling/estimation runs.

Every command is a pure function of its arguments: sampling is driven by
counter-based RNG streams recorded in a run manifest, and the estimate
commands regenerate matrices from the manifest rather than parsing bulk
CSVs, so reruns are byte-identical on one platform.
"""

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from . import analytic, estimators, qsolver
from .ensembles import KINDS, EnsembleSpec, sample_many
from .numcore import RngStream
from .overlaps import (EigenSystems, eigen_rows, pair_rows, write_eigen_csv,
                       write_pairs_csv)


def _complex_arg(text):
    """Parse 're,im' (or a bare real) into a complex number."""
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected re,im - got {text!r}")
    return complex(float(parts[0]), float(parts[1]))


@dataclass
class RunManifest:
    """Reproducibility record written next to every sample directory.

    ``params`` and ``seed`` define the run and are what the ``# manifest``
    tag hashes; ``results`` holds what the run reported (e.g. spherical
    rejections), so that recording them cannot change the tag.
    """

    command: str
    params: dict
    seed: int
    version: str = __version__
    created: str = ""
    outputs: dict = field(default_factory=dict)
    results: dict = field(default_factory=dict)

    def params_hash(self):
        blob = json.dumps({"command": self.command, "params": self.params,
                           "seed": self.seed}, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    def record_output(self, path):
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        self.outputs[os.path.basename(path)] = digest

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            data = json.load(fh)
        return cls(**data)


def _ensemble_spec_from_params(params):
    return EnsembleSpec(
        kind=params["ensemble"], n=params["n"], sigma=params.get("sigma", 1.0),
        tau=params.get("tau", 0.0), alpha=params.get("alpha", 0.0),
        kappa=params.get("kappa", 1.0), m=params.get("m", 1.0),
        gamma=params.get("gamma", 1.0))


def _manifest_samples(manifest):
    spec = _ensemble_spec_from_params(manifest.params)
    return sample_many(spec, manifest.seed, manifest.params["samples"])


# Stream index of the pair-subsampling generator: no ``sample_many``
# run can reach it, so its draws never repeat a sample stream's.
PAIR_SUBSAMPLE_STREAM = 2 ** 64 - 1


def cmd_sample(args):
    os.makedirs(args.out, exist_ok=True)
    params = {"ensemble": args.ensemble, "n": args.n, "samples": args.samples,
              "sigma": args.sigma, "tau": args.tau, "alpha": args.alpha,
              "kappa": args.kappa, "m": args.m, "gamma": args.gamma,
              "min_separation": args.min_separation,
              "pair_subsample": args.pair_subsample}
    manifest = RunManifest("sample", params, args.seed,
                           created=time.strftime("%Y-%m-%dT%H:%M:%S"))
    tag = f"manifest {manifest.params_hash()}"
    spec = _ensemble_spec_from_params(params)
    eblocks, pblocks = [], []
    sub_rng = RngStream(args.seed, PAIR_SUBSAMPLE_STREAM).generator()
    systems = EigenSystems(sample_many(spec, args.seed, args.samples),
                           overlaps=True)
    for k, es, o in systems:
        eblocks.append(eigen_rows(k, es, np.real(np.diagonal(o))))
        pblocks.append(pair_rows(k, es, o,
                                 min_separation=args.min_separation,
                                 subsample=args.pair_subsample,
                                 rng=sub_rng))
    eigen_path = os.path.join(args.out, "eigen.csv")
    pairs_path = os.path.join(args.out, "pairs.csv")
    write_eigen_csv(eigen_path, eblocks, header_comment=tag)
    write_pairs_csv(pairs_path, pblocks, header_comment=tag)
    manifest.results["rejections"] = systems.rejections
    manifest.results["n_dropped"] = systems.n_dropped
    manifest.record_output(eigen_path)
    manifest.record_output(pairs_path)
    manifest.write(os.path.join(args.out, "manifest.json"))
    print(f"wrote {sum(map(len, eblocks))} eigen rows, "
          f"{sum(map(len, pblocks))} pair rows to {args.out}")
    return 0


def _load_manifest(in_dir):
    return RunManifest.load(os.path.join(in_dir, "manifest.json"))


def _write_table(out, tag, names, rows):
    """Write an estimate table: the tag line, then ``names`` and the
    estimate columns, then one row per estimate.  :func:`cmd_compare`
    reads this layout back.
    """
    with open(out, "w", newline="") as fh:
        fh.write(f"# {tag}\n")
        writer = csv.writer(fh)
        writer.writerow([*names, "estimate_re", "estimate_im", "stderr",
                         "count"])
        writer.writerows(rows)
    print(f"wrote {out}")


def _binned_rows(est):
    """Rows (center..., re, im, stderr, count) of a BinnedEstimate."""
    return [(*center, value.real, value.imag, err, int(count))
            for center, value, err, count in zip(
                est.centers, np.ravel(est.estimate), np.ravel(est.stderr),
                np.ravel(est.count))]


def _scalar_rows(center, est):
    """The one row (center..., re, im, stderr, count) of a ScalarEstimate."""
    return [(*center, est.value.real, est.value.imag, est.stderr,
             est.n_samples)]


def cmd_estimate(args):
    manifest = _load_manifest(args.indir)
    n = manifest.params["n"]
    config = estimators.EstimatorConfig(
        delta_min=(5.0 / np.sqrt(n)) if args.dmin == "auto"
        else float(args.dmin))
    samples = _manifest_samples(manifest)
    if args.what in ("rho", "o1"):
        estimate = (estimators.estimate_density if args.what == "rho"
                    else estimators.estimate_o1)
        names = ["r"]
        rows = _binned_rows(estimate(
            samples, np.linspace(0.0, args.rmax, args.rbins + 1), config))
    elif args.what == "o2":
        if not args.pair:
            raise SystemExit(
                "estimate o2 needs at least one --pair re1,im1,re2,im2")
        windows = []
        for p in args.pair:
            a = [float(v) for v in p.split(",")]
            if len(a) != 4:
                raise SystemExit("--pair expects re1,im1,re2,im2")
            windows.append((complex(a[0], a[1]), complex(a[2], a[3])))
        names = ["re_z", "im_z", "re_w", "im_w"]
        rows = _binned_rows(estimators.estimate_o2_windows(
            samples, windows, args.half_width, config))
    elif args.what == "hprod":
        names = ["re_z1", "im_z1", "re_z2", "im_z2"]
        rows = _scalar_rows(
            (args.z1.real, args.z1.imag, args.z2.real, args.z2.imag),
            estimators.estimate_traced_resolvent_product(
                samples, args.z1, args.z2, config))
    else:
        names = ["word1", "word2"]
        rows = _scalar_rows(
            (args.word1, args.word2),
            estimators.estimate_trace_covariance(
                samples, args.word1, args.word2, config))
    _write_table(args.out or os.path.join(args.indir, f"{args.what}.csv"),
                 f"manifest {manifest.params_hash()}", names, rows)
    return 0


def _rt_from_args(args):
    kind = args.model
    if kind == "elliptic":
        return qsolver.elliptic_rt(args.sigma, args.tau)
    if kind in ("ginibre", "induced_ginibre", "truncated_unitary",
                "spherical", "product_ginibre"):
        return qsolver.biunitary_rt(kind, alpha=args.alpha, kappa=args.kappa)
    if kind == "pseudo_hermitian_product":
        return qsolver.pseudo_hermitian_rt()
    if kind == "quantum_scattering":
        return qsolver.quantum_scattering_rt(args.m, args.gamma)
    raise SystemExit(f"unknown model {kind!r}")


def _print_complex(label, value):
    value = complex(value)
    print(f"{label},{value.real!r},{value.imag!r}")


def cmd_analytic(args):
    if args.what == "o1":
        fspec = analytic.radial_cdf(args.model, alpha=args.alpha,
                                    kappa=args.kappa)
        for r in args.r:
            print(f"{r},{analytic.o1_biunitary(fspec, r)!r}")
    elif args.what == "o2":
        val = analytic.o2_biunitary_closed_form(
            args.model, args.z1, args.z2, alpha=args.alpha, kappa=args.kappa)
        _print_complex("o2", val)
    elif args.what == "h":
        _print_complex("h", analytic.h_universal(args.z1, args.z2,
                                                 r_out=args.rout))
    elif args.what == "phi":
        for om in args.omega:
            print(f"{om},{analytic.phi_microscopic(om)!r}")
    elif args.what == "exact-o2":
        val = analytic.o2_exact_ginibre(args.n, args.z1, args.z2,
                                        normalized=not args.raw)
        _print_complex("exact_o2", val)
    elif args.what == "elliptic-o2":
        val = analytic.o2_elliptic(args.sigma, args.tau, args.z1, args.z2)
        _print_complex("elliptic_o2", val)
    return 0


def cmd_qsolve(args):
    rt = _rt_from_args(args)
    if args.what == "green":
        res = qsolver.solve_green(rt, args.z)
        g = res.g
        print(f"branch,{res.branch}")
        for lbl, v in (("g11", g[0, 0]), ("g1b", g[0, 1]),
                       ("gb1", g[1, 0]), ("gbb", g[1, 1])):
            _print_complex(lbl, v)
    elif args.what == "o1":
        res = qsolver.solve_green(rt, args.z)
        print(f"o1,{qsolver.o1_from_green(res)!r}")
    elif args.what == "k":
        g1 = qsolver.solve_green(rt, args.z1)
        g2 = qsolver.solve_green(rt, args.z2)
        k, pole = qsolver.ladder(rt, g1, g2)
        print(f"pole,{pole}")
        for row in k:
            print(",".join(repr(float(v))
                           for z in row for v in (z.real, z.imag)))
    elif args.what == "o2":
        if (args.model == "pseudo_hermitian_product"
                and args.z1.imag == 0 and args.z2.imag == 0):
            val = qsolver.o2_real_spectrum(rt, args.z1.real, args.z2.real)
        else:
            val = qsolver.o2_from_k(rt, args.z1, args.z2)
        _print_complex("o2", val)
    elif args.what == "h":
        _print_complex("h", qsolver.h_holomorphic(rt, args.z1,
                                                  np.conj(args.z2)))
    elif args.what == "wheel":
        if args.word_cov:
            p, q = (int(v) for v in args.word_cov.split(","))
            _print_complex("word_cov",
                           qsolver.wheel_word_covariance(rt, p, q))
        else:
            _print_complex("wheel",
                           qsolver.wheel_from_points(rt, args.z1, args.z2))
    return 0


def _read_table(path):
    rows = []
    with open(path, newline="") as fh:
        for line in fh:
            if line.startswith("#"):
                continue
            rows.append(line.strip())
    reader = csv.DictReader(rows)
    return list(reader), reader.fieldnames


def cmd_compare(args):
    got, names_a = _read_table(args.table)
    ref, names_b = _read_table(args.ref)
    if len(got) != len(ref):
        raise SystemExit("tables have different numbers of rows")
    failures = 0
    print("row,residual,zscore,status")
    for i, (a, b) in enumerate(zip(got, ref)):
        va = complex(float(a["estimate_re"]), float(a.get("estimate_im", 0.0)))
        vb = complex(float(b["estimate_re"]), float(b.get("estimate_im", 0.0)))
        resid = abs(va - vb)
        err = float(a.get("stderr", 0.0) or 0.0)
        z = resid / err if err > 0 else float("inf") if resid > 0 else 0.0
        rel = resid / max(abs(vb), 1e-300)
        ok = (z <= args.zmax) or (rel <= args.rtol)
        failures += 0 if ok else 1
        print(f"{i},{resid!r},{z!r},{'ok' if ok else 'FAIL'}")
    print(f"summary,{len(got) - failures}/{len(got)} within tolerance")
    return 0 if failures == 0 else 2


def build_parser():
    p = argparse.ArgumentParser(
        prog="overlap-lab",
        description="Eigenvector overlap statistics of non-Hermitian "
                    "random matrices: sampling, estimation and large-N "
                    "formulas.")
    sub = p.add_subparsers(dest="command", required=True)

    def add_ensemble_params(sp):
        sp.add_argument("--sigma", type=float, default=1.0)
        sp.add_argument("--tau", type=float, default=0.0)
        sp.add_argument("--alpha", type=float, default=0.0)
        sp.add_argument("--kappa", type=float, default=1.0)
        sp.add_argument("--m", type=float, default=1.0)
        sp.add_argument("--gamma", type=float, default=1.0)

    ps = sub.add_parser("sample", help="draw matrices, write eigen/pair CSVs")
    ps.add_argument("--ensemble", required=True, choices=KINDS)
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--samples", type=int, required=True)
    ps.add_argument("--seed", type=int, required=True)
    ps.add_argument("--out", required=True)
    ps.add_argument("--min-separation", type=float, default=0.0)
    ps.add_argument("--pair-subsample", type=float, default=None)
    add_ensemble_params(ps)
    ps.set_defaults(func=cmd_sample)

    pe = sub.add_parser("estimate", help="Monte Carlo estimates from a run")
    pe.add_argument("what", choices=["rho", "o1", "o2", "hprod", "tracecov"])
    pe.add_argument("--in", dest="indir", required=True)
    pe.add_argument("--out", default=None)
    pe.add_argument("--rbins", type=int, default=40)
    pe.add_argument("--rmax", type=float, default=1.5)
    pe.add_argument("--dmin", default="0")
    pe.add_argument("--pair", action="append",
                    help="re1,im1,re2,im2 window centre pair (repeatable)")
    pe.add_argument("--half-width", type=float, default=0.25)
    pe.add_argument("--z1", type=_complex_arg, default=2.0 + 0.0j)
    pe.add_argument("--z2", type=_complex_arg, default=2.0 + 0.0j)
    pe.add_argument("--word1", default="X")
    pe.add_argument("--word2", default="X+")
    pe.set_defaults(func=cmd_estimate)

    pa = sub.add_parser("analytic", help="closed-form large-N values")
    pa.add_argument("what", choices=["o1", "o2", "h", "phi",
                                     "exact-o2", "elliptic-o2"])
    pa.add_argument("--model", default="ginibre")
    pa.add_argument("--n", type=int, default=2)
    pa.add_argument("--z1", type=_complex_arg, default=0.0 + 0.0j)
    pa.add_argument("--z2", type=_complex_arg, default=0.0 + 0.0j)
    pa.add_argument("--r", type=float, action="append", default=[])
    pa.add_argument("--omega", type=float, action="append", default=[])
    pa.add_argument("--rout", type=float, default=1.0)
    pa.add_argument("--raw", action="store_true",
                    help="skip the N+1 pair-density normalization")
    add_ensemble_params(pa)
    pa.set_defaults(func=cmd_analytic)

    pq = sub.add_parser("qsolve", help="quaternionic large-N solver")
    pq.add_argument("what", choices=["green", "o1", "k", "o2", "h", "wheel"])
    pq.add_argument("--model", required=True)
    pq.add_argument("--z", type=_complex_arg, default=0.0 + 0.0j)
    pq.add_argument("--z1", type=_complex_arg, default=2.0 + 0.0j)
    pq.add_argument("--z2", type=_complex_arg, default=2.0 + 0.0j)
    pq.add_argument("--word-cov", default=None,
                    help="p,q word lengths for wheel coefficients")
    add_ensemble_params(pq)
    pq.set_defaults(func=cmd_qsolve)

    pc = sub.add_parser("compare", help="tolerance report between tables")
    pc.add_argument("--table", required=True)
    pc.add_argument("--ref", required=True)
    pc.add_argument("--zmax", type=float, default=3.0)
    pc.add_argument("--rtol", type=float, default=0.0)
    pc.set_defaults(func=cmd_compare)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
