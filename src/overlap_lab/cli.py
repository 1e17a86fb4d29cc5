"""Command line interface for reproducible sampling/estimation runs.

Every command is a pure function of its arguments: sampling is driven by
counter-based RNG streams recorded in a run manifest, so reruns are
byte-identical on one platform.  ``estimate rho`` and ``estimate o1`` bin
the run's eigen.csv, once its sha256 matches the one the manifest
records; the other statistics need more than eigen.csv holds and redraw
the matrices from the manifest's seed and parameters.
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
from .ensembles import (DEFAULTS, KINDS, PARAMS, EnsembleSpec, check_params,
                        sample_many)
from .numcore import RngStream
from .overlaps import (MonteCarloLoop, diagonal_overlaps, eig_with_overlaps,
                       eigen_rows, pair_rows, write_eigen_csv,
                       write_pairs_csv)

HASH_CHUNK = 1 << 20  # bytes read at a time when hashing an output file


def _complex_arg(text):
    """Parse 're,im' (or a bare real) into a complex number."""
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected re,im - got {text!r}")
    return complex(float(parts[0]), float(parts[1]))


def _positive_int(text):
    """Parse an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _file_sha256(path):
    """Hex sha256 of a file, read ``HASH_CHUNK`` bytes at a time into one
    buffer."""
    digest = hashlib.sha256()
    buf = bytearray(HASH_CHUNK)
    view = memoryview(buf)
    with open(path, "rb") as fh:
        while size := fh.readinto(buf):
            digest.update(view[:size])
    return digest.hexdigest()


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
        self.outputs[os.path.basename(path)] = _file_sha256(path)

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
    missing = [name for name in DEFAULTS if name not in params]
    if missing:
        raise ValueError(f"manifest params lack {', '.join(missing)}")
    return EnsembleSpec(params["ensemble"], params["n"],
                        **{name: params[name] for name in DEFAULTS})


# Stream index of the pair-subsampling generator: no ``sample_many``
# run can reach it, so its draws never repeat a sample stream's.
PAIR_SUBSAMPLE_STREAM = 2 ** 64 - 1


def cmd_sample(args):
    if args.pair_subsample is not None and not 0 < args.pair_subsample <= 1:
        raise SystemExit("--pair-subsample must lie in (0, 1]")
    if not 0 <= args.min_separation < np.inf:
        raise SystemExit("--min-separation must be finite and at least 0")
    params = {"ensemble": args.ensemble, "n": args.n, "samples": args.samples,
              **{name: getattr(args, name) for name in DEFAULTS},
              "min_separation": args.min_separation,
              "pair_subsample": args.pair_subsample}
    spec = _ensemble_spec_from_params(params)
    os.makedirs(args.out, exist_ok=True)
    manifest = RunManifest("sample", params, args.seed,
                           created=time.strftime("%Y-%m-%dT%H:%M:%S"))
    tag = f"manifest {manifest.params_hash()}"
    eblocks, pblocks = [], []
    sub_rng = RngStream(args.seed, PAIR_SUBSAMPLE_STREAM).generator()
    systems = MonteCarloLoop(sample_many(spec, args.seed, args.samples),
                             eig_with_overlaps)
    for k, (es, o) in systems:
        eblocks.append(eigen_rows(k, es, diagonal_overlaps(es)))
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


def _eigen_blocks(in_dir, manifest):
    """The per-sample ``(eigenvalues, o_kk)`` blocks of a run's eigen.csv.

    The file must have the sha256 that ``manifest.outputs`` records for
    it; a missing or altered file raises ``ValueError`` naming it.
    """
    path = os.path.join(in_dir, "eigen.csv")
    try:
        digest = _file_sha256(path)
    except FileNotFoundError:
        raise ValueError(f"{path} is missing") from None
    if digest != manifest.outputs.get("eigen.csv"):
        raise ValueError(f"{path} does not match the sha256 that "
                         f"manifest.json records for it")
    with open(path, newline="") as fh:
        rows = [line for line in fh if not line.startswith("#")][1:]
    if not rows:  # every sample was dropped
        return []
    # shortest round-trip text: the floats come back bit for bit
    table = np.loadtxt(rows, delimiter=",", ndmin=2).reshape(-1, 5)
    lam = np.empty(len(table), dtype=complex)
    lam.real, lam.imag = table[:, 2], table[:, 3]
    o_kk = table[:, 4].copy()
    starts = np.flatnonzero(np.diff(table[:, 0])) + 1
    return zip(np.split(lam, starts), np.split(o_kk, starts))


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
    manifest = RunManifest.load(os.path.join(args.indir, "manifest.json"))
    spec = _ensemble_spec_from_params(manifest.params)

    def redraw():
        """The run's matrices, drawn again from its seed and parameters."""
        return sample_many(spec, manifest.seed, manifest.params["samples"])

    if args.what in ("rho", "o1"):
        if args.rbins < 1:
            raise SystemExit("--rbins must be at least 1")
        if not 0.0 < args.rmax < np.inf:
            raise SystemExit("--rmax must be positive and finite")
        names = ["r"]
        est = estimators.estimate_radial(
            _eigen_blocks(args.indir, manifest),
            np.linspace(0.0, args.rmax, args.rbins + 1), args.what == "o1")
        est.n_dropped = manifest.results.get("n_dropped", 0)
        est.rejections = manifest.results.get("rejections", 0)
        rows = _binned_rows(est)
    elif args.what == "o2":
        config = estimators.EstimatorConfig(
            delta_min=(5.0 / np.sqrt(manifest.params["n"]))
            if args.dmin == "auto" else float(args.dmin))
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
        est = estimators.estimate_o2_windows(redraw(), windows,
                                             args.half_width, config)
        rows = _binned_rows(est)
    elif args.what == "hprod":
        names = ["re_z1", "im_z1", "re_z2", "im_z2"]
        est = estimators.estimate_traced_resolvent_product(
            redraw(), args.z1, args.z2)
        rows = _scalar_rows(
            (args.z1.real, args.z1.imag, args.z2.real, args.z2.imag), est)
    else:
        names = ["word1", "word2"]
        est = estimators.estimate_trace_covariance(
            redraw(), args.word1, args.word2)
        rows = _scalar_rows((args.word1, args.word2), est)
    _write_table(args.out or os.path.join(args.indir, f"{args.what}.csv"),
                 f"manifest {manifest.params_hash()}", names, rows)
    if est.rejections:
        print(f"sampler rejections: {est.rejections}")
    if getattr(est, "n_dropped", 0):
        print(f"near-defective samples dropped: {est.n_dropped}")
    return 0


def _rt_from_args(args):
    kind = args.ensemble
    params = {name: getattr(args, name) for name in PARAMS[kind]}
    if kind in analytic.SINGLE_RINGS:
        return qsolver.biunitary_rt(kind, **params)
    make = {"elliptic": qsolver.elliptic_rt,
            "pseudo_hermitian_product": qsolver.pseudo_hermitian_rt,
            "quantum_scattering": qsolver.quantum_scattering_rt}
    return make[kind](**params)


def _print_complex(label, value):
    value = complex(value)
    print(f"{label},{value.real!r},{value.imag!r}")


def cmd_analytic(args):
    if args.what == "o1":
        fspec = analytic.radial_cdf(args.ensemble, alpha=args.alpha,
                                    kappa=args.kappa)
        for r in args.r:
            print(f"{r},{analytic.o1_biunitary(fspec, r)!r}")
    elif args.what == "o2":
        val = analytic.o2_biunitary_closed_form(
            args.ensemble, args.z1, args.z2, alpha=args.alpha,
            kappa=args.kappa)
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
        k, pole, _ = qsolver.ladder(rt, g1, g2)
        print(f"pole,{pole}")
        for row in k:
            print(",".join(repr(float(v))
                           for z in row for v in (z.real, z.imag)))
    elif args.what == "o2":
        if (args.ensemble == "pseudo_hermitian_product"
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
        else:  # the points default to 2, as for k, o2 and h
            z1, z2 = (2.0 if z is None else z for z in (args.z1, args.z2))
            _print_complex("wheel", qsolver.wheel_from_points(rt, z1, z2))
    return 0


def _read_table(path):
    with open(path, newline="") as fh:
        reader = csv.DictReader(row for row in fh if not row.startswith("#"))
        return list(reader), reader.fieldnames


def cmd_compare(args):
    got, names_a = _read_table(args.table)
    ref, names_b = _read_table(args.ref)
    if len(got) != len(ref):
        raise SystemExit("tables have different numbers of rows")
    # rows pair by position: key columns (before estimate_re) must match
    keys = names_a[:names_a.index("estimate_re")]
    if names_b[:names_b.index("estimate_re")] != keys:
        raise SystemExit("tables have different key columns")
    for i, (a, b) in enumerate(zip(got, ref)):
        if any(a[k] != b[k] for k in keys):
            raise SystemExit(f"row {i}: key columns differ between tables")
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

    def add_ensemble_params(sp, names):
        for name in names:
            sp.add_argument(f"--{name}", type=float, default=DEFAULTS[name])

    ps = sub.add_parser("sample", help="draw matrices, write eigen/pair CSVs")
    ps.add_argument("--ensemble", required=True, choices=KINDS)
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--samples", type=_positive_int, required=True)
    ps.add_argument("--seed", type=int, required=True)
    ps.add_argument("--out", required=True)
    ps.add_argument("--min-separation", type=float, default=0.0)
    ps.add_argument("--pair-subsample", type=float, default=None)
    add_ensemble_params(ps, DEFAULTS)
    ps.set_defaults(func=cmd_sample)

    pe = sub.add_parser("estimate", help="Monte Carlo estimates from a run")
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--in", dest="indir", required=True)
    run.add_argument("--out", default=None)
    # each statistic takes only the flags it reads: any other exits 2
    stat = pe.add_subparsers(dest="what", required=True).add_parser
    for what in ("rho", "o1"):
        sp = stat(what, parents=[run])
        sp.add_argument("--rbins", type=int, default=40)
        sp.add_argument("--rmax", type=float, default=1.5)
    sp = stat("o2", parents=[run])
    sp.add_argument("--dmin", default="0")
    sp.add_argument("--pair", action="append",
                    help="re1,im1,re2,im2 window centre pair (repeatable)")
    sp.add_argument("--half-width", type=float, default=0.25)
    sp = stat("hprod", parents=[run])
    sp.add_argument("--z1", type=_complex_arg, default=2.0 + 0.0j)
    sp.add_argument("--z2", type=_complex_arg, default=2.0 + 0.0j)
    sp = stat("tracecov", parents=[run])
    sp.add_argument("--word1", default="X")
    sp.add_argument("--word2", default="X+")
    pe.set_defaults(func=cmd_estimate)

    pa = sub.add_parser("analytic", help="closed-form large-N values")
    # each statistic takes only the flags it reads, unabbreviated (so that
    # `o1 --m` is refused rather than read as --model): any other exits 2
    stats = pa.add_subparsers(dest="what", required=True)
    sa = {what: stats.add_parser(what, allow_abbrev=False)
          for what in ("o1", "o2", "h", "phi", "exact-o2", "elliptic-o2")}
    for what in ("o1", "o2"):
        sa[what].add_argument("--model", dest="ensemble", default="ginibre",
                              choices=analytic.SINGLE_RINGS)
        add_ensemble_params(sa[what], ("alpha", "kappa"))
    for what in ("o2", "h", "exact-o2", "elliptic-o2"):
        sa[what].add_argument("--z1", type=_complex_arg, default=0.0 + 0.0j)
        sa[what].add_argument("--z2", type=_complex_arg, default=0.0 + 0.0j)
    sa["o1"].add_argument("--r", type=float, action="append", default=[])
    sa["h"].add_argument("--rout", type=float, default=1.0)
    sa["phi"].add_argument("--omega", type=float, action="append", default=[])
    sa["exact-o2"].add_argument("--n", type=int, default=2)
    sa["exact-o2"].add_argument("--raw", action="store_true",
                                help="skip the N+1 pair-density normalization")
    add_ensemble_params(sa["elliptic-o2"], ("sigma", "tau"))
    pa.set_defaults(func=cmd_analytic)

    pq = sub.add_parser("qsolve", help="quaternionic large-N solver")
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--model", dest="ensemble", required=True,
                       choices=KINDS)
    add_ensemble_params(model, DEFAULTS)
    # as for analytic: each statistic takes only the flags it reads
    stats = pq.add_subparsers(dest="what", required=True)
    sq = {what: stats.add_parser(what, parents=[model], allow_abbrev=False)
          for what in ("green", "o1", "k", "o2", "h", "wheel")}
    for what in ("green", "o1"):
        sq[what].add_argument("--z", type=_complex_arg, default=0.0 + 0.0j)
    for what in ("k", "o2", "h", "wheel"):
        # wheel's points default to None, so that --word-cov can refuse them
        default = None if what == "wheel" else 2.0 + 0.0j
        sq[what].add_argument("--z1", type=_complex_arg, default=default)
        sq[what].add_argument("--z2", type=_complex_arg, default=default)
    sq["wheel"].add_argument("--word-cov", default=None,
                             help="p,q word lengths for wheel coefficients")
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
    if vars(args).get("word_cov") and {args.z1, args.z2} != {None}:
        parser.error("argument --word-cov: not allowed with --z1 or --z2")
    if "ensemble" in vars(args):  # sample, qsolve, analytic o1 and o2
        # a refusal is a usage error, met before any file is written; its
        # message starts with the parameter's name, so "--" names the flag
        try:
            if args.command == "sample":
                RngStream(args.seed)
            check_params(args.ensemble,
                         {name: getattr(args, name, default)
                          for name, default in DEFAULTS.items()})
        except ValueError as exc:
            parser.error(f"--{exc}")
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
