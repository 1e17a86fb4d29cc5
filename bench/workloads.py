"""The three benchmark workloads and the op clock that times them.

Every workload is a closed loop with one caller: a pass issues its
calls into ``overlap_lab`` one after another, each waiting for the
previous result, and the worker repeats passes until the run's time is
up.  Pass ``i`` of a run with seed ``s`` draws all of its inputs from
``(s, i)``, so a seed fixes the inputs of every pass.

Op mixes are chosen so that the p50 and p90 ranks of the pooled op
latencies fall inside a group of ops of similar cost, never on the
boundary between two groups of very different cost (see README.md).
"""

import array
import contextlib
import io
import json
import math
import os
import shutil
import tempfile
import time

import numpy as np

from overlap_lab import analytic, cli, ensembles, estimators, qsolver
from overlap_lab.numcore import RngStream

import checks
import references

N = 100

# Counts a workload reports per pass in ``pass_counts`` (0 if it has none).
PASS_COUNTS = ("cli.manifest_tag_mismatch", "qsolver.qs_o2_nonzero")

# O_kk is heavy-tailed, so at 16 samples the batch-means stderr of an
# O1 bin is often far too small; 15% of the reference bounds it below.
O1_REL = 0.15


def pass_seeds(seed, index, n):
    """``n`` independent 32-bit seeds for pass ``index`` of a run."""
    state = np.random.SeedSequence([seed, index]).generate_state(n)
    return [int(v) for v in state]


class OpClock:
    """Op timestamps taken from outside the package, plus check groups.

    An op opens when the caller (or an estimator pulling from
    :meth:`pulls`) asks for its input and closes when the next op opens
    or its group ends.  A group is one call into ``overlap_lab`` with
    the check its result must pass; checks run after the pass's wall
    time is taken.
    """

    def __init__(self):
        # Times live in flat arrays: per-op float objects would outlive
        # the pass and pin the allocator arenas its temporaries used,
        # which makes peak RSS drift upward from pass to pass.
        self.kind = []
        self.start = array.array("d")
        self.end = array.array("d")
        self.failed = []
        self.extra_failed = 0   # groups that raised before any op opened
        self.current_op = -1
        self.block = ""
        self.groups = []

    def _open(self, kind):
        t = time.perf_counter()
        self._close(t)
        self.current_op = len(self.kind)
        self.kind.append(kind)
        self.start.append(t)
        self.end.append(t)
        self.failed.append(False)

    def _close(self, t=None):
        if self.current_op >= 0:
            self.end[self.current_op] = time.perf_counter() if t is None else t
            self.current_op = -1

    def pulls(self, items, kind):
        """Yield ``items``, timing each pull as one op of ``kind``."""
        it = iter(items)
        while True:
            self._open(kind)
            try:
                item = next(it)
            except StopIteration:
                self.current_op = -1
                for seq in (self.kind, self.start, self.end, self.failed):
                    seq.pop()
                return
            yield item

    @contextlib.contextmanager
    def op(self, kind):
        self._open(kind)
        try:
            yield
        finally:
            self._close()

    def group(self, block, fn, check=None, kind=None):
        """Run ``fn`` (as one op of ``kind`` if given) and queue its check."""
        self.block = block
        first = len(self.kind)
        if kind is not None:
            self._open(kind)
        try:
            result, error = fn(), None
        except Exception as exc:  # noqa: BLE001 - an op that raised fails
            result, error = None, exc
        self._close()
        self.groups.append((block, first, len(self.kind), result, error,
                            check))
        return result

    def settle(self):
        """Run queued checks, mark failed ops; return failure messages."""
        messages = []
        for block, first, last, result, error, check in self.groups:
            if error is not None:
                detail = f"raised {type(error).__name__}: {error}"
            elif check is not None:
                ok, detail = check(result)
                if ok:
                    detail = None
            else:
                detail = None
            if detail is not None:
                messages.append(f"{block}: {detail}")
                if first == last:
                    self.extra_failed += 1
                for i in range(first, last):
                    self.failed[i] = True
            dropped = int(getattr(result, "n_dropped", 0) or 0)
            for i in range(max(first, last - dropped), last):
                self.failed[i] = True
        self.groups = []
        return messages


# -- mc_library ----------------------------------------------------------

class McLibrary:
    """Monte Carlo chain called directly through ``estimators``."""

    name = "mc_library"
    GINIBRE_SAMPLES = 16      # per estimator: o1 and o2 windows
    RESOLVENT_SAMPLES = 20    # per estimator: resolvent product, trace cov
    REAL_SAMPLES = 16         # pseudo-Hermitian list, consumed twice
    SUM_RULE_PER_KIND = 2
    SUM_RULE_PARAMS = {
        "ginibre": {}, "elliptic": {"tau": 0.5},
        "induced_ginibre": {"alpha": 0.5},
        "truncated_unitary": {"kappa": 1.0}, "spherical": {},
        "product_ginibre": {}, "pseudo_hermitian_product": {},
        "quantum_scattering": {"gamma": 0.7},
    }
    O1_EDGES = np.linspace(0.1, 0.8, 8)
    WINDOWS = [(0.5 + 0.0j, -0.5 + 0.0j), (0.45 + 0.35j, -0.35 - 0.35j),
               (0.0 + 0.55j, 0.0 - 0.55j), (0.5 + 0.3j, -0.5 + 0.3j),
               (0.6 - 0.2j, -0.4 + 0.2j)]
    HALF_WIDTH = 0.15

    def __init__(self, seed, scratch):
        self.seed = seed
        self.ginibre = ensembles.EnsembleSpec("ginibre", N)
        self.real = ensembles.EnsembleSpec("pseudo_hermitian_product", N)
        self.sum_rule_specs = [ensembles.EnsembleSpec(kind, N, **params)
                               for kind, params in self.SUM_RULE_PARAMS.items()]
        self.o2_config = estimators.EstimatorConfig(delta_min=5.0 / math.sqrt(N))
        self.o1_refs = checks.annulus_o1_ginibre(self.O1_EDGES)
        self.window_refs = [checks.window_average(
            lambda a, b: analytic.o2_biunitary_closed_form("ginibre", a, b),
            z, w, self.HALF_WIDTH) for z, w in self.WINDOWS]
        refs = references.load()
        self.density_refs = refs["density"]
        self.cross_refs = refs["o2_cross"]
        self.pass_counts = {}

    def warm_up(self):
        x, _ = ensembles.sample(self.ginibre, RngStream(self.seed, 0))
        estimators.sum_rule_residual(x)

    def run_pass(self, clock, index):
        s = pass_seeds(self.seed, index, 6)
        g = clock.group
        sample_many = ensembles.sample_many
        g("ginibre_o1", lambda: estimators.estimate_o1(
            clock.pulls(sample_many(self.ginibre, s[0], self.GINIBRE_SAMPLES),
                        "o1"), self.O1_EDGES), self.check_o1)
        g("ginibre_o2", lambda: estimators.estimate_o2_windows(
            clock.pulls(sample_many(self.ginibre, s[1], self.GINIBRE_SAMPLES),
                        "o2_windows"), self.WINDOWS, self.HALF_WIDTH,
            self.o2_config), self.check_o2_windows)
        g("resolvent", lambda: estimators.estimate_traced_resolvent_product(
            clock.pulls(sample_many(self.ginibre, s[2],
                                    self.RESOLVENT_SAMPLES), "resolvent"),
            2.0, 2.0), check_resolvent)
        g("trace_cov", lambda: estimators.estimate_trace_covariance(
            clock.pulls(sample_many(self.ginibre, s[3],
                                    self.RESOLVENT_SAMPLES), "trace_cov"),
            "XX", "X+X+"), check_trace_cov)
        real = g("real_pairs", lambda: list(
            sample_many(self.real, s[4], self.REAL_SAMPLES)))
        g("real_pairs", lambda: estimators.estimate_density_real(
            clock.pulls(real, "density_real"), references.DENSITY_EDGES),
            self.check_density_real)
        g("real_pairs", lambda: estimators.estimate_o2_real_pairs(
            clock.pulls(real, "o2_real_pairs"), references.PAIR_EDGES),
            self.check_o2_real_pairs)
        for k, spec in enumerate(self.sum_rule_specs):
            for j in range(self.SUM_RULE_PER_KIND):
                stream = RngStream(s[5], k * self.SUM_RULE_PER_KIND + j)
                g("sum_rule", lambda spec=spec, stream=stream:
                  estimators.sum_rule_residual(
                      ensembles.sample(spec, stream)[0]),
                  check_sum_rule, kind="sum_rule")

    def end_pass(self):
        pass

    def check_o1(self, est):
        return checks.agree(est.estimate, self.o1_refs, est.stderr,
                            rel=O1_REL)

    def check_o2_windows(self, est):
        return checks.agree(est.estimate, self.window_refs, est.stderr,
                            rel=0.10)

    def check_density_real(self, est):
        idx = [i for i, _ in self.density_refs]
        ref = [r for _, r in self.density_refs]
        return checks.agree(est.estimate[idx], ref, est.stderr[idx],
                            rel=0.05, abs_floor=0.005)

    def check_o2_real_pairs(self, est):
        ix = [c[0] for c in self.cross_refs]
        jy = [c[1] for c in self.cross_refs]
        ref = [c[2] for c in self.cross_refs]
        return checks.agree(est.grid_estimate[ix, jy], ref,
                            est.grid_stderr[ix, jy], rel=0.10,
                            abs_floor=0.001)


def check_resolvent(est):
    # 1/(z1 conj(z2) - r_out^2) at z1 = z2 = 2 for Ginibre (criterion #06)
    return checks.agree(est.value, 1.0 / 3.0, est.stderr, rel=0.02)


def check_trace_cov(est):
    # N^2 cov(Tr X^2/N, Tr X+^2/N) = 2 for complex Ginibre (criterion #12).
    # Each batch covariance divides by its size m = n/n_b, not m - 1, so
    # the estimator's expectation is 2 (1 - n_b/n); anything from that
    # biased expectation up to the unbiased one is accepted.  Batches of
    # two samples make the stderr unreliable, so it is floored at 25%.
    n = est.n_samples
    n_b = min(estimators.EstimatorConfig().n_batches, n // 2)
    value = est.value * N ** 2
    target = min(max(value.real, 2.0 * (1.0 - n_b / n)), 2.0)
    return checks.agree(value, target, est.stderr * N ** 2, rel=0.25)


def check_sum_rule(residual):
    return checks.below(residual, 1e-6, "sum-rule residual")


# -- cli_roundtrip -------------------------------------------------------

class CliRoundtrip:
    """``overlap-lab sample`` into a temporary directory, then estimates.

    Each command pulls the same number of matrices.  ``o1`` and ``o2``
    ops cost the same, so p50 falls in the middle of their joint group,
    between the cheap ``hprod`` ops and the dearer ``sample`` ops, and
    p90 inside the ``sample`` ops.
    """

    name = "cli_roundtrip"
    SAMPLES = 25    # 4 commands x 25 pulls = 100 ops per pass

    def __init__(self, seed, scratch):
        self.seed = seed
        self.scratch = scratch
        self.clock = None
        self.kind = ""
        self.run_dir = None
        self.pass_counts = {}
        self._sample_many = cli.sample_many
        cli.sample_many = self._timed_sample_many
        mc = McLibrary
        self.windows = mc.WINDOWS
        self.window_refs = [checks.window_average(
            lambda a, b: analytic.o2_biunitary_closed_form("ginibre", a, b),
            z, w, mc.HALF_WIDTH) for z, w in mc.WINDOWS]
        self.pair_args = [f"--pair={z.real},{z.imag},{w.real},{w.imag}"
                          for z, w in mc.WINDOWS]

    def _timed_sample_many(self, *args, **kwargs):
        return self.clock.pulls(self._sample_many(*args, **kwargs), self.kind)

    def _main(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def warm_up(self):
        self.clock = OpClock()
        out = tempfile.mkdtemp(prefix="warm-", dir=self.scratch)
        try:
            self._main(["sample", "--ensemble", "ginibre", "--n", str(N),
                        "--samples", "1", "--seed", str(self.seed),
                        "--out", os.path.join(out, "run")])
        finally:
            shutil.rmtree(out)

    def run_pass(self, clock, index):
        self.clock = clock
        self.run_dir = tempfile.mkdtemp(prefix="cli-", dir=self.scratch)
        run = os.path.join(self.run_dir, "run")
        seed = pass_seeds(self.seed, index, 1)[0]
        commands = [
            ("sample", ["sample", "--ensemble", "ginibre", "--n", str(N),
                        "--samples", str(self.SAMPLES), "--seed", str(seed),
                        "--out", run], self.check_sample),
            ("o1", ["estimate", "o1", "--in", run, "--rmax", "0.8",
                    "--rbins", "8"], self.check_o1),
            ("o2", ["estimate", "o2", "--in", run, "--dmin", "auto",
                    "--half-width", str(McLibrary.HALF_WIDTH),
                    *self.pair_args], self.check_o2),
            ("hprod", ["estimate", "hprod", "--in", run], self.check_hprod),
        ]
        for kind, argv, check in commands:
            self.kind = kind
            clock.group("cli_" + kind, lambda argv=argv: self._main(argv),
                        lambda rc, check=check: check(rc, run))
        self.pass_counts = {"cli.manifest_tag_mismatch": self._tag_mismatch(
            run, ("o1", "o2", "hprod"))}

    def end_pass(self):
        shutil.rmtree(self.run_dir)
        self.run_dir = None

    @staticmethod
    def _tag_mismatch(run, names):
        """Estimate CSVs whose manifest tag differs from eigen.csv's."""
        try:
            _, tag = checks.read_table(os.path.join(run, "eigen.csv"))
            return sum(checks.read_table(os.path.join(run, f"{n}.csv"))[1]
                       != tag for n in names)
        except OSError:
            return 0

    def check_sample(self, rc, run):
        if rc != 0:
            return False, f"exit code {rc}"
        with open(os.path.join(run, "manifest.json")) as fh:
            manifest = json.load(fh)
        ok, detail = checks.manifest_digests(run, manifest)
        if not ok:
            return ok, detail
        rows, _ = checks.read_table(os.path.join(run, "eigen.csv"))
        return (len(rows) == self.SAMPLES * N,
                f"{len(rows)} eigen rows, {detail}")

    def check_o1(self, rc, run):
        if rc != 0:
            return False, f"exit code {rc}"
        rows, _ = checks.read_table(os.path.join(run, "o1.csv"))
        got, err = checks.estimate_columns(rows[1:])   # bins above r = 0.1
        return checks.agree(got, checks.annulus_o1_ginibre(McLibrary.O1_EDGES),
                            err, rel=O1_REL)

    def check_o2(self, rc, run):
        if rc != 0:
            return False, f"exit code {rc}"
        rows, _ = checks.read_table(os.path.join(run, "o2.csv"))
        got, err = checks.estimate_columns(rows)
        return checks.agree(got, self.window_refs, err, rel=0.10)

    def check_hprod(self, rc, run):
        if rc != 0:
            return False, f"exit code {rc}"
        rows, _ = checks.read_table(os.path.join(run, "hprod.csv"))
        got, err = checks.estimate_columns(rows)
        return checks.agree(got, 1.0 / 3.0, err, rel=0.02)


# -- analytic_crosscheck -------------------------------------------------

class AnalyticCrosscheck:
    """The large-N route only: qsolver pipelines against closed forms."""

    name = "analytic_crosscheck"
    ELLIPTIC_PAIRS = 20
    BIUNITARY_PAIRS = 20      # per biunitary kind
    BIUNITARY = [("ginibre", {}), ("induced_ginibre", {"alpha": 0.5}),
                 ("truncated_unitary", {"kappa": 1.0})]
    QS_POINTS = 1
    REAL_POINTS = 4
    WHEEL = [((1, 1), 1.0), ((2, 2), 2.0), ((1, 2), 0.0)]
    SWEEP_NS = (40, 80, 160)
    SWEEP_XS = np.linspace(0.05, 3.0, 12)

    def __init__(self, seed, scratch):
        self.seed = seed
        self.pass_counts = {}
        self.elliptic = qsolver.elliptic_rt(1.0, 0.5)
        self.biunitary = [(kind, kw, qsolver.biunitary_rt(kind, **kw),
                           analytic.radial_cdf(kind, **kw))
                          for kind, kw in self.BIUNITARY]
        self.qs = qsolver.quantum_scattering_rt(m=1.5, gamma=0.8)
        self.real = qsolver.pseudo_hermitian_rt()
        self.ginibre = qsolver.biunitary_rt("ginibre")

    def warm_up(self):
        qsolver.o2_from_k(self.elliptic, 0.3 + 0.1j, -0.4 - 0.1j)

    @staticmethod
    def elliptic_pairs(rng, n):
        """Bulk pairs of the tau=0.5 ellipse, as in criterion #05."""
        out = []
        while len(out) < n:
            z1 = complex(1.2 * (2 * rng.random() - 1), 0.4 * (2 * rng.random() - 1))
            z2 = complex(1.2 * (2 * rng.random() - 1), 0.4 * (2 * rng.random() - 1))
            if (abs(z1 - z2) >= 0.3
                    and analytic.o1_elliptic(1.0, 0.5, z1) > 0.02
                    and analytic.o1_elliptic(1.0, 0.5, z2) > 0.02):
                out.append((z1, z2))
        return out

    @staticmethod
    def ring_pairs(rng, fspec, n):
        """Pairs inside the central 70% of a single-ring annulus.

        Radii stay 4h = 4e-3 apart: closer than that the o2_from_k
        stencil crosses |z1| = |z2|, where its error grows to ~5e-4 (the
        guard ``analytic.o2_biunitary`` applies for the same reason).
        """
        lo = fspec.r_in + 0.15 * (fspec.r_out - fspec.r_in)
        hi = fspec.r_in + 0.85 * (fspec.r_out - fspec.r_in)
        out = []
        while len(out) < n:
            r = rng.uniform(lo, hi, 2)
            th = rng.uniform(0.0, 2 * math.pi, 2)
            z1, z2 = r * np.exp(1j * th)
            if abs(z1 - z2) >= 0.2 * fspec.r_out and abs(r[0] - r[1]) >= 4e-3:
                out.append((complex(z1), complex(z2)))
        return out

    def run_pass(self, clock, index):
        self.pass_counts = {"qsolver.qs_o2_nonzero": 0}
        rng = np.random.default_rng([self.seed, index])
        g = clock.group
        for z1, z2 in self.elliptic_pairs(rng, self.ELLIPTIC_PAIRS):
            g("elliptic", lambda z1=z1, z2=z2: (
                qsolver.o2_from_k(self.elliptic, z1, z2),
                analytic.o2_elliptic(1.0, 0.5, z1, z2)),
              check_pipeline, kind="o2_from_k.elliptic")
        for kind, kw, rt, fspec in self.biunitary:
            for z1, z2 in self.ring_pairs(rng, fspec, self.BIUNITARY_PAIRS):
                g(kind, lambda rt=rt, kind=kind, kw=kw, z1=z1, z2=z2: (
                    qsolver.o2_from_k(rt, z1, z2),
                    analytic.o2_biunitary_closed_form(kind, z1, z2, **kw)),
                  check_pipeline, kind=f"o2_from_k.{kind}")
        for _ in range(self.QS_POINTS):
            z1, z2 = self.qs_pair(rng)
            g("quantum_scattering", lambda z1=z1, z2=z2: qsolver.o2_from_k(
                self.qs, z1, z2), self.check_qs,
              kind="o2_from_k.quantum_scattering")
        for k in range(self.REAL_POINTS):
            x = references.CROSS_SECTIONS[k % 2]
            y = x
            while abs(y - x) < 0.3:
                y = rng.uniform(0.5, 10.0)
            g("real_spectrum", lambda x=x, y=y: qsolver.o2_real_spectrum(
                self.real, x, y), checks.is_real, kind="o2_real_spectrum")
        for (p, q), expected in self.WHEEL:
            g("wheel", lambda p=p, q=q: qsolver.wheel_word_covariance(
                self.ginibre, p, q),
              lambda v, e=expected: checks.close(v, e, atol=1e-8),
              kind="wheel_word_covariance")
        g("exact", lambda: analytic.o2_exact_ginibre(2, 0.0, 0.0,
                                                     normalized=False),
          lambda v: checks.close(v, -6.0 / math.pi ** 2, atol=1e-10),
          kind="o2_exact_ginibre")
        z1, z2 = 0.25 + 0.15j, -0.3 + 0.35j
        g("exact", lambda: (analytic.o2_exact_ginibre(30, z1, z2),
                            analytic.o2_biunitary_closed_form("ginibre", z1, z2)),
          lambda v: checks.close(v[0], v[1], rtol=0.10),
          kind="o2_exact_ginibre")
        g("exact_sweep", lambda: self.sweep(clock), check_sweep)

    @staticmethod
    def qs_pair(rng):
        """Points below the real axis, outside the quantum-scattering
        spectrum (H + i gamma V V+ has Im(lambda) >= 0), where O2 = 0."""
        while True:
            z1 = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.0, -0.2))
            z2 = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.0, -0.2))
            if abs(z1 - z2) >= 0.3:
                return z1, z2

    def check_qs(self, value):
        """O2 vanishes outside the spectrum.  Some points come out at ~1e-4
        instead of ~1e-11; that defect is counted, not gated."""
        if abs(value) > 1e-6:
            self.pass_counts["qsolver.qs_o2_nonzero"] += 1
        return bool(np.isfinite(value)), f"O2 {value!r}"

    def sweep(self, clock):
        """Near-coincident peaks at the edge and in the bulk (#09)."""
        peaks = {"edge": [], "bulk": []}
        for name, center in (("edge", 1.0), ("bulk", 0.0)):
            for n in self.SWEEP_NS:
                vals = []
                for x in self.SWEEP_XS:
                    d = x / (2.0 * math.sqrt(n))
                    with clock.op("o2_exact_ginibre"):
                        vals.append(abs(analytic.o2_exact_ginibre(
                            n, center + d, center - d)))
                peaks[name].append(max(vals))
        return peaks

    def end_pass(self):
        pass


def check_pipeline(values):
    got, ref = values
    return checks.close(got, ref, rtol=1e-4)


def check_sweep(peaks):
    edge, bulk = checks.edge_bulk_slopes(peaks, AnalyticCrosscheck.SWEEP_NS)
    ok = abs(edge - 1.5) < 0.1 and abs(bulk - 2.0) < 0.1
    return ok, f"edge slope {edge:.3f}, bulk slope {bulk:.3f}"


WORKLOADS = {cls.name: cls for cls in (McLibrary, CliRoundtrip,
                                       AnalyticCrosscheck)}
