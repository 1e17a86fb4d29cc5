"""Span tracer for the traced benchmark run.

Each wrapped public function of ``overlap_lab`` is rebound, in every
module of the package that holds a reference to it, to a wrapper that
appends a span ``[name, start, end, parent, op]`` to an in-memory list.
``op`` is the id of the benchmark op open when the span began (``-1``
outside ops).  Nothing is written while a pass runs; the worker dumps
the spans when the workload ends.  A few wrappers also record counts at
the same boundary (rejections, near-defective draws, CSV bytes, distinct
Green's-function points), so ratios are measured where the work happens.
"""

import importlib
import os
import sys
import time

# Layer (module) -> wrapped public functions.  "Class.method" entries
# are patched on the class.
LAYERS = {
    "ensembles": ["sample"],
    "overlaps": ["eig_biorthogonal", "overlap_matrix", "diagonal_overlaps",
                 "eigen_rows", "pair_rows", "write_eigen_csv",
                 "write_pairs_csv"],
    "estimators": ["estimate_o1", "estimate_o2_windows",
                   "estimate_traced_resolvent_product",
                   "estimate_trace_covariance", "estimate_density_real",
                   "estimate_o2_real_pairs", "sum_rule_residual"],
    "numcore": ["wirtinger_mixed_derivative", "PairHistogram.accumulate"],
    "analytic": ["o1_biunitary", "o2_biunitary_closed_form", "o2_elliptic",
                 "o2_exact_ginibre"],
    "qsolver": ["solve_green", "build_rung", "solve_bethe_salpeter",
                "pt_green_scalar", "qs_green_scalar", "h_holomorphic",
                "o2_from_k", "o2_real_spectrum", "wheel_word_covariance"],
    "cli": ["cmd_sample", "cmd_estimate"],
}

SPAN_NAMES = [f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns]

# (counted function, public caller) pairs whose calls and distinct
# arguments per caller invocation are reported.
PER_CALLER = [("qsolver.solve_green", "qsolver.o2_from_k"),
              ("qsolver.solve_green", "qsolver.wheel_word_covariance"),
              ("qsolver.pt_green_scalar", "qsolver.o2_real_spectrum")]

COUNTS = ["ensembles.rejections", "overlaps.near_defective",
          "overlaps.csv_bytes", "estimators.n_dropped"]


def _package_modules():
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "overlap_lab"
                                  or name.startswith("overlap_lab."))]


class Tracer:
    """Installs span wrappers; ``uninstall`` restores every binding."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []
        self.stack = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.sample_keys = {}     # id(matrix) -> sample key, while alive
        self.eig_per_key = {}     # sample key -> eig_biorthogonal calls
        self.block_of_key = {}    # sample key -> workload block
        self.points = {}          # span index -> distinct-point key
        self._restore = []

    # -- installation -------------------------------------------------
    def install(self):
        layers = {layer: importlib.import_module(f"overlap_lab.{layer}")
                  for layer in LAYERS}
        mods = _package_modules()
        for layer, names in LAYERS.items():
            module = layers[layer]
            for name in names:
                span = f"{layer}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    self._rebind(cls, meth, self._wrap(span, orig))
                    continue
                orig = getattr(module, name)
                wrapper = self._wrap(span, orig)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._rebind(m, attr, wrapper)

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _wrap(self, span_name, fn):
        spans, stack, clock = self.spans, self.stack, self.clock
        hook = getattr(self, "_hook_" + span_name.replace(".", "_"), None)
        clock_now = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([span_name, 0.0, 0.0,
                          stack[-1] if stack else -1, clock.current_op])
            stack.append(idx)
            error = None
            t0 = clock_now()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = clock_now()
                stack.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
                if hook is not None:
                    hook(idx, args, kwargs,
                         None if error is not None else result, error)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span_name)
        return wrapper

    # -- counting hooks (named after the span) ------------------------
    def _hook_ensembles_sample(self, idx, args, kwargs, result, error):
        if result is None:
            return
        spec, stream = args[0], args[1]
        x, info = result
        key = (spec, stream.seed, stream.stream)
        self.sample_keys[id(x)] = key
        self.eig_per_key.setdefault(key, 0)
        self.block_of_key.setdefault(key, self.clock.block)
        self.counts["ensembles.rejections"] += int(info.get("rejections", 0))

    def _hook_overlaps_eig_biorthogonal(self, idx, args, kwargs, result,
                                        error):
        from overlap_lab.overlaps import NearDefectiveError
        if isinstance(error, NearDefectiveError):
            self.counts["overlaps.near_defective"] += 1
        key = self.sample_keys.get(id(args[0]))
        if key is not None:
            self.eig_per_key[key] += 1

    def _csv_bytes(self, args, kwargs, error):
        if error is None:
            path = args[0] if args else kwargs["path"]
            self.counts["overlaps.csv_bytes"] += os.path.getsize(path)

    def _hook_overlaps_write_eigen_csv(self, idx, args, kwargs, result,
                                       error):
        self._csv_bytes(args, kwargs, error)

    def _hook_overlaps_write_pairs_csv(self, idx, args, kwargs, result,
                                       error):
        self._csv_bytes(args, kwargs, error)

    def _estimate_dropped(self, idx, args, kwargs, result, error):
        if result is not None:
            self.counts["estimators.n_dropped"] += int(
                getattr(result, "n_dropped", 0))

    _hook_estimators_estimate_o1 = _estimate_dropped
    _hook_estimators_estimate_o2_windows = _estimate_dropped
    _hook_estimators_estimate_density_real = _estimate_dropped
    _hook_estimators_estimate_o2_real_pairs = _estimate_dropped

    def _hook_qsolver_solve_green(self, idx, args, kwargs, result, error):
        self.points[idx] = complex(args[1])

    def _hook_qsolver_pt_green_scalar(self, idx, args, kwargs, result,
                                      error):
        self.points[idx] = complex(args[0])

    def forget_samples(self):
        """Drop id() -> sample bindings (ids are reused after a pass)."""
        self.sample_keys.clear()

    # -- derived metrics ----------------------------------------------
    def metrics(self, n_passes):
        """Per-pass ``.calls``, ``.busy_s``, ``.self_s`` and counters."""
        spans = self.spans
        calls = dict.fromkeys(SPAN_NAMES, 0)
        busy = dict.fromkeys(SPAN_NAMES, 0.0)
        child = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            calls[name] += 1
            busy[name] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for i, (name, t0, t1, _, _) in enumerate(spans):
            self_s[name] += (t1 - t0) - child[i]

        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name] / n_passes
            out[f"{name}.busy_s"] = busy[name] / n_passes
            out[f"{name}.self_s"] = self_s[name] / n_passes
        for key, value in self.counts.items():
            out[key] = value / n_passes
        out["estimators.dropped_unreported"] = (
            self.counts["overlaps.near_defective"]
            - self.counts["estimators.n_dropped"]) / n_passes
        n_keys = len(self.eig_per_key)
        out["overlaps.eig_per_sample"] = (
            sum(self.eig_per_key.values()) / n_keys if n_keys else 0.0)
        for fn in ("qsolver.solve_green", "qsolver.pt_green_scalar"):
            out[f"{fn}.distinct_ratio"] = self._distinct_ratio(fn)
        for fn, caller in PER_CALLER:
            n_calls, n_distinct = self._per_caller(fn, caller)
            tag = f"{fn}.per_{caller.split('.')[-1]}"
            out[f"{tag}.calls"] = n_calls
            out[f"{tag}.distinct"] = n_distinct
        return out

    def eig_per_sample_by_block(self):
        calls, keys = {}, {}
        for key, n in self.eig_per_key.items():
            block = self.block_of_key[key]
            calls[block] = calls.get(block, 0) + n
            keys[block] = keys.get(block, 0) + 1
        return {b: calls[b] / keys[b] for b in sorted(calls)}

    def _distinct_ratio(self, fn):
        """Distinct points per call, with points counted once per op."""
        seen = set()
        n_calls = 0
        for i, span in enumerate(self.spans):
            if span[0] == fn:
                n_calls += 1
                seen.add((span[4], self.points.get(i)))
        return len(seen) / n_calls if n_calls else 0.0

    def _per_caller(self, fn, caller):
        """Mean calls and distinct points of ``fn`` per ``caller`` span."""
        spans = self.spans
        per = {}
        for i, span in enumerate(spans):
            if span[0] != fn:
                continue
            p = span[3]
            while p >= 0 and spans[p][0] != caller:
                p = spans[p][3]
            if p >= 0:
                per.setdefault(p, []).append(self.points.get(i))
        n_callers = sum(1 for s in spans if s[0] == caller)
        if not n_callers:
            return 0.0, 0.0
        n_calls = sum(len(v) for v in per.values())
        n_distinct = sum(len(set(v)) for v in per.values())
        return n_calls / n_callers, n_distinct / n_callers

    def top_level_busy(self, t_start, t_end):
        """Summed duration of top-level spans inside ``[t_start, t_end]``."""
        return sum(t1 - t0 for _, t0, t1, parent, _ in self.spans
                   if parent < 0 and t0 >= t_start and t1 <= t_end)
