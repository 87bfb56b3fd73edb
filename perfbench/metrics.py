"""Metric definitions, the traced functions, and the per-layer numbers.

Layers are mgsim's modules ``symbol``, ``eigen``, ``fields``, ``solver`` and
``experiments``; ``cli``, ``config`` and ``errors`` are on no hot path and
are not traced.  Each span is named ``<module>.<function>``.
"""

import math
import statistics
import sys
import time
from collections import Counter

from mgsim import eigen, experiments, fields, solver, symbol

from spans import Tracer

# (name, unit, better, bound, meaning).  Every time, and every rate, is
# scaled to the calibration kernel's reference speed (calibration.py).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "import (median of 3 fresh interpreters) plus the median of 5 input "
     "constructions with cold lru caches and a first transform pair, at the "
     "reference speed"),
    ("wall_s", "s", "lower", 0.25,
     "median wall time of one gated operation, at the reference speed"),
    ("throughput", "1/s", "higher", 0.25,
     "solver workloads: median over run calls of IF-RK4 steps per second "
     "inside solver.run; eigen_box: median of correctly resolved modes per "
     "second of optimize_growth"),
    ("solved_ratio", "ratio", "higher", 0.05,
     "operations that passed their gate over operations attempted "
     "(1 - failed_ratio); an operation is a run call or a box mode"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "peak resident memory of the workload's process"),
]

# (name, unit, better, meaning); all are per traced repetition
PER_LAYER = [
    ("fields.forward.calls", "count", "lower", "forward transforms"),
    ("fields.forward.self_s", "s", "lower", "self time in forward"),
    ("fields.inverse.calls", "count", "lower", "inverse transforms"),
    ("fields.inverse.self_s", "s", "lower", "self time in inverse"),
    ("fields.transform_bytes", "bytes_computed", "lower",
     "computed from array sizes: input plus output bytes of each transform"),
    ("solver.transforms_per_step", "1/step", "lower",
     "transforms inside solver.run per IF-RK4 step"),
    ("solver.advection_coefficients.calls", "count", "lower",
     "nonlinear RHS evaluations, including one per energy-flux record"),
    ("solver.advection_coefficients.self_s", "s", "lower",
     "self time in advection_coefficients (products, masks)"),
    ("solver.run.self_s", "s", "lower",
     "self time in run: RK4 combinations, masks, record bookkeeping"),
    ("solver.record.s", "s", "lower",
     "time in the calls run makes to record a row (norms, energy flux, "
     "velocity max)"),
    ("solver.velocity_max.s", "s", "lower", "time in velocity_max"),
    ("fields.norms.self_s", "s", "lower",
     "self time in l2/linf/hs/off-plane norms"),
    ("eigen.solve_sigma_star.calls", "count", "lower", "root solves"),
    ("eigen.solve_sigma_star.s", "s", "lower", "time in solve_sigma_star"),
    ("eigen.solved_ratio", "ratio", "higher",
     "solve_sigma_star calls that returned a root over calls"),
    ("eigen.cf_residual.calls", "count", "lower",
     "scalar continued-fraction evaluations (bisection)"),
    ("eigen.depth_mean", "depth", "lower",
     "mean EigenSolution.depth of returned roots"),
    ("eigen.backward_coefficients.s", "s", "lower",
     "time in backward_coefficients"),
    ("eigen.closed_form_bounds.calls", "count", "lower",
     "closed-form bound evaluations"),
    ("eigen.optimize_growth.s", "s", "lower", "time in optimize_growth"),
    ("symbol.symbol_components.calls", "count", "lower",
     "vectorized multiplier evaluations"),
    ("symbol.symbol_components.s", "s", "lower", "time in symbol_components"),
    ("fields.multiplier_arrays.hit_ratio", "ratio", "higher",
     "lru cache hits over lookups of multiplier_arrays, from cache_info()"),
    ("symbol.plane_bound_scan.s", "s", "lower", "time in plane_bound_scan"),
    ("experiments.self_s", "s", "lower",
     "self time of instability/plane_demo: glue no child span covers"),
    ("tracing.overhead_s", "s", "lower",
     "median traced wall minus median untraced wall of one operation"),
]

SPANS = [
    (fields, "forward"), (fields, "inverse"),
    (fields, "l2_norm"), (fields, "linf_norm"), (fields, "hs_norm"),
    (fields, "off_plane_norm"), (fields, "multiplier_arrays"),
    (solver, "run"), (solver, "advection_coefficients"),
    (solver, "energy_flux_residual"), (solver, "velocity_max"),
    (eigen, "optimize_growth"), (eigen, "solve_sigma_star"),
    (eigen, "cf_residual"), (eigen, "backward_coefficients"),
    (eigen, "closed_form_bounds"),
    (symbol, "symbol_components"), (symbol, "plane_bound_scan"),
    (experiments, "instability"), (experiments, "plane_demo"),
]
NORMS = ("fields.l2_norm", "fields.linf_norm", "fields.hs_norm",
         "fields.off_plane_norm")
RECORD_CALLEES = NORMS + ("solver.energy_flux_residual",
                          "solver.velocity_max")
MULTIPLIER_CACHE = fields.multiplier_arrays  # the lru_cache object itself
TRANSFORM_CODES = {fields.forward.__code__: "forward",
                   fields.inverse.__code__: "inverse"}


def transform_cost(shape):
    """Computed (not measured) cost of one real 3-D transform on a grid.

    flops follow the 2.5 N log2 N convention for a real-input FFT; bytes
    are the input plus output array sizes (N float64 samples and
    n1 n2 (n3/2 + 1) complex128 coefficients).
    """
    n1, n2, n3 = shape
    n = n1 * n2 * n3
    m = n1 * n2 * (n3 // 2 + 1)
    return {"flops": 2.5 * n * math.log2(n), "bytes": 8 * n + 16 * m}


class RunLog:
    """Wrapper for ``solver.run`` that records steps, records and wall time.

    With a tracer it also records, per run, the transforms the tracer's
    wrappers saw and, independently, the calls made to the code objects of
    ``fields.forward`` and ``fields.inverse`` (through ``sys.setprofile``,
    which sees a call however the function was looked up).
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.entries = []

    def _wrapped_counts(self):
        tr = self.tracer
        return tr.calls("fields.inverse"), tr.calls("fields.forward")

    def make(self, run):
        def logged(*args, **kwargs):
            config = args[2] if len(args) > 2 else kwargs["config"]
            seen = Counter()
            if self.tracer is not None:
                before = self._wrapped_counts()

                def profile(frame, event, arg):
                    if event == "call" and frame.f_code in TRANSFORM_CODES:
                        seen[TRANSFORM_CODES[frame.f_code]] += 1
                sys.setprofile(profile)
            t0 = time.perf_counter()
            try:
                out = run(*args, **kwargs)
            finally:
                wall = time.perf_counter() - t0
                sys.setprofile(None)
            diag = out[1]
            entry = {"steps": round(diag.times[-1] / config.dt),
                     "records": len(diag.times),
                     "linearized": config.linearized, "wall": wall}
            if self.tracer is not None:
                inv, fwd = self._wrapped_counts()
                entry.update(inverse=inv - before[0], forward=fwd - before[1],
                             code_inverse=seen["inverse"],
                             code_forward=seen["forward"])
            self.entries.append(entry)
            return out
        return logged


class LayerProbe:
    """Everything one traced repetition collects besides the tracer."""

    def __init__(self):
        self.tracer = Tracer()
        self.grids = Counter()  # transform calls per grid shape
        self.depths = []  # EigenSolution.depth of every returned root

    def install(self, patches):
        hooks = {
            "fields.forward": {"on_call": self._count_grid},
            "fields.inverse": {"on_call": self._count_grid},
            "eigen.solve_sigma_star": {"on_result": self._record_depth},
        }
        for module, attr in SPANS:
            name = f"{module.__name__.split('.')[-1]}.{attr}"
            patches.wrap(module, attr, lambda fn, name=name: self.tracer.span(
                name, fn, **hooks.get(name, {})))

    def _count_grid(self, args, kwargs):
        grid = args[0] if args else kwargs["grid"]
        self.grids[grid.shape] += 1

    def _record_depth(self, args, kwargs, sol):
        self.depths.append(sol.depth)

    def values(self, runs, hit_ratio):
        tr = self.tracer
        steps = sum(e["steps"] for e in runs)
        transforms = sum(e["inverse"] + e["forward"] for e in runs)
        solves = tr.calls("eigen.solve_sigma_star")
        return {
            "fields.forward.calls": tr.calls("fields.forward"),
            "fields.forward.self_s": tr.self_time("fields.forward"),
            "fields.inverse.calls": tr.calls("fields.inverse"),
            "fields.inverse.self_s": tr.self_time("fields.inverse"),
            "fields.transform_bytes": sum(
                n * transform_cost(shape)["bytes"]
                for shape, n in self.grids.items()),
            "solver.transforms_per_step": transforms / steps if steps else 0.0,
            "solver.advection_coefficients.calls":
                tr.calls("solver.advection_coefficients"),
            "solver.advection_coefficients.self_s":
                tr.self_time("solver.advection_coefficients"),
            "solver.run.self_s": tr.self_time("solver.run"),
            "solver.record.s": sum(tr.edge_total("solver.run", callee)
                                   for callee in RECORD_CALLEES),
            "solver.velocity_max.s": tr.total("solver.velocity_max"),
            "fields.norms.self_s": sum(tr.self_time(n) for n in NORMS),
            "eigen.solve_sigma_star.calls": solves,
            "eigen.solve_sigma_star.s": tr.total("eigen.solve_sigma_star"),
            "eigen.solved_ratio": len(self.depths) / solves if solves else 0.0,
            "eigen.cf_residual.calls": tr.calls("eigen.cf_residual"),
            "eigen.depth_mean": (statistics.fmean(self.depths)
                                 if self.depths else 0.0),
            "eigen.backward_coefficients.s":
                tr.total("eigen.backward_coefficients"),
            "eigen.closed_form_bounds.calls":
                tr.calls("eigen.closed_form_bounds"),
            "eigen.optimize_growth.s": tr.total("eigen.optimize_growth"),
            "symbol.symbol_components.calls":
                tr.calls("symbol.symbol_components"),
            "symbol.symbol_components.s": tr.total("symbol.symbol_components"),
            "fields.multiplier_arrays.hit_ratio": hit_ratio,
            "symbol.plane_bound_scan.s": tr.total("symbol.plane_bound_scan"),
            "experiments.self_s": (tr.self_time("experiments.instability")
                                   + tr.self_time("experiments.plane_demo")),
        }


def transform_count_checks(runs):
    """Check each traced run's transform counts; returns (missed, formula).

    ``missed`` lists runs where the wrappers saw fewer or more transforms
    than the code objects were called: a wrapper missed a lookup site, so
    the traced counts cannot be trusted.  ``formula`` lists runs whose
    counts differ from the ones read off the code at the commit that
    defined this benchmark: with S IF-RK4 steps and R records, a nonlinear
    run makes 24S + 10R inverse and 4S + R forward transforms, a
    linearized run 4S + R inverse and 4S forward.  A change that cuts
    transforms is expected to break the formula, not the wrappers.
    """
    missed, formula = [], []
    for e in runs:
        s, r = e["steps"], e["records"]
        got = (e["inverse"], e["forward"])
        if got != (e["code_inverse"], e["code_forward"]):
            missed.append(f"wrappers saw {got[0]} inverse / {got[1]} forward "
                          f"transforms, the code ran {e['code_inverse']} / "
                          f"{e['code_forward']}")
        if e["linearized"]:
            expected = (4 * s + r, 4 * s)
        else:
            expected = (24 * s + 10 * r, 4 * s + r)
        if got != expected:
            formula.append(f"run with S={s}, R={r} made {got[0]} inverse / "
                           f"{got[1]} forward transforms, formula gives "
                           f"{expected[0]} / {expected[1]}")
    return missed, formula
