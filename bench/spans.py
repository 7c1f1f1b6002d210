"""In-memory spans around calls into harmdist's layers, installed from outside.

No library file is changed: `instrument` rebinds each public function in
every harmdist module that holds it, wraps the `derivs` of the map
instances the workload builds, and wraps the functional handed to
`sup_weighted`, so that jet and functional points are counted exactly.

A span is [name, start, end, parent, run_id, points]; parent is the index
of the enclosing span (-1 at the top) and points is the number of points
a jet call evaluated.  A span's name is "<layer>.<function>".
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

# Public functions wrapped per layer module; each becomes a "<layer>.<name>" span.
LAYER_FUNCTIONS = {
    "catalog": ("get_map",),
    "descriptors": ("load_descriptor", "parse_descriptor"),
    "operators": ("pre_schwarzian", "schwarzian", "harmonic_pre_schwarzian",
                  "harmonic_schwarzian", "omega_star_at", "distortion_quantities"),
    "norms": ("pre_schwarzian_norm", "schwarzian_norm", "harmonic_schwarzian_norm",
              "omega_inf_norm", "omega_star_norm", "becker_harmonic_norm", "order_of",
              "beta_lambda"),
    "criteria": ("becker_analytic", "becker_harmonic", "nehari_analytic",
                 "nehari_harmonic", "convexity_check", "theorem_d_harmonic"),
    "bounds": ("blatter_lower", "kim_minda_convex_lower", "chuaqui_pommerenke_lower",
               "mmm_upper", "dhk_bounds", "becker_analytic_bounds", "becker_harmonic_bounds",
               "nehari_harmonic_bounds", "convex_h_bounds", "linconn_bounds",
               "corollary_bounds", "mobius_exact"),
    "disk": ("pseudo_hyperbolic", "hyperbolic", "automorphism"),
    "verifier": ("sample_pairs", "verify_bound", "write_pairs_csv", "write_report_json"),
}
MAP_BUILDERS = {("catalog", "get_map"), ("descriptors", "load_descriptor"),
                ("descriptors", "parse_descriptor")}


class Tracer:
    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.func_points = 0
        self.pairs = 0

    def begin(self, name: str, points: int = 0) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id, points])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str, points_arg: int | None = None):
        """fn inside a span; points_arg names the positional argument to count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            points = int(np.size(args[points_arg])) if points_arg is not None else 0
            idx = self.begin(name, points)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return traced


def _rebind(orig, wrapped) -> None:
    """Replace orig by wrapped wherever a harmdist module binds it by name."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not modname.startswith("harmdist"):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapped)


def instrument(tracer: Tracer) -> None:
    """Install spans and counters on every loaded harmdist layer.

    A function a later version no longer has is skipped, not an error.
    """
    from harmdist import norms, verifier

    for layer, names in LAYER_FUNCTIONS.items():
        mod = sys.modules.get(f"harmdist.{layer}")
        for name in names:
            orig = getattr(mod, name, None)
            if orig is None:
                continue
            wrapped = tracer.wrap(orig, f"{layer}.{name}")
            if (layer, name) in MAP_BUILDERS:
                wrapped = _instrumenting_builder(tracer, wrapped)
            _rebind(orig, wrapped)

    for spec in getattr(verifier, "BOUND_REGISTRY", {}).values():
        if isinstance(spec, dict) and "prepare" in spec:
            spec["prepare"] = tracer.wrap(spec["prepare"], "norms.prepare")

    orig_sup = norms.sup_weighted
    signature = inspect.signature(orig_sup)

    @functools.wraps(orig_sup)
    def sup_weighted(func, *args, **kwargs):
        """Count functional points; span the refinement that refine=True adds.

        The grid scan evaluates the functional on nr * ntheta + 1 points;
        the first call after those starts the pattern search, which runs
        inside a "norms.refine" span until sup_weighted returns.
        """
        bound = signature.bind(func, *args, **kwargs)
        bound.apply_defaults()
        nr, ntheta = bound.arguments["grid"]
        scan_points = nr * ntheta + 1
        seen, refine = 0, None

        def counted(z):
            nonlocal seen, refine
            if seen >= scan_points and refine is None:
                refine = tracer.begin("norms.refine")
            seen += int(np.size(z))
            tracer.func_points += int(np.size(z))
            return func(z)

        idx = tracer.begin("norms.sup_weighted")
        try:
            return orig_sup(counted, *args, **kwargs)
        finally:
            if refine is not None:
                tracer.end(refine)
            tracer.end(idx)

    _rebind(orig_sup, sup_weighted)

    orig_verify = verifier.verify_bound  # already wrapped in a span above

    @functools.wraps(orig_verify)
    def verify_bound(*args, **kwargs):
        report = orig_verify(*args, **kwargs)
        tracer.pairs += report.pairs
        return report

    _rebind(orig_verify, verify_bound)


def _instrumenting_builder(tracer: Tracer, build):
    @functools.wraps(build)
    def built(*args, **kwargs):
        return instrument_map(tracer, build(*args, **kwargs))

    return built


def instrument_map(tracer: Tracer, f):
    """Count the points passed to f.h.derivs / f.g.derivs; span f(z) as the truth."""
    if getattr(f, "_bench_traced", False):
        return f
    for part, name in ((f.h, "harmonic.h_derivs"), (f.g, "harmonic.g_derivs")):
        object.__setattr__(part, "derivs", tracer.wrap(part.derivs, name, points_arg=0))
    f.omega_derivs = tracer.wrap(f.omega_derivs, "harmonic.omega_derivs")
    cls = type(f)
    call = tracer.wrap(cls.__call__, "verifier.truth")
    f.__class__ = type(f"Traced{cls.__name__}", (cls,), {"__call__": call})
    f._bench_traced = True
    return f

