"""Command-line front end: catalog, analyze, verify, plot.

Each subcommand takes only the options it reads; see `harmdist <command> -h`.
`verify` and `plot` import the verifier and the plot writers when they run,
so `catalog` and `analyze` never load them.

A run's CPUs go to the block workers of `series.for_each_block` and to
`verify`'s CSV helper processes; numpy's BLAS runs on one thread unless
OPENBLAS_NUM_THREADS is set, a setting this module makes and no library
module does.

Exit codes: 0 = all checks passed; 2 = violations found; 3 = hypothesis
not met (without --allow-unmet); 4 = configuration error (a bad option or
one the subcommand does not take, such as an --r-max outside (0, 1), a
negative --seed, or an --epsilon, --t, --c, --p, --alpha or --beta outside
its interval, NaN included, which is checked before any supremum is read or
file written, also where the gate or the map would fail; an --out that
cannot be made a directory, checked before any work; a --map file that
cannot be read; a descriptor entry that cannot be built, such as a Mobius
map with its pole in the closed disc; or a bad map or descriptor);
5 = numerical error (at a sampled point the map is singular, not
sense-preserving, or not evaluable: outside the disc or beyond its
reliable radius; or a supremum's functional is not finite).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# At `import numpy`, numpy's bundled OpenBLAS (pthreads) starts one pool
# thread per further CPU, and that thread spins for about 0.1 s, taking a
# CPU from analyze's grid workers, though the only BLAS call here is
# series.reciprocal's dot of at most 121 entries.  One thread is set before
# numpy loads; a value the caller set wins.  On 2 vCPUs, `import
# harmdist.cli` then takes 0.062 s of CPU (0.117 s with the pool) and
# `analyze` on 256x1024 0.095 s of wall time (0.122 s), medians of 8 runs.
# The library modules leave the setting to their caller.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from . import criteria as C
from .bounds import BOUND_REGISTRY, PARAMETERS, check_parameters
from .catalog import CATALOG, get_map, listing
from .criteria import _jsonable
from .descriptors import load_descriptor
from .errors import ConfigError, HarmdistError, ParameterError
from .harmonic import HarmonicMap
from .norms import (
    DEFAULT_GRID,
    DEFAULT_R_MAX,
    HARMONIC_SCHWARZIAN,
    OMEGA_ABS,
    OMEGA_STAR,
    ORDER,
    PRE_SCHWARZIAN,
    PRE_SCHWARZIAN_Z,
    GridSuprema,
)
from .operators import Jet, harmonic_pre_schwarzian_of, harmonic_schwarzian_of

EXIT_OK = 0
EXIT_VIOLATIONS = 2
EXIT_HYPOTHESIS = 3
EXIT_CONFIG = 4
EXIT_NUMERICAL = 5

# The norms `analyze` reports, by report key.
ANALYZE_NORMS = {
    "pre_schwarzian_paper": PRE_SCHWARZIAN,
    "pre_schwarzian_classical": PRE_SCHWARZIAN_Z,
    "schwarzian_harmonic": HARMONIC_SCHWARZIAN,
    "omega_inf": OMEGA_ABS,
    "omega_star": OMEGA_STAR,
}
# The nine distinct suprema `analyze` reports or judges, on one jet per grid block.
ANALYZE_FUNCTIONALS = tuple(dict.fromkeys([
    *ANALYZE_NORMS.values(), ORDER,
    *(row.functional for row in C.CRITERIA.values() if row.functional is not None),
]))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); config errors are exit 4
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="harmdist", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("catalog", help="list built-in maps and their known properties"
                   ).set_defaults(run=lambda ns: cmd_catalog())
    analyze = sub.add_parser("analyze", help="norms, order and criterion verdicts")
    analyze.add_argument("--grid", type=_parse_grid, default=DEFAULT_GRID,
                         help="radial,angular grid counts, e.g. 64,256")
    verify = sub.add_parser("verify", help="verify a two-point distortion bound")
    verify.add_argument("--bound", required=True, choices=sorted(BOUND_REGISTRY))
    verify.add_argument("--allow-unmet", action="store_true")
    plot = sub.add_parser("plot", help="emit SVG/CSV image data")
    plot.add_argument("--bound", default=None, choices=sorted(BOUND_REGISTRY))
    for sp, run in ((analyze, cmd_analyze), (verify, cmd_verify), (plot, cmd_plot)):
        sp.set_defaults(run=run)
        sp.add_argument("--map", required=True,
                        help="catalog name or path to a JSON mapping descriptor")
        sp.add_argument("--r-max", type=_parse_r_max, default=DEFAULT_R_MAX)
        sp.add_argument("--out", type=Path, default=None)
        for name in ("epsilon", "t", "c"):  # the criterion parameters
            sp.add_argument(f"--{name}", type=float, default=PARAMETERS[name].default)
    for sp in (verify, plot):  # the bound parameters and the pair sample
        for name in ("p", "alpha", "beta"):
            sp.add_argument(f"--{name}", type=float, default=PARAMETERS[name].default)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--pairs", type=int, default=10_000)
    return parser


# argparse passes on an option type's ConfigError, which is no ValueError.
def _parse_r_max(text: str) -> float:
    r_max = float(text)
    if not 0.0 < r_max < 1.0:  # also false for NaN
        raise ConfigError(f"--r-max must lie in the open interval (0, 1), got {r_max}")
    return r_max


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        nr, nt = (int(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"invalid --grid {text!r}; expected 'nr,ntheta'") from exc
    if nr < 1 or nt < 1:
        raise ConfigError("--grid counts must be positive")
    return nr, nt


def _resolve_map(spec: str) -> HarmonicMap:
    if spec in CATALOG:
        return get_map(spec)
    path = Path(spec)
    if path.exists():
        return load_descriptor(path)
    raise ConfigError(f"--map {spec!r} is neither a catalog name nor an existing file")


def _outdir(ns: argparse.Namespace) -> Path:
    """The output directory, made if missing, before any work: else a ConfigError."""
    out = ns.out or Path.cwd()
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # a file in its place or on its path, or no permission
        raise ConfigError(f"--out {str(out)!r} is not a usable directory: {exc}") from exc
    return out


def _params(ns: argparse.Namespace) -> dict:
    """The criterion and bound parameters the subcommand takes."""
    return {k: v for k, v in vars(ns).items() if k in PARAMETERS}


def cmd_catalog() -> int:
    print(json.dumps(listing(), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_analyze(ns: argparse.Namespace) -> int:
    f = _resolve_map(ns.map)
    params = _params(ns)
    check_parameters(params)  # before any point is evaluated or file written
    out = _outdir(ns) if ns.out else None
    r_max = min(ns.r_max, f.reliable_radius)
    report: dict = {"map": f.name, "r_max": r_max, "grid": list(ns.grid)}

    # pointwise operator values on a coarse grid, from one order-3 jet per point
    radii = np.array([0.0, 0.25, 0.5, 0.7]) * min(r_max, 1.0)
    angles = np.exp(1j * np.linspace(0.0, 2 * np.pi, 8, endpoint=False))
    zs = np.array([r * w for r in radii for w in angles][:: 4])
    report["pointwise"] = []
    for z in zs:
        jet = Jet(f, z, 3)
        report["pointwise"].append(dict(z=_c(z), P_f=_c(harmonic_pre_schwarzian_of(jet)),
                                        S_f=_c(harmonic_schwarzian_of(jet))))

    sups = GridSuprema(f, ANALYZE_FUNCTIONALS, r_max, ns.grid)
    report["norms"] = {}
    for key, fn in ANALYZE_NORMS.items():
        v = sups.estimate(fn)
        report["norms"][key] = dict(value=v.value, r_max=v.r_max, refined=v.refined,
                                    argmax=[v.argmax_point.real, v.argmax_point.imag])
    oe = sups.order()
    report["order"] = dict(alpha=oe.alpha, normalized=oe.normalized,
                           argmax=[oe.argmax_point.real, oe.argmax_point.imag])

    # Each distinct supremum is estimated once; the criteria read the map's estimates.
    report["criteria"] = [
        _jsonable(C.verdict(name, sups, params))
        for name, row in C.CRITERIA.items() if row.functional is not None
    ]

    text = json.dumps(_jsonable(report), indent=2, sort_keys=True)
    if out:
        path = out / "analyze.json"
        path.write_text(text + "\n")
        print(f"wrote {path}")
    else:
        print(text)
    return EXIT_OK


def _c(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def cmd_verify(ns: argparse.Namespace) -> int:
    from .verifier import sample_pairs, verify_bound, write_pairs_csv, write_report_json

    f = _resolve_map(ns.map)
    out = _outdir(ns)
    params = _params(ns)
    r_max = min(ns.r_max, f.reliable_radius)
    suites = [
        ("uniform-in-disc", ns.pairs),
        ("boundary-biased", max(1, ns.pairs // 10)),
        ("near-diagonal", max(1, ns.pairs // 10)),
    ]
    total_violations = 0
    unmet = False
    summaries = []
    for strategy, count in suites:
        samples = sample_pairs(strategy, count, ns.seed, r_max)
        report = verify_bound(f, ns.bound, params, samples)
        stem = f"{ns.bound}-{strategy}"
        write_report_json(report, out / f"{stem}.json")
        write_pairs_csv(report, out / f"{stem}.csv")
        total_violations += report.violations
        unmet |= not report.hypothesis_met
        summaries.append(
            f"{stem}: pairs={report.pairs} violations={report.violations} "
            f"hypothesis_met={report.hypothesis_met}"
        )
    for line in summaries:
        print(line)
    if unmet and not ns.allow_unmet:
        return EXIT_HYPOTHESIS
    if total_violations:
        return EXIT_VIOLATIONS
    return EXIT_OK


def cmd_plot(ns: argparse.Namespace) -> int:
    from .plotting import (image_polylines, write_margin_scatter_csv, write_polylines_csv,
                           write_polylines_svg)
    from .verifier import sample_pairs, verify_bound

    f = _resolve_map(ns.map)
    params = _params(ns)
    check_parameters(params)  # before any file is written, also without --bound
    out = _outdir(ns)
    if ns.bound:  # a bad seed or pair count is rejected before any file is written
        samples = sample_pairs(
            "uniform-in-disc", ns.pairs, ns.seed, min(ns.r_max, f.reliable_radius),
        )
    polylines = image_polylines(f)
    write_polylines_svg(polylines, out / "image.svg")
    write_polylines_csv(polylines, out / "image.csv")
    wrote = ["image.svg", "image.csv"]
    if ns.bound:
        report = verify_bound(f, ns.bound, params, samples)
        write_margin_scatter_csv(report, out / f"{ns.bound}-margins.csv")
        wrote.append(f"{ns.bound}-margins.csv")
    print("wrote " + ", ".join(str(out / w) for w in wrote))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        return ns.run(ns)
    except (ConfigError, ParameterError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HarmdistError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
