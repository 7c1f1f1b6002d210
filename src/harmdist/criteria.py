"""Executable univalence-criterion predicates.

Each criterion reduces to a disc supremum (or infimum) computed by the
norms engine and is reported as a verdict with a signed margin: positive
margin means the criterion holds with that much slack.

Every criterion is one row of ``CRITERIA``, and ``verdict`` applies a row,
as ``verdict(name, GridSuprema(f, (), r_max, grid), params)`` for any map
f: it reads the criterion's parameter, checked against its row of
``bounds.PARAMETERS``, then reads the supremum of the row's functional
through a ``norms.GridSuprema``, which on a harmonic map is the estimate
the map already holds if any caller made it.  A bad parameter is therefore
reported before any supremum is computed; a caller that evaluates the map
before its verdicts calls ``bounds.check_parameters`` first.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .bounds import parameter
from .errors import ParameterError
from .norms import (
    BECKER_HARMONIC,
    CONVEXITY,
    HARMONIC_SCHWARZIAN,
    OMEGA_ABS,
    PRE_SCHWARZIAN,
    PRE_SCHWARZIAN_Z,
    SCHWARZIAN,
    Functional,
    GridSuprema,
)

# Boundary cases sit exactly on their thresholds; sup estimates carry a few
# ulps of float noise, which must not flip a verdict.
MARGIN_TOL = 1e-12


@dataclass(frozen=True)
class CriterionVerdict:
    criterion: str
    holds: bool
    margin: float
    witness: complex
    parameters: dict = field(default_factory=dict)


def _jsonable(x):
    """x as JSON values: dicts and verdicts sorted by key, a complex as [re, im]."""
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in sorted(x.items())}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, (np.floating, np.integer, np.bool_)):
        return x.item()
    if isinstance(x, np.ndarray):
        return _jsonable(list(x))
    if isinstance(x, CriterionVerdict):
        return _jsonable(asdict(x))
    return x


@dataclass(frozen=True)
class Criterion:
    """Holds when the supremum of ``functional`` is at most ``threshold``.

    The margin is threshold - supremum.  ``param`` names the criterion's
    parameter, if it has one: ``threshold`` is then a function of it, and
    its default and range are its row of ``bounds.PARAMETERS``.  ``fixed``
    parameters are only recorded, and ``reports`` names the recorded
    supremum (convexity records the infimum, minus the supremum).  A row
    without a functional is judged on the map alone: ``threshold(f)`` is
    its margin.
    """

    functional: Functional | None
    threshold: float | Callable
    param: str | None = None
    fixed: dict = field(default_factory=dict)
    reports: Callable[[float], dict] = lambda s: {"supremum": s}


# `harmdist analyze` reports the rows with a functional, in this order.
CRITERIA: dict[str, Criterion] = {
    # sup (1-|z|^2)|P phi| <= 1, and with a |z| factor
    "becker_analytic[paper]": Criterion(PRE_SCHWARZIAN, 1.0, fixed={"variant": "paper"}),
    "becker_analytic[classical]": Criterion(
        PRE_SCHWARZIAN_Z, 1.0, fixed={"variant": "classical"}),
    # the harmonic Becker functional stays <= 1
    "becker_harmonic": Criterion(BECKER_HARMONIC, 1.0),
    # ||S phi|| <= 2t for t in [0, 1]
    "nehari_analytic": Criterion(SCHWARZIAN, lambda t: 2.0 * t, "t"),
    # ||S_f|| <= epsilon; epsilon is caller-supplied (it is non-constructive)
    "nehari_harmonic": Criterion(HARMONIC_SCHWARZIAN, lambda epsilon: epsilon, "epsilon"),
    # inf Re(1 + z h''/h') >= 0, the classical convexity characterization
    "convexity": Criterion(CONVEXITY, 0.0, reports=lambda s: {"infimum": -s}),
    # ||omega||_inf < 1/c for h(D) a c-linearly connected domain, read at the
    # grid's r_max, which the caller caps at the map's reliable radius
    "theorem_d": Criterion(OMEGA_ABS, lambda c: 1.0 / c, "c",
                           reports=lambda s: {"omega_inf": s}),
    # gates of bounds that need no supremum
    "normalized": Criterion(None, lambda f: 0.0 if f.normalized else -1.0),
    "assumed": Criterion(None, lambda f: 0.0),
}


def verdict(name: str, sups: GridSuprema, params: dict | None = None) -> CriterionVerdict:
    """The row ``name`` of CRITERIA applied to the map of ``sups``, over its grid.

    The row's parameter is read from ``params``, or is its default, and is
    checked by ``bounds.parameter`` before any supremum is read.  ``params``
    may hold any other entries, which are ignored.  A name that is no row
    raises ParameterError.
    """
    if name not in CRITERIA:
        raise ParameterError(f"unknown criterion {name!r}")
    row = CRITERIA[name]
    witness, recorded = 0j, dict(row.fixed)
    if row.functional is None:
        margin = row.threshold(sups.f)
    else:
        threshold = row.threshold
        if row.param is not None:
            value = parameter(row.param, (params or {}).get(row.param))
            threshold, recorded[row.param] = threshold(value), value
        est = sups.estimate(row.functional)
        margin, witness = threshold - est.value, est.argmax_point
        recorded.update(row.reports(est.value), r_max=est.r_max)
    return CriterionVerdict(name, margin >= -MARGIN_TOL, float(margin), witness, recorded)
