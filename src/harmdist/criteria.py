"""Executable univalence-criterion predicates.

Each criterion reduces to a disc supremum (or infimum) computed by the
norms engine and is reported as a verdict with a signed margin: positive
margin means the criterion holds with that much slack.

Each criterion's parameter check, threshold and margin rule is written
once, in a ``*_verdict`` function that takes a thunk for its estimate.  The
public criterion passes the norm it computes itself; a caller that already
holds the estimate, such as ``harmdist analyze``, passes that.  The thunk is
called after the parameters are checked, so a bad parameter is reported
before any supremum is computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from .analytic import AnalyticMap
from .errors import ParameterError
from .harmonic import as_harmonic
from .norms import (
    CONVEXITY,
    DEFAULT_GRID,
    DEFAULT_R_MAX,
    NormEstimate,
    becker_harmonic_norm,
    harmonic_schwarzian_norm,
    omega_inf_norm,
    pre_schwarzian_norm,
    schwarzian_norm,
    sup_weighted,
)

# Conservative default for the (non-constructive) harmonic Nehari threshold.
DEFAULT_NEHARI_EPSILON = 0.1

# Boundary cases sit exactly on their thresholds; sup estimates carry a few
# ulps of float noise, which must not flip a verdict.
MARGIN_TOL = 1e-12

Estimate = Callable[[], NormEstimate]


@dataclass(frozen=True)
class CriterionVerdict:
    criterion: str
    holds: bool
    margin: float
    witness: complex
    parameters: dict = field(default_factory=dict)


def _verdict(name, margin, witness, **params) -> CriterionVerdict:
    return CriterionVerdict(
        name, margin >= -MARGIN_TOL, float(margin), witness, dict(params)
    )


def becker_analytic_verdict(variant: str, r_max: float, estimate: Estimate):
    """sup (1-|z|^2)|P phi| <= 1; ``estimate`` gives the sup of ``variant``."""
    if variant not in ("paper", "classical"):
        raise ParameterError(f"unknown becker variant {variant!r}")
    est = estimate()
    return _verdict(
        f"becker_analytic[{variant}]", 1.0 - est.value, est.argmax_point,
        variant=variant, supremum=est.value, r_max=r_max,
    )


def becker_analytic(
    phi: AnalyticMap,
    variant: str = "paper",
    r_max: float = DEFAULT_R_MAX,
    grid=DEFAULT_GRID,
) -> CriterionVerdict:
    """sup (1-|z|^2)|P phi| <= 1 ("paper") or with a |z| factor ("classical")."""
    return becker_analytic_verdict(variant, r_max, lambda: pre_schwarzian_norm(
        phi, with_z=(variant == "classical"), r_max=r_max, grid=grid))


def becker_harmonic_verdict(r_max: float, estimate: Estimate):
    """The harmonic Becker functional stays <= 1."""
    est = estimate()
    return _verdict(
        "becker_harmonic", 1.0 - est.value, est.argmax_point,
        supremum=est.value, r_max=r_max,
    )


def becker_harmonic(
    f, r_max: float = DEFAULT_R_MAX, grid=DEFAULT_GRID
) -> CriterionVerdict:
    """Harmonic Becker criterion: the combined functional stays <= 1."""
    f = as_harmonic(f)
    return becker_harmonic_verdict(
        r_max, lambda: becker_harmonic_norm(f, r_max=r_max, grid=grid))


def nehari_analytic_verdict(t: float, r_max: float, estimate: Estimate):
    """||S phi|| <= 2t for t in [0, 1]."""
    if not 0.0 <= t <= 1.0:
        raise ParameterError("t must lie in [0, 1]")
    est = estimate()
    return _verdict(
        "nehari_analytic", 2.0 * t - est.value, est.argmax_point,
        t=t, supremum=est.value, r_max=r_max,
    )


def nehari_analytic(
    phi: AnalyticMap, t: float = 1.0, r_max: float = DEFAULT_R_MAX, grid=DEFAULT_GRID
) -> CriterionVerdict:
    """||S phi|| <= 2t for t in [0, 1]."""
    return nehari_analytic_verdict(
        t, r_max, lambda: schwarzian_norm(phi, r_max=r_max, grid=grid))


def nehari_harmonic_verdict(epsilon: float, r_max: float, estimate: Estimate):
    """||S_f|| <= epsilon."""
    if not 0.0 < epsilon < math.inf:  # also false for NaN
        raise ParameterError(f"epsilon must be positive and finite, got {epsilon}")
    est = estimate()
    return _verdict(
        "nehari_harmonic", epsilon - est.value, est.argmax_point,
        epsilon=epsilon, supremum=est.value, r_max=r_max,
    )


def nehari_harmonic(
    f,
    epsilon: float = DEFAULT_NEHARI_EPSILON,
    r_max: float = DEFAULT_R_MAX,
    grid=DEFAULT_GRID,
) -> CriterionVerdict:
    """||S_f|| <= epsilon; epsilon is caller-supplied (it is non-constructive)."""
    return nehari_harmonic_verdict(epsilon, r_max, lambda: harmonic_schwarzian_norm(
        as_harmonic(f), r_max=r_max, grid=grid))


def convexity_verdict(r_max: float, estimate: Estimate):
    """inf Re(1 + z h''/h') >= 0; ``estimate`` gives the sup of its negative."""
    est = estimate()
    infimum = -est.value
    return _verdict(
        "convexity", infimum, est.argmax_point, infimum=infimum, r_max=r_max
    )


def convexity_check(
    h: AnalyticMap, r_max: float = DEFAULT_R_MAX, grid=DEFAULT_GRID
) -> CriterionVerdict:
    """inf Re(1 + z h''/h') >= 0, the classical convexity characterization."""
    return convexity_verdict(
        r_max, lambda: sup_weighted(CONVEXITY.at(h), CONVEXITY.kind, r_max, grid))


def theorem_d_verdict(c: float, estimate: Estimate):
    """||omega||_inf < 1/c; ``estimate`` gives sup |omega|."""
    if not 1.0 <= c < math.inf:  # also false for NaN
        raise ParameterError(
            f"linear-connectivity constant c must be finite and >= 1, got {c}")
    est = estimate()
    return _verdict(
        "theorem_d", 1.0 / c - est.value, est.argmax_point,
        c=c, omega_inf=est.value, r_max=est.r_max,
    )


def theorem_d_harmonic(
    f, c: float = 1.0, r_max: float = DEFAULT_R_MAX, grid=DEFAULT_GRID
) -> CriterionVerdict:
    """||omega||_inf < 1/c for h(D) a c-linearly connected domain."""
    return theorem_d_verdict(
        c, lambda: omega_inf_norm(as_harmonic(f), r_max=r_max, grid=grid))
