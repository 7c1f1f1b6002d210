"""Two-point distortion bounds as pure formulas over a pair jet.

``pair_jet(f, a, b)`` evaluates the map once at every point: one
``h.derivs`` and one ``g.derivs`` call per point give f(z), the
sense-preserving test and the pointwise scale factors

    R   = (1-|z|^2)(|h'| - |g'|),
    Q   = (1-|z|^2)(|h'| + |g'|),
    R_h = (1-|z|^2)|h'|,

and each pair gets |f(a) - f(b)|, its pseudo-hyperbolic distance
rho = rho(a, b) and hyperbolic distance d = d(a, b).  A bound is a
formula ``bound(jet, **params)`` of that jet alone, returning a PairBound
with the lower and/or upper bound on |f(a) - f(b)|.  Each formula lists
the jet fields it reads in ``bound.reads``, so a caller can ask
``pair_jet`` for nothing more; jets are vectorized, so a and b may be
complex arrays, in which case lower/upper are arrays.

Constants of the map that a formula needs, such as ||omega|| = sup |omega|,
are parameters.  The verifier reads them from the map's estimates (the
``reads`` entry of ``BOUND_REGISTRY``) unless the caller gives them, and a
formula rejects a given ||omega|| outside [0, 1).  Every other parameter
of a criterion or a bound is a row of ``PARAMETERS``: its default, taken
where a caller gives none, and the interval its value must lie in, which
``parameter`` checks.  Validity of each bound is gated elsewhere (verifier
harness) on the verdict of its hypothesis, a row of criteria.CRITERIA named
in ``BOUND_REGISTRY``; the formulas themselves only check parameter ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .disk import hyperbolic_from_pseudo, pseudo_hyperbolic_in_disc, require_in_disk
from .errors import NotSensePreservingError, ParameterError
from .harmonic import as_harmonic
from .operators import PointJet, point_jet

# Every field a formula may read; pair_jet computes all of them by default.
ALL_READS = frozenset({"R", "Q", "Rh", "h", "omega0"})


@dataclass(frozen=True)
class Parameter:
    """A parameter's default, and the interval [low, high] with the brackets ``ends``."""

    default: float
    low: float
    high: float
    ends: str = "[]"

    def __contains__(self, value) -> bool:  # false for NaN
        return ((self.low <= value if self.ends[0] == "[" else self.low < value)
                and (value <= self.high if self.ends[1] == "]" else value < self.high))


# Each parameter a criterion or a bound takes; an open end at inf admits
# finite values only.
PARAMETERS: dict[str, Parameter] = {
    # the harmonic Nehari threshold is non-constructive: a conservative default
    "epsilon": Parameter(0.1, 0.0, np.inf, "()"),
    "t": Parameter(1.0, 0.0, 1.0),
    "c": Parameter(1.0, 1.0, np.inf, "[)"),  # linear-connectivity constant
    "p": Parameter(2.0, 1.0, np.inf, "()"),
    "alpha": Parameter(2.0, 1.0, np.inf, "[)"),
    "beta": Parameter(2.0, 1.0, 2.0),
    "beta_lambda": Parameter(2.0, 1.0, 2.0),
}


def parameter(name: str, value=None):
    """``value``, or the default of ``name`` if None; a ParameterError outside its interval."""
    row = PARAMETERS[name]
    if value is None:
        return row.default
    if value not in row:
        low, high = row.ends
        raise ParameterError(
            f"{name} must lie in {low}{row.low:g}, {row.high:g}{high}, got {value}")
    return value


def check_parameters(params: dict) -> None:
    """Check every entry of ``params`` that ``PARAMETERS`` names; ignore the others."""
    for name, value in params.items():
        if name in PARAMETERS:
            parameter(name, value)


@dataclass(frozen=True)
class PairBound:
    """Lower/upper bound values for |f(a)-f(b)| at one pair (or pair arrays)."""

    lower: object = None  # float or ndarray, or None when the bound is one-sided
    upper: object = None


@dataclass(frozen=True)
class PairJet:
    """The point jets at a and b, |f(a) - f(b)| and the distances between them.

    The point jets hold no value: f(a) and f(b) are read once, for
    ``actual``, which no formula reads.
    """

    a: PointJet
    b: PointJet
    actual: object  # |f(a) - f(b)|, the distance the bounds bound
    rho: object  # pseudo-hyperbolic distance rho(a, b)
    d: object  # hyperbolic distance d(a, b)
    omega0: complex | None = None  # omega(0), read by the Mobius identity


def pair_jet(f, a, b, reads=ALL_READS) -> PairJet:
    """Evaluate f once at each point of the pairs (a, b).

    ``reads`` names the fields to compute beyond |f(a) - f(b)|, rho and d:
    any of "R", "Q", "Rh", "h" (h(a), h(b)) and "omega0".  Raises
    DomainError for a point outside the disc and NotSensePreservingError
    where |omega| >= 1.
    """
    require_in_disk(a, b)
    return pair_jet_in_disc(f, a, b, reads)


def pair_jet_in_disc(f, a, b, reads=ALL_READS) -> PairJet:
    """pair_jet for pairs the caller has checked lie in the disc.

    |f(a) - f(b)| is formed as soon as both point jets exist, and f(a) and
    f(b) are dropped then, so rho, d and the formula run without them.
    """
    f = as_harmonic(f)
    ja, jb = point_jet(f, a, reads), point_jet(f, b, reads)
    actual = np.abs(ja.value - jb.value)
    ja, jb = replace(ja, value=None), replace(jb, value=None)
    rho = pseudo_hyperbolic_in_disc(a, b)
    return PairJet(
        ja, jb, actual, rho, hyperbolic_from_pseudo(rho),
        complex(f.omega_derivs(0.0, 0)[0]) if "omega0" in reads else None,
    )


def _reads(*fields):
    """Record the jet fields a formula reads beyond rho and d."""

    def mark(formula):
        formula.reads = frozenset(fields)
        return formula

    return mark


def _out(x):
    x = np.asarray(x, dtype=float)
    return x if x.ndim else float(x)


def _given(omega_inf, formula: str, c: float = 1.0) -> float:
    """A caller's ||omega||; fails closed unless 0 <= omega_inf < 1 and c ||omega|| < 1.

    c is linconn's linear-connectivity constant; at c = 1, the default, the
    last test is the one before it.
    """
    if omega_inf is None or not omega_inf >= 0.0:  # also true for NaN
        raise ParameterError(
            f"{formula} requires omega_inf = sup |omega| >= 0, got {omega_inf}")
    if omega_inf >= 1.0:
        raise NotSensePreservingError(f"{formula} requires ||omega|| < 1")
    if c * omega_inf >= 1.0:
        raise ParameterError(f"{formula} hypothesis violated: c ||omega|| >= 1")
    return omega_inf


def _sandwich(k, d, lower, upper, lower_scale=1.0, upper_scale=1.0) -> PairBound:
    """lower_scale (1 - e^{-kd})/k lower, and upper_scale (e^{kd} - 1)/k upper."""
    return PairBound(lower=_out(lower_scale * (1.0 - np.exp(-k * d)) / k * lower),
                     upper=_out(upper_scale * (np.exp(k * d) - 1.0) / k * upper))


@_reads("R")
def blatter_lower(jet) -> PairBound:
    """lower^2 = sinh^2(2d) (R(a)^2 + R(b)^2) / (8 cosh(4d))."""
    d = jet.d
    lo = np.sqrt(np.sinh(2 * d) ** 2 * (jet.a.R**2 + jet.b.R**2) / (8.0 * np.cosh(4 * d)))
    return PairBound(lower=_out(lo))


@_reads("Rh")
def kim_minda_convex_lower(jet, p: float | None = None,
                           omega_inf: float | None = None) -> PairBound:
    """Convex-map lower bound, parametrized by p > 1.

    lower = (1 - ||omega||) sinh(d)/(2 cosh(pd)^{1/p}) (R_h(a)^p + R_h(b)^p)^{1/p}

    For an analytic map (omega = 0, R_h = R) this is the conformal convex
    two-point bound verbatim.  The naive harmonic transcription -- same
    formula on R = (1 - |z|^2)(|h'| - |g'|) without the (1 - ||omega||)
    prefactor -- is false: near the origin R ~ R_h while |f(a) - f(b)| can
    shrink to (1 - ||omega||)|h(a) - h(b)| (observed violations at p = 1.1
    on a sheared half-plane map).  The corrected form follows from
    |f(a)-f(b)| >= (1 - ||omega||)|h(a)-h(b)|: pulling the straight segment
    [h(a), h(b)] back through the convex map h gives a path gamma with
    int_gamma |h'| |dz| = |h(a)-h(b)|, so |g(a)-g(b)| <= ||omega|| |h(a)-h(b)|.
    """
    p = parameter("p", p)
    omega_inf = _given(omega_inf, "kim_minda_convex_lower")
    d = jet.d
    lo = (
        (1.0 - omega_inf)
        * np.sinh(d) / (2.0 * np.cosh(p * d) ** (1.0 / p))
        * (jet.a.Rh**p + jet.b.Rh**p) ** (1.0 / p)
    )
    return PairBound(lower=_out(lo))


@_reads("R")
def chuaqui_pommerenke_lower(jet) -> PairBound:
    """lower = d(a,b) sqrt(R(a) R(b)) under ||S phi|| <= 2."""
    lo = jet.d * np.sqrt(jet.a.R * jet.b.R)
    return PairBound(lower=_out(lo))


@_reads("R")
def mmm_upper(jet, t: float | None = None) -> PairBound:
    """upper = sqrt(R(a)R(b)/(1+t)) sinh(sqrt(1+t) d) under ||S phi|| <= 2t."""
    t = parameter("t", t)
    up = np.sqrt(jet.a.R * jet.b.R / (1.0 + t)) * np.sinh(np.sqrt(1.0 + t) * jet.d)
    return PairBound(upper=_out(up))


@_reads("R", "Q")
def dhk_bounds(jet, alpha: float | None = None) -> PairBound:
    """Growth sandwich for normalized univalent harmonic maps of order alpha.

    lower = (1/(2a))(1 - e^{-2ad}) max(R(a), R(b))
    upper = (1/(2a))(e^{2ad} - 1) min(Q(a), Q(b))
    """
    return _sandwich(2.0 * parameter("alpha", alpha), jet.d,
                     np.maximum(jet.a.R, jet.b.R), np.minimum(jet.a.Q, jet.b.Q))


@_reads("R")
def becker_analytic_bounds(jet) -> PairBound:
    """Sandwich (1 -/+ e^{-/+3d})/3 sqrt(R(a)R(b)) under the paper Becker hypothesis."""
    s = np.sqrt(jet.a.R * jet.b.R)
    return _sandwich(3.0, jet.d, s, s)


@_reads("R", "Q")
def becker_harmonic_bounds(jet) -> PairBound:
    """Harmonic Becker sandwich: R-side lower, Q-side upper."""
    return _sandwich(3.0, jet.d, np.sqrt(jet.a.R * jet.b.R), np.sqrt(jet.a.Q * jet.b.Q))


def becker_harmonic_proof_upper(d, upper):
    """The proof form of becker_harmonic_bounds' upper side; its display ends squared.

    sqrt((e^{3d} - 1)/3) sqrt(sqrt(Q(a)Q(b))), with sqrt(Q(a)Q(b)) read back
    from the statement form ``upper`` at hyperbolic distance ``d``.
    """
    qq = (3.0 * upper) / np.maximum(np.exp(3.0 * d) - 1.0, 1e-300)  # sqrt(QaQb)
    return np.sqrt((np.exp(3.0 * d) - 1.0) / 3.0) * np.sqrt(qq)


@_reads("R", "Q")
def nehari_harmonic_bounds(jet) -> PairBound:
    """lower = d sqrt(R R); upper = sqrt(Q Q / 2) sinh(sqrt(2) d)."""
    lo = jet.d * np.sqrt(jet.a.R * jet.b.R)
    up = np.sqrt(jet.a.Q * jet.b.Q / 2.0) * np.sinh(np.sqrt(2.0) * jet.d)
    return PairBound(lower=_out(lo), upper=_out(up))


@_reads("Rh")
def convex_h_bounds(jet, omega_inf: float) -> PairBound:
    """Two-point sandwich for f = h + conj(g) with h convex.

    lower = (1 - ||omega||) rho (R_h(a)+R_h(b))/2   (p -> 1 convex bound)
    upper = (1 + ||omega||) rho/(1-rho) (R_h(a)+R_h(b))/2

    The upper-bound distance factor is rho/(1-rho) = (e^{2d}-1)/2, the
    order-1 growth factor of the convex family: the plain rho factor is
    already violated by the identity map (rho(R_h(a)+R_h(b))/2 < |a-b|
    whenever |a| != |b|), so it cannot serve as an upper bound.
    """
    omega_inf = _given(omega_inf, "convex_h_bounds")
    rho = jet.rho
    mean = (jet.a.Rh + jet.b.Rh) / 2.0
    lo = (1.0 - omega_inf) * rho * mean
    up = (1.0 + omega_inf) * rho / (1.0 - rho) * mean
    return PairBound(lower=_out(lo), upper=_out(up))


@_reads("Rh")
def linconn_bounds(
    jet, c: float | None = None, beta: float | None = None, omega_inf: float | None = None
) -> PairBound:
    """(1 -/+ c||omega||) (1/(2b))(1 - e^{-2bd} / e^{2bd} - 1) sqrt(R_h R_h).

    The upper-bound exponential is read as (e^{2 beta d} - 1), consistent
    with the lower bound and the growth formula.
    """
    c, beta = parameter("c", c), parameter("beta", beta)
    omega_inf = _given(omega_inf, "linconn_bounds", c)
    s = np.sqrt(jet.a.Rh * jet.b.Rh)
    return _sandwich(2.0 * beta, jet.d, s, s, 1.0 - c * omega_inf, 1.0 + c * omega_inf)


@_reads("R", "Q")
def corollary_bounds(jet, beta_lambda: float | None = None) -> PairBound:
    """Growth sandwich via the shears phi = h + lambda g of order <= beta_lambda.

    lower = (1/(2bl))(1 - e^{-2bl d}) sqrt(R(a)R(b))
    upper = (1/(2bl))(e^{2bl d} - 1) sqrt(Q(a)Q(b))

    For the right unimodular lambda, |f(a)-f(b)| = |phi(a)-phi(b)|, and
    R <= (1-|z|^2)|phi'| <= Q pointwise, so the harmonic R feeds the lower
    bound and Q the upper (R on the upper side fails numerically).
    """
    return _sandwich(2.0 * parameter("beta_lambda", beta_lambda), jet.d,
                     np.sqrt(jet.a.R * jet.b.R), np.sqrt(jet.a.Q * jet.b.Q))


@_reads("Rh", "h", "omega0")
def mobius_exact(jet) -> PairBound:
    """Exact identity |f(a)-f(b)| = sqrt(R_h(a)R_h(b)) sinh(d) |1 + conj(alpha) lambda|.

    Requires f = h + conj(alpha h) with h Mobius, so alpha = omega(0);
    lambda is the unimodular phase conj(h(a)-h(b))/(h(a)-h(b)).  The value
    is both the lower and the upper side, and 0 at a = b (by continuity;
    lambda is undefined there).
    """
    dh = np.asarray(jet.a.h - jet.b.h)
    coincident = np.abs(dh) < 1e-300
    lam = np.conj(dh) / np.where(coincident, 1.0, dh)
    phase = np.abs(1.0 + np.conj(jet.omega0) * lam)
    val = np.sqrt(jet.a.Rh * jet.b.Rh) * np.sinh(jet.d) * phase
    val = _out(np.where(coincident, 0.0, val))
    return PairBound(lower=val, upper=val)


# Bound registry: formula, hypothesis and the map supremum a formula reads.
#
# ``hypothesis`` names the bound's row of criteria.CRITERIA; ``fixes`` holds
# any criterion parameter the bound fixes; ``reads`` names the map supremum
# the formula takes as a parameter, computed unless the caller gives it.
# A formula is called with the entries of params that it names.
BOUND_REGISTRY: dict[str, dict] = {
    "blatter": dict(formula=blatter_lower, hypothesis="assumed"),
    "kim_minda_convex": dict(formula=kim_minda_convex_lower, hypothesis="convexity",
                             reads="omega_inf"),
    "chuaqui_pommerenke": dict(formula=chuaqui_pommerenke_lower,
                               hypothesis="nehari_analytic", fixes={"t": 1.0}),
    "mmm": dict(formula=mmm_upper, hypothesis="nehari_analytic"),
    "dhk": dict(formula=dhk_bounds, hypothesis="normalized"),
    "becker_analytic": dict(formula=becker_analytic_bounds,
                            hypothesis="becker_analytic[paper]"),
    "becker_harmonic": dict(formula=becker_harmonic_bounds, hypothesis="becker_harmonic"),
    "nehari_harmonic": dict(formula=nehari_harmonic_bounds, hypothesis="nehari_harmonic"),
    "convex_h": dict(formula=convex_h_bounds, hypothesis="convexity", reads="omega_inf"),
    "linconn": dict(formula=linconn_bounds, hypothesis="theorem_d", reads="omega_inf"),
    "corollary": dict(formula=corollary_bounds, hypothesis="theorem_d",
                      reads="beta_lambda"),
    "mobius_exact": dict(formula=mobius_exact, hypothesis="assumed"),
}
