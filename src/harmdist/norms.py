"""Estimation of disc suprema: weighted operator norms, |omega| norms, orders.

Every named functional is a ``Functional``: a formula over an operators.Jet
of a stated order.  The grid-jet contract: a supremum evaluates the map's
jet once per block of a polar grid (one h.derivs call per block and, if a
formula reads omega, one g.derivs call per block), scans the formula on
it, and refines around the argmax with a compass pattern search that
evaluates the formula on jets of its own candidates.  ``GridSuprema``
shares each block's jet among several functionals of the same map, r_max
and grid, runs the blocks on every CPU the process may use, and keeps
each estimate on a harmonic map, so that every later reader of the same
supremum gets it without a second grid pass; ``sup_weighted`` is the same
engine for a bare pointwise function of z, evaluated on the whole grid at
once.

Estimates are sampled lower bounds on the true supremum (sampling can only
under-estimate); the ``refined`` flag records that local refinement ran to
convergence.  A NaN or infinite functional value raises NonFiniteError
instead of being skipped.

The grid always contains z = 0, and the argmax is selected
deterministically (ties broken by smallest |z|, then smallest argument),
so results do not depend on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .analytic import AnalyticMap
from .errors import NonFiniteError, NormalizationError, ParameterError
from .harmonic import HarmonicMap, as_harmonic
from .operators import (
    Jet,
    harmonic_pre_schwarzian_of,
    harmonic_schwarzian_of,
    omega_star_at,
    omega_star_of,
    pre_schwarzian_of,
    schwarzian_of,
    schwarzian_order,
)
from .series import for_each_block

DEFAULT_R_MAX = 0.999
DEFAULT_GRID = (64, 256)

# Pattern-search refinement policy.
REFINE_ITERS = 30
REFINE_CONTRACTION = 0.5
REFINE_CONVERGED_STEP = 1e-4


@dataclass(frozen=True)
class NormEstimate:
    """A sampled-and-refined lower bound on a disc supremum."""

    value: float
    kind: str
    r_max: float
    grid: tuple[int, int]
    refined: bool
    argmax_point: complex

    def __float__(self):
        return self.value


@dataclass(frozen=True)
class OrderEstimate:
    """Estimated order of a (normalized) linearly invariant map."""

    alpha: float
    argmax_point: complex
    normalized: bool


def polar_grid(r_max: float, nr: int, ntheta: int) -> np.ndarray:
    """Polar grid including the origin, radii clustered toward r_max."""
    i = np.arange(1, nr + 1)
    radii = r_max * np.sin(0.5 * np.pi * i / nr)
    theta = 2.0 * np.pi * np.arange(ntheta) / ntheta
    z = np.outer(radii, np.exp(1j * theta)).ravel()
    return np.concatenate([[0.0 + 0.0j], z])


def _require_finite(z: np.ndarray, v: np.ndarray, kind: str) -> None:
    bad = np.flatnonzero(~np.isfinite(v))
    if len(bad):
        k = bad[0]
        raise NonFiniteError(f"{kind}: functional value {v[k]} at z = {complex(z[k])}")


def _deterministic_argmax(z: np.ndarray, v: np.ndarray) -> int:
    m = v.max()
    idx = np.flatnonzero(v == m)
    if len(idx) == 1:
        return int(idx[0])
    zz = z[idx]
    ang = np.mod(np.angle(zz), 2.0 * np.pi)
    order = np.lexsort((ang, np.round(np.abs(zz), 15)))
    return int(idx[order[0]])


def _pattern_search(func, z0: complex, step: float, r_max: float, kind: str):
    """Compass maximization of func around z0 within |z| <= r_max."""
    z = np.array([z0])
    v = np.asarray(func(z), dtype=float)
    _require_finite(z, v, kind)
    best_z, best_v = complex(z0), float(v[0])
    for _ in range(REFINE_ITERS):
        cand = best_z + step * np.array([1, -1, 1j, -1j])
        mod = np.maximum(np.abs(cand), 1e-300)
        cand = np.where(mod >= r_max, cand / mod * r_max, cand)
        vals = np.asarray(func(cand), dtype=float)
        _require_finite(cand, vals, kind)
        k = int(np.argmax(vals))
        if vals[k] > best_v:
            best_z, best_v = complex(cand[k]), float(vals[k])
        else:
            step *= REFINE_CONTRACTION
    return best_z, best_v, step < REFINE_CONVERGED_STEP


def _estimate(z, v, func, kind, r_max, grid, refine) -> NormEstimate:
    """The estimate from the values v of func on the polar grid z."""
    nr, ntheta = grid
    v = np.asarray(v, dtype=float)
    _require_finite(z, v, kind)
    i = _deterministic_argmax(z, v)
    best_z, best_v = complex(z[i]), float(v[i])
    refined = False
    if refine:
        # initial step = local grid spacing near the argmax
        step = max(r_max / nr, 2.0 * np.pi * max(abs(best_z), r_max / nr) / ntheta)
        rz, rv, refined = _pattern_search(func, best_z, step, r_max, kind)
        if rv > best_v:  # refinement may only improve the estimate
            best_z, best_v = rz, rv
    return NormEstimate(best_v, kind, r_max, (nr, ntheta), refined, best_z)


def sup_weighted(
    func: Callable[[np.ndarray], np.ndarray],
    kind: str = "functional",
    r_max: float = DEFAULT_R_MAX,
    grid: tuple[int, int] = DEFAULT_GRID,
    refine: bool = True,
) -> NormEstimate:
    """Sampled supremum of a pointwise functional over |z| <= r_max."""
    z = polar_grid(r_max, *grid)
    return _estimate(z, func(z), func, kind, r_max, grid, refine)


# ---------------------------------------------------------------------------
# Named pointwise functionals: formulas over a jet.

@dataclass(frozen=True)
class Functional:
    """A real pointwise functional: ``formula`` over a Jet of ``order``.

    ``order_on(h)``, if given, is the order that suffices on analytic part
    h.  A ``capped`` functional is boundary-dominated: its supremum is read
    up to the map's reliable radius, which its estimate records as r_max.
    """

    kind: str
    formula: Callable[[Jet], np.ndarray]
    order: int
    capped: bool = False
    order_on: Callable[[AnalyticMap], int] | None = None

    def jet_order(self, f) -> int:
        """The jet order the formula reads on the map f."""
        if self.order_on is None:
            return self.order
        return self.order_on(f.h if isinstance(f, HarmonicMap) else f)

    def at(self, f) -> Callable[[np.ndarray], np.ndarray]:
        """The functional of the map f as a function of z, one jet per call."""
        order = self.jet_order(f)
        return lambda z: self.formula(Jet(f, z, order))


def _pre_schwarzian_weighted(jet, with_z=False):
    p = np.abs(pre_schwarzian_of(jet))
    w = 1.0 - np.abs(jet.z) ** 2
    return w * (np.abs(jet.z) * p if with_z else p)


def _becker_harmonic(jet):
    """(1-|z|^2)|z P_f| + |z omega'|(1-|z|^2)/(1-|omega|^2)."""
    z = jet.z
    w2 = 1.0 - np.abs(z) ** 2
    p = harmonic_pre_schwarzian_of(jet)
    w, w1 = jet.omega[:2]
    denom = 1.0 - np.abs(w) ** 2
    return w2 * np.abs(z * p) + np.abs(z * w1) * w2 / denom


PRE_SCHWARZIAN = Functional("pre_schwarzian_norm", _pre_schwarzian_weighted, 2)
PRE_SCHWARZIAN_Z = Functional(
    "pre_schwarzian_norm", partial(_pre_schwarzian_weighted, with_z=True), 2
)
SCHWARZIAN = Functional(
    "schwarzian_norm",
    lambda jet: (1.0 - np.abs(jet.z) ** 2) ** 2 * np.abs(schwarzian_of(jet)), 3,
    order_on=schwarzian_order,
)
HARMONIC_SCHWARZIAN = Functional(
    "schwarzian_norm",
    lambda jet: (1.0 - np.abs(jet.z) ** 2) ** 2 * np.abs(harmonic_schwarzian_of(jet)), 3,
)
OMEGA_ABS = Functional("omega_inf", lambda jet: np.abs(jet.omega[0]), 1, capped=True)
OMEGA_STAR = Functional("omega_star", omega_star_of, 2, capped=True)
BECKER_HARMONIC = Functional("becker_functional", _becker_harmonic, 2)
# |(1/2)(1-|z|^2) P phi(z) - conj(z)|, whose supremum is the order.
ORDER = Functional(
    "order",
    lambda jet: np.abs(
        0.5 * (1.0 - np.abs(jet.z) ** 2) * pre_schwarzian_of(jet) - np.conj(jet.z)
    ),
    2,
)
# -Re(1 + z h''/h'): its supremum is minus the infimum that decides convexity.
CONVEXITY = Functional(
    "convexity", lambda jet: -np.real(1.0 + jet.z * pre_schwarzian_of(jet)), 2
)


class GridSuprema:
    """Suprema of functionals of one map over one polar grid.

    A harmonic map keeps each estimate made of it in ``f.estimates``, per
    (functional, r_max, grid), so that every gate, prepare step, norm and
    report that asks for a supremum reads the one estimate.  The map keeps
    estimates, never grid values; an analytic map keeps none.

    When the object is made, it computes the grid values of each of its
    functionals that the map has no estimate of.  The grid is cut by
    ``series.for_each_block`` into equal blocks of at most
    ``series._HORNER_CHUNK`` points, run on every CPU the process may use;
    each block gets one jet, to the highest order the functionals read, and
    every formula writes its values into that block's slice.  ``estimate``
    makes an estimate from those values, refined on jets of its own
    candidates, stores it and frees the values.  Any other functional, or
    a capped one whose r_max the reliable radius lowers, gets a grid of its
    own.

    The values have the bits a single jet over the whole grid gives, because
    no block is smaller than 16384 points unless it is the whole grid.
    numpy evaluates ``a * (b - d)`` as an in-place ``(b - d) *= a`` when the
    temporary is at least 256 KiB (16384 complex points), and a complex
    product is not bitwise commutative; so a formula rounds differently on
    a block below that size than on a grid above it.  The block rule keeps
    every block at 16384 points or more once the grid exceeds 32768 points,
    and a smaller grid is one block.

    If the blocked pass raises, the object falls back to one jet over the
    whole grid, with each formula applied when its estimate is asked for, so
    the error is raised where and as the whole-grid evaluation raises it.
    An estimate that raises is not stored, and raises again when asked for.
    """

    def __init__(self, f, functionals=(), r_max=DEFAULT_R_MAX, grid=DEFAULT_GRID):
        self.f = f
        self.r_max = r_max
        self.grid = tuple(grid)
        self._memo = f.estimates if isinstance(f, HarmonicMap) else {}
        self._scanned = [fn for fn in functionals
                         if self._key(fn)[1] == r_max and self._key(fn) not in self._memo]
        if not self._scanned:
            return
        self.z = polar_grid(r_max, *self.grid)
        order = max(fn.jet_order(f) for fn in self._scanned)
        self._jet = None
        self._values = {fn: np.empty(self.z.shape) for fn in self._scanned}

        def scan(lo, hi):
            jet = Jet(f, self.z[lo:hi], order)
            for fn in self._scanned:
                self._values[fn][lo:hi] = fn.formula(jet)

        try:
            for_each_block(self.z.size, scan)
        except Exception:  # re-raised below, at the estimate that meets it
            self._values = None
            self._jet = Jet(f, self.z, order)

    def _key(self, fn: Functional):
        r_max = min(self.r_max, self.f.reliable_radius) if fn.capped else self.r_max
        return fn, r_max, self.grid

    def estimate(self, fn: Functional) -> NormEstimate:
        """The map's estimate of ``fn`` over this grid, made now if it has none."""
        key = self._key(fn)
        if key in self._memo:
            return self._memo[key]
        if fn not in self._scanned:
            return GridSuprema(self.f, [fn], key[1], self.grid).estimate(fn)
        v = fn.formula(self._jet) if self._values is None else self._values[fn]
        self._memo[key] = _estimate(self.z, v, fn.at(self.f), fn.kind, self.r_max,
                                    self.grid, refine=True)
        if self._values is not None:
            del self._values[fn]
        return self._memo[key]

    def order(self) -> OrderEstimate:
        """order_of(h) for the analytic part h, from the grid values when h is normalized."""
        h = self.f.h if isinstance(self.f, HarmonicMap) else self.f
        if not h.is_normalized():
            return order_of(h, self.r_max, self.grid)
        est = self.estimate(ORDER)
        return OrderEstimate(est.value, est.argmax_point, True)


# ---------------------------------------------------------------------------
# Norms and orders: each an estimate of the map (on a harmonic map, its
# stored one), or of a bare function of z through sup_weighted.

def pre_schwarzian_norm(phi, with_z=False, r_max=DEFAULT_R_MAX, grid=DEFAULT_GRID):
    fn = PRE_SCHWARZIAN_Z if with_z else PRE_SCHWARZIAN
    return GridSuprema(phi, (), r_max, grid).estimate(fn)


def schwarzian_norm(phi: AnalyticMap, r_max=DEFAULT_R_MAX, grid=DEFAULT_GRID):
    return GridSuprema(phi, (), r_max, grid).estimate(SCHWARZIAN)


def harmonic_schwarzian_norm(f, r_max=DEFAULT_R_MAX, grid=DEFAULT_GRID):
    return GridSuprema(as_harmonic(f), (), r_max, grid).estimate(HARMONIC_SCHWARZIAN)


def omega_inf_norm(omega, r_max=DEFAULT_R_MAX, grid=DEFAULT_GRID):
    """sup |omega|; boundary-dominated, so the r_max cap is part of the result."""
    if isinstance(omega, HarmonicMap):
        return GridSuprema(omega, (), r_max, grid).estimate(OMEGA_ABS)
    r_max = min(r_max, getattr(omega, "reliable_radius", 1.0))
    return sup_weighted(lambda z: np.abs(omega(z)), OMEGA_ABS.kind, r_max, grid)


def omega_star_norm(omega, r_max=DEFAULT_R_MAX, grid=DEFAULT_GRID):
    if isinstance(omega, HarmonicMap):
        return GridSuprema(omega, (), r_max, grid).estimate(OMEGA_STAR)
    rr = getattr(omega, "reliable_radius", 1.0)
    return sup_weighted(
        lambda z: omega_star_at(omega, z), OMEGA_STAR.kind, min(r_max, rr), grid
    )


def becker_harmonic_norm(f, r_max=DEFAULT_R_MAX, grid=DEFAULT_GRID):
    return GridSuprema(as_harmonic(f), (), r_max, grid).estimate(BECKER_HARMONIC)


def order_of(
    phi: AnalyticMap, r_max: float = DEFAULT_R_MAX, grid=DEFAULT_GRID
) -> OrderEstimate:
    """Sampled order sup |(1/2)(1-|z|^2) P phi - conj z| of a normalized map."""
    was_normalized = phi.is_normalized()
    if not was_normalized:
        from .analytic import koebe_transform

        try:
            phi = koebe_transform(phi, 0.0)
        except Exception as exc:
            raise NormalizationError(f"cannot renormalize {phi.name}: {exc}") from exc
    est = sup_weighted(ORDER.at(phi), ORDER.kind, r_max, grid)
    return OrderEstimate(est.value, est.argmax_point, was_normalized)


def beta_lambda(
    beta: float, omega, r_max: float = DEFAULT_R_MAX, grid=DEFAULT_GRID
) -> float:
    """beta_lambda = min(2, beta + ||omega*||), the order of h + lambda g."""
    if not 1.0 <= beta <= 2.0:
        raise ParameterError("beta must lie in [1, 2]")
    return min(2.0, beta + omega_star_norm(omega, r_max, grid).value)
