"""Estimation of disc suprema: weighted operator norms, |omega| norms, orders.

One shared engine evaluates a real-valued pointwise functional on a polar
grid with radii clustered toward r_max, takes the maximum, and refines
around the argmax with a compass pattern search.  Estimates are certified
lower bounds on the true supremum (sampling can only under-estimate); the
``refined`` flag records that local refinement ran to convergence.

The grid always contains z = 0, and the argmax is selected
deterministically (ties broken by smallest |z|, then smallest argument),
so results do not depend on evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analytic import AnalyticMap
from .errors import NormalizationError, ParameterError
from .harmonic import HarmonicMap, as_harmonic
from .operators import (
    harmonic_pre_schwarzian,
    harmonic_schwarzian,
    omega_star_at,
    pre_schwarzian,
    schwarzian,
)

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


def _deterministic_argmax(z: np.ndarray, v: np.ndarray) -> int:
    m = v.max()
    idx = np.flatnonzero(v == m)
    if len(idx) == 1:
        return int(idx[0])
    zz = z[idx]
    ang = np.mod(np.angle(zz), 2.0 * np.pi)
    order = np.lexsort((ang, np.round(np.abs(zz), 15)))
    return int(idx[order[0]])


def _pattern_search(func, z0: complex, step: float, r_max: float):
    """Compass maximization of func around z0 within |z| <= r_max."""
    best_z, best_v = complex(z0), float(func(np.array([z0]))[0])
    for _ in range(REFINE_ITERS):
        cand = best_z + step * np.array([1, -1, 1j, -1j])
        mod = np.maximum(np.abs(cand), 1e-300)
        cand = np.where(mod >= r_max, cand / mod * r_max, cand)
        vals = np.asarray(func(cand), dtype=float)
        k = int(np.argmax(vals))
        if vals[k] > best_v:
            best_z, best_v = complex(cand[k]), float(vals[k])
        else:
            step *= REFINE_CONTRACTION
    return best_z, best_v, step < REFINE_CONVERGED_STEP


def sup_weighted(
    func: Callable[[np.ndarray], np.ndarray],
    kind: str = "functional",
    r_max: float = DEFAULT_R_MAX,
    grid: tuple[int, int] = DEFAULT_GRID,
    refine: bool = True,
) -> NormEstimate:
    """Sampled supremum of a pointwise functional over |z| <= r_max."""
    nr, ntheta = grid
    z = polar_grid(r_max, nr, ntheta)
    v = np.asarray(func(z), dtype=float)
    i = _deterministic_argmax(z, v)
    best_z, best_v = complex(z[i]), float(v[i])
    refined = False
    if refine:
        # initial step = local grid spacing near the argmax
        step = max(r_max / nr, 2.0 * np.pi * max(abs(best_z), r_max / nr) / ntheta)
        rz, rv, refined = _pattern_search(func, best_z, step, r_max)
        if rv > best_v:  # refinement may only improve the estimate
            best_z, best_v = rz, rv
    return NormEstimate(best_v, kind, r_max, (nr, ntheta), refined, best_z)


# ---------------------------------------------------------------------------
# Named pointwise functionals.

def pre_schwarzian_functional(phi: AnalyticMap, with_z: bool = False):
    def f(z):
        p = np.abs(pre_schwarzian(phi, z))
        w = 1.0 - np.abs(z) ** 2
        return w * (np.abs(z) * p if with_z else p)

    return f

def schwarzian_functional(phi: AnalyticMap):
    return lambda z: (1.0 - np.abs(z) ** 2) ** 2 * np.abs(schwarzian(phi, z))

def harmonic_schwarzian_functional(f: HarmonicMap):
    f = as_harmonic(f)
    return lambda z: (1.0 - np.abs(z) ** 2) ** 2 * np.abs(harmonic_schwarzian(f, z))

def omega_abs_functional(omega):
    if isinstance(omega, HarmonicMap):
        return lambda z: np.abs(omega.omega_derivs(np.asarray(z, complex), 0)[0])
    return lambda z: np.abs(omega(z))

def omega_star_functional(omega):
    return lambda z: omega_star_at(omega, z)

def becker_harmonic_functional(f: HarmonicMap):
    """(1-|z|^2)|z P_f| + |z omega'|(1-|z|^2)/(1-|omega|^2)."""
    f = as_harmonic(f)

    def func(z):
        z = np.asarray(z, dtype=complex)
        w2 = 1.0 - np.abs(z) ** 2
        p = harmonic_pre_schwarzian(f, z)
        w, w1 = f.omega_derivs(z, 1)
        denom = 1.0 - np.abs(w) ** 2
        return w2 * np.abs(z * p) + np.abs(z * w1) * w2 / denom

    return func

def order_integrand(phi: AnalyticMap):
    """|(1/2)(1-|z|^2) P phi(z) - conj(z)|, whose supremum is the order."""

    def func(z):
        z = np.asarray(z, dtype=complex)
        return np.abs(
            0.5 * (1.0 - np.abs(z) ** 2) * pre_schwarzian(phi, z) - np.conj(z)
        )

    return func


# ---------------------------------------------------------------------------
# Norms and orders.

def pre_schwarzian_norm(phi, with_z=False, r_max=DEFAULT_R_MAX, grid=DEFAULT_GRID):
    kind = "pre_schwarzian_norm"
    return sup_weighted(pre_schwarzian_functional(phi, with_z), kind, r_max, grid)


def schwarzian_norm(phi: AnalyticMap, r_max=DEFAULT_R_MAX, grid=DEFAULT_GRID):
    return sup_weighted(schwarzian_functional(phi), "schwarzian_norm", r_max, grid)


def harmonic_schwarzian_norm(f, r_max=DEFAULT_R_MAX, grid=DEFAULT_GRID):
    return sup_weighted(
        harmonic_schwarzian_functional(f), "schwarzian_norm", r_max, grid
    )


def omega_inf_norm(omega, r_max=DEFAULT_R_MAX, grid=DEFAULT_GRID):
    """sup |omega|; boundary-dominated, so the r_max cap is part of the result."""
    r_max = min(r_max, getattr(omega, "reliable_radius", 1.0))
    return sup_weighted(omega_abs_functional(omega), "omega_inf", r_max, grid)


def omega_star_norm(omega, r_max=DEFAULT_R_MAX, grid=DEFAULT_GRID):
    rr = getattr(omega, "reliable_radius", 1.0)
    return sup_weighted(
        omega_star_functional(omega), "omega_star", min(r_max, rr), grid
    )


def becker_harmonic_norm(f, r_max=DEFAULT_R_MAX, grid=DEFAULT_GRID):
    return sup_weighted(
        becker_harmonic_functional(f), "becker_functional", r_max, grid
    )


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
    est = sup_weighted(order_integrand(phi), "order", r_max, grid)
    return OrderEstimate(est.value, est.argmax_point, was_normalized)


def beta_lambda(
    beta: float, omega, r_max: float = DEFAULT_R_MAX, grid=DEFAULT_GRID
) -> float:
    """beta_lambda = min(2, beta + ||omega*||), the order of h + lambda g."""
    if not 1.0 <= beta <= 2.0:
        raise ParameterError("beta must lie in [1, 2]")
    return min(2.0, beta + omega_star_norm(omega, r_max, grid).value)
