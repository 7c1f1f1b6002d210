"""Hyperbolic geometry of the unit disc.

Pseudo-hyperbolic and hyperbolic distances plus the disc automorphisms
sigma_a(z) = (z + a) / (1 + conj(a) z).  All functions accept complex
scalars or numpy arrays and are pure.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DomainError

# Points this close to the boundary are accepted but flagged; distances are
# computed in log form so they stay finite in floating point.
BOUNDARY_FLAG_TOL = 1e-12


def require_in_disk(*points, name: str = "point"):
    """Validate that every argument lies in the open unit disc.

    Returns the modulus of the last argument, so that a caller that checks
    one point need not take it again.
    """
    mod = None
    for p in points:
        mod = np.abs(np.asarray(p, dtype=complex))
        if np.any(mod >= 1.0):
            raise DomainError(f"{name} outside the open unit disc (|z| >= 1)")
        if np.any(mod >= 1.0 - BOUNDARY_FLAG_TOL):
            _warn_near_boundary(name)
    return mod


def inside_radius(r: float, *points):
    """The mask of the indices where every array of points has modulus below r < 1.

    Each modulus is taken once, and NaN fails the test.  The points kept
    lie in the disc, so ``require_in_disk`` on them would raise nothing; it
    would warn for each array with a kept point within BOUNDARY_FLAG_TOL of
    the unit circle, which r that close to 1 allows, and so does this.
    """
    ok, near = None, []
    for p in points:
        mod = np.abs(np.asarray(p, dtype=complex))
        ok = mod < r if ok is None else ok & (mod < r)
        if r > 1.0 - BOUNDARY_FLAG_TOL:
            near.append(mod >= 1.0 - BOUNDARY_FLAG_TOL)
        del mod
    for flagged in near:
        if np.any(flagged & ok):
            _warn_near_boundary("point")
    return ok


def _warn_near_boundary(name: str):
    warnings.warn(
        f"{name} within {BOUNDARY_FLAG_TOL} of the unit circle; "
        "hyperbolic quantities may be inaccurate",
        stacklevel=3,
    )


def pseudo_hyperbolic(a, b):
    """rho(a, b) = |(a - b) / (1 - conj(a) b)|, in [0, 1)."""
    require_in_disk(a, b)
    return pseudo_hyperbolic_in_disc(a, b)


def pseudo_hyperbolic_in_disc(a, b):
    """pseudo_hyperbolic for points the caller has checked lie in the disc."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.abs((a - b) / (1.0 - np.conj(a) * b))
    return out if out.ndim else float(out)


def hyperbolic(a, b):
    """d(a, b) = arctanh(rho(a, b))."""
    return hyperbolic_from_pseudo(pseudo_hyperbolic(a, b))


def hyperbolic_from_pseudo(rho):
    """d = arctanh(rho) = (1/2) log((1 + rho) / (1 - rho)) from rho = rho(a, b).

    The bits are those of 0.5 * (log1p(rho) - log1p(-rho)); the difference
    and the halving run in place, so one array besides d is alive at once.
    """
    rho = np.asarray(rho)
    minus = np.log1p(-rho)
    out = np.log1p(rho)
    out -= minus
    out *= 0.5
    return out if out.ndim else float(out)


def automorphism(a, z):
    """sigma_a(z) = (z + a) / (1 + conj(a) z); maps the disc onto itself, 0 -> a."""
    require_in_disk(a, z)
    a = np.asarray(a, dtype=complex)
    z = np.asarray(z, dtype=complex)
    out = (z + a) / (1.0 + np.conj(a) * z)
    return out if out.ndim else complex(out)
