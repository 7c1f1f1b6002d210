"""Shared fixtures and numerical oracles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from harmdist import series
from harmdist.analytic import ZERO, LinearCombo
from harmdist.catalog import CATALOG, get_map
from harmdist.errors import NotSensePreservingError
from harmdist.harmonic import HarmonicMap


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(params=sorted(CATALOG))
def catalog_map(request):
    return get_map(request.param)


def block_edges(n: int) -> list[int]:
    """The block edges of series.for_each_block over n points."""
    blocks = max(1, n // series._ELISION_POINTS)
    return [n * j // blocks for j in range(blocks + 1)]


def disc_points(rng, n, r_hi=0.9, r_lo=0.0):
    """n points uniform-in-area in the annulus r_lo <= |z| <= r_hi."""
    r = np.sqrt(rng.uniform(r_lo**2, r_hi**2, n))
    th = rng.uniform(0.0, 2.0 * np.pi, n)
    return r * np.exp(1j * th)


def wirtinger_dz(func, z, h=1e-5):
    """d/dz of a (possibly non-holomorphic) function by central differences.

    d/dz = (1/2)(d/dx - i d/dy); func must accept complex arrays.
    """
    z = np.asarray(z, dtype=complex)
    fx = (func(z + h) - func(z - h)) / (2.0 * h)
    fy = (func(z + 1j * h) - func(z - 1j * h)) / (2.0 * h)
    return 0.5 * (fx - 1j * fy)


def jacobian(f, z):
    """J_f = |h'|^2 - |g'|^2; raises where it is not positive."""
    J = np.abs(f.h.derivs(z, 1)[1]) ** 2 - np.abs(f.g.derivs(z, 1)[1]) ** 2
    if np.any(J <= 0.0):
        raise NotSensePreservingError(f"{f.name}: Jacobian <= 0 at a queried point")
    return J


def affine_transform(f, a):
    """f + a conj(f) = (h + a g) + conj(g + conj(a) h); P_f and S_f are invariant."""
    if abs(a) >= 1.0:
        raise NotSensePreservingError("affine parameter must satisfy |a| < 1")
    a = complex(a)
    return HarmonicMap(LinearCombo([(1.0, f.h), (a, f.g)]),
                       LinearCombo([(1.0, f.g), (np.conj(a), f.h)]), name=f"affine({f.name},{a})")


def shear_phi_lambda(f, lam):
    """The analytic shear phi_lambda = h + lambda g of f."""
    if f.g is ZERO or lam == 0:
        return f.h
    return LinearCombo([(1.0, f.h), (complex(lam), f.g)], name=f"phi_lambda({lam})")


def omega_star_at(omega, z):
    """Schwarz-Pick quantity |omega'|(1 - |z|^2)/(1 - |omega|^2) <= 1 of an analytic omega."""
    z = np.asarray(z, dtype=complex)
    w, w1 = omega.derivs(z, 1)[:2]
    denom = 1.0 - np.abs(w) ** 2
    assert np.all(denom > 0.0), f"{omega.name}: |omega| >= 1 at a queried point"
    return np.abs(w1) * (1.0 - np.abs(z) ** 2) / denom


def growth_sandwich(z, alpha):
    """DHK growth bounds (1/(2a))(1 - ((1-r)/(1+r))^a), (1/(2a))(((1+r)/(1-r))^a - 1), r = |z|."""
    r = np.abs(np.asarray(z, dtype=complex))
    return ((1.0 - ((1.0 - r) / (1.0 + r)) ** alpha) / (2.0 * alpha),
            (((1.0 + r) / (1.0 - r)) ** alpha - 1.0) / (2.0 * alpha))


@pytest.fixture
def estimates_made(monkeypatch):
    """The kinds of the NormEstimates the sup engine makes from now on, in order."""
    from harmdist import norms

    made = []

    def counted(*args, _orig=norms._estimates, **kwargs):
        out = _orig(*args, **kwargs)
        made.extend(est.kind for est in out)
        return out

    monkeypatch.setattr(norms, "_estimates", counted)
    return made
