"""Shared fixtures and numerical oracles for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from harmdist import series
from harmdist.catalog import CATALOG, get_map


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


@pytest.fixture
def estimates_made(monkeypatch):
    """The kinds of the NormEstimates the sup engine makes from now on, in order."""
    from harmdist import norms
    from harmdist.norms import NormEstimate

    made = []

    def counted(*args, _orig=norms._estimates, **kwargs):
        out = _orig(*args, **kwargs)
        made.extend(est.kind for est in out if isinstance(est, NormEstimate))
        return out

    monkeypatch.setattr(norms, "_estimates", counted)
    return made
