"""Hyperbolic geometry of the disc: distances and automorphisms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmdist.disk import automorphism, hyperbolic, hyperbolic_from_pseudo, pseudo_hyperbolic
from harmdist.errors import DomainError

points = st.complex_numbers(max_magnitude=0.95, allow_nan=False, allow_infinity=False)


def test_known_values():
    assert pseudo_hyperbolic(0.0, 0.5) == pytest.approx(0.5)
    assert hyperbolic(0.0, 0.5) == pytest.approx(np.arctanh(0.5))
    # rho between +-r along a diameter: 2r / (1 + r^2)
    assert pseudo_hyperbolic(0.3, -0.3) == pytest.approx(0.6 / 1.09)


def test_vectorized_matches_scalar(rng):
    from conftest import disc_points

    a = disc_points(rng, 64)
    b = disc_points(rng, 64)
    rho = pseudo_hyperbolic(a, b)
    assert rho.shape == (64,)
    for k in (0, 17, 63):
        assert rho[k] == pytest.approx(pseudo_hyperbolic(complex(a[k]), complex(b[k])))


def test_hyperbolic_from_pseudo_keeps_the_bits_of_the_arctanh_expression(rng):
    """d has the bits of 0.5 * (log1p(rho) - log1p(-rho)), and rho is only read."""
    rho = np.concatenate([rng.uniform(0.0, 1.0, 40_000), [0.0, np.nextafter(1.0, 0.0), np.nan]])
    given_rho = rho.copy()
    d = hyperbolic_from_pseudo(rho)
    expected = 0.5 * (np.log1p(rho) - np.log1p(-rho))
    assert np.array_equal(d.view(np.uint64), expected.view(np.uint64))
    assert np.array_equal(rho.view(np.uint64), given_rho.view(np.uint64))
    for x in (0.0, 0.5, float(np.nextafter(1.0, 0.0))):
        assert type(hyperbolic_from_pseudo(x)) is float
        assert hyperbolic_from_pseudo(x) == 0.5 * (np.log1p(x) - np.log1p(-x))


@given(a=points, b=points)
@settings(max_examples=200, deadline=None)
def test_distance_properties(a, b):
    rho = pseudo_hyperbolic(a, b)
    assert 0.0 <= rho < 1.0
    assert rho == pytest.approx(pseudo_hyperbolic(b, a), abs=1e-12)
    d = hyperbolic(a, b)
    assert d == pytest.approx(np.arctanh(rho), rel=1e-12, abs=1e-12)
    assert pseudo_hyperbolic(a, a) == 0.0


@given(a=points, x=points, y=points)
@settings(max_examples=200, deadline=None)
def test_automorphism_is_an_isometry(a, x, y):
    sx, sy = automorphism(a, x), automorphism(a, y)
    assert abs(sx) < 1.0 and abs(sy) < 1.0
    assert pseudo_hyperbolic(sx, sy) == pytest.approx(
        pseudo_hyperbolic(x, y), rel=1e-9, abs=1e-12
    )


def test_automorphism_moves_origin():
    a = 0.3 + 0.4j
    assert automorphism(a, 0.0) == pytest.approx(a)
    # sigma_a(-a) lands at 0
    assert abs(automorphism(a, -a)) == pytest.approx(0.0, abs=1e-15)


def test_outside_disc_rejected():
    with pytest.raises(DomainError):
        pseudo_hyperbolic(1.5, 0.0)
    with pytest.raises(DomainError):
        automorphism(0.2, np.array([0.1, 1.0 + 0j]))


def test_near_boundary_warns():
    with pytest.warns(UserWarning):
        pseudo_hyperbolic(1.0 - 1e-14, 0.0)
