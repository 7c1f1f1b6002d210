"""Truncated Taylor series arithmetic, against numpy polynomial evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmdist import series as ts
from harmdist.errors import PrecisionError, SingularError
from harmdist.series import TaylorSeries

coeff_lists = st.lists(
    st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
    min_size=2,
    max_size=12,
)


def _mk(coeffs, r=0.9):
    return TaylorSeries(np.asarray(coeffs, dtype=complex), r)


def test_evaluation_matches_horner():
    s = _mk([1.0, 2.0, 3.0])
    z = 0.1 + 0.2j
    assert s(z) == pytest.approx(1.0 + 2.0 * z + 3.0 * z * z)


def test_beyond_reliable_radius_raises():
    s = _mk([0.0, 1.0], r=0.5)
    with pytest.raises(PrecisionError):
        s(0.6)


@given(a=coeff_lists, b=coeff_lists)
@settings(max_examples=100, deadline=None)
def test_add_and_multiply_pointwise(a, b):
    sa, sb = _mk(a), _mk(b)
    z = np.array([0.1, -0.2 + 0.1j, 0.3j])
    np.testing.assert_allclose(
        ts.add(sa, sb)(z), sa(z) + sb(z), rtol=1e-12, atol=1e-12
    )
    # product truncated at the common order: compare against the truncated
    # coefficient convolution evaluated directly
    prod = ts.multiply(sa, sb)
    full = np.polynomial.polynomial.polymul(sa.coefficients, sb.coefficients)
    ref = np.polynomial.polynomial.polyval(z, full[: prod.truncation_order + 1])
    np.testing.assert_allclose(prod(z), ref, rtol=1e-12, atol=1e-12)


def test_reciprocal_is_multiplicative_inverse():
    s = _mk([2.0, -0.5, 0.25, 0.1, 0.0, 0.0, 0.0, 0.0])
    inv = ts.reciprocal(s)
    prod = ts.multiply(s, inv)
    want = np.zeros(prod.truncation_order + 1, dtype=complex)
    want[0] = 1.0
    np.testing.assert_allclose(prod.coefficients, want, atol=1e-12)


def test_reciprocal_of_vanishing_constant_raises():
    with pytest.raises(SingularError):
        ts.reciprocal(_mk([0.0, 1.0]))


def test_differentiate_integrate_roundtrip():
    s = _mk([0.0, 1.0, 0.5, -0.2, 0.1])
    back = ts.integrate(ts.differentiate(s))
    np.testing.assert_allclose(back.coefficients, s.coefficients, atol=1e-14)


def test_compose_matches_direct_evaluation():
    outer = _mk([1.0, 1.0, 1.0, 1.0, 0, 0, 0, 0, 0, 0])  # partial geometric sum
    inner = _mk([0.0, 0.3, 0.1, 0, 0, 0, 0, 0, 0, 0])
    comp = ts.compose(outer, inner)
    z = np.array([0.05, 0.1j, -0.08 + 0.04j])
    # inner(z) stays tiny, so truncation error is negligible
    np.testing.assert_allclose(comp(z), outer(inner(z)), rtol=1e-10, atol=1e-12)


def test_reliable_radius_policy():
    # numerically polynomial -> whole disc
    c = np.zeros(40, dtype=complex)
    c[1] = 1.0
    assert ts.reliable_radius_from_coeffs(c) == 1.0
    # geometric-type tails give a radius strictly inside
    r = ts.reliable_radius_from_coeffs(np.ones(41, dtype=complex))
    assert 0.05 <= r <= 0.95
