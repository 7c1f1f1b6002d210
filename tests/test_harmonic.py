"""Harmonic maps: shears, dilatations, Jacobians, affine transforms."""

import numpy as np
import pytest

from conftest import (affine_transform, disc_points, jacobian, shear_phi_lambda,
                      wirtinger_dz)
from harmdist.analytic import (ZERO, HalfPlane, Identity, Koebe, LinearCombo, Mobius, Monomial,
                               SeriesMap)
from harmdist.descriptors import parse_descriptor
from harmdist.errors import NotSensePreservingError, ParameterError
from harmdist.harmonic import (
    HarmonicMap,
    analytic_as_harmonic,
    as_harmonic,
    from_h_and_omega,
    halfplane_shear_g,
    harmonic_mobius,
    shear_linear,
)
from harmdist.operators import point_jet
from harmdist.series import TaylorSeries


def test_analytic_wrapper_evaluates_like_h(rng):
    f = analytic_as_harmonic(Koebe())
    z = disc_points(rng, 20, r_hi=0.7)
    np.testing.assert_allclose(f(z), Koebe()(z), rtol=1e-12)
    assert f.g is ZERO


def test_omega_derivs_match_quotient(rng):
    f = shear_linear(HalfPlane(), 0.4)
    z = disc_points(rng, 30, r_hi=0.8)
    w, w1, w2 = f.omega_derivs(z, 2)
    np.testing.assert_allclose(w, 0.4 * z, rtol=1e-11, atol=1e-13)
    np.testing.assert_allclose(w1, 0.4, rtol=1e-10, atol=1e-11)
    np.testing.assert_allclose(w2, 0.0, atol=1e-9)


def test_omega_derivs_against_finite_differences(rng):
    f = from_h_and_omega(Koebe(), Monomial(0.5, 2), order=80)
    z = disc_points(rng, 15, r_hi=0.4)

    def omega(zz):
        return f.g.derivs(zz, 1)[1] / f.h.derivs(zz, 1)[1]

    w, w1, w2 = f.omega_derivs(z, 2)
    np.testing.assert_allclose(w, omega(z), rtol=1e-9, atol=1e-11)
    np.testing.assert_allclose(w1, wirtinger_dz(omega, z), rtol=1e-5, atol=1e-7)


def test_shear_roundtrip_recovers_omega(rng):
    omega = Monomial(0.3, 1)
    f = from_h_and_omega(HalfPlane(), omega, order=120)
    z = disc_points(rng, 20, r_hi=0.5)
    np.testing.assert_allclose(f.omega_derivs(z, 0)[0], omega(z), rtol=1e-9, atol=1e-12)


def test_closed_form_halfplane_shear_matches_series(rng):
    closed = shear_linear(HalfPlane(), 0.4)
    series = from_h_and_omega(HalfPlane(), Monomial(0.4, 1), order=200)
    z = disc_points(rng, 20, r_hi=0.5)
    np.testing.assert_allclose(closed(z), series(z), rtol=1e-9, atol=1e-11)
    # and the closed form evaluates right up to the rim
    closed(np.array([0.9989, -0.9989j]))


def test_halfplane_shear_g_derivatives_consistent(rng):
    g = halfplane_shear_g(0.25)
    z = disc_points(rng, 20, r_hi=0.6)
    v0, v1 = g.derivs(z, 1)[:2]
    h = 1e-6
    fd = (g(z + h) - g(z - h)) / (2.0 * h)
    np.testing.assert_allclose(v1, fd, rtol=1e-6, atol=1e-8)
    # g' = omega h' with omega = 0.25 z
    np.testing.assert_allclose(v1, 0.25 * z * HalfPlane().derivs(z, 1)[1], rtol=1e-12)


def test_jacobian_positive_and_correct(rng):
    f = shear_linear(Identity(), 0.4)
    z = disc_points(rng, 20, r_hi=0.9)
    J = jacobian(f, z)
    np.testing.assert_allclose(J, 1.0 - np.abs(0.4 * z) ** 2, rtol=1e-12)
    assert np.all(J > 0.0)


def test_sense_preservation_guard():
    # omega = z attains modulus ~1 near the rim; construction must refuse
    with pytest.raises(NotSensePreservingError):
        from_h_and_omega(Identity(), Monomial(1.2, 1))
    f = HarmonicMap(Identity(), Monomial(0.6, 2))  # omega = 1.2 z
    with pytest.raises(NotSensePreservingError):
        point_jet(f, 0.95)


def test_polynomial_omega_above_the_series_order_is_refused_before_it_is_evaluated(
        monkeypatch):
    def no_eval(*args, **kwargs):
        raise AssertionError("omega was evaluated")

    with monkeypatch.context() as m:
        m.setattr(Monomial, "derivs", no_eval)
        with pytest.raises(ParameterError, match="degree 81, above the series order 80"):
            from_h_and_omega(Identity(), Monomial(0.4, 81), order=80)
        with pytest.raises(ParameterError, match="degree 90, above the series order 80"):
            from_h_and_omega(Identity(), LinearCombo([(1.0, Monomial(0.3, 1)),
                                                      (1.0, Monomial(0.1, 90))]), order=80)
    # Terms that cancel, and zeros above the order, leave omega = 0.3z: g = 0.15z^2.
    cancelled = LinearCombo([(1.0, Monomial(0.3, 1)), (1.0, Monomial(0.1, 90)),
                             (-1.0, Monomial(0.1, 90))])
    padded = SeriesMap(TaylorSeries(np.r_[0.0, 0.3, np.zeros(100)]))
    for omega in (cancelled, padded):
        g = from_h_and_omega(Identity(), omega, order=80).g.series.coefficients
        np.testing.assert_array_equal(g[:3], [0.0, 0.0, 0.15])
        assert not np.any(g[3:])


def test_harmonic_mobius_requirements():
    with pytest.raises(ParameterError):
        harmonic_mobius(Koebe(), 0.3)
    with pytest.raises(NotSensePreservingError):
        harmonic_mobius(Identity(), 1.0)
    f = harmonic_mobius(Mobius(1.0, -0.2, -0.2, 1.0), 0.25j)
    z = 0.3 + 0.1j
    assert f(z) == pytest.approx(f.h(z) + np.conj(0.25j * f.h(z)))


def test_affine_transform_definition(rng):
    f = shear_linear(HalfPlane(), 0.3)
    a = 0.2 - 0.3j
    fa = affine_transform(f, a)
    z = disc_points(rng, 10, r_hi=0.7)
    np.testing.assert_allclose(fa(z), f(z) + a * np.conj(f(z)), rtol=1e-11)
    with pytest.raises(NotSensePreservingError):
        affine_transform(f, 1.1)


def test_shear_phi_lambda(rng):
    f = shear_linear(Identity(), 0.4)
    phi = shear_phi_lambda(f, 0.5j)
    z = disc_points(rng, 10, r_hi=0.8)
    np.testing.assert_allclose(phi(z), f.h(z) + 0.5j * f.g(z), rtol=1e-12)
    assert shear_phi_lambda(f, 0.0) is f.h


def test_normalization_flag():
    assert shear_linear(Identity(), 0.3).normalized
    assert analytic_as_harmonic(Koebe()).normalized
    shifted = HarmonicMap(Mobius(1.0, 0.5, 0.0, 1.0), Monomial(0.0, 0))
    assert not shifted.normalized


def test_building_a_harmonic_map_evaluates_no_derivative(monkeypatch):
    """normalized is evaluated when first read, once, and not when the map is built."""
    calls = []
    for cls in (Koebe, Monomial):
        monkeypatch.setattr(cls, "derivs", lambda self, z, order=3, first=0, _d=cls.derivs:
                            (calls.append(self), _d(self, z, order, first))[1])
    h, g = Koebe(), Monomial(0.3, 2)
    maps = [HarmonicMap(h, g), as_harmonic(h), analytic_as_harmonic(h)]
    assert calls == []
    for f in maps:
        assert f.normalized
        assert calls == [h, f.g]
        assert f.normalized
        assert calls == [h, f.g]
        calls.clear()


def test_every_catalog_map_is_normalized(catalog_map):
    assert catalog_map.normalized


# Whether a descriptor's map is normalized, as read when HarmonicMap built the flag eagerly.
NORMALIZED = {
    "series": ({"h": {"name": "halfplane"}, "omega": {"expr": "0.4z"}}, True),
    "mobius": ({"h": {"name": "mobius", "params": {"a": 2, "b": 0.5, "c": 0.3, "d": 1}}}, False),
    "compose-sigma": ({"h": {"compose_sigma": {"a": 0.3, "inner": {"expr": "0.5z + 0.1z^2"}}},
                       "omega": {"expr": "0.3z"}}, False),
    "identity-g": ({"h": {"name": "identity"}, "g": {"expr": "0.15z^2"}}, True),
    "identity-omega": ({"h": {"name": "identity"}, "omega": {"expr": "0.3z"}}, True),
    "koebe": ({"h": {"name": "koebe"}}, True),
    "g-at-0": ({"h": {"name": "identity"}, "g": {"expr": "0.15z^2 + 0.1"}}, False),
}


@pytest.mark.parametrize("name", sorted(NORMALIZED))
def test_the_normalized_flag_of_a_descriptor_is_unchanged(name):
    descriptor, want = NORMALIZED[name]
    assert parse_descriptor(descriptor).normalized == want
