"""Differential operators against finite-difference and closed-form oracles."""

import tracemalloc

import numpy as np
import pytest

from conftest import disc_points, jacobian, omega_star_at, wirtinger_dz
from harmdist.analytic import HalfPlane, Identity, Koebe, LogMap, Mobius, Monomial
from harmdist.descriptors import parse_descriptor
from harmdist.errors import DomainError, SingularError
from harmdist.harmonic import HarmonicMap, analytic_as_harmonic, harmonic_mobius, shear_linear
from harmdist.norms import DEFAULT_R_MAX, SCHWARZIAN, GridSuprema, sup_weighted
from harmdist.operators import (
    Jet,
    harmonic_pre_schwarzian_of,
    harmonic_schwarzian_of,
    point_jet,
    pre_schwarzian_of,
    schwarzian_of,
)


def test_pre_schwarzian_closed_forms(rng):
    z = disc_points(rng, 25, r_hi=0.8)
    np.testing.assert_allclose(
        pre_schwarzian_of(Jet(Koebe(), z, 2)), (2.0 * z + 4.0) / (1.0 - z * z), rtol=1e-12
    )
    np.testing.assert_allclose(
        pre_schwarzian_of(Jet(HalfPlane(), z, 2)), 2.0 / (1.0 - z), rtol=1e-12
    )


def test_schwarzian_closed_forms(rng):
    z = disc_points(rng, 25, r_hi=0.8)
    np.testing.assert_allclose(
        schwarzian_of(Jet(Koebe(), z, 3)), -6.0 / (1.0 - z * z) ** 2, rtol=1e-11
    )
    np.testing.assert_allclose(
        schwarzian_of(Jet(LogMap(), z, 3)), 2.0 / (1.0 - z * z) ** 2, rtol=1e-11
    )


def test_schwarzian_vanishes_for_mobius(rng):
    z = disc_points(rng, 25, r_hi=0.9)
    s = schwarzian_of(Jet(Mobius(1.0, -0.2, -0.2, 1.0), z, 3))
    np.testing.assert_allclose(s, 0.0, atol=1e-12)


@pytest.mark.parametrize("make, read", [
    (HalfPlane, 0), (lambda: Mobius(1.0, -0.2, -0.2, 1.0), 0), (Koebe, 3),
], ids=["halfplane", "mobius", "koebe"])
def test_the_schwarzian_norm_reads_an_order_3_jet(rng, monkeypatch, make, read):
    """SCHWARZIAN reads an order-3 jet on every h, with the bits and the norm of a
    jet of only the ``read`` derivatives S h reads: none where h has a closed form."""
    phi = make()
    z = disc_points(rng, 25, r_hi=0.9)
    grid = (8, 32)
    want = schwarzian_of(Jet(phi, z, read))
    want_norm = sup_weighted(lambda z: SCHWARZIAN.formula(Jet(phi, z, read)),
                             SCHWARZIAN.kind, grid=grid)
    orders = []
    derivs = type(phi).derivs
    monkeypatch.setattr(type(phi), "derivs",
                        lambda self, z, k=3, first=0:
                        (orders.append(k), derivs(self, z, k, first=first))[1])
    assert SCHWARZIAN.order == 3
    assert schwarzian_of(Jet(phi, z, SCHWARZIAN.order)).tobytes() == want.tobytes()
    assert set(orders) == {3}
    orders.clear()
    assert GridSuprema(analytic_as_harmonic(phi), (), DEFAULT_R_MAX, grid).estimate(
        SCHWARZIAN) == want_norm
    assert set(orders) == {3}
    with pytest.raises(DomainError):
        schwarzian_of(Jet(phi, np.append(z, 1.0), SCHWARZIAN.order))


def test_vanishing_derivative_raises():
    with pytest.raises(SingularError):
        pre_schwarzian_of(Jet(Monomial(1.0, 2), 0.0, 2))  # phi' = 2z vanishes at 0


def test_harmonic_reduces_to_analytic(rng):
    z = disc_points(rng, 20, r_hi=0.8)
    f = analytic_as_harmonic(Koebe())
    np.testing.assert_allclose(
        harmonic_pre_schwarzian_of(Jet(f, z, 2)), pre_schwarzian_of(Jet(Koebe(), z, 2)),
        rtol=1e-13,
    )
    np.testing.assert_allclose(
        harmonic_schwarzian_of(Jet(f, z, 3)), schwarzian_of(Jet(Koebe(), z, 3)), rtol=1e-13
    )


def test_harmonic_pre_schwarzian_is_dz_log_jacobian(rng):
    """P_f equals the z-Wirtinger derivative of log J_f (oracle)."""
    for f in (shear_linear(HalfPlane(), 0.4), shear_linear(Identity(), 0.3)):
        z = disc_points(rng, 20, r_hi=0.6)
        oracle = wirtinger_dz(lambda zz: np.log(jacobian(f, zz)), z)
        np.testing.assert_allclose(
            harmonic_pre_schwarzian_of(Jet(f, z, 2)), oracle, rtol=1e-5, atol=1e-6
        )


def test_harmonic_schwarzian_from_pre_schwarzian(rng):
    """S_f = d/dz P_f - (1/2) P_f^2, with the derivative finite-differenced."""
    for f in (shear_linear(HalfPlane(), 0.4), shear_linear(Identity(), 0.3)):
        z = disc_points(rng, 20, r_hi=0.6)
        p = harmonic_pre_schwarzian_of(Jet(f, z, 2))
        dp = wirtinger_dz(lambda zz: harmonic_pre_schwarzian_of(Jet(f, zz, 2)), z)
        np.testing.assert_allclose(
            harmonic_schwarzian_of(Jet(f, z, 3)), dp - 0.5 * p * p, rtol=1e-5, atol=1e-6
        )


def test_harmonic_schwarzian_vanishes_for_harmonic_mobius(rng):
    z = disc_points(rng, 30, r_hi=0.9)
    for h, alpha in ((Identity(), 0.3), (HalfPlane(), 0.6j), (Mobius(1.0, -0.2, -0.2, 1.0), 0.25)):
        f = harmonic_mobius(h, alpha)
        np.testing.assert_allclose(harmonic_schwarzian_of(Jet(f, z, 3)), 0.0, atol=1e-10)


def test_omega_star_schwarz_pick(rng):
    z = disc_points(rng, 40, r_hi=0.95)
    for omega in (Monomial(0.3, 1), Monomial(1.0, 1), Monomial(1.0, 2)):
        v = omega_star_at(omega, z)
        assert np.all(v <= 1.0 + 1e-12)
    # omega = z attains equality everywhere
    np.testing.assert_allclose(omega_star_at(Monomial(1.0, 1), z), 1.0, rtol=1e-12)


def test_distortion_quantities(rng):
    f = shear_linear(Identity(), 0.4)
    z = disc_points(rng, 20, r_hi=0.8)
    jet = point_jet(f, z)
    w2 = 1.0 - np.abs(z) ** 2
    np.testing.assert_allclose(jet.R, w2 * (1.0 - 0.4 * np.abs(z)), rtol=1e-12)
    np.testing.assert_allclose(jet.Q, w2 * (1.0 + 0.4 * np.abs(z)), rtol=1e-12)
    np.testing.assert_allclose(jet.Rh, w2, rtol=1e-12)
    # analytic input collapses the three quantities
    jet = point_jet(analytic_as_harmonic(Koebe()), z)
    np.testing.assert_allclose(jet.R, jet.Q, rtol=1e-14)
    np.testing.assert_allclose(jet.R, jet.Rh, rtol=1e-14)


def test_point_jet_drops_each_derivative_once_read():
    """Asked for R_h alone, the jet peaks below 9 float64 a point.

    At most h(z), h', g(z) and g' are alive at once: 8 float64 a point
    (8.16 measured with numpy 2.4 on a series g, whose g(z) and g' are the
    rows of one array).  Forming conj g(z) beside them, or g'/h' for every
    point at once, took 10, and holding the four derivatives until every
    scale was formed took 14.
    """
    f = parse_descriptor({"h": {"name": "halfplane"}, "omega": {"expr": "0.4z"}})
    z = 0.5 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 20_000))
    tracemalloc.start()
    try:
        jet = point_jet(f, z, ("Rh",))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert jet.R is None and jet.h is None and jet.Rh.shape == z.shape
    assert peak < 8 * 9 * len(z)


@pytest.mark.parametrize("n", [None, 1, 2, 50], ids=["scalar", "1", "2", "50"])
def test_point_jet_builds_the_value_in_no_array_it_was_given(rng, n):
    """f(z) goes into g(z)'s buffer only where g(z) is an array of its own.

    The identity map returns z itself, as g(z) or h(z); neither z nor h(z)
    is written, and f(z) has the bits of h(z) + conj(g(z)), on a scalar
    and a one-point g(z), which take a fresh array, too.
    """
    z = disc_points(rng, n or 1, r_hi=0.8)
    z = z[0] if n is None else z
    before = z.copy()
    for f in (HarmonicMap(Monomial(2.0, 1), Identity()), shear_linear(Identity(), 0.3),
              parse_descriptor({"h": {"name": "halfplane"}, "omega": {"expr": "0.4z"}})):
        jet = point_jet(f, z, ("Rh", "h"))
        assert jet.value.tobytes() == (f.h(z) + np.conj(f.g(z))).tobytes()
        assert jet.h.tobytes() == f.h(z).tobytes() and z.tobytes() == before.tobytes()
        assert not np.shares_memory(jet.value, z)


def test_a_jet_view_reads_the_bits_of_a_jet_of_its_own_points(rng):
    """A view shares its parent's derivatives and omega, with the values a jet of its points has."""
    from harmdist.descriptors import parse_descriptor
    from harmdist.operators import harmonic_schwarzian_of, omega_star_of

    f = parse_descriptor({"h": {"name": "halfplane"}, "omega": {"expr": "0.4z"}})
    z = disc_points(rng, 40, r_hi=0.7)
    parent = Jet(f, z, 3)
    for lo, hi in ((0, 1), (3, 7), (7, 40)):
        part, own = parent.view(lo, hi), Jet(f, z[lo:hi], 3)
        for formula in (harmonic_schwarzian_of, omega_star_of):
            assert formula(part).tobytes() == formula(own).tobytes()
    assert all(np.shares_memory(w, parent.omega[k]) for k, w in enumerate(part.omega))

