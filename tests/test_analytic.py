"""Catalog analytic maps: closed-form derivatives vs independent oracles."""

import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from conftest import disc_points
from harmdist.analytic import (
    Affine,
    AnalyticMap,
    Compose,
    ExpMap,
    HalfPlane,
    Identity,
    Koebe,
    LinearCombo,
    LogMap,
    Mobius,
    Monomial,
    SeriesMap,
    disk_automorphism_map,
    koebe_transform,
)
from harmdist.descriptors import parse_descriptor
from harmdist.errors import DomainError, PrecisionError, SingularError
from harmdist.harmonic import halfplane_shear_g

ALL_MAPS = [
    Identity(),
    HalfPlane(),
    Koebe(),
    ExpMap(1.0),
    ExpMap(0.5 + 0.25j),
    LogMap(),
    Mobius(1.0, -0.2, -0.2, 1.0),
    Monomial(0.5, 3),
    disk_automorphism_map(0.3 - 0.1j),
]


def _fd_derivs(m, z, order, h=1e-3):
    """Central-difference derivatives along the real direction (analytic maps)."""
    out = [m(z)]
    stencils = {
        1: ([-1, 1], [-0.5, 0.5]),
        2: ([-1, 0, 1], [1.0, -2.0, 1.0]),
        3: ([-2, -1, 1, 2], [-0.5, 1.0, -1.0, 0.5]),
    }
    for k in range(1, order + 1):
        offs, wts = stencils[k]
        out.append(sum(w * m(z + o * h) for o, w in zip(offs, wts)) / h**k)
    return out


@pytest.mark.parametrize("m", ALL_MAPS, ids=lambda m: m.name)
def test_derivatives_match_finite_differences(m, rng):
    z = disc_points(rng, 40, r_hi=0.6)
    exact = m.derivs(z, 3)
    fd = _fd_derivs(m, z, 3)
    for k in range(4):
        scale = np.maximum(1.0, np.abs(fd[k]))
        np.testing.assert_allclose(exact[k] / scale, fd[k] / scale, atol=2e-4)


@pytest.mark.parametrize("m", ALL_MAPS, ids=lambda m: m.name)
def test_taylor_agrees_with_map(m, rng):
    s = m.taylor(40)
    r = 0.5 * min(s.reliable_radius, m.reliable_radius)
    z = disc_points(rng, 30, r_hi=r)
    np.testing.assert_allclose(s(z), m(z), rtol=1e-8, atol=1e-10)


def test_koebe_maclaurin_values():
    # k(z) = sum n z^n: derivatives at 0 are (0, 1, 4, 18)
    v = Koebe().derivs(0.0, 3)
    assert [complex(x) for x in v] == pytest.approx([0.0, 1.0, 4.0, 18.0])


def test_mobius_pole_in_disc_rejected():
    with pytest.raises(SingularError):
        Mobius(1.0, 0.0, 1.0, 0.5)  # pole at -0.5
    with pytest.raises(SingularError):
        Mobius(1.0, 2.0, 0.5, 1.0)  # degenerate ad - bc = 0


def test_outside_disc_and_radius_checks():
    with pytest.raises(DomainError):
        Identity()(1.2)
    s = SeriesMap(ExpMap(1.0).taylor(10), name="short-exp")
    s.reliable_radius = 0.3
    with pytest.raises(PrecisionError):
        s(0.5)


def test_compose_faa_di_bruno(rng):
    m = Compose(Koebe(), disk_automorphism_map(0.2 + 0.1j))
    z = disc_points(rng, 20, r_hi=0.5)
    fd = _fd_derivs(m, z, 3)
    exact = m.derivs(z, 3)
    for k in range(4):
        scale = np.maximum(1.0, np.abs(fd[k]))
        np.testing.assert_allclose(exact[k] / scale, fd[k] / scale, atol=2e-4)


def test_linear_combo_derivs(rng):
    m = LinearCombo([(1.0, HalfPlane()), (0.5j, Monomial(1.0, 2))])
    z = disc_points(rng, 10, r_hi=0.6)
    v = m.derivs(z, 2)
    hv = HalfPlane().derivs(z, 2)
    mv = Monomial(1.0, 2).derivs(z, 2)
    for k in range(3):
        np.testing.assert_allclose(v[k], hv[k] + 0.5j * mv[k], rtol=1e-12)


def test_koebe_transform_is_normalized():
    for m in (Koebe(), HalfPlane(), ExpMap(1.0)):
        for a in (0.0, 0.3, -0.2 + 0.4j):
            t = koebe_transform(m, a)
            assert t.is_normalized()


def test_koebe_transform_fixes_koebe_at_zero():
    # at a = 0 the transform is the identity renormalization
    t = koebe_transform(Koebe(), 0.0)
    z = np.array([0.1, 0.2 + 0.1j])
    np.testing.assert_allclose(t(z), Koebe()(z), rtol=1e-12)


def test_monomial_taylor_power_beyond_order():
    s = Monomial(2.0, 7).taylor(3)
    assert s.truncation_order == 3
    assert np.allclose(s.coefficients, 0.0)


@pytest.mark.parametrize("part", ["h", "g"])
def test_derivs_from_first_keep_the_bits_of_the_full_jet(catalog_map, part, rng):
    """first=1 leaves out the value and changes no derivative's bits."""
    m = getattr(catalog_map, part)
    series = parse_descriptor({"h": {"name": "halfplane"}, "omega": {"expr": "0.4z"}}).g
    z = disc_points(rng, 64, r_hi=0.7)
    for f in (m, LinearCombo([(1.0, m), (0.3j, HalfPlane())]), Affine(m, 2.0, 0.5),
              Compose(m, disk_automorphism_map(0.2j)), series):
        for order in range(4):
            full = f.derivs(z, order)
            part_jet = f.derivs(z, order, first=1)
            assert len(part_jet) == order
            for got, want in zip(part_jet, full[1:]):
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class _Logged(np.ndarray):
    """An array that logs each ufunc call it takes part in to ``_Logged.log``.

    Results are logged arrays too, so the log holds every array operation
    computed from it.
    """

    log: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _Logged.log.append(ufunc.__name__)
        inputs = tuple(np.asarray(x) if isinstance(x, _Logged) else x for x in inputs)
        out = getattr(ufunc, method)(*inputs, **kwargs)
        return out.view(_Logged) if isinstance(out, np.ndarray) else out


CLOSED_FORMS = {
    "halfplane": HalfPlane(),
    "koebe": Koebe(),
    "mobius": Mobius(1.0, 0.2, 0.3, 1.0),
    "exp": ExpMap(0.5 + 0.25j),
    "logtype": LogMap(),
    "halfplane-shear-g": halfplane_shear_g(0.4),
}


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_derivs_from_first_do_not_compute_the_value(monkeypatch, name, rng):
    """first=1 makes only operations that first=0 makes, and fewer of them."""
    monkeypatch.setattr(AnalyticMap, "_check",
                        lambda self, z: np.asarray(z, dtype=complex).view(_Logged))
    monkeypatch.setattr(_Logged, "log", [])
    m = CLOSED_FORMS[name]
    z = disc_points(rng, 16, r_hi=0.7)
    for order in range(1, 4):
        ops = {}
        for first in (0, 1):
            _Logged.log.clear()
            m.derivs(z, order, first)
            ops[first] = Counter(_Logged.log)
        assert ops[1] != ops[0] and not ops[1] - ops[0], order


def test_check_takes_the_modulus_once_and_keeps_its_errors_in_order(monkeypatch):
    """DomainError, then the boundary warning, then PrecisionError, from one |z|."""
    series = parse_descriptor({"h": {"name": "halfplane"}, "omega": {"expr": "0.4z"}}).g
    beyond = 0.5 * (1.0 + series.reliable_radius)  # inside the disc, past the reliable radius
    near = 1.0 - 1e-13  # within BOUNDARY_FLAG_TOL of the unit circle
    moduli = []

    def counted_abs(x, *args, _orig=np.abs, **kwargs):
        moduli.append(np.size(x))
        return _orig(x, *args, **kwargs)

    monkeypatch.setattr(np, "abs", counted_abs)
    z = np.array([0.1, 0.2j, -0.3])
    assert HalfPlane()._check(z).tobytes() == z.astype(complex).tobytes()
    assert moduli == [3]

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DomainError, match="outside the open unit disc"):
            series._check(np.array([beyond, 1.0]))
        with pytest.raises(PrecisionError, match="beyond reliable radius"):
            series._check(np.array([0.1, beyond]))
    assert not caught

    for m, raises in ((HalfPlane(), None), (series, PrecisionError)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if raises is None:
                m._check(near)
            else:
                with pytest.raises(raises):
                    m._check(np.array([0.1, near]))
        assert [str(w.message) for w in caught] == [
            "point within 1e-12 of the unit circle; hyperbolic quantities may be inaccurate"]
        assert caught[0].category is UserWarning
        assert caught[0].filename.endswith("analytic.py")


@pytest.mark.parametrize("order, first, bound", [(1, 0, 7), (3, 1, 9)], ids=["pair", "grid"])
@pytest.mark.parametrize("name", ["halfplane", "halfplane-shear-g"])
def test_closed_form_halfplane_derivs_drop_each_temporary_once_read(name, order, first, bound):
    """tracemalloc's peak of derivs in float64 a point: what it returns and two more.

    The two are a power of w = 1 - z and the quotient being formed; w
    itself is dropped after its last power.  Measured with numpy 2.4: 6 at
    order 1 (the verifier's point jets) and 8 for the grid jet's three
    derivatives, where keeping w, or a power once divided by, took 8 and 10.
    """
    m = HalfPlane() if name == "halfplane" else halfplane_shear_g(0.4)
    z = 0.5 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 20_000))
    tracemalloc.start()
    try:
        out = m.derivs(z, order, first)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == order + 1 - first
    assert peak < 8 * bound * len(z)
