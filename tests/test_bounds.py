"""Pointwise two-point bound evaluators: degeneracy, symmetry, reductions."""

import numpy as np
import pytest

from conftest import disc_points
from harmdist import bounds as B
from harmdist.analytic import HalfPlane, Identity, Koebe, LogMap, Mobius, Monomial
from harmdist.errors import DomainError, NotSensePreservingError, ParameterError
from harmdist.harmonic import (
    HarmonicMap,
    analytic_as_harmonic,
    harmonic_mobius,
    shear_linear,
)

EVALUATORS = [
    ("blatter", lambda f, a, b: B.blatter_lower(B.pair_jet(f, a, b))),
    ("kim_minda",
     lambda f, a, b: B.kim_minda_convex_lower(B.pair_jet(f, a, b), 2.0, omega_inf=0.3)),
    ("chuaqui_pommerenke", lambda f, a, b: B.chuaqui_pommerenke_lower(B.pair_jet(f, a, b))),
    ("mmm", lambda f, a, b: B.mmm_upper(B.pair_jet(f, a, b), 1.0)),
    ("dhk", lambda f, a, b: B.dhk_bounds(B.pair_jet(f, a, b), 2.0)),
    ("becker_analytic", lambda f, a, b: B.becker_analytic_bounds(B.pair_jet(f, a, b))),
    ("becker_harmonic", lambda f, a, b: B.becker_harmonic_bounds(B.pair_jet(f, a, b))),
    ("nehari_harmonic", lambda f, a, b: B.nehari_harmonic_bounds(B.pair_jet(f, a, b))),
    ("convex_h", lambda f, a, b: B.convex_h_bounds(B.pair_jet(f, a, b), 0.3)),
    ("linconn", lambda f, a, b: B.linconn_bounds(B.pair_jet(f, a, b), 1.0, 1.5, 0.3)),
    ("corollary", lambda f, a, b: B.corollary_bounds(B.pair_jet(f, a, b), 1.5)),
]


def test_pair_jet_keeps_only_what_is_read():
    f = HarmonicMap(Identity(), Monomial(0.6, 2))  # omega = 1.2 z
    jet = B.pair_jet(f, 0.1, 0.2 + 0.1j, B.convex_h_bounds.reads)
    assert jet.a.Rh == pytest.approx(0.99) and jet.a.R is None and jet.a.Q is None
    assert jet.actual == abs(f(0.1) - f(0.2 + 0.1j)) and jet.omega0 is None
    assert jet.a.value is None and jet.b.value is None  # read once, for actual
    with pytest.raises(NotSensePreservingError):
        B.pair_jet(f, 0.1, 0.95)
    with pytest.raises(DomainError):
        B.pair_jet(f, 0.1, 1.2)


@pytest.mark.parametrize("name,ev", EVALUATORS, ids=[n for n, _ in EVALUATORS])
def test_degenerate_pair_gives_zero(name, ev):
    f = shear_linear(Identity(), 0.3)
    pb = ev(f, 0.2 + 0.1j, 0.2 + 0.1j)
    for side in (pb.lower, pb.upper):
        if side is not None:
            assert side == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("name,ev", EVALUATORS, ids=[n for n, _ in EVALUATORS])
def test_symmetry_in_a_b(name, ev, rng):
    f = shear_linear(Identity(), 0.3)
    a = disc_points(rng, 30, r_hi=0.85)
    b = disc_points(rng, 30, r_hi=0.85)
    pb_ab, pb_ba = ev(f, a, b), ev(f, b, a)
    for x, y in ((pb_ab.lower, pb_ba.lower), (pb_ab.upper, pb_ba.upper)):
        if x is not None:
            np.testing.assert_allclose(x, y, rtol=1e-12, atol=1e-12)


def test_harmonic_becker_reduces_to_analytic(rng):
    f = analytic_as_harmonic(LogMap())
    a = disc_points(rng, 25, r_hi=0.8)
    b = disc_points(rng, 25, r_hi=0.8)
    hb = B.becker_harmonic_bounds(B.pair_jet(f, a, b))
    an = B.becker_analytic_bounds(B.pair_jet(LogMap(), a, b))
    np.testing.assert_allclose(hb.lower, an.lower, rtol=1e-14)
    np.testing.assert_allclose(hb.upper, an.upper, rtol=1e-14)


def test_nehari_harmonic_reduces_for_analytic(rng):
    """g = 0: lower is the d sqrt(RR) bound and upper the t=1 sinh bound."""
    a = disc_points(rng, 25, r_hi=0.8)
    b = disc_points(rng, 25, r_hi=0.8)
    f = analytic_as_harmonic(LogMap())
    nb = B.nehari_harmonic_bounds(B.pair_jet(f, a, b))
    lo = B.chuaqui_pommerenke_lower(B.pair_jet(f, a, b))
    up = B.mmm_upper(B.pair_jet(LogMap(), a, b), t=1.0)
    np.testing.assert_allclose(nb.lower, lo.lower, rtol=1e-14)
    np.testing.assert_allclose(nb.upper, up.upper, rtol=1e-14)


def test_corollary_reduces_to_linconn_inner_factor(rng):
    a = disc_points(rng, 25, r_hi=0.8)
    b = disc_points(rng, 25, r_hi=0.8)
    f = analytic_as_harmonic(HalfPlane())
    co = B.corollary_bounds(B.pair_jet(f, a, b), beta_lambda=1.5)
    li = B.linconn_bounds(B.pair_jet(f, a, b), c=1.0, beta=1.5, omega_inf=0.0)
    np.testing.assert_allclose(co.lower, li.lower, rtol=1e-14)
    np.testing.assert_allclose(co.upper, li.upper, rtol=1e-14)


def test_dhk_monotone_in_alpha(rng):
    f = shear_linear(Identity(), 0.3)
    a = disc_points(rng, 40, r_hi=0.9)
    b = disc_points(rng, 40, r_hi=0.9)
    alphas = np.linspace(1.0, 2.0, 6)
    prev = None
    for al in alphas:
        pb = B.dhk_bounds(B.pair_jet(f, a, b), al)
        if prev is not None:
            assert np.all(pb.lower <= prev.lower + 1e-12)
            assert np.all(pb.upper >= prev.upper - 1e-12)
        prev = pb


def test_parameter_validation():
    f = shear_linear(Identity(), 0.3)
    with pytest.raises(ParameterError):
        B.kim_minda_convex_lower(B.pair_jet(f, 0.1, 0.2), p=1.0)
    with pytest.raises(ParameterError):
        B.mmm_upper(B.pair_jet(HalfPlane(), 0.1, 0.2), t=1.5)
    with pytest.raises(ParameterError):
        B.dhk_bounds(B.pair_jet(f, 0.1, 0.2), alpha=0.5)
    with pytest.raises(ParameterError):
        B.dhk_bounds(B.pair_jet(f, 0.1, 0.2), alpha=-1.0)
    with pytest.raises(NotSensePreservingError):
        B.convex_h_bounds(B.pair_jet(f, 0.1, 0.2), omega_inf=1.0)
    with pytest.raises(ParameterError):
        B.linconn_bounds(B.pair_jet(f, 0.1, 0.2), c=0.5)
    with pytest.raises(ParameterError):
        B.linconn_bounds(B.pair_jet(f, 0.1, 0.2), c=3.0, beta=1.0, omega_inf=0.5)
    with pytest.raises(ParameterError):
        B.corollary_bounds(B.pair_jet(f, 0.1, 0.2), beta_lambda=2.5)


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call", [
    lambda jet, v: B.dhk_bounds(jet, alpha=v),
    lambda jet, v: B.kim_minda_convex_lower(jet, p=v, omega_inf=0.3),
    lambda jet, v: B.linconn_bounds(jet, c=v, omega_inf=0.0),  # c ||omega|| is NaN
    lambda jet, v: B.growth_sandwich(Koebe(), 0.5, alpha=v),
], ids=["dhk", "kim_minda_convex", "linconn", "growth_sandwich"])
def test_non_finite_parameter_is_rejected(call, value):
    with pytest.raises(ParameterError, match=f"got {value}"):
        call(B.pair_jet(shear_linear(Identity(), 0.3), 0.1, 0.2), value)


@pytest.mark.parametrize("name", sorted(B.PARAMETERS))
def test_each_parameter_default_lies_in_its_interval(name):
    row = B.PARAMETERS[name]
    assert B.parameter(name) == row.default and row.default in row
    assert np.nan not in row
    assert (row.low in row) is (row.ends[0] == "[")
    assert (row.high in row) is (row.ends[1] == "]")


def test_a_parameter_outside_its_interval_is_named_with_its_value():
    with pytest.raises(ParameterError, match=r"^t must lie in \[0, 1\], got 1.5$"):
        B.parameter("t", 1.5)
    with pytest.raises(ParameterError, match=r"^epsilon must lie in \(0, inf\), got 0.0$"):
        B.check_parameters({"epsilon": 0.0, "omega_inf": 7.0, "force": True})
    B.check_parameters({"p": 1.5, "omega_inf": 7.0})  # a name the table lacks is not checked


@pytest.mark.parametrize("formula, name, extra", [
    (B.kim_minda_convex_lower, "p", {"omega_inf": 0.3}),
    (B.mmm_upper, "t", {}),
    (B.dhk_bounds, "alpha", {}),
    (B.linconn_bounds, "c", {"omega_inf": 0.3}),
    (B.linconn_bounds, "beta", {"omega_inf": 0.3}),
    (B.corollary_bounds, "beta_lambda", {}),
], ids=["kim_minda_convex-p", "mmm-t", "dhk-alpha", "linconn-c", "linconn-beta",
        "corollary-beta_lambda"])
def test_a_formula_called_without_a_parameter_takes_the_table_default(formula, name, extra):
    jet = B.pair_jet(shear_linear(Identity(), 0.3), np.array([0.1, 0.5j]), np.array([0.2, -0.3]))
    bare = formula(jet, **extra)
    given = formula(jet, **extra, **{name: B.PARAMETERS[name].default})
    for side in ("lower", "upper"):
        assert np.array_equal(getattr(bare, side), getattr(given, side))


def test_growth_sandwich_without_alpha_takes_the_table_default():
    assert (B.growth_sandwich(Koebe(), 0.5)
            == B.growth_sandwich(Koebe(), 0.5, alpha=B.PARAMETERS["alpha"].default))


OMEGA_INF_FORMULAS = {
    "kim_minda_convex": lambda jet, w: B.kim_minda_convex_lower(jet, p=2.0, omega_inf=w),
    "convex_h": lambda jet, w: B.convex_h_bounds(jet, omega_inf=w),
    "linconn": lambda jet, w: B.linconn_bounds(jet, c=1.0, beta=1.5, omega_inf=w),
}


@pytest.mark.parametrize("value", [np.nan, -np.inf, -0.5], ids=["nan", "-inf", "negative"])
@pytest.mark.parametrize("bound", sorted(OMEGA_INF_FORMULAS))
def test_bad_omega_inf_is_a_parameter_error(bound, value):
    jet = B.pair_jet(shear_linear(Identity(), 0.3), 0.1, 0.2)
    with pytest.raises(ParameterError, match=f"got {value}"):
        OMEGA_INF_FORMULAS[bound](jet, value)


@pytest.mark.parametrize("value", [1.0, np.inf], ids=["one", "inf"])
@pytest.mark.parametrize("bound", sorted(OMEGA_INF_FORMULAS))
def test_omega_inf_at_or_beyond_one_is_not_sense_preserving(bound, value):
    jet = B.pair_jet(shear_linear(Identity(), 0.3), 0.1, 0.2)
    with pytest.raises(NotSensePreservingError):
        OMEGA_INF_FORMULAS[bound](jet, value)


def test_mobius_exact_identity(rng):
    a = disc_points(rng, 50, r_hi=0.9)
    b = disc_points(rng, 50, r_hi=0.9)
    for h, alpha in ((Identity(), 0.3), (HalfPlane(), 0.6j),
                     (Mobius(1.0, -0.2, -0.2, 1.0), 0.0)):
        f = harmonic_mobius(h, alpha)
        val = B.mobius_exact(B.pair_jet(f, a, b))
        actual = np.abs(f(a) - f(b))
        np.testing.assert_allclose(val, actual, rtol=1e-9, atol=1e-12)
    # coincident points fall back to 0 by continuity
    f = harmonic_mobius(Identity(), 0.3)
    assert B.mobius_exact(B.pair_jet(f, 0.2, 0.2)) == 0.0


def test_growth_sandwich_koebe_equality():
    r = np.linspace(0.01, 0.95, 50)
    lo, up = B.growth_sandwich(Koebe(), r, alpha=2.0)
    k = np.abs(Koebe()(r))
    assert np.all(lo <= k + 1e-12)
    np.testing.assert_allclose(k, up, rtol=1e-9)  # equality at real r
    with pytest.raises(ParameterError):
        B.growth_sandwich(Koebe(), 0.5, alpha=0.5)


def test_convex_h_upper_exceeds_identity_displacement(rng):
    """The corrected distance factor dominates |a - b| for f(z) = z."""
    f = analytic_as_harmonic(Identity())
    a = disc_points(rng, 200, r_hi=0.95)
    b = disc_points(rng, 200, r_hi=0.95)
    pb = B.convex_h_bounds(B.pair_jet(f, a, b), omega_inf=0.0)
    assert np.all(pb.upper >= np.abs(a - b) - 1e-12)
    assert np.all(pb.lower <= np.abs(a - b) + 1e-12)


def test_becker_harmonic_proof_form_reads_the_statement_form(rng):
    """The proof form reads sqrt(Q(a)Q(b)) back from becker_harmonic_bounds' upper side."""
    f = shear_linear(Identity(), 0.3)
    jet = B.pair_jet(f, disc_points(rng, 50, r_hi=0.9), disc_points(rng, 50, r_hi=0.9))
    proof = B.becker_harmonic_proof_upper(jet.d, B.becker_harmonic_bounds(jet).upper)
    direct = np.sqrt((np.exp(3.0 * jet.d) - 1.0) / 3.0 * np.sqrt(jet.a.Q * jet.b.Q))
    np.testing.assert_allclose(proof, direct, rtol=1e-12)
