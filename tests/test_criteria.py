"""Univalence-criterion verdicts with independent 1-d oracles."""

import re

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from harmdist.analytic import ExpMap, HalfPlane, Identity, Koebe, LogMap
from harmdist.criteria import verdict
from harmdist.descriptors import parse_descriptor
from harmdist.errors import ParameterError, PrecisionError
from harmdist.harmonic import analytic_as_harmonic, harmonic_mobius, shear_linear
from harmdist.norms import DEFAULT_R_MAX, OMEGA_STAR, GridSuprema

GRID = (48, 128)


def judge(name, f, params=None, r_max=DEFAULT_R_MAX, grid=GRID):
    """The verdict of the CRITERIA row ``name`` on f, through the sup engine."""
    return verdict(name, GridSuprema(f, (), r_max, grid), params)


def test_becker_exp_sits_exactly_on_the_threshold():
    v = judge("becker_analytic[paper]", ExpMap(1.0))
    assert v.holds
    assert v.margin == pytest.approx(0.0, abs=1e-12)


def test_becker_variants_disagree_for_exp():
    paper = judge("becker_analytic[paper]", ExpMap(1.0))
    classical = judge("becker_analytic[classical]", ExpMap(1.0))
    assert classical.margin > paper.margin  # the |z| factor only shrinks the sup
    with pytest.raises(ParameterError):
        judge("becker_analytic[bogus]", ExpMap(1.0))


def test_becker_fails_for_halfplane_and_koebe():
    for phi in (HalfPlane(), Koebe()):
        v = judge("becker_analytic[paper]", phi)
        assert not v.holds and v.margin < -1.0


def test_nehari_verdicts():
    assert judge("nehari_analytic", Identity(), {"t": 1.0}).holds
    v = judge("nehari_analytic", LogMap(), {"t": 1.0})
    assert v.holds  # boundary case: norm exactly 2
    assert v.margin == pytest.approx(0.0, abs=1e-9)
    assert not judge("nehari_analytic", Koebe(), {"t": 1.0}).holds
    with pytest.raises(ParameterError):
        judge("nehari_analytic", Identity(), {"t": 1.5})


def test_nehari_harmonic_on_harmonic_mobius():
    v = judge("nehari_harmonic", harmonic_mobius(HalfPlane(), 0.3), {"epsilon": 0.1})
    assert v.holds
    assert v.margin == pytest.approx(0.1, abs=1e-9)
    with pytest.raises(ParameterError):
        judge("nehari_harmonic", harmonic_mobius(Identity(), 0.3), {"epsilon": 0.0})


def test_convexity_verdicts_with_radial_oracle():
    from harmdist.operators import Jet, pre_schwarzian_of

    for phi, expect in ((HalfPlane(), True), (LogMap(), True), (Koebe(), False)):
        v = judge("convexity", phi)
        assert v.holds is expect

    # oracle: Re(1 + z h''/h') for the Koebe map is minimized on the negative
    # real axis, where it diverges to -inf toward the rim; both the verdict
    # and the oracle are capped at r = 0.999, so compare in relative terms
    res = minimize_scalar(
        lambda r: float(np.real(1.0 + (-r) * pre_schwarzian_of(Jet(Koebe(), -r, 2)))),
        bounds=(0.0, 0.999), method="bounded", options={"xatol": 1e-10},
    )
    v = judge("convexity", Koebe())
    assert v.margin == pytest.approx(res.fun, rel=1e-4)


def test_becker_harmonic_functional():
    good = judge("becker_harmonic", shear_linear(Identity(), 0.3))
    assert good.holds
    bad = judge("becker_harmonic", shear_linear(HalfPlane(), 0.4))
    assert not bad.holds  # the analytic term alone exceeds 1 near the rim


def test_theorem_d_margins():
    f = shear_linear(HalfPlane(), 0.4)
    v = judge("theorem_d", f, {"c": 1.0})
    assert v.holds
    assert v.margin == pytest.approx(1.0 - 0.4 * 0.999, abs=1e-9)
    v = judge("theorem_d", f, {"c": 3.0})
    assert not v.holds  # needs ||omega|| < 1/3 but it is ~0.4
    with pytest.raises(ParameterError):
        judge("theorem_d", f, {"c": 0.5})


def test_every_supremum_raises_beyond_the_reliable_radius():
    """Each supremum is read at the r_max it is given, sup |omega| and ||omega*|| too."""
    f = parse_descriptor({"h": {"name": "halfplane"}, "omega": {"expr": "0.4z"}})
    assert f.reliable_radius == pytest.approx(0.7958, abs=1e-4)
    for criterion in ("theorem_d", "becker_harmonic", "nehari_harmonic"):
        with pytest.raises(PrecisionError, match="beyond reliable radius"):
            judge(criterion, f, {"c": 1.0}, 0.999, (16, 64))
    with pytest.raises(PrecisionError, match="beyond reliable radius"):
        GridSuprema(f, (), 0.999, (16, 64)).estimate(OMEGA_STAR)
    assert not f.estimates
    v = judge("theorem_d", f, {"c": 1.0}, f.reliable_radius, (16, 64))
    assert v.holds
    assert v.parameters["r_max"] == f.reliable_radius


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("criterion, param", [("nehari_harmonic", "epsilon"), ("theorem_d", "c")],
                         ids=["nehari_harmonic", "theorem_d"])
def test_non_finite_parameter_is_rejected_before_any_supremum(monkeypatch, criterion, param,
                                                              value):
    def estimate(self, fn):
        raise AssertionError("the supremum was computed")

    monkeypatch.setattr(GridSuprema, "estimate", estimate)
    with pytest.raises(ParameterError, match=f"got {value}"):
        judge(criterion, shear_linear(HalfPlane(), 0.4), {param: value})


def test_an_unknown_row_is_a_parameter_error_before_any_supremum(monkeypatch):
    def estimate(self, fn):
        raise AssertionError("the supremum was computed")

    monkeypatch.setattr(GridSuprema, "estimate", estimate)
    for name in ("becker_analytic", "becker_analytic[bogus]", "theorem_d_harmonic"):
        with pytest.raises(ParameterError, match=re.escape(f"unknown criterion {name!r}")):
            judge(name, ExpMap(1.0))


def test_verdict_payload_shape():
    v = judge("becker_analytic[paper]", ExpMap(1.0))
    assert v.criterion == "becker_analytic[paper]"
    assert isinstance(v.margin, float)
    assert "supremum" in v.parameters


def test_affine_stability_of_becker_maps(rng):
    """phi_lambda = h + lambda g keeps the analytic criterion for |lambda| <= 1."""
    from conftest import shear_phi_lambda

    f = shear_linear(Identity(), 0.3)
    assert judge("becker_harmonic", f).holds
    for _ in range(20):
        lam = rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        phi = shear_phi_lambda(f, lam)
        assert judge("becker_analytic[paper]", phi, grid=(24, 64)).holds
