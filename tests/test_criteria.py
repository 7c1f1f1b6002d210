"""Univalence-criterion verdicts with independent 1-d oracles."""

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from harmdist.analytic import ExpMap, HalfPlane, Identity, Koebe, LogMap
from harmdist.criteria import (
    becker_analytic,
    becker_harmonic,
    convexity_check,
    nehari_analytic,
    nehari_harmonic,
    theorem_d_harmonic,
)
from harmdist.descriptors import parse_descriptor
from harmdist.errors import ParameterError, PrecisionError
from harmdist.harmonic import analytic_as_harmonic, harmonic_mobius, shear_linear
from harmdist.norms import GridSuprema

GRID = (48, 128)


def test_becker_exp_sits_exactly_on_the_threshold():
    v = becker_analytic(ExpMap(1.0), "paper", grid=GRID)
    assert v.holds
    assert v.margin == pytest.approx(0.0, abs=1e-12)


def test_becker_variants_disagree_for_exp():
    paper = becker_analytic(ExpMap(1.0), "paper", grid=GRID)
    classical = becker_analytic(ExpMap(1.0), "classical", grid=GRID)
    assert classical.margin > paper.margin  # the |z| factor only shrinks the sup
    with pytest.raises(ParameterError):
        becker_analytic(ExpMap(1.0), "bogus")


def test_becker_fails_for_halfplane_and_koebe():
    for phi in (HalfPlane(), Koebe()):
        v = becker_analytic(phi, "paper", grid=GRID)
        assert not v.holds and v.margin < -1.0


def test_nehari_verdicts():
    assert nehari_analytic(Identity(), 1.0, grid=GRID).holds
    v = nehari_analytic(LogMap(), 1.0, grid=GRID)
    assert v.holds  # boundary case: norm exactly 2
    assert v.margin == pytest.approx(0.0, abs=1e-9)
    assert not nehari_analytic(Koebe(), 1.0, grid=GRID).holds
    with pytest.raises(ParameterError):
        nehari_analytic(Identity(), 1.5)


def test_nehari_harmonic_on_harmonic_mobius():
    v = nehari_harmonic(harmonic_mobius(HalfPlane(), 0.3), 0.1, grid=GRID)
    assert v.holds
    assert v.margin == pytest.approx(0.1, abs=1e-9)
    with pytest.raises(ParameterError):
        nehari_harmonic(harmonic_mobius(Identity(), 0.3), 0.0)


def test_convexity_verdicts_with_radial_oracle():
    from harmdist.operators import pre_schwarzian

    for phi, expect in ((HalfPlane(), True), (LogMap(), True), (Koebe(), False)):
        v = convexity_check(phi, grid=GRID)
        assert v.holds is expect

    # oracle: Re(1 + z h''/h') for the Koebe map is minimized on the negative
    # real axis, where it diverges to -inf toward the rim; both the verdict
    # and the oracle are capped at r = 0.999, so compare in relative terms
    res = minimize_scalar(
        lambda r: np.real(1.0 + (-r) * pre_schwarzian(Koebe(), -r)),
        bounds=(0.0, 0.999), method="bounded", options={"xatol": 1e-10},
    )
    v = convexity_check(Koebe(), grid=GRID)
    assert v.margin == pytest.approx(res.fun, rel=1e-4)


def test_becker_harmonic_functional():
    good = becker_harmonic(shear_linear(Identity(), 0.3), grid=GRID)
    assert good.holds
    bad = becker_harmonic(shear_linear(HalfPlane(), 0.4), grid=GRID)
    assert not bad.holds  # the analytic term alone exceeds 1 near the rim


def test_theorem_d_margins():
    f = shear_linear(HalfPlane(), 0.4)
    v = theorem_d_harmonic(f, 1.0, grid=GRID)
    assert v.holds
    assert v.margin == pytest.approx(1.0 - 0.4 * 0.999, abs=1e-9)
    v = theorem_d_harmonic(f, 3.0, grid=GRID)
    assert not v.holds  # needs ||omega|| < 1/3 but it is ~0.4
    with pytest.raises(ParameterError):
        theorem_d_harmonic(f, 0.5)


def test_only_theorem_d_caps_r_max_at_the_reliable_radius():
    """sup |omega| is read up to the reliable radius; the weighted norms refuse it."""
    f = parse_descriptor({"h": {"name": "halfplane"}, "omega": {"expr": "0.4z"}})
    assert f.reliable_radius == pytest.approx(0.7958, abs=1e-4)
    v = theorem_d_harmonic(f, 1.0, r_max=0.999, grid=(16, 64))
    assert v.holds
    assert v.parameters["r_max"] == f.reliable_radius
    for criterion in (becker_harmonic, nehari_harmonic):
        with pytest.raises(PrecisionError, match="beyond reliable radius"):
            criterion(f, r_max=0.999, grid=(16, 64))


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("criterion", [nehari_harmonic, theorem_d_harmonic],
                         ids=["nehari_harmonic", "theorem_d"])
def test_non_finite_parameter_is_rejected_before_any_supremum(monkeypatch, criterion, value):
    def estimate(self, fn):
        raise AssertionError("the supremum was computed")

    monkeypatch.setattr(GridSuprema, "estimate", estimate)
    with pytest.raises(ParameterError, match=f"got {value}"):
        criterion(shear_linear(HalfPlane(), 0.4), value)


def test_verdict_payload_shape():
    v = becker_analytic(ExpMap(1.0), "paper", grid=GRID)
    assert v.criterion == "becker_analytic[paper]"
    assert isinstance(v.margin, float)
    assert "supremum" in v.parameters


def test_affine_stability_of_becker_maps(rng):
    """phi_lambda = h + lambda g keeps the analytic criterion for |lambda| <= 1."""
    from harmdist.harmonic import shear_phi_lambda

    f = shear_linear(Identity(), 0.3)
    assert becker_harmonic(f, grid=GRID).holds
    for _ in range(20):
        lam = rng.uniform(0, 1) * np.exp(2j * np.pi * rng.uniform())
        phi = shear_phi_lambda(f, lam)
        assert becker_analytic(phi, "paper", grid=(24, 64)).holds
