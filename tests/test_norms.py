"""Supremum engine and named norms, with 1-d maximization oracles."""

import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from harmdist import series
from harmdist.analytic import ExpMap, HalfPlane, Identity, Koebe, LogMap, Monomial
from harmdist.catalog import get_map
from harmdist.cli import ANALYZE_FUNCTIONALS
from harmdist.descriptors import parse_descriptor
from harmdist.errors import HarmdistError, NonFiniteError, ParameterError, SingularError
from harmdist.harmonic import HarmonicMap, shear_linear
from harmdist.norms import (
    DEFAULT_R_MAX,
    HARMONIC_SCHWARZIAN,
    PRE_SCHWARZIAN,
    Functional,
    GridSuprema,
    beta_lambda,
    becker_harmonic_norm,
    harmonic_schwarzian_norm,
    omega_inf_norm,
    omega_star_norm,
    order_of,
    polar_grid,
    pre_schwarzian_norm,
    schwarzian_norm,
    sup_weighted,
)
from harmdist.operators import Jet

GRID = (48, 128)  # slightly coarse for speed; refinement recovers accuracy


def _oracle_radial(func, r_max=0.999):
    """Maximize func(r e^{i theta}) over r for theta in {0, pi} (scipy)."""
    best = func(np.array([0.0 + 0j]))[0]
    for sign in (1.0, -1.0):
        res = minimize_scalar(
            lambda r: -func(np.array([sign * r + 0j]))[0],
            bounds=(0.0, r_max), method="bounded",
            options={"xatol": 1e-12},
        )
        best = max(best, -res.fun)
    return best


def test_polar_grid_contains_origin_and_caps_radius():
    z = polar_grid(0.9, 8, 16)
    assert z[0] == 0.0
    assert np.abs(z).max() == pytest.approx(0.9)
    assert len(z) == 8 * 16 + 1


def test_sup_engine_exact_on_known_functional():
    # func = |z|^2 has supremum r_max^2 on the rim
    est = sup_weighted(lambda z: np.abs(z) ** 2, "toy", 0.9, (16, 32))
    assert est.value == pytest.approx(0.81, rel=1e-6)
    assert abs(est.argmax_point) == pytest.approx(0.9, rel=1e-9)


def test_refinement_never_decreases():
    func = lambda z: np.cos(5.0 * np.angle(z + 1e-30)) * np.abs(z)
    coarse = sup_weighted(func, "toy", 0.9, (6, 7), refine=False)
    refined = sup_weighted(func, "toy", 0.9, (6, 7), refine=True)
    assert refined.value >= coarse.value


def test_sup_engine_rejects_non_finite_grid_values():
    func = lambda z: np.where(np.abs(z) > 0.9, np.nan, np.abs(z))
    with pytest.raises(HarmdistError, match="toy: functional value nan at z = "):
        sup_weighted(func, "toy")


def test_sup_engine_rejects_non_finite_refinement_values():
    # finite on the grid, NaN at every pattern-search candidate off it
    on_grid = polar_grid(0.9, 8, 16)
    func = lambda z: np.where(np.isin(z, on_grid), np.abs(z), np.nan)
    assert sup_weighted(func, "toy", 0.9, (8, 16), refine=False).value == pytest.approx(0.9)
    with pytest.raises(NonFiniteError, match="toy"):
        sup_weighted(func, "toy", 0.9, (8, 16))


def test_schwarzian_norm_fixtures_vs_oracle():
    from harmdist.norms import SCHWARZIAN

    est = schwarzian_norm(Koebe(), grid=GRID)
    oracle = _oracle_radial(SCHWARZIAN.at(Koebe()))
    assert est.value == pytest.approx(6.0, abs=2e-4)
    assert est.value == pytest.approx(oracle, rel=1e-6)

    est = schwarzian_norm(LogMap(), grid=GRID)
    assert est.value == pytest.approx(2.0, abs=2e-4)


def test_pre_schwarzian_norm_variants():
    # (1 - |z|^2)|P exp| = 1 - |z|^2 -> sup exactly 1 at z = 0
    est = pre_schwarzian_norm(ExpMap(1.0), with_z=False, grid=GRID)
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.argmax_point == 0.0
    # classical variant multiplies by |z| and peaks at r = 1/sqrt(3)
    est = pre_schwarzian_norm(ExpMap(1.0), with_z=True, grid=GRID)
    assert est.value == pytest.approx(2.0 / (3.0 * np.sqrt(3.0)), abs=1e-6)


def test_harmonic_schwarzian_norm_of_harmonic_mobius():
    from harmdist.harmonic import harmonic_mobius

    est = harmonic_schwarzian_norm(harmonic_mobius(HalfPlane(), 0.3), grid=GRID)
    assert est.value <= 1e-9


def test_omega_inf_norm():
    f = shear_linear(Identity(), 0.3)
    est = omega_inf_norm(f, grid=GRID)
    # sup |0.3 z| on |z| <= 0.999
    assert est.value == pytest.approx(0.3 * 0.999, rel=1e-9)


def test_omega_star_norm_schwarz_pick_ceiling():
    for omega in (Monomial(0.3, 1), Monomial(1.0, 1), Monomial(1.0, 2)):
        est = omega_star_norm(omega, grid=GRID)
        assert est.value <= 1.0 + 1e-12


def test_becker_harmonic_norm_zero_dilatation_reduces():
    # for g = 0 the functional is the classical |z P| form
    from harmdist.harmonic import analytic_as_harmonic

    f = analytic_as_harmonic(ExpMap(1.0))
    est = becker_harmonic_norm(f, grid=GRID)
    ref = pre_schwarzian_norm(ExpMap(1.0), with_z=True, grid=GRID)
    assert est.value == pytest.approx(ref.value, rel=1e-9)


def test_order_fixtures_vs_radial_oracle():
    from harmdist.norms import ORDER

    est = order_of(Koebe(), grid=GRID)
    assert est.alpha == pytest.approx(2.0, abs=1e-4)
    assert est.alpha == pytest.approx(_oracle_radial(ORDER.at(Koebe())), rel=1e-5)
    est = order_of(HalfPlane(), grid=GRID)
    assert est.alpha == pytest.approx(1.0, abs=1e-4)


def test_order_renormalizes_when_needed():
    from harmdist.analytic import Affine

    shifted = Affine(Koebe(), 2.0, 0.5, name="scaled-koebe")
    est = order_of(shifted, grid=GRID)
    assert not est.normalized
    assert est.alpha == pytest.approx(2.0, abs=1e-4)


def test_beta_lambda_policy():
    assert beta_lambda(1.0, Monomial(0.5, 1), grid=GRID) == pytest.approx(1.5, abs=1e-6)
    assert beta_lambda(2.0, Monomial(1.0, 1), grid=GRID) == 2.0  # capped
    with pytest.raises(ParameterError):
        beta_lambda(0.5, Monomial(0.3, 1))


# --- the estimates a harmonic map keeps: one per (functional, r_max, grid) ---

def _count_estimates(monkeypatch):
    import harmdist.norms as norms

    made = []

    def counted(*args, _orig=norms._estimate, **kwargs):
        made.append(args[3])
        return _orig(*args, **kwargs)

    monkeypatch.setattr(norms, "_estimate", counted)
    return made


def test_an_estimate_is_kept_per_map_r_max_and_grid(monkeypatch):
    made = _count_estimates(monkeypatch)
    f = shear_linear(Identity(), 0.3)
    first = omega_inf_norm(f, 0.9, GRID)
    assert omega_inf_norm(f, 0.9, GRID) is first
    assert len(made) == 1
    omega_inf_norm(f, 0.8, GRID)
    omega_inf_norm(f, 0.9, (16, 64))
    again = omega_inf_norm(shear_linear(Identity(), 0.3), 0.9, GRID)
    assert len(made) == 4
    assert again == first and again is not first
    assert len(f.estimates) == 3


def test_an_estimate_that_raised_is_not_kept(monkeypatch):
    made = _count_estimates(monkeypatch)
    f = HarmonicMap(Identity(), Monomial(0.99, 2))  # |omega| = 1.98|z| reaches 1
    for _ in range(2):
        with pytest.raises(SingularError):
            harmonic_schwarzian_norm(f, 0.9, GRID)
    assert f.estimates == {}
    assert made == []
    assert harmonic_schwarzian_norm(f, 0.45, GRID).value >= 0.0
    assert len(f.estimates) == 1


# --- GridSuprema's blocks: the bits of one whole-grid jet, the caller's errstate ---

BLOCKED_GRID = (128, 1024)  # 131,073 points: five blocks of the grid scan
BLOCKED_MAPS = {
    "harmonic-mobius-halfplane-0.3": lambda: get_map("harmonic-mobius-halfplane-0.3"),
    "series": lambda: parse_descriptor({"h": {"name": "halfplane"}, "omega": {"expr": "0.4z"}}),
}


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("name", sorted(BLOCKED_MAPS))
def test_grid_suprema_blocks_keep_the_bits_of_one_grid_jet(monkeypatch, name, cpus):
    monkeypatch.setattr(series, "_cpus", lambda: cpus)
    f = BLOCKED_MAPS[name]()
    r_max = min(DEFAULT_R_MAX, f.reliable_radius)
    sups = GridSuprema(f, ANALYZE_FUNCTIONALS, r_max, BLOCKED_GRID)
    jet = Jet(f, polar_grid(r_max, *BLOCKED_GRID), max(fn.order for fn in ANALYZE_FUNCTIONALS))
    for fn in ANALYZE_FUNCTIONALS:
        want = np.asarray(fn.formula(jet), dtype=float)
        assert sups._values[fn].tobytes() == want.tobytes(), fn.kind


def _pole_in_block(block, r_max=0.9, blocks=5):
    """A functional that divides by zero at one grid point, in block ``block`` only."""
    z = polar_grid(r_max, *BLOCKED_GRID)
    edges = [z.size * j // blocks for j in range(blocks + 1)]
    pole = z[(edges[block] + edges[block + 1]) // 2]
    return Functional("pole", lambda jet: np.abs(1.0 / (jet.z - pole)), 1)


@pytest.mark.parametrize("block", range(5))
def test_grid_suprema_blocks_raise_under_the_callers_errstate(monkeypatch, block):
    monkeypatch.setattr(series, "_cpus", lambda: 3)
    fn = _pole_in_block(block)
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        GridSuprema(Identity(), [fn], 0.9, BLOCKED_GRID).estimate(fn)


@pytest.mark.parametrize("block", range(5))
def test_grid_suprema_blocks_stay_silent_under_the_callers_errstate(monkeypatch, block):
    monkeypatch.setattr(series, "_cpus", lambda: 3)
    fn = _pole_in_block(block)
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="ignore"):
        warnings.simplefilter("always")
        with pytest.raises(NonFiniteError, match="pole: functional value"):
            GridSuprema(Identity(), [fn], 0.9, BLOCKED_GRID).estimate(fn)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_grid_suprema_raises_where_one_grid_jet_raises(monkeypatch):
    """A block that raises leaves the error to the estimate that meets it."""
    monkeypatch.setattr(series, "_cpus", lambda: 3)
    f = HarmonicMap(Identity(), Monomial(0.99, 2))  # |omega| = 1.98|z| reaches 1
    sups = GridSuprema(f, [PRE_SCHWARZIAN, HARMONIC_SCHWARZIAN], 0.999, BLOCKED_GRID)
    assert sups.estimate(PRE_SCHWARZIAN).value == 0.0
    with pytest.raises(SingularError) as blocked:
        sups.estimate(HARMONIC_SCHWARZIAN)
    with pytest.raises(SingularError) as whole:
        HARMONIC_SCHWARZIAN.formula(Jet(f, polar_grid(0.999, *BLOCKED_GRID), 3))
    assert str(blocked.value) == str(whole.value)
