"""Supremum engine and named norms, with 1-d maximization oracles."""

import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from conftest import block_edges, omega_star_at
from harmdist import norms, series
from harmdist.analytic import ExpMap, HalfPlane, Identity, Koebe, LogMap, Monomial
from harmdist.catalog import CATALOG, get_map
from harmdist.cli import ANALYZE_FUNCTIONALS
from harmdist.descriptors import parse_descriptor
from harmdist.errors import HarmdistError, NonFiniteError, ParameterError, SingularError
from harmdist.harmonic import HarmonicMap, as_harmonic, shear_linear
from harmdist.norms import (
    BECKER_HARMONIC,
    DEFAULT_R_MAX,
    HARMONIC_SCHWARZIAN,
    OMEGA_ABS,
    PRE_SCHWARZIAN,
    PRE_SCHWARZIAN_Z,
    SCHWARZIAN,
    Functional,
    GridSuprema,
    beta_lambda,
    polar_grid,
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
    coarse = func(polar_grid(0.9, 6, 7)).max()
    refined = sup_weighted(func, "toy", 0.9, (6, 7))
    assert refined.value >= coarse


def test_sup_engine_rejects_non_finite_grid_values():
    func = lambda z: np.where(np.abs(z) > 0.9, np.nan, np.abs(z))
    with pytest.raises(HarmdistError, match="toy: functional value nan at z = "):
        sup_weighted(func, "toy")


def test_sup_engine_rejects_non_finite_refinement_values():
    # finite on the grid, NaN at every pattern-search candidate off it
    on_grid = polar_grid(0.9, 8, 16)
    func = lambda z: np.where(np.isin(z, on_grid), np.abs(z), np.nan)
    grid_values = func(on_grid)
    assert np.isfinite(grid_values).all()
    assert grid_values.max() == pytest.approx(0.9)
    with pytest.raises(NonFiniteError, match="toy"):
        sup_weighted(func, "toy", 0.9, (8, 16))


def test_schwarzian_norm_fixtures_vs_oracle():
    est = GridSuprema(Koebe(), (), DEFAULT_R_MAX, GRID).estimate(SCHWARZIAN)
    oracle = _oracle_radial(
        lambda z: SCHWARZIAN.formula(Jet(Koebe(), z, SCHWARZIAN.order)))
    assert est.value == pytest.approx(6.0, abs=2e-4)
    assert est.value == pytest.approx(oracle, rel=1e-6)

    est = GridSuprema(LogMap(), (), DEFAULT_R_MAX, GRID).estimate(SCHWARZIAN)
    assert est.value == pytest.approx(2.0, abs=2e-4)


def test_pre_schwarzian_norm_variants():
    # (1 - |z|^2)|P exp| = 1 - |z|^2 -> sup exactly 1 at z = 0
    est = GridSuprema(ExpMap(1.0), (), DEFAULT_R_MAX, GRID).estimate(PRE_SCHWARZIAN)
    assert est.value == pytest.approx(1.0, abs=1e-12)
    assert est.argmax_point == 0.0
    # classical variant multiplies by |z| and peaks at r = 1/sqrt(3)
    est = GridSuprema(ExpMap(1.0), (), DEFAULT_R_MAX, GRID).estimate(PRE_SCHWARZIAN_Z)
    assert est.value == pytest.approx(2.0 / (3.0 * np.sqrt(3.0)), abs=1e-6)


def test_harmonic_schwarzian_norm_of_harmonic_mobius():
    from harmdist.harmonic import harmonic_mobius

    f = harmonic_mobius(HalfPlane(), 0.3)
    est = GridSuprema(f, (), DEFAULT_R_MAX, GRID).estimate(HARMONIC_SCHWARZIAN)
    assert est.value <= 1e-9


def test_omega_inf_norm():
    f = shear_linear(Identity(), 0.3)
    est = GridSuprema(f, (), DEFAULT_R_MAX, GRID).estimate(OMEGA_ABS)
    # sup |0.3 z| on |z| <= 0.999
    assert est.value == pytest.approx(0.3 * 0.999, rel=1e-9)


def test_omega_star_norm_schwarz_pick_ceiling():
    for omega in (Monomial(0.3, 1), Monomial(1.0, 1), Monomial(1.0, 2)):
        est = sup_weighted(lambda z: omega_star_at(omega, z), "omega_star", 0.999, GRID)
        assert est.value <= 1.0 + 1e-12


def test_becker_harmonic_norm_zero_dilatation_reduces():
    # for g = 0 the functional is the classical |z P| form
    from harmdist.harmonic import analytic_as_harmonic

    f = analytic_as_harmonic(ExpMap(1.0))
    est = GridSuprema(f, (), DEFAULT_R_MAX, GRID).estimate(BECKER_HARMONIC)
    ref = GridSuprema(ExpMap(1.0), (), DEFAULT_R_MAX, GRID).estimate(PRE_SCHWARZIAN_Z)
    assert est.value == pytest.approx(ref.value, rel=1e-9)


def test_order_fixtures_vs_radial_oracle():
    from harmdist.norms import ORDER

    est = GridSuprema(Koebe(), (), DEFAULT_R_MAX, GRID).order()
    assert est.alpha == pytest.approx(2.0, abs=1e-4)
    assert est.alpha == pytest.approx(_oracle_radial(
        lambda z: ORDER.formula(Jet(Koebe(), z, ORDER.order))), rel=1e-5)
    est = GridSuprema(HalfPlane(), (), DEFAULT_R_MAX, GRID).order()
    assert est.alpha == pytest.approx(1.0, abs=1e-4)


def test_order_renormalizes_when_needed():
    from harmdist.analytic import Affine

    shifted = Affine(Koebe(), 2.0, 0.5, name="scaled-koebe")
    est = GridSuprema(shifted, (), DEFAULT_R_MAX, GRID).order()
    assert not est.normalized
    assert est.alpha == pytest.approx(2.0, abs=1e-4)


def test_beta_lambda_policy():
    def sups(c):  # omega = c z, so ||omega*|| = c
        return GridSuprema(shear_linear(Identity(), c), (), DEFAULT_R_MAX, GRID)

    assert beta_lambda(1.0, sups(0.5)) == pytest.approx(1.5, abs=1e-6)
    assert beta_lambda(2.0, sups(1.0)) == 2.0  # capped
    with pytest.raises(ParameterError):
        beta_lambda(0.5, sups(0.3))


# --- the estimates a harmonic map keeps: one per (functional, r_max, grid) ---

def test_an_estimate_is_kept_per_map_r_max_and_grid(estimates_made):
    made = estimates_made
    f = shear_linear(Identity(), 0.3)
    first = GridSuprema(f, (), 0.9, GRID).estimate(OMEGA_ABS)
    assert GridSuprema(f, (), 0.9, GRID).estimate(OMEGA_ABS) is first
    assert len(made) == 1
    GridSuprema(f, (), 0.8, GRID).estimate(OMEGA_ABS)
    GridSuprema(f, (), 0.9, (16, 64)).estimate(OMEGA_ABS)
    again = GridSuprema(shear_linear(Identity(), 0.3), (), 0.9, GRID).estimate(OMEGA_ABS)
    assert len(made) == 4
    assert again == first and again is not first
    assert len(f.estimates) == 3


def test_an_estimate_that_raised_is_not_kept(estimates_made):
    made = estimates_made
    f = HarmonicMap(Identity(), Monomial(0.99, 2))  # |omega| = 1.98|z| reaches 1
    for _ in range(2):
        with pytest.raises(SingularError):
            GridSuprema(f, (), 0.9, GRID).estimate(HARMONIC_SCHWARZIAN)
    assert f.estimates == {}
    assert made == []
    assert GridSuprema(f, (), 0.45, GRID).estimate(HARMONIC_SCHWARZIAN).value >= 0.0
    assert len(f.estimates) == 1


# --- GridSuprema's blocks: the bits of one whole-grid jet, the caller's errstate ---

BLOCKED_GRID = (128, 1024)  # 131,073 points: eight blocks of the grid scan
BLOCKED_MAPS = {
    "harmonic-mobius-halfplane-0.3": lambda: get_map("harmonic-mobius-halfplane-0.3"),
    "series": lambda: parse_descriptor({"h": {"name": "halfplane"}, "omega": {"expr": "0.4z"}}),
}


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("name", sorted(BLOCKED_MAPS))
def test_grid_suprema_blocks_keep_the_bits_of_one_grid_jet(monkeypatch, name, cpus):
    """Each block's values, as the workers reduce them, are the whole-grid jet's bits."""
    monkeypatch.setattr(series, "_cpus", lambda: cpus)
    reduced = []  # (lo, values) per formula and block, in each block's formula order

    def peak(z, v, kind, lo=0, _orig=norms._peak):
        reduced.append((lo, np.array(v, dtype=float)))
        return _orig(z, v, kind, lo)

    monkeypatch.setattr(norms, "_peak", peak)
    f = BLOCKED_MAPS[name]()
    r_max = min(DEFAULT_R_MAX, f.reliable_radius)
    z = polar_grid(r_max, *BLOCKED_GRID)
    GridSuprema(f, ANALYZE_FUNCTIONALS, r_max, BLOCKED_GRID)
    by_block = {}
    for lo, v in reduced:
        by_block.setdefault(lo, []).append(v)
    assert len(by_block) == 8
    assert all(len(vs) == len(ANALYZE_FUNCTIONALS) for vs in by_block.values())
    jet = Jet(f, z, max(fn.order for fn in ANALYZE_FUNCTIONALS))
    for k, fn in enumerate(ANALYZE_FUNCTIONALS):
        got = np.concatenate([by_block[lo][k] for lo in sorted(by_block)])
        want = np.asarray(fn.formula(jet), dtype=float)
        assert got.tobytes() == want.tobytes(), fn.kind


def _pole_in_block(block, r_max=0.9, blocks=8):
    """A functional that divides by zero at one grid point, in block ``block`` only."""
    z = polar_grid(r_max, *BLOCKED_GRID)
    edges = [z.size * j // blocks for j in range(blocks + 1)]
    pole = z[(edges[block] + edges[block + 1]) // 2]
    return Functional("pole", lambda jet: np.abs(1.0 / (jet.z - pole)), 1)


@pytest.mark.parametrize("block", range(8))
def test_grid_suprema_blocks_raise_under_the_callers_errstate(monkeypatch, block):
    monkeypatch.setattr(series, "_cpus", lambda: 3)
    fn = _pole_in_block(block)
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        GridSuprema(Identity(), [fn], 0.9, BLOCKED_GRID).estimate(fn)


@pytest.mark.parametrize("block", range(8))
def test_grid_suprema_blocks_stay_silent_under_the_callers_errstate(monkeypatch, block):
    monkeypatch.setattr(series, "_cpus", lambda: 3)
    fn = _pole_in_block(block)
    with warnings.catch_warnings(record=True) as caught, np.errstate(all="ignore"):
        warnings.simplefilter("always")
        with pytest.raises(NonFiniteError, match="pole: functional value"):
            GridSuprema(Identity(), [fn], 0.9, BLOCKED_GRID).estimate(fn)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_grid_suprema_raises_where_one_grid_jet_raises(monkeypatch):
    """Making the object raises the error of the whole-grid formula, and keeps no estimate."""
    monkeypatch.setattr(series, "_cpus", lambda: 3)
    f = HarmonicMap(Identity(), Monomial(0.99, 2))  # |omega| = 1.98|z| reaches 1
    with pytest.raises(SingularError) as blocked:
        GridSuprema(f, [PRE_SCHWARZIAN, HARMONIC_SCHWARZIAN], 0.999, BLOCKED_GRID)
    with pytest.raises(SingularError) as whole:
        HARMONIC_SCHWARZIAN.formula(Jet(f, polar_grid(0.999, *BLOCKED_GRID), 3))
    assert str(blocked.value) == str(whole.value)
    assert f.estimates == {}
    assert GridSuprema(f, (), 0.999, BLOCKED_GRID).estimate(PRE_SCHWARZIAN).value == 0.0
    assert len(f.estimates) == 1


def test_grid_suprema_builds_no_grid_jet_after_a_block_raises(monkeypatch):
    """The error comes from the blocks' own jets: no jet over the whole grid follows."""
    monkeypatch.setattr(series, "_cpus", lambda: 3)
    sizes = []  # list.append is atomic, unlike += across threads

    class Counted(Jet):
        def __init__(self, f, z, order):
            sizes.append(np.size(z))
            super().__init__(f, z, order)

    monkeypatch.setattr(norms, "Jet", Counted)
    f = HarmonicMap(Identity(), Monomial(0.99, 2))
    with pytest.raises(SingularError):
        GridSuprema(f, [PRE_SCHWARZIAN, HARMONIC_SCHWARZIAN], 0.999, BLOCKED_GRID)
    edges = block_edges(BLOCKED_GRID[0] * BLOCKED_GRID[1] + 1)
    assert 0 < len(sizes) <= len(edges) - 1
    assert set(sizes) <= set(np.diff(edges).tolist())
    assert f.estimates == {}


def _fails_in_blocks(kind, blocks, error, r_max=0.9):
    """A functional that fails at the middle grid point of each of ``blocks`` only.

    ``error`` is the exception type it raises there, or None: then its value
    there is NaN.
    """
    z = polar_grid(r_max, *BLOCKED_GRID)
    edges = block_edges(z.size)
    bad = [z[(edges[j] + edges[j + 1]) // 2] for j in blocks]

    def formula(jet):
        v = np.abs(jet.z)
        for point in bad:
            if error is not None and (jet.z == point).any():
                raise error(f"{kind}: fails at z = {complex(point)}")
            v[jet.z == point] = np.nan
        return v

    return Functional(kind, formula, 1), [complex(point) for point in bad]


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("nan_first", [True, False], ids=["nan-first", "raise-first"])
def test_the_scan_raises_the_first_failing_blocks_first_failing_functional(
        monkeypatch, nan_first, cpus):
    """Failures in blocks 2 and 6 of eight: block 2's, and in it the first functional's."""
    monkeypatch.setattr(series, "_cpus", lambda: cpus)
    late, _ = _fails_in_blocks("late", [6], SingularError)
    nan, (nan_at, _) = _fails_in_blocks("nan", [2, 6], None)
    boom, (boom_at,) = _fails_in_blocks("boom", [2], SingularError)
    fns = [late, nan, boom] if nan_first else [late, boom, nan]
    f = as_harmonic(Identity())
    with pytest.raises(HarmdistError) as failed:
        GridSuprema(f, fns, 0.9, BLOCKED_GRID)
    if nan_first:
        assert type(failed.value) is NonFiniteError
        assert str(failed.value) == f"nan: functional value nan at z = {nan_at}"
    else:
        assert type(failed.value) is SingularError
        assert str(failed.value) == f"boom: fails at z = {boom_at}"
    assert f.estimates == {}


# --- GridSuprema's block points: the bits of the whole grid, and no grid kept ---

def _whole_grid(r_max, nr, ntheta):
    """The polar grid as one array expression over all its points."""
    i = np.arange(1, nr + 1)
    radii = r_max * np.sin(0.5 * np.pi * i / nr)
    theta = 2.0 * np.pi * np.arange(ntheta) / ntheta
    return np.concatenate([[0.0 + 0.0j], np.outer(radii, np.exp(1j * theta)).ravel()])


POINT_GRIDS = {"one-block": (24, 64), "eight-blocks": BLOCKED_GRID, "analyze-fine": (256, 1024),
               "mid-row-edges": (100, 333)}


@pytest.mark.parametrize("grid", POINT_GRIDS.values(), ids=POINT_GRIDS.keys())
def test_grid_suprema_blocks_make_the_points_of_the_whole_grid(monkeypatch, grid):
    """Each block's jet, and each argmax lookup, gets polar_grid's points bit for bit."""
    monkeypatch.setattr(series, "_cpus", lambda: 1)  # the blocks' jets come first, in grid order
    made = []

    class Recorded(Jet):
        def __init__(self, f, z, order):
            made.append(np.array(z))
            super().__init__(f, z, order)

    monkeypatch.setattr(norms, "Jet", Recorded)
    r_max, (nr, ntheta) = 0.9, grid
    want = _whole_grid(r_max, nr, ntheta)
    assert polar_grid(r_max, nr, ntheta).view(np.uint64).tobytes() == want.view(np.uint64).tobytes()
    fn = Functional("toy", lambda jet: _toy(jet.z), 1)
    GridSuprema(Identity(), [fn], r_max, grid)
    edges = block_edges(want.size)
    blocks = made[: len(edges) - 1]
    assert [z.size for z in blocks] == np.diff(edges).tolist()
    for lo, z in zip(edges, blocks):
        assert z.view(np.uint64).tobytes() == want[lo : lo + z.size].view(np.uint64).tobytes()
    if ntheta == 333:
        assert any((lo - 1) % ntheta for lo in edges[1:-1])  # a block starts mid-row
    lookups = [0, 1, ntheta, ntheta + 1, want.size - 1, *edges[1:-1],
               *np.random.default_rng(0).integers(0, want.size, 50).tolist()]
    for i in lookups:
        got = norms._grid_points(r_max, nr, ntheta, i, i + 1)
        assert got.view(np.uint64).tobytes() == want[i : i + 1].view(np.uint64).tobytes(), i


# complex128 values a point of its block that each worker holds at most in the
# grid scan of ANALYZE_FUNCTIONALS: the block's points, its jet and omega, and
# one formula's temporaries.  Measured with numpy 2.4: 10.2-10.3 on the series
# map on one CPU and 9.8-10.3 a worker on two, whose omega is formed in the
# rows that hold g', g'' and g''' (12.7 when omega took arrays of its own),
# and 11.15 on koebe on one CPU and 11.1 on two: S_f's Sh has no closed form
# there, and holds h''/h' and 1.5 h''/h' beside S_f's two temporaries.
SCAN_TEMPS = {"series": 11, "koebe": 12}
GUARD_GRID = (512, 1024)  # 524,289 points: 32 blocks, so the grid is 32 blocks' worth


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("name", ["series", "koebe"])
def test_the_grid_scan_holds_a_block_per_worker_and_no_grid(monkeypatch, name, cpus):
    """tracemalloc's peak inside GridSuprema on the functionals analyze reads.

    Each worker holds the points of the block it scans, their jet and a
    formula's temporaries; an array of the grid's points, or of its values,
    exceeds the bound.
    """
    monkeypatch.setattr(series, "_cpus", lambda: cpus)
    f = BLOCKED_MAPS["series"]() if name == "series" else get_map(name)
    r_max = min(DEFAULT_R_MAX, f.reliable_radius)
    edges = block_edges(GUARD_GRID[0] * GUARD_GRID[1] + 1)
    block = max(np.diff(edges))
    workers = min(cpus, len(edges) - 1)  # for_each_block's worker count
    tracemalloc.start()
    try:
        GridSuprema(f, ANALYZE_FUNCTIONALS, r_max, GUARD_GRID)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * SCAN_TEMPS[name] * workers * block


# --- block peaks and lockstep refinement: the estimates of one search per functional ---

def _one_search_estimate(f, fn, r_max, grid, order):
    """fn's estimate as a search of its own makes it: the grid values of one
    jet, the first grid argmax by (|z| to 15 decimals, argument), then a
    compass search on a jet of its own candidates at each step."""
    nr, ntheta = grid
    z = polar_grid(r_max, *grid)
    v = np.asarray(fn.formula(Jet(f, z, order)), dtype=float)
    at = np.flatnonzero(v == v.max())
    i = at[np.lexsort((np.mod(np.angle(z[at]), 2.0 * np.pi), np.round(np.abs(z[at]), 15)))[0]]
    best_z, best_v = complex(z[i]), float(v[i])
    step = max(r_max / nr, 2.0 * np.pi * max(abs(best_z), r_max / nr) / ntheta)
    func = lambda z: fn.formula(Jet(f, z, fn.order))
    sz, sv = best_z, float(func(np.array([best_z]))[0])
    for _ in range(norms.REFINE_ITERS):
        cand = sz + step * np.array([1, -1, 1j, -1j])
        mod = np.maximum(np.abs(cand), 1e-300)
        cand = np.where(mod >= r_max, cand / mod * r_max, cand)
        vals = np.asarray(func(cand), dtype=float)
        k = int(np.argmax(vals))
        if vals[k] > sv:
            sz, sv = complex(cand[k]), float(vals[k])
        else:
            step *= norms.REFINE_CONTRACTION
    if sv > best_v:
        best_z, best_v = sz, sv
    return repr((best_v, best_z, step < norms.REFINE_CONVERGED_STEP))


ALL_MAPS = {**{name: (lambda name=name: get_map(name)) for name in CATALOG},
            "series": BLOCKED_MAPS["series"]}


@pytest.mark.parametrize("grid", [(24, 64), BLOCKED_GRID], ids=["one-block", "eight-blocks"])
@pytest.mark.parametrize("name", sorted(ALL_MAPS))
def test_lockstep_refinement_keeps_the_bits_of_one_search_per_functional(name, grid):
    f = ALL_MAPS[name]()
    r_max = min(DEFAULT_R_MAX, f.reliable_radius)
    sups = GridSuprema(f, ANALYZE_FUNCTIONALS, r_max, grid)
    order = max(fn.order for fn in ANALYZE_FUNCTIONALS)
    for fn in ANALYZE_FUNCTIONALS:
        est = sups.estimate(fn)
        assert repr((est.value, est.argmax_point, est.refined)) == \
            _one_search_estimate(f, fn, r_max, grid, order), fn.kind


def _off_grid_traps(r_max, grid):
    """Two functionals, finite on the grid, that fail at the first refinement candidates."""
    on_grid = polar_grid(r_max, *grid)

    def boom(jet):
        if not np.isin(jet.z, on_grid).all():
            raise SingularError("boom: a point off the grid")
        return np.abs(jet.z)

    nan = Functional("nan", lambda jet: np.where(np.isin(jet.z, on_grid), np.abs(jet.z), np.nan), 1)
    return nan, Functional("boom", boom, 1)


def test_a_refinement_that_raises_raises_the_error_it_raises_alone(grid=GRID):
    """Each trap fails the shared scan as it fails alone; of the two, the first in order."""
    name = "shear-halfplane-0.4z"
    traps = _off_grid_traps(DEFAULT_R_MAX, grid)
    own = []
    for trap, error in zip(traps, (NonFiniteError, SingularError)):
        with pytest.raises(error) as alone:
            GridSuprema(get_map(name), [trap], DEFAULT_R_MAX, grid)
        own.append(alone.value)
        f = get_map(name)
        with pytest.raises(error) as shared:
            GridSuprema(f, [*ANALYZE_FUNCTIONALS, trap], DEFAULT_R_MAX, grid)
        assert str(shared.value) == str(alone.value)
        assert f.estimates == {}
    for order in (traps, traps[::-1]):
        with pytest.raises(HarmdistError) as both:
            GridSuprema(get_map(name), [order[0], *ANALYZE_FUNCTIONALS, order[1]],
                        DEFAULT_R_MAX, grid)
        first = own[traps.index(order[0])]
        assert type(both.value) is type(first) and str(both.value) == str(first)


NAN_ON_GRID = Functional("nan", lambda jet: np.where(jet.z == 0, np.nan, np.abs(jet.z)), 1)


@pytest.mark.parametrize("make, first", [
    (lambda: HarmonicMap(Identity(), Monomial(0.99, 2)), []),  # |omega| = 1.98|z| reaches 1
    (lambda: get_map("shear-halfplane-0.4z"), [NAN_ON_GRID]),
], ids=["singular-on-the-grid", "non-finite-first"])
def test_a_functional_that_fails_on_the_grid_fails_the_scan_with_its_own_error(make, first):
    """On one block the error is that of the first functional, in order, that fails alone."""
    fns = [*first, *ANALYZE_FUNCTIONALS]
    errors = []
    for fn in fns:
        try:
            GridSuprema(make(), [fn], 0.9, GRID)
        except HarmdistError as own:
            errors.append(own)
    assert errors and len(errors) < len(fns)
    f = make()
    with pytest.raises(HarmdistError) as shared:
        GridSuprema(f, fns, 0.9, GRID)
    assert type(shared.value) is type(errors[0]) and str(shared.value) == str(errors[0])
    assert f.estimates == {}


def _lexsort_argmax(z, v):
    at = np.flatnonzero(v == v.max())
    return int(at[np.lexsort((np.mod(np.angle(z[at]), 2.0 * np.pi), np.round(np.abs(z[at]), 15)))[0]])


@pytest.mark.parametrize("seed", range(20))
def test_block_peaks_pick_the_argmax_of_the_whole_lexsort(seed):
    """Ties inside and across blocks, on points in any order, rounded radii included."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 400))
    radii = np.array([0.3, 0.3 + 4e-16, 0.3 + 1e-15, 0.5, 0.0])
    angles = np.array([0.0, 1.0, -1.0, np.pi, -np.pi / 2])
    z = rng.choice(radii, n) * np.exp(1j * rng.choice(angles, n))
    v = rng.choice([0.0, 1.0, 2.0], n, p=[0.2, 0.3, 0.5])
    edges = np.unique(np.concatenate([[0, n], rng.integers(1, n, rng.integers(0, 6))]))
    peaks = [norms._peak(z[lo:hi], v[lo:hi], "toy", int(lo)) for lo, hi in zip(edges, edges[1:])]
    assert norms._grid_peak(lambda lo, hi: z[lo:hi], peaks) == (v.max(), _lexsort_argmax(z, v))


def _blocked_tie(jet):
    return np.floor(4.0 * np.abs(jet.z)) % 2.0  # 1 on the annuli 1/4 <= |z| < 1/2 and |z| >= 3/4


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("formula", [lambda jet: np.zeros(jet.z.shape), _blocked_tie],
                         ids=["whole-grid", "across-blocks"])
def test_a_tie_picks_the_point_of_the_whole_grid_lexsort(monkeypatch, formula, cpus):
    monkeypatch.setattr(series, "_cpus", lambda: cpus)
    fn = Functional("tie", formula, 1)
    z = polar_grid(0.999, *BLOCKED_GRID)
    v = np.asarray(formula(Jet(Identity(), z, 1)))
    edges = [z.size * j // 8 for j in range(9)]
    assert len({j for j in range(8) if (v[edges[j]:edges[j + 1]] == v.max()).any()}) > 1
    est = GridSuprema(Identity(), [fn], 0.999, BLOCKED_GRID).estimate(fn)
    assert est.argmax_point == z[_lexsort_argmax(z, v)]
    assert est.value == v.max()


@pytest.mark.parametrize("cpus", [1, 3])
def test_the_first_non_finite_value_across_blocks_names_its_point(monkeypatch, cpus):
    """NaN and inf in three of eight blocks: the message of the first, in grid order."""
    monkeypatch.setattr(series, "_cpus", lambda: cpus)
    z = polar_grid(0.9, *BLOCKED_GRID)
    bad = {z[100_000]: np.inf, z[60_000]: -np.inf, z[90_000]: np.nan}

    def formula(jet):
        v = np.abs(jet.z)
        for point, value in bad.items():
            v[jet.z == point] = value
        return v

    fn = Functional("spiky", formula, 1)
    whole = formula(Jet(Identity(), z, 1))
    k = np.flatnonzero(~np.isfinite(whole))[0]
    with pytest.raises(NonFiniteError) as blocked:
        GridSuprema(Identity(), [fn], 0.9, BLOCKED_GRID).estimate(fn)
    assert str(blocked.value) == f"spiky: functional value {whole[k]} at z = {complex(z[k])}"
    assert str(blocked.value).startswith("spiky: functional value -inf at z = ")


# --- sup_weighted and the order of a map whose h is not normalized: GridSuprema's blocks ---

def _toy(z):
    return np.abs(z) * (1.0 - np.abs(z) ** 2) * (1.0 + 0.3 * np.cos(3.0 * np.angle(z) - 0.7))


# repr of each estimate, pinned when sup_weighted and the order scanned the
# whole grid with one call; the order as repr((alpha, argmax_point))
PINNED_REPRS = {
    (64, 256): (
        "NormEstimate(value=0.5003702332975938, kind='toy', r_max=0.9, grid=(64, 256), "
        "refined=True, argmax_point=(-0.3964630830622477+0.4197027045093836j))",
        "(2.000000000000034, (0.997752662673543+0j))",
        "NormEstimate(value=0.7980222220860826, kind='omega_star', r_max=0.999, "
        "grid=(64, 256), refined=True, "
        "argmax_point=(0.5775416292745689+0.41446689670446113j))",
    ),
    BLOCKED_GRID: (
        "NormEstimate(value=0.5003702332976261, kind='toy', r_max=0.9, grid=(128, 1024), "
        "refined=True, argmax_point=(0.5617046886064443+0.1334961480372609j))",
        "(2.0000000000000693, (0.9988210681196955+0j))",
        "NormEstimate(value=0.7980222220860826, kind='omega_star', r_max=0.999, "
        "grid=(128, 1024), refined=True, "
        "argmax_point=(0.6671039341879536+0.24557988441392706j))",
    ),
}


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("grid", sorted(PINNED_REPRS), ids=["one-block", "eight-blocks"])
def test_bare_suprema_and_the_renormalized_order_keep_their_pinned_bits(monkeypatch, grid, cpus):
    from harmdist.analytic import Affine

    monkeypatch.setattr(series, "_cpus", lambda: cpus)
    toy, order, omega_star = PINNED_REPRS[grid]
    assert repr(sup_weighted(_toy, "toy", 0.9, grid)) == toy
    est = GridSuprema(Affine(Koebe(), 2.0, 0.5), (), DEFAULT_R_MAX, grid).order()
    assert repr((est.alpha, est.argmax_point)) == order
    assert est.normalized is False
    w = Monomial(0.9, 2)
    est = sup_weighted(lambda z: omega_star_at(w, z), "omega_star", 0.999, grid)
    assert repr(est) == omega_star


def test_sup_weighted_calls_its_function_one_block_at_a_time(monkeypatch):
    monkeypatch.setattr(series, "_cpus", lambda: 3)
    sizes = []  # list.append is atomic, unlike += across threads

    def toy(z):
        sizes.append(np.size(z))
        return _toy(z)

    sup_weighted(toy, "toy", 0.9, BLOCKED_GRID)
    assert len(sizes) > 8
    assert max(sizes) < 2 * series._ELISION_POINTS


def test_the_renormalized_order_reads_h_one_block_at_a_time(monkeypatch):
    from harmdist.analytic import Affine

    monkeypatch.setattr(series, "_cpus", lambda: 3)
    sizes = []

    def derivs(self, z, order=3, first=0, _orig=Koebe.derivs):
        sizes.append(np.size(z))
        return _orig(self, z, order, first)

    monkeypatch.setattr(Koebe, "derivs", derivs)
    sups = GridSuprema(Affine(Koebe(), 2.0, 0.5), (), DEFAULT_R_MAX, BLOCKED_GRID)
    assert not sups.order().normalized
    assert len(sizes) > 8
    assert max(sizes) < 2 * series._ELISION_POINTS


def test_sup_weighted_refuses_a_grid_that_reaches_the_unit_circle():
    from harmdist.errors import DomainError

    with pytest.raises(DomainError):
        sup_weighted(_toy, "toy", 1.0, (8, 16))


BAD_R_MAX = [np.nan, -0.5, 0.0]
BAD_GRIDS = [(0, 16), (2.5, 4), (16, -4), (16,)]


@pytest.mark.parametrize("r_max, grid", [(r, (8, 16)) for r in BAD_R_MAX]
                         + [(0.9, g) for g in BAD_GRIDS],
                         ids=[f"r_max={r}" for r in BAD_R_MAX] + [f"grid={g}" for g in BAD_GRIDS])
def test_a_bad_r_max_or_grid_is_a_parameter_error_before_any_point(r_max, grid):
    f = get_map("shear-halfplane-0.4z")
    points = []
    for part in (f.h, f.g):
        def counted(z, *args, _derivs=part.derivs, **kwargs):
            points.append(np.size(z))
            return _derivs(z, *args, **kwargs)

        object.__setattr__(part, "derivs", counted)
    with pytest.raises(ParameterError):
        GridSuprema(f, [OMEGA_ABS], r_max, grid)
    with pytest.raises(ParameterError):
        GridSuprema(f, (), r_max, grid).estimate(OMEGA_ABS)
    with pytest.raises(ParameterError):
        sup_weighted(lambda z: points.append(np.size(z)) or np.abs(z), "toy", r_max, grid)
    assert points == [] and f.estimates == {}
