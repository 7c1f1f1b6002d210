"""Verification harness: sampling, gating, reports."""

import json
import re
import sys
import warnings

import numpy as np
import pytest

from harmdist import series, verifier
from harmdist.analytic import HalfPlane, Identity, Koebe
from harmdist.catalog import get_map
from harmdist.errors import NotSensePreservingError, ParameterError
from harmdist.harmonic import (
    SENSE_TOL,
    analytic_as_harmonic,
    harmonic_mobius,
    shear_linear,
)
from harmdist.norms import GridSuprema
from harmdist.verifier import (
    BOUND_REGISTRY,
    REL_TOL,
    PairSet,
    sample_pairs,
    verify_bound,
    write_pairs_csv,
    write_report_json,
)

N = 2000  # desk-scale pair counts keep the suite fast
BLOCKED = 100_003  # six blocks of series.for_each_block, enough for three threads


def test_sample_pairs_deterministic_and_in_range():
    for strategy in ("uniform-in-disc", "boundary-biased", "near-diagonal"):
        s1 = sample_pairs(strategy, 500, seed=3, r_max=0.99)
        s2 = sample_pairs(strategy, 500, seed=3, r_max=0.99)
        np.testing.assert_array_equal(s1.a, s2.a)
        np.testing.assert_array_equal(s1.b, s2.b)
        assert np.all(np.abs(s1.a) < 0.99) and np.all(np.abs(s1.b) < 0.99)
    s = sample_pairs("boundary-biased", 500, seed=0, r_max=0.99)
    assert np.abs(s.a).min() >= 0.8 * 0.99 - 1e-12
    s = sample_pairs("near-diagonal", 500, seed=0, r_max=0.99)
    from harmdist.disk import pseudo_hyperbolic

    assert pseudo_hyperbolic(s.a, s.b).max() < 0.05


def test_sample_pairs_validation():
    with pytest.raises(ParameterError):
        sample_pairs("bogus", 10, 0)
    with pytest.raises(ParameterError):
        sample_pairs("uniform-in-disc", 0, 0)
    with pytest.raises(ParameterError, match="seed must be >= 0"):
        sample_pairs("uniform-in-disc", 10, -1)


@pytest.mark.parametrize("r_max", [0.0, -0.5, 1.0, 1.5, np.nan, np.inf])
def test_sample_pairs_rejects_r_max_outside_the_open_unit_interval(r_max):
    """No vacuous pass on an empty sample, no silent skips, no bare OverflowError."""
    with pytest.raises(ParameterError, match=r"r_max must lie in the open interval \(0, 1\)"):
        sample_pairs("uniform-in-disc", 1000, 0, r_max)


def test_registry_covers_all_bounds():
    assert set(BOUND_REGISTRY) == {
        "blatter", "kim_minda_convex", "chuaqui_pommerenke", "mmm", "dhk",
        "becker_analytic", "becker_harmonic", "nehari_harmonic",
        "convex_h", "linconn", "corollary", "mobius_exact",
    }


def test_exact_bound_zero_violations_and_full_tightness():
    f = harmonic_mobius(Identity(), 0.3)
    s = sample_pairs("uniform-in-disc", N, seed=0)
    r = verify_bound(f, "mobius_exact", {}, s)
    assert r.violations == 0
    assert r.pairs == N
    assert r.tightness == pytest.approx(1.0, abs=1e-12)


def test_hypothesis_gating_skips_evaluation():
    # Koebe is not convex, so the convex lower bound must not be scored
    r = verify_bound(analytic_as_harmonic(Koebe()), "kim_minda_convex", {"p": 2.0},
                     sample_pairs("uniform-in-disc", 200, seed=0))
    assert not r.hypothesis_met
    assert r.pairs == 0 and r.violations == 0


def test_force_overrides_the_gate():
    r = verify_bound(analytic_as_harmonic(Koebe()), "kim_minda_convex",
                     {"p": 2.0, "force": True},
                     sample_pairs("uniform-in-disc", 200, seed=0))
    assert not r.hypothesis_met
    assert r.pairs == 200


def test_detector_flags_deliberate_violations():
    """dhk with alpha = 1, a legal alpha below the order-2 Koebe map's, must report violations."""
    r = verify_bound(analytic_as_harmonic(Koebe()), "dhk",
                     {"alpha": 1.0},
                     sample_pairs("uniform-in-disc", N, seed=0))
    assert r.hypothesis_met
    assert r.violations > 0
    assert r.min_upper_margin < -REL_TOL
    assert r.worst_pair is not None


def test_a_bad_parameter_is_rejected_before_any_supremum_is_read(monkeypatch):
    """Koebe fails the convexity gate, but p is checked before the gate reads a supremum."""
    def estimate(self, fn):
        raise AssertionError("a supremum was read")

    monkeypatch.setattr(GridSuprema, "estimate", estimate)
    f, s = get_map("koebe"), sample_pairs("uniform-in-disc", 200, seed=0)
    with pytest.raises(ParameterError, match=re.escape("p must lie in (1, inf), got nan")):
        verify_bound(f, "kim_minda_convex", {"p": np.nan}, s)


def test_a_parameter_not_given_takes_the_default_and_is_not_recorded():
    """corollary without beta reads beta_lambda with the default beta = 2, as --beta does."""
    f, s = get_map("shear-halfplane-0.4z"), sample_pairs("uniform-in-disc", 300, seed=1)
    bare = verify_bound(f, "corollary", {}, s)
    given = verify_bound(f, "corollary", {"beta": 2.0}, s)
    assert bare.parameters == {"beta_lambda": 2.0}
    assert given.parameters == {"beta": 2.0, "beta_lambda": 2.0}
    assert bare.pairs == given.pairs == 300
    for column in verifier.CSV_COLUMNS:
        assert bare.table[column].tobytes() == given.table[column].tobytes()


def test_prepare_injects_norm_parameters():
    f = shear_linear(HalfPlane(), 0.4)
    s = sample_pairs("uniform-in-disc", 300, seed=1)
    r = verify_bound(f, "convex_h", {}, s)
    assert r.parameters["omega_inf"] == pytest.approx(0.4 * 0.999, rel=1e-6)
    r = verify_bound(f, "corollary", {"c": 1.0, "beta": 1.0}, s)
    assert 1.0 <= r.parameters["beta_lambda"] <= 2.0


@pytest.mark.parametrize("value", [np.nan, -np.inf, -0.5], ids=["nan", "-inf", "negative"])
@pytest.mark.parametrize("bound", ["kim_minda_convex", "convex_h", "linconn"])
def test_bad_caller_omega_inf_is_rejected_not_scored(bound, value):
    """A NaN, -inf or negative ||omega|| is a bad parameter, not a violation."""
    s = sample_pairs("uniform-in-disc", 200, seed=0)
    with pytest.raises(ParameterError, match="omega_inf"):
        verify_bound(get_map("shear-halfplane-0.4z"), bound, {"omega_inf": value}, s)


@pytest.mark.parametrize("value, error, message", [
    (np.nan, ParameterError, "requires omega_inf = sup |omega| >= 0, got nan"),
    (3.0, NotSensePreservingError, "requires ||omega|| < 1"),
], ids=["nan", "3.0"])
@pytest.mark.parametrize("name", ["koebe", "shear-halfplane-0.4z"])
def test_a_given_omega_inf_is_checked_before_the_gate(monkeypatch, name, value, error, message):
    """Koebe fails the convexity gate and the shear meets it: both refuse the same value."""
    def estimate(self, fn):
        raise AssertionError("a supremum was read")

    monkeypatch.setattr(GridSuprema, "estimate", estimate)
    s = sample_pairs("uniform-in-disc", 200, seed=0)
    with pytest.raises(error, match=re.escape(f"kim_minda_convex_lower {message}")):
        verify_bound(get_map(name), "kim_minda_convex", {"omega_inf": value}, s)


@pytest.mark.parametrize("name", ["shear-identity-0.3z", "shear-halfplane-0.4z"])
def test_linconns_c_omega_check_on_a_given_omega_inf_runs_before_the_gate(monkeypatch, name):
    """The identity shear meets theorem_d at c = 3 and the half-plane one does not."""
    def estimate(self, fn):
        raise AssertionError("a supremum was read")

    monkeypatch.setattr(GridSuprema, "estimate", estimate)
    s = sample_pairs("uniform-in-disc", 200, seed=0)
    with pytest.raises(ParameterError,
                       match=re.escape("linconn_bounds hypothesis violated: c ||omega|| >= 1")):
        verify_bound(get_map(name), "linconn", {"c": 3.0, "omega_inf": 0.5}, s)


def test_corollary_estimates_each_supremum_once(estimates_made):
    """The gate's sup |omega| and the prepare step's ||omega*|| are made once per map."""
    kinds = estimates_made
    f = get_map("shear-halfplane-0.4z")
    for strategy in ("uniform-in-disc", "boundary-biased", "near-diagonal"):
        r = verify_bound(f, "corollary", {"c": 1.0, "beta": 1.0},
                         sample_pairs(strategy, 100, seed=0))
        assert r.hypothesis_met and r.pairs == 100
    assert sorted(kinds) == ["omega_inf", "omega_star"]


def test_becker_harmonic_logs_proof_form_comparison():
    f = shear_linear(Identity(), 0.3)
    r = verify_bound(f, "becker_harmonic", {}, sample_pairs("uniform-in-disc", 500, 0))
    assert "proof_form_tighter_pairs" in r.extra


def test_report_serialization_roundtrip(tmp_path):
    f = shear_linear(Identity(), 0.3)
    s = sample_pairs("uniform-in-disc", 300, seed=5)
    r = verify_bound(f, "dhk", {"alpha": 2.0}, s)
    jpath, cpath = tmp_path / "r.json", tmp_path / "r.csv"
    write_report_json(r, jpath)
    write_pairs_csv(r, cpath)
    data = json.loads(jpath.read_text())
    assert data["bound_name"] == "dhk"
    assert data["pairs"] == 300
    assert data["violations"] == 0
    header = cpath.read_text().splitlines()[0].split(",")
    assert header[:6] == ["re_a", "im_a", "re_b", "im_b", "rho", "d"]
    assert len(cpath.read_text().splitlines()) == 301


def test_byte_identical_reports(tmp_path):
    f = shear_linear(Identity(), 0.3)
    blobs = []
    for k in range(2):
        s = sample_pairs("uniform-in-disc", 400, seed=9)
        r = verify_bound(f, "becker_harmonic", {}, s)
        p = tmp_path / f"run{k}.json"
        write_report_json(r, p)
        blobs.append(p.read_bytes())
    assert blobs[0] == blobs[1]


def test_each_sample_point_is_evaluated_once():
    """One verify_bound call runs h.derivs and g.derivs once per sample point."""
    f = get_map("shear-identity-0.3z")
    seen = {"h": 0, "g": 0}
    for part in ("h", "g"):
        m = getattr(f, part)

        def counted(z, order=3, _derivs=m.derivs, _part=part):
            seen[_part] += int(np.size(z))
            return _derivs(z, order)

        object.__setattr__(m, "derivs", counted)
    s = sample_pairs("uniform-in-disc", 500, seed=2)
    r = verify_bound(f, "dhk", {"alpha": 2.0}, s)
    assert r.pairs == 500
    # and dhk's gate, the normalized flag, reads h and g once, at z = 0
    assert seen == {"h": 2 * r.pairs + 1, "g": 2 * r.pairs + 1}


def test_each_sample_point_is_evaluated_once_in_blocks(monkeypatch):
    """The same on pairs that span several blocks, evaluated on worker threads."""
    monkeypatch.setattr(series, "_cpus", lambda: 3)
    f = get_map("shear-identity-0.3z")
    seen = {"h": [], "g": []}  # list.append is atomic, unlike += across threads
    for part in ("h", "g"):
        m = getattr(f, part)

        def counted(z, order=3, _derivs=m.derivs, _part=part):
            seen[_part].append(int(np.size(z)))
            return _derivs(z, order)

        object.__setattr__(m, "derivs", counted)
    s = sample_pairs("uniform-in-disc", BLOCKED, seed=2)
    r = verify_bound(f, "dhk", {"alpha": 2.0}, s)
    assert r.pairs == BLOCKED
    assert max(seen["h"]) < 2 * series._ELISION_POINTS
    assert {k: sum(v) for k, v in seen.items()} == {"h": 2 * r.pairs + 1, "g": 2 * r.pairs + 1}


def test_non_finite_pairs_count_as_violations():
    """A NaN or infinite bound value fails closed.

    At p = 1000 the convex lower bound overflows to NaN or inf on part of
    the sample (harmdist verify --bound kim_minda_convex --map halfplane
    --p 1000 --pairs 20000); every such pair must be counted.
    """
    params = {"epsilon": 0.1, "t": 1.0, "p": 1000.0, "alpha": 2.0, "beta": 2.0, "c": 1.0}
    s = sample_pairs("uniform-in-disc", 20_000, 0, 0.999)
    with np.errstate(over="ignore", invalid="ignore"):
        r = verify_bound(get_map("halfplane"), "kim_minda_convex", params, s)
    t = r.table
    non_finite = ~(np.isfinite(t["lower"]) & np.isfinite(t["actual"]))
    assert np.isnan(t["lower"]).sum() > 0
    with np.errstate(invalid="ignore"):
        failing = t["lower_margin"] < -REL_TOL * np.maximum(1.0, t["actual"])
    assert r.violations == int((non_finite | failing).sum())


def test_caller_errstate_reaches_the_block_workers(monkeypatch):
    """The multi-block form of the test above: the workers run under the caller's errstate."""
    monkeypatch.setattr(series, "_cpus", lambda: 3)
    params = {"epsilon": 0.1, "t": 1.0, "p": 1000.0, "alpha": 2.0, "beta": 2.0, "c": 1.0}
    f = get_map("halfplane")
    s = sample_pairs("uniform-in-disc", BLOCKED, 0, 0.999)
    with pytest.warns(RuntimeWarning):  # numpy's default errstate warns
        verify_bound(f, "kim_minda_convex", params, s)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with np.errstate(over="ignore", invalid="ignore"):
            r = verify_bound(f, "kim_minda_convex", params, s)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    t = r.table
    last_block = slice(-BLOCKED // 4, None)
    assert np.isnan(t["lower"][last_block]).sum() > 0
    non_finite = ~(np.isfinite(t["lower"]) & np.isfinite(t["actual"]))
    with np.errstate(invalid="ignore"):
        failing = t["lower_margin"] < -REL_TOL * np.maximum(1.0, t["actual"])
    assert r.violations == int((non_finite | failing).sum())


def test_block_workers_lose_no_violation(monkeypatch):
    """More workers than cores and a short switch interval: every block's count is kept."""
    monkeypatch.setattr(series, "_cpus", lambda: 4)
    f = analytic_as_harmonic(Koebe())
    s = sample_pairs("uniform-in-disc", 8 * series._ELISION_POINTS + 1, seed=4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        r = verify_bound(f, "dhk", {"alpha": 1.0}, s)
    finally:
        sys.setswitchinterval(interval)
    t = r.table
    failing = np.zeros(r.pairs, dtype=bool)
    for side in ("lower", "upper"):
        failing |= t[f"{side}_margin"] < -REL_TOL * np.maximum(1.0, t["actual"])
    assert 0 < r.violations == int(failing.sum())


def _with_point(samples: PairSet, k: int, z: complex, r_max: float) -> PairSet:
    a = samples.a.copy()
    a[k] = z
    return PairSet(a, samples.b, samples.strategy, samples.seed, r_max)


def test_a_hand_built_pair_set_counts_points_outside_the_disc_and_nan_as_skipped(monkeypatch):
    """Each modulus is taken once: a pair with a point at |z| >= 1 or NaN is skipped, not raised."""
    monkeypatch.setattr(series, "_cpus", lambda: 3)
    s = sample_pairs("uniform-in-disc", BLOCKED, 0)
    a, b = s.a.copy(), s.b.copy()
    a[3], b[40_000], a[70_000], b[BLOCKED - 1] = 1.0, 1.5j, complex(np.nan, 0.0), np.inf
    keep = np.ones(BLOCKED, dtype=bool)
    keep[[3, 40_000, 70_000, BLOCKED - 1]] = False
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_bound(get_map("shear-halfplane-0.4z"), "dhk", {},
                              PairSet(a, b, s.strategy, s.seed, s.r_max))
    assert (report.skipped, report.pairs) == (4, BLOCKED - 4)
    assert report.table["a"].tobytes() == a[keep].tobytes()
    assert report.table["b"].tobytes() == b[keep].tobytes()


def test_a_kept_point_near_the_unit_circle_warns_and_a_skipped_one_does_not():
    near = 1.0 - 5e-13  # within BOUNDARY_FLAG_TOL of the circle, inside r_max
    r_max = 1.0 - 1e-13
    z = np.full(100, 0.3 + 0.1j)
    f = get_map("halfplane")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        skipped = PairSet(np.append(z, near), np.append(-z, 1.0), "uniform-in-disc", 0, r_max)
        assert verify_bound(f, "blatter", {}, skipped).skipped == 1
    with pytest.warns(UserWarning, match="point within 1e-12 of the unit circle"):
        kept = PairSet(np.append(z, near), np.append(-z, 0.5), "uniform-in-disc", 0, r_max)
        assert verify_bound(f, "blatter", {}, kept).skipped == 0


@pytest.mark.parametrize("r_max", [-0.5, np.nan, 0.0, 1.5], ids=["negative", "nan", "zero", "big"])
def test_a_hand_built_pair_set_is_refused_outside_the_open_unit_interval(r_max):
    """No vacuous pass: the sampler's r_max rule holds for every PairSet."""
    z = np.full(1000, 0.3 + 0.1j)
    with pytest.raises(ParameterError, match=re.escape(
            f"r_max must lie in the open interval (0, 1), got {r_max}")):
        verify_bound(get_map("shear-halfplane-0.4z"), "dhk", {},
                     PairSet(z, -z, "uniform-in-disc", 0, r_max))


@pytest.mark.parametrize("a, b, strategy, named", [
    (np.full(1, 0.3j), np.full(5, 0.1), "uniform-in-disc", "one length"),
    (np.full((2, 3), 0.3j), np.full((2, 3), 0.1), "uniform-in-disc", "1-d"),
    (np.full(5, 0.3j), np.full(5, 0.1), "bogus", "unknown strategy 'bogus'"),
], ids=["unequal-lengths", "two-d", "unknown-strategy"])
def test_a_hand_built_pair_set_is_refused_unless_its_pairs_and_strategy_are_sound(
        a, b, strategy, named):
    """No pair is dropped or left unevaluated, and the report names a real strategy."""
    with pytest.raises(ParameterError, match=re.escape(named)):
        PairSet(a, b, strategy, 0, 0.9)


def test_non_sense_preserving_block_raises_the_whole_array_error(monkeypatch):
    monkeypatch.setattr(series, "_cpus", lambda: 3)
    f = shear_linear(Identity(), 2.0)  # omega = 2z, so |omega| >= 1 from |z| = 1/2
    s = _with_point(sample_pairs("uniform-in-disc", BLOCKED, 0, 0.45), BLOCKED // 2, 0.7, 0.9)
    message = f"{f.name}: |omega| >= 1 - {SENSE_TOL} at a queried point"
    with pytest.raises(NotSensePreservingError, match=re.escape(message)):
        verify_bound(f, "blatter", {"force": True}, s)


def test_a_failing_block_evaluates_no_pair_twice(monkeypatch):
    """The error comes from the blocks: no evaluation over all pairs follows."""
    monkeypatch.setattr(series, "_cpus", lambda: 3)
    sizes = []  # list.append is atomic, unlike += across threads

    def counted(f, bound_name, params, a, b, _orig=verifier._evaluate_pairs):
        sizes.append(len(a))
        return _orig(f, bound_name, params, a, b)

    monkeypatch.setattr(verifier, "_evaluate_pairs", counted)
    f = shear_linear(Identity(), 2.0)
    s = _with_point(sample_pairs("uniform-in-disc", BLOCKED, 0, 0.45), BLOCKED // 2, 0.7, 0.9)
    with pytest.raises(NotSensePreservingError):
        verify_bound(f, "blatter", {"force": True}, s)
    assert max(sizes) < 2 * series._ELISION_POINTS
    assert sum(sizes) <= BLOCKED


def test_unknown_bound_rejected():
    with pytest.raises(ParameterError):
        verify_bound(analytic_as_harmonic(Identity()), "nope", {},
                     sample_pairs("uniform-in-disc", 10, 0))
