"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single machine-greppable verdict line of the form

    ACCEPTANCE <nn> <name>: PASS|FAIL

even under pytest's output capture, then asserts.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np
import pytest

from harmdist import bounds as B
from harmdist import criteria as C
from harmdist.analytic import (
    Compose,
    ExpMap,
    HalfPlane,
    Identity,
    Koebe,
    Mobius,
    Monomial,
    disk_automorphism_map,
)
from harmdist.catalog import CATALOG, get_map
from harmdist.harmonic import analytic_as_harmonic, harmonic_mobius, shear_linear
from harmdist.norms import SCHWARZIAN, GridSuprema, polar_grid, sup_weighted
from harmdist.operators import (
    Jet,
    harmonic_pre_schwarzian_of,
    harmonic_schwarzian_of,
    schwarzian_of,
)
from harmdist.verifier import sample_pairs, verify_bound

SEED = 20240
PAIR_SUITES = (("uniform-in-disc", 10_000), ("boundary-biased", 1_000),
               ("near-diagonal", 1_000))


@contextmanager
def verdict(capsys, num: int, name: str):
    """Print the acceptance line for this criterion, even on exceptions."""
    failures: list[str] = []
    try:
        yield failures
    except BaseException:
        with capsys.disabled():
            print(f"ACCEPTANCE {num:02d} {name}: FAIL (exception)")
        raise
    ok = not failures
    with capsys.disabled():
        print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, "; ".join(failures)


def _contain(failures, f, bound, params, label, expect_met=True):
    """Run all three pair suites for one (map, bound) combination."""
    for strategy, count in PAIR_SUITES:
        samples = sample_pairs(strategy, count, SEED, 0.999)
        rep = verify_bound(f, bound, dict(params), samples)
        if rep.hypothesis_met is not expect_met:
            failures.append(f"{label}/{strategy}: hypothesis_met={rep.hypothesis_met}")
        elif rep.violations:
            failures.append(f"{label}/{strategy}: {rep.violations} violations "
                            f"(margins {rep.min_lower_margin}, {rep.min_upper_margin})")


MOBIUS_H = [Identity(), HalfPlane(), Mobius(1.0, -0.2, -0.2, 1.0)]


def test_01_exact_identity(capsys):
    with verdict(capsys, 1, "exact-identity") as failures:
        combos = [(MOBIUS_H[0], 0.0), (MOBIUS_H[0], 0.3), (MOBIUS_H[1], 0.3),
                  (MOBIUS_H[2], 0.6j), (MOBIUS_H[1], 0.6j)]
        for h, alpha in combos:
            f = harmonic_mobius(h, alpha)
            s = sample_pairs("uniform-in-disc", 1000, SEED, 0.999)
            rep = verify_bound(f, "mobius_exact", {}, s)
            if rep.violations:
                failures.append(f"{f.name}: {rep.violations} mismatches")


def test_02_vanishing_schwarzian(capsys):
    with verdict(capsys, 2, "vanishing-schwarzian") as failures:
        z = polar_grid(0.999, 64, 256)
        for name in ("harmonic-mobius-identity-0.3", "harmonic-mobius-halfplane-0.3"):
            s = np.abs(harmonic_schwarzian_of(Jet(get_map(name), z, 3)))
            if s.max() > 1e-9:
                failures.append(f"{name}: max |S_f| = {s.max():.3e}")
        for phi in MOBIUS_H:
            s = np.abs(schwarzian_of(Jet(phi, z, 3)))
            if s.max() > 1e-9:
                failures.append(f"{phi.name}: max |S| = {s.max():.3e}")


def test_03_affine_invariance(capsys, rng):
    from conftest import affine_transform, disc_points

    with verdict(capsys, 3, "affine-invariance") as failures:
        for name in ("shear-halfplane-0.4z", "harmonic-mobius-identity-0.3"):
            f = get_map(name)
            z = disc_points(rng, 500, r_hi=0.9)
            p0 = harmonic_pre_schwarzian_of(Jet(f, z, 2))
            s0 = harmonic_schwarzian_of(Jet(f, z, 3))
            for _ in range(10):
                a = complex(disc_points(rng, 1, r_hi=0.9)[0])
                fa = affine_transform(f, a)
                dp = np.abs(harmonic_pre_schwarzian_of(Jet(fa, z, 2)) - p0).max()
                ds = np.abs(harmonic_schwarzian_of(Jet(fa, z, 3)) - s0).max()
                if dp > 1e-9 or ds > 1e-9:
                    failures.append(f"{name}, a={a:.3f}: dP={dp:.2e} dS={ds:.2e}")


def test_04_schwarz_pick_ceiling(capsys):
    from conftest import omega_star_at

    with verdict(capsys, 4, "schwarz-pick-ceiling") as failures:
        omegas = {
            "0.3z": Monomial(0.3, 1),
            "z": Monomial(1.0, 1),
            "z^2": Monomial(1.0, 2),
            "sigma_0.4(0.8z)": Compose(disk_automorphism_map(0.4), Monomial(0.8, 1)),
        }
        for label, omega in omegas.items():
            est = sup_weighted(lambda z: omega_star_at(omega, z), "omega_star")
            if est.value > 1.0 + 1e-12:
                failures.append(f"{label}: ||omega*|| = {est.value!r}")


def test_05_operator_oracle_agreement(capsys, rng):
    from conftest import disc_points, jacobian, wirtinger_dz

    with verdict(capsys, 5, "operator-oracles") as failures:
        for name in sorted(CATALOG):
            f = get_map(name)
            z = disc_points(rng, 100, r_hi=0.7)
            p = harmonic_pre_schwarzian_of(Jet(f, z, 2))
            p_fd = wirtinger_dz(lambda zz: np.log(jacobian(f, zz)), z)
            s = harmonic_schwarzian_of(Jet(f, z, 3))
            dp_fd = wirtinger_dz(lambda zz: harmonic_pre_schwarzian_of(Jet(f, zz, 2)), z)
            s_fd = dp_fd - 0.5 * p * p
            dp = np.abs(p - p_fd).max()
            ds = np.abs(s - s_fd).max()
            if dp > 1e-5 or ds > 1e-5:
                failures.append(f"{name}: dP={dp:.2e} dS={ds:.2e}")


def test_06_order_fixtures(capsys):
    with verdict(capsys, 6, "order-fixtures") as failures:
        ko = GridSuprema(Koebe()).order().alpha
        if not 1.9999 <= ko <= 2.000001:
            failures.append(f"koebe order {ko!r}")
        hp = GridSuprema(HalfPlane()).order().alpha
        if not 0.9999 <= hp <= 1.000001:
            failures.append(f"halfplane order {hp!r}")
        for phi in (ExpMap(1.0), Identity()):
            if C.verdict("becker_analytic[paper]", GridSuprema(phi)).holds:
                al = GridSuprema(phi).order().alpha
                if al > 1.5 + 1e-6:
                    failures.append(f"{phi.name}: order {al!r} exceeds 3/2")
            else:
                failures.append(f"{phi.name} unexpectedly fails the criterion")


def test_07_schwarzian_norm_fixtures(capsys):
    from harmdist.analytic import LogMap

    with verdict(capsys, 7, "schwarzian-norm-fixtures") as failures:
        ko = GridSuprema(Koebe()).estimate(SCHWARZIAN).value
        if not 5.999 <= ko <= 6.0 + 1e-6:
            failures.append(f"koebe norm {ko!r}")
        lo = GridSuprema(LogMap()).estimate(SCHWARZIAN).value
        if not 1.999 <= lo <= 2.0 + 1e-6:
            failures.append(f"logtype norm {lo!r}")


def test_08_containment_suites(capsys):
    from conftest import growth_sandwich

    with verdict(capsys, 8, "containment-suites") as failures:
        identity, logtype = get_map("identity"), get_map("logtype")

        # Nehari-class lower/upper bounds on the two Schwarzian-small maps
        for f in (identity, logtype):
            _contain(failures, f, "chuaqui_pommerenke", {}, f"cp/{f.name}")
            _contain(failures, f, "mmm", {"t": 1.0}, f"mmm/{f.name}")

        # Becker sandwiches: analytic threshold case and a genuine shear
        _contain(failures, analytic_as_harmonic(ExpMap(1.0)), "becker_analytic",
                 {}, "becker/exp")
        _contain(failures, get_map("shear-identity-0.3z"), "becker_harmonic",
                 {}, "becker/shear-id-0.3")

        # harmonic Nehari on the vanishing-Schwarzian entries
        for name in ("harmonic-mobius-identity-0.3", "harmonic-mobius-halfplane-0.3"):
            _contain(failures, get_map(name), "nehari_harmonic",
                     {"epsilon": 0.1}, f"nehari/{name}")

        # convex-family bounds on all four convex-h maps
        convex_maps = [
            ("id", analytic_as_harmonic(Identity())),
            ("hp", analytic_as_harmonic(HalfPlane())),
            ("id+0.4z", shear_linear(Identity(), 0.4)),
            ("hp+0.4z", shear_linear(HalfPlane(), 0.4)),
        ]
        for label, f in convex_maps:
            for p in (1.1, 2.0, 10.0):
                _contain(failures, f, "kim_minda_convex", {"p": p},
                         f"km(p={p})/{label}")
            _contain(failures, f, "convex_h", {}, f"convex_h/{label}")
            _contain(failures, f, "linconn", {"c": 1.0, "beta": 1.0},
                     f"linconn/{label}")
            _contain(failures, f, "corollary", {"c": 1.0, "beta": 1.0},
                     f"corollary/{label}")

        # growth sandwich for all normalized entries / analytic entries
        for name in sorted(CATALOG):
            _contain(failures, get_map(name), "dhk", {"alpha": 2.0}, f"dhk/{name}")
        for name in ("identity", "halfplane", "koebe", "exp", "logtype"):
            _contain(failures, get_map(name), "blatter", {}, f"blatter/{name}")

        # pointwise growth bounds over a radius sweep, with the extremal
        # equality |k(r)| = upper on the positive real axis
        r = np.linspace(0.005, 0.995, 100)
        lo, up = growth_sandwich(r, 2.0)
        k = np.abs(Koebe()(r))
        if not (np.all(lo <= k + 1e-9) and np.all(k <= up + 1e-9)):
            failures.append("koebe growth sweep not contained")
        if np.abs(k - up).max() > 1e-9 * np.abs(up).max():
            failures.append("koebe growth upper bound not attained at real r")
        lo, up = growth_sandwich(r, 1.0)
        h = np.abs(HalfPlane()(r))
        if not (np.all(lo <= h + 1e-9) and np.all(h <= up + 1e-9)):
            failures.append("halfplane growth sweep not contained")


def test_09_reduction_identities(capsys, rng):
    from conftest import disc_points

    with verdict(capsys, 9, "reduction-identities") as failures:
        from harmdist.analytic import LogMap

        a = disc_points(rng, 500, r_hi=0.95)
        b = disc_points(rng, 500, r_hi=0.95)
        f = analytic_as_harmonic(LogMap())
        hb = B.becker_harmonic_bounds(B.pair_jet(f, a, b))
        an = B.becker_analytic_bounds(B.pair_jet(LogMap(), a, b))
        if (np.abs(hb.lower - an.lower).max() > 1e-14 * np.abs(an.lower).max()
                or np.abs(hb.upper - an.upper).max() > 1e-14 * np.abs(an.upper).max()):
            failures.append("becker harmonic != analytic for g = 0")
        nb = B.nehari_harmonic_bounds(B.pair_jet(f, a, b))
        lo = B.chuaqui_pommerenke_lower(B.pair_jet(f, a, b)).lower
        up = B.mmm_upper(B.pair_jet(LogMap(), a, b), t=1.0).upper
        if (np.abs(nb.lower - lo).max() > 1e-14 * np.abs(lo).max()
                or np.abs(nb.upper - up).max() > 1e-14 * np.abs(up).max()):
            failures.append("nehari harmonic reduction broken for g = 0")


def test_10_negative_controls(capsys):
    with verdict(capsys, 10, "negative-controls") as failures:
        if C.verdict("convexity", GridSuprema(Koebe())).holds:
            failures.append("koebe passed the convexity check")
        if C.verdict("becker_analytic[paper]", GridSuprema(Koebe())).holds:
            failures.append("koebe passed the Becker criterion")
        rep = verify_bound(
            analytic_as_harmonic(Koebe()), "dhk", {"alpha": 1.0},
            sample_pairs("uniform-in-disc", 10_000, SEED, 0.999),
        )
        if rep.violations == 0:
            failures.append("under-ordered growth sandwich not flagged")


def test_11_determinism(capsys, tmp_path):
    from harmdist.cli import EXIT_OK, main

    with verdict(capsys, 11, "byte-identical-reports") as failures:
        outs = [tmp_path / "run1", tmp_path / "run2"]
        for out in outs:
            code = main(["verify", "--bound", "becker_harmonic",
                         "--map", "shear-identity-0.3z", "--seed", "42",
                         "--pairs", "1000", "--out", str(out)])
            if code != EXIT_OK:
                failures.append(f"verify exited {code}")
        for strategy in ("uniform-in-disc", "boundary-biased", "near-diagonal"):
            name = f"becker_harmonic-{strategy}.json"
            b1, b2 = (out / name for out in outs)
            if not (b1.exists() and b2.exists()):
                failures.append(f"{name} missing")
            elif b1.read_bytes() != b2.read_bytes():
                failures.append(f"{name} differs between runs")
            else:
                json.loads(b1.read_text())  # and it is valid JSON
