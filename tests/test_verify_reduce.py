"""verify_bound's reductions and its pair table, against whole-array oracles.

The report's least margins, worst pair, tightness, Becker proof-form count
and violation count must be those of the whole-array reductions over the
report's table: np.argmin and min find the first NaN, ties go to the
earliest pair, and the tightness maximum propagates NaN.  The suites span
six blocks of `series.for_each_block`, on the calling thread (1 CPU) and
on worker threads (3 CPUs).  Marker pairs, found by their pseudo-hyperbolic
distance, have a side of the bound set to NaN or to a value that makes its
margin the least, at chosen pairs: in a late block, on both sides of a
block edge, at a block's first and last pair.

The table stores the pairs, |f(a) - f(b)| and the sides the bound has;
every other column is computed when it is read.  Its columns are pinned to
the bytes of the table that stored all eleven, and the peak memory of
verify_bound is bounded by the stored columns.
"""

import functools
import hashlib
import tracemalloc

import numpy as np
import pytest

from conftest import block_edges
from harmdist import bounds as B
from harmdist import series
from harmdist.catalog import get_map
from harmdist.verifier import (BOUND_REGISTRY, CSV_COLUMNS, REL_TOL, PairSet, sample_pairs,
                               verify_bound)

# float64 values per pair of its block that a worker holds at most: the block's
# pair jet, sides and reductions (14 on one worker with numpy 2.4)
BLOCK_TEMPS = 22
BLOCKED = 100_003  # six blocks of series.for_each_block, enough for three threads
PARAMS = {"epsilon": 0.1, "t": 1.0, "p": 2.0, "alpha": 2.0, "beta": 2.0, "c": 1.0, "force": True}
MOBIUS = "harmonic-mobius-halfplane-0.3"  # where mobius_exact is an identity
ONE_SIDED = {"blatter": ("lower",), "kim_minda_convex": ("lower",),
             "chuaqui_pommerenke": ("lower",), "mmm": ("upper",)}
ALL_SIDES = ("lower", "upper")


def whole_array(report, sides) -> dict:
    """The report's reductions, as whole-array passes over its table."""
    t = report.table
    actual = t["actual"]
    margins = {"lower": actual - t["lower"], "upper": t["upper"] - actual}
    out = {"min_lower_margin": None, "min_upper_margin": None, "worst_pair": None,
           "tightness": None, "proof_form_tighter_pairs": None}
    tol = REL_TOL * np.maximum(1.0, actual)
    viol = ~np.isfinite(actual)
    worst, worst_margin = None, np.inf
    for side in sides:
        margin = margins[side]
        viol |= ~np.isfinite(t[side]) | (margin < -tol)
        if not len(actual):
            continue
        k = int(np.argmin(margin))
        out[f"min_{side}_margin"] = float(margin.min())
        if margin[k] < worst_margin:
            worst, worst_margin = k, float(margin[k])
    out["violations"] = int(viol.sum())
    if worst is not None:
        out["worst_pair"] = (complex(t["re_a"][worst], t["im_a"][worst]),
                             complex(t["re_b"][worst], t["im_b"][worst]))
    if "lower" in sides and len(actual):
        pos = actual > 0
        out["tightness"] = float(np.clip((t["lower"][pos] / actual[pos]).max(initial=0.0),
                                         0.0, 1.0))
    if report.bound_name == "becker_harmonic" and len(actual):
        proof_upper = B.becker_harmonic_proof_upper(t["d"], t["upper"])
        out["proof_form_tighter_pairs"] = int((proof_upper < t["upper"]).sum())
    return out


def assert_reductions_match(report, bound):
    with np.errstate(over="ignore", invalid="ignore"):
        expected = whole_array(report, ONE_SIDED.get(bound, ALL_SIDES))
    got = dict(vars(report), proof_form_tighter_pairs=report.extra.get("proof_form_tighter_pairs"))
    # repr tells NaN, the sign of a zero and a complex pair's bits apart
    assert {k: repr(got[k]) for k in expected} == {k: repr(v) for k, v in expected.items()}
    assert report.pairs == len(report.table["actual"])


@pytest.fixture(scope="module")
def maps():
    return {name: get_map(name) for name in ("shear-halfplane-0.4z", MOBIUS, "halfplane")}


@pytest.fixture(scope="module")
def suite():
    return sample_pairs("uniform-in-disc", BLOCKED, 5)


NATURAL = [(bound, "shear-halfplane-0.4z", {}) for bound in sorted(BOUND_REGISTRY)] + [
    ("mobius_exact", MOBIUS, {}),
    # overflows to NaN or inf on part of the sample, in every block
    ("kim_minda_convex", "halfplane", {"p": 1000.0}),
]


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("bound, name, extra", NATURAL,
                         ids=[f"{b}-{m}-{'-'.join(e)}".rstrip("-") for b, m, e in NATURAL])
def test_blocked_reductions_match_the_whole_array(bound, name, extra, cpus, maps, suite,
                                                  monkeypatch):
    monkeypatch.setattr(series, "_cpus", lambda: cpus)
    r_max = 0.999 if extra else suite.r_max
    samples = sample_pairs("uniform-in-disc", BLOCKED, 5, r_max) if extra else suite
    with np.errstate(over="ignore", invalid="ignore"):
        report = verify_bound(maps[name], bound, dict(PARAMS, **extra), samples)
    assert report.pairs == BLOCKED
    assert_reductions_match(report, bound)
    if extra:
        assert np.isnan(report.min_lower_margin) and report.worst_pair is None


# Marker pairs (x, -x), x real, one per kind of change to the bound's sides.
NAN_LOWER = {"lower": np.nan}
NAN_UPPER = {"upper": np.nan}
LEAST_LOWER = {"lower": 1e300}  # margin actual - 1e300 = -1e300
LEAST_UPPER = {"upper": -1e300}  # margin -1e300 - actual = -1e300
LEAST_BOTH = {"lower": 1e300, "upper": -1e300}
MARKS = [NAN_LOWER, NAN_UPPER, LEAST_LOWER, LEAST_UPPER, LEAST_BOTH]


def marker(kind: dict) -> complex:
    return complex(0.3 + 0.1 * MARKS.index(kind))


def marker_rho(kind: dict) -> float:
    x = marker(kind).real
    return 2.0 * x / (1.0 + x * x)


def marked(formula, kinds):
    """formula, with its sides at the marker pairs of each kind set as the kind says.

    An exact formula's one value takes the first value the kind gives.
    """

    @functools.wraps(formula)
    def wrapped(jet, **params):
        out = formula(jet, **params)
        exact = not isinstance(out, B.PairBound)
        sides = {"lower": out, "upper": None} if exact else {"lower": out.lower, "upper": out.upper}
        sides = {k: None if v is None else np.array(v, dtype=float) for k, v in sides.items()}
        for kind in kinds:
            at = np.abs(np.asarray(jet.rho) - marker_rho(kind)) < 1e-12
            if exact:
                sides["lower"][at] = next(iter(kind.values()))
                continue
            for side, value in kind.items():
                if sides[side] is not None:
                    sides[side][at] = value
        return sides["lower"] if exact else B.PairBound(sides["lower"], sides["upper"])

    return wrapped


def marked_suite(suite: PairSet, marks: list, bound: str, monkeypatch) -> PairSet:
    """suite with the marks' pairs placed, and the bound's formula marking them.

    A kind's first pair is (x, -x) and its next (-x, x): the same rho and,
    once marked, the same margin, so a tie is between two distinct pairs.
    """
    spec = dict(BOUND_REGISTRY[bound])
    spec["formula"] = marked(spec["formula"], [kind for _, kind in marks])
    monkeypatch.setitem(BOUND_REGISTRY, bound, spec)
    a, b = suite.a.copy(), suite.b.copy()
    for i, (k, kind) in enumerate(marks):
        x = marker(kind) * (-1) ** sum(1 for _, other in marks[:i] if other is kind)
        a[k], b[k] = x, -x
    return PairSet(a, b, suite.strategy, suite.seed, suite.r_max)


_E = block_edges(BLOCKED)  # 0, 16667, 33334, 50001, 66668, 83335, 100003
SCENARIOS = {
    "nan-lower-in-a-late-block": [(_E[3] + 7, NAN_LOWER), (_E[3] + 9, NAN_LOWER)],
    "nan-upper-in-a-late-block": [(_E[3] + 7, NAN_UPPER)],
    "nan-after-a-finite-least": [(_E[1] + 3, LEAST_BOTH), (_E[3] + 7, NAN_LOWER)],
    "tie-across-a-block-edge": [(_E[2] - 1, LEAST_BOTH), (_E[2], LEAST_BOTH)],
    "least-at-a-block-first-pair": [(_E[1], LEAST_BOTH)],
    "least-at-a-block-last-pair": [(_E[3] - 1, LEAST_BOTH)],
    "tie-of-the-first-and-last-pairs": [(0, LEAST_BOTH), (BLOCKED - 1, LEAST_BOTH)],
    "tie-across-sides": [(_E[1] + 5, LEAST_UPPER), (_E[2] + 5, LEAST_LOWER)],
}
SCENARIO_BOUNDS = ["dhk", "mmm", "chuaqui_pommerenke", "mobius_exact", "becker_harmonic"]


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("bound", SCENARIO_BOUNDS)
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_marked_pairs_reduce_as_the_whole_array(scenario, bound, cpus, maps, suite, monkeypatch):
    monkeypatch.setattr(series, "_cpus", lambda: cpus)
    marks = SCENARIOS[scenario]
    samples = marked_suite(suite, marks, bound, monkeypatch)
    f = maps[MOBIUS if bound == "mobius_exact" else "shear-halfplane-0.4z"]
    with np.errstate(over="ignore", invalid="ignore"):
        report = verify_bound(f, bound, dict(PARAMS), samples)
    rho = report.table["rho"]
    for _, kind in marks:  # no sampled pair is taken for a marker
        placed = sum(1 for _, other in marks if other is kind)
        assert int((np.abs(rho - marker_rho(kind)) < 1e-12).sum()) == placed
    assert_reductions_match(report, bound)


def test_the_scenarios_reach_the_cases_they_name(maps, suite, monkeypatch):
    """The scenarios' least and NaN margins land where their names say, on dhk."""
    monkeypatch.setattr(series, "_cpus", lambda: 3)
    found = {}
    for scenario, marks in SCENARIOS.items():
        samples = marked_suite(suite, marks, "dhk", monkeypatch)
        with np.errstate(over="ignore"):
            report = verify_bound(maps["shear-halfplane-0.4z"], "dhk", dict(PARAMS), samples)
        a, b = samples.a, samples.b
        worst = None if report.worst_pair is None else int(np.flatnonzero(
            (a == report.worst_pair[0]) & (b == report.worst_pair[1]))[0])
        found[scenario] = (report.min_lower_margin, report.min_upper_margin, worst)
    nan = found["nan-lower-in-a-late-block"]
    assert np.isnan(nan[0]) and np.isfinite(nan[1]) and nan[2] is not None
    nan = found["nan-upper-in-a-late-block"]
    assert np.isfinite(nan[0]) and np.isnan(nan[1]) and nan[2] is not None
    nan = found["nan-after-a-finite-least"]
    assert np.isnan(nan[0]) and nan[1] == -1e300 and nan[2] == _E[1] + 3
    assert found["tie-across-a-block-edge"] == (-1e300, -1e300, _E[2] - 1)
    assert found["least-at-a-block-first-pair"] == (-1e300, -1e300, _E[1])
    assert found["least-at-a-block-last-pair"] == (-1e300, -1e300, _E[3] - 1)
    assert found["tie-of-the-first-and-last-pairs"] == (-1e300, -1e300, 0)
    assert found["tie-across-sides"] == (-1e300, -1e300, _E[2] + 5)


# SHA-256 of the eleven CSV columns' float64 bytes, in CSV_COLUMNS order,
# recorded while the table stored all eleven (a missing side and its margin
# as one array of NaN).
TABLE_GOLDEN = {
    "becker_analytic":
        "75d5dbb9a2243728fa0b255524f0cd20e2a85f5fca5638ce5c01370c166415da",
    "becker_harmonic":
        "5f2ba7600c6e148d46b33b79bdd1fed196cdbb5b49a1d69bafd0a646f0b05280",
    "blatter":
        "055178e0a59432f94c0cd6e5ba99bd64f375c1bcf2188cd5e75e4a191f3994e3",
    "chuaqui_pommerenke":
        "5fb057bbb421a1dcb1e6e0e729846b21c4657e2e6e04b8e15ba35ef669e7b100",
    "convex_h":
        "002640c72b2456d34155e0a1aab9b57fc6be8bdec02a85ed51230c42ea287c61",
    "corollary":
        "4a4e48c341c36d6cca8888c46555f47981bca5ddb7b73ee1bcf230a807ac0f02",
    "dhk":
        "34b56d2acf18ed21734740c1e889457762fc4264b41def70ef5e85162fbd002b",
    "kim_minda_convex":
        "4ac46fd03ead24b2d04e27dbf7b1bbca442b8c1291c45b1da3b5cf54475ffa15",
    "linconn":
        "f198ea9ad89439da02a6a806d9fcd86f1b43e458d11ee33fa282e8551cb55496",
    "mmm":
        "11043aa8c042678c3a08a7934806474982dc5771ed0563877e8b1f739860aac0",
    "mobius_exact":
        "50cf174c50a706183bd201ad98f6b70540ce6a591744f4df404a2cdcd928cc6c",
    "nehari_harmonic":
        "b401ff199846177eae7cdb140acb7029e63f97d2951840e404a679b7dfe05290",
}


@pytest.mark.parametrize("bound", sorted(BOUND_REGISTRY))
def test_table_reads_every_csv_column_with_the_stored_bytes(bound, maps):
    samples = sample_pairs("near-diagonal", 3000, 7)
    report = verify_bound(maps["shear-halfplane-0.4z"], bound, dict(PARAMS), samples)
    t = report.table
    digest = hashlib.sha256()
    for column in CSV_COLUMNS:
        digest.update(np.ascontiguousarray(t[column], dtype=float).tobytes())
    assert digest.hexdigest() == TABLE_GOLDEN[bound]
    nan = np.full(report.pairs, np.nan).view(np.uint64)
    for side in ONE_SIDED.get(bound, ()):
        missing = {"lower": "upper", "upper": "lower"}[side]
        for column in (missing, f"{missing}_margin"):
            np.testing.assert_array_equal(np.asarray(t[column]).view(np.uint64), nan)
    for side in ONE_SIDED.get(bound, ALL_SIDES):
        margin = t["actual"] - t["lower"] if side == "lower" else t["upper"] - t["actual"]
        np.testing.assert_array_equal(t[f"{side}_margin"].view(np.uint64), margin.view(np.uint64))


def test_a_margin_read_from_the_table_is_not_kept(maps, suite):
    """Reading the table adds no column to it, so it does not bring the peak back.

    rho, d and the margins are computed anew at each read, from the stored
    columns, and re_a ... im_b are views of the stored pairs.
    """
    for bound, stored in (("dhk", {"lower", "upper"}), ("mmm", {"upper"}),
                          ("chuaqui_pommerenke", {"lower"})):
        report = verify_bound(maps["shear-halfplane-0.4z"], bound, dict(PARAMS), suite)
        t = report.table
        keys = {"a", "b", "actual"} | stored
        assert set(t) == keys
        first = {c: t[c] for c in ("rho", "d", "lower_margin", "upper_margin")}
        assert all(len(t[c]) == BLOCKED for c in CSV_COLUMNS)
        assert set(t) == keys
        assert all(t[c] is not x for c, x in first.items())
        for part, pair in (("re_a", "a"), ("im_a", "a"), ("re_b", "b"), ("im_b", "b")):
            assert np.shares_memory(t[part], t[pair])


@pytest.mark.parametrize("cpus", [1, 2])
def test_verify_keeps_the_stored_columns_and_a_few_blocks_of_temporaries(cpus, maps,
                                                                         monkeypatch):
    """tracemalloc's peak inside verify_bound on a suite of sixteen blocks.

    The three stored float64 columns (actual, lower, upper) take 24 bytes
    a pair; the pairs are the sample's, made before.  Each worker holds the
    temporaries of the block it evaluates and reduces.  Storing rho, d or
    the margins too, or reducing over whole columns, exceeds the bound.
    """
    monkeypatch.setattr(series, "_cpus", lambda: cpus)
    block = series._ELISION_POINTS
    n = 16 * block
    samples = sample_pairs("uniform-in-disc", n, 6)
    f = maps["shear-halfplane-0.4z"]
    tracemalloc.start()
    try:
        report = verify_bound(f, "dhk", {}, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.pairs == n
    workers = cpus  # for_each_block's min(CPUs, blocks), with 16 blocks
    assert peak < 8 * (3 * n + BLOCK_TEMPS * workers * block)
