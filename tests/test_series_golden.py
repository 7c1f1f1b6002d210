"""Pinned verify report bytes for every registry bound on a series-backed map.

On the descriptor map below, g is the order-120 Taylor series of the shear,
so every bound reads that series through `SeriesMap.derivs`; the
`corollary` row also reads it through the `LinearCombo` h + lambda g that
its prepare step builds.  With 20,000 pairs each side of the pairs crosses
an evaluator chunk edge.  The digests were recorded with numpy's `polyval`
as the evaluator; the chunked Horner loop must reproduce them byte for byte.
"""

import hashlib

import pytest

from harmdist.criteria import DEFAULT_NEHARI_EPSILON
from harmdist.descriptors import parse_descriptor
from harmdist.norms import DEFAULT_R_MAX
from harmdist.verifier import (
    BOUND_REGISTRY,
    sample_pairs,
    verify_bound,
    write_pairs_csv,
    write_report_json,
)

SERIES_DESCRIPTOR = {"h": {"name": "halfplane"}, "omega": {"expr": "0.4z"}}
PAIRS = 20_000

# The parameters `harmdist verify` passes by default.
CLI_PARAMS = {"epsilon": DEFAULT_NEHARI_EPSILON, "t": 1.0, "p": 2.0,
              "alpha": 2.0, "beta": 2.0, "c": 1.0}

# bound -> (SHA-256 of the JSON report, SHA-256 of the pair CSV)
GOLDEN = {
    "becker_analytic": (
        "e27803009608f3c3fedfa6038101d1bf7418f5feb2aaa0cc9f929a1db70b980e",
        "9c972c19417ae0d1c50c1892a4a8afb429b715fb14695f28e29bae6aa6aefbea"),
    "becker_harmonic": (
        "3216ecf5c5104dacf7f4c818a0ccad59a8503dad19f706600830282d019c4f67",
        "38f2ecd47250d405401343f9009e3e8951fc62faa978575a7b7573dde818dcb2"),
    "blatter": (
        "29d3854e82b82d852948eb65b934735926bd6897dc295ee20934890fe81fe668",
        "f0753c42787122b0b9ca5465c103210a64a0f4f07aebe7ebe6b5876800d1d260"),
    "chuaqui_pommerenke": (
        "a9716d0be70c3355fe07e75cd2a9c98ca44182348c2bc75dc1c5ac072cee249c",
        "397069d580ec8e9e328f2fe07b12304ccb81152e4f2619e4634d57487b86c192"),
    "convex_h": (
        "1bae90f09a6d598e62f41b46c78c0e8e9e40d9cb9696c9cdfbf33395627afe43",
        "1869fc9a070dce1555b5762757051e8c2605b8546c03672e8f9c8a2970ed53d9"),
    "corollary": (
        "feed3ab5c3a1c75d6627534bb8992366a49bffd26925ad4cb5937982e24cb2af",
        "e08c80178bc3519cb5ded3fa1723ba7231d362279c673a2f70f2a7714ea5d2a6"),
    "dhk": (
        "a06e3ea230cfd2d0ff3b819f8da10589c57f4712aef9cb448f49a82372ca0c02",
        "9a0f6849ae9a11b04c51037b3364f2ac4aca6f68cc15b9f642afaea5be48cc19"),
    "kim_minda_convex": (
        "d9d50d88dfef33ef0866872ef48b74f06a1656053d7941f37fe1d6373bb34a71",
        "4433255438eb5d57bff010f7b7d6804da0980164c2d8ba77fb7aff401da0f69a"),
    "linconn": (
        "592814c2fdf73e3f8433a62e21e7c67d8e5d0c1fbc317a99b7a8255fc3d4b4d4",
        "863d99f381f65a70daf9935f9992ec01988241da9f08a67404d82e90ed7af674"),
    "mmm": (
        "a982a0e9301c8de077bff517b5b70733161688c5e00d4feceeef543016255548",
        "23452935a0a9199c8d8e59c22de8f5a287cd86e3314861d92fa7fdf55b69eea8"),
    "mobius_exact": (
        "1d4c934fe3b622f8123ded9b68f298c9ae08d6b20e15466d9d3d6ded95c6dc20",
        "913176df799eadfd417e8c0e5582408ff006eac8b887a4ca3039256ed282d8c8"),
    "nehari_harmonic": (
        "50bb238f6c5b201beb90cffd44009b016a5e1e8c371b27e1538f825d42cde7fb",
        "733e9aa57fcdf44273b0076916f566200efc7f81fa399cfef31418e867f39b2a"),
}


@pytest.fixture(scope="module")
def series_map():
    return parse_descriptor(SERIES_DESCRIPTOR)


@pytest.fixture(scope="module")
def samples(series_map):
    return sample_pairs("uniform-in-disc", PAIRS, 0,
                        min(DEFAULT_R_MAX, series_map.reliable_radius))


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_golden_covers_the_registry():
    assert set(GOLDEN) == set(BOUND_REGISTRY)


@pytest.mark.parametrize("bound", sorted(GOLDEN))
def test_series_report_bytes_match_golden(bound, series_map, samples, tmp_path):
    report = verify_bound(series_map, bound, dict(CLI_PARAMS, force=True), samples)
    write_report_json(report, tmp_path / "r.json")
    write_pairs_csv(report, tmp_path / "r.csv")
    assert (_sha256(tmp_path / "r.json"), _sha256(tmp_path / "r.csv")) == GOLDEN[bound]
