"""Pinned `harmdist analyze` bytes for every catalog map and a series-backed map.

The digests were recorded before the sup engine moved onto one shared grid
jet per map; a refactor of the operators, norms or criteria must reproduce
them byte for byte.
"""

import hashlib
import json

import pytest

from harmdist import series
from harmdist.catalog import CATALOG
from harmdist.cli import EXIT_OK, main

# The series-backed map: h is the half-plane map, g the order-120 shear series.
SERIES_DESCRIPTOR = {"h": {"name": "halfplane"}, "omega": {"expr": "0.4z"}}

# map -> SHA-256 of analyze.json at the default grid and r_max
GOLDEN = {
    "exp": "422fe0e431c7a0bacdcee535810f8cf7fb914eaa8908e57b6e3f3a1fd1569fc4",
    "halfplane": "e8c06cc75329b853fc102eca403dcb1c0baefabec2d775ac1a2f4df3eb266789",
    "harmonic-mobius-halfplane-0.3":
        "d364e3f1b5784ba9ce7c888a4cb63b856bf688f4e7e914516c3bbd46cb4281e6",
    "harmonic-mobius-identity-0.3":
        "5204ea8d71f4d6c154a2cf31e393b8320595235af1608e6d177c8307115b7fa1",
    "identity": "d66e0ec924f2a944a9a055438b6dd8cb00e758740dd7d52666a6f8a54de2e46d",
    "koebe": "d5a56047519f7f955ea76271e84824eddd4b41e8986db8dd9290c932e43d56f3",
    "logtype": "70cfe41527903eb1c148c2914b27d8870f2b0c84551b53e1e121ec37eaf9e5c1",
    "shear-halfplane-0.4z": "39dae5322b9081a57dab76a0ee0f39146145a7b0f89ccd597dc0d2720ff9a275",
    "shear-identity-0.3z": "1f29ed29ee1efd2c1715329831015d23a97dbb1471a5bd293d02e34df7370240",
    "shear-identity-0.4z": "87ef572f5367863979650e4731fc2f604113c4e5a6f7618013f4f775812b44fd",
    "series": "799b0449c8499ac85f31221bf7b0297699218eed8230e74c46bd410c566f3056",
}


# map -> SHA-256 of analyze.json at --grid 128,1024 and the default r_max,
# recorded before the grid scan was cut into blocks.  The 131,073 grid
# points make five blocks, where the default grid is one.
BLOCKED_GRID = "128,1024"
GOLDEN_BLOCKED = {
    "harmonic-mobius-halfplane-0.3":
        "8329833e1fde87bf587e344577139edd34196b3318112aa7a975db11a8d28001",
    "series": "b0e551e74c3debe218790b30b1c4319233d8756f7bde6fc30e6420c21e7e0f14",
}


def test_golden_covers_the_catalog():
    assert set(GOLDEN) == set(CATALOG) | {"series"}


def _analyze_digest(name, tmp_path, *options):
    spec = name
    if name == "series":
        spec = str(tmp_path / "series.json")
        (tmp_path / "series.json").write_text(json.dumps(SERIES_DESCRIPTOR))
    out = tmp_path / "out"
    assert main(["analyze", "--map", spec, *options, "--out", str(out)]) == EXIT_OK
    return hashlib.sha256((out / "analyze.json").read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_analyze_matches_golden(name, tmp_path, capsys):
    assert _analyze_digest(name, tmp_path) == GOLDEN[name]
    capsys.readouterr()


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("name", sorted(GOLDEN_BLOCKED))
def test_analyze_matches_golden_on_a_grid_of_blocks(name, cpus, tmp_path, capsys,
                                                    monkeypatch):
    """The same bytes whether the blocks run on the calling thread or on workers."""
    monkeypatch.setattr(series, "_cpus", lambda: cpus)
    assert _analyze_digest(name, tmp_path, "--grid", BLOCKED_GRID) == GOLDEN_BLOCKED[name]
    capsys.readouterr()
