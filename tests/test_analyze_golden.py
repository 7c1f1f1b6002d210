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
# the same on 1 and 3 CPUs.  The series and harmonic-mobius-halfplane-0.3
# digests were recorded before the grid scan was cut into blocks, the rest
# before the blocks were reduced to their argmax.  The 131,073 grid points
# make eight blocks, where the default grid is one.
BLOCKED_GRID = "128,1024"
GOLDEN_BLOCKED = {
    "exp": "30fee259d3ca4beb384bb5e791b5d4848d01f54f087a71f9f9443c05a407b1ce",
    "halfplane": "208f25443ae40373daadf0ae54024b1791103026cef8792fbe46db16160d1a72",
    "harmonic-mobius-halfplane-0.3":
        "8329833e1fde87bf587e344577139edd34196b3318112aa7a975db11a8d28001",
    "harmonic-mobius-identity-0.3":
        "4d5aa52dc4d92bd0701fb58707c96d80b8b22fcb620db720cb90c1069af97361",
    "identity": "a8b68d9fcb380e42aef69385d50fb779a795889d77265986ca6646342af72312",
    "koebe": "29c4c24150c87562f1a799f4e38b11c57358cb936ce1b57ff7e8e7eb4ce9d67c",
    "logtype": "2deed4268cb511dcd2edbf9a68aa98e42ff4bd3f3aa1c375d46363186d68cac9",
    "shear-halfplane-0.4z": "323617f2567a74931991f2a9167a63181107a35fcdf1e7966df39c6d5dd9a662",
    "shear-identity-0.3z": "a309df63c74dafe00017f88fb355ebfe722311dd96c4a0d86346f28cf3923a99",
    "shear-identity-0.4z": "973246749702006bd8827ded7d5831c78a7483150f1d67db5792f8ea88af4d85",
    "series": "b0e551e74c3debe218790b30b1c4319233d8756f7bde6fc30e6420c21e7e0f14",
}


# Maps whose h is not normalized, so that the order is read on koebe_transform(h, 0):
# name -> (descriptor, SHA-256 of analyze.json at the default grid, and at
# --grid 128,1024 on 1 and 3 CPUs).  Recorded while the order of such a map
# was scanned with one call over the whole grid.
RENORMALIZED = {
    "mobius": (
        {"h": {"name": "mobius", "params": {"a": 2, "b": 0.5, "c": 0.3, "d": 1}}},
        "ca20ad22b5ec5d815096e069a6b56c03a740c3c7782539e8069f3df3d841dfd3",
        "c1809196c5512cc406fdb267bbe3fc89120e7b4f80996d96e4de30bcc4c95f7d",
    ),
    "compose-sigma": (
        {"h": {"compose_sigma": {"a": 0.3, "inner": {"expr": "0.5z + 0.1z^2"}}},
         "omega": {"expr": "0.3z"}},
        "81cd677331b80ae92e2aea8f0844a8f418eb2a7c7854384bb05f9f593dcb38d5",
        "edee78c99adabcabc524c17b529f509a742dd68c43be9a862ff769e1ba26dc27",
    ),
}


def test_golden_covers_the_catalog():
    assert set(GOLDEN) == set(GOLDEN_BLOCKED) == set(CATALOG) | {"series"}


def _analyze_digest(name, tmp_path, *options):
    spec = name
    descriptor = SERIES_DESCRIPTOR if name == "series" else RENORMALIZED.get(name, (None,))[0]
    if descriptor is not None:
        spec = str(tmp_path / "map.json")
        (tmp_path / "map.json").write_text(json.dumps(descriptor))
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


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("name", sorted(RENORMALIZED))
def test_analyze_of_a_map_whose_h_is_not_normalized_matches_golden(name, cpus, tmp_path,
                                                                   capsys, monkeypatch):
    monkeypatch.setattr(series, "_cpus", lambda: cpus)
    _, default, blocked = RENORMALIZED[name]
    assert _analyze_digest(name, tmp_path) == default
    assert _analyze_digest(name, tmp_path, "--grid", BLOCKED_GRID) == blocked
    out = json.loads((tmp_path / "out" / "analyze.json").read_text())
    assert out["order"]["normalized"] is False
    capsys.readouterr()
