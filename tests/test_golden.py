"""Pinned report bytes for every registry bound.

The digests were recorded before the bounds moved onto the shared pair
jet; a refactor of the bound formulas or the verifier must reproduce them
byte for byte.
"""

import hashlib

import pytest

from harmdist.catalog import get_map
from harmdist.norms import DEFAULT_R_MAX
from harmdist.verifier import (
    BOUND_REGISTRY,
    sample_pairs,
    verify_bound,
    write_pairs_csv,
    write_report_json,
)

# The parameters `harmdist verify` passes by default.
CLI_PARAMS = {"epsilon": 0.1, "t": 1.0, "p": 2.0,
              "alpha": 2.0, "beta": 2.0, "c": 1.0}

# (bound, strategy) -> (SHA-256 of the JSON report, SHA-256 of the pair CSV)
GOLDEN = {
    ("becker_analytic", "uniform-in-disc"): (
        "4bc742eb3e33a98b99a6d8bfd9e3ff331f0f5e2339eca30ad636d36a0e5ff3be",
        "5b4a9060e7a6a550eb67e88cf232ccb497137766876e57dff4a934bf4d84831b"),
    ("becker_analytic", "near-diagonal"): (
        "70f630b459b74e0158843203cf36579d7d8f0d2d6693f3e189b2240887d93cdc",
        "886d454d2b05149ec6b3b6872448ad38d3c493765bc2206630ce0880e6256223"),
    ("becker_harmonic", "uniform-in-disc"): (
        "f2dbae30d59096e728570e6fee78917e458fdfd659907f3412a084525fd1dd22",
        "6cb3ef86407a4e1ec7b2848ae63c683c45268de43ead097f59f41833ecca6fb0"),
    ("becker_harmonic", "near-diagonal"): (
        "128f3d7dd8aecddc341ce69a9112a7d34866a3aec9ab783e4eea5c0f7a7c8c7c",
        "264cd960f35658c33d9f62e31efec04a28b4791c8aa582c6c961fe80b5e726fa"),
    ("blatter", "uniform-in-disc"): (
        "9c580cf528247daccfb5ad114db49f573de5471eeb43c56b919cdc9cd11b5ca1",
        "90cdd226514cc57beac96b0628d44cd88c597ff7ba56fe4b2f7b70512bf13f0e"),
    ("blatter", "near-diagonal"): (
        "a773fb9d10c8893357a15f5cd406e8b6d4a3ea2383c989d6d2a22d9218bc5185",
        "c29cec6a34232880e60b836a6fcb6c44f2e3b4e1c820df8bab596df5d7a96716"),
    ("chuaqui_pommerenke", "uniform-in-disc"): (
        "c29257e61a875d71811aed950f88709beb0723d654bafd8a8453f3cf01d89776",
        "f60deb8de46416a2fe6488e459747c619fb190f5fc6e397f74ea4de3823a2e24"),
    ("chuaqui_pommerenke", "near-diagonal"): (
        "f1c8c2294a117937e16e464a1253fb486ff7cfc709cb4eaf3d0fa1a232f336f4",
        "a944bd3148a86c48fdbd1c11a0117cb1089c3bc4d484976713bdcf9418c48c7d"),
    ("convex_h", "uniform-in-disc"): (
        "ff45844b088619f065e7ebb3c682df5b977f7e06bcb150e96e49a8906ac2c35a",
        "f194380d90d5019658eec849a53d53ab828b444b160a36757d961599e8634a4c"),
    ("convex_h", "near-diagonal"): (
        "0f9c5cd21f1810f6eb6b96bac842a03b0b5c2fc87e9ddc42d90f80d207c2cbd0",
        "2c99274cde0b0c404b0dd158b8a002ec330fd0a30b3ab45b355455a582538096"),
    ("corollary", "uniform-in-disc"): (
        "b41d9f00199d081acfc4838831940cecaa073fa1c5a3fc843f58b66ddcbd02b6",
        "839e444b5512452cf358f19b5cf6e0050fd7a3243b193b15f407f29b2cc86bb1"),
    ("corollary", "near-diagonal"): (
        "221e9a453a677e51a9dc01f39c7a57714d81e22729380450b45fdf627d9b5e44",
        "8fe931cbc34f05ed18f427d957a05a7e56fd1016f8cf0705210a8c7c4351c238"),
    ("dhk", "uniform-in-disc"): (
        "d3250f7d5ab7de5aab061a7d197eb6f77726b7dafbd87e88e49c17872200215a",
        "5c049e25e7c2dcbd43d258ac6c9c1be9f2512b5133dbb93fa5ed45e76a7c58aa"),
    ("dhk", "near-diagonal"): (
        "c6934ec58f27a578d53732d7ff6d707f5a679fe623fbd016cb9c631c2de4896c",
        "1c2cd079d4f3e23d58548038ca459dca3efcfdea7e00dcd5b349c59b603abc2d"),
    ("kim_minda_convex", "uniform-in-disc"): (
        "65e84e20db578378c3b795954e8c2996aaf7154365b6596ceb1a756b6e5085a4",
        "4ee4f15707272d4d627450fed4f84181abbeadab5ec6279fbad647f7000e9ea7"),
    ("kim_minda_convex", "near-diagonal"): (
        "775096566f693125d6558448dbf5930883e864b4b2bd4e3687d641e333b27c6d",
        "e00b05b4581fe2376d0cab7c5d73949cf33293b53056c1c2e551d593876ab83d"),
    ("linconn", "uniform-in-disc"): (
        "c8fc1534e5cea58042085c5a49593325b53476642fe9256e8d29a95c21db59f2",
        "714e9cb388d79b5ea3486b08a83ca6453f5a599ed065e3283a15931a1efae903"),
    ("linconn", "near-diagonal"): (
        "fbbcc6339fe6be99df0fc1a00bf08fe4e372b732a36df0e4ff39ca2ff56b766e",
        "96a44cf00157fbfab765cc0eb07abeb37641fc686e3074e151af01a24e28769e"),
    ("mmm", "uniform-in-disc"): (
        "eae610b702d596c914a78c6a38d8df0bc2ec66cae420b6e427fd08a8e39653fa",
        "b43954fd88adb5f8686965a3a506f88b8caf12b68dc5bac25a5e8d4096429a5b"),
    ("mmm", "near-diagonal"): (
        "0073c29a1cb4e0ad422dfda04c5e7e25392bb8d83b738b68cef9ca4d470eb20e",
        "479a5f9ffc410400ae727a7eee5379f2e7cfe41dd6742cde3070b3c84e7fa2fb"),
    ("mobius_exact", "uniform-in-disc"): (
        "f90bb2f93b722b252ea50b64beb373f860e64eb2c790160a3452487e16e45ac5",
        "b183a60499f7cfc0caead00d355d2c9db97e8ad2410914c68f59b288fdcd9f94"),
    ("mobius_exact", "near-diagonal"): (
        "1ea206612e89952a64e06201f4fde438bd2f0a313cfacd00d9818dca4136dd5c",
        "3dcdb78826897fc63e4afe58a4a68da1f04e4a1371af46337bc5827a72903205"),
    ("nehari_harmonic", "uniform-in-disc"): (
        "882e80566e39c1f1b41b783799bbea6e52fa7b60f142c09fa341a64b73bdc829",
        "a6a6ef03679bd5acca27c51f3048f9afd481c0ca8f799ed42bc7bc5c6e3a5122"),
    ("nehari_harmonic", "near-diagonal"): (
        "67591b8738a2677bbc0d4c0425acbd5f78a3a58b9063538f6740d9076a8f4c9b",
        "77f037efcf0d522d86b21ae400100c40abe5425f11320cc80d6181817d3aab14"),
}


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_golden_covers_the_registry():
    assert {bound for bound, _ in GOLDEN} == set(BOUND_REGISTRY)


@pytest.mark.parametrize("bound,strategy", sorted(GOLDEN),
                         ids=[f"{b}-{s}" for b, s in sorted(GOLDEN)])
def test_report_bytes_match_golden(bound, strategy, tmp_path):
    f = get_map("shear-identity-0.3z")
    samples = sample_pairs(strategy, 500, 0, min(DEFAULT_R_MAX, f.reliable_radius))
    report = verify_bound(f, bound, dict(CLI_PARAMS, force=True), samples)
    write_report_json(report, tmp_path / "r.json")
    write_pairs_csv(report, tmp_path / "r.csv")
    assert (_sha256(tmp_path / "r.json"), _sha256(tmp_path / "r.csv")) == GOLDEN[bound, strategy]
