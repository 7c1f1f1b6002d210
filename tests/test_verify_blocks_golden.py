"""Pinned verify bytes for pair counts that span several evaluation blocks.

Each case digests the sampled pairs, then for every registry bound the JSON
report and the raw bytes of every pair-table column.  The pair counts sit
at and across the block edges of `series.for_each_block` (16384 to 32767
points a block, and worker threads from two blocks on), and one case
skips pairs beyond the series map's reliable radius.  The digests were recorded while the pairs were still evaluated as
whole arrays on one thread; a blocked evaluation must reproduce them byte
for byte on any number of CPUs.
"""

import hashlib
import json

import numpy as np
import pytest

from harmdist import series
from harmdist.catalog import get_map
from harmdist.criteria import DEFAULT_NEHARI_EPSILON
from harmdist.descriptors import parse_descriptor
from harmdist.norms import DEFAULT_R_MAX
from harmdist.verifier import BOUND_REGISTRY, CSV_COLUMNS, sample_pairs, verify_bound

SERIES_DESCRIPTOR = {"h": {"name": "halfplane"}, "omega": {"expr": "0.4z"}}

# The parameters `harmdist verify` passes by default.
CLI_PARAMS = {"epsilon": DEFAULT_NEHARI_EPSILON, "t": 1.0, "p": 2.0,
              "alpha": 2.0, "beta": 2.0, "c": 1.0}

# (map, strategy, pairs, r_max; None samples up to min(DEFAULT_R_MAX, reliable radius))
# -> SHA-256
GOLDEN = {
    ("shear-halfplane-0.4z", "uniform-in-disc", 32_769, None):
        "938169cf20a917afebadd40f3b0651780e2fcee1436f5f4696150d724d12141a",
    ("shear-halfplane-0.4z", "near-diagonal", 100_003, None):
        "2dcb8f92171fb951ae9cdce39316b275ca2293c5aada1bb92e1ad224809a1f82",
    ("series", "boundary-biased", 65_537, None):
        "00f964b9ab1e4cb755089492b874bd866915af16cb556320609ecb3556365f15",
    # About a quarter of these pairs reach past the reliable radius and are skipped.
    ("series", "uniform-in-disc", 131_073, 0.85):
        "ae4286576242748402d0f1b1a59451d6f0372b0d1f037a9c5b51ddeddf4f0be6",
}


@pytest.fixture(scope="module")
def maps():
    return {"shear-halfplane-0.4z": get_map("shear-halfplane-0.4z"),
            "series": parse_descriptor(SERIES_DESCRIPTOR)}


def verify_digest(f, strategy, count, r_max) -> str:
    if r_max is None:
        r_max = min(DEFAULT_R_MAX, f.reliable_radius)
    samples = sample_pairs(strategy, count, 0, r_max)
    digest = hashlib.sha256(samples.a.tobytes() + samples.b.tobytes())
    for bound in sorted(BOUND_REGISTRY):
        report = verify_bound(f, bound, dict(CLI_PARAMS, force=True), samples)
        digest.update(json.dumps(report.to_json_dict(), sort_keys=True).encode())
        for column in CSV_COLUMNS:
            digest.update(np.ascontiguousarray(report.table[column], dtype=float).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("case", sorted(GOLDEN, key=str), ids=lambda c: "-".join(map(str, c)))
def test_multi_block_verify_matches_golden(case, cpus, maps, monkeypatch):
    """The same bytes whether the pair blocks run on the calling thread or on workers."""
    monkeypatch.setattr(series, "_cpus", lambda: cpus)
    name, strategy, count, r_max = case
    assert verify_digest(maps[name], strategy, count, r_max) == GOLDEN[case]
