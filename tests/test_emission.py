"""The float-CSV writer against csv.writer, at chunk edges and on special values."""

import csv
import hashlib

import numpy as np
import pytest

from harmdist.catalog import get_map
from harmdist.criteria import DEFAULT_NEHARI_EPSILON
from harmdist.plotting import write_margin_scatter_csv
from harmdist.verifier import (
    _CSV_CHUNK_ROWS as K,
    CSV_COLUMNS,
    BoundReport,
    sample_pairs,
    verify_bound,
    write_pairs_csv,
)

# The parameters `harmdist verify` passes by default.
CLI_PARAMS = {"epsilon": DEFAULT_NEHARI_EPSILON, "t": 1.0, "p": 2.0,
              "alpha": 2.0, "beta": 2.0, "c": 1.0}

MARGIN_COLUMNS = ["rho", "lower_margin", "upper_margin"]


def oracle_csv(table: dict, columns: list[str], path) -> None:
    """The row-by-row csv.writer loop the chunked writer replaced."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(columns)
        if table:
            for row in zip(*(table[c] for c in columns)):
                w.writerow([repr(float(v)) for v in row])


def report_with(table: dict) -> BoundReport:
    return BoundReport(bound_name="x", map_id="x", hypothesis_met=True,
                       hypothesis_verdict={}, parameters={}, strategy="x",
                       seed=0, r_max=0.95, table=table)


def assert_matches_oracle(report: BoundReport, tmp_path) -> bytes:
    """Both CSV writers give the oracle's bytes; returns the pair CSV's."""
    got = {}
    for write, columns in ((write_pairs_csv, CSV_COLUMNS),
                           (write_margin_scatter_csv, MARGIN_COLUMNS)):
        write(report, tmp_path / "got.csv")
        oracle_csv(report.table, columns, tmp_path / "want.csv")
        got[write] = (tmp_path / "got.csv").read_bytes()
        assert got[write] == (tmp_path / "want.csv").read_bytes()
    return got[write_pairs_csv]


@pytest.mark.parametrize("rows", [0, 1, K - 1, K, K + 1, 3 * K + 7])
def test_chunk_edges_match_csv_writer(rows, tmp_path):
    rng = np.random.default_rng(rows)
    table = {c: rng.standard_normal(rows) * 10.0 ** rng.integers(-8, 8, rows)
             for c in CSV_COLUMNS}
    data = assert_matches_oracle(report_with(table), tmp_path)
    assert data.count(b"\r\n") == rows + 1


def test_special_values_match_csv_writer(tmp_path):
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16, 1e-05, -1e-05, 0.1]
    rows = K + 3  # the values cross a chunk boundary
    values = np.resize(np.array(special), rows)
    table = {c: np.roll(values, k) for k, c in enumerate(CSV_COLUMNS)}
    table["upper"] = table["upper_margin"] = np.full(rows, np.nan)  # a missing side
    data = assert_matches_oracle(report_with(table), tmp_path)
    fields = set(b",".join(data.split(b"\r\n")[1:-1]).split(b","))
    assert fields == {b"nan", b"inf", b"-inf", b"-0.0", b"0.0", b"5e-324", b"1e+16",
                      b"1e-05", b"-1e-05", b"0.1"}


def test_empty_table_when_hypothesis_unmet(tmp_path):
    f = get_map("koebe")  # h is not convex, so convex_h is gated off
    report = verify_bound(f, "convex_h", dict(CLI_PARAMS),
                          sample_pairs("uniform-in-disc", 100, seed=0))
    assert not report.hypothesis_met and report.table == {}
    data = assert_matches_oracle(report, tmp_path)
    assert data == (",".join(CSV_COLUMNS) + "\r\n").encode()


def test_multi_chunk_pair_csv_bytes_pinned(tmp_path):
    # Pinned from the row-by-row csv.writer before the chunked writer.
    f = get_map("shear-halfplane-0.4z")
    report = verify_bound(f, "convex_h", dict(CLI_PARAMS),
                          sample_pairs("uniform-in-disc", 20_000, seed=0))
    assert report.pairs >= 3 * K
    write_pairs_csv(report, tmp_path / "pairs.csv")
    digest = hashlib.sha256((tmp_path / "pairs.csv").read_bytes()).hexdigest()
    assert digest == "50925dd812a6af6a454b7dc20e3f0c8112c1182627a43bb4cff39a061f4fcd00"
