"""The float-CSV writer against csv.writer, at chunk edges and on special values.

On two CPUs or more a table of at least two chunks is formatted in shares,
all but the first by helper processes.  The ``helpers`` fixture makes the
process see 1, 2 or 3 CPUs; each case checks how many helpers started and
how they exited, and the fixture that every one was reaped.  A pair table's
derived columns are read one chunk at a time, with the bits of the
whole-array expressions, and never made whole.
"""

import csv
import hashlib
import io
import os
import shutil
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from harmdist import csvrows, series
from harmdist.catalog import get_map
from harmdist.csvrows import CHUNK_ROWS as K
from harmdist.descriptors import parse_descriptor
from harmdist.plotting import write_margin_scatter_csv
from harmdist.verifier import (
    CSV_COLUMNS,
    BoundReport,
    PairTable,
    sample_pairs,
    verify_bound,
    write_float_csv,
    write_pairs_csv,
)

# The parameters `harmdist verify` passes by default.
CLI_PARAMS = {"epsilon": 0.1, "t": 1.0, "p": 2.0,
              "alpha": 2.0, "beta": 2.0, "c": 1.0}

MARGIN_COLUMNS = ["rho", "lower_margin", "upper_margin"]


_ORACLE = {}  # (columns, digest of their values): the oracle's bytes


def oracle_csv(table: dict, columns: list[str]) -> bytes:
    """The bytes of the row-by-row csv.writer loop the chunked writer replaced.

    Each distinct table goes through the loop once; a table the cases share,
    on every CPU count, reads the bytes it gave then.
    """
    digest = hashlib.sha256()
    for c in columns if table else []:
        v = np.asarray(table[c], dtype=float)
        digest.update(f"{c}:{v.size}:".encode() + v.tobytes())
    key = (tuple(columns), digest.hexdigest())
    if key not in _ORACLE:
        fh = io.StringIO(newline="")
        w = csv.writer(fh)
        w.writerow(columns)
        if table:
            for row in zip(*(table[c] for c in columns)):
                w.writerow([repr(float(v)) for v in row])
        _ORACLE[key] = fh.getvalue().encode()
    return _ORACLE[key]


@pytest.fixture(params=[1, 2, 3], ids=lambda n: f"cpus{n}")
def helpers(request, monkeypatch):
    """The process sees request.param CPUs; yields the helpers started meanwhile."""
    monkeypatch.setattr(series, "_cpus", lambda: request.param)
    started = []

    class Spy(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", Spy)
    yield started
    with pytest.raises(ChildProcessError):  # every helper was reaped
        os.waitpid(-1, os.WNOHANG)


def expected_helpers(rows: int) -> int:
    """The helpers a table of this many rows starts: one per share but the first."""
    return max(0, min(series._cpus(), rows // K) - 1)


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
        got[write] = (tmp_path / "got.csv").read_bytes()
        assert got[write] == oracle_csv(report.table, columns)
    return got[write_pairs_csv]


def random_table(rows: int) -> dict:
    rng = np.random.default_rng(rows)
    return {c: rng.standard_normal(rows) * 10.0 ** rng.integers(-8, 8, rows)
            for c in CSV_COLUMNS}


def random_pair_table(rows: int) -> PairTable:
    """A PairTable of random pairs in the disc and random stored values."""
    rng = np.random.default_rng(rows)
    a, b = (np.sqrt(rng.uniform(0.0, 0.9, rows)) * np.exp(2j * np.pi * rng.uniform(0, 1, rows))
            for _ in range(2))
    return PairTable(a=a, b=b, **{c: rng.standard_normal(rows) * 10.0 ** rng.integers(-8, 8, rows)
                                  for c in ("actual", "lower", "upper")})


@pytest.mark.parametrize(
    "rows", [0, 1, K - 1, K, K + 1, 2 * K - 1, 2 * K, 2 * K + 1, 3 * K + 7, 5 * K + 3])
def test_chunk_edges_match_csv_writer(rows, helpers, tmp_path):
    data = assert_matches_oracle(report_with(random_table(rows)), tmp_path)
    assert data.count(b"\r\n") == rows + 1
    # one run for each of the two writers
    assert len(helpers) == 2 * expected_helpers(rows)
    assert all(proc.returncode == 0 for proc in helpers)


@pytest.mark.parametrize("rows", [K + 3, 5 * K + 3])  # across chunk and share edges
def test_special_values_match_csv_writer(rows, helpers, tmp_path):
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e16, 1e-05, -1e-05, 0.1]
    values = np.resize(np.array(special), rows)
    table = {c: np.roll(values, k) for k, c in enumerate(CSV_COLUMNS)}
    table["upper"] = table["upper_margin"] = np.full(rows, np.nan)  # a missing side
    strided = np.empty((rows, 2))
    strided[:, 0] = table["re_a"]
    table["re_a"] = strided[:, 0]  # as a complex array's .real is
    data = assert_matches_oracle(report_with(table), tmp_path)
    assert len(helpers) == 2 * expected_helpers(rows)
    assert all(proc.returncode == 0 for proc in helpers)
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


@pytest.fixture
def failing_executable(tmp_path):
    """An executable that writes a partial row and exits 3."""
    path = tmp_path / "fails"
    path.write_text("#!/bin/sh\nprintf '0.5,'\nexit 3\n")
    path.chmod(0o755)
    return str(path)


@pytest.mark.parametrize("helpers", [2, 3], indirect=True, ids=lambda n: f"cpus{n}")
@pytest.mark.parametrize("helper", ["missing", "exits-non-zero", "unknown", "copy-fails"])
def test_a_failed_helper_leaves_the_bytes(helper, helpers, failing_executable, tmp_path,
                                          monkeypatch):
    def copy_fails(src, dst):
        dst.write(src.read(10))
        raise OSError("the helper's text could not be read")

    if helper == "copy-fails":
        monkeypatch.setattr(shutil, "copyfileobj", copy_fails)
    else:
        monkeypatch.setattr(sys, "executable", {
            "missing": str(tmp_path / "missing"), "unknown": None,
            "exits-non-zero": failing_executable}[helper])
    rows = 5 * K + 3
    assert_matches_oracle(report_with(random_pair_table(rows)), tmp_path)
    if helper in ("missing", "unknown"):
        assert not helpers
    else:
        assert len(helpers) == 2 * expected_helpers(rows)
        assert all(proc.returncode == (3 if helper == "exits-non-zero" else 0)
                   for proc in helpers)


@pytest.mark.parametrize("helpers", [2, 3], indirect=True, ids=lambda n: f"cpus{n}")
def test_an_error_in_the_callers_share_stops_every_helper(helpers, tmp_path, monkeypatch):
    def interrupted(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(csvrows, "write_rows", interrupted)
    rows = 5 * K + 3
    with pytest.raises(KeyboardInterrupt):
        write_float_csv(tmp_path / "t.csv", random_pair_table(rows), CSV_COLUMNS)
    assert len(helpers) == expected_helpers(rows)
    assert all(proc.returncode is not None for proc in helpers)


def test_ragged_columns_raise(tmp_path):
    table = {"x": np.arange(5.0), "y": np.arange(3.0)}
    with pytest.raises(ValueError, match="different lengths"):
        write_float_csv(tmp_path / "t.csv", table, ["x", "y"])


def test_multi_chunk_pair_csv_bytes_pinned(helpers, tmp_path):
    # Pinned from the row-by-row csv.writer before the chunked writer.
    f = get_map("shear-halfplane-0.4z")
    report = verify_bound(f, "convex_h", dict(CLI_PARAMS),
                          sample_pairs("uniform-in-disc", 20_000, seed=0))
    assert report.pairs >= 3 * K
    write_pairs_csv(report, tmp_path / "pairs.csv")
    digest = hashlib.sha256((tmp_path / "pairs.csv").read_bytes()).hexdigest()
    assert digest == "50925dd812a6af6a454b7dc20e3f0c8112c1182627a43bb4cff39a061f4fcd00"
    assert len(helpers) == expected_helpers(report.pairs)


# --- a pair table's derived columns, a chunk at a time ---

DERIVED = ["rho", "d", "lower_margin", "upper_margin"]
SERIES = {"h": {"name": "halfplane"}, "omega": {"expr": "0.4z"}}  # reliable radius 0.796


def whole_derived(t: PairTable) -> dict:
    """rho, d and the margins as whole-array expressions of the stored columns."""
    a, b, actual = t["a"], t["b"], t["actual"]
    rho = np.abs((a - b) / (1.0 - np.conj(a) * b))
    nan = np.full(len(actual), np.nan)
    return {"rho": rho, "d": 0.5 * (np.log1p(rho) - np.log1p(-rho)),
            "lower_margin": actual - t["lower"] if "lower" in t else nan,
            "upper_margin": t["upper"] - actual if "upper" in t else nan}


def derived_case(case: str) -> PairTable:
    if case.startswith("rows"):  # at chunk and block edges
        samples = sample_pairs("uniform-in-disc", int(case[4:]), 3)
        return verify_bound(get_map("shear-halfplane-0.4z"), "convex_h", dict(CLI_PARAMS),
                            samples).table
    if case == "skipped":  # pairs beyond the map's reliable radius: a[ok], b[ok] copies
        report = verify_bound(parse_descriptor(SERIES), "convex_h", dict(CLI_PARAMS),
                              sample_pairs("uniform-in-disc", 5 * K, 3, r_max=0.95))
        assert 0 < report.skipped and report.pairs > 2 * K
        return report.table
    if case == "one-block":
        return verify_bound(get_map("shear-halfplane-0.4z"), "dhk", dict(CLI_PARAMS),
                            sample_pairs("near-diagonal", 300, 3)).table
    # a one-sided bound
    return verify_bound(get_map("shear-halfplane-0.4z"), case, dict(CLI_PARAMS, force=True),
                        sample_pairs("boundary-biased", 2 * K + 5, 3)).table


DERIVED_CASES = [f"rows{n}" for n in (K - 1, K, K + 1, 16383, 16384, 16385, 32769)] + [
    "skipped", "one-block", "blatter", "kim_minda_convex", "chuaqui_pommerenke", "mmm"]


@pytest.mark.parametrize("helpers", [1, 2], indirect=True, ids=lambda n: f"cpus{n}")
@pytest.mark.parametrize("case", DERIVED_CASES)
def test_derived_columns_read_a_chunk_at_a_time_keep_the_whole_array_bits(case, helpers,
                                                                           tmp_path):
    """rho, d and the margins, read by chunk and written to CSV, as uint64.

    The chunks are the writer's, and a missing side's margin is NaN.  The CSV
    keeps each float's bits but a NaN's sign and payload.
    """
    t = derived_case(case)
    rows = len(t["actual"])
    want = {c: x.view(np.uint64) for c, x in whole_derived(t).items()}
    for c in DERIVED:
        got = np.concatenate([t.rows(c, i, min(i + K, rows)) for i in range(0, rows, K)])
        np.testing.assert_array_equal(got.view(np.uint64), want[c], err_msg=c)
    write_pairs_csv(report_with(t), tmp_path / "pairs.csv")
    lines = (tmp_path / "pairs.csv").read_bytes().split(b"\r\n")[1:-1]
    assert len(lines) == rows
    fields = np.array([line.split(b",") for line in lines], dtype=float)
    for c in DERIVED:
        got = fields[:, CSV_COLUMNS.index(c)]
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want[c].view(float)), err_msg=c)
        ok = ~np.isnan(got)
        np.testing.assert_array_equal(got[ok].view(np.uint64), want[c][ok], err_msg=c)
    if case in ("blatter", "kim_minda_convex", "chuaqui_pommerenke", "mmm"):
        missing = "upper" if case != "mmm" else "lower"
        assert np.isnan(fields[:, CSV_COLUMNS.index(f"{missing}_margin")]).all()
    assert len(helpers) == expected_helpers(rows)


# float64 values a row of one chunk that writing a pair table holds at most,
# above its stored columns: one chunk's columns, floats and text (101 measured
# on one CPU, up to 126 on two, with Python 3.11).  Making the 32-chunk
# table's d and margins whole adds 96.
CHUNK_TEMPS = 150


@pytest.mark.parametrize("helpers", [1, 2], indirect=True, ids=lambda n: f"cpus{n}")
def test_writing_a_pair_table_holds_a_chunk_and_no_derived_column(helpers, tmp_path):
    """tracemalloc's peak inside write_pairs_csv, on a table of 32 chunks."""
    report = verify_bound(get_map("shear-halfplane-0.4z"), "convex_h", dict(CLI_PARAMS),
                          sample_pairs("uniform-in-disc", 32 * K, 4))
    tracemalloc.start()
    try:
        write_pairs_csv(report, tmp_path / "pairs.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(helpers) == expected_helpers(32 * K)
    assert peak < 8 * CHUNK_TEMPS * K
