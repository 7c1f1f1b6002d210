"""Sampling harness: gate each bound on its hypothesis, hunt for violations.

For every sampled pair the bound's lower/upper values are compared against
the directly evaluated |f(a) - f(b)| (the ground truth; never a series of
the difference).  A single relative tolerance constant governs all
comparisons: a pair counts as a violation when it fails by more than
REL_TOL * max(1, |f(a) - f(b)|), or when its bound or |f(a) - f(b)| is not
finite.  Each sample point is evaluated once, through a pair jet.

Each point's modulus is taken once, to skip the pairs with a point
outside the sample's radius (NaN included); the pairs kept lie in the
disc.  They are evaluated block by block (``series.for_each_block``: 16384
to 32767 pairs a block, one worker per block up to the CPUs the process
may use).  Each block gets its own pair jet (``bounds.pair_jet_in_disc``),
writes its slice of the report's stored columns (|f(a) - f(b)| and the
sides the bound has) and reduces itself: its violation count, each side's
least margin and first pair with it, its greatest tightness ratio and, for
becker_harmonic, its proof-form count.  The blocks' reductions are combined
in pair order into the bits whole-array passes give.  The report's table
stores those columns and the pairs; rho, d and the margins are computed
from them when read, and the CSV writer reads them one chunk of rows at a
time, so none of them exists whole.  A failing evaluation raises the error
of its first failing block, in pair order, whatever the number of CPUs,
and evaluates no pair again.  The sampler draws each uniform array whole,
which fixes the generator's stream, and maps it to points block by block.
"""

from __future__ import annotations

import inspect
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import bounds as B
from . import criteria as C
from . import csvrows, series
from .bounds import BOUND_REGISTRY
from .criteria import _jsonable
from .disk import (automorphism, hyperbolic_from_pseudo, inside_radius,
                   pseudo_hyperbolic_in_disc)
from .errors import ParameterError
from .harmonic import as_harmonic
from .norms import DEFAULT_R_MAX, OMEGA_ABS, GridSuprema, beta_lambda
from .series import for_each_block

REL_TOL = 1e-9

STRATEGIES = ("uniform-in-disc", "boundary-biased", "near-diagonal")


@dataclass(frozen=True)
class PairSet:
    """Pairs (a[k], b[k]) drawn from |z| < r_max, with 0 < r_max < 1.

    a and b are 1-d arrays of one length, and strategy is one of
    STRATEGIES.  An r_max outside (0, 1) is refused: at or below 0, or NaN,
    every pair would be skipped, and the bound would pass on no evidence.
    """

    a: np.ndarray
    b: np.ndarray
    strategy: str
    seed: int
    r_max: float

    def __post_init__(self):
        if np.ndim(self.a) != 1 or np.shape(self.a) != np.shape(self.b):
            raise ParameterError("a and b must be 1-d arrays of one length, got shapes "
                                 f"{np.shape(self.a)} and {np.shape(self.b)}")
        self.require_strategy(self.strategy)
        self.require_r_max(self.r_max)

    @staticmethod
    def require_strategy(strategy: str) -> None:
        if strategy not in STRATEGIES:
            raise ParameterError(f"unknown strategy {strategy!r}")

    @staticmethod
    def require_r_max(r_max: float) -> None:
        if not 0.0 < r_max < 1.0:  # also false for NaN
            raise ParameterError(f"r_max must lie in the open interval (0, 1), got {r_max}")


def sample_pairs(
    strategy: str, count: int, seed: int, r_max: float = DEFAULT_R_MAX
) -> PairSet:
    """Deterministic pair sampler; see STRATEGIES for the regimes covered."""
    if count < 1:
        raise ParameterError("count must be >= 1")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    PairSet.require_strategy(strategy)
    PairSet.require_r_max(r_max)
    rng = np.random.default_rng(seed)

    def disc(n, lo=0.0, hi=r_max):
        # Each uniform array is drawn whole, which fixes the generator's
        # stream; the points are mapped from them block by block.
        u = rng.uniform(lo**2, hi**2, n)  # area measure
        th = rng.uniform(0.0, 2.0 * np.pi, n)
        z = np.empty(n, dtype=complex)

        def run(i, j):
            z[i:j] = np.sqrt(u[i:j]) * np.exp(1j * th[i:j])

        for_each_block(n, run)
        return z

    if strategy == "uniform-in-disc":
        a, b = disc(count), disc(count)
    elif strategy == "boundary-biased":
        lo = min(0.8, 0.8 * r_max)
        a, b = disc(count, lo=lo), disc(count, lo=lo)
    else:  # near-diagonal: b in a small pseudo-hyperbolic ball around a
        a = disc(count, hi=0.95 * r_max)
        w = disc(count, hi=0.049)
        b = automorphism(a, w)
        b = np.where(np.abs(b) >= r_max, a, b)
    return PairSet(a, b, strategy, seed, r_max)


def _read(sups: GridSuprema, name: str, params: dict) -> float:
    """The map supremum ``name`` read of sups: ||omega||, or min(2, beta + ||omega*||)."""
    if name == "omega_inf":
        return sups.estimate(OMEGA_ABS).value
    return beta_lambda(params.get("beta"), sups)


class PairTable(dict):
    """A report's per-pair columns: the stored ones, and those computed when read.

    It stores the pairs a and b, actual = |f(a) - f(b)| and the sides
    (lower, upper) the bound has.  Every other column of CSV_COLUMNS is
    computed each time it is read and is not kept: re_a, im_a, re_b and
    im_b are views of a and b, rho = ``disk.pseudo_hyperbolic_in_disc(a, b)``,
    d = arctanh(rho) (``disk.hyperbolic_from_pseudo``), lower_margin =
    actual - lower and upper_margin = upper - actual.  A side the bound
    lacks, and its margin, read as NaN.  A column that is stored is read
    as stored.

    ``rows(key, lo, hi)`` reads rows lo:hi of a column, computing a derived
    one for those rows alone, so a writer can read it one chunk at a time.
    numpy gives each element the same bits whatever the length of its
    array, so the rows have the bits of the whole column.
    """

    _PARTS = {"re_a": ("a", "real"), "im_a": ("a", "imag"),
              "re_b": ("b", "real"), "im_b": ("b", "imag")}
    _MARGINS = {"lower_margin": ("actual", "lower"), "upper_margin": ("upper", "actual")}

    def __missing__(self, key):
        if key == "actual":
            raise KeyError(key)
        return self.rows(key, 0, len(self["actual"]))

    def rows(self, key, lo: int, hi: int) -> np.ndarray:
        """Rows lo:hi of column ``key``, for 0 <= lo <= hi <= the table's length."""
        if key in self:
            return self[key][lo:hi]
        if key in self._PARTS:
            pair, part = self._PARTS[key]
            return getattr(self[pair][lo:hi], part)
        if key == "rho":
            return pseudo_hyperbolic_in_disc(self["a"][lo:hi], self["b"][lo:hi])
        if key == "d":
            return hyperbolic_from_pseudo(self.rows("rho", lo, hi))
        if key in self._MARGINS:
            minuend, subtrahend = self._MARGINS[key]
            if minuend in self and subtrahend in self:
                return self[minuend][lo:hi] - self[subtrahend][lo:hi]
        if key in ("lower", "upper", *self._MARGINS):
            return np.full(hi - lo, np.nan)
        raise KeyError(key)


def _evaluate_pairs(f, bound_name: str, params: dict, a, b) -> PairTable:
    """The PairTable of pairs (a, b): |f(a) - f(b)| and the bound's sides.

    Each point is evaluated once, through one pair jet.  A formula returns
    a PairBound; a side the bound lacks is not in the table.  The table
    also stores the jet's d, which _reduce reads.  The caller checks that
    the pairs lie in the disc.
    """
    formula = BOUND_REGISTRY[bound_name]["formula"]
    jet = B.pair_jet_in_disc(f, a, b, formula.reads)
    names = inspect.signature(formula).parameters
    out = formula(jet, **{k: v for k, v in params.items() if k in names})
    v = PairTable(a=a, b=b, d=np.asarray(jet.d), actual=np.asarray(jet.actual))
    for side, x in (("lower", out.lower), ("upper", out.upper)):
        if x is not None:
            v[side] = np.asarray(x, dtype=float)
    return v


def _reduce(v: PairTable, lo: int, bound_name: str) -> dict:
    """The reductions of one block's values v, whose first pair is number lo.

    ``violations``: how many pairs fail.  Fail closed: a pair whose bound or
    true distance is not finite is a violation.  ``lower``, ``upper``: for
    each side the bound has, the least margin and the number of the first
    pair with it, as np.argmin finds it (a NaN before any number).
    ``tightness``: the greatest lower/actual where actual > 0, 0 where there
    is none; NaN propagates.  ``proof_form``: for becker_harmonic, at how
    many pairs the proof form of the upper side is the tighter.
    """
    actual = v["actual"]
    tol = REL_TOL * np.maximum(1.0, actual)
    viol = ~np.isfinite(actual)
    out = {}
    for side in ("lower", "upper"):
        if side in v:
            margin = v[f"{side}_margin"]
            viol |= ~np.isfinite(v[side]) | (margin < -tol)
            if len(margin):
                k = int(np.argmin(margin))
                out[side] = (float(margin[k]), lo + k)
    out["violations"] = int(viol.sum())
    if "lower" in v:
        pos = actual > 0
        out["tightness"] = float((v["lower"][pos] / actual[pos]).max(initial=0.0))
    if bound_name == "becker_harmonic":
        # Statement form vs proof form of the upper bound: which is tighter.
        upper = v["upper"]
        out["proof_form"] = int((B.becker_harmonic_proof_upper(v["d"], upper) < upper).sum())
    return out


def _first_least(found: list) -> tuple:
    """The first (margin, pair) whose margin is NaN, else the first with the least margin."""
    return next((x for x in found if np.isnan(x[0])), None) or min(found, key=lambda x: x[0])


@dataclass
class BoundReport:
    bound_name: str
    map_id: str
    hypothesis_met: bool
    hypothesis_verdict: dict
    parameters: dict
    strategy: str
    seed: int
    r_max: float
    pairs: int = 0
    violations: int = 0
    skipped: int = 0
    min_lower_margin: float | None = None
    min_upper_margin: float | None = None
    worst_pair: tuple | None = None
    tightness: float | None = None
    extra: dict = field(default_factory=dict)
    # per-pair columns for CSV emission (not serialized to JSON): a PairTable,
    # which stores the pairs, |f(a) - f(b)| and the sides and computes every
    # other column when it is read; empty where the bound was not evaluated
    table: dict = field(default_factory=dict, repr=False)

    def to_json_dict(self) -> dict:
        return _jsonable({k.name: getattr(self, k.name) for k in fields(self) if k.name != "table"})


def verify_bound(f, bound_name: str, params: dict | None, samples: PairSet) -> BoundReport:
    """Evaluate one bound over a pair sample, gated on its hypothesis.

    Each given parameter is checked before the gate reads a supremum, and
    so is a given ||omega|| of a bound that reads it, with the checks its
    formula runs (``bounds._given``: linconn's c ||omega|| < 1 too); one
    not given is not added to params, and each reader takes its default.
    """
    if bound_name not in BOUND_REGISTRY:
        raise ParameterError(f"unknown bound {bound_name!r}")
    spec = BOUND_REGISTRY[bound_name]
    reads = spec.get("reads")
    params = dict(params or {})
    B.check_parameters(params)
    if reads == "omega_inf" and reads in params:
        formula = spec["formula"]
        takes_c = "c" in inspect.signature(formula).parameters  # linconn
        c = B.parameter("c", params.get("c")) if takes_c else 1.0
        B._given(params[reads], formula.__name__, c)
    f = as_harmonic(f)
    r_eff = min(samples.r_max, f.reliable_radius)
    sups = GridSuprema(f, (), r_eff)
    verdict = C.verdict(spec["hypothesis"], sups, {**params, **spec.get("fixes", {})})

    report = BoundReport(
        bound_name=bound_name,
        map_id=f.name,
        hypothesis_met=bool(verdict.holds),
        hypothesis_verdict=_jsonable(verdict),
        parameters={},
        strategy=samples.strategy,
        seed=samples.seed,
        r_max=r_eff,
    )
    if not verdict.holds and not params.pop("force", False):
        report.parameters = _jsonable(params)
        return report

    if reads and reads not in params:
        params[reads] = _read(sups, reads, params)
    report.parameters = _jsonable({k: v for k, v in params.items() if k != "force"})

    a, b, columns, blocks = _evaluate_blocks(f, bound_name, params, samples.a, samples.b, r_eff)
    report.skipped = len(samples.a) - len(a)
    report.pairs = int(len(a))
    report.violations = sum(r["violations"] for r in blocks)
    worst, worst_margin = None, np.inf
    for side in ("lower", "upper"):
        found = [r[side] for r in blocks if side in r]
        if not found:
            continue
        margin, k = _first_least(found)
        setattr(report, f"min_{side}_margin", margin)
        if margin < worst_margin:
            worst, worst_margin = k, margin
    if worst is not None:
        report.worst_pair = (complex(a[worst]), complex(b[worst]))
    if "lower" in columns and len(a):
        report.tightness = float(np.clip(np.max([r["tightness"] for r in blocks]), 0.0, 1.0))
    if bound_name == "becker_harmonic" and len(a):
        report.extra["proof_form_tighter_pairs"] = sum(r["proof_form"] for r in blocks)

    report.table = PairTable(a=a, b=b, **columns)
    return report


def _evaluate_blocks(f, bound_name: str, params: dict, a, b, r_eff: float):
    """The pairs kept, the columns of |f(a) - f(b)| and the sides there, and each block's _reduce.

    The formula is called on no pairs first: that call gives the sides the
    bound has, and runs the formula's own checks, such as linconn's
    c ||omega|| < 1, before any sampled point is evaluated.  Then each
    point's modulus is taken once, on the calling thread: a pair is kept
    when both points lie inside ``r_eff``, the sample's radius below 1, so
    a point at |z| >= 1 or NaN is skipped (``disk.inside_radius``), and the
    kept pairs are copied only when a pair is skipped.  A kept point near
    the unit circle warns.  The kept pairs are cut by
    ``series.for_each_block`` and run on every CPU the process may use:
    each block evaluates its own pair jet, writes its slice of the
    full-length columns and reduces itself on the same worker, so no jet or
    margin outlives its block.  rho and d are not columns: the block's own
    table has the jet's d for _reduce, and the report's table computes them
    from the pairs.  The columns have the bits of one evaluation over all
    pairs, because no block is below 16384 pairs unless it holds them all
    (see norms.GridSuprema).  The reductions are returned in pair order.  An
    error is that of the first failing block, in pair order, on any number
    of CPUs.
    """
    empty = _evaluate_pairs(f, bound_name, params, a[:0], b[:0])
    ok = inside_radius(r_eff, a, b)
    if not ok.all():
        a, b = a[ok], b[ok]
    del ok
    columns = {k: np.empty(len(a)) for k in ("actual", "lower", "upper") if k in empty}

    def run(lo, hi):
        block = _evaluate_pairs(f, bound_name, params, a[lo:hi], b[lo:hi])
        for k, x in columns.items():
            x[lo:hi] = block[k]
        return _reduce(block, lo, bound_name)

    return a, b, columns, for_each_block(len(a), run)


# ---------------------------------------------------------------------------
# Emission.

CSV_COLUMNS = [
    "re_a", "im_a", "re_b", "im_b", "rho", "d",
    "lower", "actual", "upper", "lower_margin", "upper_margin",
]


def write_report_json(report: BoundReport, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
    )


def write_pairs_csv(report: BoundReport, path: str | Path) -> None:
    write_float_csv(path, report.table, CSV_COLUMNS)


def write_float_csv(path: str | Path, table: dict, columns: list[str]) -> None:
    """A table's named float columns as CSV; an empty table gives the header only.

    The bytes are those of csv.writer writing the header, then each row as
    repr(float(v)) fields: "," between fields and "\\r\\n" after each line.
    No column name or float repr needs quoting.  ``table`` is a PairTable,
    or a dict of stored columns read as one; stored columns of different
    lengths are a ValueError.  Every column is read through
    ``PairTable.rows`` one ``csvrows.CHUNK_ROWS`` chunk at a time, so a
    derived column (rho, d, a margin) never exists whole.

    The rows are cut into contiguous shares, one per CPU the process may
    use, but no share below ``csvrows.CHUNK_ROWS`` rows.  The calling process
    formats the first share (``csvrows.write_rows``) and writes it straight
    to the file.  Each other share goes to a helper process that imports
    the standard library only and runs ``csvrows`` on the share's raw
    float64 bytes, with unlinked temporary files as its stdin and stdout;
    its text is appended in order.  A share whose helper cannot start, hits
    an OSError or exits non-zero is formatted by the caller, so the bytes
    never depend on a helper.  On one CPU, below two chunks of rows, or
    where ``sys.executable`` is unknown, no helper starts.  Every helper
    has exited when this returns.
    """
    table = table if isinstance(table, PairTable) else PairTable(table)
    lengths = {len(x) for x in table.values()}
    if len(lengths) > 1:
        raise ValueError(f"columns of different lengths: {sorted(lengths)}")
    rows = lengths.pop() if lengths else 0

    def read(column: str, lo: int, hi: int) -> np.ndarray:
        return np.asarray(table.rows(column, lo, hi), dtype=float)

    # an embedded interpreter may not know its executable: then no helper starts
    shares = min(series._cpus(), rows // csvrows.CHUNK_ROWS) if sys.executable else 1
    with open(path, "wb") as fh:
        fh.write((",".join(columns) + "\r\n").encode())
        if shares < 2:
            csvrows.write_rows(fh.write, _chunk(read, columns), 0, rows)
        else:
            _write_shares(fh, read, columns, [rows * k // shares for k in range(shares + 1)])


def _chunk(read, columns: list[str]):
    """rows(i, j): rows i:j of each named column, as ``csvrows.write_rows`` reads them."""
    return lambda i, j: [read(c, i, j) for c in columns]


def _write_shares(fh, read, columns: list[str], cuts: list[int]) -> None:
    """Rows cuts[0]..cuts[-1] to fh: the first share here, each other on a helper.

    read(column, lo, hi) gives rows lo:hi of a column as float64.
    """
    import shutil
    import subprocess
    import tempfile
    from contextlib import ExitStack

    chunk = _chunk(read, columns)

    def start(files, lo, hi):
        """The stdout file and process of a helper formatting rows lo..hi."""
        stdin = files.enter_context(tempfile.TemporaryFile())
        stdout = files.enter_context(tempfile.TemporaryFile())
        for c in columns:  # a chunk at a time: no column of the share exists whole
            for i in range(lo, hi, csvrows.CHUNK_ROWS):
                stdin.write(read(c, i, min(i + csvrows.CHUNK_ROWS, hi)).tobytes())
        stdin.seek(0)
        return stdout, subprocess.Popen(
            [sys.executable, "-I", "-S", csvrows.__file__, str(len(columns))],
            stdin=stdin, stdout=stdout, stderr=subprocess.DEVNULL)

    def appended(stdout) -> bool:
        """Whether the helper's text was copied to fh.

        On an OSError fh is put back where the copy began, so the rows
        written there next overwrite the part copied, a prefix of their text.
        """
        before = fh.tell()
        try:
            stdout.seek(0)
            shutil.copyfileobj(stdout, fh)
            return True
        except OSError:
            fh.seek(before)
            return False

    helpers = []  # (lo, hi, the stdout and process of its helper, or None)
    with ExitStack() as files:
        try:
            for lo, hi in zip(cuts[1:-1], cuts[2:]):
                try:
                    helpers.append((lo, hi, start(files, lo, hi)))
                except OSError:
                    helpers.append((lo, hi, None))
            csvrows.write_rows(fh.write, chunk, cuts[0], cuts[1])
            for lo, hi, helper in helpers:
                if helper is None or helper[1].wait() != 0 or not appended(helper[0]):
                    csvrows.write_rows(fh.write, chunk, lo, hi)  # the same bytes, made here
        finally:
            for _, _, helper in helpers:
                if helper is not None and helper[1].poll() is None:
                    helper[1].kill()
                    helper[1].wait()
