"""The three benchmark workloads: what each process runs and what it must output.

Shared by the orchestrator (run.py) and the workload processes (child.py).
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED = json.loads((BENCH_DIR / "expected.json").read_text())

BOUND = "convex_h"
CATALOG_MAP = "shear-halfplane-0.4z"
# The same map as CATALOG_MAP, but g is the order-120 series built by the shear.
SERIES_DESCRIPTOR = {"h": {"name": "halfplane"}, "omega": {"expr": "0.4z"}}
EMIT_PAIRS = 100_000
SERIES_SUITES = (
    ("uniform-in-disc", 500_000),
    ("boundary-biased", 50_000),
    ("near-diagonal", 50_000),
)
ANALYZE_GRID = "256,1024"

# `harmdist` console script, spelled out so no install is needed.
CLI = [sys.executable, "-c", "import sys; from harmdist.cli import main; sys.exit(main())"]
CHILD = [sys.executable, str(BENCH_DIR / "child.py")]

_SUITE_LINE = re.compile(
    r"^(?P<stem>\S+): pairs=(?P<pairs>\d+) violations=(?P<violations>\d+) "
    r"hypothesis_met=(?P<met>True|False)$"
)


@dataclass(frozen=True)
class Workload:
    name: str
    cli: bool  # run through the CLI (else through the library API)
    descriptor: bool  # map comes from SERIES_DESCRIPTOR (else from the catalog)

    def argv(self, seed: int, out: Path, desc: Path) -> list[str]:
        """Arguments after the program: CLI arguments, or child.py's."""
        if self.name == "verify-emit":
            return ["verify", "--bound", BOUND, "--map", CATALOG_MAP,
                    "--pairs", str(EMIT_PAIRS), "--seed", str(seed), "--out", str(out)]
        if self.name == "analyze-fine":
            return ["analyze", "--map", str(desc), "--grid", ANALYZE_GRID, "--out", str(out)]
        return ["series", "--seed", str(seed)]

    def command(self, seed: int, out: Path, desc: Path) -> list[str]:
        return (CLI if self.cli else CHILD) + self.argv(seed, out, desc)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-emit", cli=True, descriptor=False),
        Workload("verify-series", cli=False, descriptor=True),
        Workload("analyze-fine", cli=True, descriptor=True),
    )
}


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def parse_outputs(workload: Workload, stdout: str, out: Path) -> tuple[dict, dict]:
    """(suites, sha256) from one run's stdout and output directory.

    suites maps suite name -> {pairs, violations, hypothesis_met};
    sha256 maps report name -> digest of its bytes.
    """
    suites, digests = {}, {}
    if workload.name == "verify-series":
        for line in stdout.splitlines():
            rec = json.loads(line)
            suites[rec["strategy"]] = {k: rec[k] for k in ("pairs", "violations", "hypothesis_met")}
            digests[rec["strategy"]] = rec["sha256"]
        return suites, digests
    for line in stdout.splitlines():
        m = _SUITE_LINE.match(line)
        if m:
            suites[m["stem"]] = dict(pairs=int(m["pairs"]), violations=int(m["violations"]),
                                     hypothesis_met=m["met"] == "True")
    for path in sorted(out.iterdir()):
        digests[path.name] = sha256_file(path)
    return suites, digests


def check_outputs(workload: Workload, seed: int, rc: int, suites: dict,
                  digests: dict, reference: dict | None) -> list[str]:
    """Problems with one run's outputs; empty when the run is correct.

    Exit code, suites and digest names are pinned for every seed.  Digests
    are pinned for the default seed; on another seed they must equal the
    first run's (``reference``), since the same seed must give the same bytes.
    analyze takes no seed, so its digest is pinned for every seed.
    """
    exp = EXPECTED[workload.name]
    problems = []
    if rc != exp["exit_code"]:
        problems.append(f"exit code {rc}, expected {exp['exit_code']}")
    if suites != exp["suites"]:
        problems.append(f"suites {suites}, expected {exp['suites']}")
    pinned = exp["sha256"]
    if seed == EXPECTED["default_seed"] or not workload.name.startswith("verify"):
        want = pinned
    else:
        want = reference if reference is not None else digests
    if sorted(digests) != sorted(pinned):
        problems.append(f"reports {sorted(digests)}, expected {sorted(pinned)}")
    elif digests != want:
        bad = sorted(k for k in digests if digests[k] != want[k])
        problems.append(f"report bytes differ: {bad}")
    return problems
