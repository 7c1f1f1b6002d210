"""Workload processes started by run.py.

    child.py setup <workload> <descriptor.json>   import harmdist, build the map,
                                                  print "ready", then the environment
    child.py series --seed S                      the verify-series workload
    child.py traced <workload> <spans.json> <run_id> -- <workload args>
                                                  one workload run under spans

Each needs the checkout's src directory on PYTHONPATH.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from pathlib import Path

from workloads import BOUND, CATALOG_MAP, SERIES_DESCRIPTOR, SERIES_SUITES, WORKLOADS


def build_map(workload, desc_path):
    if not workload.descriptor:
        from harmdist.catalog import get_map

        return get_map(CATALOG_MAP)
    from harmdist import descriptors

    if workload.cli:  # the CLI reads the descriptor from its file
        return descriptors.load_descriptor(desc_path)
    return descriptors.parse_descriptor(SERIES_DESCRIPTOR)


def run_series(seed: int) -> None:
    """Library quick-start path: build, sample, verify; print one JSON line per suite."""
    from harmdist import descriptors, norms, verifier

    f = descriptors.parse_descriptor(SERIES_DESCRIPTOR)
    r_max = min(norms.DEFAULT_R_MAX, f.reliable_radius)
    for strategy, count in SERIES_SUITES:
        samples = verifier.sample_pairs(strategy, count, seed, r_max)
        report = verifier.verify_bound(f, BOUND, {}, samples)
        text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"
        print(json.dumps(dict(
            strategy=strategy, pairs=report.pairs, violations=report.violations,
            hypothesis_met=report.hypothesis_met,
            sha256=hashlib.sha256(text.encode()).hexdigest(),
        )))


def environment() -> dict:
    import numpy
    import scipy

    import harmdist

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return dict(
        python=platform.python_version(), numpy=numpy.__version__,
        scipy=scipy.__version__, harmdist=harmdist.__version__,
        harmdist_file=harmdist.__file__, nproc=os.cpu_count(), cpu=cpu,
        HARMDIST_THREADS=os.environ.get("HARMDIST_THREADS"),
    )


def setup(name: str, desc_path: str) -> None:
    import harmdist  # noqa: F401

    build_map(WORKLOADS[name], desc_path)
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    print(json.dumps(environment()))


def traced(name: str, spans_path: str, run_id: int, argv: list[str]) -> int:
    from spans import Tracer, instrument

    workload = WORKLOADS[name]
    tracer = Tracer(run_id)
    idx = tracer.begin("import.harmdist")
    import harmdist  # noqa: F401

    scipy_loaded = "scipy" in sys.modules
    if workload.cli:
        import harmdist.cli
    else:
        import harmdist.descriptors  # noqa: F401
        import harmdist.verifier  # noqa: F401
    tracer.end(idx)

    instrument(tracer)
    if workload.cli:
        rc = harmdist.cli.main(argv)
    else:
        run_series(int(argv[argv.index("--seed") + 1]))
        rc = 0
    sys.stdout.flush()
    doc = dict(spans=tracer.spans, func_points=tracer.func_points, pairs=tracer.pairs,
               scipy_loaded=int(scipy_loaded), environment=environment())
    Path(spans_path).write_text(json.dumps(doc))
    return rc


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "setup":
        setup(argv[1], argv[2])
        return 0
    if mode == "series":
        run_series(int(argv[argv.index("--seed") + 1]))
        return 0
    if mode == "traced":
        sep = argv.index("--")
        name, spans_path, run_id = argv[1:sep]
        return traced(name, spans_path, int(run_id), argv[sep + 1:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
