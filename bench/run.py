"""harmdist benchmark: run one workload for a fixed time, check it, print its metrics.

    python3 bench/run.py --workload verify-emit --seed 0 --seconds 38 --trace 0

Run from anywhere inside a source checkout; nothing needs installing.  Each
workload run is a fresh process (closed loop, one client), started with
the checkout's src on PYTHONPATH and HARMDIST_THREADS unset.

--trace 0 measures the end-to-end metrics.  --trace 1 alternates untraced
and traced runs of the same workload and reports the per-layer metrics
listed in layers.json.  The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from workloads import (BENCH_DIR, CHILD, EXPECTED, SERIES_DESCRIPTOR, WORKLOADS, check_outputs,
                       parse_outputs)

ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench"
LAYERS = json.loads((BENCH_DIR / "layers.json").read_text())
DEADLINE_S = 170.0  # a process still running this long after start is killed
MIN_RUNS = 2  # workload runs per run at least, so repeated bytes are checked
# Counters that must repeat exactly from one traced run to the next.
EXACT = ("import.scipy_loaded", "harmonic.h_points", "harmonic.g_points",
         "harmonic.jet_redundancy", "norms.func_points", "verifier.emit_bytes")
SELF_LAYERS = ("catalog", "descriptors", "harmonic", "operators", "norms", "criteria",
               "bounds", "disk", "verifier")


@contextlib.contextmanager
def started(command: list[str], **kwargs):
    """A child process that is killed and reaped however the block is left."""
    proc = subprocess.Popen(command, **kwargs)
    try:
        yield proc
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()


class Bench:
    def __init__(self, workload, seed: int, trace: bool):
        self.w = workload
        self.seed = seed
        self.dir = WORK / f"{workload.name}-{os.getpid()}"
        self.results = WORK / "results"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.results.mkdir(exist_ok=True)
        self.desc = self.dir / "map.json"
        self.desc.write_text(json.dumps(SERIES_DESCRIPTOR))
        self.out = self.dir / "out"
        self.env = dict(os.environ)
        self.env.pop("HARMDIST_THREADS", None)
        paths = [str(ROOT / "src")] + [p for p in [self.env.get("PYTHONPATH")] if p]
        self.env["PYTHONPATH"] = os.pathsep.join(paths)
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.reference: dict | None = None  # first run's report digests
        self.stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
        self.start = time.perf_counter()

    def watchdog(self, proc) -> threading.Timer:
        left = DEADLINE_S - (time.perf_counter() - self.start)
        timer = threading.Timer(max(1.0, left), proc.kill)
        timer.daemon = True
        timer.start()
        return timer

    def fail(self, what: str, problems: list[str]) -> None:
        self.failed += 1
        self.problems += [f"{what}: {p}" for p in problems]

    def setup_once(self) -> tuple[float | None, dict | None]:
        """Process start -> import harmdist -> map built, in a fresh process."""
        self.attempted += 1
        stderr = self.dir / "stderr"
        with open(stderr, "w") as fe:
            t0 = time.perf_counter()
            with started(CHILD + ["setup", self.w.name, str(self.desc)], cwd=ROOT,
                         env=self.env, stdout=subprocess.PIPE, stderr=fe, text=True) as proc:
                timer = self.watchdog(proc)
                with proc.stdout:
                    ready = proc.stdout.readline()
                    elapsed = time.perf_counter() - t0
                    rest = proc.stdout.read()
                proc.wait()
        timer.cancel()
        try:
            if ready != "ready\n" or proc.returncode != 0:
                raise ValueError(f"exit code {proc.returncode}: "
                                 f"{stderr.read_text().strip()[-500:]}")
            return elapsed, json.loads(rest)
        except ValueError as exc:
            self.fail("setup", [str(exc)])
            return None, None

    def run_once(self, command: list[str]) -> dict | None:
        """One workload process: wall time, peak RSS and checked outputs."""
        self.attempted += 1
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()
        stdout, stderr = self.dir / "stdout", self.dir / "stderr"
        with open(stdout, "w") as fo, open(stderr, "w") as fe:
            t0 = time.perf_counter()
            with started(command, cwd=ROOT, env=self.env, stdout=fo, stderr=fe) as proc:
                timer = self.watchdog(proc)
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
                proc.returncode = rc = os.waitstatus_to_exitcode(status)
        timer.cancel()
        try:
            suites, digests = parse_outputs(self.w, stdout.read_text(), self.out)
            problems = check_outputs(self.w, self.seed, rc, suites, digests, self.reference)
        except (ValueError, KeyError, OSError) as exc:
            digests, problems = {}, [f"unreadable output: {exc!r}"]
        files = list(self.out.iterdir())
        emit_bytes = sum(p.stat().st_size for p in files)
        # Write the reports through to disk outside the timed region, so the
        # next run does not share the disk with this run's writeback.
        for path in files:
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        shutil.rmtree(self.out)
        if problems:
            tail = stderr.read_text().strip()[-500:]
            self.fail("run", problems + ([f"stderr: {tail}"] if tail else []))
            return None
        if self.reference is None:
            self.reference = digests
        return dict(wall=wall, rss_mb=usage.ru_maxrss / 1024.0, emit_bytes=emit_bytes)

    def workload_command(self) -> list[str]:
        return self.w.command(self.seed, self.out, self.desc)

    def traced_once(self, run_id: int) -> tuple[dict, dict] | tuple[None, None]:
        spans = self.results / f"{self.stem}-spans-{run_id}.json"
        command = CHILD + ["traced", self.w.name, str(spans), str(run_id),
                           "--"] + self.w.argv(self.seed, self.out, self.desc)
        run = self.run_once(command)
        if run is None:
            return None, None
        return run, json.loads(spans.read_text())

    def finish(self, metrics: dict, units: dict, extra: dict) -> None:
        result = dict(correct=not self.problems and self.attempted > 0,
                      attempted=self.attempted, failed=self.failed,
                      metrics={k: dict(value=v, unit=units[k]) for k, v in metrics.items()})
        record = dict(workload=self.w.name, seed=self.seed, problems=self.problems,
                      failed_frac=self.failed / max(1, self.attempted), **extra, result=result)
        (self.results / f"{self.stem}.json").write_text(json.dumps(record, indent=2) + "\n")
        for p in self.problems:
            print(f"FAILED {p}", file=sys.stderr)
        print(f"failed_frac: {self.failed / max(1, self.attempted):.4f} "
              f"({self.failed} of {self.attempted} processes)")
        print(json.dumps(result))


def summary(values: list[float]) -> dict:
    """Median and sample count, plus the highest percentile with ten samples beyond it."""
    out = dict(median=statistics.median(values), n=len(values))
    if len(values) >= 20:
        k = len(values) - 11
        out[f"p{100 * (k + 1) // len(values)}"] = sorted(values)[k]
    return out


def show(name: str, unit: str, values: list[float] | None, note: str = "",
         fastest: float | None = None) -> None:
    if not values:
        print(f"{name:<28} {'n/a':>14} {unit:<6} {note}")
        return
    s = summary(values)
    tail = " ".join(f"{k}={v:.6g}" for k, v in s.items() if k.startswith("p"))
    if fastest is not None:
        tail += f" fastest-run={fastest:.6g}"
    print(f"{name:<28} {s['median']:>14.6g} {unit:<6} median of n={s['n']} {tail} {note}")


def timed_loop(seconds: float, step) -> None:
    """Call step() until the next call would end after `seconds` (MIN_RUNS at least)."""
    start = time.perf_counter()
    durations = []
    while True:
        t0 = time.perf_counter()
        step()
        durations.append(time.perf_counter() - t0)
        if len(durations) >= MIN_RUNS and (
            time.perf_counter() - start + statistics.median(durations) > seconds
        ):
            return


def measure(b: Bench, seconds: float) -> None:
    b.setup_once()  # untimed: fills the bytecode and file caches
    setups, runs, env = [], [], None

    def step():
        # One set-up probe per workload run, so that setup_s samples the
        # host's slow and fast spells across the whole run, as wall_s does.
        nonlocal env
        t, info = b.setup_once()
        if t is not None:
            setups.append(t)
            env = info
        r = b.run_once(b.workload_command())
        if r is not None:
            runs.append(r)

    timed_loop(seconds, step)
    walls = [r["wall"] for r in runs]
    pairs = sum(s["pairs"] for s in EXPECTED[b.w.name]["suites"].values())
    rss = [r["rss_mb"] for r in runs]
    print(f"workload={b.w.name} seed={b.seed} trace=0 closed loop, 1 client")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    show("setup_s", "s", setups)
    best = min(walls) if walls else None
    show("wall_s", "s", walls, fastest=best)
    show("pairs_per_s", "1/s", [pairs / w for w in walls] if pairs else None,
         f"({pairs} pairs per run)" if pairs else "(no pairs on this workload)",
         fastest=pairs / best if pairs else None)
    show("peak_rss_mb", "MB", rss)
    metrics, units = {}, {}
    if setups and walls:
        # wall_s is gated on the fastest run: interference from the shared
        # host only ever slows a run down, and it comes and goes for tens of
        # seconds at a time, so the median of a run moves with the host.
        metrics = dict(setup_s=statistics.median(setups), wall_s=best,
                       peak_rss_mb=statistics.median(rss))
        units = dict(setup_s="s", wall_s="s", peak_rss_mb="MB")
    else:
        b.problems.append("no successful run to measure")
    b.finish(metrics, units, dict(environment=env, setup_s=setups, wall_s=walls,
                                  peak_rss_mb=rss, pairs=pairs))


def layer_metrics(doc: dict, wall: float, emit_bytes: int) -> dict:
    """Per-layer metrics of one traced run (see layers.json for their meaning)."""
    spans = doc["spans"]
    dur = [s[2] - s[1] for s in spans]
    names = [s[0] for s in spans]
    layer = [n.split(".", 1)[0] for n in names]
    children = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]] += dur[i]

    def ancestors(i):
        i = spans[i][3]
        while i >= 0:
            yield i
            i = spans[i][3]

    def outer(match) -> float:
        """Time in spans that match and are not inside another that matches."""
        return sum(dur[i] for i in range(len(spans))
                   if match(i) and not any(match(a) for a in ancestors(i)))

    def named(name):
        return lambda i: names[i] == name

    def in_layer(name):
        return lambda i: layer[i] == name

    def points(name):
        return sum(s[5] for s in spans if s[0] == name)

    # Inside verify_bound, everything but these is margin comparison and table building.
    def measured_step(i):
        return layer[i] in ("criteria", "bounds") or names[i] in ("norms.prepare",
                                                                  "verifier.truth")

    in_verify = [any(names[a] == "verifier.verify_bound" for a in ancestors(i))
                 for i in range(len(spans))]
    steps = outer(lambda i: measured_step(i) and in_verify[i])
    on_pairs = sum(s[5] for i, s in enumerate(spans) if s[0] == "harmonic.g_derivs"
                   and in_verify[i] and not any(layer[a] == "criteria" or names[a] == "norms.prepare"
                                                for a in ancestors(i)))
    m = {
        "import.s": outer(named("import.harmdist")),
        "import.scipy_loaded": doc["scipy_loaded"],
        "catalog.build_s": outer(in_layer("catalog")),
        "descriptors.build_s": outer(in_layer("descriptors")),
        "verifier.sample_s": outer(named("verifier.sample_pairs")),
        "criteria.gate_s": outer(in_layer("criteria")),
        "norms.prepare_s": outer(named("norms.prepare")),
        "harmonic.h_points": points("harmonic.h_derivs"),
        "harmonic.g_points": points("harmonic.g_derivs"),
        "harmonic.jet_redundancy": on_pairs / (2 * doc["pairs"]) if doc["pairs"] else 0.0,
        "operators.distortion_s": outer(named("operators.distortion_quantities")),
        "bounds.eval_s": outer(in_layer("bounds")),
        "verifier.truth_s": outer(named("verifier.truth")),
        "verifier.verify_s": outer(named("verifier.verify_bound")),
        "norms.scan_s": outer(named("norms.sup_weighted")) - outer(named("norms.refine")),
        "norms.refine_s": outer(named("norms.refine")),
        "norms.func_points": doc["func_points"],
        "operators.schwarzian_s": outer(named("operators.harmonic_schwarzian")),
        "verifier.emit_csv_s": outer(named("verifier.write_pairs_csv")),
        "verifier.emit_json_s": outer(named("verifier.write_report_json")),
        "verifier.emit_bytes": emit_bytes,
        "cli.residual_s": wall - sum(dur[i] for i, s in enumerate(spans) if s[3] < 0),
    }
    m["verifier.compare_s"] = m["verifier.verify_s"] - steps
    for name in SELF_LAYERS:
        m[f"{name}.self_s"] = sum(dur[i] - children[i] for i in range(len(spans))
                                  if layer[i] == name)
    return m


def measure_traced(b: Bench, seconds: float) -> None:
    plain, traced = [], []

    def step():
        r = b.run_once(b.workload_command())
        if r is not None:
            plain.append(r)
        run, doc = b.traced_once(len(traced))
        if run is not None:
            traced.append(layer_metrics(doc, run["wall"], run["emit_bytes"]) | {
                "_wall": run["wall"], "_env": doc["environment"]})

    timed_loop(seconds, step)
    units = {e["name"]: e["unit"] for e in LAYERS}
    metrics = {}
    if traced and plain:
        for name in EXACT:
            seen = {t[name] for t in traced}
            if len(seen) != 1:
                b.problems.append(f"counter {name} did not repeat exactly: {sorted(seen)}")
        for e in LAYERS:
            name = e["name"]
            if name == "trace.overhead_s":
                metrics[name] = (statistics.median(t["_wall"] for t in traced)
                                 - statistics.median(r["wall"] for r in plain))
            elif name in EXACT:
                metrics[name] = traced[0][name]
            else:
                metrics[name] = statistics.median(t[name] for t in traced)
    else:
        b.problems.append("no successful traced run")
    print(f"workload={b.w.name} seed={b.seed} trace=1 "
          f"({len(traced)} traced and {len(plain)} untraced runs)")
    if traced:
        print(f"environment: {json.dumps(traced[0]['_env'], sort_keys=True)}")
    for e in LAYERS:
        if e["name"] in metrics:
            print(f"{e['name']:<28} {metrics[e['name']]:>14.6g} {e['unit']:<6} "
                  f"moves {e['moves']} on {', '.join(e['workloads'])}")
    b.finish(metrics, units, dict(traced=[{k: v for k, v in t.items() if k != "_env"}
                                          for t in traced],
                                  untraced_wall_s=[r["wall"] for r in plain]))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # Turn a kill into an exception, so the running workload process is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "harmdist" / "__init__.py").is_file():
        print(f"error: no harmdist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    b = Bench(WORKLOADS[args.workload], args.seed, bool(args.trace))
    try:
        (measure_traced if args.trace else measure)(b, args.seconds)
    finally:
        shutil.rmtree(b.dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
