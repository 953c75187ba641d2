"""Benchmark of the newform_dedekind package.

    python3 bench/run.py --workload {sweep,point,quotients} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from src/.
The workload repeats for about S seconds (at least once); each repetition's
output is checked outside the timed region. With --trace 0 it prints the
end-to-end metrics, with --trace 1 the per-layer metrics from a traced run
(wrappers around each module's public functions, see tracing.py). The last
line of stdout is one JSON object {correct, attempted, failed, metrics};
the lines before it give the run's provenance and every metric with its unit.
Spans and a full result file go to .bench_out/ in the checkout.

End-to-end metrics (medians over repetitions unless noted):
  wall_s              one repetition of the workload
  ops_per_s           ops per second; an op is one S value (sweep, point) or
                      one (a, c) pair classified or checked (quotients)
  latency_p50_ms,     over distinct requests (one point query, or one `nfds`
  latency_p99_ms      command: sweep has one, quotients three), each taken
                      as the median of its repeats in the run, so a stall
                      of the host hits one repeat and not the tail. The
                      tail is p99 when at least ten requests lie beyond it,
                      else the highest percentile that has ten beyond it,
                      but never below p50 (so the few-request workloads
                      report their median twice)
  setup_s             median over fresh interpreters, started one at a time
                      and spread over the run, of import, character
                      construction and one warm-up call
  peak_rss_mb         peak resident set of this process plus its largest
                      child (the scan's pool workers)
  min_correct_digits  min over checked values of -log10(|S - S_ref| /
                      max(1, |S_ref|)), capped at 15; quotients: the exact
                      pair count
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 11
WORKLOADS = ("sweep", "point", "quotients")

END_TO_END = (
    ("wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("min_correct_digits", "digits"),
)

# a fresh interpreter: import, character construction and one warm-up call
PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import workloads
w = workloads.make(sys.argv[3], int(sys.argv[4]), 1, sys.argv[5])
w.setup()
print(time.perf_counter() - t0)
"""


def git_sha():
    """HEAD of the checkout, if it is a git repository of its own; else None."""
    # the ceiling keeps git from finding a repository that merely encloses the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def percentile(values, p):
    """Linear-interpolated percentile of a non-empty list, p in [0, 100]."""
    v = sorted(values)
    x = (len(v) - 1) * p / 100
    lo = int(x)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (x - lo)


def repeat(seconds, step, min_steps=1):
    """Call step(i, elapsed) for i = 0, 1, ... until `seconds` have passed.

    `elapsed` is the time since the first call; at least `min_steps` calls are made.
    """
    start = time.perf_counter()
    i = 0
    elapsed = 0.0
    while i < min_steps or elapsed < seconds:
        step(i, elapsed)
        i += 1
        elapsed = time.perf_counter() - start


def run_untraced(workload, seconds, probes):
    """Repetitions for `seconds`, with the set-up probes spread evenly between them."""
    reps = []

    def step(i, elapsed):
        if len(probes.times) < SETUP_PROBES * elapsed / seconds:
            probes.run()
        reps.append(workload.run_once())

    repeat(seconds, step)
    return reps


def traced_step(i, cycle):
    """Whether repetition i of the traced run is traced: parts alternate, and flip each cycle."""
    return (i // cycle + i % cycle) % 2 == 1


def run_traced(workload, seconds, tracer):
    """Repetitions for `seconds`, alternating untraced and traced.

    The alternation flips every cycle of a workload whose inputs rotate, so
    each input is run both ways. Returns the untraced repetitions, the traced
    ones and each traced one's per-layer metrics; only the first traced
    repetition's spans are kept for writing out.
    """
    plain, traced, per_layer = [], [], []

    def step(i, elapsed):
        if not traced_step(i, workload.cycle):
            plain.append(workload.run_once())
            return
        first, errors = len(tracer.spans), tracer.errors.copy()
        with tracer.installed():
            rep = workload.run_once(tracer.next_request)
        traced.append(rep)
        per_layer.append(tracer.metrics(first, tracer.errors - errors, rep))
        if first:
            del tracer.spans[first:]

    repeat(seconds, step, min_steps=2)
    return plain, traced, per_layer


def check_all(workload, reps):
    """Check every repetition; identical outputs are checked once."""
    seen = {}
    checks = []
    for rep in reps:
        key = repr(rep.output)
        if key not in seen:
            seen[key] = workload.check(rep.output)
        checks.append(seen[key])
    return checks


class SetupProbes:
    """Set-up time of the workload, each probe a fresh interpreter run to its end.

    A probe is reaped only by reap(), which the run calls after reading
    peak_rss_mb(): an exited child counts in RUSAGE_CHILDREN once it is
    reaped, and that metric is meant to see the scan's pool workers only.
    """

    def __init__(self, workload_name, seed, tmpdir):
        self.argv = [sys.executable, "-c", PROBE, str(SRC), str(BENCH), workload_name,
                     str(seed), tmpdir]
        self.procs, self.times = [], []

    def run(self):
        proc = subprocess.Popen(self.argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                                text=True)
        self.procs.append(proc)
        timer = threading.Timer(120, proc.kill)
        timer.start()
        with proc.stdout:
            out = proc.stdout.read()  # returns at the probe's exit
        timer.cancel()
        try:
            self.times.append(float(out.split()[-1]))
        except (IndexError, ValueError):
            raise RuntimeError(f"set-up probe failed: {out[-500:]}") from None

    def seconds(self):
        while len(self.times) < SETUP_PROBES:
            self.run()
        return statistics.median(self.times)

    def reap(self):
        for proc in self.procs:
            proc.wait()


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024  # ru_maxrss is in KiB on Linux


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under python -O: the package's certification "
              "asserts vanish there", file=sys.stderr)
        return 2
    if not (SRC / "newform_dedekind" / "__init__.py").is_file():
        print(f"no package source at {SRC}: run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    nproc = len(os.sched_getaffinity(0))
    # the sweep's pool never exceeds nproc; the traced sweep keeps every span in one process
    workers = 1 if args.trace else min(2, nproc)
    OUT.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(dir=OUT)
    try:
        return run(args, workers, nproc, tmpdir)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def run(args, workers, nproc, tmpdir):
    # imported only once main() has found the package source
    import numpy
    import tracing
    import workloads

    workload = workloads.make(args.workload, args.seed, workers, tmpdir)
    workload.setup()
    extra = {}
    if args.trace:
        # same worker count both ways, for the overhead
        tracer = tracing.Tracer()
        plain, traced, per_rep = run_traced(workload, args.seconds, tracer)
        metrics = {name: statistics.median(m[name] for m in per_rep)
                   for name, _ in tracing.PER_LAYER if name != "trace.overhead_frac"}
        metrics["trace.overhead_frac"] = (
            statistics.median(r.wall_s for r in traced)
            / statistics.median(r.wall_s for r in plain) - 1)
        units = dict(tracing.PER_LAYER)
        tracer.write(OUT / f"spans-{args.workload}.csv")
        extra.update(spans_written=len(tracer.spans), traced_reps=len(traced))
        reps = plain + traced
    else:
        probes = SetupProbes(args.workload, args.seed, tmpdir)
        try:
            reps = run_untraced(workload, args.seconds, probes)
            rss = peak_rss_mb()
            setup_s = probes.seconds()
        finally:
            probes.reap()
        repeats = defaultdict(list)
        for r in reps:
            for key, seconds in r.latencies_s.items():
                repeats[key].append(seconds)
        latencies = [statistics.median(v) for v in repeats.values()]
        tail = max(50.0, min(99.0, 100 * (1 - 10 / len(latencies))))
        extra.update(latency_requests=len(latencies),
                     latency_samples=sum(len(v) for v in repeats.values()),
                     latency_tail_percentile=tail,
                     setup_probe_s=[round(t, 4) for t in probes.times])
        metrics = {
            "wall_s": statistics.median(r.wall_s for r in reps),
            "ops_per_s": statistics.median(r.ops / r.wall_s for r in reps),
            "latency_p50_ms": 1000 * percentile(latencies, 50),
            "latency_p99_ms": 1000 * percentile(latencies, tail),
            "setup_s": setup_s,
            "peak_rss_mb": rss,
        }
        units = dict(END_TO_END)
    checks = check_all(workload, reps)
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    extra["failed_frac"] = failed / attempted
    if not args.trace:
        metrics["min_correct_digits"] = min(c.digits for c in checks)
        metrics = {name: metrics[name] for name, _ in END_TO_END}
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "nproc": nproc, "workers": workers,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "sizes": workload.sizes, "reps": len(reps),
        "rep_wall_s": [round(r.wall_s, 4) for r in reps], **extra,
    }
    notes = [n for c in checks for n in c.notes][:20]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"meta": meta, "failures": notes, **result}, indent=1) + "\n")
    print("meta " + json.dumps(meta))
    for note in notes:
        print("FAIL " + note)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
