"""Run the cohodist benchmark: seeded query workloads against the package.

    python3 bench/run.py                          # every workload, seed 0
    python3 bench/run.py --workload search --seed 3 --seconds 40
    python3 bench/run.py --workload sweep --trace 1   # per-layer table

A run of a workload makes passes until ``--seconds`` would be exceeded
(at least one).  Each pass writes its inputs from the seed, starts one
fresh child process (cold module caches, as for a CLI user), and sends
the workload's queries one at a time, checking each verdict before the
next query is sent.  Times are reported in reference seconds: each child
samples the machine's speed while it works (see ``reference.py``).  See
``bench/README.md`` for the workloads, the load model and the metric
definitions.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run makes one
untraced and one traced pass on the same inputs and reports the
per-layer metrics.  The exit code is 0 when every verdict was right, 1
when one was wrong, and 2 when the program cannot be run.
"""

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import tracer
from workloads import WORKLOADS, build_queries, check

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# spawns made only to time set-up, before the first pass of a run
SETUP_SPAWNS = 5
# samples a query's or a set-up's speed is taken from (see local_speeds)
LOCAL_SAMPLES = 20
# a query that takes longer than this is killed and counted as failed
QUERY_TIMEOUT_S = 150.0

# exact piece-evaluation counts checked on every traced run; they do not
# depend on the vertex order (see README.md)
PIECE_EVALS = {
    "bounds tc s2 zp:3": 652,
    "search exhaustive rp2 z2 2": 1023,
}

END_TO_END_UNITS = {"wall_s": "s", "query_p50_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


class ProgramMissing(Exception):
    pass


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


class Child:
    """One child process; set-up time is measured from spawn to ready."""

    def __init__(self, trace_path=None):
        cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py")]
        if trace_path:
            cmd += ["--trace", trace_path]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            ready = self._read()
        except Exception:
            self.close()
            raise
        # the child's speed samples so far: their time is not the program's
        self.sampled_s = ready.get("sampled_s", 0.0)
        self.setup_s = time.perf_counter() - t0 - self.sampled_s
        self.setup_speed = (ready.get("speed_sum", 0.0), ready.get("speed_n", 0))
        package = os.path.realpath(ready.get("package", ""))
        if not package.startswith(os.path.realpath(SRC) + os.sep):
            self.close()
            raise ProgramMissing(f"child imported cohodist from {package}, not {SRC}")

    def _read(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"child exited with code {self.proc.wait()}")
        return json.loads(line)

    def ask(self, request, timeout=None):
        timer = threading.Timer(timeout, self.proc.kill) if timeout else None
        if timer:
            timer.start()
        try:
            self.proc.stdin.write(json.dumps(request) + "\n")
            self.proc.stdin.flush()
            return self._read()
        finally:
            if timer:
                timer.cancel()

    def quit(self):
        """(peak resident memory in MB, sampled speed); the child has ended."""
        try:
            reply = self.ask({"quit": True}, timeout=QUERY_TIMEOUT_S)
        finally:
            self.close()
        return reply["peak_rss_mb"], reply["speed"]

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream:
                stream.close()


def local_speeds(samples):
    """Speed of each step of a child, from the samples in and around it.

    ``samples`` holds one (sum, count) of sampled speeds per step, in the
    order the steps ran.  A step's speed is the mean of its own samples and
    those of its nearest neighbours, taken until there are at least
    ``LOCAL_SAMPLES``: a step of a few milliseconds has no sample of its
    own, and the machine's speed changes within a second.
    """
    speeds = []
    for i in range(len(samples)):
        total, n = samples[i]
        lo, hi = i - 1, i + 1
        while n < LOCAL_SAMPLES and (lo >= 0 or hi < len(samples)):
            for j in (lo, hi):
                if 0 <= j < len(samples):
                    total += samples[j][0]
                    n += samples[j][1]
            lo, hi = lo - 1, hi + 1
        speeds.append(total / n if n else None)
    return speeds


class Pass:
    """Measurements of one pass: one child, every query of the workload once.

    Times are as timed, less the child's speed samples; ``scaled`` gives
    them in reference seconds.
    """

    def __init__(self):
        self.setup_s = None
        self.wall_s = None
        self.latencies = []
        self.failures = []       # (query name, reason)
        self.peak_rss_mb = None
        self.attempted = 0
        self.speed = None        # mean over the child's life, from its quit
        self.samples = []        # (sum, count) of speeds: set-up, then each query

    def scaled(self):
        """(setup_s, wall_s, latencies) in reference seconds."""
        speeds = [s if s is not None else self.speed
                  for s in local_speeds(self.samples)]
        total = sum(s for s, _ in self.samples[1:])
        n = sum(n for _, n in self.samples[1:])
        wall_speed = total / n if n else self.speed
        return (self.setup_s * speeds[0], self.wall_s * wall_speed,
                [t * s for t, s in zip(self.latencies, speeds[1:])])


def run_pass(workload, seed, variant, workdir, fixture_order=False, trace_path=None):
    indir = os.path.join(workdir, f"inputs-{variant}")
    queries = build_queries(workload, indir, seed, variant, fixture_order)
    result = Pass()
    child = Child(trace_path)
    try:
        result.setup_s = child.setup_s
        result.samples.append(child.setup_speed)
        sampled_s = child.sampled_s
        first = time.perf_counter()
        for query in queries:
            sent = time.perf_counter()
            try:
                reply = child.ask({"query": query}, timeout=QUERY_TIMEOUT_S)
                sampled_s = reply["sampled_s"]
                took = reply["took_s"]
                speed = (reply["speed_sum"], reply["speed_n"])
                reason = check(query, reply["outcome"])
            except (RuntimeError, ValueError, KeyError) as e:
                took, speed = time.perf_counter() - sent, (0.0, 0)
                reason = f"no answer: {e}"
            result.latencies.append(took)
            result.samples.append(speed)
            result.attempted += 1
            if reason is not None:
                result.failures.append((query["name"], reason))
                if child.proc.poll() is not None:
                    break
        result.wall_s = time.perf_counter() - first - (sampled_s - child.sampled_s)
        # a child killed for a timeout has nothing to report; the pass failed
        result.peak_rss_mb, result.speed = (
            child.quit() if child.proc.poll() is None else (0.0, 1.0))
    finally:
        child.close()
    return result


def setup_sample():
    """Set-up time of one child that only imports the package, reference s."""
    child = Child()
    try:
        _, speed = child.quit()
    finally:
        child.close()
    return child.setup_s * speed


# ---------------------------------------------------------------------------
# runs


def middle_fifth_mean(values):
    """The median, taken as the mean of the values from p40 to p60.

    A workload's latencies come in clusters, one per kind of query, with
    gaps between them.  A single middle value jumps across a gap when one
    query near it runs a little faster or slower; the mean of the middle
    fifth moves with them smoothly.
    """
    ordered = sorted(values)
    n = len(ordered)
    lo = int(n * 0.4)
    hi = max(lo + 1, math.ceil(n * 0.6))
    return statistics.fmean(ordered[lo:hi])


def _tail_percentile(n):
    """Highest of p90/p99 with at least ten samples beyond it, or None."""
    for p in (99, 90):
        if n * (100 - p) / 100 >= 10:
            return p
    return None


def measure(workload, seed, seconds, workdir):
    """Untraced run: end-to-end metrics and the query outcomes.

    Every time is in reference seconds: multiplied by the speed its child
    sampled (see ``reference.py``).
    """
    start = time.perf_counter()
    setups = [setup_sample() for _ in range(SETUP_SPAWNS)]
    passes = []
    while True:
        t = time.perf_counter()
        passes.append(run_pass(workload, seed, len(passes), workdir))
        took = time.perf_counter() - t
        if time.perf_counter() - start + took > seconds:
            break
    scaled = [p.scaled() for p in passes]
    setups += [setup for setup, _, _ in scaled]
    latencies = [x for _, _, pass_latencies in scaled for x in pass_latencies]
    metrics = {
        "wall_s": statistics.median([wall for _, wall, _ in scaled]),
        "query_p50_s": middle_fifth_mean(latencies),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median([p.peak_rss_mb for p in passes]),
    }
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    samples = {"wall_s": f"{len(passes)} passes",
               "query_p50_s": f"p40-p60 of {len(latencies)} queries",
               "setup_s": f"{len(setups)} spawns",
               "peak_rss_mb": f"{len(passes)} passes"}
    lines = [f"workload {workload}  seed {seed}  passes {len(passes)}  "
             f"queries {attempted} ({attempted // len(passes)} per pass)"]
    for name, value in metrics.items():
        how = "mean of" if name == "query_p50_s" else "median of"
        lines.append(f"  {name:<12} {value:12.4f} {END_TO_END_UNITS[name]:<3}  "
                     f"{how} {samples[name]}")
    lines.append("  each pass: wall_s as timed, sampled speed: "
                 + "  ".join(f"{p.wall_s:.3f} {p.speed:.3f}" for p in passes))
    p = _tail_percentile(len(latencies))
    if p is not None:
        tail = statistics.quantiles(latencies, n=100)[p - 1]
        lines.append(f"  query_p{p}_s  {tail:12.4f} s    of {len(latencies)}")
    lines.append(f"  fail_share   {len(failures) / attempted:12.4f}      "
                 f"{len(failures)} of {attempted}")
    lines += [f"  FAILED {name}: {reason}" for name, reason in failures]
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                        for k, v in metrics.items()}}, lines


def measure_traced(workload, seed, workdir, fixture_order=False):
    """One untraced and one traced pass on the same inputs: per-layer metrics."""
    plain = run_pass(workload, seed, 0, workdir, fixture_order)
    trace_path = os.path.join(workdir, "spans.pickle")
    traced = run_pass(workload, seed, 0, workdir, fixture_order, trace_path)
    trace = tracer.load(trace_path)
    metrics = tracer.layer_metrics(trace)
    # self times in reference seconds, at the traced pass's mean speed
    speed = traced.scaled()[1] / traced.wall_s
    metrics = {name: (value * speed if unit == "s" else value, unit)
               for name, (value, unit) in metrics.items()}
    metrics["trace_overhead_ratio"] = (traced.scaled()[1] / plain.scaled()[1], "ratio")
    failures = plain.failures + traced.failures
    for name, want in PIECE_EVALS.items():
        got = trace["piece_evals_by_query"].get(name)
        if got is not None and got != want:
            failures.append((name, f"distance.piece_evals {got} != {want}"))
    attempted = plain.attempted + traced.attempted
    lines = [f"workload {workload}  seed {seed}  traced pass: "
             f"{len(trace['start'])} spans, wall {traced.wall_s:.3f} s "
             f"(untraced {plain.wall_s:.3f} s)"]
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<28} {value:14.4f} {unit}")
    evals = {q: n for q, n in trace["piece_evals_by_query"].items() if n}
    for q, n in evals.items():
        check = f" (expected {PIECE_EVALS[q]})" if q in PIECE_EVALS else ""
        lines.append(f"  piece evaluations, {q}: {n}{check}")
    lines += [f"  FAILED {name}: {reason}" for name, reason in failures]
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}, lines


def _merge(results):
    """One result for several workloads; metric names get a workload prefix."""
    if len(results) == 1:
        return next(iter(results.values()))
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help=f"one of {', '.join(WORKLOADS)}, a comma list, or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measuring time per workload run (default 40)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced pass")
    args = parser.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {', '.join(unknown)}")

    if not os.path.isfile(os.path.join(SRC, "cohodist", "__init__.py")):
        print(f"error: no cohodist package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import cohodist
    if not os.path.realpath(cohodist.__file__).startswith(os.path.realpath(SRC)):
        print(f"error: imported cohodist from {cohodist.__file__}", file=sys.stderr)
        return 2

    results = {}
    for name in names:
        os.makedirs(WORK, exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{name}-{args.seed}-", dir=WORK)
        try:
            if args.trace:
                results[name], lines = measure_traced(name, args.seed, workdir)
            else:
                results[name], lines = measure(name, args.seed, args.seconds, workdir)
        except ProgramMissing as e:
            print(f"error: {e}", file=sys.stderr)
            return 2
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            with contextlib.suppress(OSError):  # left when another run is using it
                os.rmdir(WORK)
        print("\n".join(lines), flush=True)
    result = _merge(results)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
