"""groundwork benchmark: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload les --seed 1 --seconds 25 --trace 0

Run from the repository root; groundwork is imported from ./src.  The
load is closed-loop with one client: this single process and thread runs
one job after another.  With --trace 0 it runs jobs for --seconds of
busy wall time (whole blocks, at least MIN_JOBS jobs) and reports the
end-to-end metrics; with --trace 1 it runs the workload's fixed set-up
job set once traced and once untraced and reports per-layer metrics.
Each answer is checked against its oracle right after its job, outside
the job's timed interval.  The last line of standard output is the JSON
result.

Times are reported at reference speed.  The machines this runs on share
their cores, and their speed drifts by tens of percent within seconds, so
every job (and every set-up) is bracketed by a fixed pure-Python
reference kernel, and its wall time is scaled by REFERENCE_KERNEL_S over
the kernel's time next to it.  A slower program still reads slower;
a slower machine mostly does not.  Raw wall seconds are printed on the
summary line.
"""
import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
import types

from layertrace import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 9
MIN_JOBS = 100      # so that at least ten samples lie beyond job_p90_s
REFERENCE_KERNEL_S = 0.0014     # its median time on the 2.1 GHz Xeon baseline host


def kernel_seconds():
    """Wall time of a fixed mix of integer, tuple, set and dict work, the
    kinds of work the library does (about 1.4 ms).  It uses no Fraction,
    so a traced run does not count it."""
    start = time.perf_counter()
    table, seen = {}, set()
    for i in range(500):
        a, b = i * 7919 + 1, i * 104729 + 3
        while b:
            a, b = b, a % b
        key = (i % 13, i % 17, str(i % 31))
        table[key] = table.get(key, 0) + a
        seen.add(frozenset((i % 7, i % 11, i % 5)) | {a % 3})
    sorted(table.items())
    return time.perf_counter() - start


def timed(fn, *args):
    """(reference seconds, wall seconds, result) of fn(*args)."""
    before = kernel_seconds()
    start = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - start
    after = kernel_seconds()
    # the faster bracket: a preempted kernel reads slow, not the machine
    return wall * REFERENCE_KERNEL_S / min(before, after), wall, result


def import_groundwork():
    """Import every layer module afresh; returns {layer: module}."""
    for name in [m for m in sys.modules
                 if m == "groundwork" or m.startswith("groundwork.")]:
        del sys.modules[name]
    mods = {layer: importlib.import_module("groundwork." + layer)
            for layer in LAYERS}
    pkg = sys.modules["groundwork"]
    if os.path.dirname(os.path.abspath(pkg.__file__)) != \
            os.path.join(SRC, "groundwork"):
        raise ImportError("groundwork was not imported from %s" % SRC)
    return mods


def load_groundwork():
    """The freshly imported layer modules as attributes; workloads look
    functions up through them at call time, so tracing sees every call."""
    return types.SimpleNamespace(**import_groundwork())


def build_inputs(workload, gw, seed, n_jobs):
    """The context, the block stream and at least n_jobs built inputs."""
    ctx = workload.context(gw)
    stream = workload.blocks(seed)
    jobs = []
    while len(jobs) < n_jobs:
        jobs += [(spec, workload.build(gw, ctx, spec))
                 for spec in next(stream)]
    return ctx, stream, jobs


def set_up(workload, seed, n_jobs):
    """Import groundwork afresh and build the first n_jobs inputs."""
    gw = load_groundwork()
    return (gw,) + build_inputs(workload, gw, seed, n_jobs)


def attempt(workload, gw, job):
    try:
        lines, answer = workload.run(gw, job)
        return lines, answer, None
    except Exception as e:      # a failed job is recorded, not fatal
        return None, None, e


def run_job(workload, gw, spec, job):
    """(reference s, wall s, lines, answer, exception) for one job."""
    ref, wall, (lines, answer, exc) = timed(attempt, workload, gw, job)
    return ref, wall, lines, answer, exc


def digest(records, n):
    """SHA-256 over the report lines of the first n jobs, in job order."""
    h = hashlib.sha256()
    for i, r in enumerate(records[:n]):
        h.update(("job %d %r\n" % (i, r.spec)).encode())
        for line in r.lines if r.error is None else ["error: " + r.error]:
            h.update((line + "\n").encode())
    return h.hexdigest()


class Record:
    """One finished job, judged by its oracle right after it ran.

    A failure is an exception, a cap exit or an oracle mismatch.  A
    problem (a wrong answer, or a failure the program is not documented
    to have) makes the run incorrect."""
    def __init__(self, workload, spec, job, seconds, lines, answer, exc):
        self.spec, self.seconds, self.lines = spec, seconds, lines
        # the message, not the exception: its traceback would keep the
        # job's objects alive
        self.error = None if exc is None else \
            "%s: %s" % (type(exc).__name__, exc)
        if exc is not None:
            self.failed = True
            self.problem = None if workload.allowed_failure(spec, exc) \
                else "unexpected " + self.error
        else:
            self.problem = workload.check(spec, job, answer)
            self.failed = self.problem is not None


def tally(records):
    """(failed, correct), reporting each problem on stderr."""
    for i, r in enumerate(records):
        if r.problem is not None:
            print("job %d %r: %s" % (i, r.spec, r.problem), file=sys.stderr)
    return (sum(r.failed for r in records),
            all(r.problem is None for r in records))


def p90(values):
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-9 * len(ordered) // 10) - 1)]


def timed_run(workload, seed, seconds):
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()    # each set-up starts without the last one's garbage
        ref, _, (gw, ctx, stream, jobs) = timed(
            set_up, workload, seed, workload.trace_jobs)
        setups.append(ref)
    records, busy, wall = [], 0.0, 0.0
    while True:
        if len(records) == len(jobs):
            jobs += [(spec, workload.build(gw, ctx, spec))
                     for spec in next(stream)]
            if wall >= seconds and len(records) >= MIN_JOBS:
                break
        i = len(records)
        spec, job = jobs[i]
        jobs[i] = None      # keep only what the report needs
        dt, dw, lines, answer, exc = run_job(workload, gw, spec, job)
        busy += dt
        wall += dw
        records.append(Record(workload, spec, job, dt, lines, answer, exc))
    failed, correct = tally(records)
    times = [r.seconds for r in records]
    ok_times = [r.seconds for r in records if r.error is None]
    verified = len(records) - failed
    print("%s seed=%d jobs=%d failed=%d busy_ref_s=%.3f busy_wall_s=%.3f "
          "p90_samples=%d digest_jobs=%d digest=%s"
          % (workload.name, seed, len(records), failed, busy, wall,
             len(times), workload.trace_jobs,
             digest(records, workload.trace_jobs)))
    metrics = {
        "jobs_per_s": (verified / busy, "1/s"),
        "job_p50_s": (statistics.median(ok_times or times), "s"),
        "job_p90_s": (p90(times), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "verified_share": (verified / len(records), "ratio"),
    }
    return correct, len(records), failed, metrics


def traced_run(workload, seed, out_path):
    gw = load_groundwork()
    tracer = Tracer(vars(gw))
    tracer.install()
    tracer.begin_job(-1, "setup")
    _, _, jobs = build_inputs(workload, gw, seed, workload.trace_jobs)
    tracer.end_job()
    records, busy = [], 0.0
    for i, (spec, job) in enumerate(jobs[:workload.trace_jobs]):
        tracer.begin_job(i, spec[0])
        dt, _, lines, answer, exc = run_job(workload, gw, spec, job)
        tracer.end_job()
        if type(exc).__name__ == "ResourceCap":
            tracer.counts["modres.cap_exits"] += 1
        busy += dt
        records.append(Record(workload, spec, job, dt, lines, answer, exc))
    tracer.uninstall()
    # the same jobs again, untraced and freshly built, for the overhead
    gw, _, _, plain = set_up(workload, seed, workload.trace_jobs)
    plain_busy = sum(run_job(workload, gw, spec, job)[0]
                     for spec, job in plain[:workload.trace_jobs])
    failed, correct = tally(records)
    n = len(records)
    print("%s seed=%d traced_jobs=%d failed=%d spans=%d digest_jobs=%d "
          "digest=%s" % (workload.name, seed, n, failed, len(tracer.span_id),
                         n, digest(records, n)))
    tracer.write_spans(out_path)
    metrics = tracer.metrics(os.path.join(SRC, "groundwork"))
    traced_rate, plain_rate = (n - failed) / busy, (n - failed) / plain_busy
    metrics["trace.jobs_per_s"] = (traced_rate, "1/s")
    metrics["trace.untraced_jobs_per_s"] = (plain_rate, "1/s")
    metrics["trace.overhead_jobs_per_s"] = (traced_rate - plain_rate, "1/s")
    return correct, n, failed, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # Set iteration order inside the program follows string hashing; one
    # fixed hash seed makes every run of a seed do the same work.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (choose from %s)"
                     % (args.workload, ", ".join(sorted(WORKLOADS))))
    workload = WORKLOADS[args.workload]
    try:
        import_groundwork()
    except ImportError as exc:
        print("cannot import groundwork from %s: %s" % (SRC, exc),
              file=sys.stderr)
        return 2
    if args.trace:
        out = os.path.join(ROOT, ".bench_out", "spans-%s-seed%d.tsv.gz"
                           % (workload.name, args.seed))
        correct, attempted, failed, metrics = traced_run(
            workload, args.seed, out)
    else:
        correct, attempted, failed, metrics = timed_run(
            workload, args.seed, args.seconds)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
