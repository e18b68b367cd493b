"""Benchmark of the oredim CLI on seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of an oredim checkout; it imports the package from
``src/`` there and from nowhere else.  Jobs are calls of
``oredim.cli.main`` made one at a time from this one process (a closed
loop with one client), with numpy held to one thread.  A run repeats
whole rounds of the workload's job list until S seconds have passed.
Every job's output is checked outside the timed span: in the first round
against closed forms, the benchmark's own rank oracle and cross-job
properties (``checker``), in later rounds against the first round's
bytes.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones:

  wall_s       median over rounds of the time the job list took
  job_p50_s    median time of a single job, over all jobs of all rounds
  peak_rss_mb  peak resident memory of the benchmark process
  setup_s      median over cold interpreters of the time to import
               oredim.cli (numpy included)

With --trace 1 rounds alternate untraced and traced, and the metrics are
per-layer self times and counts (medians over traced rounds, see
``tracing``), the share of traced wall time the layer spans cover, and
the tracing overhead: traced minus untraced median wall time.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checker  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 11
ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
IMPORT_PROBE = ("import time; t = time.perf_counter(); import oredim.cli; "
                "d = time.perf_counter() - t; print(oredim.cli.__file__); print(d)")


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def measure_setup(src, env):
    """Median time to import oredim.cli in a fresh interpreter; one
    unmeasured start first, so byte-compilation is not counted."""
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.exit(f"error: importing oredim.cli failed:\n{proc.stderr[-2000:]}")
        path, seconds = proc.stdout.splitlines()[-2:]
        if not os.path.abspath(path).startswith(src + os.sep):
            sys.exit(f"error: oredim.cli imported from {path}, not from {src}")
        if k:
            samples.append(float(seconds))
    return statistics.median(samples)


def clear_caches(modules):
    """Drop the per-process caches (functools caches) of every oredim
    module, so each job starts as a fresh ``oredim`` process would."""
    for mod in modules:
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


class Runner:
    def __init__(self, cli, jobs, input_paths, modules):
        self.cli = cli
        self.jobs = jobs
        self.input_paths = input_paths
        self.modules = modules
        self.first = [None] * len(jobs)     # first round's output text
        self.wrong = {}                     # job index -> why its output is wrong
        self.crashed = {}                   # job index -> exit code or exception
        self.attempted = 0
        self.failed = 0                     # calls that exited nonzero or raised

    def run_job(self, k):
        argv = self.jobs[k].argv(self.input_paths[k])
        clear_caches(self.modules)
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed job, not a failed run
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        return code, buf.getvalue(), elapsed

    def round(self, tracer=None):
        """Run every job once; returns the list of job times."""
        times = []
        for k in range(len(self.jobs)):
            if tracer is not None:
                tracer.job = k
            code, text, elapsed = self.run_job(k)
            times.append(elapsed)
            self.attempted += 1
            if code != 0:
                self.failed += 1
                self.crashed.setdefault(k, code)
            elif self.first[k] is None:
                self.first[k] = text
                why = checker.check_output(self.jobs[k], text)
                if why:
                    self.wrong[k] = why
            elif text != self.first[k]:
                self.wrong.setdefault(k, "output differs from the first round")
        return times

    def check_properties(self):
        outputs = [None if k in self.wrong else text for k, text in enumerate(self.first)]
        for k, why in checker.check_properties(self.jobs, outputs).items():
            self.wrong.setdefault(k, why)


def main():
    args = parse_args()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "oredim", "cli.py")):
        sys.exit(f"error: {src}/oredim/cli.py not found; run from the root of "
                 "an oredim checkout")
    os.environ.update(ONE_THREAD)
    os.environ.pop("OREDIM_THREADS", None)
    env = dict(os.environ, PYTHONPATH=src)
    setup_s = measure_setup(src, env)

    sys.path.insert(0, src)
    from oredim import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"error: oredim imported from {cli.__file__}, not from {src}")
    modules = [m for name, m in sys.modules.items()
               if name == "oredim" or name.startswith("oredim.")]

    jobs = workloads.jobs(args.workload, args.seed)
    workdir = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        input_paths = []
        for k, job in enumerate(jobs):
            path = os.path.join(workdir, f"job{k:03d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(job.input, fh)
            input_paths.append(path)
        checker.fill_expectations(jobs, input_paths, workdir, env)
        runner = Runner(cli, jobs, input_paths, modules)
        metrics = measure(runner, args, setup_s, root)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))
    for k, code in sorted(runner.crashed.items()):
        print(f"FAILED job {k} ({jobs[k].command}): exit {code}", file=sys.stderr)
    for k, why in sorted(runner.wrong.items()):
        print(f"WRONG job {k} ({jobs[k].command}): {why}", file=sys.stderr)
    print(json.dumps({"correct": not runner.wrong,
                      "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))


def best_times(rounds):
    """Each job's fastest time over the rounds.  Interference on a shared
    host comes in bursts, most of them shorter than a round, so a job's
    fastest run is one that a burst missed; see README.md."""
    return [min(times) for times in zip(*rounds)]


def measure(runner, args, setup_s, root):
    start = time.perf_counter()
    if not args.trace:
        rounds = []
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds.append(runner.round())
            if len(rounds) == 1:
                runner.check_properties()
        best = best_times(rounds)
        return {
            "wall_s": _m(sum(best), "s"),
            "job_p50_s": _m(statistics.median(best), "s"),
            "peak_rss_mb": _m(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": _m(setup_s, "s"),
        }
    from tracing import Tracer
    tracer = Tracer()
    plain, traced, layers = [], [], []
    while not traced or time.perf_counter() - start < args.seconds:
        plain.append(runner.round())
        if len(plain) == 1:
            runner.check_properties()
        first = len(tracer.spans)
        tracer.install()
        try:
            times = runner.round(tracer)
        finally:
            tracer.uninstall()
        traced.append(times)
        layers.append(tracer.layer_metrics(first, sum(times)))
    out_dir = os.path.join(root, ".bench_runs")
    os.makedirs(out_dir, exist_ok=True)
    tracer.dump(os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json"))
    metrics = {}
    for name in layers[0]:
        unit = "share" if name == "trace.coverage" else (
            "s" if name.endswith("_s") else "count")
        metrics[name] = _m(statistics.median_low(x[name] for x in layers), unit)
    traced_wall, plain_wall = sum(best_times(traced)), sum(best_times(plain))
    metrics["trace.wall_s"] = _m(traced_wall, "s")
    metrics["trace.overhead_s"] = _m(traced_wall - plain_wall, "s")
    return metrics


def _m(value, unit):
    return {"value": value, "unit": unit}


if __name__ == "__main__":
    main()
