"""The dgreg benchmark: one command, three workloads, checked outputs.

Run from the root of a checkout:

    python3 bench/run.py --workload resolve-deep --seed 1 --seconds 30 --trace 0

The workload's jobs are generated from the seed (``workloads.py``) and
run in this process and thread as a closed loop with one client: passes
over the job list repeat until ``--seconds`` have elapsed, each job
starting when the previous one has finished.  Every output is checked
against recorded digests and oracles after its pass, outside the timed
region.  The last line of standard output is one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics of a traced
run (``--trace 1``); the lines before it repeat the metrics for people.

The package under test is imported from ``src/`` of the working
directory; without it the benchmark exits with code 1 and prints no
result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 9
MIN_PASSES = 3
# Times are reported at the speed where one reference slice takes
# REFERENCE_NOMINAL_S (see SpeedReference).
REFERENCE_NOMINAL_S = 0.004
REFERENCE_EVERY_S = 0.1
REFERENCE_WINDOW_S = 1.0
SCALE_LAMBDA_STAGES = (4, 8, 16)
SCALE_POLY1_WINDOWS = (16, 32, 48)


def reference_slice() -> float:
    """Time one slice of fixed pure-Python work that does not touch dgreg:
    Fraction arithmetic and dict updates on string keys, as dgreg does."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, 1000):
            acc += Fraction(i % 7 - 3, i % 5 + 1)
            key = f"k{i % 257}"
            table[key] = table.get(key, 0) + i
        return time.perf_counter() - t0
    finally:
        gc.enable()


class SpeedReference:
    """Reference slices taken through a run, and the factor they give to
    scale a timed interval to the reference speed.

    The machine the benchmark was tuned on is shared, and its throughput
    drifts by tens of percent over tens of seconds; a fixed pure-Python
    loop slows down with it as much as dgreg does.  Slices run between
    jobs, outside the timed regions, and an interval is scaled by the
    median slice time within REFERENCE_WINDOW_S of it.  That removes the
    drift of the machine and keeps every change made to dgreg, which does
    not touch the slice.
    """

    def __init__(self):
        self.samples: list = []     # (midpoint, duration)
        self._last = float("-inf")

    def take(self):
        t0 = time.perf_counter()
        duration = reference_slice()
        self.samples.append((t0 + duration / 2, duration))
        self._last = time.perf_counter()

    def take_if_due(self):
        if time.perf_counter() - self._last >= REFERENCE_EVERY_S:
            self.take()

    def factor(self, t0: float, t1: float) -> float:
        near = [d for t, d in self.samples
                if t0 - REFERENCE_WINDOW_S <= t <= t1 + REFERENCE_WINDOW_S]
        if len(near) < 3:
            mid = (t0 + t1) / 2
            near = [d for _, d in sorted(self.samples, key=lambda s: abs(s[0] - mid))[:5]]
        return REFERENCE_NOMINAL_S / statistics.median(near)


def _load_package(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "dgreg", "__init__.py")):
        sys.exit(f"error: no dgreg package under {src}; run from the root of a checkout")
    sys.path.insert(0, src)
    import dgreg

    if os.path.dirname(os.path.dirname(os.path.abspath(dgreg.__file__))) != src:
        sys.exit(f"error: dgreg was imported from {dgreg.__file__}, not from {src}")


def _workdir(root):
    path = os.path.join(root, "bench", "_out", f"run-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def _setup_once(workload, seed, root):
    """Child mode: import, generate and validate the inputs, report ready."""
    _load_package(root)
    import workloads

    workdir = _workdir(root)
    try:
        workloads.build_jobs(workload, workloads.draw(workload, seed), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("ready", flush=True)


def _measure_setup(workload, seed, root):
    """Time from a fresh interpreter to a ready job list: the median over
    SETUP_REPEATS children, unscaled and scaled."""
    ref = SpeedReference()
    ref.take()
    spans = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=root, stdout=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up in a fresh interpreter failed (exit {proc.returncode})")
        spans.append((t0, t1))
        ref.take()
    return (statistics.median(t1 - t0 for t0, t1 in spans),
            statistics.median((t1 - t0) * ref.factor(t0, t1) for t0, t1 in spans))


class Runner:
    """Runs passes over a job list, times them and checks their outputs."""

    def __init__(self, workload, jobs, golden, tracer=None):
        self.workload = workload
        self.jobs = jobs
        self.golden = golden.get(workload, {})
        self.tracer = tracer
        self.ref = SpeedReference()
        self.timings: list = []     # per pass, (t0, t1) of each job
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def run_pass(self, traced=False):
        perf = time.perf_counter
        tr = self.tracer if traced else None
        results, timings = [], []
        for i, job in enumerate(self.jobs):
            # untimed: collect the heap, so that a full collection is not
            # charged to whichever job follows a large one, and take a
            # reference slice when one is due
            gc.collect()
            self.ref.take_if_due()
            if tr is not None:
                tr.begin_job(f"p{len(self.timings)}j{i}")
            t0 = perf()
            try:
                out, err = job.run(), None
            except Exception:
                out, err = None, traceback.format_exc(limit=3)
            t1 = perf()
            if tr is not None:
                tr.end_job()
            results.append((job, out, err))
            timings.append((t0, t1))
        self.ref.take_if_due()
        if tr is not None:
            tr.end_pass()
        self.timings.append(timings)
        self._check(results)

    def _check(self, results):
        import workloads

        counts = {}
        for job, out, err in results:
            self.attempted += 1
            fails = [err] if err else []
            if not err:
                try:
                    payload, fails = job.check(out)
                    want = self.golden.get(job.spec.key)
                    got = workloads.digest(payload)
                    if want is None:
                        fails.append("no recorded digest")
                    elif got != want:
                        fails.append(f"digest {got} != recorded {want}")
                    if "ledger" in payload:
                        counts.setdefault(job.spec.pair, {})[job.spec.field] = [
                            g["degree"] for g in payload["ledger"]["generators"]]
                except Exception:
                    fails = [traceback.format_exc(limit=3)]
            if fails:
                self._fail(job, fails)
        # the same table over Q and F_7 must give the same generators
        for pair, by_field in counts.items():
            if len(set(map(tuple, by_field.values()))) > 1:
                for job, *_ in results:
                    if job.spec.pair == pair:
                        self._fail(job, ["generator degrees differ between Q and F_7"])

    def _fail(self, job, reasons):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{job.spec.key}: {'; '.join(r.strip() for r in reasons)}")

    def run_for(self, seconds, traced=False, min_passes=MIN_PASSES):
        deadline = time.perf_counter() + seconds
        while len(self.timings) < min_passes or time.perf_counter() < deadline:
            self.run_pass(traced)

    def summary(self, passes=slice(None), scaled=True) -> dict:
        """Pass and per-job figures over the given passes, scaled to the
        reference speed or not."""
        per_pass = [
            [(t1 - t0) * (self.ref.factor(t0, t1) if scaled else 1.0) for t0, t1 in timings]
            for timings in self.timings[passes]
        ]
        fields = [job.spec.field for job in self.jobs]

        def field_sum(name):
            return statistics.median(
                sum(t for t, f in zip(times, fields) if f == name) for times in per_pass)

        # a percentile over jobs of each job's median time: jobs differ in
        # size a hundredfold, so a percentile of the pooled samples would
        # fall on the edge between two jobs' blocks of samples, and which
        # edge would depend on how many passes fitted in the run
        job_ms = [statistics.median(times) * 1e3 for times in zip(*per_pass)]
        q = statistics.quantiles(job_ms, n=100, method="inclusive")
        return {
            "wall_s": statistics.median(sum(times) for times in per_pass),
            "wall_s.Q": field_sum("Q"),
            "wall_s.Fp": field_sum("Fp"),
            "job_ms.p50": q[49],
            "job_ms.p90": q[89],
        }


def _scale_record(dg) -> dict:
    """Scaling probes, run untraced and unscaled: resolution time against
    the stage budget and validation time against the window size."""
    from dgreg.catalog import polynomial_algebra, square_zero_algebra
    from dgreg.windows import GradedWindow

    out = {}
    k = dg.canonical_k(square_zero_algebra(), side="left")
    for s in SCALE_LAMBDA_STAGES:
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            res = dg.semifree_resolve(k, s)
            times.append(time.perf_counter() - t0)
            if len(res.gens) != s:
                raise RuntimeError(f"k over Lambda at {s} stages has {len(res.gens)} generators")
        out[f"scale.lambda_stages{s}_s"] = (statistics.median(times), "s")
    for w in SCALE_POLY1_WINDOWS:
        M = dg.free_module(polynomial_algebra(1, window=GradedWindow(0, w)), side="bi")
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            rep = dg.validate_module(M)
            times.append(time.perf_counter() - t0)
            if not rep.ok:
                raise RuntimeError(f"free k[T]_1 at window 0..{w} fails validation")
        out[f"scale.poly1_validate_w{w}_s"] = (statistics.median(times), "s")
    return out


def _emit(runner, metrics):
    for name, (value, unit) in metrics.items():
        print(f"{runner.workload:14s} {name:40s} {value:.6g} {unit}")
    ratio = runner.failed / runner.attempted
    print(f"{runner.workload:14s} {'fail_ratio':40s} {ratio:.6g} ({runner.failed}/{runner.attempted} jobs)")
    for line in runner.failures:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    root = os.getcwd()

    if args.setup_only:
        _setup_once(args.workload, args.seed, root)
        return 0

    _load_package(root)
    import dgreg as dg
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}")
    with open(os.path.join(BENCH_DIR, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)

    workdir = _workdir(root)
    try:
        jobs = workloads.build_jobs(args.workload, workloads.draw(args.workload, args.seed), workdir)
        if not args.trace:
            setup_raw, setup_s = _measure_setup(args.workload, args.seed, root)
            runner = Runner(args.workload, jobs, golden)
            runner.run_for(args.seconds)
            raw = {"setup_s": setup_raw, **runner.summary(scaled=False)}
            metrics = {"setup_s": (setup_s, "s")}
            for name, value in runner.summary().items():
                metrics[name] = (value, "ms" if name.startswith("job_ms") else "s")
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
            for name, value in raw.items():
                print(f"{runner.workload:14s} {name + ' (unscaled)':40s} {value:.6g} {metrics[name][1]}")
            _emit(runner, metrics)
            return 0

        # traced run: scaling probes and untraced passes first, then the
        # same passes with wrappers installed
        origin = time.perf_counter()
        scale = _scale_record(dg)
        tracer = Tracer()
        runner = Runner(args.workload, jobs, golden, tracer)
        runner.run_for(args.seconds / 3, min_passes=2)
        plain = len(runner.timings)
        tracer.install()
        try:
            remaining = args.seconds - (time.perf_counter() - origin)
            runner.run_for(remaining, traced=True, min_passes=plain + 1)
        finally:
            tracer.uninstall()
        untraced = runner.summary(slice(None, plain))
        traced = runner.summary(slice(plain, None))
        metrics = tracer.layer_metrics(len(runner.timings) - plain)
        metrics["fields.q_fp_ratio"] = (untraced["wall_s.Q"] / untraced["wall_s.Fp"], "ratio")
        metrics["trace.overhead_ratio"] = (traced["wall_s"] / untraced["wall_s"], "ratio")
        metrics.update(scale)
        spans = os.path.join(root, "bench", "_out", f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_spans(spans, origin)
        print(f"{len(tracer.spans)} spans written to {os.path.relpath(spans, root)}")
        _emit(runner, metrics)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
