"""Benchmark worker: one process that sets up, runs one workload and reports.

Started by ``run.py`` with the thread-pinned environment it prepares.  The
worker prints ``ready`` once the package is imported and every input is
loaded (the launcher times set-up up to that line), then the run summary,
and last a line ``RESULT <json>``.  With ``--setup-only`` it exits after
``ready``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy
from scipy.special import ndtr, ndtri

import mmminfer
from tracing import ROOT as ROOT_SPAN
from tracing import Tracer
from workloads import Fwer, build

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


def environment() -> dict:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {
            name: os.environ.get(name)
            for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "MMMINFER_JOBS")
        },
    }


class Run:
    """Operations of one workload with their checked outputs and failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.outputs: list = []  # (operation, output) of every checked operation
        self.failures: dict = {}  # operation label -> problems

    def fail(self, label: str, problems: list) -> None:
        self.failures.setdefault(label, []).extend(problems)

    def call(self, k: int, label: str):
        """Operation k, or None after recording the exception it raised."""
        self.attempted += 1
        try:
            return self.workload.op(k)
        except Exception:
            traceback.print_exc()
            self.fail(label, ["raised " + traceback.format_exc(limit=1).strip().splitlines()[-1]])
            return None

    def check(self, k: int, output) -> None:
        problems = self.workload.check(output)
        if problems:
            self.fail(f"op {k}", problems)
        self.outputs.append((k, output))

    def check_run(self) -> None:
        """The workload's check over all outputs, counted as one more operation."""
        if self.outputs:
            self.attempted += 1
            problems = self.workload.check_run([output for _, output in self.outputs])
            if problems:
                self.fail("run", problems)


_CAL_INTERVAL_S = 0.25
_CAL_LARGE = numpy.linspace(-4.0, 4.0, 20_000)
_CAL_SMALL = numpy.linspace(0.0, 1.0, 50)


def _kernel() -> None:
    """Fixed work that runs no mmminfer code.

    Its mix follows the workloads: special functions over large arrays (the
    quadrature), operations on 50-element arrays (replicate fits) and
    interpreted Python.
    """
    ndtri(numpy.clip(ndtr(_CAL_LARGE), 1e-15, 1.0 - 1e-15))
    for _ in range(200):
        centred = _CAL_SMALL - _CAL_SMALL.mean()
        float(centred @ centred)
    total = 0
    for i in range(10_000):
        total += {"i": i}["i"] % 7


class Calibration:
    """Samples the host's speed while operations run.

    Shared hosts drift in speed by tens of percent over seconds to minutes.
    Inside the ``with`` block a timer signal runs the fixed kernel every
    ``_CAL_INTERVAL_S`` seconds, also in the middle of a long operation, and
    records how long it took; ``spent`` accumulates that time so it can be
    taken out of the operation's own.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def tick(self, *_signal) -> None:
        if self._busy:
            return
        self._busy = True
        started = time.perf_counter()
        _kernel()
        elapsed = time.perf_counter() - started
        self.samples.append(elapsed)
        self.spent += elapsed
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, _CAL_INTERVAL_S, _CAL_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def keep_going(times, started, seconds, min_ops) -> bool:
    """Start another operation while it should still end within ``seconds``."""
    if len(times) < min_ops:
        return True
    return time.perf_counter() - started + statistics.median(times) <= seconds


def measure(run: Run, seconds: float):
    """Untraced operations for ``seconds`` (at least two).

    Returns each operation's wall time (calibration time taken out) and
    that time relative to the median kernel time sampled from just before
    the operation to its end.
    """
    times, relative = [], []
    started = time.perf_counter()
    k = 1
    with Calibration() as calibration:
        while keep_going(times, started, seconds, 2):
            first = len(calibration.samples)
            calibration.tick()
            spent = calibration.spent
            t0 = time.perf_counter()
            output = run.call(k, f"op {k}")
            elapsed = time.perf_counter() - t0 - (calibration.spent - spent)
            if output is None:
                break
            times.append(elapsed)
            relative.append(elapsed / statistics.median(calibration.samples[first:]))
            run.check(k, output)
            k += 1
    return times, relative


def measure_traced(run: Run, tracer: Tracer, seconds: float) -> list:
    """Pairs of the same operation, untraced then traced; overheads per pair.

    The traced output must equal the untraced one: tracing may not change
    what the program computes.
    """
    overheads = []
    pair_times = []
    started = time.perf_counter()
    k = 1
    while keep_going(pair_times, started, seconds, 1):
        t0 = time.perf_counter()
        plain = run.call(k, f"op {k}")
        untraced = time.perf_counter() - t0
        if plain is None:
            break
        run.check(k, plain)
        with tracer:
            root = tracer.open(ROOT_SPAN)
            try:
                traced_output = run.call(k, f"op {k} traced")
            finally:
                tracer.close(root)
        if traced_output is None:
            break
        if traced_output != plain:
            run.fail(f"op {k} traced", ["output differs from the untraced run"])
        overheads.append(tracer.ends[root] - tracer.starts[root] - untraced)
        pair_times.append(time.perf_counter() - t0)
        k += 1
    return overheads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    package = Path(mmminfer.__file__).resolve()
    if ROOT / "src" not in package.parents:
        print(f"worker: imported mmminfer from {package}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = build(args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.workload not in workloads:
        print(f"worker: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workload = workloads[args.workload]
    run = Run(workload)
    env = environment()
    workload.warm_up()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "operation": workload.describe(),
    }
    OUT.mkdir(exist_ok=True)
    if args.trace:
        tracer = Tracer()
        overheads = measure_traced(run, tracer, args.seconds)
        metrics = {}
        if overheads:
            metrics = tracer.metrics(statistics.median(overheads))
            tracer.write_spans(OUT / f"{args.workload}-seed{args.seed}-spans.csv")
        record["overheads_s"] = overheads
    else:
        times, relative = measure(run, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {}
        if times:
            metrics = {
                # Operations are distinct (FWER blocks differ in cost), so
                # their mean is the steadier estimate; drift is already
                # divided out.
                "op_cal": {"value": statistics.fmean(relative), "unit": "ratio"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        record["op_times_s"] = times
        record["op_cal_samples"] = relative

    run.check_run()
    attempted = run.attempted
    failed = len(run.failures)
    record.update(
        attempted=attempted,
        failed=failed,
        failures=run.failures,
        metrics=metrics,
        outputs=[{"op": k, **output} for k, output in run.outputs],
    )
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")

    print(f"workload {args.workload}, seed {args.seed}: {workload.describe()}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items() if k != "threads"))
    if not args.trace and record["op_times_s"]:
        op_s = statistics.median(record["op_times_s"])
        line = f"op_s {op_s:.4f} s (median of {len(record['op_times_s'])})"
        if isinstance(workload, Fwer):
            line += f", reps_per_s {workload.reps_per_op / op_s:.2f} 1/s"
        else:
            line += f", analyze_s {op_s:.4f} s"
        print(line + f", op_cal {metrics['op_cal']['value']:.4f}")
    print(f"fail_ratio {failed}/{attempted} = {failed / max(attempted, 1):.4g}")
    for label, problems in list(run.failures.items())[:5]:
        print(f"  {label} failed: {'; '.join(problems[:3])}")
    correct = failed == 0 and bool(metrics)
    print("RESULT " + json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
