"""Benchmark launcher for mmminfer.

    python3 perfbench/run.py --workload averroes --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  The package is imported from the
checkout's ``src/`` (nothing is installed), in worker processes whose
environment pins BLAS/OpenMP threads and ``MMMINFER_JOBS`` to 1, so library
code is measured unchanged on one core.

With ``--trace 0`` the last stdout line is the JSON result with the
end-to-end metrics: ``setup_s`` (median over three fresh processes of the
time to import the package and load every input), ``op_cal`` (operation
time relative to a calibration kernel sampled alongside it) and
``peak_rss_mb``.  With ``--trace 1`` it carries the per-layer metrics of a
traced run instead.  Each run also writes its checked outputs and
environment to ``perfbench/out/``; see ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "MMMINFER_JOBS": "1",
    # Compile the package afresh in every process, so set-up time does not
    # depend on whether an earlier run left bytecode behind.
    "PYTHONDONTWRITEBYTECODE": "1",
}
# Extra set-up-only processes; with the measuring worker's own set-up they
# give three samples for the median.
SETUP_PROBES = 2
# Every child is killed once the run is this old.
DEADLINE_S = 170.0


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(args: list, deadline: float):
    """Run one worker to completion; returns (exit code, set-up s, result).

    Set-up time runs from process start until the worker's ``ready`` line.
    Other lines pass through to stdout, except the final ``RESULT`` line.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=worker_env(),
        cwd=ROOT,
    )
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.perf_counter() - started
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stdout.write(line)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    return code, ready, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if not (ROOT / "src" / "mmminfer" / "__init__.py").is_file():
        print(f"run.py: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    code, ready, result = run_worker(
        [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], deadline
    )
    if code != 0 or ready is None or result is None:
        print(f"run.py: worker failed (exit code {code})", file=sys.stderr)
        return code or 1
    if not args.trace:
        setup = [ready]
        for _ in range(SETUP_PROBES):
            code, ready, _ = run_worker([*common, "--setup-only"], deadline)
            if code != 0 or ready is None:
                print(f"run.py: set-up probe failed (exit code {code})", file=sys.stderr)
                return code or 1
            setup.append(ready)
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            **result["metrics"],
        }
        print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in setup))
        record_path = OUT / f"{args.workload}-seed{args.seed}-trace0.json"
        record = json.loads(record_path.read_text(encoding="utf-8"))
        record["setup_s_samples"] = setup
        record["metrics"] = result["metrics"]
        record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
