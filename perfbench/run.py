"""The latticecubes benchmark.

    python3 perfbench/run.py --workload census-cold --seed 1 --seconds 24 --trace 0

Run from the root of a checkout; the package is imported from ./src.
One closed-loop client runs the workload's operations one after another,
each as a fresh `python -m latticecubes.cli ...` process with default
--threads, and checks every output against perfbench/expected.json.

--trace 0  end-to-end metrics: median wall time per operation, set-up
           time, peak child RSS; the tail wall time (where a run has enough
           operations for one) and the error rate on lines of their own.
--trace 1  per-layer metrics from the traced run (see tracing.py).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Without ./src/latticecubes the script
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads
from checks import Expected, run_check
from workloads import WORK_DIR

START = time.perf_counter()
RUN_BUDGET_S = 150  # no operation may run past this point of the run
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples required above the tail percentile
PACKAGE = Path("src/latticecubes/cli.py")
SPANS_DIR = Path(".perfbench_out")


@dataclass
class OpResult:
    wall_s: float
    maxrss_kb: int
    error: str | None


@contextlib.contextmanager
def alarm(seconds: float):
    def expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run_op(op: workloads.Op, env: dict) -> OpResult:
    """Spawn one CLI process, wait for it, check its output."""
    timeout = RUN_BUDGET_S - (time.perf_counter() - START)
    out_path, err_path = WORK_DIR / "stdout", WORK_DIR / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "latticecubes.cli", *op.argv], stdout=out, stderr=err, env=env
        )
        try:
            with alarm(max(timeout, 0.001)):
                _, status, usage = os.wait4(proc.pid, 0)
            timed_out = False
        except TimeoutError:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            timed_out = True
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if timed_out:
        return OpResult(wall, usage.ru_maxrss, f"timed out after {timeout:.0f} s")
    error = run_check(op.check, proc.returncode, out_path.read_text())
    if error and proc.returncode:
        error += ": " + err_path.read_text().strip()[-300:]
    return OpResult(wall, usage.ru_maxrss, error)


def tail(times: list[float]) -> tuple[float, float] | None:
    """The highest percentile with TAIL_BEYOND samples above it: value, percentile.

    None when a run has too few samples for such a percentile."""
    n = len(times)
    if n <= TAIL_BEYOND:
        return None
    return sorted(times)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def measure(wl: workloads.Workload, seconds: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
    setups = []
    for _ in range(SETUP_REPEATS):
        workloads.clear_work()
        res = run_op(wl.setup, env)
        if res.error:
            raise SystemExit(f"set-up failed: {' '.join(wl.setup.argv)}: {res.error}")
        setups.append(res.wall_s)

    # whole blocks, as many as end the run closest to `seconds`
    results: list[OpResult] = []
    begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begin
        if results and not len(results) % wl.block:
            block_s = elapsed * wl.block / len(results)
            if elapsed + block_s / 2 >= seconds:
                break
        if time.perf_counter() - START > RUN_BUDGET_S - 1:
            break
        op = next(wl.ops)
        res = run_op(op, env)
        print(f"op {len(results)} {res.wall_s:.4f} s {' '.join(op.argv)[:60]}")
        if res.error:
            print(f"FAIL {' '.join(op.argv)[:100]}: {res.error}", file=sys.stderr)
        results.append(res)

    times = [r.wall_s for r in results]
    failed = sum(r.error is not None for r in results)
    metrics = {
        "wall_s": (statistics.median(times), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(r.maxrss_kb for r in results) / 1024, "MB"),
    }
    for name, (value, unit) in metrics.items():
        print(f"{wl.name} {name} = {value:.4f} {unit}")
    n = len(times)
    if wall_tail := tail(times):
        value, pct = wall_tail
        print(f"{wl.name} wall_tail_s = {value:.4f} s (p{pct:.1f} of {n} operations, {TAIL_BEYOND} slower)")
    else:
        print(f"{wl.name} wall_tail_s not reported: {n} operations, a tail needs more than {TAIL_BEYOND}")
    print(f"{wl.name} error_rate = {failed / len(results):.4f} ({failed} of {len(results)} operations)")
    return {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not PACKAGE.is_file():
        print(f"{PACKAGE} not found: run from the root of a latticecubes checkout", file=sys.stderr)
        return 2

    wl = workloads.make(args.workload, args.seed, Expected.load())
    print(f"{wl.name} seed {args.seed}: {os.cpu_count()} cpus, Python {platform.python_version()}")
    workloads.clear_work()
    try:
        if args.trace:
            result = tracing.run(wl, SPANS_DIR / f"spans-{wl.name}-{args.seed}.json")
        else:
            result = measure(wl, args.seconds)
    finally:
        workloads.remove_work()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
