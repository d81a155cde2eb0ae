"""Self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Run from the root of a checkout.  It checks that

1. expected.json equals the published listing for n <= 100 and the
   brute-force oracle at the terms it lists under oracle_checked;
2. the traced census at N = 400 reproduces the counters measured at the
   seed commit, and a second traced pass repeats every counter exactly;
3. a deliberately wrong expected value makes operations fail, which
   raises error_rate, while the true values pass.

Exit code 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import run
import tracing
import workloads
from checks import EXPECTED_PATH, Expected, check_sequence, run_check
from workloads import Op

# counters of the census at N = 400, measured at the seed commit
SEED_COUNTS_400 = {
    "census.candidates": 7201,
    "census.rejected_k1": 311,
    "census.orbit_duplicates": 4719,
    "census.records": 2171,
    "census.multiples": 1252,
}


def counters(metrics: dict) -> dict:
    return {name: value for name, (value, unit) in metrics.items() if unit == "count"}


def main() -> int:
    if not run.PACKAGE.is_file():
        print(f"{run.PACKAGE} not found: run from the root of a latticecubes checkout", file=sys.stderr)
        return 2
    failures = []
    exp = Expected.load()
    pkg = tracing.load_package()

    from latticecubes import brute_force_count
    from latticecubes.reference import COUNTS_LISTED

    if list(exp.nc[: len(COUNTS_LISTED)]) != COUNTS_LISTED:
        failures.append("expected.json differs from the published listing")
    for n in json.loads(EXPECTED_PATH.read_text())["oracle_checked"]:
        if brute_force_count(n) != exp.nc[n - 1]:
            failures.append(f"expected NC({n}) differs from the oracle")

    workloads.clear_work()
    try:
        op = Op(("sequence", "--n", "400", "--format", "bfile"), check_sequence(exp, 400, "bfile"))
        passes = []
        for _ in range(2):
            tr, _, [(rc, out)] = tracing.traced_pass(pkg, [op])
            if run_check(op.check, rc, out):
                failures.append("traced sequence --n 400 is wrong")
            passes.append(counters(tracing.layer_metrics(tr)))
        if passes[0] != passes[1]:
            failures.append(f"counters do not repeat: {passes[0]} != {passes[1]}")
        seen = {k: passes[0][k] for k in SEED_COUNTS_400}
        if seen != SEED_COUNTS_400:
            failures.append(f"N = 400 counters {seen} != seed {SEED_COUNTS_400}")

        # NC(1..40) off by one: uncached counts and short sequences must fail
        wrong = dataclasses.replace(exp, nc=tuple(v + (n <= 40) for n, v in enumerate(exp.nc, 1)))
        for label, table, want_failures in (("true", exp, False), ("wrong", wrong, True)):
            result = run.measure(workloads.make("cli-mixed", 1, table), seconds=1)
            if bool(result["failed"]) != want_failures:
                failures.append(f"{label} expected values gave {result['failed']} failed operations")
    finally:
        workloads.remove_work()

    for f in failures:
        print(f"SELF-CHECK FAIL: {f}", file=sys.stderr)
    print("self-check", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
