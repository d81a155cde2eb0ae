"""Write perfbench/expected.json, the values the benchmark checks outputs against.

Run once, from the root of a checkout, against the census of the commit
whose outputs the benchmark should guard:

    PYTHONPATH=src python3 perfbench/gen_expected.py

The file holds NC(1..NC_MAX), the irreducible records with side <=
RECORD_MAX_SIDE, and the number of primitive solutions of
a^2+b^2+c^2 = 3d^2 for the odd d the cli-mixed workload draws.  Before
writing, the script requires NC(1..100) to equal the published listing
and NC(n) to equal the brute-force oracle for every n in ORACLE_CHECKED.
Above n = 100 the file is a regression guard: it records what the census
computed, checked against the oracle only at ORACLE_CHECKED.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from latticecubes import brute_force_count, build_irreducible_list, sequence
from latticecubes.diophantine import pi_epsilon
from latticecubes.reference import COUNTS_LISTED

NC_MAX = 404
RECORD_MAX_SIDE = 150
REPRESENTATION_D = range(101, 1000, 2)
ORACLE_CHECKED = (101,)


def main() -> int:
    reg = build_irreducible_list(NC_MAX)
    nc = sequence(NC_MAX, registry=reg)
    if nc[: len(COUNTS_LISTED)] != COUNTS_LISTED:
        print("census disagrees with the published listing", file=sys.stderr)
        return 1
    for n in ORACLE_CHECKED:
        if brute_force_count(n) != nc[n - 1]:
            print(f"census disagrees with the oracle at n = {n}", file=sys.stderr)
            return 1
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True
    ).stdout.strip()
    doc = {
        "provenance": (
            f"perfbench/gen_expected.py on the census at commit {commit}; "
            f"NC(1..{len(COUNTS_LISTED)}) equals the published listing, "
            f"NC(n) for n in {list(ORACLE_CHECKED)} equals brute_force_count; "
            f"other terms above {len(COUNTS_LISTED)} guard against regressions "
            "but are not proven correct"
        ),
        "oracle_checked": list(ORACLE_CHECKED),
        "nc": nc,
        "record_max_side": RECORD_MAX_SIDE,
        # side, bound_dim, invariants, sorted k-values, octant cube vertices
        "records": [
            [r.side, r.bound_dim, list(r.invariants), sorted(r.k_values), r.cube.as_lists()]
            for r in reg.records
            if r.side <= RECORD_MAX_SIDE
        ],
        "three_squares": {str(d): pi_epsilon(d) for d in REPRESENTATION_D},
    }
    path = Path(__file__).with_name("expected.json")
    path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
    print(f"wrote {path} ({len(nc)} terms, {len(doc['records'])} records)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
