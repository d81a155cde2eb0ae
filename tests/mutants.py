"""Mutation gate: every listed mutant of the package must fail the tier-1 suite.

Each entry of MUTANTS is a (path, old, new, why) substitution.  `old` must
occur exactly once in `path`, so a change that rewrites a mutated line has
to update its entry.  The script copies src/, tests/ and pyproject.toml to
a temporary directory, applies each mutant alone to the copy, runs
`pytest -x -q` there (with -rf, to name the test that fails), and exits 1
if a mutant survives (pytest exits 0), if a mutant stops the suite other
than by a failing test, if a run takes longer than TIMEOUT_S (a mutant
that makes a loop run forever), or if an `old` string is not found
exactly once.  The working tree is never modified.

pytest does not collect this file (it is not named test_*.py).  Run it
from the repository root, after the suite itself passes:

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300  # the whole unmutated suite takes well under a minute

MUTANTS = [
    (
        "src/latticecubes/diophantine.py",
        "                    if gcd(a, b, c) != 1:\n",
        "                    if False:\n",
        "plane_quaternions keeps imprimitive plane solutions (no gcd filter)",
    ),
    (
        "src/latticecubes/diophantine.py",
        "                    c = h + 2 * (s * t + w * (u - v))\n",
        "                    c = h + 2 * (s * t + w * (v - u))\n",
        "plane_quaternions flips the sign of the cross-product term in the third coordinate of q e q-bar",
    ),
    (
        "src/latticecubes/census.py",
        " if gcd(x, y, z) == 1]\n",
        " if gcd(x, y, z) >= 1]\n",
        "_unit_diagonals keys every main diagonal, not only those of k-value 1",
    ),
    (
        "src/latticecubes/census.py",
        "            inv = closed_form(alpha0, size, (j * r0, j * r1, j * r2))\n",
        "            inv = closed_form(alpha0, size, (r0, r1, r2))\n",
        "build_multiples gives a dilate its parent's slack (no j scaling)",
    ),
    (
        "src/latticecubes/census.py",
        "        size = alpha // ((1 + r0) * (1 + r1) * (1 + r2))\n",
        "        size = alpha // ((1 + r1) * (1 + r2))\n",
        "build_multiples' orbit size of a parent drops the (1 + r0) factor",
    ),
    (
        "src/latticecubes/symmetry.py",
        "    beta = size * (e1 + 2 * e2 + 3 * e3) // 3\n",
        "    beta = size * (e1 + e2 + 3 * e3) // 3\n",
        "beta's closed form takes e2 once, not twice",
    ),
    (
        "src/latticecubes/symmetry.py",
        "        if not (\n",
        "        if False and (\n",
        "the stabilizer counts every extent-preserving map, fixing the class or not",
    ),
    (
        "src/latticecubes/census.py",
        "        elif expected == reg.classes.get(side, 0):\n",
        "        elif True:\n",
        "the census skips every k > 1 candidate, so a side short of psi(s) builds none",
    ),
    (
        "src/latticecubes/census.py",
        "                if not (1 in frame.k_values() or reg.is_claimed(class_key(frame))):\n",
        "                if not reg.is_claimed(class_key(frame)):\n",
        "no k = 1 guard: a built k > 1 cube with k-value 1 is recorded again",
    ),
    (
        "src/latticecubes/census.py",
        "            for mn in (mn, NormFormSolution(mn.n - mn.m, mn.n)):\n",
        "            for mn in (mn,):\n",
        "drop the mirror triangle: a k > 1 candidate builds only its 2m < n triangle",
    ),
    (
        "src/latticecubes/census.py",
        "        if not self.claimed.isdisjoint(keys):\n",
        "        if False:\n",
        "an orbit claimed twice does not raise",
    ),
    (
        "src/latticecubes/census.py",
        "    if claimed != expected:\n",
        "    if claimed > expected:\n",
        "a side short of psi(s) passes its check",
    ),
    (
        "src/latticecubes/census.py",
        "            if d + i <= N:\n",
        "            if d + i < N:\n",
        "sequence_from_boxes drops a forward difference that lands on position N",
    ),
    (
        "src/latticecubes/census.py",
        "    if reg.n_built < N:\n",
        "    if False:\n",
        "count_cubes skips the registry-size check, so a registry built for a smaller N undercounts",
    ),
    (
        "src/latticecubes/ring_arith.py",
        "        x, y = -y, x - y  # times omega\n",
        "        x, y = x, y  # times omega\n",
        "find_rs tries only the gcd it found, never its associates times omega",
    ),
    (
        "src/latticecubes/ring_arith.py",
        "    return (-r, -s) if s < 0 else (r, s)\n",
        "    return r, s\n",
        "find_rs returns (r, s) with whatever sign Euclid left, not with s > 0",
    ),
    (
        "src/latticecubes/lattice_geometry.py",
        "x1 * x2 + y1 * y2 + z1 * z2 or x1 * x3 + y1 * y3 + z1 * z3 or x2 * x3",
        "x1 * x2 + y1 * y2 + z1 * z2 or x2 * x3",
        "Frame.of does not check that e1 and e3 are orthogonal",
    ),
    (
        "src/latticecubes/cli.py",
        "        if cached != source or any(type(x) is not int for x in cached):\n",
        "        if False:\n",
        "a cache load skips the source comparison",
    ),
    (
        "src/latticecubes/cli.py",
        "    got = sources if n_built == N else sources[: len(want)]\n",
        "    got = sources[: len(want)]\n",
        "a cache load compares only a prefix at the file's own N",
    ),
    (
        "src/latticecubes/cli.py",
        " or any(type(x) is not int for x in cached):\n",
        ":\n",
        "a cache load takes a cached true or 1.0 for the census's 1",
    ),
    (
        "src/latticecubes/cli.py",
        '            print(f"rejected registry cache {args.cache_path}: {exc}", file=sys.stderr)\n',
        '            print(f"rejected registry cache {args.cache_path}: {exc}", file=sys.stderr)\n'
        "            reg = build_irreducible_list(args.n)\n",
        "a rejected cache builds the census again",
    ),
    (
        "src/latticecubes/oracle.py",
        "                    if (x2, y2, z2) < e3:\n",
        "                    if True:\n",
        "the oracle counts a class frame for either order of its last two edges, not once",
    ),
    (
        "src/latticecubes/oracle.py",
        "                        cx, cy, cz = -cx, -cy, -cz\n",
        "                        cx, cy, cz = cx, cy, cz\n",
        "the oracle compares the third edge without normalizing its sign",
    ),
    (
        "src/latticecubes/oracle.py",
        "for x2 in range(x1, isqrt(r1 // 2) + 1)",
        "for x2 in range(x1, isqrt(r1 // 2))",
        "the oracle's x2 bound is one short: rows with x2 at its bound lose their frames",
    ),
    (
        "src/latticecubes/oracle.py",
        "    for x1 in range(isqrt(s2 // 3) + 1):\n",
        "    for x1 in range(isqrt(s2 // 3)):\n",
        "the oracle's x1 bound is one short: rows with x1 at its bound lose their frames",
    ),
    (
        "src/latticecubes/oracle.py",
        "                circles[x] = circle if x else circle[len(circle) // 2 :]\n",
        "                circles[x] = circle if x else circle[len(circle) // 2 + 1 :]\n",
        "the oracle drops the line (0, 0, s) from the lines with x = 0",
    ),
    (
        "src/latticecubes/oracle.py",
        "    below = [(-y, t) for y, z in reversed(quadrant) if y for t in ((-z, z) if z else (0,))]\n",
        "    below = []\n",
        "the oracle's circles drop every point with y < 0",
    ),
    (
        "src/latticecubes/oracle.py",
        "        term[2] += k * (w1 * w2 + w1 * w3 + w2 * w3)\n",
        "        term[2] += k * (w1 * w2 + w1 * w3)\n",
        "the oracle's running sums drop the w2 w3 term of the linear coefficient",
    ),
    (
        "src/latticecubes/lattice_geometry.py",
        "        if Frame.of(*cube.corner_edges()).cube() != cube.translate_to_octant():\n",
        "        if False:\n",
        "Cube.from_points accepts 8 points that are not the cube their corner edges span",
    ),
    (
        "src/latticecubes/diophantine.py",
        "        acc = acc // p * (p - legendre_minus3(p))\n",
        "        acc = acc // p * (p + legendre_minus3(p))\n",
        "lambda_d takes the character chi(p) with the wrong sign",
    ),
    (
        "src/latticecubes/symmetry.py",
        "        return (-x, -y, -z)\n",
        "        return (x, y, z)\n",
        "class_key keeps each edge's sign: no sign normalization of the lines",
    ),
    (
        "src/latticecubes/lattice_geometry.py",
        "(ww + xx - yy - zz, 2 * (x * y - w * z),",
        "(ww + xx - yy - zz, 2 * (x * y + w * z),",
        "build_cube takes one off-diagonal Euler-Rodrigues entry of q with the wrong sign",
    ),
    (
        "src/latticecubes/lattice_geometry.py",
        "keyed.append((t, r0, r1, r2) if t > 0 else (-t, -r0, -r1, -r2))",
        "keyed.append((t, r0, r1, r2))",
        "build_cube orders the rows by row sum without signing them to a positive sum",
    ),
    (
        "src/latticecubes/lattice_geometry.py",
        "        u = -u  # a right-handed frame\n",
        "        u = u  # a right-handed frame\n",
        "build_cube ignores the frame's handedness (never negates u)",
    ),
    (
        "src/latticecubes/lattice_geometry.py",
        "(m * (t - u) + 2 * n * u) % k == 0 == (n * (t + u) - 2 * m * u) % k",
        "(m * (t + u) - 2 * n * u) % k == 0 == (n * (t - u) + 2 * m * u) % k",
        "build_cube takes the conjugate of beta, the divisor of m + n*omega of norm k",
    ),
    (
        "src/latticecubes/symmetry.py",
        "    lines = {e1, e2, e3, (-x1, -y1, -z1), (-x2, -y2, -z2), (-x3, -y3, -z3)}\n",
        "    lines = {e1, e2, e3}\n",
        "the stabilizer's edge set lacks the negated frame edges",
    ),
    (
        "src/latticecubes/census.py",
        "divmod(inv.alpha, (1 + r0) * (1 + r1) * (1 + r2))\n",
        "divmod(inv.alpha, (1 + r1) * (1 + r2))\n",
        "claim's orbit size drops the (1 + r0) factor",
    ),
    (
        "src/latticecubes/symmetry.py",
        "    st, fixed = 1, 1 + (r0 == 0 and r1 == 0 and r2 == 0)\n",
        "    st, fixed = 1, 1\n",
        "the stabilizer never counts the identity's negation as fixing the cube",
    ),
    (
        "src/latticecubes/diophantine.py",
        "        lo = d - 3 * z * z  # the least w^2 a lookup can ask for\n",
        "        lo = d - 2 * z * z  # the least w^2 a lookup can ask for\n",
        "plane_quaternions' two-square table drops pairs with d - 3z^2 <= w^2 < d - 2z^2, which lookups need",
    ),
    (
        "src/latticecubes/diophantine.py",
        "        y, z = z, y\n        if x > y:\n            x, y = y, x\n",
        "        y, z = z, y\n",
        "diagonal_key drops the re-swap of x and y after it swaps y and z, so (2, 3, 1) keys as (2, 1, 3)",
    ),
    (
        "src/latticecubes/cli.py",
        '    if args.format == "json":\n',
        "    if False:\n",
        "the CLI's one writer prints the text lines for --format json",
    ),
    (
        "src/latticecubes/cli.py",
        '"csv": (("n,nc",), "{},{}")',
        '"csv": ((), "{},{}")',
        "sequence --format csv drops its n,nc header",
    ),
    (
        "src/latticecubes/cli.py",
        "{'-' if v is None else v:>12}",
        "{str(v):>12}",
        "verify prints None, not -, in a cell without a value (past --oracle-max)",
    ),
]


def main() -> int:
    for path, old, _, _ in MUTANTS:  # every entry must apply before any run
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            print(f"{path}: {old.strip()!r} occurs {count} times, expected once", file=sys.stderr)
            return 1
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", tree)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"))
        for path, old, new, why in MUTANTS:
            original = (tree / path).read_text()
            (tree / path).write_text(original.replace(old, new))
            start = time.perf_counter()
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "pytest", "-x", "-q", "-rf", "-p", "no:cacheprovider"],
                    cwd=tree,
                    env=env,
                    capture_output=True,
                    text=True,
                    timeout=TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                proc = None  # subprocess.run has killed the run
            (tree / path).write_text(original)
            if proc is None:
                verdict = f"TIMED OUT after {TIMEOUT_S} s"
                survivors.append(why)
            elif proc.returncode == 1:
                failed = [line for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
                verdict = f"killed by {failed[0].split()[1] if failed else '?'}"
            else:
                verdict = "SURVIVED" if proc.returncode == 0 else f"ERROR (pytest exit {proc.returncode})"
                survivors.append(why)
            print(f"{time.perf_counter() - start:5.1f} s  {path}: {why}\n         {verdict}", flush=True)
    if survivors:
        print(f"{len(survivors)} of {len(MUTANTS)} mutants not killed by a failing test in time", file=sys.stderr)
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
