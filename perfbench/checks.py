"""Expected values and the checks every benchmark operation must pass.

The checks parse the command-line output and compare it with
expected.json (see gen_expected.py for where those values come from).
Cube geometry is checked here with plain integer arithmetic, without
calling into the package under test.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import gcd
from pathlib import Path
from typing import Callable, Optional

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# check(exit code, stdout) -> None when correct, else what is wrong
Check = Callable[[int, str], Optional[str]]


@dataclass(frozen=True)
class Record:
    side: int
    bound_dim: int
    invariants: tuple[int, ...]
    k_values: tuple[int, ...]
    cube: tuple[tuple[int, int, int], ...]

    def key(self) -> tuple:
        return (self.side, self.bound_dim, self.invariants, self.k_values)


@dataclass(frozen=True)
class Expected:
    nc: tuple[int, ...]  # nc[n - 1] = NC(n)
    records: tuple[Record, ...]  # every irreducible record with side <= record_max_side
    record_max_side: int
    three_squares: dict[int, int]  # odd d -> number of primitive solutions

    @classmethod
    def load(cls, path: Path = EXPECTED_PATH) -> "Expected":
        doc = json.loads(path.read_text())
        records = tuple(
            Record(s, b, tuple(inv), tuple(kv), tuple(tuple(v) for v in cube))
            for s, b, inv, kv, cube in doc["records"]
        )
        squares = {int(d): count for d, count in doc["three_squares"].items()}
        return cls(tuple(doc["nc"]), records, doc["record_max_side"], squares)


def _int_lines(text: str, sep: Optional[str]) -> list[list[int]]:
    return [[int(f) for f in line.split(sep)] for line in text.splitlines() if line.strip()]


def parse_sequence(text: str, fmt: str) -> list[int]:
    """NC(1..n) from `sequence` output in any of its formats."""
    if fmt == "json":
        return json.loads(text)
    if fmt == "csv":
        lines = text.splitlines()
        if lines[0] != "n,nc":
            raise ValueError("missing csv header")
        rows = _int_lines("\n".join(lines[1:]), ",")
    else:  # table and bfile both print "n value" rows
        rows = _int_lines(text, None)
    if [r[0] for r in rows] != list(range(1, len(rows) + 1)):
        raise ValueError("rows are not numbered 1..n")
    return [r[1] for r in rows]


def octant_cube_error(points: list, side: int, bound_dim: int) -> Optional[str]:
    """Why `points` is not an octant-normalized cube of the given side and box."""
    pts = [tuple(p) for p in points]
    if len(pts) != 8 or len(set(pts)) != 8:
        return "not 8 distinct vertices"
    d2 = sorted(sum((p[i] - q[i]) ** 2 for i in range(3)) for p, q in combinations(pts, 2))
    s2 = side * side
    if d2 != [s2] * 12 + [2 * s2] * 12 + [3 * s2] * 4:
        return f"vertices do not span a cube of side {side}"
    if any(min(p[i] for p in pts) != 0 for i in range(3)):
        return "cube is not octant-normalized"
    if max(max(p) for p in pts) != bound_dim:
        return f"bounding dimension is not {bound_dim}"
    return None


def run_check(check: Check, rc: int, out: str) -> Optional[str]:
    """`check`, with output it cannot parse reported as an error."""
    try:
        return check(rc, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def _exit_ok(rc: int) -> Optional[str]:
    return None if rc == 0 else f"exit code {rc}"


def check_count(exp: Expected, n: int) -> Check:
    def check(rc: int, out: str) -> Optional[str]:
        got = int(out.strip())
        return _exit_ok(rc) or (None if got == exp.nc[n - 1] else f"NC({n}) = {got}")

    return check


def check_sequence(exp: Expected, n: int, fmt: str) -> Check:
    def check(rc: int, out: str) -> Optional[str]:
        got = parse_sequence(out, fmt)
        if got == list(exp.nc[:n]):
            return _exit_ok(rc)
        bad = next((i for i, (g, e) in enumerate(zip(got, exp.nc), 1) if g != e), len(got))
        return f"sequence differs at n = {bad}"

    return check


def check_list(exp: Expected, n: int) -> Check:
    """`list --n n --format json`: the irreducible records with side <= n."""
    want = Counter(r.key() for r in exp.records if r.side <= n)

    def check(rc: int, out: str) -> Optional[str]:
        got = Counter()
        for rec in json.loads(out):
            err = octant_cube_error(rec["cube"], rec["side"], rec["bound_dim"])
            if err:
                return err
            got[(rec["side"], rec["bound_dim"], tuple(rec["invariants"]), tuple(rec["k_values"]))] += 1
        return _exit_ok(rc) or (None if got == want else f"records with side <= {n} differ")

    return check


def check_invariants(rec: Record) -> Check:
    """`invariants --format json` of any box image of `rec`."""
    want = {
        "side": rec.side,
        "bound_dim": rec.bound_dim,
        "invariants": list(rec.invariants),
        "k_values": list(rec.k_values),
    }

    def check(rc: int, out: str) -> Optional[str]:
        got = json.loads(out)
        return _exit_ok(rc) or (None if got == want else f"invariants {got} != {want}")

    return check


def check_representations(exp: Expected, d: int) -> Check:
    """`representations d --format json`: every primitive solution, once."""

    def check(rc: int, out: str) -> Optional[str]:
        doc = json.loads(out)
        sols = {tuple(s) for s in doc["solutions"]}
        for a, b, c in sols:
            if not (0 < a <= b <= c and a * a + b * b + c * c == 3 * d * d and gcd(gcd(a, b), c) == 1):
                return f"({a}, {b}, {c}) is not a primitive solution for d = {d}"
        want = exp.three_squares[d]
        counts = (len(sols), len(doc["solutions"]), doc["enumerated"], doc["formula"])
        return _exit_ok(rc) or (None if counts == (want,) * 4 else f"counts {counts} != {want}")

    return check


def check_verify(exp: Expected, n: int, oracle_max: int) -> Check:
    """`verify --n n --oracle-max m`: the census column equals NC(1..n), the
    oracle column NC(1..m) and then "-"."""

    def check(rc: int, out: str) -> Optional[str]:
        rows = [line.split() for line in out.splitlines()[1:]]
        census = [int(r[1]) for r in rows]
        oracle = [r[2] for r in rows]
        want = list(exp.nc[:n])
        if census != want:
            return "census column differs"
        if oracle != [str(v) if i < oracle_max else "-" for i, v in enumerate(want)]:
            return "oracle column differs"
        return _exit_ok(rc)

    return check
