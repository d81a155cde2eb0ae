"""Command-line interface.

Subcommands:

  count            NC(n) for one n
  sequence         NC(1..n) as table, json, csv, or OEIS b-file
  list             the cube records with side <= n
  invariants       (alpha0, alpha, beta, gamma) and k-values of a given cube
  verify           census vs brute-force oracle vs the two published lists
  representations  solutions of a^2+b^2+c^2 = 3d^2 and the count formula

count, sequence, list and verify build the census and take --n and
--cache; --format is offered by the subcommands with more than one output
form.  Such a command builds its JSON document and its text lines, and
one writer (_emit) prints the one --format picks.  Results go to
stdout, diagnostics to stderr.  Exit codes:
0 success, 1 verification or validation failure or a cache that cannot
be written, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from itertools import chain
from typing import Iterable, Optional

# json is imported by _emit and by the invariants command, off the start-up path

from .census import (
    CacheMismatch,
    CubeRegistry,
    build_irreducible_list,
    build_multiples,
    count_cubes,
    load_registry,
    record_to_json,
    save_registry,
    sequence,
)
from .diophantine import pi_epsilon, solve_three_squares
from .lattice_geometry import Cube
# brute_force_count is not called here; it stays bound for perfbench/tracing.py, which wraps it
from .oracle import brute_force_count, brute_force_sequence
from .reference import COUNTS_LISTED, COUNTS_LOG
from .symmetry import invariants


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError("value must be >= 1")
    return value


def _get_registry(args: argparse.Namespace) -> CubeRegistry:
    if args.cache_path:
        try:
            reg = load_registry(args.cache_path, args.n)
        except CacheMismatch as exc:
            print(f"rejected registry cache {args.cache_path}: {exc}", file=sys.stderr)
            reg = None
        if reg is not None:
            print(f"loaded registry cache (N={reg.n_built})", file=sys.stderr)
            return reg
    reg = build_irreducible_list(args.n)
    if args.cache_path:
        try:
            save_registry(reg, args.cache_path)
        except OSError as exc:
            # a string exit code is printed on stderr and exits with status 1
            raise SystemExit(f"cannot write registry cache {args.cache_path}: {exc.strerror or exc}") from exc
        print(f"saved registry cache to {args.cache_path}", file=sys.stderr)
    return reg


def _emit(args: argparse.Namespace, doc, lines: Iterable[str], indent: Optional[int] = None) -> None:
    """The one writer: `doc` as JSON for --format json, else the text `lines`."""
    if args.format == "json":
        import json

        print(json.dumps(doc, indent=indent))
    else:
        sys.stdout.write("".join(f"{line}\n" for line in lines))


def cmd_count(args: argparse.Namespace) -> int:
    reg = _get_registry(args)
    print(count_cubes(args.n, reg, build_multiples(args.n, reg)))
    return 0


# the text of each `sequence` format: its header lines and one row template per term
_SEQUENCE_TEXT = {"table": ((), "{:4d} {}"), "csv": (("n,nc",), "{},{}"), "bfile": ((), "{} {}"), "json": ((), "")}


def cmd_sequence(args: argparse.Namespace) -> int:
    values = sequence(args.n, registry=_get_registry(args))
    header, row = _SEQUENCE_TEXT[args.format]
    _emit(args, values, chain(header, (row.format(i, v) for i, v in enumerate(values, 1))))
    return 0


def cmd_list(args: argparse.Namespace) -> int:
    # the registry holds exactly the sides <= n, and a dilate's side j*s is at most j*bound_dim <= n
    reg = _get_registry(args)
    records = reg.records + build_multiples(args.n, reg) if args.multiples else reg.records
    doc = sorted(map(record_to_json, records), key=lambda r: (r["side"], -r["bound_dim"], r["cube"]))
    lines = (
        f"{r['side']} | {r['bound_dim']} | {', '.join(map(str, r['cube']))} | "
        f"{','.join(map(str, r['k_values']))} | {r['invariants']}"
        for r in doc
    )
    _emit(args, doc, lines, indent=1)
    return 0


def cmd_invariants(args: argparse.Namespace) -> int:
    import json  # the input is JSON in either format

    text = args.cube if args.cube is not None else sys.stdin.read()
    try:
        frame = Cube.from_points(json.loads(text)).corner_edges()
    except (json.JSONDecodeError, TypeError, IndexError, ValueError, RecursionError) as exc:
        print(f"not a lattice cube: {exc}", file=sys.stderr)
        return 1
    doc = {
        "side": frame.side,
        "bound_dim": max(frame.extents()),
        "invariants": list(invariants(frame)),
        "k_values": sorted(frame.k_values()),
    }
    _emit(args, doc, (" ".join(map(str, doc["invariants"])), "k-values: " + ",".join(map(str, doc["k_values"]))))
    if args.format != "json":
        print("side:", doc["side"], " bound:", doc["bound_dim"], file=sys.stderr)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    census_vals = sequence(args.n, registry=_get_registry(args))
    oracle_vals = brute_force_sequence(min(args.n, args.oracle_max or args.n))
    failures = 0
    print(f"{'n':>4} {'census':>12} {'oracle':>12} {'listed':>12} {'log':>12}")
    for n, c in enumerate(census_vals, 1):
        o, listed, logged = (col[n - 1] if n <= len(col) else None for col in (oracle_vals, COUNTS_LISTED, COUNTS_LOG))
        mark = ""
        if o is not None and o != c:
            mark = "  << census/oracle MISMATCH"
            failures += 1
        else:
            flags = []
            if listed is not None and listed != c:
                flags.append("listed differs")
                failures += 1
            # informational only: the published log double-counts one orbit
            if logged is not None and logged != c:
                flags.append("log differs")
            if flags:
                mark = "  * " + ", ".join(flags)
        print(f"{n:>4}" + "".join(f" {'-' if v is None else v:>12}" for v in (c, o, listed, logged)) + mark)
    if failures:
        print(f"census differs from the oracle or the listing on {failures} rows", file=sys.stderr)
        return 1
    print("census, oracle and listing agree on all checked n", file=sys.stderr)
    return 0


def cmd_representations(args: argparse.Namespace) -> int:
    d = args.d
    if d % 2 == 0:
        print("d must be odd", file=sys.stderr)
        return 1
    sols = solve_three_squares(d)
    formula = pi_epsilon(d)
    doc = {"d": d, "solutions": [[s.a, s.b, s.c] for s in sols], "enumerated": len(sols), "formula": formula}
    lines = chain((f"{s.a} {s.b} {s.c}" for s in sols), (f"enumerated: {len(sols)}", f"formula:    {formula}"))
    _emit(args, doc, lines)
    if formula != len(sols):
        print("MISMATCH between formula and enumeration", file=sys.stderr)
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticecubes",
        description="Count the lattice cubes with vertices in {0..n}^3.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, formats=("table", "json"), census=True):
        """A subcommand with the flags its function reads: the census
        flags (--n, --cache) and --format with `formats`."""
        p = sub.add_parser(name, help=summary)
        if census:
            p.add_argument("--n", type=_positive_int, default=1, help="grid size n")
            p.add_argument("--cache", dest="cache_path", help="registry cache file")
        if formats:
            p.add_argument(
                "--format", choices=formats, default="table", help="output format (default: table)"
            )
        p.set_defaults(func=func)
        return p

    command("count", cmd_count, "print NC(n)", formats=())
    command("sequence", cmd_sequence, "print NC(1..n)", formats=("table", "json", "csv", "bfile"))
    p_list = command("list", cmd_list, "cube records with side <= n")
    p_list.add_argument(
        "--multiples", action="store_true", help="include dilated (reducible) cubes"
    )
    p_inv = command("invariants", cmd_invariants, "invariants of a cube given as JSON", census=False)
    p_inv.add_argument(
        "cube",
        nargs="?",
        help="cube as JSON [[x,y,z] * 8]; read from stdin when omitted",
    )
    p_ver = command("verify", cmd_verify, "census vs oracle vs published values", formats=())
    p_ver.add_argument(
        "--oracle-max",
        type=_positive_int,
        help="run the brute-force oracle only up to this n",
    )
    p_rep = command(
        "representations",
        cmd_representations,
        "solutions of a^2+b^2+c^2=3d^2 and their count",
        census=False,
    )
    p_rep.add_argument("d", type=_positive_int, help="odd d >= 1")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
