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

A request builds its census once (_get_registry).  --cache FILE then
checks the file against it: the file holds N and each record's source
[a, b, c, d, m, n] in registry order, and a load compares them with the
census's, all of them at the file's own N and, for a smaller n, only as
many as the census has, which, the census being side-major, are the
file's sources of the sides <= n.  A file that agrees is reported as
loaded; otherwise the census is saved to it, after a line giving the
reason when the file disagrees or cannot be read.  So every result comes
from the census, never from the file.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import chain, zip_longest
from typing import Iterable, Optional

# json is imported where it is used (_emit, the invariants command, the cache), off the start-up path

from .census import (
    CubeRegistry,
    build_irreducible_list,
    build_multiples,
    count_cubes,
    record_to_json,
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


CACHE_VERSION = 2


class CacheMismatch(ValueError):
    """A registry cache that cannot be trusted: unreadable, of another
    version, missing keys, or with sources that are not the census's."""


def _sources(reg: CubeRegistry) -> list[list[int]]:
    """Each record's source [a, b, c, d, m, n], in registry order: what a
    cache stores and a load compares."""
    return [[*sol, *mn] for sol, mn in (r.source for r in reg.records)]


def save_registry(reg: CubeRegistry, path: str | os.PathLike[str]) -> None:
    """Write N and the registry's sources (_sources) as JSON to `path`,
    atomically.

    The document goes to a temp file beside `path` that then replaces it,
    so a crash or error mid-write leaves any previous cache intact.  Only
    a regular file is replaced: a directory raises IsADirectoryError and
    anything else, a symlink, FIFO or device included, FileExistsError,
    before any temp file is written.
    """
    import errno
    import json
    import stat
    from pathlib import Path  # kept off the package's import path

    doc = {"version": CACHE_VERSION, "N": reg.n_built, "sources": _sources(reg)}
    p = Path(path)
    try:
        mode = os.lstat(p).st_mode
    except FileNotFoundError:
        mode = stat.S_IFREG  # a new cache
    if stat.S_ISDIR(mode):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(p))
    if not stat.S_ISREG(mode):
        raise FileExistsError(errno.EEXIST, "exists and is not a regular file", str(p))
    tmp = p.with_name(f".{p.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(json.dumps(doc, separators=(",", ":")) + "\n")
        os.replace(tmp, p)
    finally:
        tmp.unlink(missing_ok=True)


def load_registry(path: str | os.PathLike[str], reg: CubeRegistry) -> bool:
    """True if the cache at `path` holds the sources of the census `reg`;
    False if there is no file or it was built for an N below reg.n_built.

    A file that is not this version's JSON document, lacks a key or holds
    a malformed N or sources list raises CacheMismatch with the reason.
    Otherwise its sources are compared with reg's (_sources), in registry
    order: all of them at the file's own N, and below it only as many as
    reg has.  The first source that differs, in value or in JSON type,
    raises CacheMismatch naming it.  Sources past reg's are parsed but not
    checked.
    """
    import json
    from pathlib import Path  # kept off the package's import path

    N = reg.n_built
    p = Path(path)
    if not p.is_file():
        return False
    try:
        doc = json.loads(p.read_text())
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise CacheMismatch(f"unreadable JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise CacheMismatch("not a JSON object")
    if doc.get("version") != CACHE_VERSION:
        raise CacheMismatch(f"version {doc.get('version')!r}, expected {CACHE_VERSION}")
    try:
        n_built, sources = doc["N"], doc["sources"]
    except KeyError as exc:
        raise CacheMismatch(f"missing key {exc}") from exc
    if type(n_built) is not int or n_built < 1 or not isinstance(sources, list):
        raise CacheMismatch("malformed document: N is not a positive integer or sources not a list")
    if n_built < N:
        return False
    want = _sources(reg)
    got = sources if n_built == N else sources[: len(want)]
    for i, (cached, source) in enumerate(zip_longest(got, want)):
        # JSON's true and 1.0 compare equal to 1, so each cached number must be an int too
        if cached != source or any(type(x) is not int for x in cached):
            raise CacheMismatch(f"cached source {cached} at position {i} is not the census's {source} for N = {N}")
    return True


def _get_registry(args: argparse.Namespace) -> CubeRegistry:
    reg = build_irreducible_list(args.n)
    if args.cache_path:
        try:
            if load_registry(args.cache_path, reg):
                print(f"loaded registry cache (N={reg.n_built})", file=sys.stderr)
                return reg
        except CacheMismatch as exc:
            print(f"rejected registry cache {args.cache_path}: {exc}", file=sys.stderr)
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
