"""The three workloads: seeded command-line operations, each with its check.

census-cold  `sequence --n N --format bfile`, no cache, N near 400: the
             whole analytic census (stream, build_cube, orbit claims,
             invariants, multiples, counting); the oracle is idle.
verify       `verify --n M --oracle-max 30`, M in 30..34: the brute-force
             oracle for every n <= 30; the census is tiny.
cli-mixed    a stream of short requests against a registry cache written
             in set-up: interpreter start, imports and cache load/save
             dominate, the census work per request is small.

The seed only generates inputs.  A run measures whole blocks of
operations, and every block has the same make-up: census-cold cycles
through sizes spread evenly around the nominal point, and every verify
operation runs the same oracle work, so the median of a run's operations
sits at the nominal size whatever the seed.
"""

from __future__ import annotations

import itertools
import os
import random
import shutil
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from checks import (
    Check,
    Expected,
    Record,
    check_count,
    check_invariants,
    check_list,
    check_representations,
    check_sequence,
    check_verify,
)

WORK_DIR = Path(".perfbench_work") / str(os.getpid())  # cache files, captured output
SHARED_CACHE = WORK_DIR / "shared.json"
CACHE_N = 150  # the shared cache cli-mixed writes in set-up
MIXED_BLOCK = 10  # requests per cli-mixed block
TRACE_MIXED_OPS = 2 * MIXED_BLOCK  # cli-mixed requests replayed by the traced run
SEQUENCE_FORMATS = ("table", "json", "csv", "bfile")
ORACLE_MAX = 30  # verify runs the oracle for n <= ORACLE_MAX
VERIFY_BLOCK = 3


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]  # arguments to `python -m latticecubes.cli`
    check: Check


@dataclass
class Workload:
    name: str
    setup: Op  # run before the first timed operation
    ops: Iterator[Op]  # endless, seeded, in blocks of equal make-up
    block: int  # a run measures whole blocks
    trace_ops: list[Op]  # what the traced run replays in-process
    census_n: int  # size of the largest registry trace_ops build


def clear_work() -> None:
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    WORK_DIR.mkdir(parents=True)


def remove_work() -> None:
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    with suppress(OSError):
        WORK_DIR.parent.rmdir()  # only when no other run is using it


def _count(exp: Expected, n: int, *extra: str) -> Op:
    return Op(("count", "--n", str(n), *extra), check_count(exp, n))


def _box_image(rec: Record, rng: random.Random) -> list[list[int]]:
    """The record's cube under a random signed axis permutation of its box, shifted."""
    perm = rng.sample(range(3), 3)
    flips = [rng.random() < 0.5 for _ in range(3)]
    shift = [rng.randint(-3, 3) for _ in range(3)]
    b = rec.bound_dim
    pts = [
        [(b - v[perm[i]] if flips[i] else v[perm[i]]) + shift[i] for i in range(3)]
        for v in rec.cube
    ]
    rng.shuffle(pts)
    return pts


def _census_cold(exp: Expected, seed: str) -> Workload:
    rng = random.Random(seed)
    r = rng.randint(0, 2)
    sizes = [400 - r, 400 + r]
    rng.shuffle(sizes)
    ops = [
        Op(("sequence", "--n", str(n), "--format", "bfile"), check_sequence(exp, n, "bfile"))
        for n in sizes
    ]
    return Workload("census-cold", _count(exp, 1), itertools.cycle(ops), len(ops), ops[:1], sizes[0])


def _verify(exp: Expected, seed: str) -> Workload:
    # The oracle is over 95 % of an operation's time, so a fixed oracle cap
    # gives operations of equal cost, and the run's median is a median of
    # like samples, not one operation of the middle size.  The seed draws
    # the census range, which costs little.
    rng = random.Random(seed)
    sizes = rng.sample(range(ORACLE_MAX, ORACLE_MAX + 5), VERIFY_BLOCK)
    ops = [
        Op(("verify", "--n", str(m), "--oracle-max", str(ORACLE_MAX)), check_verify(exp, m, ORACLE_MAX))
        for m in sizes
    ]
    return Workload("verify", _count(exp, 1), itertools.cycle(ops), len(ops), ops[:1], sizes[0])


def _mixed_stream(exp: Expected, seed: str) -> Iterator[Op]:
    """Blocks of MIXED_BLOCK requests in a seeded order.  Every block holds
    two each of count, list and sequence reads of the shared cache, one
    size from each of six equal slices of 1..CACHE_N; one cache write; one
    uncached count; one invariants and one representations request.  Each
    block has the same make-up, so the run's median does not depend on
    which seed drew it."""
    rng = random.Random(seed)
    cache = ("--cache", str(SHARED_CACHE))
    reps = sorted(exp.three_squares)
    width = CACHE_N // 6
    for block in itertools.count():
        sizes = [rng.randint(lo + 1, lo + width) for lo in range(0, CACHE_N, width)]
        rng.shuffle(sizes)
        ops = []
        for read, n in zip(("count", "list", "sequence") * 2, sizes):
            if read == "count":
                ops.append(_count(exp, n, *cache))
            elif read == "list":
                ops.append(Op(("list", "--n", str(n), "--format", "json", *cache), check_list(exp, n)))
            else:
                fmt = rng.choice(SEQUENCE_FORMATS)
                ops.append(Op(("sequence", "--n", str(n), "--format", fmt, *cache), check_sequence(exp, n, fmt)))
        ops.append(_count(exp, rng.randint(20, 60), "--cache", str(WORK_DIR / f"write-{block}.json")))
        ops.append(_count(exp, rng.randint(1, 40)))
        rec = rng.choice(exp.records)
        cube = str(_box_image(rec, rng)).replace(" ", "")
        ops.append(Op(("invariants", cube, "--format", "json"), check_invariants(rec)))
        d = rng.choice(reps)
        ops.append(Op(("representations", str(d), "--format", "json"), check_representations(exp, d)))
        rng.shuffle(ops)
        yield from ops


def _cli_mixed(exp: Expected, seed: str) -> Workload:
    if exp.record_max_side < CACHE_N:
        raise ValueError("expected.json holds too few records for the shared cache")
    setup = _count(exp, CACHE_N, "--cache", str(SHARED_CACHE))
    # the traced run replays the set-up and the first requests of the same stream
    trace_ops = [setup, *itertools.islice(_mixed_stream(exp, seed), TRACE_MIXED_OPS)]
    return Workload("cli-mixed", setup, _mixed_stream(exp, seed), MIXED_BLOCK, trace_ops, CACHE_N)


WORKLOADS = {"census-cold": _census_cold, "verify": _verify, "cli-mixed": _cli_mixed}


def make(name: str, seed: int, exp: Expected) -> Workload:
    return WORKLOADS[name](exp, f"{name}:{seed}")
