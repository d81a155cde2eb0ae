"""The traced run: per-layer spans and counters, recorded from outside the package.

The package is not modified.  For the duration of a traced pass the
names that census.py, lattice_geometry.py, oracle.py and cli.py look up
when they call into another layer are rebound to timing wrappers, and
restored afterwards.  Spans (name, start, end, parent) stay in memory and
are written out once the run ends.  A layer's self time is its span time
minus the time of the spans nested directly inside it.

The traced run replays the workload's operations in-process three
times: untraced, traced, untraced.  It checks the outputs against the
expected values and against each other, and reports the traced wall time
minus the mean untraced one as the tracing overhead.  It then builds the same registry untraced with one process and
with one per core, which must match the traced registry record for
record, and times a fresh interpreter's imports with -X importtime.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable

from checks import run_check
from workloads import Op, Workload, clear_work

BUILD = "census.build_irreducible_list"
IMPORT_REPEATS = 3


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.three_squares_d: set[int] = set()
        self.registries: list = []  # every registry built, in call order

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def wrap(self, fn: Callable, name: str, after: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap_stream(self, fn: Callable, name: str) -> Callable:
        """A generator wrapper timing each step of the candidate stream."""

        def traced(*args):
            it = fn(*args)
            while True:
                idx = self.begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.end(idx)
                self.counts["census.candidates"] += 1
                yield item

        return traced

    def wrap_claim(self, fn: Callable) -> Callable:
        """CubeRegistry.claim, split by caller: the accept pass or a cache load."""

        def traced(reg, record):
            in_build = self.inside(BUILD)
            idx = self.begin("census.claim" if in_build else "census.cache_claim")
            try:
                fn(reg, record)
            finally:
                self.end(idx)
            if in_build:
                self.counts["census.records"] += 1

        return traced

    def totals(self) -> tuple[dict, dict, dict]:
        """Per span name: call count, total time, self time."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child):
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - inner
        return calls, total, own


def _file_size(path) -> int:
    return os.path.getsize(path) if os.path.isfile(path) else 0


@contextlib.contextmanager
def installed(tr: Tracer, pkg: dict):
    """Rebind the call sites of the package's layers to `tr`'s wrappers."""
    census, cli, geometry, oracle = pkg["census"], pkg["cli"], pkg["lattice_geometry"], pkg["oracle"]
    registry_cls = census.CubeRegistry

    def count(key: str, value: Callable) -> Callable:
        def after(args, result):
            tr.counts[key] += value(args, result)

        return after

    def keep_registry(args, result):
        tr.registries.append(result)

    def loaded(args, result):
        tr.counts["census.cache_bytes"] += _file_size(args[0])

    def saved(args, result):
        tr.counts["census.cache_bytes"] += _file_size(args[1])

    def three_squares(args, result):
        tr.three_squares_d.add(args[0])

    wrappers = {
        (census, "_candidate_stream"): tr.wrap_stream(census._candidate_stream, "diophantine.stream"),
        (census, "solve_three_squares"): tr.wrap(census.solve_three_squares, "diophantine.three_squares", three_squares),
        (cli, "solve_three_squares"): tr.wrap(cli.solve_three_squares, "diophantine.three_squares", three_squares),
        (census, "_build_one"): tr.wrap(census._build_one, "census.build_one"),
        (census, "build_cube"): tr.wrap(census.build_cube, "lattice_geometry.build_cube"),
        (geometry, "find_rs"): tr.wrap(geometry.find_rs, "ring_arith.find_rs"),
        (census, "orbit_classes"): tr.wrap(census.orbit_classes, "symmetry.orbit_classes"),
        (census, "invariants"): tr.wrap(census.invariants, "symmetry.invariants"),
        (cli, "invariants"): tr.wrap(cli.invariants, "symmetry.invariants"),
        (census, "build_irreducible_list"): tr.wrap(census.build_irreducible_list, BUILD, keep_registry),
        (cli, "build_irreducible_list"): tr.wrap(cli.build_irreducible_list, BUILD, keep_registry),
        (registry_cls, "is_claimed"): tr.wrap(
            registry_cls.is_claimed, "census.is_claimed", count("census.orbit_duplicates", lambda a, r: int(r))
        ),
        (registry_cls, "claim"): tr.wrap_claim(registry_cls.claim),
        (census, "build_multiples"): tr.wrap(census.build_multiples, "census.build_multiples", count("census.multiples", lambda a, r: len(r))),
        (cli, "build_multiples"): tr.wrap(cli.build_multiples, "census.build_multiples", count("census.multiples", lambda a, r: len(r))),
        (census, "count_cubes"): tr.wrap(census.count_cubes, "census.count_cubes"),
        (cli, "count_cubes"): tr.wrap(cli.count_cubes, "census.count_cubes"),
        (cli, "load_registry"): tr.wrap(cli.load_registry, "census.load_registry", loaded),
        (cli, "save_registry"): tr.wrap(cli.save_registry, "census.save_registry", saved),
        (cli, "brute_force_count"): tr.wrap(cli.brute_force_count, "oracle.brute_force_count"),
        (oracle, "enumerate_frames"): tr.wrap(oracle.enumerate_frames, "oracle.enumerate_frames", count("oracle.frames", lambda a, r: len(r))),
    }
    saved_attrs = {key: getattr(*key) for key in wrappers}
    try:
        for (owner, attr), wrapper in wrappers.items():
            setattr(owner, attr, wrapper)
        yield
    finally:
        for (owner, attr), original in saved_attrs.items():
            setattr(owner, attr, original)


def load_package() -> dict:
    sys.path.insert(0, str(Path("src").resolve()))
    import latticecubes.census
    import latticecubes.cli
    import latticecubes.lattice_geometry
    import latticecubes.oracle

    return {
        "census": latticecubes.census,
        "cli": latticecubes.cli,
        "lattice_geometry": latticecubes.lattice_geometry,
        "oracle": latticecubes.oracle,
    }


def replay(cli, ops: list[Op]) -> tuple[float, list[tuple[int, str]]]:
    """Run `ops` in this process from an empty work directory; wall time and outputs."""
    clear_work()
    outputs = []
    start = time.perf_counter()
    for op in ops:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(op.argv))
        outputs.append((rc, out.getvalue()))
    return time.perf_counter() - start, outputs


def record_rows(reg) -> list[tuple]:
    return [
        (r.side, r.bound_dim, r.cube.as_lists(), sorted(r.k_values), tuple(r.invariants), r.source)
        for r in reg.records
    ]


def import_times() -> tuple[float, float]:
    """Median cumulative import time of latticecubes.cli and of sympy, in s."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import latticecubes.cli"]
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
    samples = []
    subprocess.run(cmd, env=env, capture_output=True, check=True)  # may compile bytecode
    for _ in range(IMPORT_REPEATS):
        err = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stderr
        cumulative = {}
        for line in err.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative.setdefault(fields[2].strip(), int(fields[1]) / 1e6)
        samples.append((cumulative["latticecubes.cli"], cumulative.get("sympy", 0.0)))
    return statistics.median(s[0] for s in samples), statistics.median(s[1] for s in samples)


def traced_pass(pkg: dict, ops: list[Op]) -> tuple[Tracer, float, list[tuple[int, str]]]:
    tr = Tracer()
    with installed(tr, pkg):
        wall, outputs = replay(pkg["cli"], ops)
    return tr, wall, outputs


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    calls, total, own = tr.totals()
    c = tr.counts
    candidates, records = c["census.candidates"], c["census.records"]
    return {
        "symmetry.invariants_calls": (calls["symmetry.invariants"], "count"),
        "symmetry.invariants_s": (total["symmetry.invariants"], "s"),
        "symmetry.orbit_classes_calls": (calls["symmetry.orbit_classes"], "count"),
        "symmetry.orbit_classes_s": (total["symmetry.orbit_classes"], "s"),
        "census.candidates": (candidates, "count"),
        "census.rejected_k1": (candidates - calls["census.is_claimed"], "count"),
        "census.orbit_duplicates": (c["census.orbit_duplicates"], "count"),
        "census.records": (records, "count"),
        "census.accept_ratio": (records / candidates if candidates else 0.0, "ratio"),
        "census.accept_self_s": (own[BUILD] + own["census.is_claimed"] + own["census.claim"], "s"),
        "lattice_geometry.build_cube_calls": (calls["lattice_geometry.build_cube"], "count"),
        "lattice_geometry.build_cube_s": (total["lattice_geometry.build_cube"], "s"),
        "ring_arith.find_rs_calls": (calls["ring_arith.find_rs"], "count"),
        "ring_arith.find_rs_s": (total["ring_arith.find_rs"], "s"),
        "diophantine.three_squares_calls": (calls["diophantine.three_squares"], "count"),
        "diophantine.three_squares_distinct_d": (len(tr.three_squares_d), "count"),
        "diophantine.stream_s": (total["diophantine.stream"], "s"),
        "census.multiples": (c["census.multiples"], "count"),
        "census.multiples_s": (total["census.build_multiples"], "s"),
        "census.count_s": (total["census.count_cubes"], "s"),
        "census.cache_load_s": (total["census.load_registry"], "s"),
        "census.cache_save_s": (total["census.save_registry"], "s"),
        "census.cache_bytes": (c["census.cache_bytes"], "bytes"),
        "oracle.calls": (calls["oracle.brute_force_count"], "count"),
        "oracle.frames": (c["oracle.frames"], "count"),
        "oracle.s": (total["oracle.brute_force_count"], "s"),
    }


def write_spans(tr: Tracer, path: Path) -> None:
    path.parent.mkdir(exist_ok=True)
    names = sorted({s[0] for s in tr.spans})
    index = {n: i for i, n in enumerate(names)}
    rows = [[index[n], round(a, 7), round(b, 7), p] for n, a, b, p in tr.spans]
    path.write_text(json.dumps({"names": names, "columns": ["name", "start", "end", "parent"], "spans": rows}))


def run(wl: Workload, spans_path: Path) -> dict:
    """The traced run of one workload: the result object run.py prints.

    It replays the fixed list wl.trace_ops, so it takes no duration."""
    pkg = load_package()
    ops = wl.trace_ops
    failures = []

    # untraced passes on both sides of the traced one, so drift and
    # warm-up do not land in the overhead
    before_s, plain = replay(pkg["cli"], ops)
    tr, traced_s, traced = traced_pass(pkg, ops)
    after_s, _ = replay(pkg["cli"], ops)
    untraced_s = (before_s + after_s) / 2
    failed_ops = 0
    for op, (rc, out), (rc_t, out_t) in zip(ops, plain, traced):
        errors = [run_check(op.check, rc, out), run_check(op.check, rc_t, out_t)]
        if (rc, out) != (rc_t, out_t):
            errors.append("traced output differs from untraced output")
        errors = [e for e in errors if e]
        failed_ops += bool(errors)
        failures += [f"{' '.join(op.argv)[:80]}: {e}" for e in errors]

    # the same registry untraced, on one process and on one per core
    build = pkg["census"].build_irreducible_list
    nproc = os.cpu_count() or 1
    t0 = time.perf_counter()
    serial = build(wl.census_n, threads=1)
    t1 = time.perf_counter()
    pooled = build(wl.census_n, threads=nproc)
    t2 = time.perf_counter()
    traced_regs = [r for r in tr.registries if r.n_built == wl.census_n]
    if not traced_regs or any(record_rows(r) != record_rows(serial) for r in traced_regs):
        failures.append(f"traced registry at N = {wl.census_n} differs from the untraced one")
    if record_rows(pooled) != record_rows(serial):
        failures.append(f"registry at N = {wl.census_n} depends on the thread count")

    import_s, sympy_s = import_times()
    metrics = layer_metrics(tr)
    metrics["census.pool_speedup"] = ((t1 - t0) / (t2 - t1), "ratio")
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.import_sympy_s"] = (sympy_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    write_spans(tr, spans_path)

    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    print(f"traced pass {traced_s:.3f} s, untraced passes {before_s:.3f} s and {after_s:.3f} s, {len(tr.spans)} spans -> {spans_path}")
    print(f"pool: N = {wl.census_n}, threads=1 {t1 - t0:.3f} s, threads={nproc} {t2 - t1:.3f} s")
    return {
        "correct": not failures,
        "attempted": len(ops),
        "failed": failed_ops,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
