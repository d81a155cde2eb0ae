"""End-to-end CLI behavior: formats, exit codes, caching, stdin."""

import io
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

import latticecubes
from latticecubes import census, cli
from latticecubes.cli import main
from latticecubes.reference import COUNTS_LISTED

from .published_data import EXAMPLE_CUBE, TABLE1

UNIT_JSON = json.dumps(TABLE1[0][2])


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_count(capsys):
    rc, out, _ = run(capsys, "count", "--n", "4")
    assert rc == 0
    assert out == "100\n"


def test_sequence_bfile(capsys):
    rc, out, _ = run(capsys, "sequence", "--n", "3", "--format", "bfile")
    assert rc == 0
    assert out == "1 1\n2 9\n3 36\n"


def test_sequence_json(capsys):
    rc, out, _ = run(capsys, "sequence", "--n", "1", "--format", "json")
    assert rc == 0
    assert out == "[1]\n"


def test_sequence_csv(capsys):
    rc, out, _ = run(capsys, "sequence", "--n", "2", "--format", "csv")
    assert rc == 0
    assert out == "n,nc\n1,1\n2,9\n"


def test_sequence_table(capsys):
    rc, out, _ = run(capsys, "sequence", "--n", "2")
    assert rc == 0
    assert out == "   1 1\n   2 9\n"


def test_list_unit(capsys):
    rc, out, _ = run(capsys, "list", "--n", "1")
    assert rc == 0
    assert out == (
        "1 | 1 | [0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1], "
        "[1, 0, 0], [1, 0, 1], [1, 1, 0], [1, 1, 1] | 1 | [1, 1, 0, 0]\n"
    )


def test_list_13(capsys):
    rc, out, _ = run(capsys, "list", "--n", "13")
    assert rc == 0
    rows = [line.split(" | ") for line in out.splitlines()]
    assert [int(r[0]) for r in rows] == [1, 3, 5, 7, 9, 11, 13, 13]
    # within one side, bigger bounding boxes print first
    assert [int(r[1]) for r in rows if r[0] == "13"] == [19, 17]


def test_list_multiples(capsys):
    rc, plain, _ = run(capsys, "list", "--n", "6")
    rc2, with_mult, _ = run(capsys, "list", "--n", "6", "--multiples")
    assert rc == rc2 == 0
    extra = set(with_mult.splitlines()) - set(plain.splitlines())
    sides = sorted(int(line.split(" | ")[0]) for line in extra)
    assert sides == [2, 3, 4, 5, 6]  # the unit cube dilated by 2..6


def test_list_json_schema(capsys):
    rc, out, _ = run(capsys, "list", "--n", "3", "--format", "json")
    assert rc == 0
    data = json.loads(out)
    assert len(data) == 2
    for rec in data:
        assert set(rec) == {
            "side", "bound_dim", "cube", "k_values", "invariants", "source",
        }
        assert set(rec["source"]) == {"a", "b", "c", "d", "m", "n"}


def test_rejects_bad_n(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--n", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["count", "--n", "x"])
    assert exc.value.code == 2


def test_rejects_unknown_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--n", "2", "--frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--n", "4", "--format", "bfile"],
        ["count", "--n", "4", "--format", "json"],
        ["count", "--n", "4", "--format", "csv"],
        ["list", "--n", "3", "--format", "bfile"],
        ["verify", "--n", "3", "--format", "json"],
        ["invariants", UNIT_JSON, "--n", "3"],
        ["invariants", UNIT_JSON, "--format", "csv"],
        ["representations", "5", "--n", "7"],
        ["representations", "5", "--cache", "reg.json"],
        ["representations", "5", "--threads", "4"],
        ["sequence", "--n", "8", "--threads", "2"],
        ["representations", "5", "--format", "csv"],
    ],
    ids=lambda argv: " ".join(a for a in argv if not a.startswith("[")),
)
def test_rejects_flags_the_subcommand_does_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_invariants_argument(capsys):
    rc, out, err = run(capsys, "invariants", UNIT_JSON)
    assert rc == 0
    assert out == "1 1 0 0\nk-values: 1\n"
    assert "side: 1" in err


def test_invariants_json(capsys):
    rc, out, _ = run(
        capsys, "invariants", json.dumps(EXAMPLE_CUBE), "--format", "json"
    )
    assert rc == 0
    data = json.loads(out)
    assert data["side"] == 61
    assert data["bound_dim"] == 97
    assert data["invariants"][0] >= 1


def test_invariants_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(UNIT_JSON))
    rc, out, _ = run(capsys, "invariants")
    assert rc == 0
    assert out.startswith("1 1 0 0")


def test_invariants_rejects_garbage(capsys):
    rc, out, err = run(capsys, "invariants", "[[0,0,0]]")
    assert rc == 1
    assert out == ""
    assert "not a lattice cube" in err
    rc, _, err = run(capsys, "invariants", "{not json")
    assert rc == 1
    assert "not a lattice cube" in err


def test_invariants_rejects_deeply_nested_json(capsys, monkeypatch):
    # json.loads raises RecursionError past the interpreter's depth limit
    monkeypatch.setattr("sys.stdin", io.StringIO("[" * 100_000))
    rc, out, err = run(capsys, "invariants")
    assert (rc, out) == (1, "")
    assert err.startswith("not a lattice cube: ") and "Traceback" not in err


@pytest.mark.parametrize("coordinate", ["1.5", '"1"', "true", "1, 1"])
def test_invariants_rejects_non_integer_points(capsys, coordinate):
    # the unit cube with its last coordinate made a float, a string, a
    # bool, or two numbers: none may be truncated into the unit cube
    pts = UNIT_JSON[: UNIT_JSON.rindex("1]")] + coordinate + "]]"
    rc, out, err = run(capsys, "invariants", pts)
    assert (rc, out) == (1, "")
    assert "not a lattice cube" in err and "not a lattice point" in err


def test_verify_small(capsys):
    rc, out, err = run(capsys, "verify", "--n", "6")
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 7  # header + 6 rows
    assert "MISMATCH" not in out
    assert "agree" in err


def test_verify_oracle_cap_and_log_flag(capsys):
    rc, out, _ = run(capsys, "verify", "--n", "15", "--oracle-max", "2")
    assert rc == 0
    rows = out.splitlines()[1:]
    assert rows[2].split()[2] == "-"  # oracle column empty past the cap
    assert "log differs" in rows[14]  # the published computation log is wrong here
    assert "listed differs" not in out


def test_verify_fails_on_listing_mismatch(capsys, monkeypatch):
    listed = list(COUNTS_LISTED)
    listed[3] += 1  # NC(4)
    monkeypatch.setattr("latticecubes.cli.COUNTS_LISTED", listed)
    rc, out, err = run(capsys, "verify", "--n", "6")
    assert rc == 1
    rows = out.splitlines()[1:]
    assert "listed differs" in rows[3]
    assert "MISMATCH" not in out and "differs" not in rows[2] + rows[4]
    assert "census differs from the oracle or the listing on 1 rows" in err


def test_verify_fails_on_oracle_mismatch(capsys, monkeypatch):
    real = latticecubes.cli.brute_force_sequence

    def off_by_one(n):
        vals = real(n)
        vals[3] += 1  # NC(4)
        return vals

    monkeypatch.setattr("latticecubes.cli.brute_force_sequence", off_by_one)
    rc, out, err = run(capsys, "verify", "--n", "6")
    assert rc == 1
    rows = out.splitlines()[1:]
    assert rows[3].endswith("<< census/oracle MISMATCH")
    assert "MISMATCH" not in "".join(rows[:3] + rows[4:])
    assert "census differs from the oracle or the listing on 1 rows" in err


def test_representations_table(capsys):
    rc, out, _ = run(capsys, "representations", "5")
    assert rc == 0
    assert out == "1 5 7\nenumerated: 1\nformula:    1\n"


def test_representations_json(capsys):
    rc, out, _ = run(capsys, "representations", "9", "--format", "json")
    assert rc == 0
    assert json.loads(out) == {
        "d": 9,
        "solutions": [[1, 11, 11], [5, 7, 13]],
        "enumerated": 2,
        "formula": 2,
    }


def test_representations_rejects_even(capsys):
    rc, _, err = run(capsys, "representations", "4")
    assert rc == 1
    assert "odd" in err


def test_cache_save_and_load(tmp_path, capsys):
    cache = str(tmp_path / "reg.json")
    rc1, out1, err1 = run(capsys, "count", "--n", "5", "--cache", cache)
    assert rc1 == 0 and "saved registry cache" in err1
    rc2, out2, err2 = run(capsys, "count", "--n", "5", "--cache", cache)
    assert rc2 == 0 and "loaded registry cache (N=5)" in err2
    assert out1 == out2 == "229\n"


def test_cache_corruption_falls_back(tmp_path, capsys):
    cache = tmp_path / "reg.json"
    cache.write_text("garbage")
    rc, out, err = run(capsys, "count", "--n", "3", "--cache", str(cache))
    assert rc == 0
    assert out == "36\n"
    assert f"rejected registry cache {cache}: unreadable JSON" in err
    assert "saved registry cache" in err  # rebuilt and overwrote the bad file


@pytest.mark.parametrize(
    "name, reason",
    [
        pytest.param("existing_dir", "Is a directory", id="directory"),
        pytest.param("missing_dir/reg.json", "No such file or directory", id="missing_parent"),
    ],
)
def test_unwritable_cache_fails_on_one_line(tmp_path, name, reason):
    (tmp_path / "existing_dir").mkdir()
    cache = tmp_path / name
    proc = subprocess.run(
        [sys.executable, "-m", "latticecubes.cli", "count", "--n", "5", "--cache", str(cache)],
        capture_output=True, text=True, env=_src_env(),
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"cannot write registry cache {cache}: {reason}\n"
    # the temp file written beside the cache is gone
    assert sorted(p.name for p in tmp_path.iterdir()) == ["existing_dir"]
    assert list((tmp_path / "existing_dir").iterdir()) == []


@pytest.mark.parametrize("kind", ["fifo", "symlink"])
def test_cache_refuses_a_target_that_is_not_a_regular_file(tmp_path, kind):
    # the cache replaces only a regular file: a FIFO, or a symlink to a
    # cache of a smaller N, stays as it is and no temp file is left
    cache = tmp_path / kind
    smaller = tmp_path / "reg3.json"
    proc = subprocess.run(
        [sys.executable, "-m", "latticecubes.cli", "count", "--n", "3", "--cache", str(smaller)],
        capture_output=True, text=True, env=_src_env(),
    )
    assert proc.returncode == 0
    saved = smaller.read_text()
    if kind == "fifo":
        os.mkfifo(cache)
    else:
        cache.symlink_to(smaller)
    proc = subprocess.run(
        [sys.executable, "-m", "latticecubes.cli", "count", "--n", "5", "--cache", str(cache)],
        capture_output=True, text=True, env=_src_env(), timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"cannot write registry cache {cache}: exists and is not a regular file\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([kind, "reg3.json"])
    mode = os.lstat(cache).st_mode
    assert stat.S_ISFIFO(mode) if kind == "fifo" else stat.S_ISLNK(mode)
    assert smaller.read_text() == saved


def test_tampered_cache_is_rebuilt(tmp_path, capsys):
    cache = tmp_path / "reg.json"
    rc, out, _ = run(capsys, "count", "--n", "20", "--cache", str(cache))
    assert rc == 0 and out == "102550\n"
    doc = json.loads(cache.read_text())
    side7 = doc["sources"].pop(3)  # the side-7 record; trusted, the count would be short
    cache.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "count", "--n", "20", "--cache", str(cache))
    assert rc == 0
    assert out == "102550\n"
    assert (
        f"rejected registry cache {cache}: cached source {doc['sources'][3]} at position 3"
        f" is not the census's {side7} for N = 20\n"
    ) in err
    assert "saved registry cache" in err
    rc, out, err = run(capsys, "count", "--n", "20", "--cache", str(cache))
    assert out == "102550\n" and "loaded registry cache (N=20)" in err


def test_cache_with_a_swapped_representative_is_rebuilt(tmp_path, capsys):
    # the side-9 source swapped for another k = 1 diagonal of its orbit: the
    # counts stay, but trusted, list would print another cube for the orbit
    cache = tmp_path / "reg.json"
    rc, uncached, _ = run(capsys, "list", "--n", "41", "--format", "json")
    assert rc == 0 and [r["cube"][0] for r in json.loads(uncached) if r["side"] == 9] == [[0, 5, 5]]
    run(capsys, "count", "--n", "41", "--cache", str(cache))
    doc = json.loads(cache.read_text())
    doc["sources"][doc["sources"].index([1, 11, 11, 9, 0, 1])] = [5, 7, 13, 9, 0, 1]
    cache.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "list", "--n", "41", "--format", "json", "--cache", str(cache))
    assert rc == 0 and out == uncached
    assert f"rejected registry cache {cache}: cached source [5, 7, 13, 9, 0, 1]" in err
    assert "saved registry cache" in err


@pytest.mark.parametrize(
    "outcome, message",
    [
        ("missing", "saved registry cache to"),
        ("loaded", "loaded registry cache (N=20)\n"),
        ("smaller", "saved registry cache to"),
        ("rejected", ": cached source [1, 1, 5, 3, 0, 1] at position 0 is not the census's [1, 1, 1, 1, 0, 1]"),
        ("malformed", ": malformed document"),
    ],
)
def test_a_cached_request_builds_one_census(tmp_path, capsys, monkeypatch, outcome, message):
    # whatever the cache holds, the request builds its census once and
    # checks the file against it; a rejected file costs no second census
    cache = tmp_path / "reg.json"
    if outcome != "missing":
        run(capsys, "count", "--n", "15" if outcome == "smaller" else "20", "--cache", str(cache))
        doc = json.loads(cache.read_text())
        if outcome == "rejected":
            doc["sources"][:2] = doc["sources"][1::-1]  # sides 1 and 3 swapped
        elif outcome == "malformed":
            doc["N"] = "20"
        cache.write_text(json.dumps(doc))
    built = []
    build = census.build_irreducible_list
    for module in (census, cli):
        monkeypatch.setattr(module, "build_irreducible_list", lambda n: built.append(n) or build(n))
    rc, out, err = run(capsys, "count", "--n", "20", "--cache", str(cache))
    assert (rc, out, built) == (0, "102550\n", [20])
    assert message in err


def _src_env():
    src = str(Path(latticecubes.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


_NO_SYMPY = """
import contextlib, io, json, sys
sys.modules["sympy"] = None  # any import of sympy now fails
from latticecubes.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = main(["count", "--n", "15"])
assert (rc, out.getvalue()) == (0, "27190\\n"), (rc, out.getvalue())
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = main(["representations", "2011", "--format", "json"])
data = json.loads(out.getvalue())
assert rc == 0 and data["formula"] == data["enumerated"] == 336, (rc, data["formula"])
"""


def test_runtime_needs_no_sympy():
    proc = subprocess.run(
        [sys.executable, "-c", _NO_SYMPY], capture_output=True, text=True, env=_src_env(), timeout=300
    )
    assert proc.returncode == 0, proc.stderr


_HEAVY_STDLIB = ("dataclasses", "multiprocessing", "fractions", "decimal")


def test_import_loads_no_heavy_stdlib_module():
    # every CLI call is a fresh process, so the import is part of its start-up time
    code = f"import sys, latticecubes.cli; print([m for m in {_HEAVY_STDLIB!r} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(), timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_a_threaded_census_starts_no_process_pool():
    # threads= is accepted and ignored: the census is one serial pass
    code = (
        "import sys; from latticecubes.census import build_irreducible_list; "
        "build_irreducible_list(19, threads=2); print('multiprocessing' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=_src_env(), timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_import_loads_no_pathlib():
    # -S: site may import pathlib itself (a .pth file can), which would hide
    # an import by the package
    code = "import sys, latticecubes.cli; print('pathlib' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=_src_env(), timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_import_loads_no_json():
    # json is imported by the commands that read or write JSON, so a
    # b-file or table run does not pay for it at start-up
    code = "import sys, latticecubes.cli; print('json' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=_src_env(), timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_sequence_under_python_O():
    # the pipeline's data guards are explicit raises, so -O (which strips
    # asserts) must leave the census running and its numbers unchanged
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "latticecubes.cli", "sequence", "--n", "30", "--format", "json"],
        capture_output=True,
        text=True,
        env=_src_env(),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == COUNTS_LISTED[:30]
