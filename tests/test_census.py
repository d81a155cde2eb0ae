"""Census: record generation, dedup, placement counting; the CLI's registry cache against it."""

import ast
import json
import re
from itertools import zip_longest
from math import gcd, isqrt
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticecubes import census
from latticecubes.census import (
    CubeRecord,
    CubeRegistry,
    _accept,
    _accept_side,
    _build_one,
    _candidate_stream,
    _side_candidates,
    build_irreducible_list,
    box_sums,
    build_multiples,
    count_cubes,
    placement_count,
    record_to_json,
    sequence,
    sequence_from_boxes,
)
from latticecubes.cli import CacheMismatch, _sources, load_registry, save_registry
from latticecubes.diophantine import (
    NormFormSolution,
    PlaneSolution,
    dedekind_psi,
    k_values,
    solve_norm_form,
    solve_three_squares,
)
from latticecubes.lattice_geometry import Cube, Frame, Vec3, build_cube
from latticecubes.reference import COUNTS_LISTED
from latticecubes.symmetry import InvariantSet, class_key, invariants, orbit_classes

from . import referee
from .published_data import EXTRA_SIDE19, T9_PRINTED_ROW1, T_MATRICES, TABLE1
from .referee import (
    bounding_dim,
    canonical_form,
    count_from_boxes,
    diagonal_k_values,
    quaternion_classes,
    table_invariants,
    vertex_invariants,
)

UNIT = Cube.from_points(TABLE1[0][2])
# the first cube without k-value 1 (test_first_cube_without_k_value_1)
FRAME_53599 = Frame.of(
    Vec3(16699, 50490, -6690), Vec3(-47790, 13099, -20430), Vec3(-17610, 12330, 49099)
)


def test_smallest_registry():
    reg = build_irreducible_list(1)
    assert reg.n_built == 1
    assert len(reg.records) == 1
    rec = reg.records[0]
    assert (rec.side, rec.bound_dim) == (1, 1)
    assert rec.cube == UNIT
    assert rec.k_values == frozenset({1})
    assert rec.invariants == InvariantSet(1, 1, 0, 0)


def test_registry_19_contains_every_published_row(registry19):
    index = {(r.side, r.bound_dim): r for r in registry19.records}
    assert len(index) == len(registry19.records)  # (side, bound) is unique here
    for side, bound, verts, kv, inv in TABLE1:
        rec = index[(side, bound)]
        assert rec.k_values == frozenset(kv)
        assert rec.invariants == InvariantSet(*inv)
        assert canonical_form(rec.cube) == canonical_form(Cube.from_points(verts))


def test_registry_19_has_the_thirteenth_record(registry19):
    # the published table stops at twelve rows, but a second side-19 cube
    # (bounding box 29) exists and the published counts require it; the
    # published matrix family also contains its orientation matrix
    side, bound, inv = EXTRA_SIDE19
    extras = [
        r
        for r in registry19.records
        if (r.side, r.bound_dim) not in {(s, b) for s, b, *_ in TABLE1}
    ]
    assert len(extras) == 1
    rec = extras[0]
    assert (rec.side, rec.bound_dim) == (side, bound)
    assert rec.invariants == InvariantSet(*inv)
    assert rec.k_values == frozenset({1})
    assert len(registry19.records) == 13


def test_both_side_13_records_present(registry19):
    recs = [r for r in registry19.records if r.side == 13]
    assert sorted(r.bound_dim for r in recs) == [17, 19]


def _line_set(vectors):
    # unsigned direction set; flip each vector so its first nonzero entry is positive
    out = set()
    for v in vectors:
        lead = next((c for c in v if c), 0)
        out.add(tuple(v) if lead >= 0 else tuple(-x for x in v))
    return frozenset(out)


def test_published_matrices_match_the_census_cubes(registry19):
    # the published orientation matrices are only fixed up to the box group,
    # so compare edge-direction line sets under all 48 signed permutations
    from itertools import permutations, product

    index = {(r.side, r.bound_dim): r for r in registry19.records}
    for (side, bound), rows in T_MATRICES.items():
        for row in rows:
            assert sum(c * c for c in row) == side * side
        cols = [tuple(rows[i][j] for i in range(3)) for j in range(3)]
        edges = _line_set(index[(side, bound)].cube.corner_edges())
        assert any(
            _line_set(tuple(s * v[p] for s, p in zip(signs, perm)) for v in cols)
            == edges
            for perm in permutations(range(3))
            for signs in product((1, -1), repeat=3)
        ), f"no signed permutation maps the published matrix onto the cube {side, bound}"


def test_printed_side9_matrix_row_is_a_typo():
    assert sum(c * c for c in T9_PRINTED_ROW1) != 81
    assert sum(c * c for c in T_MATRICES[(9, 15)][0]) == 81


def test_no_duplicate_orbits(registry19):
    forms = {canonical_form(r.cube).vertices for r in registry19.records}
    assert len(forms) == len(registry19.records)


def _accept_sides(*sides, N=19):
    """A registry after the accept pass of `sides` alone, in turn; its
    claims are those of the last side."""
    reg = CubeRegistry(n_built=N)
    norm_forms = {k: solve_norm_form(k) for k in k_values(N)}
    for side in sides:
        _accept_side(reg, side, _side_candidates(side, norm_forms))
    return reg


def test_each_side_alone_gives_the_census_records():
    # the registry is a concatenation of per-side passes: the accept pass
    # of one side alone yields the census's records of that side
    reg = build_irreducible_list(201)
    for side in range(1, 202, 2):
        alone = _accept_sides(side, N=201)
        assert alone.records == [r for r in reg.records if r.side == side], side
        assert alone.classes == {side: dedekind_psi(side)}


def test_claim_membership_trick(registry19):
    from latticecubes.census import _unit_diagonals
    from latticecubes.symmetry import class_key, orbit_classes

    from .referee import apply_box_map, symmetry_orbit

    rec = next(r for r in registry19.records if r.side == 5)
    reg = _accept_sides(5)
    # claiming indexes the record's k = 1 diagonal keys and counts the
    # classes of its orbit at its side
    keys = set(_unit_diagonals(rec.frame))
    assert reg.records == [rec]
    assert keys and keys <= reg.claimed
    assert reg.classes == {5: registry19.classes[5]}
    assert registry19.classes[5] == len(orbit_classes(rec.frame)) == dedekind_psi(5)
    # the octant form of every image of a claimed orbit tests as claimed,
    # through the same diagonal keys
    for img in symmetry_orbit(rec.cube):
        img_keys = set(_unit_diagonals(img.translate_to_octant().corner_edges()))
        assert img_keys == keys
        assert all(reg.is_claimed(key) for key in img_keys)
    # a box image, octant-normalized, is one of the claimed classes
    img = apply_box_map(rec.cube, rec.bound_dim, (2, 0, 1), (True, False, True))
    assert class_key(img.translate_to_octant().corner_edges()) in orbit_classes(rec.cube.corner_edges())
    assert reg.is_claimed(_unit_diagonals(img.translate_to_octant().corner_edges())[0])
    # a claim holds at its own side only: side 7 starts with none of them
    reg = _accept_sides(5, 7)
    assert reg.classes == {5: dedekind_psi(5), 7: dedekind_psi(7)}
    assert reg.claimed and not any(reg.is_claimed(key) for key in keys)
    # the census ends holding the claims of its last side alone
    assert registry19.claimed == _accept_sides(19).claimed
    # a reducible cube of the same side was never claimed: it has no k = 1
    # diagonal, and its class key is not among the side's keys
    reducible = UNIT.corner_edges().scale(13)
    assert list(_unit_diagonals(reducible)) == []
    assert not _accept_sides(13).is_claimed(class_key(reducible))


def test_diagonal_claims_match_class_key_claims(monkeypatch):
    # the rule the key index replaced: a candidate is claimed iff the class
    # key of its cube is among the orbit classes of the records claimed at
    # its side; both are asked at each point of the accept pass at N = 200,
    # the old rule on a frame this test builds from the current candidate
    from .referee import _orbit_table

    by_side = {}
    answers = []
    current = []
    is_claimed, claim = CubeRegistry.is_claimed, CubeRegistry.claim
    stream = census._candidate_stream

    def tracked_stream(N):
        for item in stream(N):
            current[:] = [item]
            yield item

    def checked_is_claimed(reg, key):
        got = is_claimed(reg, key)
        k, mn, d, sol = current[0]
        frame = build_cube(sol, mn)
        side = d * k
        assert got == (class_key(frame) in by_side.get(side, ())), (side, frame)
        answers.append(got)
        return got

    def indexed_claim(reg, record):
        claim(reg, record)
        by_side.setdefault(record.side, set()).update(_orbit_table(class_key(record.frame))[0])

    monkeypatch.setattr(census, "_candidate_stream", tracked_stream)
    monkeypatch.setattr(CubeRegistry, "is_claimed", checked_is_claimed)
    monkeypatch.setattr(CubeRegistry, "claim", indexed_claim)
    reg = build_irreducible_list(200)
    k1_rejections = sum(
        1 for k, mn, d, sol in _candidate_stream(200) if k != 1 and 1 in build_cube(sol, mn).k_values()
    )
    assert len(answers) == sum(1 for _ in _candidate_stream(200)) - k1_rejections
    assert answers.count(False) == len(reg.records) == 576
    assert answers.count(True) > 0
    assert {s: len(keys) for s, keys in by_side.items()} == reg.classes


def test_claiming_an_orbit_twice_raises(registry19):
    from .referee import apply_box_map

    reg = CubeRegistry(n_built=19)
    for rec in registry19.records:
        reg.claim(rec)
    rec = next(r for r in registry19.records if r.side == 13)
    with pytest.raises(ArithmeticError, match="side 13: the orbit of frame .* is claimed twice"):
        reg.claim(rec)
    # another frame of the same orbit is the same claim
    img = apply_box_map(rec.cube, rec.bound_dim, (1, 2, 0), (False, True, True)).translate_to_octant()
    with pytest.raises(ArithmeticError, match="side 13:"):
        reg.claim(rec._replace(frame=img.corner_edges()))
    assert reg.records == registry19.records


def test_cube_without_k_value_1_claims_by_class_keys():
    # the first such cube has no k = 1 diagonal key: it is claimed and
    # found through the class keys of its orbit
    from latticecubes.census import _unit_diagonals

    from .referee import BOX_MAPS

    frame = FRAME_53599
    rec = CubeRecord(
        side=53599,
        bound_dim=max(frame.extents()),
        frame=frame,
        invariants=invariants(frame),
        source=None,  # not built from a candidate here; claims do not read it
    )
    reg = CubeRegistry(n_built=53599)
    assert not reg.is_claimed(class_key(frame))
    reg.claim(rec)
    images = [
        Frame(*(Vec3(*(-e[p] if f else e[p] for p, f in zip(perm, flips))) for e in frame))
        for perm, flips in BOX_MAPS
    ]
    assert len({class_key(img) for img in images}) == len(orbit_classes(frame)) == 24
    for img in images:
        assert list(_unit_diagonals(img)) == []
        assert reg.is_claimed(class_key(img))
    assert reg.claimed == orbit_classes(frame)
    assert reg.classes == {53599: len(orbit_classes(frame))}
    with pytest.raises(ArithmeticError, match="side 53599:"):
        reg.claim(rec)


def test_accept_guards_are_raises(monkeypatch):
    # a pipeline cube failing a guard stops the census, with or without -O:
    # side 3 built as the unit cube dilated by 3 (the right side, but
    # reducible), and side 5 built as a cube of side 3
    build = census._build_one
    unit = build((1, NormFormSolution(0, 1), 1, PlaneSolution(1, 1, 1, 1)))
    side3 = build((1, NormFormSolution(0, 1), 3, solve_three_squares(3)[0]))
    monkeypatch.setattr(census, "_build_one", lambda item: unit.scale(3) if item[0] * item[2] == 3 else build(item))
    with pytest.raises(ArithmeticError, match=r"pipeline cube with frame .* is reducible"):
        build_irreducible_list(3)
    monkeypatch.setattr(census, "_build_one", lambda item: side3 if item[0] * item[2] == 5 else build(item))
    with pytest.raises(ArithmeticError, match=r"pipeline cube side 3 != d\*k = 5"):
        build_irreducible_list(5)


def test_census_checks_each_side_against_psi(monkeypatch):
    # one class count off at side 19 stops the census, naming the side
    monkeypatch.setattr(census, "dedekind_psi", lambda s: dedekind_psi(s) + (s == 19))
    with pytest.raises(ArithmeticError, match="side 19: 20 translation classes claimed, expected 21"):
        build_irreducible_list(19)


def test_a_short_side_stops_the_census_before_the_next_side(monkeypatch):
    # side 5 expects a class more than its one record claims: the census
    # raises at the end of side 5, and no candidate of side 7 or above is
    # ever built
    build = census._build_one
    built = []

    def counted_build(item):
        built.append(item[0] * item[2])
        return build(item)

    monkeypatch.setattr(census, "dedekind_psi", lambda s: dedekind_psi(s) + (s == 5))
    monkeypatch.setattr(census, "_build_one", counted_build)
    with pytest.raises(ArithmeticError, match="side 5: 6 translation classes claimed, expected 7"):
        build_irreducible_list(19)
    assert built == [1, 3, 5]


def _slack_volume(frame, bound_dim):
    """(1 + r0)(1 + r1)(1 + r2) for the slack r = bound_dim - extents."""
    r0, r1, r2 = (bound_dim - w for w in frame.extents())
    return (1 + r0) * (1 + r1) * (1 + r2)


def test_a_claim_reads_its_orbit_size_from_alpha(monkeypatch, registry19):
    # the orbit size is alpha / ((1 + r0)(1 + r1)(1 + r2)): an alpha one class
    # too large claims one class more, so side 5 fails its psi check, and an
    # alpha that is no whole number of classes stops the claim before it
    # changes the registry
    rec = next(r for r in registry19.records if r.side == 5)
    one_class = _slack_volume(rec.frame, rec.bound_dim)
    assert one_class > 1 and rec.invariants.alpha == one_class * len(orbit_classes(rec.frame))
    reg = CubeRegistry(n_built=5)
    with pytest.raises(ArithmeticError, match="side 5: alpha 19 of frame .* is no whole orbit size"):
        reg.claim(rec._replace(invariants=rec.invariants._replace(alpha=rec.invariants.alpha + 1)))
    assert (reg.records, reg.claimed, reg.classes) == ([], set(), {})
    reg.claim(rec._replace(invariants=rec.invariants._replace(alpha=rec.invariants.alpha + one_class)))
    assert reg.classes == {5: len(orbit_classes(rec.frame)) + 1}

    def one_class_more(frame):
        inv = invariants(frame)
        return inv._replace(alpha=inv.alpha + _slack_volume(frame, max(frame.extents()))) if frame.side == 5 else inv

    monkeypatch.setattr(census, "invariants", one_class_more)
    with pytest.raises(ArithmeticError, match="side 5: 7 translation classes claimed, expected 6"):
        build_irreducible_list(19)


def test_orbit_size_identity_on_every_record_and_dilate():
    # alpha / ((1 + r0)(1 + r1)(1 + r2)) is exactly the kernel's orbit size on
    # every record and dilate to N = 400 and on the first cube without k-value
    # 1, and build_multiples' invariants equal the 24-image table's for j <= 3
    reg = build_irreducible_list(400)
    multiples = build_multiples(400, reg)
    assert len(reg.records) + len(multiples) == 3423
    rows = [(r.frame, r.bound_dim, r.invariants) for r in reg.records + multiples]
    rows.append((FRAME_53599, max(FRAME_53599.extents()), invariants(FRAME_53599)))
    for frame, bound_dim, inv in rows:
        size, rest = divmod(inv.alpha, _slack_volume(frame, bound_dim))
        assert rest == 0 and size == len(orbit_classes(frame)), frame
    parents = {r.source: r for r in reg.records}
    checked = 0
    for m in multiples:
        parent = parents[m.source]
        j = m.side // parent.side
        if j <= 3:
            assert (len(orbit_classes(parent.frame)), m.invariants) == table_invariants(parent.frame, j), (parent.frame, j)
            checked += 1
    assert checked == 377


def test_placement_count():
    inv = InvariantSet(1, 1, 0, 0)
    assert placement_count(1, 1, inv) == 1
    assert placement_count(4, 1, inv) == 64  # unit cubes in {0..4}^3
    assert placement_count(5, 1, inv) == 125
    inv5 = InvariantSet(12, 18, 4, 0)
    assert placement_count(7, 7, inv5) == 18  # t = 0 collapses to alpha
    with pytest.raises(ValueError):
        placement_count(3, 5, inv)


def test_build_multiples_small():
    reg = build_irreducible_list(2)
    mult = build_multiples(2, reg)
    assert len(mult) == 1
    rec = mult[0]
    assert (rec.side, rec.bound_dim) == (2, 2)
    assert rec.cube == UNIT.corner_edges().scale(2).cube()
    assert rec.k_values == frozenset({2})
    assert rec.invariants == InvariantSet(1, 1, 0, 0)


def test_build_multiples_thresholds(registry19):
    # the side-3 cube (bound 5) first dilates into a grid of size 10
    src3 = next(r for r in registry19.records if r.side == 3).source
    assert [r for r in build_multiples(9, registry19) if r.source == src3] == []
    dils = [r for r in build_multiples(10, registry19) if r.source == src3]
    assert len(dils) == 1
    assert (dils[0].side, dils[0].bound_dim) == (6, 10)


def test_dilated_invariants_are_recomputed(registry19):
    rec5 = next(r for r in registry19.records if r.side == 5)
    assert rec5.invariants == InvariantSet(12, 18, 4, 0)
    dil = next(
        r
        for r in build_multiples(14, registry19)
        if r.side == 10 and r.bound_dim == 14
    )
    assert dil.invariants == InvariantSet(12, 30, 8, 0)
    assert dil.k_values == frozenset({2})


def test_multiples_match_their_own_frames():
    # a multiple's k-values and invariants are derived from its parent's;
    # recompute them from the dilated cube itself, by frame and by vertices
    reg = build_irreducible_list(200)
    multiples = build_multiples(200, reg)
    assert max(m.side // next(r for r in reg.records if r.source == m.source).side for m in multiples) >= 20
    for m in multiples:
        frame = m.cube.corner_edges()
        assert m.k_values == frame.k_values() == diagonal_k_values(m.cube), m.cube.as_lists()
        assert m.invariants == invariants(frame) == vertex_invariants(m.cube), m.cube.as_lists()


def test_sequence_small():
    assert sequence(5) == [1, 9, 36, 100, 229]


def test_sequence_published_values(registry19):
    vals = sequence(16, registry=registry19)
    assert vals == COUNTS_LISTED[:16]
    assert vals[9] == 4469
    assert vals[13] == 19907


def test_sequence_monotone(registry19):
    vals = sequence(19, registry=registry19)
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_sequence_prefix_stability(registry19):
    assert sequence(12) == sequence(19, registry=registry19)[:12]


def test_sequence_validation(registry19):
    with pytest.raises(ValueError):
        sequence(0)
    with pytest.raises(ValueError):
        sequence(25, registry=registry19)


def test_acceptance_is_schedule_independent(registry19):
    # replay the candidate stream in reverse through the accept pass, its
    # per-side check included; the set of claimed orbits (and hence the
    # counts) must not depend on processing order
    reg = _accept(19, reversed(list(_candidate_stream(19))))
    assert len(reg.records) == len(registry19.records)
    assert reg.classes == registry19.classes
    assert all(r.bound_dim == bounding_dim(r.cube) for r in reg.records)
    key = lambda r: (r.side, canonical_form(r.cube).vertices)
    assert sorted(map(key, reg.records)) == sorted(map(key, registry19.records))


def test_threads_give_identical_records(registry19):
    reg2 = build_irreducible_list(19, threads=2)
    assert reg2.records == registry19.records


def test_k1_pass_reaches_everything(registry50):
    # mod an odd prime p | side a primitive frame is x y^T with y isotropic,
    # so p divides at most one of the four diagonal gcds (the k-values); a
    # cube without k-value 1 needs four distinct primes = 1 mod 3 in its
    # side, so below 53599 every side is full after its k = 1 candidates
    for rec in registry50.records:
        assert 1 in rec.k_values


def test_plane_solution_is_a_unit_diagonal_key_of_its_cube():
    # the accept pass decides a k = 1 candidate by its plane solution before
    # building it: (a, b, c) must be a k = 1 diagonal key of the cube it builds
    from latticecubes.census import _unit_diagonals

    checked = 0
    for d in range(1, 602, 2):
        for sol in solve_three_squares(d):
            keys = set(_unit_diagonals(_build_one((1, NormFormSolution(0, 1), d, sol))))
            assert (sol.a, sol.b, sol.c) in keys, sol
            checked += 1
    assert checked > 10000


@pytest.mark.parametrize("threads", [1, 2])
def test_census_builds_only_records(monkeypatch, threads):
    # a k = 1 duplicate is never built, and every side is full (psi(s)
    # classes) after its k = 1 candidates, so no k > 1 candidate is built:
    # at N = 400 the frames built are the 2171 records, one each, whatever
    # the thread count
    build = census._build_one
    calls = []

    def counted_build(item):
        calls.append(item[0])
        return build(item)

    monkeypatch.setattr(census, "_build_one", counted_build)
    reg = build_irreducible_list(400, threads=threads)
    assert len(calls) == len(reg.records) == 2171
    assert set(calls) == {1}


def test_a_short_side_builds_its_k_above_1_candidates(monkeypatch):
    # side 7 expects one class more than its k = 1 records claim: the side
    # stays short, so its one k > 1 candidate is built (and dropped by the
    # k = 1 guard) before the side's check raises; at the true psi(7) = 8
    # the side is full and that candidate is passed over unbuilt
    build = census._build_one
    built = []

    def counted_build(item):
        built.append(item)
        return build(item)

    monkeypatch.setattr(census, "_build_one", counted_build)
    assert build_irreducible_list(7).classes[7] == dedekind_psi(7) == 8
    assert [item for item in built if item[0] != 1] == []
    built.clear()
    monkeypatch.setattr(census, "dedekind_psi", lambda s: dedekind_psi(s) + (s == 7))
    with pytest.raises(ArithmeticError, match="side 7: 8 translation classes claimed, expected 9"):
        build_irreducible_list(7)
    # the (3, 8) triangle's cube has k-value 1, so its mirror (5, 8) is built too
    assert [(k, mn, d) for k, mn, d, _ in built if k != 1] == [(7, (3, 8), 1), (7, (5, 8), 1)]


S63973 = 7 * 13 * 19 * 37


@pytest.fixture(scope="module")
def side63973():
    """The accept pass of side 63973 alone, with the k of its side only."""
    reg = CubeRegistry(n_built=S63973)
    norm_forms = {k: solve_norm_form(k) for k in k_values(S63973) if S63973 % k == 0}
    _accept_side(reg, S63973, _side_candidates(S63973, norm_forms))
    return reg


def test_side_63973_closes_at_psi_with_mirror_triangles(side63973):
    # four distinct primes = 1 mod 3: 16 records without k-value 1, and
    # without the mirror (n - m, n) of each k > 1 triangle the side falls
    # 72 classes short of psi
    reg = side63973
    assert reg.classes == {S63973: dedekind_psi(S63973)} == {S63973: 85120}
    rare = [r for r in reg.records if 1 not in r.k_values]
    assert len(rare) == 16
    assert {r.source[1] for r in rare} == {(3, 8), (5, 8)}  # k = 7 and its mirror


def _candidate(a, b, c, d, m, n):
    """The candidate (k, mn, d, sol) a printed source [a, b, c, d, m, n]
    stands for, k = isqrt(m^2 - mn + n^2)."""
    return isqrt(m * m - m * n + n * n), NormFormSolution(m, n), d, PlaneSolution(a, b, c, d)


def test_side_63973_sources_replay_to_the_same_records(side63973):
    # each record's source, mirror triangles included, rebuilds that record
    # through the same accept pass
    items = [_candidate(*sol, *mn) for sol, mn in (r.source for r in side63973.records)]
    reg = CubeRegistry(n_built=S63973)
    _accept_side(reg, S63973, items)
    assert reg.records == side63973.records
    assert reg.classes == side63973.classes


def test_each_side_is_the_euler_rodrigues_classes():
    # the classes the records of each side claim are those of the frames of
    # all primitive quaternions of norm s; the census builds a k = 1 cube from
    # one quaternion per plane solution, but shares no code with the referee
    # (test_the_quaternion_referee_shares_no_census_code)
    reg = build_irreducible_list(301)
    for s in range(1, 302, 2):
        got = set().union(*(orbit_classes(r.frame) for r in reg.records if r.side == s))
        want = quaternion_classes(s)
        assert got == want, f"side {s}: missing {sorted(want - got)}, extra {sorted(got - want)}"
        assert len(want) == dedekind_psi(s), s


def test_the_quaternion_referee_shares_no_census_code():
    # quaternion_classes enumerates its own quaternions and frames: the
    # referee names neither the census's table nor its cube constructor
    tree = ast.parse(Path(referee.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    assert "quaternion_classes" in names
    assert not names & {"plane_quaternions", "build_cube"}


def test_a_k1_candidate_off_its_table_raises_value_error():
    # a candidate is built from its d's quaternion table; a solution that is
    # not in it is a ValueError, not a KeyError
    sol3 = PlaneSolution(1, 1, 5, 3)
    assert _build_one((1, NormFormSolution(0, 1), 3, sol3)).side == 3
    for sol in (PlaneSolution(1, 1, 5, 5), PlaneSolution(1, 1, 1, 3)):
        with pytest.raises(ValueError, match="is not a primitive plane solution of d"):
            _build_one((1, NormFormSolution(0, 1), sol.d, sol))


def test_first_cube_without_k_value_1():
    # the bound above is reached: side 7 * 13 * 19 * 31, one prime per diagonal
    frame = FRAME_53599
    assert frame.side == 53599 == 7 * 13 * 19 * 31
    assert frame.is_primitive()
    assert frame.k_values() == {7, 13, 19, 31}


def test_candidate_stream_order():
    items = list(_candidate_stream(91))
    # side major (odd sides ascending), then k ascending within a side
    sides = [d * k for k, _, d, _ in items]
    assert sides == sorted(sides)
    assert sorted(set(sides)) == list(range(1, 92, 2))
    for side in (7, 13, 91):
        ks = [k for k, _, d, _ in items if d * k == side]
        assert ks == sorted(ks) and ks[0] == 1 and ks[-1] == side
    # within a side, the k-major order: (m, n), then plane solutions
    k_major = [
        (k, mn, d, sol)
        for k in k_values(91)
        for mn in solve_norm_form(k)
        for d in range(1, 91 // k + 1, 2)
        for sol in solve_three_squares(d)
    ]
    assert items == sorted(k_major, key=lambda item: item[0] * item[2])


def test_record_json_roundtrip(registry19):
    # a listed record's source is all the cache keeps of it: the printed
    # sources, through the accept pass, give back the records
    sources = [record_to_json(r)["source"] for r in registry19.records]
    items = [_candidate(*(src[x] for x in "abcdmn")) for src in sources]
    assert _accept(19, items).records == registry19.records


def test_cache_roundtrip(tmp_path, registry19):
    # the file holds N and each record's source in registry order, and
    # loads against the census it was saved from
    p = tmp_path / "reg.json"
    save_registry(registry19, p)
    assert json.loads(p.read_text()) == {"version": 2, "N": 19, "sources": _sources(registry19)}
    assert load_registry(p, registry19) is True
    assert load_registry(p, build_irreducible_list(19)) is True


def test_cache_load_for_a_smaller_n_compares_only_its_sides(tmp_path):
    # a cache built for N = 60 serves any n <= 60: the load compares the
    # census's sources with the file's first ones, those of the sides <= n
    p = tmp_path / "reg.json"
    save_registry(build_irreducible_list(60), p)
    for n in (1, 2, 19, 30, 45, 59, 60):
        assert load_registry(p, build_irreducible_list(n)) is True, n


def test_cache_in_another_source_order_is_rejected(tmp_path, capsys, registry19):
    # a load compares the sources in registry order, so a cache whose
    # sources are shuffled (one written before the census went side by side
    # was k-major) is rejected, and the CLI rebuilds and resaves it
    import random

    from latticecubes.cli import main

    p = tmp_path / "reg.json"
    save_registry(registry19, p)
    doc = json.loads(p.read_text())
    random.Random(19).shuffle(doc["sources"])
    assert [s[3] for s in doc["sources"]] != sorted(s[3] for s in doc["sources"])
    p.write_text(json.dumps(doc))
    with pytest.raises(CacheMismatch, match=r"^cached source \[.*\] at position \d+ is not the census's"):
        load_registry(p, registry19)
    assert main(["list", "--n", "19", "--format", "json"]) == 0
    uncached = capsys.readouterr().out
    assert main(["list", "--n", "19", "--format", "json", "--cache", str(p)]) == 0
    out, err = capsys.readouterr()
    assert out == uncached
    assert f"rejected registry cache {p}: cached source [" in err and "saved registry cache" in err
    assert load_registry(p, registry19) is True


def test_cache_rejects_stale_or_broken(tmp_path, registry19):
    p = tmp_path / "reg.json"
    assert load_registry(p, build_irreducible_list(1)) is False  # missing file
    save_registry(registry19, p)
    assert load_registry(p, build_irreducible_list(25)) is False  # built for smaller N than requested
    doc = json.loads(p.read_text())
    p.write_text(json.dumps(dict(doc, version=999)))
    with pytest.raises(CacheMismatch, match="version 999, expected 2"):
        load_registry(p, registry19)
    for key in ("N", "sources"):
        p.write_text(json.dumps({k: v for k, v in doc.items() if k != key}))
        with pytest.raises(CacheMismatch, match=f"missing key '{key}'"):
            load_registry(p, registry19)
    for bad in ({"N": "19"}, {"N": 0}, {"sources": {}}):
        p.write_text(json.dumps(dict(doc, **bad)))
        with pytest.raises(CacheMismatch, match="malformed document"):
            load_registry(p, registry19)
    p.write_text("[]")
    with pytest.raises(CacheMismatch, match="not a JSON object"):
        load_registry(p, registry19)
    p.write_text("{not json")
    with pytest.raises(CacheMismatch, match="unreadable JSON"):
        load_registry(p, registry19)  # corrupt file


def test_failed_save_keeps_previous_cache(tmp_path, monkeypatch, registry19):
    p = tmp_path / "reg.json"
    save_registry(registry19, p)
    before = p.read_text()
    write_text = Path.write_text

    def crash_mid_write(self, text, *args, **kwargs):
        write_text(self, text[: len(text) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", crash_mid_write)
    with pytest.raises(OSError, match="disk full"):
        save_registry(build_irreducible_list(25), p)
    monkeypatch.undo()
    assert p.read_text() == before
    assert [f.name for f in tmp_path.iterdir()] == ["reg.json"]  # temp file removed
    assert load_registry(p, registry19) is True


def _add_reducible(doc):
    # n = 2 would turn the side-7 source into the side-7 cube dilated by 2
    doc["sources"].append(doc["sources"][3][:5] + [2])


def _unsorted_abc(doc):
    # side 3's source with a and c swapped, which would build a different
    # cube of the same orbit
    doc["sources"][1] = [5, 1, 1, 3, 0, 1]


def _m_n_swapped(doc):
    # side 1's source with (m, n) = (1, 0), which would build the unit cube
    doc["sources"][0] = [1, 1, 1, 1, 1, 0]


def _k1_mirror(doc):
    # side 1's source with the mirror (1, 1) of (0, 1): for k = 1, 0 <= m < n
    # admits only (0, 1)
    doc["sources"][0] = [1, 1, 1, 1, 1, 1]


def _version_1(doc):
    # the previous format: one object per record, its source among the fields
    doc.update(version=1, records=[{"source": dict(zip("abcdmn", s))} for s in doc.pop("sources")])


@pytest.mark.parametrize(
    "tamper, defect",  # defect names the case: what a trusted load would get wrong
    [
        (lambda doc: doc["sources"].pop(3), "side 7: 0 translation classes claimed, expected 8"),
        (lambda doc: doc["sources"].append(list(doc["sources"][3])), "orbit already claimed"),
        (lambda doc: doc["sources"][3].__setitem__(0, 3), "not a solution"),
        (lambda doc: doc["sources"][3].__setitem__(2, 1.5), "1.5 is not an integer"),
        (lambda doc: doc["sources"][3].__setitem__(4, True), "True is not an integer"),
        (lambda doc: doc["sources"].__setitem__(0, [True, True, True, 1.0, False, True]), "true and 1.0 equal 1"),
        (lambda doc: doc["sources"][3].pop(), "is not a list of six integers"),
        (_add_reducible, "m = 0, n = 2 is not"),
        (_unsorted_abc, "0 < a <= b <= c"),
        (_m_n_swapped, "m = 1, n = 0 is not"),
        (_k1_mirror, "m = 1, n = 1 is not"),
        (lambda doc: doc.update(N=21), "side 21: 0 translation classes claimed, expected 32"),
        (_version_1, "version 1, expected 2"),
    ],
)
def test_cache_rejects_tampered_records(tmp_path, registry19, tamper, defect):
    # each tampered file is rejected at its own N, naming its first source
    # that is not the census's; a raised N still serves the sides its
    # sources cover
    p = tmp_path / "reg.json"
    save_registry(registry19, p)
    doc = json.loads(p.read_text())
    tamper(doc)
    p.write_text(json.dumps(doc))
    if "sources" not in doc:  # the previous format
        with pytest.raises(CacheMismatch, match="version 1, expected 2"):
            load_registry(p, registry19)
        return
    n = doc["N"]
    if n > 19:
        assert load_registry(p, registry19) is True
    reg = build_irreducible_list(n)
    # the first source whose JSON differs: 1, true and 1.0 are not the same number
    got, want = doc["sources"], _sources(reg)
    i, cached, census_source = next(
        (i, a, b) for i, (a, b) in enumerate(zip_longest(got, want)) if json.dumps(a) != json.dumps(b)
    )
    message = f"cached source {cached} at position {i} is not the census's {census_source} for N = {n}"
    with pytest.raises(CacheMismatch, match=f"^{re.escape(message)}$"):
        load_registry(p, reg)


def test_cache_keeps_the_census_representative_of_each_orbit(tmp_path, registry50):
    # the census streams a side's plane solutions sorted, so a record with
    # k-value 1 comes from the least of its k = 1 diagonal keys
    from latticecubes.census import _unit_diagonals

    for rec in registry50.records:
        sol, _ = rec.source
        assert (sol.a, sol.b, sol.c) == min(_unit_diagonals(rec.frame)), rec.source
    # (5, 7, 13) is another k = 1 diagonal of the orbit of the side-9 record
    # (1, 11, 11): a cache holding it is not the census's
    p = tmp_path / "reg.json"
    save_registry(build_irreducible_list(41), p)
    doc = json.loads(p.read_text())
    i = doc["sources"].index([1, 11, 11, 9, 0, 1])
    doc["sources"][i] = [5, 7, 13, 9, 0, 1]
    p.write_text(json.dumps(doc))
    with pytest.raises(
        CacheMismatch,
        match=re.escape("cached source [5, 7, 13, 9, 0, 1] at position 4 is not the census's [1, 11, 11, 9, 0, 1]"),
    ):
        load_registry(p, build_irreducible_list(41))


def _huge_source():
    """A genuine primitive solution of a^2 + b^2 + c^2 = 3d^2 with a 25-digit
    d, from the rational sphere through (1, 1, 1), as a cached k = 1 source:
    building its side would leave dedekind_psi trial-dividing it."""
    p, q, r = 10**12 + 39, 7 * 10**11 + 3, 3 * 10**11 + 11
    s, t = p * p + q * q + r * r, p + q + r
    a, b, c = sorted(abs(s - 2 * t * x) for x in (p, q, r))
    g = gcd(a, b, c, s)
    a, b, c, d = a // g, b // g, c // g, s // g
    assert a * a + b * b + c * c == 3 * d * d and len(str(d)) == 25
    return [a, b, c, d, 0, 1]


def test_cache_rejects_a_huge_source_before_building_it(tmp_path, registry19):
    # the appended source is past the census's 13 at the file's own N, so
    # the load compares it with nothing, and no census reaches its side
    src = _huge_source()
    path = tmp_path / "reg.json"
    save_registry(registry19, path)
    doc = json.loads(path.read_text())
    doc["sources"].append(src)
    path.write_text(json.dumps(doc))
    with pytest.raises(CacheMismatch, match=re.escape(f"cached source {src} at position 13 is not the census's None")):
        load_registry(path, registry19)


def test_cache_with_a_huge_n_serves_the_sides_it_covers(tmp_path, registry19):
    # N raised to 10^30 and the huge source appended: a load for n = 19
    # compares only the first 13 sources, those of the census to 19, never
    # the huge one
    path = tmp_path / "reg.json"
    save_registry(registry19, path)
    doc = json.loads(path.read_text())
    doc["N"] = 10**30
    doc["sources"].append(_huge_source())
    path.write_text(json.dumps(doc))
    assert load_registry(path, registry19) is True


def test_census_builds_no_vertices(tmp_path, monkeypatch):
    # a record keeps its frame: the census and a cache save or load never
    # build the 8 vertices, which exist only for output
    def no_vertices(frame):
        raise AssertionError(f"vertices built for {frame}")

    monkeypatch.setattr(Frame, "cube", no_vertices)
    assert sequence(60) == COUNTS_LISTED[:60]
    p = tmp_path / "reg.json"
    reg = build_irreducible_list(60)
    save_registry(reg, p)
    assert load_registry(p, reg) is True


def test_cache_save_is_deterministic(tmp_path, registry19):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    save_registry(registry19, p1)
    save_registry(build_irreducible_list(19), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_count_cubes_filters_by_bound(registry19):
    multiples = build_multiples(19, registry19)
    assert count_cubes(0, registry19, multiples) == 0
    assert count_cubes(1, registry19, multiples) == 1
    assert count_cubes(4, registry19, multiples) == 100


def test_count_cubes_refuses_a_registry_built_for_a_smaller_n(registry19):
    # the records of sides 21..50 are missing from a registry of N = 19, so
    # NC(50) would come out short (7645807, not 8154671): it raises, as
    # sequence does
    assert count_cubes(19, registry19, build_multiples(19, registry19)) == COUNTS_LISTED[18]
    with pytest.raises(ValueError, match="registry was built for a smaller N"):
        count_cubes(50, registry19, build_multiples(50, registry19))
    with pytest.raises(ValueError, match="registry was built for a smaller N"):
        count_cubes(20, registry19, [])


def test_box_sums_count_matches_per_record_sum(registry50):
    # referee: one placement_count per record, as counting used to run
    multiples = build_multiples(50, registry50)
    records = registry50.records + multiples
    want = [
        sum(placement_count(n, r.bound_dim, r.invariants) for r in records if r.bound_dim <= n)
        for n in range(1, 51)
    ]
    assert sequence(50, registry=registry50) == want
    assert [count_cubes(n, registry50, multiples) for n in (1, 17, 50)] == [want[0], want[16], want[49]]
    boxes = box_sums(records)
    assert len(boxes) < len(records)
    assert [count_from_boxes(n, boxes) for n in range(1, 51)] == want


def test_prefix_sums_match_per_box_counts():
    # referee: count_from_boxes, one placement_count per (n, box) pair
    reg = build_irreducible_list(200)
    boxes = box_sums(reg.records + build_multiples(200, reg))
    want = [count_from_boxes(n, boxes) for n in range(1, 201)]
    assert want[:100] == COUNTS_LISTED
    for N in (1, 2, 57, 200):
        assert sequence_from_boxes(N, boxes) == want[:N]


_ABG = st.tuples(*[st.integers(-(10**9), 10**9)] * 3)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 60), st.dictionaries(st.integers(1, 70), _ABG, max_size=25))
def test_prefix_sums_match_per_box_counts_on_drawn_boxes(N, raw):
    boxes = {d: InvariantSet(0, *abg) for d, abg in raw.items()}
    assert sequence_from_boxes(N, boxes) == [count_from_boxes(n, boxes) for n in range(1, N + 1)]


def test_build_one_returns_the_validated_octant_cube():
    item = next(it for it in _candidate_stream(7) if it[0] == 7)
    frame = _build_one(item)
    cube = frame.cube()
    assert cube == Cube.from_points(cube.as_lists())  # already canonical and valid
    assert cube == cube.translate_to_octant()
