"""The brute-force frame-enumeration referee."""

from itertools import permutations, product
from math import gcd

import pytest

from latticecubes.diophantine import dedekind_psi
from latticecubes.lattice_geometry import Cube, Vec3
from latticecubes.oracle import brute_force_count, brute_force_sequence, enumerate_frames
from latticecubes.symmetry import invariants

from .published_data import ORACLE_FROZEN, TABLE1
from .referee import ball_vectors, brute_force_orbit_fill, cross, dot, norm2

UNIT = Cube.from_points(TABLE1[0][2])
ROW3 = Cube.from_points(TABLE1[1][2])
ROW5 = Cube.from_points(TABLE1[2][2])


def test_vectors_of_norm():
    # the referee's vector lists, against a scan of the cube |x|, |y|, |z| <= 14
    # bucketed by norm: the whole ball of each n2 <= 196, once each
    assert len(ball_vectors(1)) == 6
    assert len(ball_vectors(2)) == 12
    assert len(ball_vectors(9)) == 30  # 6 axial + 24 of type (1,2,2)
    by_norm = {n2: [] for n2 in range(197)}
    for v in product(range(-14, 15), repeat=3):
        n2 = v[0] * v[0] + v[1] * v[1] + v[2] * v[2]
        if n2 <= 196:
            by_norm[n2].append(v)
    for n2, vs in by_norm.items():
        got = ball_vectors(n2)
        assert all(type(v) is Vec3 for v in got), n2
        assert sorted(got) == sorted(vs) and len(set(got)) == len(got), n2


def test_primitive_classes_number_dedekind_psi():
    # the census checks each side's claimed classes against psi(s); here the
    # oracle's one-frame-per-class listing referees that count
    for s in range(1, 101):
        primitive = [f for f in enumerate_frames(s) if gcd(*(abs(t) for e in f for t in e)) == 1]
        assert len(primitive) == (dedekind_psi(s) if s % 2 else 0), s


def _signed_orderings(frame):
    """The 48 ordered frames of one cube class: 6 edge orders, 8 sign choices."""
    return [
        tuple(e if sign > 0 else -e for e, sign in zip(order, signs))
        for order in permutations(frame)
        for signs in product((1, -1), repeat=3)
    ]


def test_enumerate_frames_small():
    assert [len(enumerate_frames(s)) for s in (1, 2, 3)] == [1, 1, 5]
    assert enumerate_frames(1) == [(Vec3(0, 0, 1), Vec3(0, 1, 0), Vec3(1, 0, 0))]
    for s in range(1, 41):
        for e1, e2, e3 in enumerate_frames(s):
            # sign-normalized: the first non-zero coordinate is positive
            assert all(next(c for c in e if c) > 0 for e in (e1, e2, e3)), (s, e1, e2, e3)
            assert e1 < e2 < e3, s
            assert norm2(e1) == norm2(e2) == norm2(e3) == s * s
            assert dot(e1, e2) == dot(e2, e3) == dot(e1, e3) == 0
            cr = cross(e1, e2)
            assert e3.scale(s) in (cr, -cr), s


def test_enumerate_frames_group_action():
    # the 48 signed permutations act freely on the frames of one class
    for s in range(1, 41):
        for frame in enumerate_frames(s):
            assert len(set(_signed_orderings(frame))) == 48, (s, frame)


def _frames_by_vec3(s):
    """All ordered frames written with Vec3.dot and cross, as a referee."""
    vs = ball_vectors(s * s)
    frames = []
    for e1 in vs:
        for e2 in vs:
            if dot(e1, e2) != 0:
                continue
            cr = cross(e1, e2)
            if cr.x % s or cr.y % s or cr.z % s:
                continue
            e3 = Vec3(cr.x // s, cr.y // s, cr.z // s)
            frames.append((e1, e2, e3))
            frames.append((e1, e2, -e3))
    return frames


def test_enumerate_frames_matches_vec3_referee():
    # the signed orderings of the class frames are every ordered frame, once
    for s in range(1, 41):
        frames = enumerate_frames(s)
        assert all(type(e) is Vec3 for frame in frames for e in frame), s
        ordered = [f for frame in frames for f in _signed_orderings(frame)]
        want = _frames_by_vec3(s)
        assert len(ordered) == len(want) == len(set(want)), s
        assert set(ordered) == set(want), s


def test_enumerate_frames_rejects():
    with pytest.raises(ValueError):
        enumerate_frames(0)


def test_brute_force_count_frozen_values():
    for n in range(1, 13):
        assert brute_force_count(n) == ORACLE_FROZEN[n], n


def test_brute_force_count_rejects():
    with pytest.raises(ValueError):
        brute_force_count(0)


def test_brute_force_sequence_matches_per_n_counts():
    for N in range(1, 13):
        assert brute_force_sequence(N) == [brute_force_count(n) for n in range(1, N + 1)], N


def test_brute_force_sequence_frozen_values():
    assert brute_force_sequence(18) == [ORACLE_FROZEN[n] for n in range(1, 19)]


@pytest.mark.parametrize("N", [0, -3])
def test_brute_force_sequence_rejects(N):
    with pytest.raises(ValueError):
        brute_force_sequence(N)


def test_orbit_fill_exact_box():
    assert brute_force_orbit_fill(UNIT, 1) == 1
    assert brute_force_orbit_fill(UNIT, 3) == 27
    assert brute_force_orbit_fill(ROW3, 5) == 4
    assert brute_force_orbit_fill(ROW5, 7) == 18


def test_orbit_fill_with_slack():
    # one slack step: (t+1)^3 a - 3 t (t+1)^2 b + 3 (t+1) t^2 g at t = 1
    inv = invariants(ROW5.corner_edges())
    expect = 8 * inv.alpha - 12 * inv.beta + 6 * inv.gamma
    assert brute_force_orbit_fill(ROW5, 8) == expect
    assert brute_force_orbit_fill(UNIT, 2) == 8


def test_orbit_fill_undersized_box():
    assert brute_force_orbit_fill(ROW5, 6) == 0
