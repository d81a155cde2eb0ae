"""Vectors, cube canonicalization, and the triangle-to-cube construction."""

from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticecubes import lattice_geometry
from latticecubes.census import _candidate_stream
from latticecubes.diophantine import (
    NormFormSolution,
    PlaneSolution,
    k_values,
    plane_quaternions,
    solve_norm_form,
    solve_three_squares,
)
from latticecubes.lattice_geometry import ORIGIN, Cube, Frame, Vec3, build_cube
from latticecubes.ring_arith import find_rs
from latticecubes.symmetry import class_key
from . import referee
from .published_data import EXAMPLE_CUBE, TABLE1
from .referee import (
    BOX_MAPS,
    NonIntegralError,
    apply_box_map,
    bounding_dim,
    build_cube_by_steps,
    canonical_form,
    complete_cube,
    cross,
    diagonal_k_values,
    dot,
    fourth_vertex,
    norm2,
    orthogonal_matrix,
    pipeline_zeta_eta,
    triangle_vertices,
    zeta_eta,
)

UNIT = TABLE1[0][2]
ROW3 = TABLE1[1][2]  # the side-3 cube, bound 5


def test_vec3_ops():
    a, b = Vec3(1, 2, 3), Vec3(4, -5, 6)
    assert a + b == Vec3(5, -3, 9)
    assert a - b == Vec3(-3, 7, -3)
    assert -a == Vec3(-1, -2, -3)
    assert a.scale(3) == Vec3(3, 6, 9)
    assert dot(a, b) == 4 - 10 + 18
    assert cross(a, b) == Vec3(27, 6, -13)
    assert dot(cross(a, b), a) == 0
    assert norm2(b) == 16 + 25 + 36


def test_from_points_sorts_and_validates():
    c = Cube.from_points(list(reversed(UNIT)))
    assert c.vertices == tuple(sorted(Vec3(*p) for p in UNIT))
    assert c.corner_edges().side == 1
    for row in TABLE1:
        Cube.from_points(row[2])  # all published rows are genuine cubes


def test_from_points_rejections():
    with pytest.raises(ValueError):
        Cube.from_points(UNIT[:7])
    with pytest.raises(ValueError):
        Cube.from_points(UNIT[:7] + [UNIT[0]])  # duplicate vertex
    cuboid = [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 2)]
    with pytest.raises(ValueError):
        Cube.from_points(cuboid)
    # a coordinate is a plain int, and a point has exactly three
    for last in ([1, 1, 1.5], [1, 1, 1.0], [1, 1, "1"], [1, 1, True], [1, 1, 1, 7], [1, 1], 111):
        with pytest.raises(ValueError, match="not a lattice point"):
            Cube.from_points(UNIT[:7] + [last])


# squared-distance multiset of a cube with side s: 12 edges, 12 face
# diagonals, 4 main diagonals
_SIGNATURE = (12, 12, 4)


def _is_cube_by_distances(points):
    """Referee: the distance-signature check Cube.from_points used to make.
    8 distinct points whose 28 squared distances are 12 x s^2, 12 x 2s^2
    and 4 x 3s^2, with s an integer."""
    vs = sorted(Vec3(*p) for p in points)
    if len(vs) != 8 or len(set(vs)) != 8:
        return False
    dists = Counter(norm2(vs[i] - vs[j]) for i in range(8) for j in range(i + 1, 8))
    s2 = min(dists)
    if (dists[s2], dists[2 * s2], dists[3 * s2]) != _SIGNATURE or len(dists) != 3:
        return False
    return isqrt(s2) ** 2 == s2


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_from_points_agrees_with_distance_signature(registry50, data):
    rec = data.draw(st.sampled_from(registry50.records))
    perm, flips = data.draw(st.sampled_from(BOX_MAPS), label="box map")
    pts = apply_box_map(rec.cube, rec.bound_dim, perm, flips).as_lists()
    if data.draw(st.booleans(), label="move one vertex"):
        i, axis = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 2))
        pts[i][axis] += data.draw(st.sampled_from((1, -1)))
    try:
        Cube.from_points(pts)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == _is_cube_by_distances(pts), pts


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(3, 0, 0), (0, 3, 0), (0, 0, 2)], "differ in length"),
        ([(1, 2, 2), (2, 1, 2), (2, 2, 1)], "not orthogonal"),
        ([(3, 0, 0), (3, 0, 0), (0, 3, 0)], "not orthogonal"),  # e1.e2 only
        ([(3, 0, 0), (0, 3, 0), (3, 0, 0)], "not orthogonal"),  # e1.e3 only
        ([(3, 0, 0), (0, 3, 0), (0, 3, 0)], "not orthogonal"),  # e2.e3 only
        ([(1, 1, 0), (1, 0, 1), (0, 1, 1)], "not a positive integer"),
        ([(0, 0, 0)] * 3, "not a positive integer"),
    ],
)
def test_frame_of_rejects_non_cubes(edges, message):
    with pytest.raises(ValueError, match=message):
        Frame.of(*(Vec3(*e) for e in edges))


def test_frame_spans_its_cube_from_any_corner():
    for side, _, verts, _, _ in TABLE1:
        cube = Cube.from_points(verts)
        e1, e2, e3 = cube.corner_edges()
        assert Frame.of(e1, e2, e3).side == side
        assert Frame.of(e1, e2, e3).cube() == cube.translate_to_octant()
        assert Frame.of(-e3, e1, -e2).cube() == cube.translate_to_octant()


def test_side():
    assert Cube.from_points(UNIT).corner_edges().side == 1
    assert Cube.from_points(ROW3).corner_edges().side == 3
    assert Cube.from_points(EXAMPLE_CUBE).corner_edges().side == 61


def test_translate_keeps_canonical_order():
    c = Cube.from_points(ROW3)
    t = Vec3(7, -2, 11)
    moved = c.translate(t)
    assert moved.vertices == tuple(sorted(v + t for v in c.vertices))
    assert moved == Cube.from_points([[v.x, v.y, v.z] for v in moved.vertices])


def test_translate_to_octant():
    c = Cube.from_points(ROW3)
    assert c.translate_to_octant() == c  # already normalized
    moved = c.translate(Vec3(-2, 3, -5))
    assert moved.translate_to_octant() == c
    shifted_unit = Cube.from_points(UNIT).translate(Vec3(1, 1, 1))
    assert shifted_unit.translate_to_octant() == Cube.from_points(UNIT)


def test_bounding_dim_and_extents():
    assert bounding_dim(Cube.from_points(UNIT)) == 1
    assert bounding_dim(Cube.from_points(ROW3)) == 5
    c17 = Cube.from_points(TABLE1[10][2])
    assert bounding_dim(c17) == 23
    assert c17.corner_edges().extents() == (23, 17, 23)


def test_four_k_values():
    assert Cube.from_points(UNIT).corner_edges().k_values() == {1}
    assert Cube.from_points(ROW3).corner_edges().k_values() == {1, 3}
    assert Cube.from_points(TABLE1[7][2]).corner_edges().k_values() == {1}  # side 13, bound 17
    assert Cube.from_points(UNIT).corner_edges().scale(2).k_values() == {2}
    for side, _, verts, kv, _ in TABLE1:
        assert Cube.from_points(verts).corner_edges().k_values() == kv, side


def test_is_irreducible():
    assert Cube.from_points(UNIT).corner_edges().is_primitive()
    assert not Cube.from_points(UNIT).corner_edges().scale(3).is_primitive()
    for _, _, verts, _, _ in TABLE1:
        assert Cube.from_points(verts).corner_edges().is_primitive()
    assert Cube.from_points(EXAMPLE_CUBE).corner_edges().is_primitive()


def test_orthogonal_matrix_exact():
    for _, _, verts, _, _ in TABLE1:
        m = orthogonal_matrix(Cube.from_points(verts).corner_edges())
        for i in range(3):
            for j in range(3):
                want = Fraction(1) if i == j else Fraction(0)
                assert sum(m[i][t] * m[j][t] for t in range(3)) == want


SOL2011 = PlaneSolution(139, 2461, 2461, 2011)


def test_zeta_eta_worked_example():
    zeta, eta = zeta_eta(SOL2011, -2011, 139)
    assert zeta == Vec3(0, 2011, -2011)
    assert eta == Vec3(-2461, 1075, -936)


def test_zeta_eta_wrong_orientation_raises():
    with pytest.raises(NonIntegralError):
        zeta_eta(SOL2011, 2011, 139)


def test_zeta_eta_identities():
    sols = [sol for d in (1, 3, 5, 9, 11, 15) for sol in solve_three_squares(d)]
    sols.append(SOL2011)
    for sol in sols:
        d = sol.d
        zeta, eta = pipeline_zeta_eta(sol)
        normal = Vec3(sol.a, sol.b, sol.c)
        assert dot(zeta, zeta) == 2 * d * d
        assert dot(eta, eta) == 2 * d * d
        assert dot(zeta, eta) == d * d
        assert dot(zeta, normal) == 0
        assert dot(eta, normal) == 0


def test_triangle_vertices():
    zeta, eta = Vec3(0, 1, -1), Vec3(-1, 1, 0)
    assert triangle_vertices(zeta, eta, 1, 0) == (ORIGIN, zeta, eta)
    o, p, q = triangle_vertices(zeta, eta, 0, 1)
    assert (o, p, q) == (ORIGIN, -eta, zeta - eta)


def test_triangle_is_equilateral_for_pipeline_inputs():
    from latticecubes.diophantine import solve_norm_form, solve_three_squares

    for d in (1, 3, 5):
        for sol in solve_three_squares(d):
            zeta, eta = pipeline_zeta_eta(sol)
            for k in (1, 7):
                for m, n in solve_norm_form(k):
                    _, p, q = triangle_vertices(zeta, eta, m, n)
                    side2 = 2 * d * d * k * k
                    assert norm2(p) == side2
                    assert norm2(q) == side2
                    assert norm2(p - q) == side2
                    normal = Vec3(sol.a, sol.b, sol.c)
                    assert dot(p, normal) == 0 and dot(q, normal) == 0


def test_fourth_vertex_unit_case():
    sol = PlaneSolution(1, 1, 1, 1)
    zeta, eta = pipeline_zeta_eta(sol)
    tri = triangle_vertices(zeta, eta, 0, 1)
    assert fourth_vertex(tri, sol, 1, 1) is None
    apex = fourth_vertex(tri, sol, 1, -1)
    assert apex is not None
    # a regular tetrahedron: all six pairwise distances equal
    pts = [tri[0], tri[1], tri[2], apex]
    d2s = {norm2(pts[i] - pts[j]) for i in range(4) for j in range(i + 1, 4)}
    assert len(d2s) == 1


def test_fourth_vertex_exactly_one_sign(registry30):
    # every census k is 1 mod 3, so exactly one sign can be integral
    for rec in registry30.records:
        sol, mn = rec.source
        zeta, eta = pipeline_zeta_eta(sol)
        tri = triangle_vertices(zeta, eta, mn.m, mn.n)
        k = rec.side // sol.d
        hits = [s for s in (1, -1) if fourth_vertex(tri, sol, k, s) is not None]
        assert len(hits) == 1, rec.source


def test_complete_cube_unit():
    sol = PlaneSolution(1, 1, 1, 1)
    zeta, eta = pipeline_zeta_eta(sol)
    tri = triangle_vertices(zeta, eta, 0, 1)
    apex = fourth_vertex(tri, sol, 1, -1)
    frame = complete_cube((ORIGIN, tri[1], tri[2], apex))
    assert frame.cube() == Cube.from_points(UNIT)


def test_complete_cube_parity_guard():
    with pytest.raises(NonIntegralError):
        complete_cube((ORIGIN, Vec3(1, 0, 0), Vec3(0, 1, 0), Vec3(0, 0, 1)))


def test_build_cube_examples():
    unit = build_cube(PlaneSolution(1, 1, 1, 1), NormFormSolution(0, 1))
    assert unit.cube() == Cube.from_points(UNIT)

    c3 = build_cube(PlaneSolution(1, 1, 5, 3), NormFormSolution(0, 1))
    assert c3.side == 3
    assert canonical_form(c3.cube()) == canonical_form(Cube.from_points(ROW3))

    c7 = build_cube(PlaneSolution(1, 1, 1, 1), NormFormSolution(3, 8))
    assert c7.side == 7
    assert c7.k_values() == {1, 7}
    assert canonical_form(c7.cube()) == canonical_form(Cube.from_points(TABLE1[3][2]))


def test_build_cube_rejects_non_square_norm():
    with pytest.raises(ValueError):
        build_cube(PlaneSolution(1, 1, 1, 1), NormFormSolution(1, 3))


def test_build_cube_matches_referee_chain():
    # build_cube turns the quaternion frame by the divisor beta of m + n omega;
    # the referee runs the triangle chain.  Every k > 1 candidate with
    # k d <= 1999 and its mirror triangle, which takes the conjugate of beta,
    # build the same class
    built = 0
    for k in k_values(1999)[1:]:
        for d in range(1, 1999 // k + 1, 2):
            for sol in solve_three_squares(d):
                for m, n in solve_norm_form(k):
                    for mn in (NormFormSolution(m, n), NormFormSolution(n - m, n)):
                        frame = build_cube(sol, mn)
                        assert frame.diagonals()[0] == (k * sol.a, k * sol.b, k * sol.c), (sol, mn)
                        assert class_key(frame) == class_key(build_cube_by_steps(sol, mn)), (sol, mn)
                        built += 1
    assert built == 12636


def test_either_sign_of_find_rs_builds_the_same_cube(monkeypatch):
    # find_rs's (r, s) is unique up to sign: -(r, s) negates the referee's
    # zeta, eta, the triangle, the apex and the frame, and a cube is its own
    # point reflection, so the octant-normalized cube is the same
    items = list(_candidate_stream(200))
    assert len(items) == 1830
    cubes = [build_cube_by_steps(sol, mn).cube() for _, mn, _, sol in items]
    monkeypatch.setattr(referee, "find_rs", lambda A, B, q: tuple(-t for t in find_rs(A, B, q)))
    for (_, mn, _, sol), cube in zip(items, cubes):
        assert build_cube_by_steps(sol, mn).cube() == cube, (sol, mn)


def test_k1_build_cube_is_the_referee_chain_cube():
    # a k = 1 cube is the Euler-Rodrigues frame of its plane solution's
    # quaternion, with (a, b, c) as its first main diagonal; the triangle
    # chain, through find_rs, zeta, eta and the apex, is its referee
    checked = 0
    for d in range(1, 302, 2):
        for sol in plane_quaternions(d):
            frame = build_cube(sol, NormFormSolution(0, 1))
            assert frame.diagonals()[0] == sol[:3], sol
            assert class_key(frame) == class_key(build_cube_by_steps(sol, NormFormSolution(0, 1))), sol
            checked += 1
    assert checked == 3940


def test_find_rs_orientation_makes_zeta_eta_integral():
    # the referee chain's one-orientation argument, on every order and sign of the
    # plane solutions with d <= 151: f = s + r i sqrt(3) from find_rs
    # divides z = ac - bd i sqrt(3), and zeta, eta are integral for (r, s)
    seen = 0
    for d in range(1, 152, 2):
        for sol in solve_three_squares(d):
            for abc in permutations(sol[:3]):
                for signs in product((1, -1), repeat=3):
                    a, b, c = (g * t for g, t in zip(signs, abc))
                    q, A, B = a * a + b * b, a * c, -b * d
                    r, s = find_rs(A, B, q)
                    # z * conj(f) = (A s + 3 B r) + (B s - A r) i sqrt(3)
                    assert (A * s + 3 * B * r) % (2 * q) == (B * s - A * r) % (2 * q) == 0, (a, b, c, d)
                    zeta_eta(PlaneSolution(a, b, c, d), r, s)
                    seen += 1
    assert seen == 48480


def test_build_cube_by_steps_raises_when_its_orientation_is_not_integral(monkeypatch):
    # for (a, b, c, d) = (1, 1, 5, 3), zeta is not integral for (r, s) = (1, 0)
    sol = PlaneSolution(1, 1, 5, 3)
    with pytest.raises(NonIntegralError):
        zeta_eta(sol, 1, 0)
    monkeypatch.setattr(referee, "find_rs", lambda A, B, q: (1, 0))
    with pytest.raises(NonIntegralError):
        build_cube_by_steps(sol, NormFormSolution(0, 1))


def test_build_cube_rejects_a_triangle_without_beta():
    # k = 3 has no t + u sqrt(-3) of norm 3 with t > 0, and no census k is
    # divisible by 3: a ValueError, not a StopIteration
    with pytest.raises(ValueError, match=r"no t \+ u\*sqrt\(-3\) of norm 3 divides 3 \+ 0\*omega"):
        build_cube(PlaneSolution(1, 1, 1, 1), NormFormSolution(3, 0))


def test_build_cube_rejects_a_quaternion_off_its_solution(monkeypatch):
    # a quaternion that maps the diagonal to another plane solution
    sol, other = PlaneSolution(5, 7, 13, 9), PlaneSolution(1, 11, 11, 9)
    table = plane_quaternions(9)
    monkeypatch.setattr(lattice_geometry, "plane_quaternions", lambda d: {sol: table[other]})
    with pytest.raises(ValueError, match="maps the diagonal to"):
        build_cube(sol, NormFormSolution(0, 1))


def test_build_cube_matches_census_records(registry30):
    for rec in registry30.records:
        sol, mn = rec.source
        again = build_cube(sol, mn).cube()
        assert again == rec.cube


def test_four_k_values_matches_diagonal_search():
    # Frame.k_values takes each diagonal's gcd; the referee takes
    # side / sqrt(D.D / (3 l^2))
    from latticecubes.census import build_irreducible_list, build_multiples

    reg = build_irreducible_list(200)
    multiples = build_multiples(200, reg)
    records = reg.records + multiples
    assert len(reg.records) == 576 and len(multiples) > 0
    for rec in records:
        cube = rec.cube
        assert cube.corner_edges().k_values() == set(rec.k_values) == diagonal_k_values(cube), cube.as_lists()


def test_frame_path_matches_vertex_path(registry50):
    # the frame the referee chain returns sits at the tetrahedron's origin
    # corner, not at the smallest vertex of the record's cube
    from latticecubes.census import build_multiples

    records = registry50.records + build_multiples(50, registry50)
    for rec in records:
        frame = build_cube_by_steps(*rec.source)
        j = rec.side // frame.side  # dilation factor of a multiple
        frame = Frame(*(e.scale(j) for e in frame))
        assert frame.cube() == rec.cube, rec.source
        assert frame.k_values() == diagonal_k_values(rec.cube), rec.source


def _raw_cube(points):
    # bypasses Cube.from_points, whose validation would reject these shapes
    return Cube(tuple(sorted(Vec3(*p) for p in points)))


_RHOMBOHEDRON = [[0, 0, 0], [1, 1, 0], [1, 0, 1], [0, 1, 1], [2, 1, 1], [1, 2, 1], [1, 1, 2], [2, 2, 2]]
_RATIO_NOT_SQUARE = [[0, 1, 0], [1, 0, 2], [1, 3, 1], [2, 2, 1], [2, 2, 3], [3, 1, 3], [3, 4, 2], [4, 3, 4]]
_SIDE_NOT_DIVISIBLE = [[0, 0, 2], [1, 0, 0], [2, 0, 3], [2, 1, 2], [3, 0, 1], [3, 1, 0], [4, 1, 3], [5, 1, 1]]
_CUBOID = [[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 2)]


@pytest.mark.parametrize(
    "points",
    [
        pytest.param(_RHOMBOHEDRON, id="rhombohedron"),
        pytest.param(_RATIO_NOT_SQUARE, id="ratio_not_square"),
        pytest.param(_SIDE_NOT_DIVISIBLE, id="side_not_divisible"),
    ],
)
def test_non_cubes_are_rejected_before_k_values(points):
    # Frame.k_values reads each diagonal's gcd, the k-value of a checked
    # frame; these shapes have no integral side, so no checked frame
    with pytest.raises(ValueError, match="side is not a positive integer"):
        Frame.of(*_raw_cube(points).corner_edges())
    with pytest.raises(ValueError, match="side is not a positive integer"):
        Cube.from_points(points)


@pytest.mark.parametrize(
    "call, exc",
    [
        (lambda: _raw_cube(_CUBOID).corner_edges(), ValueError),
        (lambda: fourth_vertex((ORIGIN, Vec3(1, 0, 0), Vec3(0, 1, 0)), PlaneSolution(1, 1, 1, 1), 1, 0), ValueError),
        (lambda: complete_cube((Vec3(1, 0, 0), Vec3(1, 1, 0), Vec3(1, 0, 1), Vec3(0, 0, 0))), ValueError),
        # a plane solution missing from its d's quaternion table
        (lambda: build_cube(PlaneSolution(1, 1, 1, 3), NormFormSolution(0, 1)), ValueError),
    ],
)
def test_geometry_checks_raise_typed_errors(call, exc):
    with pytest.raises(exc):
        call()
