"""Cubes over the integer lattice: frames, vertex sets and their constructor.

A cube is built as its Frame, the three integral edge vectors at one
corner, by build_cube, the package's one cube constructor.  A plane
solution (a, b, c) of d comes with the integer quaternion q of norm d
whose image of the diagonal i + j + k it is, which
diophantine.plane_quaternions keeps from building the solution; the
Euler-Rodrigues matrix of q, its rows ordered and signed by a box map,
is the frame of the solution's k = 1 cube, whose main diagonal is
exactly (a, b, c).  A norm-form solution (m, n) of k > 1 turns that cube
about its diagonal: the frame times the Euler-Rodrigues matrix of the
quaternion t + u(i + j + k) of norm k that goes with the divisor
t + u*sqrt(-3) of m + n*omega in the Eisenstein integers (the rule is
in build_cube's docstring).  The triangle chain of the paper (the
triangle generators zeta, eta in the plane, the equilateral triangle,
the apex of a regular tetrahedron, the circumscribing cube) is the
referee in tests/referee.py (build_cube_by_steps); the tests and CI
compare the two by class key.

The Frame methods unpack the nine coordinates and work on plain
integers; a census record calls Frame.of (in build_cube) and diagonals
(its claim keys), and reads its other guards from the nine integers
itself.  Everything is exact integer arithmetic; any non-integrality is
a typed error, never a rounding.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import Iterable, NamedTuple, Sequence

from .diophantine import NormFormSolution, PlaneSolution, plane_quaternions

# find_rs is not called here; it stays bound for perfbench/tracing.py, which wraps it
from .ring_arith import find_rs


class Vec3(NamedTuple):
    x: int
    y: int
    z: int

    def __add__(self, other: "Vec3") -> "Vec3":  # type: ignore[override]
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def scale(self, t: int) -> "Vec3":
        return Vec3(t * self.x, t * self.y, t * self.z)


ORIGIN = Vec3(0, 0, 0)


class Frame(NamedTuple):
    """A cube up to translation: its three edge vectors at one corner.

    Every orbit quantity of a cube is a function of its frame, and none
    of them depends on which corner, edge order or edge signs are used.
    Build a checked frame with Frame.of.
    """

    e1: Vec3
    e2: Vec3
    e3: Vec3

    @staticmethod
    def of(e1: Vec3, e2: Vec3, e3: Vec3) -> "Frame":
        """The frame (e1, e2, e3), if its edges have one positive integer
        length and are pairwise orthogonal; ValueError otherwise."""
        (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = e1, e2, e3
        s2 = x1 * x1 + y1 * y1 + z1 * z1
        if x2 * x2 + y2 * y2 + z2 * z2 != s2 or x3 * x3 + y3 * y3 + z3 * z3 != s2:
            raise ValueError(f"edges {e1}, {e2}, {e3} differ in length")
        s = isqrt(s2)
        if s2 == 0 or s * s != s2:
            raise ValueError(f"cube side is not a positive integer (side^2 = {s2})")
        if x1 * x2 + y1 * y2 + z1 * z2 or x1 * x3 + y1 * y3 + z1 * z3 or x2 * x3 + y2 * y3 + z2 * z3:
            raise ValueError(f"edges {e1}, {e2}, {e3} are not orthogonal")
        return Frame(e1, e2, e3)

    @property
    def side(self) -> int:
        x, y, z = self.e1
        return isqrt(x * x + y * y + z * z)

    def extents(self) -> tuple[int, int, int]:
        """Per-axis widths of the cube: sums of the edges' |coordinates|."""
        (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = self
        return abs(x1) + abs(x2) + abs(x3), abs(y1) + abs(y2) + abs(y3), abs(z1) + abs(z2) + abs(z3)

    def diagonals(self) -> tuple[tuple[int, int, int], ...]:
        """The four main diagonals e1+e2+e3, e1+e2-e3, e1-e2+e3 and
        e2+e3-e1, one per direction, as plain coordinate triples."""
        (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = self
        return (
            (x1 + x2 + x3, y1 + y2 + y3, z1 + z2 + z3),
            (x1 + x2 - x3, y1 + y2 - y3, z1 + z2 - z3),
            (x1 - x2 + x3, y1 - y2 + y3, z1 - z2 + z3),
            (x2 + x3 - x1, y2 + y3 - y1, z2 + z3 - z1),
        )

    def k_values(self) -> set[int]:
        """k-values of the cube, one per main diagonal; duplicates collapse.

        A diagonal's k-value is the gcd l of its coordinates.  The k-value
        is defined as side/N with N^2 = D.D/(3 l^2); a frame of side s
        (Frame.of) has D.D = 3 s^2, and l^2 | 3 s^2 gives l | s, so
        N = s/l and the k-value is l.
        """
        return {gcd(*dd) for dd in self.diagonals()}

    def is_primitive(self) -> bool:
        """True when the cube is no dilation of a smaller lattice cube."""
        (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = self
        return gcd(x1, y1, z1, x2, y2, z2, x3, y3, z3) == 1

    def scale(self, j: int) -> "Frame":
        """The frame of the cube dilated by j."""
        return Frame(*(e.scale(j) for e in self))

    def cube(self) -> "Cube":
        """The cube the frame spans, octant-normalized."""
        vs = [ORIGIN]
        for e in self:
            vs += [v + e for v in vs]
        return Cube(tuple(sorted(vs))).translate_to_octant()


def _lattice_point(p: Sequence[int]) -> Vec3:
    """p as a Vec3, if it is three plain ints; ValueError otherwise."""
    if not isinstance(p, (list, tuple)) or len(p) != 3 or any(type(t) is not int for t in p):
        raise ValueError(f"{p!r} is not a lattice point of three integers")
    return Vec3(*p)


class Cube(NamedTuple):
    """A lattice cube as its 8 vertices in canonical (sorted) order."""

    vertices: tuple[Vec3, ...]

    @staticmethod
    def from_points(points: Iterable[Sequence[int]]) -> "Cube":
        """The cube with these 8 vertices; ValueError unless they are one.

        Each point must be a list or tuple of exactly three ints (bool is
        not an int here).  The edges at the smallest vertex must form a
        Frame, and the 8 points must be exactly the vertices that frame
        spans from there.
        """
        vs = tuple(sorted(map(_lattice_point, points)))
        if len(vs) != 8 or len(set(vs)) != 8:
            raise ValueError("a cube needs 8 distinct vertices")
        cube = Cube(vs)
        if Frame.of(*cube.corner_edges()).cube() != cube.translate_to_octant():
            raise ValueError("the 8 points are not the cube spanned by their corner edges")
        return cube

    def translate(self, t: Vec3) -> "Cube":
        # translation preserves lexicographic order, no re-sort needed
        return Cube(tuple(v + t for v in self.vertices))

    def translate_to_octant(self) -> "Cube":
        mx = min(v.x for v in self.vertices)
        my = min(v.y for v in self.vertices)
        mz = min(v.z for v in self.vertices)
        return self.translate(Vec3(-mx, -my, -mz))

    def corner_edges(self) -> Frame:
        """Edge vectors at the lexicographically smallest vertex, sorted.

        The frame is not checked (Frame.of does that): a vertex set that
        is not a cube yields whatever its three shortest edges are.
        """
        x0, y0, z0 = self.vertices[0]
        diffs = [Vec3(x - x0, y - y0, z - z0) for x, y, z in self.vertices[1:]]
        norms = [x * x + y * y + z * z for x, y, z in diffs]
        s2 = min(norms)
        es = sorted(e for e, n in zip(diffs, norms) if n == s2)
        if len(es) != 3:
            raise ValueError(f"{len(es)} shortest edges at the corner, not 3")
        return Frame(es[0], es[1], es[2])

    def as_lists(self) -> list[list[int]]:
        return [[v.x, v.y, v.z] for v in self.vertices]


def build_cube(sol: PlaneSolution, mn: NormFormSolution) -> Frame:
    """The frame of the cube that plane solution `sol` and the triangle of
    norm-form solution `mn` = (m, n) build, of side k d for k^2 =
    m^2 - mn + n^2, with k (a, b, c) as its main diagonal e1 + e2 + e3.

    The k = 1 frame F is the Euler-Rodrigues matrix of the integer
    quaternion q = w + xi + yj + zk of norm d that made the solution
    (diophantine.plane_quaternions; a caller alternating d rebuilds that
    one-d table each time).  Its columns q i q-bar, q j q-bar and
    q k q-bar are the edges of a lattice cube of side d, and its row sums
    are q(i + j + k)q-bar.  A box map takes that image to (a, b, c): the
    rows ordered by |row sum| and each signed to a positive row sum.

    For k > 1 the triangle turns that cube about its diagonal.  The turn
    is beta = t + u*sqrt(-3), t > 0, of norm t^2 + 3u^2 = k, the one such
    element that divides m + n*omega in the Eisenstein integers
    (omega = (-1 + sqrt(-3))/2, beta = (t + u) + 2u*omega): k divides
    both parts of (m + n*omega) * conj(beta), m(t - u) + 2nu and
    n(t + u) - 2mu.  The mirror triangle (n - m, n) takes conj(beta).
    The frame is F M, with M the Euler-Rodrigues matrix of
    t + u(i + j + k), k times a rotation about (1, 1, 1): the circulant
    with first row (A, B, C) = (t^2 - u^2, 2u(u - t), 2u(u + t)), so
    edge i becomes A e_i + C e_(i+1) + B e_(i+2), indices mod 3.
    F M F^-1 turns about F (1, 1, 1) = (a, b, c) in the sense of that
    quaternion when F is d times a rotation (det F > 0) and in the
    opposite sense when F is d times a reflection, so u is negated when
    det F > 0: the turn about (a, b, c) is always that of conj(beta).  Then the cube is
    the one the triangle chain of tests/referee.py builds
    (build_cube_by_steps: triangle generators zeta, eta, the triangle,
    the tetrahedron apex, the circumscribing cube), up to translation;
    the tests and CI compare their class keys.

    The k = 1 triangle (0, 1) takes the frame F as it is, with no norm
    form to solve; Frame.of checks it like any other.

    ValueError when m^2 - mn + n^2 is not a square, when `sol` is not in
    its d's table, when the row sums are not (a, b, c), or when no beta
    divides m + n*omega (e.g. (3, 0): 3 = 0^2 + 3*1^2 only); Frame.of
    checks the cube.
    """
    m, n = mn
    if m == 0 and n == 1:
        k = 1  # the k = 1 triangle: no norm form to solve
    else:
        kk = m * m - m * n + n * n
        k = isqrt(kk)
        if k * k != kk:
            raise ValueError("m^2 - mn + n^2 must be a perfect square")
    q = plane_quaternions(sol.d).get(sol)
    if q is None:
        raise ValueError(f"{sol} is not a primitive plane solution of d = {sol.d}")
    w, x, y, z = q
    ww, xx, yy, zz = w * w, x * x, y * y, z * z
    rows = [
        (ww + xx - yy - zz, 2 * (x * y - w * z), 2 * (x * z + w * y)),
        (2 * (x * y + w * z), ww - xx + yy - zz, 2 * (y * z - w * x)),
        (2 * (x * z - w * y), 2 * (y * z + w * x), ww - xx - yy + zz),
    ]
    keyed = []
    for r0, r1, r2 in rows:
        t = r0 + r1 + r2
        keyed.append((t, r0, r1, r2) if t > 0 else (-t, -r0, -r1, -r2))
    keyed.sort()
    (ta, x1, x2, x3), (tb, y1, y2, y3), (tc, z1, z2, z3) = keyed
    if (ta, tb, tc) != sol[:3]:
        raise ValueError(f"quaternion {q} maps the diagonal to ({ta}, {tb}, {tc}), not to {sol[:3]}")
    if k == 1:
        return Frame.of(Vec3(x1, y1, z1), Vec3(x2, y2, z2), Vec3(x3, y3, z3))
    pairs = ((t, g * isqrt((k - t * t) // 3)) for t in range(1, isqrt(k) + 1) for g in (1, -1))
    for t, u in pairs:
        # beta = t + u*sqrt(-3) = (t + u) + 2u*omega divides m + n*omega iff k
        # divides both parts of (m + n*omega) * conj(beta)
        if t * t + 3 * u * u == k and (m * (t - u) + 2 * n * u) % k == 0 == (n * (t + u) - 2 * m * u) % k:
            break
    else:
        raise ValueError(f"no t + u*sqrt(-3) of norm {k} divides {m} + {n}*omega")
    if x1 * (y2 * z3 - y3 * z2) - x2 * (y1 * z3 - y3 * z1) + x3 * (y1 * z2 - y2 * z1) > 0:
        u = -u  # a right-handed frame
    A, B, C = t * t - u * u, 2 * u * (u - t), 2 * u * (u + t)
    e1, e2, e3 = (x1, y1, z1), (x2, y2, z2), (x3, y3, z3)
    # each new edge is A e_i + C e_(i+1) + B e_(i+2), indices mod 3
    return Frame.of(
        *(
            Vec3(*(A * ci + C * cj + B * ck for ci, cj, ck in zip(f, g, h)))
            for f, g, h in ((e1, e2, e3), (e2, e3, e1), (e3, e1, e2))
        )
    )
