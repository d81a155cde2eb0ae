"""Triangles, tetrahedra and cubes over the integer lattice.

A cube is built as its Frame, the three integral edge vectors at one
corner, in one of two ways.  quaternion_frame builds the cube of a plane
solution (a, b, c) with k = 1: the Euler-Rodrigues matrix of the integer
quaternion q of norm d with q(i + j + k)q-bar = (a, b, c) up to a box
map, which diophantine.plane_quaternions keeps from building the
solution, has the cube's edges as columns.  build_cube builds any
triangle's cube; the census takes it for k > 1 and for the mirror
triangles, and the tests and CI take it as quaternion_frame's referee.
Its construction chain is

    (a,b,c,d) plane solution + (m,n) norm-form solution
        -> generating vectors zeta, eta of the triangle lattice in the plane
        -> equilateral triangle O, P, Q
        -> apex R of a regular tetrahedron
        -> the circumscribing cube, as its frame: the three integral
           edge vectors at the tetrahedron's origin corner.

build_cube runs the whole chain in one function on plain integer
coordinates.  It uses the (r, s) that ring_arith.find_rs returns, unique
up to sign: s + r*i*sqrt(3) divides ac - bd*i*sqrt(3), and that makes
zeta and eta integral (the argument is in build_cube's docstring), so no
other orientation is ever tried; -(r, s) would build the same cube.  The
tests compare it with a referee that takes one function per step on
Vec3s (zeta_eta, triangle_vertices, fourth_vertex, complete_cube in
tests/referee.py).

The Frame methods the census calls once per record (Frame.of, side,
extents, diagonals, is_primitive) unpack the nine coordinates and work
on plain integers.  Everything is exact integer arithmetic; any
non-integrality is a typed error, never a rounding.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import Iterable, NamedTuple, Sequence

from .diophantine import NormFormSolution, PlaneSolution
from .ring_arith import find_rs


class NonIntegralError(ValueError):
    """A construction step produced a non-integer coordinate."""


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
    """The frame of the cube a plane solution and a norm-form solution build.

    The construction chain, on coordinates: zeta and eta generate the
    triangle lattice in the plane (zeta.zeta = eta.eta = 2 d^2,
    zeta.eta = d^2, both orthogonal to (a, b, c)); the triangle O, P, Q
    has P = m zeta - n eta and Q = n zeta - (n - m) eta; the apex is
    R = (P + Q +- 2k (a, b, c)) / 3; and the circumscribing cube has far
    corner G = (P + Q + R) / 2 and edges G - P, G - Q, G - R at O.

    zeta and eta are integral for the (r, s) of find_rs.  Its
    f = s + r*i*sqrt(3) has norm 2q and divides z = ac - bd*i*sqrt(3) in
    Z[i*sqrt(3)], so both parts of
    z * conj(f) = (acs - 3bdr) - (acr + bds)*i*sqrt(3) are divisible by
    2q.  With X = -(acr + bds) and Y = das - bcr, the numerators of
    zeta_x and zeta_y, a*Y - b*X = q*d*s and b*Y + a*X = -q*c*r; once
    h = gcd(a, b) is divided out (h divides z and 2q, so it divides their
    gcd, of which f is a unit multiple, in Z[omega]; h is odd, so it
    divides r and s), q | X gives q | Y; zeta_z is r.  eta is the same
    argument with the multiple
    f*(1 + i*sqrt(3)) = (s - 3r) + (r + s)*i*sqrt(3) of f, modulo 2q:
    s^2 + 3r^2 = 2q is even, so s - 3r and r + s are both even.

    NonIntegralError when zeta or eta is not integral (which the argument
    rules out for find_rs's (r, s)), when neither apex sign is integral,
    or when the midpoint sums are odd; ValueError when both apex signs
    are, which needs 3 | k and so no census candidate; Frame.of checks
    the cube.
    """
    a, b, c, d = sol
    m, n = mn
    kk = m * m - m * n + n * n
    k = isqrt(kk)
    if k * k != kk:
        raise ValueError("m^2 - mn + n^2 must be a perfect square")
    q = a * a + b * b
    q2 = 2 * q
    r, s = find_rs(a * c, -b * d, q)
    u, v = s - 3 * r, r + s
    # zeta = (zx, zy, r q) / q and eta = (ex, ey, q v) / 2q
    zx, zy = -(r * a * c + d * b * s), d * a * s - b * c * r
    ex, ey = -(d * b * u + a * c * v), d * a * u - b * c * v
    if zx % q or zy % q or ex % q2 or ey % q2 or v % 2:
        raise NonIntegralError(f"zeta, eta are not integral for (r, s) = ({r}, {s})")
    zx, zy, zz, ex, ey, ez = zx // q, zy // q, r, ex // q2, ey // q2, v // 2
    px, py, pz = m * zx - n * ex, m * zy - n * ey, m * zz - n * ez
    h = n - m
    qx, qy, qz = n * zx - h * ex, n * zy - h * ey, n * zz - h * ez
    tx, ty, tz = px + qx, py + qy, pz + qz
    nx, ny, nz = 2 * k * a, 2 * k * b, 2 * k * c
    plus = not ((tx + nx) % 3 or (ty + ny) % 3 or (tz + nz) % 3)
    minus = not ((tx - nx) % 3 or (ty - ny) % 3 or (tz - nz) % 3)
    if plus and minus:
        raise ValueError("both tetrahedron apex signs are integral (3 divides k)")
    if not (plus or minus):
        raise NonIntegralError("no integral tetrahedron apex for either sign")
    if minus:
        nx, ny, nz = -nx, -ny, -nz
    rx, ry, rz = (tx + nx) // 3, (ty + ny) // 3, (tz + nz) // 3
    gx, gy, gz = tx + rx, ty + ry, tz + rz
    if gx % 2 or gy % 2 or gz % 2:
        raise NonIntegralError("tetrahedron midpoint sums are odd")
    gx, gy, gz = gx // 2, gy // 2, gz // 2
    return Frame.of(
        Vec3(gx - px, gy - py, gz - pz), Vec3(gx - qx, gy - qy, gz - qz), Vec3(gx - rx, gy - ry, gz - rz)
    )


def quaternion_frame(q: tuple[int, int, int, int], sol: PlaneSolution) -> Frame:
    """The frame of the k = 1 cube of plane solution `sol`, from an integer
    quaternion q = w + xi + yj + zk of norm d whose image of the diagonal
    i + j + k has the sorted |coordinates| (a, b, c) (diophantine.plane_quaternions).

    The Euler-Rodrigues matrix of q, d times a rotation, has the columns
    q i q-bar, q j q-bar and q k q-bar, edges of a lattice cube of side
    d, and its row sums are the image of the diagonal.  A box map takes
    that image to (a, b, c): its rows ordered by |row sum| and each signed
    to a positive row sum.  The frame is the columns of the mapped matrix,
    so its main diagonal e1 + e2 + e3 is exactly (a, b, c), and its cube
    is the one build_cube(sol, (0, 1)) builds, up to translation (the
    tests and CI compare their class keys).

    ValueError when the row sums are not (a, b, c); Frame.of checks the cube.
    """
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
    return Frame.of(Vec3(x1, y1, z1), Vec3(x2, y2, z2), Vec3(x3, y3, z3))
