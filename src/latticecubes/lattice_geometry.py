"""Triangles, tetrahedra and cubes over the integer lattice.

The construction chain is

    (a,b,c,d) plane solution + (m,n) norm-form solution
        -> generating vectors zeta, eta of the triangle lattice in the plane
        -> equilateral triangle O, P, Q
        -> apex R of a regular tetrahedron
        -> the circumscribing cube, as its frame: the three integral
           edge vectors at the tetrahedron's origin corner.

Everything is exact integer arithmetic; any non-integrality is a typed
error, never a rounding.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional, Sequence

from .diophantine import NormFormSolution, PlaneSolution
from .ring_arith import find_rs

if TYPE_CHECKING:
    from fractions import Fraction


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

    def dot(self, other: "Vec3") -> int:
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def norm2(self) -> int:
        return self.dot(self)


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
        s2 = e1.norm2()
        if e2.norm2() != s2 or e3.norm2() != s2:
            raise ValueError(f"edges {e1}, {e2}, {e3} differ in length")
        s = isqrt(s2)
        if s2 == 0 or s * s != s2:
            raise ValueError(f"cube side is not a positive integer (side^2 = {s2})")
        if e1.dot(e2) or e1.dot(e3) or e2.dot(e3):
            raise ValueError(f"edges {e1}, {e2}, {e3} are not orthogonal")
        return Frame(e1, e2, e3)

    @property
    def side(self) -> int:
        return isqrt(self.e1.norm2())

    def extents(self) -> tuple[int, int, int]:
        """Per-axis widths of the cube: sums of the edges' |coordinates|."""
        return tuple(sum(map(abs, col)) for col in zip(*self))

    def k_values(self) -> set[int]:
        """k-values of the cube, one per main diagonal direction.

        For a diagonal D with component gcd l, D.D/(3 l^2) is a perfect
        square N^2 and side/N is the k-value.  Duplicates collapse.  The
        four diagonal directions are e1+e2+e3, e1+e2-e3, e1-e2+e3 and
        -e1+e2+e3.
        """
        e1, e2, e3 = self
        s = self.side
        out = set()
        for dd in (e1 + e2 + e3, e1 + e2 - e3, e1 - e2 + e3, e2 + e3 - e1):
            l = gcd(gcd(abs(dd.x), abs(dd.y)), abs(dd.z))
            nn, rem = divmod(dd.norm2(), 3 * l * l)
            if rem:
                raise ArithmeticError(f"main diagonal {dd}: norm not divisible by 3 l^2")
            n = isqrt(nn)
            if n * n != nn:
                raise ArithmeticError(f"main diagonal {dd}: ratio {nn} is not a perfect square")
            k, rem = divmod(s, n)
            if rem:
                raise ArithmeticError(f"side {s} not divisible by diagonal ratio {n}")
            out.add(k)
        return out

    def is_primitive(self) -> bool:
        """True when the cube is no dilation of a smaller lattice cube."""
        return gcd(*(abs(t) for e in self for t in e)) == 1

    def scale(self, j: int) -> "Frame":
        """The frame of the cube dilated by j."""
        return Frame(*(e.scale(j) for e in self))

    def orthogonal_matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """The edges as columns, divided by the side: an orthogonal matrix."""
        from fractions import Fraction  # kept off the package's import path

        s = self.side
        return tuple(tuple(Fraction(e[i], s) for e in self) for i in range(3))

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

    def bounding_dim(self) -> int:
        return max(max(v) for v in self.vertices)

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


def zeta_eta(sol: PlaneSolution, r: int, s: int) -> tuple[Vec3, Vec3]:
    """Generating vectors of the equilateral-triangle lattice in the plane.

    zeta.zeta = eta.eta = 2 d^2, zeta.eta = d^2, and both are orthogonal
    to (a, b, c).  Raises NonIntegralError when the (r, s) orientation is
    the wrong one for this solution; the caller retries with (-r, s).
    """
    a, b, c, d = sol
    q = a * a + b * b
    num_z = (-(r * a * c + d * b * s), d * a * s - b * c * r, r * q)
    num_e = (
        -(d * b * (s - 3 * r) + a * c * (r + s)),
        d * a * (s - 3 * r) - b * c * (r + s),
        q * (r + s),
    )
    if any(t % q for t in num_z):
        raise NonIntegralError("zeta is not integral for this (r, s)")
    if any(t % (2 * q) for t in num_e):
        raise NonIntegralError("eta is not integral for this (r, s)")
    zeta = Vec3(*(t // q for t in num_z))
    eta = Vec3(*(t // (2 * q) for t in num_e))
    return zeta, eta


def triangle_vertices(
    zeta: Vec3, eta: Vec3, m: int, n: int
) -> tuple[Vec3, Vec3, Vec3]:
    """Equilateral triangle O, P, Q with side d*sqrt(2(m^2-mn+n^2))."""
    p = zeta.scale(m) - eta.scale(n)
    q = zeta.scale(n) - eta.scale(n - m)
    return ORIGIN, p, q


def fourth_vertex(
    tri: tuple[Vec3, Vec3, Vec3], sol: PlaneSolution, k: int, sign: int
) -> Optional[Vec3]:
    """Apex over the triangle making a regular tetrahedron, if integral.

    The apex sits at (P + Q + sign*2k*(a,b,c)) / 3; only one sign gives
    integer coordinates unless 3 | k.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be 1 or -1, not {sign}")
    _, p, q = tri
    normal = Vec3(sol.a, sol.b, sol.c).scale(2 * k * sign)
    t = p + q + normal
    if t.x % 3 or t.y % 3 or t.z % 3:
        return None
    return Vec3(t.x // 3, t.y // 3, t.z // 3)


def complete_cube(tetra: tuple[Vec3, Vec3, Vec3, Vec3]) -> Frame:
    """The frame at O of the unique cube circumscribing a regular lattice
    tetrahedron O, U, V, W.

    The cube's far corner is G = (U+V+W)/2 and O's edges are G-U, G-V and
    G-W; the halving must be exact.  Frame.of checks that they span a cube.
    """
    o, u, v, w = tetra
    if o != ORIGIN:
        raise ValueError(f"tetrahedron must start at the origin, not {o}")
    g = u + v + w
    if g.x % 2 or g.y % 2 or g.z % 2:
        raise NonIntegralError("tetrahedron midpoint sums are odd")
    gh = Vec3(g.x // 2, g.y // 2, g.z // 2)
    return Frame.of(gh - u, gh - v, gh - w)


def build_cube(sol: PlaneSolution, mn: NormFormSolution) -> Frame:
    """Full chain from a plane solution and a norm-form solution to a cube's frame."""
    a, b, c, d = sol
    m, n = mn
    kk = m * m - m * n + n * n
    k = isqrt(kk)
    if k * k != kk:
        raise ValueError("m^2 - mn + n^2 must be a perfect square")
    q = a * a + b * b
    r, s = find_rs(a * c, -b * d, q)
    try:
        zeta, eta = zeta_eta(sol, r, s)
    except NonIntegralError:
        zeta, eta = zeta_eta(sol, -r, s)
    tri = triangle_vertices(zeta, eta, m, n)
    apex = fourth_vertex(tri, sol, k, 1)
    if apex is None:
        apex = fourth_vertex(tri, sol, k, -1)
    if apex is None:
        raise NonIntegralError("no integral tetrahedron apex for either sign")
    return complete_cube((ORIGIN, tri[1], tri[2], apex))
