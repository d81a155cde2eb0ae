"""Triangles, tetrahedra and cubes over the integer lattice.

The construction chain is

    (a,b,c,d) plane solution + (m,n) norm-form solution
        -> generating vectors zeta, eta of the triangle lattice in the plane
        -> equilateral triangle O, P, Q
        -> apex R of a regular tetrahedron
        -> the circumscribing cube (8 vertices, all integral).

Everything is exact integer or Fraction arithmetic; any non-integrality
is a typed error, never a rounding.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, NamedTuple, Optional, Sequence

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

# squared-distance multiset of a cube with side s: 12 edges, 12 face
# diagonals, 4 main diagonals
_SIGNATURE = (12, 12, 4)


@dataclass(frozen=True)
class Cube:
    """A lattice cube as its 8 vertices in canonical (sorted) order."""

    vertices: tuple[Vec3, ...]

    @staticmethod
    def from_points(points: Iterable[Sequence[int]]) -> "Cube":
        vs = tuple(sorted(Vec3(int(p[0]), int(p[1]), int(p[2])) for p in points))
        if len(vs) != 8 or len(set(vs)) != 8:
            raise ValueError("a cube needs 8 distinct vertices")
        dists = Counter(
            (vs[i] - vs[j]).norm2() for i in range(8) for j in range(i + 1, 8)
        )
        s2 = min(dists)
        if (dists[s2], dists[2 * s2], dists[3 * s2]) != _SIGNATURE or len(dists) != 3:
            raise ValueError("distance multiset is not a cube signature")
        s = isqrt(s2)
        if s * s != s2:
            raise ValueError(f"cube side is not an integer (side^2 = {s2})")
        return Cube(vs)

    @property
    def side(self) -> int:
        v0 = self.vertices[0]
        s2 = min((v - v0).norm2() for v in self.vertices[1:])
        return isqrt(s2)

    def translate(self, t: Vec3) -> "Cube":
        # translation preserves lexicographic order, no re-sort needed
        return Cube(tuple(v + t for v in self.vertices))

    def dilate(self, t: int) -> "Cube":
        if t < 1:
            raise ValueError("dilation factor must be positive")
        return Cube(tuple(v.scale(t) for v in self.vertices))

    def translate_to_octant(self) -> "Cube":
        mx = min(v.x for v in self.vertices)
        my = min(v.y for v in self.vertices)
        mz = min(v.z for v in self.vertices)
        return self.translate(Vec3(-mx, -my, -mz))

    def bounding_dim(self) -> int:
        return max(max(v) for v in self.vertices)

    def extents(self) -> tuple[int, int, int]:
        """Per-axis coordinate maxima."""
        return (
            max(v.x for v in self.vertices),
            max(v.y for v in self.vertices),
            max(v.z for v in self.vertices),
        )

    def four_k_values(self) -> set[int]:
        """k-values of the cube, one per main diagonal direction.

        For a diagonal D with component gcd l, D.D/(3 l^2) is a perfect
        square N^2 and side/N is the k-value.  Duplicates collapse.  With
        corner edges e1, e2, e3 the four diagonal directions are
        e1+e2+e3, e1+e2-e3, e1-e2+e3 and -e1+e2+e3.
        """
        e1, e2, e3 = self.corner_edges()
        s = isqrt(e1.norm2())
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

    def corner_edges(self) -> tuple[Vec3, Vec3, Vec3]:
        """Edge vectors at the lexicographically smallest vertex, sorted."""
        x0, y0, z0 = self.vertices[0]
        diffs = [Vec3(x - x0, y - y0, z - z0) for x, y, z in self.vertices[1:]]
        norms = [x * x + y * y + z * z for x, y, z in diffs]
        s2 = min(norms)
        es = sorted(e for e, n in zip(diffs, norms) if n == s2)
        if len(es) != 3:
            raise ValueError(f"{len(es)} shortest edges at the corner, not 3")
        return (es[0], es[1], es[2])

    def is_irreducible(self) -> bool:
        g = 0
        for e in self.corner_edges():
            g = gcd(g, gcd(gcd(abs(e.x), abs(e.y)), abs(e.z)))
        return g == 1

    def orthogonal_matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """Corner edges as columns, divided by the side: an orthogonal matrix."""
        s = self.side
        e1, e2, e3 = self.corner_edges()
        return tuple(
            tuple(Fraction(e[i], s) for e in (e1, e2, e3)) for i in range(3)
        )

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


def complete_cube(tetra: tuple[Vec3, Vec3, Vec3, Vec3]) -> Cube:
    """The unique cube circumscribing a regular lattice tetrahedron.

    With non-origin vertices U, V, W the remaining cube vertices are
    (U+V+W)/2 minus each of U, V, W; all four halvings must be exact.
    """
    o, u, v, w = tetra
    if o != ORIGIN:
        raise ValueError(f"tetrahedron must start at the origin, not {o}")
    g = u + v + w
    if g.x % 2 or g.y % 2 or g.z % 2:
        raise NonIntegralError("tetrahedron midpoint sums are odd")
    gh = Vec3(g.x // 2, g.y // 2, g.z // 2)
    return Cube.from_points([o, u, v, w, gh, gh - u, gh - v, gh - w])


def build_cube(sol: PlaneSolution, mn: NormFormSolution) -> Cube:
    """Full chain from a plane solution and a norm-form solution to a cube."""
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
