"""Referees the package is checked against, used only by the tests.

The vertex-level ones move all 8 vertices of a cube literally, under the
48 box maps and in-box translations, where the package works on a cube's
three corner edges (latticecubes.symmetry).  They are slow.
_orbit_table is the frame kernel the census used before it counted
stabilizers: it lists the class key, slack and offset of all 24 images
that keep axis 0.  build_cube_by_steps is the triangle chain of the
paper, one step at a time on Vec3s (zeta_eta, triangle_vertices,
fourth_vertex, complete_cube, with find_rs's (r, s)): the referee of
lattice_geometry.build_cube, which turns a quaternion's frame instead.
A chain step that meets a non-integer coordinate raises
NonIntegralError.  factor_ring factors a whole element of
Z[i*sqrt(3)] into prime-norm elements (unique_decomposition) with
RingElem arithmetic, where ring_arith.find_rs factors nothing and takes
one gcd in the Eisenstein integers; it is the find_rs referee.
count_from_boxes evaluates NC(N) box by box, the referee of the prefix
sums of census.sequence_from_boxes.  ball_vectors and
frames_by_all_pairs are the brute-force oracle as it was before it
paired only the lines that can start a row of a frame: a scan of the
whole ball for the vectors of one norm, and every sign-normalized line
paired with every later one.  placements_by_box places the oracle's
classes one box and one grid at a time, the referee of
oracle._placements' running sums.  quaternion_classes lists the
translation classes of one side from the Euler-Rodrigues frames of the
integer quaternions of that norm, a per-side referee of the census.  It
enumerates all of them itself and shares no code with the census's
quaternion table (diophantine.plane_quaternions), its cube constructor
(lattice_geometry.build_cube) or symmetry's key normalization.
BOX_MAPS, dot, norm2, cross and orthogonal_matrix are the plain geometry
the tests state facts with.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import gcd, isqrt
from typing import NamedTuple, Optional

from latticecubes.census import placement_count
from latticecubes.diophantine import NormFormSolution, PlaneSolution, prime_powers
from latticecubes.lattice_geometry import ORIGIN, Cube, Frame, Vec3
from latticecubes.ring_arith import find_rs
from latticecubes.symmetry import ClassKey, InvariantSet, Slack, class_key

# all 48 (permutation, per-axis flip) pairs: the signed coordinate
# permutations of a box
BOX_MAPS: tuple[tuple[tuple[int, int, int], tuple[bool, bool, bool]], ...] = tuple(
    (perm, flips)
    for perm in permutations((0, 1, 2))
    for flips in product((False, True), repeat=3)
)


def dot(u: Vec3, v: Vec3) -> int:
    """The dot product u . v."""
    return u.x * v.x + u.y * v.y + u.z * v.z


def norm2(u: Vec3) -> int:
    """The squared length u . u."""
    return dot(u, u)


def cross(u: Vec3, v: Vec3) -> Vec3:
    """The cross product u x v."""
    return Vec3(u.y * v.z - u.z * v.y, u.z * v.x - u.x * v.z, u.x * v.y - u.y * v.x)


def orthogonal_matrix(frame: Frame) -> tuple[tuple[Fraction, ...], ...]:
    """The frame's edges as columns, divided by the side: an orthogonal matrix."""
    s = frame.side
    return tuple(tuple(Fraction(e[i], s) for e in frame) for i in range(3))


def _orbit_table(key: ClassKey) -> tuple[frozenset[ClassKey], tuple[Slack, ...], int]:
    """The class keys of the orbit of the cube of class `key`, the slack
    of each class, and alpha0, from its 24 images that keep axis 0."""
    frame = Frame(*key)
    w = frame.extents()
    d = max(w)
    slack_of = {}
    positioned = set()
    for p0, p1, p2 in permutations((0, 1, 2)):
        slack = r0, r1, r2 = d - w[p0], d - w[p1], d - w[p2]
        for g1, g2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            image = class_key([(e[p0], g1 * e[p1], g2 * e[p2]) for e in frame])
            slack_of[image] = slack
            # offsets of the map with signs (1, g1, g2), which flips where g = -1,
            # and of its negation, which flips where g = +1 and on axis 0
            positioned.add((image, (0, r1 if g1 < 0 else 0, r2 if g2 < 0 else 0)))
            positioned.add((image, (r0, r1 if g1 > 0 else 0, r2 if g2 > 0 else 0)))
    return frozenset(slack_of), tuple(slack_of.values()), len(positioned)


def table_invariants(frame: Frame, j: int = 1) -> tuple[int, InvariantSet]:
    """Orbit size and (alpha0, alpha, beta, gamma) of j * frame, summed
    over the classes _orbit_table lists."""
    classes, slacks, alpha0 = _orbit_table(class_key(frame))
    alpha = beta = gamma = 0
    for r1, r2, r3 in slacks:
        s1, s2, s3 = j * r1, j * r2, j * r3
        alpha += (s1 + 1) * (s2 + 1) * (s3 + 1)
        beta += (s1 + 1) * (s2 + 1) * s3
        gamma += (s1 + 1) * s2 * s3
    return len(classes), InvariantSet(alpha0, alpha, beta, gamma)


def quaternion_classes(s: int) -> set[ClassKey]:
    """Class keys of the Euler-Rodrigues frames of side s.

    For every primitive integer quaternion q = w + xi + yj + zk of norm
    s, the frame is q i q-bar, q j q-bar and q k q-bar: the columns of s
    times the rotation matrix of q.  Each edge is taken up to sign as the
    larger of e and -e, and the three edges are sorted.  q and -q give
    the same frame, so w >= 0 suffices.  The quaternions are met as
    pairs of two-square representations, (w, x) of n and (y, z) of
    s - n.  For odd s these are the psi(s) translation classes of
    primitive cubes of side s.
    """
    two_squares: dict[int, list[tuple[int, int]]] = {}
    r = isqrt(s)
    for a in range(-r, r + 1):
        rb = isqrt(s - a * a)
        for b in range(-rb, rb + 1):
            two_squares.setdefault(a * a + b * b, []).append((a, b))
    out = set()
    for n, wx in two_squares.items():
        for y, z in two_squares.get(s - n, ()):
            for w, x in wx:
                if w < 0 or gcd(w, x, y, z) != 1:
                    continue
                columns = (
                    (w * w + x * x - y * y - z * z, 2 * (x * y + w * z), 2 * (x * z - w * y)),
                    (2 * (x * y - w * z), w * w - x * x + y * y - z * z, 2 * (y * z + w * x)),
                    (2 * (x * z + w * y), 2 * (y * z - w * x), w * w - x * x - y * y + z * z),
                )
                out.add(tuple(sorted(max(e, tuple(-c for c in e)) for e in columns)))
    return out


def count_from_boxes(N: int, boxes: dict[int, InvariantSet]) -> int:
    """NC(N) from per-bounding-dimension invariant sums (census.box_sums),
    one placement_count per box."""
    return sum(placement_count(N, d, inv) for d, inv in boxes.items() if d <= N)


def ball_vectors(n2: int) -> list[Vec3]:
    """All integer vectors with squared length n2, by a scan of the ball."""
    out = []
    bound = isqrt(n2)
    for x in range(-bound, bound + 1):
        rx = n2 - x * x
        by = isqrt(rx)
        for y in range(-by, by + 1):
            zz = rx - y * y
            z = isqrt(zz)
            if z * z != zz:
                continue
            out.append(Vec3(x, y, z))
            if z:
                out.append(Vec3(x, y, -z))
    return out


def frames_by_all_pairs(s: int) -> list[tuple[Vec3, Vec3, Vec3]]:
    """oracle.enumerate_frames(s) with no pruning: every sign-normalized
    line of norm s^2 paired with every later one, in the same order."""
    # of v and -v the lexicographically larger has the positive first
    # non-zero coordinate
    lines = sorted(v for v in ball_vectors(s * s) if v > -v)
    frames = []
    for i, e1 in enumerate(lines):
        for e2 in lines[i + 1 :]:
            if dot(e1, e2):
                continue
            cr = cross(e1, e2)
            if cr.x % s or cr.y % s or cr.z % s:
                continue
            e3 = Vec3(cr.x // s, cr.y // s, cr.z // s)
            e3 = max(e3, -e3)
            if e2 < e3:
                frames.append((e1, e2, e3))
    return frames


def placements_by_box(boxes: dict[tuple[int, int, int], int], m: int) -> int:
    """The positions in {0..m}^3 of k classes with extents w, for each
    (w, k) of boxes: k (m+1-w1)(m+1-w2)(m+1-w3) when max(w) <= m."""
    return sum(
        k * (m + 1 - w1) * (m + 1 - w2) * (m + 1 - w3)
        for (w1, w2, w3), k in boxes.items()
        if max(w1, w2, w3) <= m
    )


def bounding_dim(c: Cube) -> int:
    """The largest vertex coordinate: the side of the box [0, d]^3 of an
    octant-normalized cube."""
    return max(max(v) for v in c.vertices)


def _assert_octant(c: Cube) -> None:
    for axis in range(3):
        if min(v[axis] for v in c.vertices) != 0:
            raise ValueError("cube must be octant-normalized")


def _maxima(c: Cube) -> tuple[int, int, int]:
    """Per-axis coordinate maxima."""
    return tuple(max(v[axis] for v in c.vertices) for axis in range(3))


def apply_box_map(
    c: Cube, d: int, perm: tuple[int, int, int], flips: tuple[bool, bool, bool]
) -> Cube:
    """Image of c under one signed permutation of the box [0, d]^3."""
    vs = []
    for v in c.vertices:
        coords = tuple(d - v[perm[i]] if flips[i] else v[perm[i]] for i in range(3))
        vs.append(Vec3(*coords))
    return Cube(tuple(sorted(vs)))


def symmetry_orbit(c: Cube) -> frozenset[Cube]:
    """All distinct positioned images of c under the 48 box maps."""
    _assert_octant(c)
    d = bounding_dim(c)
    return frozenset(apply_box_map(c, d, perm, flips) for perm, flips in BOX_MAPS)


def _octant_images(c: Cube) -> set[Cube]:
    """Octant forms of the symmetry orbit, one per translation class."""
    return {img.translate_to_octant() for img in symmetry_orbit(c)}


def generalized_orbit(c: Cube) -> frozenset[Cube]:
    """The symmetry orbit closed under all translations inside [0, d]^3."""
    d = bounding_dim(c)
    out = set()
    for cls in _octant_images(c):
        w1, w2, w3 = _maxima(cls)
        for i in range(d - w1 + 1):
            for j in range(d - w2 + 1):
                for k in range(d - w3 + 1):
                    out.add(cls.translate(Vec3(i, j, k)))
    return frozenset(out)


def canonical_form(c: Cube) -> Cube:
    """Lexicographically smallest octant form over the 48 box images.

    A fingerprint of the full symmetry-and-translation class; two cubes
    have equal canonical forms iff their generalized orbits coincide.
    """
    return min(_octant_images(c.translate_to_octant()), key=lambda x: x.vertices)


def vertex_invariants(c: Cube) -> InvariantSet:
    """(alpha0, alpha, beta, gamma) from the 48 vertex images of the octant-normalized c."""
    d = bounding_dim(c)
    positioned = symmetry_orbit(c)
    alpha = beta = gamma = 0
    for cls in {img.translate_to_octant() for img in positioned}:
        s1, s2, s3 = (d - w for w in _maxima(cls))
        alpha += (s1 + 1) * (s2 + 1) * (s3 + 1)
        beta += (s1 + 1) * (s2 + 1) * s3
        gamma += (s1 + 1) * s2 * s3
    return InvariantSet(len(positioned), alpha, beta, gamma)


def diagonal_k_values(c: Cube) -> set[int]:
    """k-values by pairing every vertex with its antipode in an 8 x 8
    distance search and taking side / sqrt(D.D / (3 l^2)) for each main
    diagonal D."""
    s = c.corner_edges().side
    out = set()
    for v in c.vertices:
        (w,) = [w for w in c.vertices if norm2(w - v) == 3 * s * s]
        dd = w - v
        l = gcd(gcd(abs(dd.x), abs(dd.y)), abs(dd.z))
        n = isqrt(norm2(dd) // (3 * l * l))
        out.add(s // n)
    return out


def brute_force_orbit_fill(c: Cube, n: int) -> int:
    """Distinct cubes in {0..n}^3 reachable from c's generalized orbit.

    Literal set construction used to validate the placement polynomial;
    intended for small bounding boxes only.
    """
    seen: set[tuple[Vec3, ...]] = set()
    for member in generalized_orbit(c):
        w1, w2, w3 = _maxima(member)
        if max(w1, w2, w3) > n:
            continue
        for i in range(n - w1 + 1):
            for j in range(n - w2 + 1):
                for k in range(n - w3 + 1):
                    seen.add(member.translate(Vec3(i, j, k)).vertices)
    return len(seen)


class NonIntegralError(ValueError):
    """A construction step produced a non-integer coordinate."""


def zeta_eta(sol: PlaneSolution, r: int, s: int) -> tuple[Vec3, Vec3]:
    """Generating vectors of the equilateral-triangle lattice in the plane.

    zeta.zeta = eta.eta = 2 d^2, zeta.eta = d^2, and both are orthogonal
    to (a, b, c).  Raises NonIntegralError when zeta or eta is not
    integral for this (r, s).
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


def pipeline_zeta_eta(sol: PlaneSolution) -> tuple[Vec3, Vec3]:
    """zeta, eta for the census's (r, s), the one find_rs returns."""
    a, b, c, d = sol
    return zeta_eta(sol, *find_rs(a * c, -b * d, a * a + b * b))


def build_cube_by_steps(sol: PlaneSolution, mn: NormFormSolution) -> Frame:
    """The frame at O of the cube of the triangle O, P, Q that (m, n) spans
    in the plane lattice of `sol`, one construction step at a time.

    The apex R = (P + Q +- 2k (a, b, c)) / 3 takes the first integral
    sign; the frame's edges are G - P, G - Q and G - R for the far
    corner G = (P + Q + R) / 2.  NonIntegralError when zeta or eta is
    not integral or no apex sign is."""
    m, n = mn
    k = isqrt(m * m - m * n + n * n)
    tri = triangle_vertices(*pipeline_zeta_eta(sol), m, n)
    apex = fourth_vertex(tri, sol, k, 1)
    if apex is None:
        apex = fourth_vertex(tri, sol, k, -1)
    if apex is None:
        raise NonIntegralError("no integral tetrahedron apex for either sign")
    return complete_cube((ORIGIN, tri[1], tri[2], apex))


class RingElem(NamedTuple):
    """u + v*i*sqrt(3) with integer u, v."""

    u: int
    v: int

    def norm(self) -> int:
        return self.u * self.u + 3 * self.v * self.v

    def conj(self) -> "RingElem":
        return RingElem(self.u, -self.v)

    def __mul__(self, other: "RingElem") -> "RingElem":  # type: ignore[override]
        # (u1 + v1 w)(u2 + v2 w) with w^2 = -3
        return RingElem(
            self.u * other.u - 3 * self.v * other.v,
            self.u * other.v + self.v * other.u,
        )

    def __neg__(self) -> "RingElem":
        return RingElem(-self.u, -self.v)


def divide_exact(z: RingElem, w: RingElem) -> Optional[RingElem]:
    """Return z / w if w divides z exactly in the ring, else None."""
    n = w.norm()
    if n == 0:
        return None
    t = z * w.conj()
    if t.u % n or t.v % n:
        return None
    return RingElem(t.u // n, t.v // n)


def _two_factor(z: RingElem) -> RingElem:
    """The norm-4 element (1, +-1) dividing the primitive z of even norm."""
    return RingElem(1, 1) if (z.u - z.v) % 4 == 0 else RingElem(1, -1)


@lru_cache(maxsize=None)
def unique_decomposition(p: int) -> RingElem:
    """The element (x, y) of norm p, x > 0, y > 0, for a prime p = 1 mod 3;
    unique up to signs.  ValueError for 3 and for primes p = 2 mod 3."""
    if p == 3 or p % 3 != 1:
        raise ValueError(f"{p} has no primitive representation x^2 + 3y^2")
    for y in range(1, isqrt(p // 3) + 1):
        x = isqrt(p - 3 * y * y)
        if x * x + 3 * y * y == p:
            return RingElem(x, y)
    raise ValueError(f"{p} has no representation x^2 + 3y^2")


def _oriented_prime(z: RingElem, p: int) -> RingElem:
    """The element of norm p (p = 1 mod 3) that divides the primitive z.

    unique_decomposition is looked up as a module global, so a test that
    patches it reaches this call."""
    f = RingElem(*unique_decomposition(p))
    return f if divide_exact(z, f) is not None else f.conj()


ONE = RingElem(1, 0)
MINUS_ONE = RingElem(-1, 0)


@dataclass(frozen=True)
class RingFactorization:
    """content * unit * prod(factors[i] ** mult[i]) for a ring element.

    content is the integer gcd pulled out first; each factor is a ring
    element of prime norm (norm 4 for the prime 2, norm 3 for the prime 3)
    oriented so that it actually divides the reduced element.  The unit is
    +1 or -1.  Invariant: content^2 * prod(norm(f)^m) == norm of the input.
    """

    content: int
    unit: int
    factors: tuple[tuple[RingElem, int], ...]

    def value(self) -> RingElem:
        acc = RingElem(self.content * self.unit, 0)
        for f, m in self.factors:
            for _ in range(m):
                acc = acc * f
        return acc


def factor_ring(u: int, v: int) -> RingFactorization:
    """Factor u + v*i*sqrt(3) into content, unit and prime-norm elements.

    The reduced part (u, v)/content is primitive, so its norm is divisible
    by 4 at most once, by 3 at most once, and only by primes p = 1 mod 3
    otherwise; each prime-norm factor is oriented by exact division.
    """
    if u == 0 and v == 0:
        raise ValueError("cannot factor 0")
    g = gcd(abs(u), abs(v))
    z = RingElem(u // g, v // g)

    factors: list[tuple[RingElem, int]] = []
    for p, e in prime_powers(z.norm()):
        if p == 2:
            # prime 2 enters only via the norm-4 element (1, +-1), at most once
            if e != 2:
                raise ArithmeticError(f"primitive norm has 2-adic valuation {e}, not 2")
            f, e = _two_factor(z), 1
        elif p == 3:
            if e != 1:
                raise ArithmeticError(f"primitive norm has 3-adic valuation {e}, not 1")
            f = RingElem(0, 1)
        else:
            f = _oriented_prime(z, p)
        for _ in range(e):
            q = divide_exact(z, f)
            if q is None:
                raise ArithmeticError(f"oriented factor {f} of norm {p} does not divide {z}")
            z = q
        factors.append((f, e))

    if z not in (ONE, MINUS_ONE):
        raise ArithmeticError(f"remainder {z} after all prime factors is not a unit")
    unit = 1 if z == ONE else -1
    return RingFactorization(content=g, unit=unit, factors=tuple(factors))
