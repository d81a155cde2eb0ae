"""Vertex-level referees the package is checked against.

These move all 8 vertices of a cube literally, under the 48 box maps and
in-box translations, where the package works on a cube's three corner
edges (latticecubes.symmetry).  They are slow and only used by the tests.
"""

from math import gcd, isqrt

from latticecubes.lattice_geometry import Cube, Vec3
from latticecubes.symmetry import BOX_MAPS, InvariantSet


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
    d = c.bounding_dim()
    return frozenset(apply_box_map(c, d, perm, flips) for perm, flips in BOX_MAPS)


def _octant_images(c: Cube) -> set[Cube]:
    """Octant forms of the symmetry orbit, one per translation class."""
    return {img.translate_to_octant() for img in symmetry_orbit(c)}


def generalized_orbit(c: Cube) -> frozenset[Cube]:
    """The symmetry orbit closed under all translations inside [0, d]^3."""
    d = c.bounding_dim()
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
    d = c.bounding_dim()
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
        (w,) = [w for w in c.vertices if (w - v).norm2() == 3 * s * s]
        dd = w - v
        l = gcd(gcd(abs(dd.x), abs(dd.y)), abs(dd.z))
        n = isqrt(dd.norm2() // (3 * l * l))
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
