"""Brute-force cube counter, independent of the analytic pipeline.

Counts every lattice cube inside {0..n}^3 by direct enumeration of
orthogonal frames.  A cube up to translation is fixed by its three edge
lines, so each translation class is listed once: its edges up to sign
(first non-zero coordinate positive), in ascending order.  Each class is
counted once per position of its bounding box inside the grid, and one
sweep over the sides s <= N yields NC(m) for every m <= N.

The pair search is pruned by one fact of orthogonal matrices: the edges
e1, e2, e3 of side s are the columns of s times an orthogonal matrix,
whose rows have norm s^2 too.  So the first coordinates x1, x2, x3 of
the edges satisfy x1^2 + x2^2 + x3^2 = s^2, and a class frame (each
x >= 0 after the sign normalization, x1 <= x2 <= x3 since e1 < e2 < e3)
pairs only lines whose first coordinates x1, x2 start such a row.

No ring arithmetic, no triangle parametrization, no orbit machinery and
no cube check borrowed from the census: the only shared code is the Vec3
container.  The frames are orthogonal by construction (e1.e2 = 0 is
tested and e3 is parallel to e1 x e2, of length |e1||e2|/s = s).  That
is the point - this module is the referee for the fast counter.
"""

from __future__ import annotations

from collections import Counter
from math import isqrt

from .lattice_geometry import Vec3


def _circle(r2: int) -> list[tuple[int, int]]:
    """All integer (y, z) with y^2 + z^2 = r2, sorted.

    One isqrt per (y >= 0, z >= 0) of the quadrant; the signs of y and z
    are expanded in place, so the list comes out sorted.
    """
    quadrant = []
    for y in range(isqrt(r2) + 1):
        zz = r2 - y * y
        z = isqrt(zz)
        if z * z == zz:
            quadrant.append((y, z))
    below = [(-y, t) for y, z in reversed(quadrant) if y for t in ((-z, z) if z else (0,))]
    return below + [(y, t) for y, z in quadrant for t in ((-z, z) if z else (0,))]


def enumerate_frames(s: int) -> list[tuple[Vec3, Vec3, Vec3]]:
    """One frame (e1, e2, e3) per translation class of cubes with side s.

    The edges are integer vectors of length s, pairwise orthogonal, each
    with a positive first non-zero coordinate, and e1 < e2 < e3.  Their
    first coordinates x1 <= x2 <= x3 form a row of norm s^2 (the edges
    are s times the columns of an orthogonal matrix), so e1 has 3 x1^2
    <= s^2, and e2 has x2 >= x1 with x1^2 + 2 x2^2 <= s^2 and s^2 - x1^2
    - x2^2 a square: only lines with those first coordinates are paired.
    """
    if s < 1:
        raise ValueError("side must be positive")
    s2 = s * s
    # the (y, z) of the sign-normalized lines (x, y, z), built for each x a row
    # needs: for x > 0 every (y, z) on the circle; at x = 0 the sorted circle lists
    # (y, z) and (-y, -z) mirrored, and its upper half has y > 0 or y = 0 < z
    circles: dict[int, list[tuple[int, int]]] = {}
    frames = []
    for x1 in range(isqrt(s2 // 3) + 1):
        r1 = s2 - x1 * x1
        row = [x2 for x2 in range(x1, isqrt(r1 // 2) + 1) if isqrt(r1 - x2 * x2) ** 2 == r1 - x2 * x2]
        if not row:
            continue
        for x in (x1, *row):
            if x not in circles:
                circle = _circle(s2 - x * x)
                circles[x] = circle if x else circle[len(circle) // 2 :]
        # dot and cross product spelled out on the coordinates: this pair loop
        # is the oracle's hot spot, and method calls for them make it ~1.5x slower
        for i, (y1, z1) in enumerate(circles[x1]):
            for x2 in row:
                d = x1 * x2
                for y2, z2 in circles[x2][i + 1 :] if x2 == x1 else circles[x2]:
                    if d + y1 * y2 + z1 * z2:
                        continue
                    cx = y1 * z2 - z1 * y2
                    cy = z1 * x2 - x1 * z2
                    cz = x1 * y2 - y1 * x2
                    # never true for s <= 150 (33960 orthogonal pairs checked): two
                    # orthogonal edges of length s complete to a cube; the guard
                    # keeps a non-integer e3 from ever being counted
                    if cx % s or cy % s or cz % s:
                        continue
                    # e3 = +-(e1 x e2) / s, its first non-zero coordinate positive
                    if (cx, cy, cz) < (0, 0, 0):
                        cx, cy, cz = -cx, -cy, -cz
                    e3 = (cx // s, cy // s, cz // s)
                    if (x2, y2, z2) < e3:
                        frames.append((Vec3(x1, y1, z1), Vec3(x2, y2, z2), Vec3(*e3)))
    return frames


def _placements(boxes: Counter[tuple[int, int, int]], N: int) -> list[int]:
    """[NC(1), ..., NC(N)] from the count k of classes per extents w, max(w) <= N.

    A class with extents w lies in (t - w1)(t - w2)(t - w3) positions of
    {0..m}^3, t = m + 1, when max(w) <= m.  Expanded in t, NC(m) is t^3 S0
    - t^2 S1 + t S2 - S3 with the running sums, over the boxes with
    max(w) <= m, of k, k (w1 + w2 + w3), k (w1 w2 + w1 w3 + w2 w3) and
    k w1 w2 w3; a box joins them when m reaches max(w).
    """
    terms = [[0, 0, 0, 0] for _ in range(N + 1)]
    for (w1, w2, w3), k in boxes.items():
        term = terms[max(w1, w2, w3)]
        term[0] += k
        term[1] += k * (w1 + w2 + w3)
        term[2] += k * (w1 * w2 + w1 * w3 + w2 * w3)
        term[3] += k * w1 * w2 * w3
    out = []
    s0 = s1 = s2 = s3 = 0
    for m in range(1, N + 1):
        k0, k1, k2, k3 = terms[m]
        s0, s1, s2, s3 = s0 + k0, s1 + k1, s2 + k2, s3 + k3
        t = m + 1
        out.append(((s0 * t - s1) * t + s2) * t - s3)
    return out


def brute_force_sequence(N: int) -> list[int]:
    """[NC(1), ..., NC(N)]: lattice cubes with all 8 vertices in {0..m}^3, m <= N.

    One sweep over the class frames of every side s <= N gives the
    histogram of class extents w that fit in {0..N}^3, and _placements
    places each class in every {0..m}^3 it fits.
    """
    if N < 1:
        raise ValueError("N must be positive")
    boxes: Counter[tuple[int, int, int]] = Counter()
    for s in range(1, N + 1):
        for (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) in enumerate_frames(s):
            # a vertex coordinate is a sum over a subset of the three edges,
            # so the extent along an axis is the sum of their |projections|
            w = (x1 + x2 + x3, abs(y1) + abs(y2) + abs(y3), abs(z1) + abs(z2) + abs(z3))
            if max(w) <= N:
                boxes[w] += 1
    return _placements(boxes, N)


def brute_force_count(n: int) -> int:
    """Number of lattice cubes with all 8 vertices in {0..n}^3."""
    return brute_force_sequence(n)[-1]
