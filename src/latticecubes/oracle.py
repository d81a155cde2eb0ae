"""Brute-force cube counter, independent of the analytic pipeline.

Counts every lattice cube inside {0..n}^3 by direct enumeration of
orthogonal frames.  A cube up to translation is fixed by its three edge
lines, so each translation class is listed once: its edges up to sign
(first non-zero coordinate positive), in ascending order.  Each class is
counted once per position of its bounding box inside the grid, and one
sweep over the sides s <= N yields NC(m) for every m <= N.

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


def _vectors_of_norm(n2: int) -> list[Vec3]:
    """All integer vectors with squared length n2."""
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


def enumerate_frames(s: int) -> list[tuple[Vec3, Vec3, Vec3]]:
    """One frame (e1, e2, e3) per translation class of cubes with side s.

    The edges are integer vectors of length s, pairwise orthogonal, each
    with a positive first non-zero coordinate, and e1 < e2 < e3.
    """
    if s < 1:
        raise ValueError("side must be positive")
    # of v and -v the lexicographically larger has the positive first
    # non-zero coordinate
    lines = sorted(v for v in _vectors_of_norm(s * s) if v > -v)
    frames = []
    # dot and cross product spelled out on the coordinates: this pair loop
    # is the oracle's hot spot, and method calls for them make it ~1.5x slower
    for i, e1 in enumerate(lines):
        x1, y1, z1 = e1
        for e2 in lines[i + 1 :]:
            x2, y2, z2 = e2
            if x1 * x2 + y1 * y2 + z1 * z2:
                continue
            cx = y1 * z2 - z1 * y2
            cy = z1 * x2 - x1 * z2
            cz = x1 * y2 - y1 * x2
            # never true for s <= 150 (33960 orthogonal pairs checked): two
            # orthogonal edges of length s complete to a cube; the guard
            # keeps a non-integer e3 from ever being counted
            if cx % s or cy % s or cz % s:
                continue
            e3 = Vec3(cx // s, cy // s, cz // s)
            e3 = max(e3, -e3)
            if e2 < e3:
                frames.append((e1, e2, e3))
    return frames


def brute_force_sequence(N: int) -> list[int]:
    """[NC(1), ..., NC(N)]: lattice cubes with all 8 vertices in {0..m}^3, m <= N.

    One sweep over the class frames of every side s <= N gives the
    histogram of class extents w that fit in {0..N}^3; a class with
    extents w lies in (m+1-w1)(m+1-w2)(m+1-w3) positions of {0..m}^3 when
    max(w) <= m.
    """
    if N < 1:
        raise ValueError("N must be positive")
    boxes: Counter[tuple[int, int, int]] = Counter()
    for s in range(1, N + 1):
        for e1, e2, e3 in enumerate_frames(s):
            # a vertex coordinate is a sum over a subset of the three edges,
            # so the extent along an axis is the sum of their |projections|
            w = (
                abs(e1.x) + abs(e2.x) + abs(e3.x),
                abs(e1.y) + abs(e2.y) + abs(e3.y),
                abs(e1.z) + abs(e2.z) + abs(e3.z),
            )
            if max(w) <= N:
                boxes[w] += 1
    return [
        sum(
            k * (m + 1 - w1) * (m + 1 - w2) * (m + 1 - w3)
            for (w1, w2, w3), k in boxes.items()
            if max(w1, w2, w3) <= m
        )
        for m in range(1, N + 1)
    ]


def brute_force_count(n: int) -> int:
    """Number of lattice cubes with all 8 vertices in {0..n}^3."""
    return brute_force_sequence(n)[-1]
