"""Brute-force cube counter, independent of the analytic pipeline.

Counts every lattice cube inside {0..n}^3 by direct enumeration of
orthogonal frames: for each side s, every ordered triple of pairwise
orthogonal integer vectors of length s spans a cube.  Translation
classes are deduplicated by their octant form and each class is counted
once per position of its bounding box inside the grid.  One sweep over
the sides s <= N yields NC(m) for every m <= N.

No ring arithmetic, no triangle parametrization, no orbit machinery:
the only shared code is lattice_geometry's Vec3 and Cube.from_points.  That is the
point - this module is the referee for the fast counter.  Cube.from_points
validates through Frame.of, the census's cube check; a fault there can make
this module raise but cannot change its count, since the frames are built
orthogonal here.
"""

from __future__ import annotations

from collections import Counter
from math import isqrt

from .lattice_geometry import Cube, Vec3

_EPS = tuple((e1, e2, e3) for e1 in (0, 1) for e2 in (0, 1) for e3 in (0, 1))


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
    """All ordered orthogonal frames (e1, e2, e3) of integer vectors, |e_i| = s."""
    if s < 1:
        raise ValueError("side must be positive")
    vs = _vectors_of_norm(s * s)
    frames = []
    # dot and cross product spelled out on the coordinates: this pair loop
    # is the oracle's hot spot, and Vec3.dot/cross calls make it ~1.5x slower
    for e1 in vs:
        x1, y1, z1 = e1
        for e2 in vs:
            x2, y2, z2 = e2
            if x1 * x2 + y1 * y2 + z1 * z2:
                continue
            cx = y1 * z2 - z1 * y2
            cy = z1 * x2 - x1 * z2
            cz = x1 * y2 - y1 * x2
            if cx % s or cy % s or cz % s:
                continue
            cx, cy, cz = cx // s, cy // s, cz // s
            frames.append((e1, e2, Vec3(cx, cy, cz)))
            frames.append((e1, e2, Vec3(-cx, -cy, -cz)))
    return frames


def brute_force_sequence(N: int) -> list[int]:
    """[NC(1), ..., NC(N)]: lattice cubes with all 8 vertices in {0..m}^3, m <= N.

    One sweep over the frames of every side s <= N collects the translation
    classes (octant-shifted vertex sets) whose extents fit in {0..N}^3; a
    class with extents w lies in (m+1-w1)(m+1-w2)(m+1-w3) positions of
    {0..m}^3 when max(w) <= m.  The 48 frames of one cube (8 corners, 6
    edge orders) give the same vertex set, so each class is validated by
    Cube.from_points once.
    """
    if N < 1:
        raise ValueError("N must be positive")
    classes: dict[tuple[tuple[int, int, int], ...], tuple[int, int, int]] = {}
    for s in range(1, N + 1):
        for e1, e2, e3 in enumerate_frames(s):
            # a vertex coordinate is a sum over a subset of the three edges,
            # so the extent along an axis is the sum of their |projections|
            w = (
                abs(e1.x) + abs(e2.x) + abs(e3.x),
                abs(e1.y) + abs(e2.y) + abs(e3.y),
                abs(e1.z) + abs(e2.z) + abs(e3.z),
            )
            if max(w) > N:
                continue
            pts = [
                (
                    a * e1.x + b * e2.x + c * e3.x,
                    a * e1.y + b * e2.y + c * e3.y,
                    a * e1.z + b * e2.z + c * e3.z,
                )
                for a, b, c in _EPS
            ]
            # octant shift done inline on raw points, not via Cube methods
            mx = min(p[0] for p in pts)
            my = min(p[1] for p in pts)
            mz = min(p[2] for p in pts)
            key = tuple(sorted((x - mx, y - my, z - mz) for x, y, z in pts))
            if key not in classes:
                Cube.from_points(key)  # raises unless the 8 points form a cube
                classes[key] = w
    boxes = Counter(classes.values())
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
