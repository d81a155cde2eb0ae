"""Box symmetries, orbits, and the placement invariants (a0, a, b, g).

A cube sitting octant-normalized in its bounding box [0, d]^3 is acted
on by the 48 signed coordinate permutations of the box.  The counting
formula needs four numbers per cube:

  alpha0  size of the plain symmetry orbit (positioned images),
  alpha   size of the generalized orbit (orbit closed under in-box
          translation),
  beta    generalized-orbit members with no vertex on the face z = d,
  gamma   members additionally having no vertex on y = d.

alpha, beta, gamma are computed per translation class: a class with
extents (w1, w2, w3) has slack s_i = d - w_i and contributes
(s1+1)(s2+1)(s3+1), (s1+1)(s2+1)s3, (s1+1)s2 s3 respectively.

The frame kernel computes all of this from the cube's Frame, the three
edge vectors e1, e2, e3 at any one of its corners.  They fix the cube up
to translation, and only up to sign and order: negating e_i moves the
corner to the other end of that edge.  A frame has no position; the
kernel takes its cube octant-normalized.  So a translation class is keyed by the three edges, each
sign-normalized to a positive first non-zero coordinate, sorted.  A box
map acts on the edges as a signed permutation; the extents of a class are
the per-axis sums of |e_i|; and a positioned image is its class key plus
its offset from the origin, d - w on each axis the map flips and 0 on the
others.

The kernel (_stabilizer) does not list the orbit; it counts the maps
that fix the cube.  A map and its negation give the same class key, so
the 24 maps that keep axis 0 move the classes as all 48 do.
Let st be the number of them whose image of the edges has the class key
of the cube, which holds iff each image edge is an edge of the frame
or its negation (so the kernel computes no class key).  Such a map
must permute the extents w into themselves, so only those permutations
are tried (just the identity's 4 sign pairs when the three extents
differ), and the identity fixes every class untried.  By
orbit-stabilizer:

  orbit size  c = 24 / st classes;
  alpha, beta, gamma: an image's slack is r = d - w permuted, so the 24
          images, each class of the orbit st times, sum each per-class
          polynomial over the 6 permutations of r, 4 times.  Those sums
          are symmetric in r, so with its elementary symmetric functions
          e1 = r0 + r1 + r2, e2 = r0 r1 + r0 r2 + r1 r2 and e3 = r0 r1 r2
          (numbers here, not edges):
            alpha = c (1 + e1 + e2 + e3),
            beta  = c (e1 + 2 e2 + 3 e3) / 3,
            gamma = c (e2 + 3 e3) / 3;
  alpha0 = 48 / (maps of the 48 that fix the positioned cube).  A
          class-fixing map with signs (1, g1, g2) fixes the cube iff
          r_i = 0 on each axis it flips (g_i = -1); its negation fixes it
          iff r_0 = 0 and r_i = 0 on each axis with g_i = +1.

So the kernel keeps alpha0, c and the slack triple r of a class, and
closed_form evaluates the invariants from them.

The orbit-size identity: 1 + e1 + e2 + e3 is the product
(1 + r0)(1 + r1)(1 + r2), so

  orbit size = alpha / ((1 + r0)(1 + r1)(1 + r2)),

exactly.  The census reads a record's orbit size this way, from its
alpha and its slack, with no second kernel pass (census.CubeRegistry.claim).

Dilating a cube by j scales its orbit's class keys, slacks and offsets by
j, one to one: the dilate has its cube's st, orbit size and alpha0, and
the slack j r.  So a dilate's invariants are closed_form of its parent
record's alpha0, its orbit size by the identity above and j r, with no
kernel pass (census.build_multiples); they are not the parent's, since
the placement polynomials are not linear in the slack.

orbit_classes lists the 24 images' class keys; the census needs it only
for a cube without k-value 1 (census docstring).

The tests check the kernel against the 24-image table it replaced and
against a referee that moves all 8 vertices of a cube literally
(tests/referee.py).
"""

from __future__ import annotations

from itertools import permutations
from typing import NamedTuple

from .lattice_geometry import Frame

Edge = tuple[int, int, int]
ClassKey = tuple[Edge, Edge, Edge]
Slack = tuple[int, int, int]

# The sign pairs (g1, g2) of the box maps that keep axis 0: image edge i
# is g_i * e[perm[i]], with g_i = -1 on each flipped axis and g_0 = +1.
_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


class InvariantSet(NamedTuple):
    alpha0: int
    alpha: int
    beta: int
    gamma: int


def _line(x: int, y: int, z: int) -> Edge:
    """The edge up to sign: its first non-zero coordinate made positive."""
    if x < 0 or (x == 0 and (y < 0 or (y == 0 and z < 0))):
        return (-x, -y, -z)
    return (x, y, z)


def class_key(frame: Frame) -> ClassKey:
    """The translation class of a cube: its frame up to sign and order."""
    e1, e2, e3 = sorted([_line(*e) for e in frame])
    return (e1, e2, e3)


# the 6 axis permutations: image coordinate i is read from axis perm[i]
_PERMS = tuple(permutations((0, 1, 2)))
# The maps that keep axis 0 and the extents (w0, w1, w2), the identity left
# out, as (p0, p1, p2, g1, g2), keyed by which of w0 = w1, w1 = w2 and w0 = w2
# hold: when the three extents differ, the identity's other 3 sign pairs.
_MAPS = {
    (w[0] == w[1], w[1] == w[2], w[0] == w[2]): tuple(
        (*p, g1, g2) for p in _PERMS if (w[p[0]], w[p[1]], w[p[2]]) == w for g1, g2 in _SIGNS
    )[1:]
    for w in ((0, 1, 2), (0, 0, 1), (1, 0, 0), (0, 1, 0), (0, 0, 0))
}


def _stabilizer(frame: Frame) -> tuple[int, int, Slack]:
    """One frame kernel pass over the cube of `frame`: alpha0, the orbit
    size 24 / st and the slack r = d - w of its extents.

    st counts the 24 maps that keep axis 0 and fix the class.  Only a
    map that preserves the extents w can fix it, so when the three
    extents differ only the identity's 4 sign pairs are tried; the
    identity itself fixes every class and is counted untried (_MAPS).
    The extents and the lines +-e_i are the same for every frame of the
    cube (any corner, sign or order), so the pass needs no class key and
    gives each frame of one class the same result.  Nothing is kept
    between calls: the census runs one pass per record, and none for a
    dilate, which reads its parent record (census.build_multiples).
    """
    e1, e2, e3 = frame
    (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = frame
    w0, w1, w2 = abs(x1) + abs(x2) + abs(x3), abs(y1) + abs(y2) + abs(y3), abs(z1) + abs(z2) + abs(z3)
    d = max(w0, w1, w2)
    r0, r1, r2 = d - w0, d - w1, d - w2
    # a map fixes the class iff it takes each edge to a frame edge or its negation
    lines = {e1, e2, e3, (-x1, -y1, -z1), (-x2, -y2, -z2), (-x3, -y3, -z3)}
    # the identity fixes the class, and its negation the cube iff r = 0
    st, fixed = 1, 1 + (r0 == 0 and r1 == 0 and r2 == 0)
    for p0, p1, p2, g1, g2 in _MAPS[w0 == w1, w1 == w2, w0 == w2]:
        if not (
            (e1[p0], g1 * e1[p1], g2 * e1[p2]) in lines
            and (e2[p0], g1 * e2[p1], g2 * e2[p2]) in lines
            and (e3[p0], g1 * e3[p1], g2 * e3[p2]) in lines
        ):
            continue
        st += 1
        # the map with signs (1, g1, g2) fixes the positioned cube iff its
        # offset is 0 on each axis it flips (g = -1); its negation flips
        # axis 0 and each axis with g = +1
        fixed += (g1 > 0 or r1 == 0) and (g2 > 0 or r2 == 0)
        fixed += r0 == 0 and (g1 < 0 or r1 == 0) and (g2 < 0 or r2 == 0)
    return 48 // fixed, 24 // st, (r0, r1, r2)


def orbit_classes(frame: Frame) -> frozenset[ClassKey]:
    """Class keys of the translation classes in the symmetry orbit: the
    images of the frame under the 24 box maps that keep axis 0."""
    return frozenset(
        class_key([(e[p0], g1 * e[p1], g2 * e[p2]) for e in frame])
        for p0, p1, p2 in _PERMS
        for g1, g2 in _SIGNS
    )


def invariants(frame: Frame) -> InvariantSet:
    """(alpha0, alpha, beta, gamma) of the cube of `frame`, by one frame
    kernel pass."""
    return closed_form(*_stabilizer(frame))


def closed_form(alpha0: int, size: int, slack: Slack) -> InvariantSet:
    """The invariants of a cube from its alpha0, its orbit size c = 24 / st
    and its slack r (module docstring); ArithmeticError if they are
    inconsistent.

    A dilate by j has its cube's alpha0 and orbit size and j times its
    slack (census.build_multiples)."""
    r0, r1, r2 = slack
    e1, e2, e3 = r0 + r1 + r2, r0 * r1 + r0 * r2 + r1 * r2, r0 * r1 * r2
    alpha = size * (1 + e1 + e2 + e3)
    beta = size * (e1 + 2 * e2 + 3 * e3) // 3
    gamma = size * (e2 + 3 * e3) // 3
    if not (alpha0 <= alpha and gamma <= beta <= alpha and 48 % alpha0 == 0):
        raise ArithmeticError(f"inconsistent invariants {(alpha0, alpha, beta, gamma)}, size {size}, slack {slack}")
    return InvariantSet(alpha0, alpha, beta, gamma)
