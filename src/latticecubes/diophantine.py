"""Diophantine solvers feeding the cube census.

Three problems appear:

* the plane equation a^2 + b^2 + c^2 = 3 d^2 (normals of the triangle
  planes; only odd d with gcd(a,b,c)=1 matter), whose primitive
  solutions are the Euler-Rodrigues images of the diagonal (1, 1, 1)
  under the integer quaternions of norm d (solve_three_squares), every
  sign pattern of each quaternion imaged and the first q met kept
  (skipping the patterns whose image repeats saved nothing measurable);
  a solution is keyed by diagonal_key, the census's key of a main
  diagonal too,
* the Eisenstein norm form k^2 = m^2 - m n + n^2 (triangle sizes inside
  a plane),
* the representation count pi_eps(d) = number of primitive solutions of
  the plane equation, for which a closed formula exists and is
  cross-checked against the construction.

prime_powers (trial division) is the package's one integer factorizer;
only this module calls it, for psi, Lambda, Gamma_2 and the k-values.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from math import gcd, isqrt
from types import MappingProxyType
from typing import Mapping, NamedTuple


class PlaneSolution(NamedTuple):
    """Primitive solution of a^2 + b^2 + c^2 = 3 d^2 with 0 < a <= b <= c."""

    a: int
    b: int
    c: int
    d: int


class NormFormSolution(NamedTuple):
    """(m, n) with m^2 - m n + n^2 = k^2, gcd(m, n) = 1, m >= 0, 2m < n.

    The mirror (n - m, n) solves the same norm form with 2(n - m) > n.
    For k > 1 it is the other triangle of the pair, whose cube can lie in
    another orbit; the census builds it when the (m, n) triangle's cube
    is not accepted.  (n - m) + n*omega is minus the conjugate of
    m + n*omega, so the mirror's divisor of norm k is the conjugate of
    the (m, n) triangle's, and so is its turn (lattice_geometry.build_cube).
    For k = 1 the mirror (1, 1) of (0, 1) is never needed: (0, 1)
    reaches every cube with a k = 1 diagonal.
    """

    m: int
    n: int


def prime_powers(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n as (p, e) pairs, p ascending; [] for n <= 1.

    Trial division by 2 and then by each odd p up to the square root of
    what is left.  The numbers factored are sides and k-values up to the
    census's N, small enough that a 6k +- 1 wheel saves nothing.
    """
    out: list[tuple[int, int]] = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def dedekind_psi(n: int) -> int:
    """Dedekind's psi(n) = n * prod over primes p | n of (1 + 1/p).

    For odd n it is the number of translation classes of primitive
    lattice cubes with side n; no primitive cube has an even side.
    """
    if n < 1:
        raise ValueError("n must be positive")
    for p, _ in prime_powers(n):
        n = n // p * (p + 1)
    return n


def legendre_minus3(p: int) -> int:
    """The character chi(p) = (-3 | p) for an odd prime p."""
    if p % 2 == 0 or prime_powers(p) != [(p, 1)]:
        raise ValueError(f"{p} is not an odd prime")
    if p == 3:
        return 0
    return 1 if p % 12 in (1, 7) else -1


def lambda_d(d: int) -> int:
    """Lambda(d) = 8 d * prod over primes p|d of (1 - chi(p)/p), exactly.

    Dividing by one prime of d leaves the others, so each division is
    exact; a remainder raises ArithmeticError.
    """
    if d < 1 or d % 2 == 0:
        raise ValueError("d must be a positive odd integer")
    acc = 8 * d
    for p, _ in prime_powers(d):
        if acc % p:
            raise ArithmeticError(f"Lambda({d}): {p} does not divide the partial product {acc}")
        acc = acc // p * (p - legendre_minus3(p))
    return acc


def gamma2(d: int) -> int:
    """Gamma_2(d): the correction term counting diagonal-type solutions.

    0 when some prime factor of d is 5 or 7 mod 8, else 2^(number of
    distinct prime factors of d that are 1 or 3 mod 8, excluding 3
    itself); so 1 for d = 1 and d = 3.
    """
    if d < 1 or d % 2 == 0:
        raise ValueError("d must be a positive odd integer")
    primes = [p for p, _ in prime_powers(d)]
    if any(p % 8 in (5, 7) for p in primes):
        return 0
    k = sum(1 for p in primes if p % 8 in (1, 3) and p != 3)
    return 2**k


def pi_epsilon(d: int) -> int:
    """Number of primitive solutions of a^2+b^2+c^2 = 3d^2, 0 < a <= b <= c.

    Closed form (Lambda(d) + 24*Gamma_2(d)) / 48.  d = 1 is degenerate
    (the formula machinery assumes a < c somewhere); its single solution
    (1,1,1) is returned directly.
    """
    if d == 1:
        return 1
    num = lambda_d(d) + 24 * gamma2(d)
    if num % 48:
        raise ArithmeticError(f"pi_epsilon({d}): 48 does not divide {num}")
    return num // 48


def diagonal_key(x: int, y: int, z: int) -> tuple[int, int, int]:
    """The sorted |coordinates| of (x, y, z), the same for all its signed
    permutations: the one key of a plane solution (plane_quaternions) and
    of a cube's main diagonal (the census's claims)."""
    # |x| <= |y| <= |z| by compare and swap
    if x < 0:
        x = -x
    if y < 0:
        y = -y
    if z < 0:
        z = -z
    if x > y:
        x, y = y, x
    if y > z:
        y, z = z, y
        if x > y:
            x, y = y, x
    return x, y, z


@lru_cache(maxsize=1)
def plane_quaternions(d: int) -> Mapping[PlaneSolution, tuple[int, int, int, int]]:
    """Each primitive solution of a^2+b^2+c^2 = 3d^2, 0 < a <= b <= c,
    mapped to an integer quaternion (w, x, y, z) of norm d whose image of
    the diagonal has the solution's sorted |coordinates|; sorted by solution.

    Built, not searched for.  An integer quaternion q = w + xi + yj + zk
    of norm w^2 + x^2 + y^2 + z^2 = d maps the diagonal e = i + j + k to
    q e q-bar, an integer vector of norm 3d^2 (the Euler-Rodrigues, or
    Cayley, parametrization of the rotations), and for odd d every
    primitive solution is the sorted |coordinates| of such an image
    (E. J. Ionascu and A. Markov, "Platonic solids in Z^3", J. Number
    Theory 131, 2011).  A group of 48 signed permutations of q's four
    coordinates leaves the sorted |coordinates| of the image unchanged;
    the 8 sign patterns of (x, y, z) meet each of its 384 / 48 cosets.
    So the q taken are the sorted w >= z >= y >= x >= 0 of norm d, each
    with the 8 signs of (x, y, z) (a zero coordinate takes one sign), the
    pair (z, w) looked up among the two-square representations z <= w of
    d - x^2 - y^2; since x, y <= z that sum is at least d - 2z^2, so the
    table holds only the pairs with w^2 >= d - 3z^2.  An image with a
    common factor is dropped, and a solution keeps the first q met: the
    image's diagonal_key is looked up as a plain tuple, and a
    PlaneSolution is built only for one not met before.  Every sign
    pattern is imaged, also where two of w, z, y, x are equal and some
    patterns repeat an earlier image (2464 of the 11356 images for d <=
    400): a test that skipped those took about 3 % off these tables and
    nothing measurable off the census.

    The last d's table is kept, read-only: the census asks for a side's
    solutions as a stream and then for the quaternion of each cube it
    builds (lattice_geometry.build_cube).
    """
    if d < 1 or d % 2 == 0:
        raise ValueError("d must be a positive odd integer")
    two_squares: dict[int, list[tuple[int, int]]] = {}
    for z in range(isqrt(d // 2) + 1):
        lo = d - 3 * z * z  # the least w^2 a lookup can ask for
        for w in range(max(z, isqrt(lo - 1) + 1 if lo > 0 else 0), isqrt(d - z * z) + 1):
            two_squares.setdefault(z * z + w * w, []).append((z, w))
    out: dict[PlaneSolution, tuple[int, int, int, int]] = {}
    for x in range(isqrt(d // 4) + 1):
        for y in range(x, isqrt((d - x * x) // 3) + 1):
            for z, w in two_squares.get(d - x * x - y * y, ()):
                if z < y:
                    continue
                # q e q-bar = h e + 2 (p.e) p + 2w (p x e) for the vector part p of q,
                # with h = w^2 - |p|^2 = 2w^2 - d
                h = 2 * w * w - d
                for u, v, t in product((x, -x) if x else (0,), (y, -y) if y else (0,), (z, -z) if z else (0,)):
                    s = u + v + t  # p.e
                    a = h + 2 * (s * u + w * (v - t))
                    b = h + 2 * (s * v + w * (t - u))
                    c = h + 2 * (s * t + w * (u - v))
                    if gcd(a, b, c) != 1:
                        continue
                    a, b, c = diagonal_key(a, b, c)
                    if (a, b, c, d) not in out:  # a PlaneSolution equals its plain tuple
                        out[PlaneSolution(a, b, c, d)] = (w, u, v, t)
    return MappingProxyType({sol: out[sol] for sol in sorted(out)})


def solve_three_squares(d: int) -> list[PlaneSolution]:
    """All primitive (a, b, c) with a^2+b^2+c^2 = 3d^2, 0 < a <= b <= c,
    sorted: the keys of plane_quaternions(d)."""
    return list(plane_quaternions(d))


def solve_norm_form(k: int) -> list[NormFormSolution]:
    """All (m, n) with m^2 - mn + n^2 = k^2, gcd(m,n)=1, m >= 0, 2m < n.

    For each m the equation is a quadratic in n with roots
    (m +- sqrt(4k^2 - 3m^2)) / 2.  The smaller root is at most m/2, so
    only the larger one can satisfy 2m < n, and then k^2 = (n - m/2)^2 +
    3m^2/4 > 3m^2, so m runs only to sqrt((k^2 - 1)/3).
    """
    if k < 1:
        raise ValueError("k must be positive")
    out: list[NormFormSolution] = []
    for m in range(isqrt((k * k - 1) // 3) + 1):
        disc = 4 * k * k - 3 * m * m
        root = isqrt(disc)
        if root * root != disc or (m + root) % 2:
            continue
        n = (m + root) // 2
        if 2 * m < n and gcd(m, n) == 1:
            out.append(NormFormSolution(m, n))
    return out


def k_values(N: int) -> list[int]:
    """Odd k <= N equal to 1 or with every prime factor = 1 mod 3."""
    if N < 1:
        raise ValueError("N must be positive")
    return [k for k in range(1, N + 1, 2) if all(p % 3 == 1 for p, _ in prime_powers(k))]
