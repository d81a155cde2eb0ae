"""Diophantine solvers feeding the cube census.

Three problems appear:

* the plane equation a^2 + b^2 + c^2 = 3 d^2 (normals of the triangle
  planes; only odd d with gcd(a,b,c)=1 matter),
* the Eisenstein norm form k^2 = m^2 - m n + n^2 (triangle sizes inside
  a plane),
* the representation count pi_eps(d) = number of primitive solutions of
  the plane equation, for which a closed formula exists and is
  cross-checked against plain enumeration.

prime_powers (trial division) is the package's one integer factorizer,
and only this module calls it.
"""

from __future__ import annotations

from bisect import bisect_right
from math import gcd, isqrt
from typing import NamedTuple


class PlaneSolution(NamedTuple):
    """Primitive solution of a^2 + b^2 + c^2 = 3 d^2 with 0 < a <= b <= c."""

    a: int
    b: int
    c: int
    d: int


class NormFormSolution(NamedTuple):
    """(m, n) with m^2 - m n + n^2 = k^2, gcd(m, n) = 1, m >= 0, 2m < n."""

    m: int
    n: int


def prime_powers(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n as (p, e) pairs, p ascending; [] for n <= 1.

    Trial division by 2, 3 and then only the 6k +- 1 candidates.
    """
    out: list[tuple[int, int]] = []
    p, step = 2, 1
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        if p < 5:
            p += step  # 2, 3, 5
            step = 2
        else:
            p += 2 if p % 6 == 5 else 4  # only 1, 5 mod 6 can be prime
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

    0 when some prime factor of d is 5 or 7 mod 8, 1 when d = 3, else
    2^(number of distinct prime factors of d that are 1 or 3 mod 8,
    excluding 3 itself).
    """
    if d < 1 or d % 2 == 0:
        raise ValueError("d must be a positive odd integer")
    if d == 3:
        return 1
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


def solve_three_squares(d: int) -> list[PlaneSolution]:
    """All primitive (a, b, c) with a^2+b^2+c^2 = 3d^2, 0 < a <= b <= c, sorted.

    Only odd values prime to 3 can occur: squares mod 8 force a, b, c odd
    for odd d, and a primitive solution has none of a, b, c divisible by
    3 (squares mod 3 are 0 or 1, so 3 divides all three or none).  The
    squares of those values up to 3d^2 go into one {x^2: x} table; for
    each a, the b^2 with b >= a and 2b^2 <= 3d^2 - a^2 are kept when the
    leftover 3d^2 - a^2 - b^2 is in the table too.  The gcd filter is the
    only one applied to what is left.  a and b ascend, so the output is
    already sorted.
    """
    if d < 1 or d % 2 == 0:
        raise ValueError("d must be a positive odd integer")
    target = 3 * d * d
    roots = [x for x in range(1, isqrt(target) + 1, 2) if x % 3]
    root_of = {x * x: x for x in roots}
    squares = list(root_of)  # ascending
    out: list[PlaneSolution] = []
    for i, a in enumerate(roots):
        if a > d:
            break
        rest = target - a * a
        for b2 in [b2 for b2 in squares[i : bisect_right(squares, rest // 2)] if rest - b2 in root_of]:
            b, c = root_of[b2], root_of[rest - b2]
            if gcd(gcd(a, b), c) == 1:
                out.append(PlaneSolution(a, b, c, d))
    return out


def solve_norm_form(k: int) -> list[NormFormSolution]:
    """All (m, n) with m^2 - mn + n^2 = k^2, gcd(m,n)=1, m >= 0, 2m < n.

    For each m the equation is a quadratic in n with roots
    (m +- sqrt(4k^2 - 3m^2)) / 2.  The smaller root is at most m/2, so
    only the larger one can satisfy 2m < n; m <= k keeps the root real.
    """
    if k < 1:
        raise ValueError("k must be positive")
    out: list[NormFormSolution] = []
    for m in range(0, k + 1):
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
