"""Arithmetic in the ring Z[i*sqrt(3)].

Elements are pairs (u, v) representing u + v*i*sqrt(3), with norm
u^2 + 3*v^2.  The ring is not a UFD (4 = 2*2 = (1+i*sqrt(3))(1-i*sqrt(3)))
but factorization of *primitive* elements (gcd(u, v) = 1 times a content)
is controlled enough for our purposes: every odd prime p = 1 mod 3 that
divides the norm splits as p = x^2 + 3y^2 with a unique orientation
dividing the element, and 2 only ever enters through a single factor of
norm 4.  The census never meets the prime 3 (see find_rs).

The only units are +-1.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, isqrt

from .diophantine import prime_powers


class NotRepresentable(ValueError):
    """Raised when a prime has no representation x^2 + 3*y^2."""


@lru_cache(maxsize=None)
def unique_decomposition(p: int) -> tuple[int, int]:
    """Representation of the prime p as an element of norm p (norm 4 for p=2).

    For p = 1 mod 3 returns (x, y) with x^2 + 3y^2 = p, x > 0, y > 0;
    the representation is unique up to signs.  For p = 2 returns (1, 1),
    the norm-4 factor through which 2 enters the ring.  Raises
    NotRepresentable for p = 3 and for primes p = 2 mod 3.  Memoized: the
    census asks for each prime many times (about 10^4 calls at N = 400).
    """
    if p == 2:
        return 1, 1
    if p == 3 or p % 3 != 1:
        raise NotRepresentable(f"{p} has no primitive representation x^2 + 3y^2")
    for y in range(1, isqrt(p // 3) + 1):
        r = p - 3 * y * y
        x = isqrt(r)
        if x * x == r:
            return x, y
    raise NotRepresentable(f"{p} has no representation x^2 + 3y^2")


def find_rs(A: int, B: int, q: int) -> tuple[int, int]:
    """The (r, s) with s^2 + 3*r^2 = 2*q and s + r*i*sqrt(3) dividing
    A + B*i*sqrt(3), given that 2*q divides A^2 + 3*B^2.

    Builds f = s + r*i*sqrt(3) from A + B*i*sqrt(3) by picking, for each
    prime power in 2*q, the prime-norm factor with the right orientation.
    This is the congruence-compatible square root needed by the triangle
    parametrization: f divides z = A + B*i*sqrt(3), so both parts of
    z * conj(f) = (A*s + 3*B*r) + (B*s - A*r)*i*sqrt(3) are divisible by 2*q.

    Domain: 2q over the square of the content gcd(A, B, 2q) has 2-adic
    valuation 0 or 2 (ArithmeticError otherwise) and no odd prime but
    primes p = 1 mod 3 (NotRepresentable, a ValueError, otherwise; 3
    included).  Every census input is in it: a plane solution has a, b,
    c odd and prime to 3, so q = a^2 + b^2 is 2 mod 8 and 2 mod 3.  On
    the domain the product's norm is exactly 2q: an odd prime p of that
    quotient divides the content as often as it divides gcd(A, B), so
    the reduced element holds p at least e times, e its exponent in the
    quotient, and each factor is taken e times.  The same valuations
    show that each factor is present, so no test looks for it: with
    g = gcd(A, B) and h = gcd(g, 2q) the content, 2q divides g^2 N(z);
    a prime p of the quotient has v_p(h) < v_p(2q), so v_p(h) = v_p(g)
    and v_p(N(z)) >= v_p(2q) - 2 v_p(g) = e >= 1 (4 divides N(z) at
    p = 2).  The final norm test stays as a ValueError.

    Only 2*q is factored, never the norm of A + B*i*sqrt(3).  For the
    census input A + B*i*sqrt(3) = ac - bd*i*sqrt(3) the plane equation
    a^2 + b^2 + c^2 = 3d^2 gives the identity

        N(ac - bd*i*sqrt(3)) = a^2 c^2 + 3 b^2 d^2 = (a^2 + b^2)(b^2 + c^2),

    a norm far larger than 2q = 2(a^2 + b^2).  Only the primes of 2q are
    ever selected, and for each of them the reduced norm's valuation is a
    divisibility test, so factoring the whole norm would be wasted work.

    find_rs runs once per census candidate, so it keeps z, the product
    and each factor as plain (u, v) integer pairs,
    and tests a factor's orientation by the divisibility of z * conj(f).
    """
    if (A * A + 3 * B * B) % (2 * q) != 0:
        raise ValueError("2q must divide A^2 + 3B^2")
    if A == 0 and B == 0:
        raise ValueError("cannot factor 0")
    # z = zu + zv*i*sqrt(3) is A + B*i*sqrt(3) without its content g
    g = gcd(A, B)
    zu, zv = A // g, B // g
    common = gcd(g, 2 * q)
    qq = (2 * q) // (common * common)
    if qq * common * common != 2 * q:
        raise ValueError("content mismatch: 2q/content^2 not integral")

    # the shared integer content is part of the gcd, so the product starts there
    au, av = common, 0
    for p, e in prime_powers(qq):
        if p == 2 and e != 2:
            # a norm-form value 2q has 2-adic valuation exactly 2, one ring factor
            raise ArithmeticError("2 enters a norm-form value as 4 exactly")
        # a primitive norm holds 4 at most once, as one ring factor;
        # f = fu + fv*i*sqrt(3) is the factor of norm p (4 at p = 2) that divides z
        if p == 2:
            fu, fv, e = 1, (1 if (zu - zv) % 4 == 0 else -1), 1
        else:
            fu, fv = unique_decomposition(p)
            # f divides z iff p divides both parts of z * conj(f)
            if (zu * fu + 3 * zv * fv) % p or (zv * fu - zu * fv) % p:
                fv = -fv
        for _ in range(e):
            au, av = au * fu - 3 * av * fv, au * fv + av * fu

    s, r = au, av
    if s * s + 3 * r * r != 2 * q:
        raise ValueError("factor selection does not multiply to norm 2q")
    return r, s
