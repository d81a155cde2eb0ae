"""The congruence-compatible square root of 2q in Z[i*sqrt(3)].

An element u + v*i*sqrt(3) of Z[i*sqrt(3)] is the integer pair (u, v),
with norm u^2 + 3*v^2.  The ring is not a UFD
(4 = 2*2 = (1+i*sqrt(3))(1-i*sqrt(3))), but it lies in the Eisenstein
integers Z[omega], omega = (-1 + i*sqrt(3))/2, which are Euclidean for
the norm and have the six units +-1, +-omega, +-omega^2.  find_rs takes a
gcd there by Euclid's algorithm and keeps the one associate, up to sign,
that divides in Z[i*sqrt(3)].  Nothing is factored.
"""

from __future__ import annotations


def find_rs(A: int, B: int, q: int) -> tuple[int, int]:
    """The (r, s) with s^2 + 3*r^2 = 2*q, s > 0 and f = s + r*i*sqrt(3)
    dividing z = A + B*i*sqrt(3) in Z[i*sqrt(3)], given that 2*q divides
    A^2 + 3*B^2.

    This is the congruence-compatible square root needed by the triangle
    parametrization: f divides z, so both parts of
    z * conj(f) = (A*s + 3*B*r) + (B*s - A*r)*i*sqrt(3) are divisible by 2*q.

    g = gcd(z, 2q) is computed in Z[omega] on pairs x + y*omega, with each
    coordinate of a quotient rounded to the nearest integer: the error
    e1 + e2*omega, |e1|, |e2| <= 1/2, has norm e1^2 - e1*e2 + e2^2 <= 3/4,
    so every remainder is smaller than its divisor.  Then f runs through
    g, g*omega and g*omega^2 until 2q divides both parts of z * conj(f).
    f is unique up to sign, and is returned with s > 0 (s = 0 would need
    3 | q).  q < 1, z = 0, 2q not dividing N(z), no passing f, or a norm
    other than 2q raise ValueError.

    Census input passes.  There z = ac - bd*i*sqrt(3) and q = a^2 + b^2,
    from a primitive solution of a^2 + b^2 + c^2 = 3d^2 with a, b, c, d
    odd and 3 not dividing q, and N(z) = q*(b^2 + c^2).  g has norm 2q,
    prime by prime p of 2q.  Where N(z) and 2q hold p equally often, which
    includes p = 2 (q and b^2 + c^2 hold it once each) and every odd p not
    dividing b^2 + c^2, no prime of Z[omega] over p divides z more often
    than 2q, so g holds z's whole part over p, of norm p^v, v the exponent
    of p in 2q.  An odd p dividing q and b^2 + c^2 divides none of a, b, c
    (gcd(a, b, c) = 1), so -3 = (3d/b)^2 mod p and p = pi*conj(pi) splits;
    p does not divide ac, so only one of pi, conj(pi) divides z, as often
    as p divides N(z), at least v times, and g takes it v times.

    Exactly one f passes on census input.  2 is prime in Z[omega], of
    norm 4, and divides z once (ac is odd) and g once (4 || 2q), so z/g
    is prime to 2.  Z[omega]/2 is the field of four elements, the units
    1, omega, omega^2 go to its three nonzero elements, and
    Z[i*sqrt(3)] = Z + 2*Z[omega] is the preimage of {0, 1}: exactly one
    of z/g, z/(g*omega), z/(g*omega^2) lies in Z[i*sqrt(3)].  g's
    associates all lie in Z[i*sqrt(3)] too, since 2 divides g.
    """
    if q < 1 or A == 0 and B == 0:
        raise ValueError("find_rs needs q >= 1 and A + B*i*sqrt(3) nonzero")
    q2 = 2 * q
    if (A * A + 3 * B * B) % q2:
        raise ValueError("2q must divide A^2 + 3B^2")
    # Euclid from z = (A + B) + 2B*omega and 2q; x + y*omega ends as the gcd
    x, y, u, v = A + B, 2 * B, q2, 0
    while u or v:
        n = u * u - u * v + v * v
        # (x + y*omega) * conj(u + v*omega), with conj(omega) = -1 - omega
        tx, ty = x * (u - v) + y * v, y * u - x * v
        kx, ky = (2 * tx + n) // (2 * n), (2 * ty + n) // (2 * n)
        x, y, u, v = u, v, x - kx * u + ky * v, y - kx * v - ky * u + ky * v
    for _ in range(3):
        # x + y*omega = s + r*i*sqrt(3); y is even when 2 divides the gcd
        r = y // 2
        s = x - r
        if (A * s + 3 * B * r) % q2 == 0 == (B * s - A * r) % q2:
            break
        x, y = -y, x - y  # times omega
    else:
        raise ValueError("no associate of gcd(z, 2q) divides z in Z[i*sqrt(3)]")
    if s * s + 3 * r * r != q2:
        raise ValueError("gcd(z, 2q) does not have norm 2q")
    return (-r, -s) if s < 0 else (r, s)
