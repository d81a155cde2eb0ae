"""Counting and enumerating the Diophantine data: plane solutions
a^2 + b^2 + c^2 = 3 d^2, the norm-form solutions m^2 - mn + n^2 = k^2,
and the closed-form representation count pi_epsilon."""

import math
from fractions import Fraction
from itertools import product

import pytest
import sympy

from latticecubes.diophantine import (
    NormFormSolution,
    PlaneSolution,
    dedekind_psi,
    diagonal_key,
    gamma2,
    k_values,
    lambda_d,
    legendre_minus3,
    pi_epsilon,
    plane_quaternions,
    prime_powers,
    solve_norm_form,
    solve_three_squares,
)


def test_dedekind_psi():
    assert [dedekind_psi(n) for n in range(1, 10)] == [1, 3, 4, 6, 6, 12, 8, 12, 12]
    for n in range(1, 2000):
        want = Fraction(n)
        for p in sympy.primefactors(n):
            want *= Fraction(p + 1, p)
        assert dedekind_psi(n) == want, n
    with pytest.raises(ValueError):
        dedekind_psi(0)


def test_legendre_minus3_values():
    assert legendre_minus3(7) == 1
    assert legendre_minus3(13) == 1
    assert legendre_minus3(5) == -1
    assert legendre_minus3(11) == -1
    assert legendre_minus3(3) == 0


def test_legendre_minus3_rejects_nonprime():
    with pytest.raises(ValueError):
        legendre_minus3(9)
    with pytest.raises(ValueError):
        legendre_minus3(2)


def test_lambda_d_values():
    assert lambda_d(1) == 8
    assert lambda_d(5) == 48
    assert lambda_d(2011) == 16080


def test_gamma2_values():
    assert gamma2(1) == 1
    assert gamma2(3) == 1
    assert gamma2(5) == 0
    assert gamma2(11) == 2
    assert gamma2(2011) == 2


def test_pi_epsilon_values():
    assert pi_epsilon(1) == 1
    assert pi_epsilon(3) == 1
    assert pi_epsilon(9) == 2
    assert pi_epsilon(15) == 3
    assert pi_epsilon(2011) == 336


def test_pi_epsilon_matches_enumeration():
    for d in [*range(1, 1000, 2), 2011]:
        assert pi_epsilon(d) == len(solve_three_squares(d)), d


def test_solve_three_squares_small():
    assert solve_three_squares(1) == [PlaneSolution(1, 1, 1, 1)]
    assert solve_three_squares(3) == [PlaneSolution(1, 1, 5, 3)]
    assert solve_three_squares(5) == [PlaneSolution(1, 5, 7, 5)]
    assert solve_three_squares(9) == [
        PlaneSolution(1, 11, 11, 9),
        PlaneSolution(5, 7, 13, 9),
    ]


def test_solve_three_squares_invariants():
    for d in range(1, 60, 2):
        for a, b, c, dd in solve_three_squares(d):
            assert dd == d
            assert 0 < a <= b <= c
            # all three odd: squares mod 8 force 1+1+1 = 3 d^2 mod 8
            assert a % 2 == b % 2 == c % 2 == 1
            assert a * a + b * b + c * c == 3 * d * d
            assert math.gcd(math.gcd(a, b), c) == 1


def test_solve_three_squares_rejects_even():
    with pytest.raises(ValueError):
        solve_three_squares(4)


def _qmul(p, q):
    """The Hamilton product of quaternions given as (w, x, y, z)."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def test_plane_quaternions_map_the_diagonal_to_their_solution():
    # the table's keys are the solutions; each q has norm d, and q(i+j+k)q-bar,
    # by Hamilton products, has the solution's sorted |coordinates|
    for d in range(1, 302, 2):
        table = plane_quaternions(d)
        assert list(table) == solve_three_squares(d)
        for (a, b, c, _), q in table.items():
            w, x, y, z = q
            assert w * w + x * x + y * y + z * z == d, (d, q)
            zero, *image = _qmul(_qmul(q, (0, 1, 1, 1)), (w, -x, -y, -z))
            assert zero == 0 and sorted(map(abs, image)) == [a, b, c], (d, q)
    with pytest.raises(ValueError):
        plane_quaternions(4)


def test_diagonal_key_is_the_sorted_absolute_values():
    # zeros, ties and every sign, in every order of the coordinates
    for v in product(range(-5, 6), repeat=3):
        assert diagonal_key(*v) == tuple(sorted(map(abs, v))), v


def test_plane_quaternions_keep_the_first_q_of_every_sign_pattern():
    # every sorted w >= z >= y >= x >= 0 of norm d with all 8 sign patterns of
    # (x, y, z), in the table's order, imaged by Hamilton products: where an
    # image repeats, the table must keep the first q met
    for d in range(1, 302, 2):
        first = {}
        for x in range(math.isqrt(d) + 1):
            for y in range(x, math.isqrt(d) + 1):
                for z in range(y, math.isqrt(d) + 1):
                    ww = d - x * x - y * y - z * z
                    w = math.isqrt(max(ww, 0))
                    if w < z or w * w != ww:
                        continue
                    for q in product((w,), (x, -x) if x else (0,), (y, -y) if y else (0,), (z, -z) if z else (0,)):
                        _, *image = _qmul(_qmul(q, (0, 1, 1, 1)), (q[0], -q[1], -q[2], -q[3]))
                        if math.gcd(*image) == 1:
                            first.setdefault((*sorted(map(abs, image)), d), q)
        assert list(plane_quaternions(d).items()) == sorted(first.items()), d


def test_solve_norm_form_small():
    assert solve_norm_form(1) == [NormFormSolution(0, 1)]
    assert solve_norm_form(7) == [NormFormSolution(3, 8)]
    assert solve_norm_form(5) == []
    assert solve_norm_form(13) == [NormFormSolution(7, 15)]


def test_solve_norm_form_invariants():
    for k in range(1, 60, 2):
        for m, n in solve_norm_form(k):
            assert m * m - m * n + n * n == k * k
            assert math.gcd(m, n) == 1
            assert 0 <= m
            assert n > 2 * m  # the chosen fundamental-domain branch


def test_k_values():
    assert k_values(1) == [1]
    assert k_values(10) == [1, 7]
    assert k_values(50) == [1, 7, 13, 19, 31, 37, 43, 49]


def test_k_values_iff_norm_form_solvable():
    ks = set(k_values(100))
    for k in range(1, 101, 2):
        assert (k in ks) == bool(solve_norm_form(k)), k


# -- differential tests: the pruned solvers against plain scans --------------


def _three_squares_full_scan(d):
    """Referee: every (a, b) with a <= b, no parity or mod-3 pruning."""
    target = 3 * d * d
    out = []
    for a in range(1, d + 1):
        rest = target - a * a
        b = a
        while 2 * b * b <= rest:
            cc = rest - b * b
            c = math.isqrt(cc)
            if c * c == cc and math.gcd(math.gcd(a, b), c) == 1:
                out.append(PlaneSolution(a, b, c, d))
            b += 1
    return sorted(out)


def test_solve_three_squares_matches_full_scan():
    for d in range(1, 202, 2):
        assert solve_three_squares(d) == _three_squares_full_scan(d), d


def _three_squares_pruned_scan(d):
    """Referee: odd a, b prime to 3, and an isqrt test of each leftover."""
    target = 3 * d * d
    out = []
    for a in range(1, d + 1, 2):
        if a % 3 == 0:
            continue
        rest = target - a * a
        b = a
        while 2 * b * b <= rest:
            if b % 3:
                cc = rest - b * b
                c = math.isqrt(cc)
                if c * c == cc and math.gcd(math.gcd(a, b), c) == 1:
                    out.append(PlaneSolution(a, b, c, d))
            b += 2
    return sorted(out)


def test_solve_three_squares_matches_pruned_scan():
    for d in range(1, 402, 2):
        assert solve_three_squares(d) == _three_squares_pruned_scan(d), d


def _norm_form_scan(K):
    """Referee: scan every pair 0 <= m <= K, 2m < n <= 2K once and file
    the pairs with m^2 - mn + n^2 = k^2, k <= K, under k (m, then n
    ascending), as the old per-k double loop did."""
    by_k = {k: [] for k in range(1, K + 1)}
    for m in range(0, K + 1):
        for n in range(2 * m + 1, 2 * K + 1):
            v = m * m - m * n + n * n
            k = math.isqrt(v)
            if k * k == v and k <= K and math.gcd(m, n) == 1:
                by_k[k].append(NormFormSolution(m, n))
    return by_k


def test_solve_norm_form_matches_scan():
    scanned = _norm_form_scan(301)
    assert sum(map(len, scanned.values())) > 40
    for k, want in scanned.items():
        assert solve_norm_form(k) == want, k


# -- differential tests: the trial-division factorizer and its callers
# against sympy, which the tests keep as an independent referee ---------------


def test_prime_powers_matches_sympy():
    assert prime_powers(0) == prime_powers(1) == []
    for n in range(1, 10_001):
        assert prime_powers(n) == sorted(sympy.factorint(n).items()), n


def test_legendre_minus3_matches_sympy():
    for p in (0, 1, 2, 9, 25, 91):
        with pytest.raises(ValueError):
            legendre_minus3(p)
    for p in range(0, 5001):
        if p % 2 and sympy.isprime(p):
            assert legendre_minus3(p) == sympy.legendre_symbol(-3 % p, p), p
        else:
            with pytest.raises(ValueError):
                legendre_minus3(p)


def _chi(p):
    return sympy.legendre_symbol(-3 % p, p)


def test_lambda_d_and_gamma2_match_sympy():
    for d in range(1, 2002, 2):
        primes = sympy.primefactors(d)
        want = Fraction(8 * d)
        for p in primes:
            want *= 1 - Fraction(_chi(p), p)
        assert lambda_d(d) == want, d
        if d == 3:
            want_g = 1
        elif any(p % 8 in (5, 7) for p in primes):
            want_g = 0
        else:
            want_g = 2 ** sum(1 for p in primes if p != 3)
        assert gamma2(d) == want_g, d


def test_k_values_match_sympy():
    want = [k for k in range(1, 3001, 2) if all(p % 3 == 1 for p in sympy.primefactors(k))]
    assert k_values(3000) == want
