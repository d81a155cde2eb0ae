"""Arithmetic in Z[i*sqrt(3)]: the referee's norms, prime decomposition and
factorization, and find_rs, the gcd that extracts (r, s) for the cube
parametrization."""

import random
from functools import lru_cache
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from latticecubes.diophantine import solve_three_squares
from latticecubes.ring_arith import find_rs

from . import referee
from .referee import MINUS_ONE, ONE, RingElem, divide_exact, factor_ring, unique_decomposition


def test_norm_and_conj_basics():
    z = RingElem(2, 3)
    assert z.norm() == 4 + 27
    assert z.conj() == RingElem(2, -3)
    assert z * z.conj() == RingElem(z.norm(), 0)
    assert ONE.norm() == 1
    assert MINUS_ONE == -ONE


def test_norm_multiplicative_random():
    rng = random.Random(20210)
    for _ in range(10_000):
        z = RingElem(rng.randint(-10_000, 10_000), rng.randint(-10_000, 10_000))
        w = RingElem(rng.randint(-10_000, 10_000), rng.randint(-10_000, 10_000))
        assert (z * w).norm() == z.norm() * w.norm()


@given(
    st.integers(-10_000, 10_000), st.integers(-10_000, 10_000),
    st.integers(-10_000, 10_000), st.integers(-10_000, 10_000),
)
def test_norm_multiplicative_hypothesis(zu, zv, wu, wv):
    z, w = RingElem(zu, zv), RingElem(wu, wv)
    assert (z * w).norm() == z.norm() * w.norm()


def test_divide_exact():
    z = RingElem(5, 1) * RingElem(2, -1)
    assert divide_exact(z, RingElem(2, -1)) == RingElem(5, 1)
    assert divide_exact(RingElem(1, 1), RingElem(5, 1)) is None
    assert divide_exact(RingElem(4, 0), RingElem(2, 0)) == RingElem(2, 0)
    assert divide_exact(RingElem(1, 0), RingElem(0, 0)) is None


def test_unique_decomposition_small_cases():
    assert unique_decomposition(7) == RingElem(2, 1)
    assert unique_decomposition(13) == RingElem(1, 2)


def test_unique_decomposition_sieve():
    for p in sympy.primerange(3, 100_000):
        if p % 3 != 1:
            continue
        x, y = unique_decomposition(p)
        assert x > 0 and y > 0
        assert x * x + 3 * y * y == p


def test_unique_decomposition_rejects():
    with pytest.raises(ValueError):
        unique_decomposition(3)
    for p in (5, 11, 17, 23):
        with pytest.raises(ValueError):
            unique_decomposition(p)


def test_factor_ring_unit_norm4():
    f = factor_ring(1, 1)
    assert f.content == 1
    assert len(f.factors) == 1
    (elem, mult), = f.factors
    assert elem.norm() == 4 and mult == 1
    assert f.value() == RingElem(1, 1)


def test_factor_ring_pure_integer():
    # 2 = content 2, no ring factors (norm-4 factor needs both parts odd)
    f = factor_ring(2, 0)
    assert f.content == 2
    assert f.factors == ()
    assert f.value() == RingElem(2, 0)


def test_factor_ring_worked_example():
    # A - i sqrt(3) B for the d = 2011 plane solution, scaled by 2461
    f = factor_ring(139 * 2461, -2011 * 2461)
    assert f.content == 2461
    norms = sorted(elem.norm() for elem, _ in f.factors)
    assert norms == [4, 3_037_921]
    assert f.value() == RingElem(139 * 2461, -2011 * 2461)


def _roundtrip(u, v):
    f = factor_ring(u, v)
    assert f.value() == RingElem(u, v)
    assert f.unit in (1, -1)
    for elem, mult in f.factors:
        assert mult >= 1
        n = elem.norm()
        # each stored factor is a ring prime: norm 4, or a prime = 1 mod 3
        assert n == 4 or (sympy.isprime(n) and n % 3 == 1) or n == 3


def test_factor_ring_roundtrip_exhaustive_small():
    for u in range(-100, 101):
        for v in range(-57, 58):
            if u == 0 and v == 0:
                continue
            if u * u + 3 * v * v > 10_000:
                continue
            _roundtrip(u, v)


@given(st.integers(-1000, 1000), st.integers(-577, 577))
@settings(max_examples=300)
def test_factor_ring_roundtrip_hypothesis(u, v):
    if u == 0 and v == 0:
        return
    if u * u + 3 * v * v > 1_000_000:
        return
    _roundtrip(u, v)


def test_factor_ring_census_style_inputs(registry50):
    # the exact (A, B) shapes the cube builder feeds in
    seen = 0
    for rec in registry50.records:
        (a, b, c, d), _ = rec.source
        _roundtrip(a * c, -b * d)
        seen += 1
    assert seen == len(registry50.records) > 0


def test_find_rs_worked_example():
    # plane solution (a,b,c,d) = (139, 2461, 2461, 2011) for d = 2011
    q = 139 * 139 + 2461 * 2461
    r, s = find_rs(139 * 2461, -2461 * 2011, q)
    assert (r, s) == (-2011, 139)
    assert s * s + 3 * r * r == 2 * q


def test_find_rs_unit_case():
    # a = b = c = d = 1: q = 2, gcd of (1 - i sqrt 3) and 4
    r, s = find_rs(1, -1, 2)
    assert abs(r) == 1 and abs(s) == 1
    assert s * s + 3 * r * r == 4


def test_find_rs_takes_a_2q_divisible_by_3():
    # off the census domain (q = a^2 + b^2 = 2 mod 3 there): 3 + i sqrt 3
    # has norm 12 = 2q and divides itself
    assert find_rs(3, 1, 6) == (1, 3)


def test_find_rs_is_the_one_associate_that_divides():
    # of the gcd's six associates, exactly +-f divide z = ac - bd i sqrt 3 in
    # Z[i sqrt 3]; the other four, f * omega and f * omega^2 up to sign, do not
    seen = 0
    for d in range(1, 152, 2):
        for a, b, c, _ in _plane_solutions(d):
            A, B, q2 = a * c, -b * d, 2 * (a * a + b * b)
            r, s = find_rs(A, B, a * a + b * b)
            assert s > 0
            passing = []
            for _ in range(3):
                passing.append((A * s + 3 * B * r) % q2 == 0 == (B * s - A * r) % q2)
                # s + r i sqrt 3 times omega = (-1 + i sqrt 3) / 2
                r, s = (s - r) // 2, (-s - 3 * r) // 2
            assert passing == [True, False, False], (a, b, c, d)
            seen += 1
    assert seen == sum(len(_plane_solutions(d)) for d in range(1, 152, 2))


def test_find_rs_output_identity(registry50):
    for rec in registry50.records:
        (a, b, c, d), _ = rec.source
        q = a * a + b * b
        r, s = find_rs(a * c, -b * d, q)
        assert s * s + 3 * r * r == 2 * q


def test_find_rs_rejects_incompatible():
    with pytest.raises(ValueError, match="2q must divide"):
        find_rs(25, 0, 10)
    # gcd(5 + 5 i sqrt(3), 20) = 10 times a unit, of norm 100, not 20
    with pytest.raises(ValueError, match="norm 2q"):
        find_rs(5, 5, 10)
    # q < 1 or a zero element: a ValueError, not a ZeroDivisionError
    for A, B, q in ((1, 1, 0), (0, 0, 0), (0, 0, 5), (1, 1, -2)):
        with pytest.raises(ValueError, match="q >= 1 and A"):
            find_rs(A, B, q)


# -- differential tests: find_rs against the full-norm factorization --------


def _find_rs_by_factor_ring(A, B, q):
    """Referee: the factor of norm 2q selected prime by prime from
    factor_ring(A, B), which trial-divides the whole norm of
    A + B i sqrt(3), returned with s > 0 as find_rs returns it."""
    if (A * A + 3 * B * B) % (2 * q) != 0:
        raise ValueError("2q must divide A^2 + 3B^2")
    fac = factor_ring(A, B)
    common = gcd(fac.content, 2 * q)
    qq = (2 * q) // (common * common)
    if qq * common * common != 2 * q:
        raise ValueError("content mismatch")
    acc = RingElem(common, 0)
    for p, e in sympy.factorint(qq).items():
        if p == 2:
            assert e == 2
            e = 1
        target = 4 if p == 2 else p
        matched = [(f, m) for f, m in fac.factors if f.norm() == target]
        if not matched:
            raise ValueError(f"required factor of norm {target} not present")
        f, m = matched[0]
        for _ in range(min(m, e)):
            acc = acc * f
    s, r = acc.u, acc.v
    if s * s + 3 * r * r != 2 * q:
        s, r = r, s
    if s * s + 3 * r * r != 2 * q:
        raise ValueError("factor selection does not multiply to norm 2q")
    return (-r, -s) if s < 0 else (r, s)


@lru_cache(maxsize=None)
def _plane_solutions(d):
    return solve_three_squares(d)


def test_find_rs_matches_factor_ring_selection():
    seen = 0
    for d in range(1, 152, 2):
        for a, b, c, _ in _plane_solutions(d):
            q = a * a + b * b
            assert find_rs(a * c, -b * d, q) == _find_rs_by_factor_ring(a * c, -b * d, q), (a, b, c, d)
            seen += 1
    assert seen == sum(len(_plane_solutions(d)) for d in range(1, 152, 2)) > 1000


@given(
    st.integers(0, 300).map(lambda i: 2 * i + 1),
    st.integers(0, 10_000),
    st.permutations([0, 1, 2]),
    st.tuples(st.sampled_from((1, -1)), st.sampled_from((1, -1)), st.sampled_from((1, -1))),
)
@settings(max_examples=150, deadline=None)
def test_find_rs_matches_referee_on_random_plane_solutions(d, pick, perm, signs):
    # any ordering and signing of a plane solution satisfies the plane
    # equation, so it is a valid find_rs input even off the census path
    sols = _plane_solutions(d)
    abc = sols[pick % len(sols)][:3]
    a, b, c = (signs[i] * abc[perm[i]] for i in range(3))
    q = a * a + b * b
    assert find_rs(a * c, -b * d, q) == _find_rs_by_factor_ring(a * c, -b * d, q)


# -- pipeline checks are typed raises, so they hold under python -O ----------


def _wrong_decomposition(elem):
    def patched(p):
        return elem

    return patched


@pytest.mark.parametrize(
    "call, patch, exc",
    [
        # 2q = 2 has 2-adic valuation 1: gcd(1 + i sqrt 3, 2) = 2 has norm 4
        pytest.param(lambda: find_rs(1, 1, 1), None, ValueError, id="gcd-of-norm-4-not-2q"),
        (lambda: find_rs(7, 0, 7), None, ValueError),  # 14 does not divide 49
        # a "prime factor" of norm 1 never reduces 2 + i sqrt 3 to a unit
        (lambda: factor_ring(2, 1), RingElem(1, 0), ArithmeticError),
        # a factor of the wrong norm divides in neither orientation
        (lambda: factor_ring(2, 1), RingElem(2, 3), ArithmeticError),
    ],
)
def test_ring_checks_raise_typed_errors(monkeypatch, call, patch, exc):
    if patch is not None:
        monkeypatch.setattr(referee, "unique_decomposition", _wrong_decomposition(patch))
    with pytest.raises(exc):
        call()
