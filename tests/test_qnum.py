"""Tests for exact q-number arithmetic.

Expected polynomials are frozen from independent hand expansions
(polynomial long division / explicit term-by-term products), not from
the code under test.
"""

import math
from fractions import Fraction as Q

import mpmath
import pytest
from hypothesis import given, strategies as st

from sp4q.qnum import (
    LaurentPoly,
    QRationalFn,
    eval_at,
    limit_q1,
    q_bracket,
    q_factorial,
    q_int,
    q_power,
    taylor_coefficients,
)


def lp(d):
    return LaurentPoly(d)


# -- frozen values -----------------------------------------------------------


def test_q_int_small_values():
    # [(q^n - q^-n)/(q - q^-1)] expanded by hand; exponents are in s = q^(1/4).
    assert q_int(0) == lp({})
    assert q_int(1) == lp({0: 1})
    assert q_int(2) == lp({4: 1, -4: 1})
    assert q_int(3) == lp({8: 1, 0: 1, -8: 1})
    assert q_int(5) == lp({16: 1, 8: 1, 0: 1, -8: 1, -16: 1})
    assert q_int(-4) == -q_int(4)


def test_q_int_base_two():
    # [n]_2 = (q^2n - q^-2n)/(q^2 - q^-2) by long division.
    assert q_int(2, 2) == lp({8: 1, -8: 1})
    assert q_int(3, 2) == lp({16: 1, 0: 1, -16: 1})


def test_q_factorial():
    # [3]! = (q + q^-1)(q^2 + 1 + q^-2) = q^3 + 2q + 2q^-1 + q^-3
    assert q_factorial(0) == lp({0: 1})
    assert q_factorial(1) == lp({0: 1})
    assert q_factorial(3) == lp({12: 1, 4: 2, -4: 2, -12: 1})
    with pytest.raises(ValueError):
        q_factorial(-1)


def test_q_power_quarter_integers():
    assert q_power(Q(1, 2)) == lp({2: 1})
    assert q_power(Q(-3, 4)) == lp({-3: 1})
    assert q_power(2) == lp({8: 1})
    with pytest.raises(ValueError):
        q_power(Q(1, 3))


# -- bracket identities -------------------------------------------------------


def test_bracket_base_m_reduces_to_quotient():
    # [n]_m * [m] == [m n]  for n = 0..12, m = 1..3
    for m in range(1, 4):
        for n in range(0, 13):
            assert q_int(n, m) * q_int(m) == q_int(m * n)


def test_bracket_antisymmetry_in_base():
    for m in range(1, 4):
        for n in range(0, 9):
            assert q_int(-n, m) == -q_int(n, m)


def test_cross_product_identity():
    # [a][b+1] - [b][a+1] == [a - b]
    for a in range(0, 11):
        for b in range(0, 11):
            assert q_int(a) * q_int(b + 1) - q_int(b) * q_int(a + 1) == q_int(a - b)


def test_shift_identities():
    # [x+1] - q[x] = q^-x  and  [x+1] - q^-1 [x] = q^x
    for x in range(0, 13):
        assert q_int(x + 1) - q_power(1) * q_int(x) == q_power(-x)
        assert q_int(x + 1) - q_power(-1) * q_int(x) == q_power(x)


def test_product_difference_identities():
    # [x+1][y+1] - [x][y] == [x+y+1]   and   [x+1][x-1] == [x]^2 - 1
    for x in range(0, 9):
        for y in range(0, 9):
            assert q_int(x + 1) * q_int(y + 1) - q_int(x) * q_int(y) == q_int(x + y + 1)
    for x in range(1, 9):
        assert q_int(x + 1) * q_int(x - 1) == q_int(x) * q_int(x) - LaurentPoly.one()


def test_half_integer_brackets():
    half = q_bracket(Q(1, 2))
    # [1/2] * (q^(1/2) + q^(-1/2)) == 1
    assert half * QRationalFn(lp({2: 1, -2: 1})) == 1
    # [1/2][3/2] == 1 - [1/2]^2
    assert half * q_bracket(Q(3, 2)) == 1 - half * half
    # [x+1/2][x-1/2] == [x]^2 - [1/2]^2
    for x in range(1, 7):
        lhs = q_bracket(x + Q(1, 2)) * q_bracket(x - Q(1, 2))
        rhs = QRationalFn(q_int(x) * q_int(x)) - half * half
        assert lhs == rhs


def test_bracket_quarter_base2():
    # [1/4]_2 = (q^(1/2)-q^(-1/2))/(q^2-q^(-2)) and [x]_2 = [2x]/[2]
    b = q_bracket(Q(1, 4), 2)
    assert b == QRationalFn(lp({2: 1, -2: -1}), lp({8: 1, -8: -1}))
    for x in range(0, 7):
        assert q_bracket(Q(x, 2), 2) == QRationalFn(q_int(x), q_int(2))


# -- evaluation ----------------------------------------------------------------


def test_eval_matches_closed_form():
    for q in (0.7, 1.3):
        for n in range(1, 13):
            expect = (q**n - q**-n) / (q - 1 / q)
            assert eval_at(q_int(n), q) == pytest.approx(expect, rel=1e-13)


def test_eval_rejects_nonpositive_q():
    for q in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and positive"):
            eval_at(q_int(2), q)


def test_limit_q1():
    for n in range(-12, 13):
        assert limit_q1(q_int(n)) == n
    for x in (Q(1, 2), Q(3, 2), Q(5, 2), Q(-7, 2), Q(1, 4)):
        assert limit_q1(q_bracket(x)) == x
        assert limit_q1(q_bracket(x, 2)) == x
    assert limit_q1(q_factorial(4)) == 24


# -- Taylor expansion in tau (q = e^tau) ----------------------------------------


def test_taylor_exponential():
    # q^1 = e^tau: coefficients 1, 1, 1/2, 1/6
    assert taylor_coefficients(q_power(1), 3) == [1, 1, Q(1, 2), Q(1, 6)]


def test_taylor_two_bracket():
    # [2](e^tau) = e^tau + e^-tau = 2 + tau^2 + tau^4/12
    assert taylor_coefficients(q_int(2), 4) == [2, 0, 1, 0, Q(1, 12)]


def test_taylor_quotient():
    # [1/2] = sinh(tau/2)/sinh(tau) = 1/(2 cosh(tau/2)) = 1/2 - tau^2/16 + ...
    assert taylor_coefficients(q_bracket(Q(1, 2)), 2) == [Q(1, 2), 0, Q(-1, 16)]


# -- coefficient representation and caches --------------------------------------


def _normal(p):
    """Every integral coefficient an int, every other one a Fraction."""
    return all(
        type(v) is int if v.denominator == 1 else type(v) is Q for v in p.c.values()
    )


def test_integral_coefficients_are_ints():
    a = lp({0: Q(4, 2), 3: Q(-6, 3)})
    assert a.c == {0: 2, 3: -2} and _normal(a)
    assert _normal(lp({1: Q(1, 2)}) * 2)
    assert (lp({1: Q(1, 2)}) * 2).c == {1: 1}
    assert (lp({0: Q(1, 2)}) + Q(1, 2)).c == {0: 1}
    assert _normal(q_factorial(6)) and _normal(q_int(5) * q_int(3))


def test_non_integral_coefficients_stay_fractions():
    a = lp({0: Q(1, 3)}) * 2 + 1
    assert a.c == {0: Q(5, 3)} and type(a.c[0]) is Q
    assert type((lp({2: 1}) * Q(1, 2)).c[2]) is Q


def test_int_and_fraction_built_polys_agree():
    a, b = lp({0: 1, 4: -3}), lp({0: Q(1), 4: Q(-3)})
    assert a == b and hash(a) == hash(b)
    assert lp({0: Q(1)}).is_one


def test_q_factorial_memoised_and_still_validates():
    assert q_factorial(7) is q_factorial(7)
    for _ in range(2):
        with pytest.raises(ValueError):
            q_factorial(-1)


def test_exact_limits_stay_fractions():
    assert type(limit_q1(q_factorial(4))) is Q
    assert type(q_factorial(4).at_one()) is Q
    assert all(type(v) is Q for v in taylor_coefficients(q_int(3), 3))


# -- ring axioms (property-based) ------------------------------------------------

coeffs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
polys = st.dictionaries(
    st.integers(min_value=-8, max_value=8), coeffs, max_size=5
).map(LaurentPoly)


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + LaurentPoly.zero() == a
    assert a * LaurentPoly.one() == a
    assert a - a == LaurentPoly.zero()


@given(polys, polys)
def test_ring_operations_keep_coefficients_normal(a, b):
    assert _normal(a) and _normal(b)
    assert _normal(a + b) and _normal(a - b) and _normal(a * b)


@given(polys, polys)
def test_bar_is_ring_involution(a, b):
    assert a.bar().bar() == a
    assert (a * b).bar() == a.bar() * b.bar()
    assert (a + b).bar() == a.bar() + b.bar()


@given(st.integers(min_value=-10, max_value=10))
def test_bracket_invariant_under_q_inversion(n):
    assert q_int(n).bar() == q_int(n)


@given(polys, polys, polys)
def test_rational_fn_cross_equality(a, b, c):
    # a/b == (a c)/(b c) whenever b, c != 0
    if b.is_zero or c.is_zero:
        return
    assert QRationalFn(a, b) == QRationalFn(a * c, b * c)


# -- one-term products against the general product loop --------------------------


def _ref_mul(x: dict, y: dict) -> list:
    """Coefficients (with types) of the general term-by-term product loop,
    in insertion order."""
    c = {}
    for k1, v1 in x.items():
        for k2, v2 in y.items():
            k = k1 + k2
            w = c.get(k, 0) + v1 * v2
            if w:
                c[k] = w
            elif k in c:
                del c[k]
    out = []
    for k, w in c.items():
        if type(w) is Q and w.denominator == 1:
            w = w.numerator
        out.append((k, w, type(w)))
    return out


monomials = st.builds(
    lambda e, v: LaurentPoly({e: v}),
    st.integers(min_value=-8, max_value=8),
    coeffs.filter(bool),
)


@given(polys, monomials)
def test_one_term_products_match_general_loop(a, m):
    for x, y in ((a, m), (m, a), (m, m)):
        got = [(k, v, type(v)) for k, v in (x * y).c.items()]
        assert got == _ref_mul(x.c, y.c)
    assert [(k, v, type(v)) for k, v in (a * 3).c.items()] == _ref_mul(a.c, {0: 3})
    assert [(k, v, type(v)) for k, v in (Q(1, 2) * a).c.items()] == _ref_mul(
        a.c, {0: Q(1, 2)}
    )


def test_over_s_minus_one_is_exact_division():
    p = lp({-3: 2, 1: -5, 4: 3})  # 2 s^-3 - 5 s + 3 s^4 vanishes at s = 1
    quotient = p.over_s_minus_one()
    assert quotient * lp({1: 1, 0: -1}) == p


def test_rational_fn_exact_near_q_one():
    # [1/2] and [j][j+1] cancel in numerator and denominator at q = 1
    for f in (q_bracket(Q(1, 2)), q_bracket(3) * q_bracket(4), q_bracket(Q(5, 2), 2)):
        assert f(1.0) == pytest.approx(float(limit_q1(f)), rel=1e-14)
        with mpmath.workdps(50):
            for q in (1 + 1e-9, 1 - 1e-7, 1.001, 0.97):
                ref = f.eval_mp(mpmath.mpf(q))
                assert abs(f(q) - ref) <= 1e-13 * abs(ref)


int_polys = st.dictionaries(
    st.integers(min_value=-40, max_value=40), st.integers(min_value=-50, max_value=50),
    max_size=6,
).map(LaurentPoly)


def _ref_taylor(p, order):
    """Taylor coefficients by per-term Fraction arithmetic."""
    return [
        sum((v * Q(k, 4) ** j for k, v in p.c.items()), Q(0)) / math.factorial(j)
        for j in range(order + 1)
    ]


@given(st.one_of(int_polys, polys), st.integers(min_value=0, max_value=8))
def test_taylor_coefficients_match_fraction_arithmetic(p, order):
    got = taylor_coefficients(p, order)
    assert got == _ref_taylor(p, order)
    assert all(type(v) is Q for v in got)


@given(st.one_of(int_polys, polys))
def test_at_one_is_the_fraction_sum_of_coefficients(p):
    got = p.at_one()
    assert type(got) is Q and got == sum(p.c.values(), Q(0))
