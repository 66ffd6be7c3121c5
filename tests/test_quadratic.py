from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arclink.quadratic import QuadNum, is_square, parse_quad_token, quadint_sign

_rats = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_ds = st.sampled_from([2, 3, 5, 6, 7, 10])


@given(_rats, _rats, _ds)
@settings(max_examples=200)
def test_sign_matches_float(a, b, d):
    x = QuadNum.of(a, b, d)
    approx = float(a) + float(b) * d**0.5
    if abs(approx) > 1e-9:
        assert x.sign() == (1 if approx > 0 else -1)
    elif a == 0 and b == 0:
        assert x.sign() == 0


@given(_rats, _rats, _rats, _rats, _ds)
@settings(max_examples=200)
def test_norm_multiplicative_and_conjugation(a1, b1, a2, b2, d):
    x = QuadNum.of(a1, b1, d)
    y = QuadNum.of(a2, b2, d)
    assert (x * y).norm() == x.norm() * y.norm()
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()


def test_inverse_and_powers():
    x = QuadNum.of(Fraction(1, 2), Fraction(1, 2), 5)
    assert x * x.inverse() == QuadNum.of(1)
    assert x ** 3 == x * x * x
    assert x ** -2 == (x.inverse()) * (x.inverse())


def test_rational_normalization():
    # Rational values forget d so equality works across fields.
    assert QuadNum.of(Fraction(1, 2), 0, 5) == QuadNum.of(Fraction(1, 2), 0, 2)
    assert hash(QuadNum.of(3, 0, 7)) == hash(QuadNum.of(3))


def test_field_mixing_rules():
    x = QuadNum.of(1, 1, 5)
    y = QuadNum.of(1, 1, 2)
    with pytest.raises(ValueError):
        _ = x + y
    assert (x + QuadNum.of(2)).d == 5


def test_square_d_rejected():
    with pytest.raises(ValueError):
        QuadNum.of(0, 1, 4)
    with pytest.raises(ValueError):
        QuadNum.of(0, 1, 0)


def test_integer_sqrt_comparisons():
    assert is_square(49) and not is_square(50)


def test_quadint_sign_cases():
    assert quadint_sign(0, 0, 5) == 0
    assert quadint_sign(3, -1, 5) == 1  # 3 - sqrt5 > 0
    assert quadint_sign(2, -1, 5) == -1  # 2 - sqrt5 < 0
    assert quadint_sign(-2, 1, 5) == 1
    assert quadint_sign(-3, 1, 5) == -1


def test_parse_quad_tokens():
    assert parse_quad_token("3", 5) == QuadNum.of(3)
    assert parse_quad_token("-1/2", 5) == QuadNum.of(Fraction(-1, 2))
    assert parse_quad_token("1/2+1/2*sqrt", 5) == QuadNum.of(Fraction(1, 2), Fraction(1, 2), 5)
    assert parse_quad_token("sqrt", 2) == QuadNum.of(0, 1, 2)
    assert parse_quad_token("-3/4*sqrt", 2) == QuadNum.of(0, Fraction(-3, 4), 2)
    assert parse_quad_token("2*sqrt", 3) == QuadNum.of(0, 2, 3)
    for bad in ("", "1/2 1/2", "1/2sqrt", "x+sqrt"):
        with pytest.raises(ValueError):
            parse_quad_token(bad, 5)
