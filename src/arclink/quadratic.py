"""Exact arithmetic in real quadratic fields Q(sqrt(d)).

Elements are stored as a + b*sqrt(d) with rational a, b and a squarefree
positive integer d.  All sign decisions are made by comparing a^2 with
d*b^2; no floating point enters any predicate.
"""
from __future__ import annotations

import re
from fractions import Fraction
from math import isqrt
from typing import Union

from .inputs import Record

Rat = Union[int, Fraction]


def _frac(x: Rat) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def quadint_sign(a: int, b: int, d: int) -> int:
    """Exact sign of a + b*sqrt(d) with integer a, b and non-square d > 0."""
    if b == 0:
        return 0 if a == 0 else (1 if a > 0 else -1)
    if a == 0:
        return 1 if b > 0 else -1
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    # Opposite signs: compare a^2 against d*b^2.
    cmp = a * a - d * b * b
    if cmp == 0:
        raise ValueError(f"{a} + {b}*sqrt({d}) vanishes; d must not be a square")
    if a > 0:  # b < 0
        return 1 if cmp > 0 else -1
    return -1 if cmp > 0 else 1


class QuadNum(Record):
    """a + b*sqrt(d), exact.  d = 0 is allowed for plain rationals."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Fraction, b: Fraction, d: int) -> None:
        a, b = _frac(a), _frac(b)
        if b == 0:
            # Canonical form: rational values forget d, so equality and
            # hashing agree across fields.
            d = 0
        else:
            if d <= 0:
                raise ValueError("irrational part requires a positive d")
            if is_square(d):
                raise ValueError(f"d={d} must not be a perfect square")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    @staticmethod
    def of(a: Rat, b: Rat = 0, d: int = 0) -> "QuadNum":
        return QuadNum(_frac(a), _frac(b), d)

    def _join(self, other: "QuadNum") -> int:
        """Common d for a binary operation; rational operands adapt."""
        if self.b == 0:
            return other.d
        if other.b == 0 or self.d == other.d:
            return self.d
        raise ValueError(f"cannot mix sqrt({self.d}) with sqrt({other.d})")

    def _coerce(self, other: object) -> "QuadNum":
        if isinstance(other, QuadNum):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadNum.of(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: object) -> "QuadNum":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._join(o)
        return QuadNum(self.a + o.a, self.b + o.b, d)

    __radd__ = __add__

    def __neg__(self) -> "QuadNum":
        return QuadNum(-self.a, -self.b, self.d)

    def __sub__(self, other: object) -> "QuadNum":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> "QuadNum":
        o = self._coerce(other)
        return o - self

    def __mul__(self, other: object) -> "QuadNum":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = self._join(o)
        return QuadNum(self.a * o.a + d * self.b * o.b, self.a * o.b + self.b * o.a, d)

    __rmul__ = __mul__

    def inverse(self) -> "QuadNum":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero or degenerate quadratic number")
        return QuadNum(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other: object) -> "QuadNum":
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def conjugate(self) -> "QuadNum":
        return QuadNum(self.a, -self.b, self.d)

    def norm(self) -> Fraction:
        return self.a * self.a - self.d * self.b * self.b

    def trace(self) -> Fraction:
        return 2 * self.a

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        if self.b == 0:
            return 0 if self.a == 0 else (1 if self.a > 0 else -1)
        # Scale to integers: sign is invariant under positive scaling.
        den = self.a.denominator * self.b.denominator
        ai = self.a.numerator * (den // self.a.denominator)
        bi = self.b.numerator * (den // self.b.denominator)
        return quadint_sign(ai, bi, self.d)

    def __lt__(self, other: object) -> bool:
        o = self._coerce(other)
        return (self - o).sign() < 0

    def __le__(self, other: object) -> bool:
        o = self._coerce(other)
        return (self - o).sign() <= 0

    def __gt__(self, other: object) -> bool:
        o = self._coerce(other)
        return (self - o).sign() > 0

    def __ge__(self, other: object) -> bool:
        o = self._coerce(other)
        return (self - o).sign() >= 0

    def __pow__(self, n: int) -> "QuadNum":
        if n < 0:
            return self.inverse() ** (-n)
        result = QuadNum.of(1, 0, self.d)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt({self.d})"
        op = "+" if self.b > 0 else "-"
        return f"{self.a} {op} {abs(self.b)}*sqrt({self.d})"


_QUAD_TOKEN = re.compile(
    r"^(?P<rat>[+-]?\d+(?:/\d+)?)?"
    r"(?:(?P<op>[+-])?(?P<coef>\d+(?:/\d+)?\*)?sqrt)?$"
)


def parse_quad_token(token: str, d: int) -> QuadNum:
    """Parse tokens like '3', '-1/2', '1/2+1/2*sqrt', 'sqrt', '-3/4*sqrt'."""
    m = _QUAD_TOKEN.match(token.replace(" ", ""))
    if not m or (m.group("rat") is None and "sqrt" not in token):
        raise ValueError(f"bad quadratic token {token!r}")
    try:
        rat = Fraction(m.group("rat")) if m.group("rat") else Fraction(0)
        b = Fraction(0)
        if "sqrt" in token:
            coef = m.group("coef")
            b = Fraction(coef[:-1]) if coef else Fraction(1)
            if m.group("op") == "-":
                b = -b
            elif m.group("op") is None and m.group("rat") is not None:
                raise ValueError(f"missing sign before sqrt part in {token!r}")
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {token!r}") from None
    return QuadNum.of(rat, b, d if b else 0)
