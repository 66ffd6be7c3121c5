"""Hirzebruch-Jung (minus) continued fractions and 2x2 integer matrices.

Everything here runs on Python integers, so chain determinants may grow
without overflow.  The determinant of an empty term list is 1 and the
determinant of a list that is "one too short" is 0, matching the usual
continuant recursion.
"""
from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

from .inputs import Record


class Mat2(Record):
    """Integer 2x2 matrix with rows (p, q) and (r, s)."""

    __slots__ = ("p", "q", "r", "s")

    def __init__(self, p: int, q: int, r: int, s: int) -> None:
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "s", s)

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1, 0, 0, 1)

    def det(self) -> int:
        return self.p * self.s - self.q * self.r

    def trace(self) -> int:
        return self.p + self.s

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.p * other.p + self.q * other.r,
            self.p * other.q + self.q * other.s,
            self.r * other.p + self.s * other.r,
            self.r * other.q + self.s * other.s,
        )

    def __neg__(self) -> "Mat2":
        return Mat2(-self.p, -self.q, -self.r, -self.s)

    def inverse(self) -> "Mat2":
        d = self.det()
        if d == 1:
            return Mat2(self.s, -self.q, -self.r, self.p)
        if d == -1:
            return Mat2(-self.s, self.q, self.r, -self.p)
        raise ValueError(f"matrix with det {d} has no integer inverse")

    def __pow__(self, n: int) -> "Mat2":
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        result = Mat2.identity()
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def apply(self, v: tuple[int, int]) -> tuple[int, int]:
        return (self.p * v[0] + self.q * v[1], self.r * v[0] + self.s * v[1])

    def __str__(self) -> str:
        return f"(({self.p},{self.q}),({self.r},{self.s}))"


def hj_numerator(terms: Sequence[int]) -> int:
    """det[b_1,...,b_s]: numerator of the minus continued fraction.

    Recursion det[] = 1, det[b_s] = b_s,
    det[b_k,...] = b_k*det[b_{k+1},...] - det[b_{k+2},...].
    Computed front-to-back; the continuant is reversal-invariant.
    """
    prev2, prev1 = 0, 1  # det of "one too short", det[]
    for b in reversed(list(terms)):
        prev2, prev1 = prev1, b * prev1 - prev2
    return prev1


def hj_pair(terms: Sequence[int]) -> tuple[int, int]:
    """(numerator, second numerator): [b_1..b_s] = alpha/omega."""
    ts = list(terms)
    return hj_numerator(ts), hj_numerator(ts[1:])


def hj_expand(alpha: int, omega: int) -> list[int]:
    """Terms [b_1,...,b_s] with alpha/omega = b_1 - 1/(b_2 - 1/(...)).

    Requires 0 < omega < alpha and gcd(alpha, omega) = 1 (alpha = 1 is
    rejected since there is no valid omega).  All emitted terms are >= 2.
    """
    if not (0 < omega < alpha):
        raise ValueError(f"need 0 < omega < alpha, got alpha={alpha}, omega={omega}")
    if gcd(alpha, omega) != 1:
        raise ValueError(f"alpha={alpha} and omega={omega} must be coprime")
    terms = []
    a, w = alpha, omega
    while w > 0:
        b = -((-a) // w)  # ceil(a / w)
        terms.append(b)
        a, w = w, b * w - a
    return terms


def mono_product(terms: Iterable[int]) -> Mat2:
    """Product of the matrices ((a_i, 1), (-1, 0)) in the given order.

    Right-multiplying by ((a, 1), (-1, 0)) sends each row (x, y) to
    (a*x - y, x), so both rows run the continuant recurrence on plain
    ints and only the result is a Mat2.
    """
    p, q, r, s = 1, 0, 0, 1
    for a in terms:
        p, q = a * p - q, p
        r, s = a * r - s, r
    return Mat2(p, q, r, s)
