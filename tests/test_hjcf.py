from __future__ import annotations

from math import gcd

import pytest
from hypothesis import example, given, strategies as st

from arclink.hjcf import Mat2, hj_expand, hj_numerator, hj_pair, mono_product


def test_expand_examples():
    assert hj_expand(2, 1) == [2]
    assert hj_expand(5, 2) == [3, 2]  # 3 - 1/2 = 5/2
    assert hj_expand(5, 4) == [2, 2, 2, 2]


def test_expand_rejects_bad_input():
    with pytest.raises(ValueError):
        hj_expand(5, 5)
    with pytest.raises(ValueError):
        hj_expand(4, 2)
    with pytest.raises(ValueError):
        hj_expand(3, 0)


def test_numerator_examples():
    assert hj_numerator([2, 2, 2, 2]) == 5
    assert hj_numerator([3, 2]) == 5
    assert hj_numerator([17]) == 17
    assert hj_numerator([]) == 1
    assert hj_pair([7]) == (7, 1)


def test_roundtrip_exhaustive_to_200():
    # The expansion and the continuant are mutually inverse on all
    # coprime pairs 0 < omega < alpha <= 200.
    for alpha in range(2, 201):
        for omega in range(1, alpha):
            if gcd(alpha, omega) != 1:
                continue
            terms = hj_expand(alpha, omega)
            assert all(b >= 2 for b in terms)
            assert hj_numerator(terms) == alpha
            assert hj_numerator(terms[1:]) == omega


def test_mono_product_examples():
    assert mono_product([3]) == Mat2(3, 1, -1, 0)
    assert mono_product([3, 3, 3]) == Mat2(21, 8, -8, -3)
    assert mono_product([2, 2, 3, 4]) == Mat2(25, 7, -18, -5)


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=10))
def test_mono_product_unimodular(terms):
    assert mono_product(terms).det() == 1


@given(st.lists(st.integers(2, 9), min_size=1, max_size=9))
def test_mono_product_entries_are_continuants(terms):
    m = mono_product(terms)
    assert m.p == hj_numerator(terms)
    assert m.q == hj_numerator(terms[:-1])


def _product_oracle(terms) -> Mat2:
    # The definition: Mat2 products of ((a, 1), (-1, 0)), left to right.
    result = Mat2.identity()
    for a in terms:
        result = result * Mat2(a, 1, -1, 0)
    return result


@given(st.lists(st.integers(-10**30, 10**30), max_size=64))
@example([])
def test_mono_product_matches_the_matrix_product(terms):
    assert mono_product(terms) == _product_oracle(terms)
    assert mono_product(iter(terms)) == _product_oracle(terms)


def test_chain_exponent_matches_relation_recursion():
    # gamma_i = gamma_s^{det[b_{i+1}..b_s]}, the continuant of the suffix,
    # iterates gamma_i^{b_i} = gamma_{i-1} gamma_{i+1}; check the recursion
    # e_{i-1} = b_i e_i - e_{i+1} with e_{s+1} := 0 and e_s = det[] = 1.
    terms = [2, 3, 2, 4]
    s = len(terms)
    exps = [hj_numerator(terms[i:]) for i in range(1, s + 1)] + [0]
    assert exps[s - 1] == 1
    for i in range(s - 1, 0, -1):
        assert exps[i - 1] == terms[i] * exps[i] - exps[i + 1]


def test_mat2_algebra():
    m = Mat2(2, 1, 1, 1)
    assert (m * m.inverse()) == Mat2.identity()
    assert m ** 0 == Mat2.identity()
    assert m ** 3 == m * m * m
    assert m ** -2 == (m.inverse()) * (m.inverse())
    assert m.apply((1, 0)) == (2, 1)
