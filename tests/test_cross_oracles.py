"""Independent identities that tie the modules together.

Each test checks one module's output against a quantity computed by a
different route: tridiagonal determinants against continuants, cycle
determinants against monodromy traces, the -I product identity behind
the duality bridge, Seifert invariants against graph determinants, and
the orbifold Euler number against definiteness.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import prod

from arclink.cusp import CuspSequence, dual_construction, monodromy
from arclink.checks import seifert_data
from arclink.graph_core import intersection_matrix, is_negative_definite
from arclink.hjcf import Mat2, hj_numerator, mono_product
from conftest import chain_graph, cycle_graph, determinant, star_graph


def test_chain_determinant_is_signed_continuant():
    # det of a chain's intersection matrix = (-1)^s * det[b_1..b_s].
    rng = random.Random(31)
    cases = [[2], [3, 2], [2, 2, 2, 2], [5, 3, 4]]
    cases += [[rng.randint(2, 7) for _ in range(rng.randint(1, 7))] for _ in range(40)]
    for bs in cases:
        det = determinant(intersection_matrix(chain_graph(bs)))
        assert det == (-1) ** len(bs) * hj_numerator(bs)


def test_cycle_determinant_is_signed_trace_defect():
    # det of a cusp cycle's intersection matrix = (-1)^k (trace(M) - 2).
    for k in range(1, 6):
        for bs in product(range(2, 6), repeat=k):
            if all(b == 2 for b in bs):
                continue
            det = determinant(intersection_matrix(cycle_graph(list(bs))))
            tau = monodromy(CuspSequence(bs)).trace()
            assert det == (-1) ** k * (tau - 2), bs


def test_duality_product_identity():
    # The trivial-torus-bundle computation behind M T = T M*:
    # M(1,2) * M * M(1,2) * M(b*_k..b*_1) = -Identity.
    m12 = mono_product([1, 2])
    for k in range(1, 6):
        for bs in product(range(2, 6), repeat=k):
            if all(b == 2 for b in bs):
                continue
            rot, dual = dual_construction(CuspSequence(bs))
            m = mono_product(rot)
            m_star_rev = mono_product(dual[::-1])
            assert m12 * m * m12 * m_star_rev == -Mat2.identity(), bs


def test_seifert_invariants_match_graph_determinant(e8, sigma237):
    # For star graphs |det A| = prod(alpha_i) * |e + sum(omega_i / alpha_i)|:
    # the Seifert pairs read off the legs against a dense determinant.
    rng = random.Random(41)
    graphs = [e8, sigma237, star_graph(-2, [[2, 2], [3], [4]]), star_graph(-3, [[2], [2], [2], [2]])]
    for _ in range(20):
        legs = [[rng.randint(2, 4) for _ in range(rng.randint(1, 3))] for _ in range(3)]
        g = star_graph(-rng.randint(1, 3), legs)
        if is_negative_definite(intersection_matrix(g)):
            graphs.append(g)
    for g in graphs:
        sd = seifert_data(g)
        e_orb = -sd.b + sum(Fraction(omega, alpha) for alpha, omega in sd.pairs())
        assert abs(determinant(intersection_matrix(g))) == prod(a for a, _ in sd.pairs()) * abs(e_orb)


def test_star_definiteness_matches_orbifold_euler_number():
    # For star graphs, negative definiteness is equivalent to the
    # orbifold Euler number e + sum(omega_i / alpha_i) being negative.
    rng = random.Random(53)
    for _ in range(60):
        legs = [
            [rng.randint(2, 5) for _ in range(rng.randint(1, 3))]
            for _ in range(rng.randint(3, 4))
        ]
        e_center = -rng.randint(1, 4)
        g = star_graph(e_center, legs)
        sd = seifert_data(g)
        e_orb = e_center + sum(Fraction(leg.omega, leg.alpha) for leg in sd.legs)
        assert is_negative_definite(intersection_matrix(g)) == (e_orb < 0), (e_center, legs)


def test_monodromy_entries_from_chain_determinants():
    # M(b_1..b_k) is built from the four corner continuants; the interior
    # determinant det[b_2..b_{k-1}] uses the one-short convention (0) at k=1.
    for bs in ([3], [2, 3], [4, 2, 3], [2, 2, 3, 4]):
        m = mono_product(bs)
        assert m.p == hj_numerator(bs)
        assert m.q == hj_numerator(bs[:-1])
        assert m.r == -hj_numerator(bs[1:])
        interior = 0 if len(bs) == 1 else hj_numerator(bs[1:-1])
        assert m.s == -interior
