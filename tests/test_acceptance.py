"""Acceptance criteria, one test per criterion.

Each test prints a PASS line on success (run with ``pytest -s`` to see
them); tolerances are exact equality throughout, since every quantity is
computed in exact arithmetic.
"""
from __future__ import annotations

import time
from enum import Enum
from fractions import Fraction
from itertools import product
from typing import NamedTuple

import pytest

from arclink import calculus, checks, graph_core, hjcf
from arclink.calculus import DltModel, minimal_dlt_model
from arclink.checks import (
    seifert_data,
    seifert_labels,
    sweep_chain_quotient_agreement,
    sweep_chain_system,
    sweep_duality,
    sweep_negative_definite,
    sweep_quotient_detection,
    sweep_recover_roundtrip,
)
from arclink.components import enumerate_components
from arclink.cusp import CuspSequence, check_duality, dual_sequence, monodromy
from arclink.hjcf import Mat2, hj_pair
from arclink.inoue import inoue_cross_check
from arclink.quadratic import QuadNum
from arclink.quotient import (
    ArcCenter,
    builtin_generators,
    conjugacy_classes,
    cyclic_quotient_components,
    group_closure,
    mckay_report,
)
from conftest import star_graph


def _report(n: int, text: str) -> None:
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_monodromy_and_autodual():
    c = CuspSequence((3, 3, 3))
    assert monodromy(c) == Mat2(21, 8, -8, -3)
    assert dual_sequence(c).b == (3, 3, 3)
    _report(1, "monodromy((3,3,3)) = ((21,8),(-8,-3)); (3,3,3) is auto-dual")


def test_criterion_2_dual_examples():
    c23 = CuspSequence((2, 3))
    assert dual_sequence(c23).b == (4,)
    r23 = check_duality(c23)
    assert r23.t_identity_holds and r23.m.trace() == r23.m_star.trace() == 4

    c = CuspSequence((2, 2, 3, 4))
    assert dual_sequence(c).is_rotation_of(CuspSequence((5, 3, 2)))
    r = check_duality(c)
    assert r.t_identity_holds and r.m.trace() == r.m_star.trace() == 20
    _report(2, "dual(2,3) = (4), dual(2,2,3,4) ~ (5,3,2); traces 4 and 20; MT = TM*")


def test_criterion_3_duality_sweep_under_10s():
    start = time.monotonic()
    result = sweep_duality(max_k=6, max_b=6)
    elapsed = time.monotonic() - start
    assert result.passed, result.witness
    assert result.cases > 19000
    assert elapsed < 10.0, f"sweep took {elapsed:.1f}s"
    _report(3, f"MT = TM* and trace >= 3 over {result.cases} sequences in {elapsed:.1f}s")


def test_criterion_4_recover_roundtrip():
    result = sweep_recover_roundtrip(samples=500, max_k=8, max_b=9)
    assert result.passed, result.witness
    assert result.cases == 500
    _report(4, "recover_sequence(monodromy(b)) ~ b for 500 random sequences")


def test_criterion_4_sweep_catches_a_wrong_conjugator(monkeypatch):
    # P * T has determinant 1 but does not conjugate M(seq) to m, as T
    # does not commute with M(seq).
    real = checks.recover_with_conjugator

    def planted(m):
        seq, p = real(m)
        return seq, p * Mat2(1, 1, 0, 1)

    monkeypatch.setattr(checks, "recover_with_conjugator", planted)
    result = sweep_recover_roundtrip(samples=20)
    assert not result.passed and "does not conjugate" in result.witness, result.witness


def test_criterion_5_conjugacy_classes_and_mckay():
    for m in range(1, 13):
        g = group_closure(builtin_generators(f"cyclic:{m}"))
        cc = conjugacy_classes(g)
        assert cc.count == m
        rep = mckay_report(g, cc)
        assert rep.nontrivial_classes == m - 1 == rep.expected_exceptional_curves
    expected = {"Q8": (8, 5, 4), "2T": (24, 7, 6), "2O": (48, 8, 7), "2I": (120, 9, 8)}
    for name, (order, classes, curves) in expected.items():
        g = group_closure(builtin_generators(name))
        assert g.order == order
        cc = conjugacy_classes(g)
        assert cc.count == classes
        rep = mckay_report(g, cc)
        assert rep.matches and rep.expected_exceptional_curves == curves
    _report(5, "class counts m, 5, 7, 8, 9 with McKay offsets A/D4/E6/E7/E8")


def test_criterion_6_cyclic_labels():
    rows = cyclic_quotient_components(5, 2, 2)
    assert [r.label for r in rows] == [Fraction(a, 5) for a in range(1, 11)]
    on_curve = [r.label for r in rows if r.center is ArcCenter.ON_CURVE]
    assert on_curve == [1, 2]
    _report(6, "labels 1/5..10/5 with exactly 1 and 2 on the curve")


def test_criterion_7_sigma237_cross_module(sigma237):
    model = minimal_dlt_model(sigma237)
    comp_labels = sorted(c.label() for c in enumerate_components(model, 6))
    seif_labels = seifert_labels(seifert_data(sigma237), 6)
    assert len(comp_labels) == len(seif_labels) == 19
    assert comp_labels == seif_labels
    _report(7, "sigma(2,3,7) at bound 6: both modules give the same 19 labels")


def test_criterion_8_chain_vs_cor65():
    result = sweep_chain_quotient_agreement(max_len=6, max_b=5, bound=2)
    assert result.passed, result.witness
    _report(8, f"dlt route and direct cyclic labels agree on {result.cases} chains")


def _other_q(m: int, q: int) -> int:
    # m - q is coprime to m and differs from q for every m > 2.
    return m - q if m > 2 else q


def test_criterion_8_sweep_catches_labels_of_a_wrong_q(monkeypatch):
    real = checks.cyclic_quotient_components
    monkeypatch.setattr(
        checks, "cyclic_quotient_components", lambda m, q, bound: real(m, _other_q(m, q), bound)
    )
    result = sweep_chain_quotient_agreement(max_len=2, max_b=3, bound=2)
    assert not result.passed and "label" in result.witness


def test_criterion_8_sweep_catches_a_wrong_class_q(monkeypatch):
    real = checks.minimal_dlt_model

    def planted(g):
        model = real(g)
        cls = model.sing_class
        wrong = cls._replace(q=_other_q(cls.m, cls.q))
        return DltModel(model.kind, model.residual, model.orbifold_points, wrong, model.source)

    monkeypatch.setattr(checks, "minimal_dlt_model", planted)
    result = sweep_chain_quotient_agreement(max_len=2, max_b=3, bound=2)
    assert not result.passed and "class" in result.witness


def test_criterion_8_sweep_catches_a_wrong_class_count(monkeypatch):
    real = checks.conjugacy_classes

    def planted(group):
        cc = real(group)
        if group.order != 3:
            return cc
        return cc._replace(classes=cc.classes[1:])

    monkeypatch.setattr(checks, "conjugacy_classes", planted)
    result = sweep_chain_quotient_agreement(max_len=2, max_b=3, bound=2)
    assert not result.passed and "2 classes in Z/3" in result.witness


def test_chain_quotient_sweep_checks_each_label_list_once(monkeypatch):
    # A chain and its reverse are one cyclic quotient: the pair {q_f, q_b}
    # of second numerators names it whatever q the class picks.
    real = checks.cyclic_quotient_components
    calls = []

    def counted(m, q, bound):
        calls.append((m, q))
        return real(m, q, bound)

    monkeypatch.setattr(checks, "cyclic_quotient_components", counted)
    result = sweep_chain_quotient_agreement()
    assert result.passed and result.cases == 5460, result.witness
    quotients = set()
    for k in range(1, 7):
        for bs in product(range(2, 6), repeat=k):
            m, q_f = hj_pair(bs)
            _, q_b = hj_pair(bs[::-1])
            if m <= 300:
                quotients.add((m, frozenset((q_f, q_b))))
    assert len(calls) == len(set(calls)) == len(quotients) == 927
    assert {(m, frozenset((q, pow(q, -1, m)))) for m, q in calls} == quotients


def test_chain_quotient_sweep_names_the_first_chain_of_a_wrong_label_list(monkeypatch):
    # (2, 3) and (3, 2) are both 1/5(2, 1); (2, 3) comes first in the sweep.
    real = checks.cyclic_quotient_components

    def planted(m, q, bound):
        return real(m, _other_q(m, q) if (m, q) == (5, 2) else q, bound)

    monkeypatch.setattr(checks, "cyclic_quotient_components", planted)
    result = sweep_chain_quotient_agreement(max_len=2, max_b=3, bound=2)
    assert not result.passed and result.witness.startswith("(2, 3): label"), result.witness


@pytest.mark.parametrize("field, wrong", [("m", 6), ("m1", 8)])
def test_chain_quotient_sweep_catches_a_row_with_a_wrong_int(monkeypatch, field, wrong):
    # Row a = 3 of 1/5(2, 1) with its m or its m1 off: the label m1/m is
    # 3/6 or 8/5, not 3/5, and the sweep names the row it read.
    real = checks.cyclic_quotient_components

    def planted(m, q, bound):
        rows = real(m, q, bound)
        if (m, q) == (5, 2):
            rows[2] = rows[2]._replace(**{field: wrong})
        return rows

    monkeypatch.setattr(checks, "cyclic_quotient_components", planted)
    result = sweep_chain_quotient_agreement(max_len=2, max_b=3, bound=2)
    assert not result.passed and result.witness.startswith("(2, 3): label 3/5 is "), result.witness
    assert f"{field}={wrong}, " in result.witness


@pytest.mark.parametrize("field, wrong", [
    ("c", 0),                       # 8*3 = 4 mod 5, not 0
    ("center", ArcCenter.ON_CURVE),  # 5 does not divide 8
    ("m1", 9),                      # label 9/5, not 8/5
])
def test_chain_quotient_sweep_catches_a_planted_row_in_a_later_period(monkeypatch, field, wrong):
    # Row a = 8 of 1/5(2, 1) at bound 2 lies in the second period of the
    # rows; the sweep compares the whole list, not one period of it.
    real = checks.cyclic_quotient_components

    def planted(m, q, bound):
        rows = real(m, q, bound)
        if (m, q) == (5, 2):
            rows[7] = rows[7]._replace(**{field: wrong})
        return rows

    monkeypatch.setattr(checks, "cyclic_quotient_components", planted)
    result = sweep_chain_quotient_agreement(max_len=2, max_b=3, bound=2)
    assert not result.passed and result.witness.startswith("(2, 3): label 8/5 is "), result.witness
    assert f"{field}={wrong!r}" in result.witness


def test_mckay_sweep_computes_the_classes_once(monkeypatch):
    # mckay_report gets the classes the sweep holds; recomputing them
    # inside it would call this.
    import arclink.quotient as quotient_mod

    def recompute(group):
        raise AssertionError("conjugacy classes computed twice")

    monkeypatch.setattr(quotient_mod, "conjugacy_classes", recompute)
    result = checks.sweep_mckay()
    assert result.passed and result.cases == 21, result.witness


def test_quotient_detection_sweep_catches_a_wrong_tail_order(monkeypatch):
    # One more than every tail's order on the model side: the first star,
    # three -2 legs on a -3 centre, reads (3, 3, 3) and is classed general,
    # while its Seifert legs are still (2, 1) each and pi_1 is finite.
    assert sweep_quotient_detection().passed
    real = calculus.hj_pair
    monkeypatch.setattr(calculus, "hj_pair", lambda terms: (real(terms)[0] + 1, 1))
    result = sweep_quotient_detection()
    assert (result.passed, result.cases, result.witness) == (False, 1, "alphas (2, 2, 2)")
    assert checks.hj_pair is hj_pair
    assert seifert_data(star_graph(-3, [[2], [2], [2]])).pairs() == ((2, 1),) * 3


def test_quotient_detection_sweep_catches_a_wrong_hj_pair(monkeypatch):
    # The same wrong pair in hjcf and in every module that imports it moves
    # the model's tails alone: the Seifert side folds its legs itself, and
    # still reads a two-curve leg right.
    real = hjcf.hj_pair
    for module in (hjcf, calculus, checks):
        monkeypatch.setattr(module, "hj_pair", lambda terms: (real(terms)[0] + 1, 1))
    result = sweep_quotient_detection()
    assert (result.passed, result.cases, result.witness) == (False, 1, "alphas (2, 2, 2)")
    assert seifert_data(star_graph(-3, [[2, 3], [2], [5]])).pairs() == ((5, 3), (2, 1), (5, 1))


def test_criterion_9_chain_system():
    result = sweep_chain_system(samples=200)
    assert result.passed, result.witness
    _report(9, "chain system unsolvable for 200 random negative definite chains")


def test_chain_system_sweep_falsifies_on_a_wrong_continuant(monkeypatch):
    # One too many in every continuant: the chain matrix leaves SL(2, Z),
    # and the determinant guard turns that into a falsified sweep.
    real = checks.hj_numerator
    monkeypatch.setattr(checks, "hj_numerator", lambda terms: real(terms) + 1)
    result = sweep_chain_system(samples=200)
    assert result.name == "chain system infeasibility" and not result.passed
    assert result.witness.startswith("raised ValueError: the chain matrix of"), result.witness
    assert "not 1" in result.witness


def test_a_sweep_that_raises_keeps_its_name_and_count(monkeypatch):
    # A library error in the third family: the two cases before it count.
    real = checks.builtin_generators

    def refuse_2o(name):
        if name == "2O":
            raise ValueError("planted")
        return real(name)

    monkeypatch.setattr(checks, "builtin_generators", refuse_2o)
    result = checks.sweep_mckay()
    assert (result.name, result.passed, result.cases) == ("mckay families", False, 2)
    assert result.witness == "raised ValueError: planted"


@pytest.mark.parametrize(
    "planted, swapped_in, cases, witness",
    [
        ("2T", "2O", 2, "2T: order 48, classes 8"),
        ("cyclic:3", "cyclic:4", 7, "cyclic:3"),
        ("bd:3", "bd:4", 18, "bd:3"),
    ],
)
def test_mckay_sweep_witness_names_the_wrong_group(monkeypatch, planted, swapped_in, cases, witness):
    # The exceptional groups check their order and report it with the class
    # count; the cyclic and binary dihedral families check class counts only
    # and report the group name.
    real = checks.builtin_generators
    monkeypatch.setattr(checks, "builtin_generators", lambda name: real(swapped_in if name == planted else name))
    result = checks.sweep_mckay()
    assert (result.passed, result.cases, result.witness) == (False, cases, witness)


def test_criterion_10_inoue_cross_checks():
    one = QuadNum.of(1)
    omega = QuadNum.of(Fraction(1, 2), Fraction(1, 2), 5)
    u5 = QuadNum.of(Fraction(3, 2), Fraction(1, 2), 5)
    rep5 = inoue_cross_check(5, (one, omega), u5, 3)
    assert rep5.matrix == Mat2(1, 1, 1, 2)
    assert rep5.sequence == (3,)
    assert rep5.passed, rep5.render()

    sqrt2 = QuadNum.of(0, 1, 2)
    rep2 = inoue_cross_check(2, (one, sqrt2), QuadNum.of(3, 2, 2), 3)
    assert rep2.matrix == Mat2(3, 4, 2, 3)
    assert rep2.passed, rep2.render()
    _report(10, "d=5 gives M_u=((1,1),(1,2)), sequence (3); d=2 passes as well")


# The real A-type catalog: the number of connected components of the
# space of short real arcs, as the paper states it.  Nothing computes these
# counts, so the table lives with the criterion that pins it.


class RealForm(Enum):
    SUM_OF_SQUARES = "sum_of_squares"  # x^2 + y^2 = z^m
    HYPERBOLIC = "hyperbolic"          # x*y = z^m


class RealCatalogEntry(NamedTuple):
    form: RealForm
    exponent: int
    count: int   # shadows tuple.count, which no caller needs
    status: str  # "shown" or "suggested"


def real_A_catalog_entry(form: RealForm, m: int) -> RealCatalogEntry:
    """Connected components of the space of short real arcs, A-type forms,
    with whether the count is shown or only suggested."""
    if form is RealForm.SUM_OF_SQUARES:
        if m < 1:
            raise ValueError("exponent must be positive")
        return RealCatalogEntry(form, m, 1 if m % 2 else 2, "shown")
    if m < 2:
        raise ValueError("the hyperbolic family needs m >= 2")
    return RealCatalogEntry(form, m, 4 * m - 6, "suggested")


def test_criterion_11_real_catalog():
    assert real_A_catalog_entry(RealForm.SUM_OF_SQUARES, 5).count == 1
    assert real_A_catalog_entry(RealForm.SUM_OF_SQUARES, 4).count == 2
    for m in range(2, 7):
        entry = real_A_catalog_entry(RealForm.HYPERBOLIC, m)
        assert entry.count == 4 * m - 6
        assert entry.status == "suggested"
    _report(11, "counts (1, 2, 4m-6) reproduced; hyperbolic family marked suggested")


def test_real_catalog_values():
    assert real_A_catalog_entry(RealForm.SUM_OF_SQUARES, 5).count == 1
    assert real_A_catalog_entry(RealForm.SUM_OF_SQUARES, 4).count == 2
    assert real_A_catalog_entry(RealForm.HYPERBOLIC, 3).count == 6
    assert real_A_catalog_entry(RealForm.HYPERBOLIC, 2).count == 2


def test_real_catalog_status_labels():
    assert real_A_catalog_entry(RealForm.SUM_OF_SQUARES, 3).status == "shown"
    assert real_A_catalog_entry(RealForm.HYPERBOLIC, 4).status == "suggested"
    with pytest.raises(ValueError):
        real_A_catalog_entry(RealForm.HYPERBOLIC, 1)


def test_criterion_12_negative_definiteness_gate():
    result = sweep_negative_definite(max_chain=8)
    assert result.passed, result.witness
    _report(12, "E8 and A_n pass, +1 fails, every valid cusp cycle passes")


def test_criterion_12_sweep_falsifies_a_division_by_zero(monkeypatch):
    # A run compressed at P_k = 0 puts a zero denominator in the node
    # matrix; the division that follows is a falsification, not a crash.
    # It is the witness of the first boundary graph, case 627 after the
    # 626 before it, and names that graph, so no seeded generator has to
    # be replayed to rebuild it.
    real = checks.is_negative_definite_graph
    first = []

    def planted(g):
        if g.name == "boundary":
            first.append(g)
            raise ZeroDivisionError("integer division or modulo by zero")
        return real(g)

    monkeypatch.setattr(checks, "is_negative_definite_graph", planted)
    result = sweep_negative_definite()
    assert not result.passed and result.cases == 627
    assert result.witness == f"raised ZeroDivisionError: integer division or modulo by zero at {first[0]}"
    assert "name='boundary'" in result.witness


def test_criterion_12_sweep_runs_the_fixed_families_through_the_graph_test(monkeypatch):
    # E8, the A_n chains and the cusp cycles go through the gate the
    # pipeline runs, not only through the dense matrix test.
    monkeypatch.setattr(checks, "is_negative_definite_graph", lambda g: False)
    result = sweep_negative_definite()
    assert not result.passed and result.cases == 1
    assert result.witness == "E8 rejected"
    monkeypatch.setattr(checks, "is_negative_definite_graph", lambda g: True)
    result = sweep_negative_definite()
    assert not result.passed and result.cases == 10
    assert result.witness == "+1 vertex accepted"


def test_criterion_12_sweep_catches_a_certificate_without_a_strict_row(monkeypatch):
    # A certificate that accepts weak dominance, with no strict row, takes
    # Laplacians for definite.  The sweep's first Laplacian is the random
    # one-vertex graph of weight 0, at case 182, where -A = [0].  Planted on
    # the boundary graphs alone it is caught on the first of them, case
    # 627: -2 runs from u to w, each node weighted by its degree.
    real = graph_core._diagonally_dominant

    def weak(g):
        return all(-v.euler >= g.degree(v.id) for v in g.vertices)

    monkeypatch.setattr(graph_core, "_diagonally_dominant", weak)
    result = sweep_negative_definite()
    assert not result.passed and result.cases == 182
    assert result.witness == "(Vertex(id='v0', euler=0, genus=0),) (): Sylvester says False"
    monkeypatch.setattr(graph_core, "_diagonally_dominant", lambda g: (weak if g.name == "boundary" else real)(g))
    result = sweep_negative_definite()
    assert not result.passed and result.cases == 627
    assert "Vertex(id='u', euler=-3, genus=0), Vertex(id='w', euler=-3, genus=0)" in result.witness
    assert result.witness.endswith("('u', 'w')): Sylvester says False")
