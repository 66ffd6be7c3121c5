from __future__ import annotations

from fractions import Fraction

import pytest

from arclink.quadratic import QuadNum
from arclink.quotient import (
    ArcCenter,
    ClosureError,
    Quaternion,
    RealForm,
    binary_dihedral_generators,
    builtin_generators,
    conjugacy_classes,
    cyclic_permutation_generators,
    cyclic_quotient_components,
    group_closure,
    mckay_report,
    parse_group_file,
    rational_matrix,
    real_A_catalog_entry,
    real_A_component_count,
)


# -- closure -----------------------------------------------------------------

# An exact order-5 unit quaternion (the class of diag(zeta_5, zeta_5^-1)):
# ((phi-1)/2, phi/2, 1/2, 0), the square of the 36-degree icosian rotation.
CYCLIC_ROTATION = Quaternion(
    QuadNum.of(Fraction(-1, 4), Fraction(1, 4), 5),
    QuadNum.of(Fraction(1, 4), Fraction(1, 4), 5),
    QuadNum.of(Fraction(1, 2), 0, 5),
    QuadNum.of(0, 0, 5),
)


def test_cyclic_order_five_quaternion():
    g = group_closure([CYCLIC_ROTATION])
    assert g.order == 5
    assert conjugacy_classes(g).count == 5


def test_q8_closure():
    g = group_closure(builtin_generators("Q8"))
    assert g.order == 8
    assert conjugacy_classes(g).count == 5


def test_binary_icosahedral_closure():
    g = group_closure(builtin_generators("2I"))
    assert g.order == 120
    assert conjugacy_classes(g).count == 9


def test_closure_is_closed_with_identity_and_inverses():
    g = group_closure(builtin_generators("2T"))
    n = g.order
    assert n == 24
    table = g.table
    # closure: the table exists; each row and column is a permutation
    for i in range(n):
        assert sorted(table[i]) == list(range(n))
        assert sorted(table[j][i] for j in range(n)) == list(range(n))
    # identity and inverses
    for i in range(n):
        assert table[g.identity_index][i] == i
        inv = g.inverse_index(i)
        assert table[i][inv] == g.identity_index
    # every element has finite order
    assert all(g.element_order(i) >= 1 for i in range(n))


def test_table_matches_direct_products():
    g = group_closure(builtin_generators("2O"))
    import random

    rng = random.Random(0)
    for _ in range(200):
        i, j = rng.randrange(g.order), rng.randrange(g.order)
        assert g.elements[g.table[i][j]] == g.elements[i] * g.elements[j]


def test_closure_ignores_repeated_and_identity_generators():
    gens = builtin_generators("2T")
    g = group_closure(gens)
    again = group_closure([*gens, gens[0], Quaternion.of(1)])
    assert again.elements == g.elements and again.table == g.table


def test_infinite_group_hits_ceiling():
    shear = rational_matrix([[1, 1], [0, 1]])
    with pytest.raises(ClosureError, match="likely infinite"):
        group_closure([shear], ceiling=500)


def test_non_invertible_generator_rejected():
    with pytest.raises(ClosureError):
        group_closure([rational_matrix([[1, 0], [0, 0]])])
    with pytest.raises(ClosureError):
        group_closure([Quaternion.of(2)])  # norm 4, not a unit


def test_conjugacy_identity_class_singleton():
    g = group_closure(builtin_generators("2T"))
    cc = conjugacy_classes(g)
    identity_class = [cl for cl in cc.classes if g.identity_index in cl]
    assert identity_class == [(g.identity_index,)]
    assert sum(len(cl) for cl in cc.classes) == g.order


# -- mckay -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,order,classes,family,curves",
    [
        ("Q8", 8, 5, "D4", 4),
        ("2T", 24, 7, "E6", 6),
        ("2O", 48, 8, "E7", 7),
        ("2I", 120, 9, "E8", 8),
    ],
)
def test_mckay_families(name, order, classes, family, curves):
    g = group_closure(builtin_generators(name))
    assert g.order == order
    report = mckay_report(g)
    assert report.class_count == classes
    assert report.family == family
    assert report.expected_exceptional_curves == curves
    assert report.matches


@pytest.mark.parametrize("m", range(1, 13))
def test_mckay_cyclic(m):
    g = group_closure(cyclic_permutation_generators(m))
    report = mckay_report(g)
    assert report.family == f"A{m-1}"
    assert report.nontrivial_classes == m - 1
    assert report.matches


@pytest.mark.parametrize("n", range(2, 7))
def test_mckay_binary_dihedral(n):
    g = group_closure(binary_dihedral_generators(n))
    assert g.order == 4 * n
    report = mckay_report(g)
    assert report.family == f"D{n+2}"
    assert report.matches


def test_mckay_rejects_noncatalog_groups():
    # S3 as permutation matrices: nonabelian with 3 involutions.
    s3 = [
        rational_matrix([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
        rational_matrix([[0, 1, 0], [0, 0, 1], [1, 0, 0]]),
    ]
    with pytest.raises(ValueError):
        mckay_report(group_closure(s3))
    # Klein four group: abelian but not cyclic.
    klein = [
        rational_matrix([[-1, 0], [0, 1]]),
        rational_matrix([[1, 0], [0, -1]]),
    ]
    with pytest.raises(ValueError, match="cyclic"):
        mckay_report(group_closure(klein))


# -- cyclic quotient labels -------------------------------------------------------


def test_labels_5_2_bound_2():
    rows = cyclic_quotient_components(5, 2, 2)
    assert [r.label for r in rows] == [Fraction(a, 5) for a in range(1, 11)]
    on_curve = [r.label for r in rows if r.center is ArcCenter.ON_CURVE]
    assert on_curve == [1, 2]


def test_label_congruence_data():
    rows = cyclic_quotient_components(5, 2, 1)
    by_num = {r.m1: r for r in rows}
    assert by_num[3].c == 4  # 3 = 4 * 2 mod 5
    for r in rows:
        assert (r.c * 2 - r.m1) % 5 == 0
        assert 0 <= r.c < 5


def test_labels_smooth_case():
    rows = cyclic_quotient_components(1, 0, 3)
    assert [r.label for r in rows] == [1, 2, 3]
    assert all(r.center is ArcCenter.ON_CURVE for r in rows)


def test_label_count_is_bound_times_m():
    for m, q in [(2, 1), (5, 2), (7, 3), (12, 5)]:
        for bound in (1, 2, 3):
            assert len(cyclic_quotient_components(m, q, bound)) == bound * m


def test_label_validation():
    with pytest.raises(ValueError):
        cyclic_quotient_components(4, 2, 1)  # not coprime
    with pytest.raises(ValueError):
        cyclic_quotient_components(5, 0, 1)
    with pytest.raises(ValueError):
        cyclic_quotient_components(1, 1, 1)


# -- real catalog --------------------------------------------------------------------


def test_real_catalog_values():
    assert real_A_component_count(RealForm.SUM_OF_SQUARES, 5) == 1
    assert real_A_component_count(RealForm.SUM_OF_SQUARES, 4) == 2
    assert real_A_component_count(RealForm.HYPERBOLIC, 3) == 6
    assert real_A_component_count(RealForm.HYPERBOLIC, 2) == 2


def test_real_catalog_status_labels():
    assert real_A_catalog_entry(RealForm.SUM_OF_SQUARES, 3).status == "shown"
    assert real_A_catalog_entry(RealForm.HYPERBOLIC, 4).status == "suggested"
    with pytest.raises(ValueError):
        real_A_component_count(RealForm.HYPERBOLIC, 1)


# -- group files -----------------------------------------------------------------------


def test_parse_quaternion_file():
    text = "d=5\n1/2 1/2 1/2 1/2\n1/4+1/4*sqrt 1/2 -1/4+1/4*sqrt 0\n"
    gens = parse_group_file(text)
    assert len(gens) == 2 and all(isinstance(g, Quaternion) for g in gens)
    assert group_closure(gens).order == 120


def test_parse_matrix_file():
    text = "# cyclic of order 4\nmatrix 2\n0 -1\n1 0\n"
    gens = parse_group_file(text)
    assert group_closure(gens).order == 4


def test_parse_rejects_mixed_and_garbage():
    with pytest.raises(ValueError):
        parse_group_file("d=5\n1 0 0 0\nmatrix 1\n1\n")
    with pytest.raises(ValueError):
        parse_group_file("1 2 3\n")
    with pytest.raises(ValueError):
        parse_group_file("d=5\nflub 0 0 zork\n")


def test_parse_matrix_errors_name_the_line():
    with pytest.raises(ValueError, match="line 2: 'matrix 2' needs 2 rows"):
        parse_group_file("# truncated\nmatrix 2\n1 0\n")
    with pytest.raises(ValueError, match="line 1: expected 'matrix <n>'"):
        parse_group_file("matrix\n1\n")
    with pytest.raises(ValueError, match="line 3: matrix row 2"):
        parse_group_file("matrix 2\n1 0\n1\n")
    with pytest.raises(ValueError, match="line 2: zero denominator"):
        parse_group_file("matrix 1\n1/0\n")
