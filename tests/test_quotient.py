from __future__ import annotations

import functools
import hashlib
from fractions import Fraction
from math import gcd

import pytest

import arclink.quotient as quotient_mod
from arclink.cli import _fraction_text
from arclink.inputs import ROWS_CEILING, InputError
from arclink.quadratic import QuadNum
from arclink.quotient import (
    ArcCenter,
    ClosureError,
    CyclicComponentLabel,
    Quaternion,
    binary_dihedral_generators,
    builtin_generators,
    conjugacy_classes,
    cyclic_permutation_generators,
    cyclic_quotient_components,
    group_closure,
    mckay_report,
    parse_group_file,
    rational_matrix,
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
        assert table[0][i] == i
        inv = g.inverse_index(i)
        assert table[i][inv] == 0
    # every element has finite order
    assert all(g.element_order(i) >= 1 for i in range(n))


# Two non-permutation rational matrix groups: an entry 1/2, and signed entries.
MATRIX_GROUPS = {
    "half-order-6": [rational_matrix([[0, Fraction(-1, 2)], [2, 1]])],
    "signed-S3": [rational_matrix([[0, -1], [1, -1]]), rational_matrix([[0, 1], [1, 0]])],
}


def _pinned_generators(name):
    return MATRIX_GROUPS[name] if name in MATRIX_GROUPS else builtin_generators(name)


def _dense_product(x, y):
    """Oracle: the textbook product of two square rational matrices."""
    n = len(x)
    return tuple(
        tuple(sum((x[i][k] * y[k][j] for k in range(n) if x[i][k]), Fraction(0)) for j in range(n))
        for i in range(n)
    )


@functools.lru_cache(maxsize=None)
def _reference_closure(name):
    """Oracle: the closure over element objects, never integer keys, in the
    order the library meets them (the identity, then e * g for each element
    e met and each generator g), and its full Cayley table.  Products are
    Quaternion.__mul__, or the dense Fraction matrix product above."""
    gens = _pinned_generators(name)
    if isinstance(gens[0], Quaternion):
        mul, elements = Quaternion.__mul__, [Quaternion.of(1)]
    else:
        n = len(gens[0])
        mul, elements = _dense_product, [rational_matrix([[int(i == j) for j in range(n)] for i in range(n)])]
    index = {elements[0]: 0}
    for e in elements:  # reads the elements it appends: a FIFO queue
        for g in gens:
            y = mul(e, g)
            if y not in index:
                index[y] = len(elements)
                elements.append(y)
    table = tuple(tuple(index[mul(x, y)] for y in elements) for x in elements)
    return tuple(elements), table


# sha256 of repr((table, [str(e) for e in elements])), recorded from the
# closure that multiplied Quaternion and Fraction-matrix objects directly.
TABLE_SHA256 = {
    "Q8": "91351f075d2cb35b40a8e1922a361b5d9b0e332a23222ebb39534f520e1bf3d5",
    "2T": "a2ef20ab185593e6a3b8d53f681bf19e43d25174a8c1bbff09af77e9128b9e15",
    "2O": "44300e939a4f954ba774af07d77183a9fab316bd566de7de49b3b0094e6cdaa6",
    "2I": "c519adf68b33244468ed84b004f216364bd59fc5f47338e31108a357bad7f267",
    "bd:2": "f2e0f8a03590c6fd990413d3e48253394bf98a01b2adff2512ca633b03350da2",
    "bd:3": "15f2eabdbfabbdc05e90a11e52585ad362bd51ef3003062ac07029ccf3a843ff",
    "bd:4": "dbe55c992ce324438b6782b50ee420d7164cc2aa438c40b78b9363e4d5e3cedc",
    "bd:5": "e42c913474f8eb2e9d11cae0f4bbf4eee37c04afd7a62c052536ed47bfb77a97",
    "bd:6": "946345571a48dcd5a11623526b0f6bf2fcb5abb7a03670417ba4b7648a4fbd50",
    "cyclic:1": "096bcd18624fe0f34187f64e241a20a411397519ae38dc8465a5cbe09039b2a0",
    "cyclic:2": "1e60c28df14385aef0c09f567a263fe8e693a2cfbfa52239f325ee902fd72691",
    "cyclic:3": "17262dcea922f3ca5e734169be37a008aa05468630b5bc83b9d516bf9c139716",
    "cyclic:4": "f3b4e9435a4152e621b39298b370cf870af2bf23e283978858e30d5c0b8675aa",
    "cyclic:5": "5bc122b85071ee07e22020ca680862eb5fc3a27614b729563c3683d0cde0858e",
    "cyclic:6": "f1cefd29a8e5b5b73b044f897125081784946b2519346dc176ea3a31c2595331",
    "cyclic:7": "17e2529d4bb43bed5a1261d6b438bbc26ce7defe5b1b236351b92bd8ffd9fccb",
    "cyclic:8": "59aa37e6b1fcb5f17d06ec5784a9d5243edd89ecdcb3b81740d6d90247e2fd4b",
    "cyclic:9": "a6a5a4572fd671618ae73d0a69627a767b72d840557e01cf0ded59bf7ac084fb",
    "cyclic:10": "93c5e1436f64d7478f173bf83bb7b55055e3249a5274259c64ef5b7f9a3a3210",
    "cyclic:11": "31e0e41ddce9e68a4dfbfbd9d78368ed99a52191bbc7963a92f68bd11123a544",
    "cyclic:12": "7e4d57ffe247c17410209fd56d85ef017ce27de190a902678d1dcc87c44b4db1",
    "cyclic:13": "a8ca1dd6a385bc5d73ab6b4f3d11daef5f32f96e37574057f5a0da7a3dca8283",
    "cyclic:14": "1b3a76d23a9111f00360cdc8dfc3d9b2aecd0e5ee78cd6c0d70485996cdcb5b0",
    "cyclic:15": "f5743ed94d872fb25b28c8bcc4cb6386a0be20b81e5dda6b81c05dabf1960590",
    "cyclic:16": "7db54755b2bc9fa3b4bd9a708cc882665210e4a20518ad6b48a9ee25c48f71c6",
    "half-order-6": "5de76db02627631a2dde4ece0106526bfb54d60f5f9019a3f4f3c098edc5b463",
    "signed-S3": "7e741054cf3a7630ea1b505a9b839d94c68d7568a33b664d470f3953483c9ad2",
}


@pytest.mark.parametrize("name", list(TABLE_SHA256))
def test_table_and_elements_are_pinned(name):
    # The element strings come from the object closure, which
    # test_table_matches_direct_products holds the table to entry by entry.
    g = group_closure(_pinned_generators(name))
    elements, _ = _reference_closure(name)
    digest = hashlib.sha256(repr((g.table, [str(e) for e in elements])).encode()).hexdigest()
    assert digest == TABLE_SHA256[name]


@pytest.mark.parametrize("name", ["Q8", "2I", "signed-S3", "cyclic:16"])
def test_closure_takes_one_key_product_per_element_and_generator(name, monkeypatch):
    # The table's columns come from the closure's own products e_x * g_j,
    # so no column costs a product of its own.
    calls = []
    for kernel in ("_quaternion_kernel", "_matrix_kernel"):
        def counting(generators, real=getattr(quotient_mod, kernel)):
            mul, identity, gens = real(generators)
            return (lambda x, y: calls.append(None) or mul(x, y)), identity, gens
        monkeypatch.setattr(quotient_mod, kernel, counting)
    gens = _pinned_generators(name)
    g = group_closure(gens)
    assert len(calls) == g.order * len(gens)


def test_table_matches_direct_products():
    # Every entry of every pinned table, keys against objects: the identity
    # at 0, the elements in the same order and each product at its index.
    for name in TABLE_SHA256:
        g = group_closure(_pinned_generators(name))
        assert g.table == _reference_closure(name)[1], name


def test_closure_ignores_repeated_and_identity_generators():
    gens = builtin_generators("2T")
    g = group_closure(gens)
    again = group_closure([*gens, gens[0], Quaternion.of(1)])
    assert again == g


def test_infinite_group_hits_ceiling():
    shear = rational_matrix([[1, 1], [0, 1]])
    with pytest.raises(ClosureError, match="likely infinite"):
        group_closure([shear])


def test_default_ceiling_bounds_the_table():
    shear = rational_matrix([[1, Fraction(1, 2)], [0, 1]])
    with pytest.raises(ClosureError, match="exceeded 1024 elements"):
        group_closure([shear])
    assert group_closure(builtin_generators("cyclic:1024")).order == 1024
    # Rejected before the 10^12-entry generator is built.
    with pytest.raises(ClosureError, match="1024"):
        builtin_generators("cyclic:1000000")


def test_cyclic_64_closes_without_dense_products():
    # A dense Fraction product makes this ~m^4 work; sparse integer rows
    # make each permutation product O(m).  No wall-clock assertion.
    g = group_closure(builtin_generators("cyclic:64"))
    assert g.order == 64
    cc = conjugacy_classes(g)
    assert cc.count == 64
    assert mckay_report(g, cc).family == "A63"


def test_generators_from_two_fields_rejected():
    over_sqrt2 = Quaternion(QuadNum.of(0, Fraction(1, 2), 2), QuadNum.of(0, Fraction(1, 2), 2), QuadNum.of(0), QuadNum.of(0))
    over_sqrt3 = Quaternion(QuadNum.of(Fraction(1, 2)), QuadNum.of(0, Fraction(1, 2), 3), QuadNum.of(0), QuadNum.of(0))
    assert group_closure([over_sqrt2]).order == 8
    assert group_closure([over_sqrt3]).order == 6
    with pytest.raises(ClosureError, match=r"sqrt\(2\) and sqrt\(3\)"):
        group_closure([over_sqrt2, Quaternion.of(0, 0, 1, 0), over_sqrt3])


def test_non_invertible_generator_rejected():
    with pytest.raises(ClosureError):
        group_closure([rational_matrix([[1, 0], [0, 0]])])
    with pytest.raises(ClosureError, match="non-invertible"):
        group_closure([rational_matrix([[0, 1, 1], [1, 0, 1], [1, 1, 2]])])  # row 3 = row 1 + row 2
    with pytest.raises(ClosureError, match="non-invertible"):
        group_closure([rational_matrix([[Fraction(1, 2), 1], [1, 2]])])
    with pytest.raises(ClosureError):
        group_closure([Quaternion.of(2)])  # norm 4, not a unit


def test_conjugacy_identity_class_singleton():
    g = group_closure(builtin_generators("2T"))
    cc = conjugacy_classes(g)
    identity_class = [cl for cl in cc.classes if 0 in cl]
    assert identity_class == [(0,)]
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


def test_mckay_report_reads_the_classes_it_is_given():
    g = group_closure(builtin_generators("cyclic:3"))
    cc = conjugacy_classes(g)
    assert mckay_report(g, cc) == mckay_report(g)
    short = cc._replace(classes=cc.classes[1:])
    report = mckay_report(g, short)
    assert report.class_count == 2 and report.family == "A2" and not report.matches


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
    with pytest.raises(ValueError, match="unique involution"):
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


def test_label_is_an_immutable_hashable_record():
    r = cyclic_quotient_components(5, 2, 1)[2]
    assert repr(r) == "CyclicComponentLabel(m=5, center=<ArcCenter.AT_ORIGIN: 'at_origin'>, m1=3, c=4)"
    assert CyclicComponentLabel._fields == ("m", "center", "m1", "c")
    assert r.label == Fraction(3, 5)
    with pytest.raises(AttributeError):
        r.c = 0
    with pytest.raises(AttributeError):
        r.label = Fraction(1, 5)
    assert {r, CyclicComponentLabel(5, ArcCenter.AT_ORIGIN, 3, 4)} == {r}


def test_label_text_matches_the_fraction_on_a_grid():
    # The CLI prints a row's m1/m from its ints; it must read as the
    # normalised Fraction a/m, including the smooth case m = 1.
    cases = [(1, 0)] + [(m, q) for m in range(2, 41) for q in range(1, m) if gcd(m, q) == 1]
    for m, q in cases:
        for bound in (1, 2, 3):
            rows = cyclic_quotient_components(m, q, bound)
            for a, r in enumerate(rows, start=1):
                assert _fraction_text(r.m1, r.m) == str(r.label) == str(Fraction(a, m))


def _rows_one_by_one(m, q, bound):
    """The rows from the per-row formula: c = a*q^-1 mod m, on the curve
    exactly when m divides a."""
    q_inv = pow(q, -1, m) if m > 1 else 0
    return [
        (m, ArcCenter.AT_ORIGIN if a % m else ArcCenter.ON_CURVE, a, a * q_inv % m)
        for a in range(1, bound * m + 1)
    ]


def test_periodic_rows_equal_the_per_row_formula():
    # The builder repeats one period of centers and c; every m <= 40 with
    # every coprime q, the smooth case, and the largest list under the
    # row ceiling.
    cases = [(1, 0, b) for b in (1, 2, 3, 4)]
    cases += [(m, q, b) for m in range(2, 41) for q in range(1, m) if gcd(m, q) == 1 for b in (1, 2, 3, 4)]
    cases.append((3, 1, 66_666))
    for m, q, bound in cases:
        rows = cyclic_quotient_components(m, q, bound)
        assert rows == _rows_one_by_one(m, q, bound), (m, q, bound)
        assert {type(r) for r in rows} == {CyclicComponentLabel}


def test_label_count_is_bound_times_m():
    for m, q in [(2, 1), (5, 2), (7, 3), (12, 5)]:
        for bound in (1, 2, 3):
            assert len(cyclic_quotient_components(m, q, bound)) == bound * m


def test_labels_are_refused_past_the_row_ceiling():
    # B*m is 199,998 at m = 3, B = 66,666 and 200,001 at B = 66,667.
    assert len(cyclic_quotient_components(3, 1, 66_666)) == 199_998 <= ROWS_CEILING
    with pytest.raises(InputError, match="200001 rows, more than 200000"):
        cyclic_quotient_components(3, 1, 66_667)


def test_label_validation():
    with pytest.raises(ValueError):
        cyclic_quotient_components(4, 2, 1)  # not coprime
    with pytest.raises(ValueError):
        cyclic_quotient_components(5, 0, 1)
    with pytest.raises(ValueError):
        cyclic_quotient_components(1, 1, 1)


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
