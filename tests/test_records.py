"""The contract of the library's records: each public record refuses
assignment, compares and hashes by its fields, keeps its repr text, and
survives copy and pickle.  The value types with operators are not tuples,
so length, iteration and tuple ordering stay errors on them.
"""
from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from arclink.calculus import OrbifoldPoint, SingClass, SingKind, minimal_dlt_model
from arclink.checks import SeifertData, SeifertLeg, SweepResult
from arclink.components import (
    ArcComponent,
    ComponentKind,
    CuspLattice,
    EdgeTorus,
    HomotopyKind,
    HomotopyType,
    SeifertWord,
)
from arclink.cusp import CuspSequence, check_duality, cone_position
from arclink.graph_core import PlumbingGraph, Shape, ShapeClass, Vertex, parse_plumbing
from arclink.hjcf import Mat2
from arclink.inoue import CheckResult, InoueReport, parse_field_file
from arclink.quadratic import QuadNum
from arclink.quotient import (
    Quaternion,
    builtin_generators,
    conjugacy_classes,
    group_closure,
    mckay_report,
)
from test_acceptance import RealForm, real_A_catalog_entry

GENERAL_TEXT = """
graph gen
vertex c euler=-1 genus=1
vertex a euler=-2 genus=0
vertex b euler=-3 genus=0
edge c a
edge c b
"""

CUSP_TEXT = """
graph cusp34
vertex u euler=-3 genus=0
vertex v euler=-4 genus=0
edge u v
edge u v
"""

FIELD_TEXT = "d=5\nbasis=1 1/2+1/2*sqrt\nu=3/2+1/2*sqrt\n"


def _model(text):
    return minimal_dlt_model(parse_plumbing(text))


def _leg(omega=2):
    return SeifertLeg(3, omega, "b1", (2, 2))


def _word(m=2):
    return SeifertWord("c", (("g[c/b]", m),))


def _component(a=2):
    circle = HomotopyType(HomotopyKind.CIRCLE)
    return ArcComponent(ComponentKind.ORBIFOLD_POINT, ("c", "b"), (a,), 3, _word(), circle)


def _group(m=3):
    return group_closure(builtin_generators(f"cyclic:{m}"))


# name -> (make, make a record differing in one field)
RECORDS = {
    "Vertex": (lambda: Vertex("v", -2, 1), lambda: Vertex("v", -3, 1)),
    "PlumbingGraph": (
        lambda: PlumbingGraph((Vertex("a", -2), Vertex("b", -3)), (("b", "a"),), "g"),
        lambda: PlumbingGraph((Vertex("a", -2), Vertex("b", -3)), (("b", "a"),), "h"),
    ),
    "ShapeClass": (lambda: ShapeClass(Shape.STAR, center="c"), lambda: ShapeClass(Shape.STAR, center="d")),
    "SingClass": (
        lambda: SingClass(SingKind.CYCLIC_QUOTIENT, m=5, q=2),
        lambda: SingClass(SingKind.CYCLIC_QUOTIENT, m=5, q=3),
    ),
    "OrbifoldPoint": (
        lambda: OrbifoldPoint("c", 3, 1, leg="b", terms=(3,), tail_ids=("b",)),
        lambda: OrbifoldPoint("c", 3, 2, leg="b", terms=(3,), tail_ids=("b",)),
    ),
    "DltModel": (lambda: _model(GENERAL_TEXT), lambda: _model(GENERAL_TEXT.replace("-3", "-4"))),
    "SeifertWord": (_word, lambda: _word(4)),
    "EdgeTorus": (lambda: EdgeTorus(("a", "b", 0), (1, 2)), lambda: EdgeTorus(("a", "b", 0), (2, 1))),
    "CuspLattice": (lambda: CuspLattice((1, 2)), lambda: CuspLattice((2, 1))),
    "HomotopyType": (
        lambda: HomotopyType(HomotopyKind.CIRCLE_BUNDLE, genus=1, chern=3),
        lambda: HomotopyType(HomotopyKind.CIRCLE_BUNDLE, genus=1, chern=4),
    ),
    "ArcComponent": (_component, lambda: _component(4)),
    "CuspSequence": (lambda: CuspSequence([3, 4]), lambda: CuspSequence((4, 3))),
    "ConePosition": (
        lambda: cone_position((1, 1), CuspSequence((3,))),
        lambda: cone_position((1, 2), CuspSequence((3,))),
    ),
    "DualityReport": (lambda: check_duality(CuspSequence((3, 4))), lambda: check_duality(CuspSequence((3, 5)))),
    "Mat2": (lambda: Mat2(1, 2, 3, 4), lambda: Mat2(1, 2, 3, 5)),
    "QuadNum": (lambda: QuadNum(Fraction(1, 2), 3, 5), lambda: QuadNum(Fraction(1, 2), 3, 7)),
    "Quaternion": (lambda: Quaternion.of(1, 2, 0, 0), lambda: Quaternion.of(1, 0, 2, 0)),
    "FiniteGroup": (_group, lambda: _group(4)),
    "ConjClasses": (lambda: conjugacy_classes(_group()), lambda: conjugacy_classes(_group(4))),
    "McKayReport": (lambda: mckay_report(_group()), lambda: mckay_report(_group(4))),
    "RealCatalogEntry": (
        lambda: real_A_catalog_entry(RealForm.HYPERBOLIC, 3),
        lambda: real_A_catalog_entry(RealForm.HYPERBOLIC, 4),
    ),
    "CheckResult": (lambda: CheckResult("x", True), lambda: CheckResult("x", False)),
    "InoueReport": (
        lambda: InoueReport(5, Mat2(1, 1, 1, 2), (3,), (CheckResult("x", True),)),
        lambda: InoueReport(5, Mat2(1, 1, 1, 2), (3,), (CheckResult("x", False),)),
    ),
    "FieldData": (
        lambda: parse_field_file(FIELD_TEXT),
        lambda: parse_field_file(FIELD_TEXT.replace("u=3/2", "u=7/2").replace("1/2*sqrt\n", "3/2*sqrt\n")),
    ),
    "SweepResult": (lambda: SweepResult("s", True, 3), lambda: SweepResult("s", True, 4)),
    "SeifertLeg": (_leg, lambda: _leg(1)),
    "SeifertData": (lambda: SeifertData(2, 0, (_leg(),), "c"), lambda: SeifertData(3, 0, (_leg(),), "c")),
}

# repr text of the records above as the dataclass definitions printed it
REPRS = {
    "Vertex": "Vertex(id='v', euler=-2, genus=1)",
    "PlumbingGraph": (
        "PlumbingGraph(vertices=(Vertex(id='a', euler=-2, genus=0), Vertex(id='b', euler=-3, genus=0)), "
        "edges=(('a', 'b'),), name='g')"
    ),
    "ShapeClass": "ShapeClass(kind=<Shape.STAR: 'star'>, center='c', nodes=(), order=())",
    "SingClass": (
        "SingClass(kind=<SingKind.CYCLIC_QUOTIENT: 'cyclic_quotient'>, m=5, q=2, alphas=None, b_sequence=None)"
    ),
    "OrbifoldPoint": "OrbifoldPoint(host='c', m=3, omega=1, leg='b', terms=(3,), tail_ids=('b',))",
    "DltModel": (
        "DltModel(kind=<DltKind.MODEL: 'model'>, residual=PlumbingGraph(vertices=(Vertex(id='c', euler=-1, "
        "genus=1),), edges=(), name='gen'), orbifold_points=(OrbifoldPoint(host='c', m=2, omega=1, leg='a', "
        "terms=(2,), tail_ids=('a',)), OrbifoldPoint(host='c', m=3, omega=1, leg='b', terms=(3,), "
        "tail_ids=('b',))), sing_class=SingClass(kind=<SingKind.GENERAL: 'general'>, m=None, q=None, "
        "alphas=None, b_sequence=None), source=PlumbingGraph(vertices=(Vertex(id='c', euler=-1, genus=1), "
        "Vertex(id='a', euler=-2, genus=0), Vertex(id='b', euler=-3, genus=0)), edges=(('a', 'c'), "
        "('b', 'c')), name='gen'))"
    ),
    "SeifertWord": "SeifertWord(piece='c', terms=(('g[c/b]', 2),))",
    "EdgeTorus": "EdgeTorus(chain=('a', 'b', 0), vector=(1, 2))",
    "CuspLattice": "CuspLattice(vector=(1, 2))",
    "HomotopyType": (
        "HomotopyType(kind=<HomotopyKind.CIRCLE_BUNDLE: 'circle_bundle_over_closed_surface'>, "
        "wedge_count=None, genus=1, chern=3)"
    ),
    "ArcComponent": (
        "ArcComponent(kind=<ComponentKind.ORBIFOLD_POINT: 'orbifold_point'>, location=('c', 'b'), "
        "multiplicities=(2,), denominator=3, winding=SeifertWord(piece='c', terms=(('g[c/b]', 2),)), "
        "homotopy=HomotopyType(kind=<HomotopyKind.CIRCLE: 'circle'>, wedge_count=None, genus=None, chern=None))"
    ),
    "CuspSequence": "CuspSequence(b=(3, 4))",
    "ConePosition": (
        "ConePosition(cone=<Cone.CONE: 'cone'>, witness=(1, 1), ray_index=None, sector_index=0, "
        "coeffs=(1, 1), index_abs=0)"
    ),
    "DualityReport": (
        "DualityReport(sequence=(3, 4), dual=(3, 3, 2), m=Mat2(p=11, q=3, r=-4, s=-1), "
        "m_star=Mat2(p=13, q=8, r=-5, s=-3), t_identity_holds=True, traces_equal=True)"
    ),
    "Mat2": "Mat2(p=1, q=2, r=3, s=4)",
    "QuadNum": "QuadNum(a=Fraction(1, 2), b=Fraction(3, 1), d=5)",
    "Quaternion": (
        "Quaternion(a=QuadNum(a=Fraction(1, 1), b=Fraction(0, 1), d=0), "
        "b=QuadNum(a=Fraction(2, 1), b=Fraction(0, 1), d=0), c=QuadNum(a=Fraction(0, 1), b=Fraction(0, 1), d=0), "
        "e=QuadNum(a=Fraction(0, 1), b=Fraction(0, 1), d=0))"
    ),
    "ConjClasses": "ConjClasses(classes=((0,), (1,), (2,)))",
    "McKayReport": (
        "McKayReport(group_order=3, class_count=3, nontrivial_classes=2, family='A2', "
        "expected_exceptional_curves=2, matches=True)"
    ),
    "RealCatalogEntry": (
        "RealCatalogEntry(form=<RealForm.HYPERBOLIC: 'hyperbolic'>, exponent=3, count=6, status='suggested')"
    ),
    "CheckResult": "CheckResult(name='x', passed=True, detail='')",
    "InoueReport": (
        "InoueReport(d=5, matrix=Mat2(p=1, q=1, r=1, s=2), sequence=(3,), "
        "checks=(CheckResult(name='x', passed=True, detail=''),))"
    ),
    "FieldData": (
        "FieldData(d=5, basis=(QuadNum(a=Fraction(1, 1), b=Fraction(0, 1), d=0), "
        "QuadNum(a=Fraction(1, 2), b=Fraction(1, 2), d=5)), u=QuadNum(a=Fraction(3, 2), b=Fraction(1, 2), d=5))"
    ),
    "SweepResult": "SweepResult(name='s', passed=True, cases=3, witness='')",
    "SeifertLeg": "SeifertLeg(alpha=3, omega=2, leg_id='b1', terms=(2, 2))",
    "SeifertData": (
        "SeifertData(b=2, genus=0, legs=(SeifertLeg(alpha=3, omega=2, leg_id='b1', terms=(2, 2)),), center='c')"
    ),
}

@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_refuses_assignment(name):
    record = RECORDS[name][0]()
    assert type(record).__name__ == name
    for field in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            delattr(record, field)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_equality_and_hash_go_by_the_fields(name):
    make, make_other = RECORDS[name]
    record, twin, other = make(), make(), make_other()
    assert record is not twin and record == twin and not record != twin
    assert record != other
    assert hash(record) == hash(twin)
    assert len({record, twin, other}) == 2


@pytest.mark.parametrize("name", sorted(REPRS))
def test_record_repr_is_unchanged(name):
    assert repr(RECORDS[name][0]()) == REPRS[name]


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_survives_copy_and_pickle(name):
    record = RECORDS[name][0]()
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_a_derived_field_is_left_out_of_equality_and_repr():
    g = parse_plumbing(CUSP_TEXT)
    assert "_adj" not in repr(g) and "_by_id" not in repr(g)
    rebuilt = PlumbingGraph(g.vertices, g.edges, g.name)
    assert rebuilt == g and hash(rebuilt) == hash(g)


def test_a_record_validates_and_normalises_in_its_constructor():
    with pytest.raises(ValueError, match="genus"):
        Vertex("v", -2, -1)
    with pytest.raises(ValueError, match="orbifold"):
        OrbifoldPoint("c", 4, 2, leg="b", terms=(2, 2), tail_ids=("b", "e"))
    with pytest.raises(ValueError, match="Seifert"):
        SeifertLeg(4, 2, "b1", (2, 2))
    assert CuspSequence([3, 4]).b == (3, 4)
    assert repr(QuadNum(2, 0, 5)) == "QuadNum(a=Fraction(2, 1), b=Fraction(0, 1), d=0)"


@pytest.mark.parametrize(
    "value", [Mat2(1, 2, 3, 4), QuadNum.of(1, 1, 5), Quaternion.of(1, 2, 0, 0)], ids=type
)
def test_a_value_type_has_no_length_and_no_iteration(value):
    with pytest.raises(TypeError):
        len(value)
    with pytest.raises(TypeError):
        iter(value)


@pytest.mark.parametrize("value", [Mat2(1, 2, 3, 4), Quaternion.of(1, 2, 0, 0)], ids=type)
def test_a_matrix_or_quaternion_has_no_order_and_no_integer_scaling(value):
    with pytest.raises(TypeError):
        value < value
    with pytest.raises(TypeError):
        3 * value


def test_a_quadratic_number_orders_and_scales_by_value():
    # As a tuple (a, b, d), 1 would sort after 0 + 1*sqrt(5).
    one, root5 = QuadNum.of(1), QuadNum.of(0, 1, 5)
    assert one < root5 and not root5 < one
    assert 3 * root5 == QuadNum.of(0, 3, 5)
