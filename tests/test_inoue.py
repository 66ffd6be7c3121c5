from __future__ import annotations

import random
from fractions import Fraction

import pytest

from arclink.cusp import four_cone
from arclink.hjcf import Mat2
from arclink.inoue import (
    InoueError,
    SignCone,
    coordinates,
    from_coordinates,
    inoue_cross_check,
    parse_field_file,
    quad_mult_matrix,
    reduce_by_unit,
    sign_cone,
)
from arclink.quadratic import QuadNum

ONE = QuadNum.of(1)
OMEGA = QuadNum.of(Fraction(1, 2), Fraction(1, 2), 5)  # (1 + sqrt5)/2
U5 = QuadNum.of(Fraction(3, 2), Fraction(1, 2), 5)  # (3 + sqrt5)/2
SQRT2 = QuadNum.of(0, 1, 2)
U2 = QuadNum.of(3, 2, 2)  # 3 + 2*sqrt2


# -- multiplication matrices -----------------------------------------------------


def test_matrix_golden_example():
    assert quad_mult_matrix(U5, (ONE, OMEGA)) == Mat2(1, 1, 1, 2)


def test_matrix_sqrt2_example():
    m = quad_mult_matrix(U2, (ONE, SQRT2))
    assert m == Mat2(3, 4, 2, 3)
    assert m.trace() == 6 and m.det() == 1


def test_matrix_rejections():
    with pytest.raises(InoueError, match="trace"):
        quad_mult_matrix(ONE, (ONE, OMEGA))  # u = 1: trace 2
    with pytest.raises(InoueError, match="totally positive"):
        quad_mult_matrix(-U5, (ONE, OMEGA))
    with pytest.raises(InoueError, match="u\\^2"):
        quad_mult_matrix(QuadNum.of(1, 1, 2), (ONE, SQRT2))  # 1 + sqrt2: norm -1
    with pytest.raises(InoueError, match="uH"):
        # u * sqrt5 has half-integer coordinates in the basis (1, sqrt5)
        quad_mult_matrix(U5, (ONE, QuadNum.of(0, 1, 5)))


def test_inverse_unit_is_also_valid():
    # u^-1 = (3 - sqrt5)/2 is totally positive with norm 1 and trace 3.
    u_inv = QuadNum.of(Fraction(3, 2), Fraction(-1, 2), 5)
    m = quad_mult_matrix(u_inv, (ONE, OMEGA))
    assert m == Mat2(1, 1, 1, 2).inverse() and m.trace() == 3


def test_matrix_power_compatibility():
    m1 = quad_mult_matrix(U5, (ONE, OMEGA))
    m2 = quad_mult_matrix(U5 * U5, (ONE, OMEGA))
    assert m1 * m1 == m2
    m1b = quad_mult_matrix(U2, (ONE, SQRT2))
    m2b = quad_mult_matrix(U2 * U2, (ONE, SQRT2))
    assert m1b * m1b == m2b


def test_coordinates_roundtrip():
    rng = random.Random(2)
    for _ in range(100):
        v = (rng.randint(-20, 20), rng.randint(-20, 20))
        assert coordinates(from_coordinates(v, (ONE, OMEGA)), (ONE, OMEGA)) == v


def test_coordinate_action_of_u_random():
    m = quad_mult_matrix(U5, (ONE, OMEGA))
    rng = random.Random(9)
    for _ in range(500):
        v = (rng.randint(-50, 50), rng.randint(-50, 50))
        elt = from_coordinates(v, (ONE, OMEGA))
        assert coordinates(U5 * elt, (ONE, OMEGA)) == m.apply(v)


# -- sign cones --------------------------------------------------------------------


def test_sign_cone_examples():
    assert sign_cone(ONE) is SignCone.PLUS_PLUS
    assert sign_cone(QuadNum.of(1, -1, 5)) is SignCone.MINUS_PLUS  # 1 - sqrt5
    assert sign_cone(QuadNum.of(0, 1, 5)) is SignCone.PLUS_MINUS  # sqrt5
    assert sign_cone(-ONE) is SignCone.MINUS_MINUS
    with pytest.raises(InoueError):
        sign_cone(QuadNum.of(0))


def test_sign_cones_invariant_under_u():
    rng = random.Random(4)
    for _ in range(200):
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        if v == (0, 0):
            continue
        elt = from_coordinates(v, (ONE, OMEGA))
        assert sign_cone(elt) is sign_cone(U5 * elt)


def test_eigen_cones_unchanged_by_squaring():
    m1 = quad_mult_matrix(U5, (ONE, OMEGA))
    m2 = quad_mult_matrix(U5 * U5, (ONE, OMEGA))
    for x in range(-4, 5):
        for y in range(-4, 5):
            if (x, y) != (0, 0):
                assert four_cone(m1, (x, y)) is four_cone(m2, (x, y))


def test_reduce_by_unit_canonical():
    m = OMEGA * OMEGA  # totally positive? omega^2 = omega + 1 > 0, conj also
    assert sign_cone(m) is SignCone.PLUS_PLUS
    rep, ell = reduce_by_unit(m, U5)
    rep2, ell2 = reduce_by_unit(m * U5 * U5 * U5, U5)
    assert rep == rep2 and ell2 == ell - 3
    with pytest.raises(InoueError):
        reduce_by_unit(QuadNum.of(0, 1, 5), U5)


# -- the cross-check ------------------------------------------------------------------


def test_cross_check_golden():
    report = inoue_cross_check(5, (ONE, OMEGA), U5, 3)
    assert report.passed, report.render()
    assert report.matrix == Mat2(1, 1, 1, 2)
    assert report.sequence == (3,)


def test_cross_check_sqrt2():
    report = inoue_cross_check(2, (ONE, SQRT2), U2, 3)
    assert report.passed, report.render()
    assert report.matrix == Mat2(3, 4, 2, 3)


def test_cross_check_u_squared():
    report = inoue_cross_check(5, (ONE, OMEGA), U5 * U5, 3)
    assert report.passed
    # squared monodromy: the sequence doubles
    assert report.sequence == (3, 3)
    assert report.matrix == Mat2(1, 1, 1, 2) * Mat2(1, 1, 1, 2)


@pytest.mark.parametrize("d, basis, u", [(5, (ONE, OMEGA), U5), (2, (SQRT2, ONE), U2)])
def test_principal_cone_check_catches_a_negated_conjugator(monkeypatch, d, basis, u):
    import arclink.inoue as inoue_mod

    frame = inoue_mod._oriented_frame

    def negated(m_u, grid):
        seq, p, transform, flipped = frame(m_u, grid)
        return seq, -p, transform, flipped

    monkeypatch.setattr(inoue_mod, "_oriented_frame", negated)
    checks = {c.name: c for c in inoue_cross_check(d, basis, u, 3).checks}
    principal = checks["totally positive class is the principal cone"]
    assert not principal.passed and principal.detail.startswith("(")
    # conjugation alone cannot see the sign of the conjugator
    assert checks["recovered sequence conjugate to M_u"].passed


def test_cross_check_orbit_scaling():
    # Per window of mass <= N, the u^2-fundamental domain holds twice the
    # lattice points of the u-fundamental domain (the sequence doubles).
    from arclink.cusp import CuspSequence, enumerate_cusp_components

    n1 = len(enumerate_cusp_components(CuspSequence((3,)), 4))
    n2 = len(enumerate_cusp_components(CuspSequence((3, 3)), 4))
    assert n2 == 2 * n1


# -- field files ----------------------------------------------------------------------


def test_parse_field_file():
    data = parse_field_file("# golden\nd=5\nbasis=1 1/2+1/2*sqrt\nu=3/2+1/2*sqrt\n")
    assert data.d == 5 and data.u == U5 and data.basis == (ONE, OMEGA)


def test_parse_field_file_errors():
    with pytest.raises(InoueError):
        parse_field_file("basis=1 sqrt\n")
    with pytest.raises(InoueError):
        parse_field_file("d=5\nbasis=1\nu=1\n")
    with pytest.raises(InoueError):
        parse_field_file("d=5\nnonsense\n")
    with pytest.raises(InoueError):
        parse_field_file("d=5\nbasis=1 sqrt\n")


def test_cross_check_other_fields():
    # Fundamental units of norm 1 in further real quadratic fields.
    cases = [
        (3, QuadNum.of(2, 1, 3)),      # 2 + sqrt3
        (6, QuadNum.of(5, 2, 6)),      # 5 + 2 sqrt6
        (7, QuadNum.of(8, 3, 7)),      # 8 + 3 sqrt7
        (10, QuadNum.of(19, 6, 10)),   # 19 + 6 sqrt10
    ]
    for d, u in cases:
        basis = (ONE, QuadNum.of(0, 1, d))
        report = inoue_cross_check(d, basis, u, 2)
        assert report.passed, report.render()


def test_parse_field_file_bad_tokens_are_inoue_errors():
    with pytest.raises(InoueError, match="line 3: bad quadratic token"):
        parse_field_file("d=5\nbasis=1 1/2+1/2*sqrt\nu=3/2+1/2*sqrtx\n")
    with pytest.raises(InoueError, match="line 1"):
        parse_field_file("d=x\nbasis=1 sqrt\nu=1+sqrt\n")
    with pytest.raises(InoueError, match="line 2: bad quadratic token"):
        parse_field_file("d=5\nbasis=1 2*sqr\nu=1+sqrt\n")
    with pytest.raises(InoueError, match="zero denominator"):
        parse_field_file("d=5\nbasis=1 sqrt\nu=1/0+sqrt\n")
