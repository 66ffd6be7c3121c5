from __future__ import annotations

import random
import signal
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from arclink.cusp import four_cone
from arclink.hjcf import Mat2
from arclink.inoue import (
    InoueError,
    LatticeForms,
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
GOLDEN = (ONE, OMEGA)


@contextmanager
def _deadline(seconds: int):
    """Raise TimeoutError in the body once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


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


def test_lattice_forms_of_the_golden_basis():
    # 1 = (2 + 0*sqrt5)/2 and omega = (1 + 1*sqrt5)/2
    assert LatticeForms.of(GOLDEN) == LatticeForms(5, (2, 1), (0, 1))
    assert LatticeForms.of((SQRT2, ONE)) == LatticeForms(2, (0, 1), (1, 0))


def test_sign_cone_examples():
    forms = LatticeForms.of((ONE, QuadNum.of(0, 1, 5)))  # coordinates in (1, sqrt5)
    assert sign_cone((1, 0), forms) is SignCone.PLUS_PLUS
    assert sign_cone((1, -1), forms) is SignCone.MINUS_PLUS  # 1 - sqrt5
    assert sign_cone((0, 1), forms) is SignCone.PLUS_MINUS  # sqrt5
    assert sign_cone((-1, 0), forms) is SignCone.MINUS_MINUS
    with pytest.raises(InoueError):
        sign_cone((0, 0), forms)


def test_sign_cones_invariant_under_u():
    forms = LatticeForms.of(GOLDEN)
    rng = random.Random(4)
    for _ in range(200):
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        if v == (0, 0):
            continue
        moved = coordinates(U5 * from_coordinates(v, GOLDEN), GOLDEN)
        assert sign_cone(v, forms) is sign_cone(moved, forms)


def test_sign_cones_agree_with_field_signs():
    want = {(1, 1): SignCone.PLUS_PLUS, (1, -1): SignCone.PLUS_MINUS,
            (-1, 1): SignCone.MINUS_PLUS, (-1, -1): SignCone.MINUS_MINUS}
    rng = random.Random(6)
    # the third basis has denominators 3 and 5 in its two elements
    for basis in (GOLDEN, (SQRT2, ONE), (QuadNum.of(Fraction(1, 3), 2, 2), QuadNum.of(-1, Fraction(1, 5), 2))):
        forms = LatticeForms.of(basis)
        for _ in range(100):
            v = (rng.randint(-30, 30), rng.randint(-30, 30))
            if v != (0, 0):
                elt = from_coordinates(v, basis)
                assert sign_cone(v, forms) is want[elt.sign(), elt.conjugate().sign()]


def test_eigen_cones_unchanged_by_squaring():
    m1 = quad_mult_matrix(U5, (ONE, OMEGA))
    m2 = quad_mult_matrix(U5 * U5, (ONE, OMEGA))
    for x in range(-4, 5):
        for y in range(-4, 5):
            if (x, y) != (0, 0):
                assert four_cone(m1, (x, y)) is four_cone(m2, (x, y))


def test_reduce_by_unit_canonical():
    forms = LatticeForms.of(GOLDEN)
    m_u = quad_mult_matrix(U5, GOLDEN)
    m = (1, 1)  # omega^2 = omega + 1: totally positive
    assert sign_cone(m, forms) is SignCone.PLUS_PLUS
    rep, ell = reduce_by_unit(m, forms, m_u)
    rep2, ell2 = reduce_by_unit((m_u ** 3).apply(m), forms, m_u)
    assert rep == rep2 and ell2 == ell - 3
    with pytest.raises(InoueError):
        reduce_by_unit((-1, 2), forms, m_u)  # sqrt5 = 2*omega - 1


_UNIT_CASES = [
    pytest.param(GOLDEN, U5, id="sqrt5-u"),
    pytest.param(GOLDEN, U5.inverse(), id="sqrt5-u-inverse"),
    pytest.param((ONE, SQRT2), U2, id="sqrt2-u"),
    pytest.param((ONE, SQRT2), U2.inverse(), id="sqrt2-u-inverse"),
]


@pytest.mark.parametrize("basis, u", _UNIT_CASES)
@given(c=st.tuples(st.integers(-60, 60), st.integers(-60, 60)), shift=st.integers(-4, 4))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
def test_reduce_by_unit_lands_in_the_field_window(basis, u, c, shift):
    elt = from_coordinates(c, basis)
    assume(elt.norm() > 0)  # totally positive or totally negative
    if elt < 0:
        c, elt = (-c[0], -c[1]), -elt
    v = max(u, u.inverse())  # the unit above 1
    m_u = quad_mult_matrix(u, basis)
    m_v = quad_mult_matrix(v, basis)
    # the rule the cross-check follows: M_u when u > 1, else M_u^-1
    assert m_v == (m_u if u.b > 0 else m_u.inverse())
    forms = LatticeForms.of(basis)
    rep, ell = reduce_by_unit(c, forms, m_v)
    assert rep == (m_v ** ell).apply(c)
    ratio = from_coordinates(rep, basis) / from_coordinates(rep, basis).conjugate()
    assert 1 <= ratio < v * v
    assert reduce_by_unit((m_v ** shift).apply(c), forms, m_v) == (rep, ell - shift)


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


def test_cross_check_inverse_unit_terminates():
    # u^-1 = (3 - sqrt5)/2 < 1: the orbit window of u^-1 itself would be empty
    with _deadline(10):
        report = inoue_cross_check(5, GOLDEN, U5.inverse(), 3)
    assert report.passed, report.render()
    assert report.matrix == Mat2(1, 1, 1, 2).inverse()
    assert report.sequence == (3,)


def test_cross_check_refuses_a_d_other_than_the_field():
    # The report's d must be the field of the basis and u: the golden
    # basis and unit lie in Q(sqrt5), not Q(sqrt3).
    with pytest.raises(InoueError, match=r"d=3, but the basis and u lie in Q\(sqrt\(5\)\)"):
        inoue_cross_check(3, GOLDEN, U5, 3)
    with pytest.raises(InoueError, match=r"lie in Q\(sqrt\(2\)\) and Q\(sqrt\(5\)\)"):
        inoue_cross_check(5, (ONE, SQRT2), U5, 3)
    # A rational element fits every field, so (1, sqrt2) with d = 2 is
    # accepted; all three rational is refused by the matrix step, as before.
    assert inoue_cross_check(2, (ONE, SQRT2), U2, 3).d == 2
    with pytest.raises(InoueError, match="linearly dependent"):
        inoue_cross_check(5, (ONE, QuadNum.of(2)), QuadNum.of(1), 3)


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

    def negated(m_u, positive):
        seq, p, transform, flipped = frame(m_u, positive)
        return seq, -p, transform, flipped

    monkeypatch.setattr(inoue_mod, "_oriented_frame", negated)
    checks = {c.name: c for c in inoue_cross_check(d, basis, u, 3).checks}
    principal = checks["totally positive class is the principal cone"]
    assert not principal.passed and principal.detail.startswith("(")
    # conjugation alone cannot see the sign of the conjugator
    assert checks["recovered sequence conjugate to M_u"].passed


def test_grid_without_a_totally_positive_element_is_refused():
    # A basis of Z[sqrt2] whose totally positive cone misses every
    # coordinate vector with entries in [-4, 4].
    basis = (QuadNum.of(-1, 5, 2), SQRT2)
    grid = [from_coordinates((x, y), basis) for x in range(-4, 5) for y in range(-4, 5)]
    assert not any(elt > 0 and elt.conjugate() > 0 for elt in grid)
    with pytest.raises(InoueError, match="no orientation matches the principal cone"):
        inoue_cross_check(2, basis, U2, 3)


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
