from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import arclink.cusp as cusp_mod
from arclink.cusp import (
    Cone,
    ConePosition,
    CuspComponent,
    CuspError,
    CuspSequence,
    T_MATRIX,
    check_duality,
    cone_position,
    dual_construction,
    dual_sequence,
    enumerate_cusp_components,
    four_cone,
    monodromy,
    recover_sequence,
    recover_with_conjugator,
    reduce_mod_monodromy,
    v_sequence,
)
from arclink.hjcf import Mat2, mono_product
from arclink.inputs import DUAL_CEILING
from arclink.quadratic import quadint_sign

_sequences = st.lists(st.integers(2, 6), min_size=1, max_size=6).filter(
    lambda bs: any(b > 2 for b in bs)
)


# -- sequences and monodromy ---------------------------------------------------


def test_sequence_validation():
    with pytest.raises(CuspError):
        CuspSequence((2, 2))
    with pytest.raises(CuspError):
        CuspSequence((3, 1))
    with pytest.raises(CuspError):
        CuspSequence(())


def test_monodromy_examples():
    assert monodromy(CuspSequence((3,))) == Mat2(3, 1, -1, 0)
    m = monodromy(CuspSequence((3, 3, 3)))
    assert m == Mat2(21, 8, -8, -3)
    assert m.trace() == 18


def test_trace_at_least_three_exhaustive():
    for k in range(1, 6):
        for bs in product(range(2, 7), repeat=k):
            if all(b == 2 for b in bs):
                continue
            assert monodromy(CuspSequence(bs)).trace() >= 3


# -- least rotation ----------------------------------------------------------------


def _least_rotation_oracle(b: tuple[int, ...]) -> tuple[int, ...]:
    """The minimum over all k rotations: quadratic, independent of the scan."""
    return min(b[i:] + b[:i] for i in range(len(b)))


def test_canonical_matches_oracle_exhaustive():
    for k in range(1, 8):
        for bs in product((2, 3, 4), repeat=k):
            if max(bs) == 2:
                continue
            assert CuspSequence(bs).canonical().b == _least_rotation_oracle(bs), bs


@pytest.mark.parametrize("word", [(2, 3), (3, 2, 2)])
def test_canonical_of_periodic_words(word):
    # Every start of a periodic word ties with the ones a period later.
    for j in range(1, 13):
        bs = word * j
        for s in range(len(bs)):
            rot = bs[s:] + bs[:s]
            assert CuspSequence(rot).canonical().b == _least_rotation_oracle(bs), rot


@given(st.lists(st.integers(2, 5), min_size=1, max_size=40).filter(lambda bs: max(bs) > 2))
@settings(max_examples=200)
def test_canonical_matches_oracle(bs):
    b = tuple(bs)
    canon = CuspSequence(b).canonical()
    assert canon.b == _least_rotation_oracle(b)
    assert canon.canonical() == canon


def test_canonical_closed_form_at_ten_thousand_terms():
    # (3, 2^9999) in every 97th rotation and the last: the least rotation
    # puts the 3 last.  All 10^4 rotations would be 3*10^8 scan steps.
    b = (3,) + (2,) * 9_999
    for s in [*range(0, len(b), 97), len(b) - 1]:
        assert CuspSequence(b[s:] + b[:s]).canonical().b == (2,) * 9_999 + (3,), s


def test_recover_a_ten_thousand_curve_cycle():
    rng = random.Random(10)
    b = [2] * 10_000
    for pos in rng.sample(range(len(b)), 15):
        b[pos] = rng.choice((3, 4))
    c = CuspSequence(tuple(b))
    assert recover_sequence(monodromy(c)) == c.canonical()


def test_recover_a_periodic_ten_thousand_curve_cycle():
    # The period (2, 3) repeats 5,000 times: the repetition count comes
    # from the trace recurrence of the period's monodromy.
    c = CuspSequence((3, 2) * 5000)
    assert recover_sequence(monodromy(c)) == c.canonical() == CuspSequence((2, 3) * 5000)


def test_recover_a_dense_eight_thousand_term_sequence():
    # Every term is 2 or 3, so the monodromy entries have thousands of
    # digits and every step of the expansion works on numbers that long.
    rng = random.Random(8000)
    c = CuspSequence(tuple(rng.choice((2, 3)) for _ in range(8000)))
    assert recover_sequence(monodromy(c)) == c.canonical()


def test_recover_a_conjugated_2048_term_sequence():
    # The fixed point of a conjugate has a pre-period, which the returned
    # conjugator carries.
    rng = random.Random(2048)
    c = CuspSequence(tuple(rng.randint(2, 5) for _ in range(2048)))
    conj = Mat2.identity()
    for _ in range(12):
        n = rng.choice((-3, -2, -1, 1, 2, 3))
        conj = conj * rng.choice((Mat2(1, n, 0, 1), Mat2(1, 0, n, 1)))
    m = conj * monodromy(c) * conj.inverse()
    seq, p = recover_with_conjugator(m)
    assert seq.is_rotation_of(c)
    assert p.det() == 1 and p != Mat2.identity()
    assert p * monodromy(seq) == m * p


# -- the v fan -------------------------------------------------------------------


def test_v_sequence_examples():
    c = CuspSequence((3,))
    assert v_sequence(c, 0, 2) == [(0, 1), (1, 0), (3, -1)]
    c3 = CuspSequence((3, 3, 3))
    assert v_sequence(c3, 0, 3)[3] == (8, -3)  # v_3 = M v_0, second column


def test_v_sequence_matches_monodromy_columns():
    # M(b_1..b_i) = (v_{i+1}, v_i) as columns, for every prefix.
    c = CuspSequence((2, 3, 2, 5))
    vs = v_sequence(c, 0, c.k + 1)
    for i in range(1, c.k + 1):
        m = mono_product(c.b[:i])
        assert (m.p, m.r) == vs[i + 1]
        assert (m.q, m.s) == vs[i]


@given(_sequences)
@settings(max_examples=60)
def test_consecutive_determinants_one(bs):
    c = CuspSequence(tuple(bs))
    vs = v_sequence(c, -4, 2 * c.k + 4)
    for u, w in zip(vs, vs[1:]):
        assert w[0] * u[1] - w[1] * u[0] == 1


@given(_sequences)
@settings(max_examples=60)
def test_periodicity_under_monodromy(bs):
    c = CuspSequence(tuple(bs))
    m = monodromy(c)
    vs = v_sequence(c, -c.k, 2 * c.k)
    for i in range(-c.k, c.k):
        assert m.apply(vs[i + c.k]) == vs[i + 2 * c.k]


# -- cone positions ----------------------------------------------------------------


def test_cone_position_examples():
    c = CuspSequence((3,))
    p = cone_position((0, 5), c)
    assert p.cone is Cone.CONE and p.ray_index == 0 and p.coeffs == (5,)
    p = cone_position((1, 1), c)
    assert p.cone is Cone.CONE and p.sector_index == 0 and p.coeffs == (1, 1)
    assert cone_position((0, -1), c).cone is Cone.CONE_MINUS
    with pytest.raises(CuspError):
        cone_position((0, 0), c)


def test_dual_cone_contains_paper_basis():
    # u0 = (-1, 2) and u1 = (-1, 1) lie in the complementary cone.
    c = CuspSequence((3,))
    assert cone_position((-1, 2), c).cone is Cone.DUAL_CONE
    assert cone_position((-1, 1), c).cone is Cone.DUAL_CONE
    assert cone_position((1, -2), c).cone is Cone.DUAL_CONE_MINUS


def test_four_cones_partition():
    c = CuspSequence((2, 3))
    m = monodromy(c)
    counts = {cone: 0 for cone in Cone}
    for x in range(-6, 7):
        for y in range(-6, 7):
            if (x, y) != (0, 0):
                counts[four_cone(m, (x, y))] += 1
    assert all(n > 0 for n in counts.values())
    assert sum(counts.values()) == 13 * 13 - 1
    # Central symmetry swaps each cone with its negative.
    for x, y in [(1, 2), (5, -3), (-4, 1)]:
        a, b = four_cone(m, (x, y)), four_cone(m, (-x, -y))
        assert {a, b} in (
            {Cone.CONE, Cone.CONE_MINUS},
            {Cone.DUAL_CONE, Cone.DUAL_CONE_MINUS},
        )


def test_eigenray_sign_test_never_zero():
    # Lattice points never sit on an eigenray: the Z[sqrt(D)] signs are
    # always nonzero, even for large coordinates.
    rng = random.Random(5)
    c = CuspSequence((2, 2, 3, 4))
    m = monodromy(c)
    from arclink.cusp import _eigen_sign_pair

    for _ in range(400):
        w = (rng.randint(-10**6, 10**6), rng.randint(-10**6, 10**6))
        if w == (0, 0):
            continue
        s1, s2 = _eigen_sign_pair(m, w)
        assert s1 != 0 and s2 != 0


def _stepwise_position(w, c: CuspSequence) -> ConePosition:
    """The fan walk one ray at a time from [v_0, v_1), with no period jumps."""
    cone = four_cone(monodromy(c), w)
    if cone is not Cone.CONE:
        return ConePosition(cone, w)
    i, vi, vi1 = 0, (0, 1), (1, 0)
    while True:
        a = vi1[0] * w[1] - vi1[1] * w[0]  # coefficient on v_i
        b = w[0] * vi[1] - w[1] * vi[0]    # coefficient on v_{i+1}
        if b < 0:
            # step left: v_{i-1} = b_i v_i - v_{i+1}
            bterm = c.term(i)
            vi, vi1 = (bterm * vi[0] - vi1[0], bterm * vi[1] - vi1[1]), vi
            i -= 1
        elif a <= 0:
            # step right: v_{i+2} = b_{i+1} v_{i+1} - v_i
            bterm = c.term(i + 1)
            vi, vi1 = vi1, (bterm * vi1[0] - vi[0], bterm * vi1[1] - vi[1])
            i += 1
        elif b == 0:
            return ConePosition(Cone.CONE, w, ray_index=i % c.k, coeffs=(a,), index_abs=i)
        else:
            return ConePosition(Cone.CONE, w, sector_index=i % c.k, coeffs=(a, b), index_abs=i)


@given(_sequences, st.integers(-6, 6))
@settings(max_examples=120, deadline=None)
def test_cone_position_matches_stepwise_walk(bs, ell):
    c = CuspSequence(tuple(bs))
    m_ell = monodromy(c) ** ell
    for x in range(-2, 3):
        for y in range(-2, 3):
            if (x, y) != (0, 0):
                w = m_ell.apply((x, y))
                assert cone_position(w, c) == _stepwise_position(w, c), (bs, ell, w)


@pytest.mark.parametrize("ell", [40, -40])
def test_cone_position_shifts_by_whole_periods(ell):
    rng = random.Random(13)
    c = CuspSequence((3,) + tuple(rng.choice((2, 3, 4)) for _ in range(511)))
    m_ell = monodromy(c) ** ell
    for w in [(2, 1), (0, 3), (5, 2)]:
        base = cone_position(w, c)
        moved = cone_position(m_ell.apply(w), c)
        assert moved.index_abs == base.index_abs + ell * c.k
        assert (moved.ray_index, moved.sector_index, moved.coeffs) == (
            base.ray_index, base.sector_index, base.coeffs)


@given(_sequences, st.integers(-6, 6))
@settings(max_examples=120, deadline=None)
def test_reduce_matches_the_power_of_the_monodromy(bs, ell):
    # On the grid of the stepwise walk: the representative is M^l w with
    # l = -floor(index / k) for the walk's absolute fan index.
    c = CuspSequence(tuple(bs))
    m = monodromy(c)
    m_ell = m ** ell
    for x in range(-2, 3):
        for y in range(-2, 3):
            w = m_ell.apply((x, y))
            if (x, y) == (0, 0) or (pos := _stepwise_position(w, c)).cone is not Cone.CONE:
                continue
            shift = -(pos.index_abs // c.k)
            assert reduce_mod_monodromy(w, c) == ((m ** shift).apply(w), shift), (bs, ell, w)


# -- reduction and enumeration -------------------------------------------------------


def test_reduce_examples():
    c = CuspSequence((3,))
    rep, ell = reduce_mod_monodromy((1, 0), c)
    assert rep == (0, 1) and ell == -1
    rep, ell = reduce_mod_monodromy((0, 1), c)
    assert rep == (0, 1) and ell == 0
    c3 = CuspSequence((3, 3, 3))
    w = (monodromy(c3) ** 2).apply((1, 1))
    rep, ell = reduce_mod_monodromy(w, c3)
    assert rep == (1, 1) and ell == -2


def test_reduce_rejects_other_cones():
    c = CuspSequence((3,))
    with pytest.raises(CuspError):
        reduce_mod_monodromy((-1, 2), c)


@given(_sequences, st.integers(-5, 5))
@settings(max_examples=60, deadline=None)
def test_reduce_invariant_under_monodromy(bs, j):
    c = CuspSequence(tuple(bs))
    m = monodromy(c)
    w = (2, 1)  # in the open first quadrant, hence inside the cone
    assert cone_position(w, c).cone is Cone.CONE
    rep0, _ = reduce_mod_monodromy(w, c)
    rep, ell = reduce_mod_monodromy((m ** j).apply(w), c)
    assert rep == rep0
    assert (m ** ell).apply((m ** j).apply(w)) == rep
    # The representative lies in the fundamental sectors.
    pos = cone_position(rep, c)
    assert 0 <= pos.index_abs < c.k


def test_enumerate_examples():
    c = CuspSequence((3,))
    comps = enumerate_cusp_components(c, 1)
    assert [x.vector for x in comps] == [(0, 1)]
    comps = enumerate_cusp_components(c, 2)
    assert sorted(x.vector for x in comps) == [(0, 1), (0, 2), (1, 1)]


def test_cusp_component_record_contract():
    comp = enumerate_cusp_components(CuspSequence((3,)), 1)[0]
    assert repr(comp) == "CuspComponent(kind='ray', index=0, multiplicities=(1,), vector=(0, 1))"
    with pytest.raises(AttributeError):
        comp.index = 1
    same = CuspComponent("ray", 0, (1,), (0, 1))
    assert comp == same and hash(comp) == hash(same)
    assert comp != CuspComponent("ray", 0, (2,), (0, 2))
    assert comp == ("ray", 0, (1,), (0, 1))


def test_rows_are_the_closed_forms():
    # Each row's vector is built from its predecessor by one addition; the
    # closed forms m*v_i and m_i*v_i + m_{i+1}*v_{i+1} are read off v_sequence.
    rng = random.Random(28)
    for t in range(40):
        k = 64 if t == 0 else rng.randint(1, 64)
        bs = [rng.choice((2, 2, 3, 4, 9)) for _ in range(k)]
        bs[rng.randrange(k)] = 3
        c = CuspSequence(tuple(bs))
        vs = v_sequence(c, 0, k)
        for bound in range(1, 8):
            want = [("ray", i, (m,), (m * x, m * y)) for i, (x, y) in enumerate(vs[:k])
                    for m in range(1, bound + 1)]
            want += [
                ("sector", i, (mi, mj), (mi * vs[i][0] + mj * vs[i + 1][0], mi * vs[i][1] + mj * vs[i + 1][1]))
                for i in range(k) for mi in range(1, bound) for mj in range(1, bound - mi + 1)
            ]
            comps = enumerate_cusp_components(c, bound)
            assert comps == want
            assert {type(x) for x in comps} == {CuspComponent}


def test_enumeration_is_refused_past_the_row_ceiling():
    # k*B*(B+1)/2 is 199,290 at k = 3, B = 364 and 200,385 at B = 365, the
    # first bound past the ceiling of 2*10^5 rows.
    with pytest.raises(CuspError, match="200385 rows, more than 200000"):
        enumerate_cusp_components(CuspSequence((3, 3, 3)), 365)


@given(_sequences, st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_enumeration_monotone(bs, n):
    c = CuspSequence(tuple(bs))
    small = {x.vector for x in enumerate_cusp_components(c, n)}
    big = {x.vector for x in enumerate_cusp_components(c, n + 1)}
    assert small < big


def _brute_force_components(c: CuspSequence, bound: int) -> set:
    """Scan a box, keep cone points whose reduced mass fits the bound."""
    vs = v_sequence(c, 0, c.k)
    radius = bound * max(max(abs(v[0]), abs(v[1])) for v in vs)
    found = set()
    for x in range(-radius, radius + 1):
        for y in range(-radius, radius + 1):
            if (x, y) == (0, 0):
                continue
            if cone_position((x, y), c).cone is not Cone.CONE:
                continue
            rep, _ = reduce_mod_monodromy((x, y), c)
            if sum(cone_position(rep, c).coeffs) <= bound:
                found.add(rep)
    return found


@pytest.mark.parametrize("bs,bound", [((3,), 3), ((2, 3), 2), ((3, 3, 3), 2), ((4,), 2)])
def test_enumeration_against_box_scan(bs, bound):
    c = CuspSequence(bs)
    enumerated = {x.vector for x in enumerate_cusp_components(c, bound)}
    assert enumerated == _brute_force_components(c, bound)


# -- duality ------------------------------------------------------------------------


def test_dual_examples():
    assert dual_sequence(CuspSequence((3, 3, 3))).b == (3, 3, 3)
    assert dual_sequence(CuspSequence((2, 3))).b == (4,)
    dual = dual_sequence(CuspSequence((2, 2, 3, 4)))
    assert dual.is_rotation_of(CuspSequence((5, 3, 2)))


def test_check_duality_examples():
    r = check_duality(CuspSequence((2, 3)))
    assert r.m == Mat2(5, 2, -3, -1)
    assert r.m_star == Mat2(4, 1, -1, 0)
    assert r.m * T_MATRIX == Mat2(-3, -1, 2, 1)
    assert r.ok
    r = check_duality(CuspSequence((3, 3, 3)))
    assert r.m * T_MATRIX == Mat2(-13, -5, 5, 2)
    assert r.ok and r.canonical_dual()[1]


def test_duality_exhaustive_small():
    for k in range(1, 7):
        for bs in product(range(2, 7), repeat=k):
            if all(b == 2 for b in bs):
                continue
            r = check_duality(CuspSequence(bs))
            assert r.t_identity_holds and r.traces_equal, bs


@pytest.mark.parametrize("entry", ["p", "q", "r", "s"])
@pytest.mark.parametrize("delta", [1, -1])
def test_a_perturbed_dual_monodromy_breaks_the_identity(monkeypatch, entry, delta):
    # check_duality builds M, then M*; one entry of M* off by one must
    # fail M T = T M*, which fixes M* = T^-1 M T.
    real = cusp_mod.mono_product
    for bs in [(3,), (2, 3), (3, 3, 3), (2, 2, 3, 4), (5, 2, 6)]:
        calls = []

        def perturbed(b):
            m = real(b)
            calls.append(b)
            if len(calls) == 1:
                return m
            fields = {f: getattr(m, f) for f in "pqrs"}
            fields[entry] += delta
            return Mat2(**fields)

        monkeypatch.setattr(cusp_mod, "mono_product", perturbed)
        r = check_duality(CuspSequence(bs))
        assert len(calls) == 2 and not r.t_identity_holds, bs
        assert r.m * T_MATRIX != T_MATRIX * r.m_star, bs


def test_duality_identity_agrees_with_the_matrix_products():
    # The int test against the two Mat2 products it replaces, also for a
    # wrong bridge matrix, where both must say False.
    for t in (T_MATRIX, Mat2(-1, -1, 1, 3), Mat2(2, 1, 1, 1)):
        for k in range(1, 5):
            for bs in product(range(2, 5), repeat=k):
                if all(b == 2 for b in bs):
                    continue
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(cusp_mod, "T_MATRIX", t)
                    r = check_duality(CuspSequence(bs))
                assert r.t_identity_holds == (r.m * t == t * r.m_star), (t, bs)
                assert r.t_identity_holds == (t is T_MATRIX), (t, bs)


@given(_sequences)
@settings(max_examples=80)
def test_dual_is_involution(bs):
    c = CuspSequence(tuple(bs))
    assert dual_sequence(dual_sequence(c)).is_rotation_of(c)
    assert monodromy(dual_sequence(c)).trace() == monodromy(c).trace()


def test_dual_construction_rotates_to_big_last():
    rot, dual = dual_construction(CuspSequence((4, 2, 2)))
    assert rot[-1] >= 3
    assert CuspSequence(dual).is_rotation_of(dual_sequence(CuspSequence((4, 2, 2))))


@given(st.lists(st.integers(2, 5), min_size=1, max_size=12).filter(lambda bs: any(b > 2 for b in bs)))
def test_construction_rotation_is_the_first_rotation_ending_big(bs):
    b = tuple(bs)
    brute = next(b[s:] + b[:s] for s in range(len(b)) if (b[s:] + b[:s])[-1] >= 3)
    assert cusp_mod._construction_rotation(b) == brute


def test_dual_length_is_bounded_before_it_is_built():
    ceiling = DUAL_CEILING
    _, dual = dual_construction(CuspSequence((ceiling + 2,)))
    assert len(dual) == ceiling
    for bs in [(ceiling + 3,), (10**23, 3), (3,) * (ceiling + 1)]:
        with pytest.raises(CuspError, match="sum"):
            dual_construction(CuspSequence(bs))
        with pytest.raises(CuspError, match="sum"):
            check_duality(CuspSequence(bs))


# -- recovery --------------------------------------------------------------------------


def test_recover_examples():
    assert recover_sequence(Mat2(3, 1, -1, 0)).b == (3,)
    assert recover_sequence(Mat2(1, 1, 1, 2)).b == (3,)
    assert recover_sequence(Mat2(21, 8, -8, -3)).is_rotation_of(CuspSequence((3, 3, 3)))


def test_recover_validation():
    with pytest.raises(CuspError):
        recover_sequence(Mat2(1, 0, 0, 1))  # trace 2
    with pytest.raises(CuspError):
        recover_sequence(Mat2(2, 0, 0, 1))  # det 2


def test_recover_conjugated_matrices():
    c = CuspSequence((2, 3, 4))
    m = monodromy(c)
    conj = Mat2(2, 5, 1, 3)
    m2 = conj * m * conj.inverse()
    assert recover_sequence(m2).is_rotation_of(c)
    seq, p = recover_with_conjugator(m2)
    assert p * mono_product(seq.b) == m2 * p


def test_floor_quad_matches_the_exact_definition():
    # n = floor((a + sqrt d) / c) iff n*c and (n + 1)*c lie on either side
    # of a + sqrt d, the sides read off exact signs with the sign of c.
    rng = random.Random(5)
    for bits in (4, 40, 300):
        for _ in range(300):
            r = rng.getrandbits(bits) | 1 << (bits - 1)  # d >= 2**598 at 300 bits
            d = r * r + rng.randint(1, 2 * r)  # strictly between squares
            a = rng.randint(-(2**bits), 2**bits)
            c = rng.choice((-1, 1)) * rng.randint(1, 2**bits)
            n = cusp_mod._floor_quad(a, c, d, r)
            side = 1 if c > 0 else -1
            assert side * quadint_sign(a - n * c, 1, d) > 0, (a, c, d)
            assert side * quadint_sign(a - (n + 1) * c, 1, d) < 0, (a, c, d)


def test_recover_roundtrip_500_random():
    rng = random.Random(12)
    done = 0
    while done < 500:
        k = rng.randint(1, 8)
        bs = tuple(rng.randint(2, 9) for _ in range(k))
        if all(b == 2 for b in bs):
            continue
        done += 1
        c = CuspSequence(bs)
        assert recover_sequence(monodromy(c)).is_rotation_of(c), bs


def test_reduce_huge_vector():
    # Entries around 10^6 still reduce exactly and land in the domain.
    c = CuspSequence((2, 3, 4))
    m = monodromy(c)
    w = (m ** 9).apply((2, 1))
    assert max(abs(w[0]), abs(w[1])) > 10**6
    rep, ell = reduce_mod_monodromy(w, c)
    assert (m ** -ell).apply(rep) == w
    rep0, _ = reduce_mod_monodromy((2, 1), c)
    assert rep == rep0


def test_recover_under_random_conjugation():
    # Recovery is conjugation-invariant: conjugate the monodromy by random
    # SL(2,Z) words and demand the same cyclic sequence back.
    rng = random.Random(77)
    gens = [Mat2(1, 1, 0, 1), Mat2(1, 0, 1, 1), Mat2(1, -1, 0, 1), Mat2(1, 0, -1, 1)]
    for _ in range(60):
        k = rng.randint(1, 5)
        bs = tuple(rng.randint(2, 6) for _ in range(k))
        if all(b == 2 for b in bs):
            continue
        c = CuspSequence(bs)
        conj = Mat2.identity()
        for _ in range(rng.randint(0, 6)):
            conj = conj * rng.choice(gens)
        m = conj * monodromy(c) * conj.inverse()
        assert recover_sequence(m).is_rotation_of(c), (bs, m)
        seq, p = recover_with_conjugator(m)
        assert p * mono_product(seq.b) == m * p


def test_cone_position_agrees_with_float_oracle():
    # Away from the eigenrays a float computation is decisive; the exact
    # classifier must agree wherever the float margin is clear.
    import math

    rng = random.Random(2024)
    c = CuspSequence((2, 3, 4))
    m = monodromy(c)
    tau = m.trace()
    disc = math.sqrt(tau * tau - 4)
    v1 = (2 * m.q, (m.s - m.p) + disc)
    v2p = (-2 * m.q, (m.p - m.s) + disc)

    def cross(u, w):
        return u[0] * w[1] - u[1] * w[0]

    checked = 0
    for _ in range(500):
        w = (rng.randint(-1000, 1000), rng.randint(-1000, 1000))
        if w == (0, 0):
            continue
        s1, s2 = cross(v1, w), cross(v2p, w)
        if abs(s1) < 1e-6 or abs(s2) < 1e-6:
            continue  # too close to an eigenray for floats
        checked += 1
        expected = {
            (True, False): Cone.CONE,
            (False, True): Cone.CONE_MINUS,
            (True, True): Cone.DUAL_CONE,
            (False, False): Cone.DUAL_CONE_MINUS,
        }[(s1 > 0, s2 > 0)]
        assert cone_position(w, c).cone is expected, w
    assert checked > 400
