"""Exhaustive desk-scale sweeps of the library's mathematical identities.

Each sweep returns a SweepResult; a falsification carries a concrete
witness.  The CLI ``check`` subcommand runs all of them and exits
nonzero if any fails, and the acceptance tests reuse them directly.  The
oracles the sweeps test against live here too: the dense definiteness
routes, the exact solver of the chain conjugacy system, and the Seifert
invariants of a star with the finiteness test of its fundamental group.
Only the CLI imports this module.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import ceil, floor, gcd

from .calculus import DltKind, minimal_dlt_model, singularity_class
from .components import enumerate_components
from .cusp import CuspSequence, check_duality, dual_sequence, monodromy, recover_sequence
from .graph_core import (
    GraphError,
    PlumbingGraph,
    Shape,
    Vertex,
    classify_shape,
    intersection_matrix,
    is_negative_definite,
    is_negative_definite_graph,
    star_legs,
)
from .hjcf import hj_expand, hj_numerator, hj_pair
from .inoue import inoue_cross_check
from .quadratic import QuadNum
from .quotient import (
    ArcCenter,
    builtin_generators,
    conjugacy_classes,
    cyclic_quotient_components,
    group_closure,
    mckay_report,
)


@dataclass(frozen=True, slots=True)
class SweepResult:
    name: str
    passed: bool
    cases: int
    witness: str = ""

    def render(self) -> str:
        mark = "ok" if self.passed else "FALSIFIED"
        out = f"[{mark}] {self.name} ({self.cases} cases)"
        return out + (f": {self.witness}" if self.witness else "")


def _valid_sequences(max_k: int, max_b: int):
    for k in range(1, max_k + 1):
        for bs in product(range(2, max_b + 1), repeat=k):
            if any(b > 2 for b in bs):
                yield bs


def sweep_duality(max_k: int = 6, max_b: int = 6) -> SweepResult:
    """M T = T M* and trace >= 3 over every valid sequence in range.

    The trace is read from the monodromy of the rotation that
    check_duality uses: rotation conjugates M and keeps its trace.
    """
    cases = 0
    for bs in _valid_sequences(max_k, max_b):
        cases += 1
        report = check_duality(CuspSequence(bs))
        if report.m.trace() < 3:
            return SweepResult("duality sweep", False, cases, f"trace < 3 at {bs}")
        if not report.ok:
            return SweepResult("duality sweep", False, cases, f"MT != TM* at {bs}")
    return SweepResult("duality sweep", True, cases)


def sweep_dual_involution(max_k: int = 5, max_b: int = 5) -> SweepResult:
    """dual(dual(b)) is a rotation of b and traces agree."""
    cases = 0
    for bs in _valid_sequences(max_k, max_b):
        cases += 1
        c = CuspSequence(bs)
        dual = dual_sequence(c)
        if not dual_sequence(dual).is_rotation_of(c):
            return SweepResult("dual involution", False, cases, f"not involutive at {bs}")
        if monodromy(dual).trace() != monodromy(c).trace():
            return SweepResult("dual involution", False, cases, f"trace changed at {bs}")
    return SweepResult("dual involution", True, cases)


def sweep_recover_roundtrip(samples: int = 500, max_k: int = 8, max_b: int = 9, seed: int = 7) -> SweepResult:
    """recover_sequence(monodromy(b)) is a rotation of b, randomized."""
    rng = random.Random(seed)
    cases = 0
    while cases < samples:
        k = rng.randint(1, max_k)
        bs = tuple(rng.randint(2, max_b) for _ in range(k))
        if all(b == 2 for b in bs):
            continue
        cases += 1
        c = CuspSequence(bs)
        rec = recover_sequence(monodromy(c))
        if not rec.is_rotation_of(c):
            return SweepResult("recover roundtrip", False, cases, f"{bs} -> {rec.b}")
    return SweepResult("recover roundtrip", True, cases)


# -- the chain conjugacy system ---------------------------------------------------


def _continuant(bs, lo: int, hi: int) -> int:
    """det[b_lo,...,b_hi] with det[] = 1 and the one-short value 0."""
    if hi == lo - 1:
        return 1
    if hi == lo - 2:
        return 0
    return hj_numerator(list(bs[lo - 1 : hi]))


def chain_system_solvable(
    bs, i: int, j: int, n_i: int, n_i1: int
) -> bool:
    """Exactly decide the two-by-two chain system of bracket determinants.

    The system sends (m_{j+1}, m_j) to (n_{i+1}, n_i); a solution needs
    m_j >= 0 and m_{j+1} > 0.  On negative definite chains with n_i >= 0,
    n_{i+1} > 0 no solution exists; True would falsify the injectivity
    argument this system supports.
    """
    bs = list(bs)
    s = len(bs)
    if not (0 <= i < j <= s):
        raise IndexError(f"need 0 <= i < j <= {s}, got i={i}, j={j}")
    if n_i < 0 or n_i1 <= 0:
        raise ValueError("targets need n_i >= 0 and n_{i+1} > 0")
    a11 = _continuant(bs, i + 1, j)
    a12 = _continuant(bs, i + 1, j - 1)
    a21 = -_continuant(bs, i + 2, j)
    a22 = -_continuant(bs, i + 2, j - 1)
    det = a11 * a22 - a12 * a21
    if det != 0:
        num1 = n_i1 * a22 - a12 * n_i
        num2 = a11 * n_i - n_i1 * a21
        if num1 % det or num2 % det:
            return False
        m_j1, m_j = num1 // det, num2 // det
        return m_j >= 0 and m_j1 > 0
    # Rank <= 1: the augmented minors must vanish, then one row decides.
    if a11 * n_i - a21 * n_i1 or a12 * n_i - a22 * n_i1:
        return False
    if (a11, a12) != (0, 0):
        return _line_feasible(a11, a12, n_i1)
    if (a21, a22) != (0, 0):
        return _line_feasible(a21, a22, n_i)
    return n_i1 == 0 and n_i == 0


def _bezout(a: int, b: int) -> tuple[int, int, int]:
    """(x, y, g) with a*x + b*y = g = gcd(|a|, |b|)."""
    g = gcd(a, b)
    old_r, r = abs(a), abs(b)
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        quot = old_r // r
        old_r, r = r, old_r - quot * r
        old_s, s = s, old_s - quot * s
        old_t, t = t, old_t - quot * t
    x = old_s if a >= 0 else -old_s
    y = old_t if b >= 0 else -old_t
    assert a * x + b * y == g
    return x, y, g


def _line_feasible(a: int, b: int, c: int) -> bool:
    """Does a*x + b*y = c admit integers with x > 0 and y >= 0?"""
    if a == 0 and b == 0:
        return c == 0
    if b == 0:
        return c % a == 0 and c // a > 0
    if a == 0:
        return c % b == 0 and c // b >= 0
    x0, y0, g = _bezout(a, b)
    if c % g:
        return False
    x0 *= c // g
    y0 *= c // g
    dx, dy = b // g, -(a // g)
    lo: int | None = None
    hi: int | None = None
    for coeff, base, minval in ((dx, x0, 1), (dy, y0, 0)):
        # need base + coeff * t >= minval over integer t
        bound = Fraction(minval - base, coeff)
        if coeff > 0:
            t = ceil(bound)
            lo = t if lo is None else max(lo, t)
        else:
            t = floor(bound)
            hi = t if hi is None else min(hi, t)
    if lo is None or hi is None:
        return True
    return lo <= hi


def sweep_chain_system(samples: int = 200, seed: int = 11) -> SweepResult:
    """The conjugacy chain system has no admissible solution (Thm-level)."""
    rng = random.Random(seed)
    for case in range(1, samples + 1):
        s = rng.randint(1, 6)
        bs = [rng.randint(2, 6) for _ in range(s)]
        i = rng.randint(0, s - 1)
        j = rng.randint(i + 1, s)
        n_i = rng.randint(0, 6)
        n_i1 = rng.randint(1, 6)
        if chain_system_solvable(bs, i, j, n_i, n_i1):
            return SweepResult(
                "chain system infeasibility",
                False,
                case,
                f"solution found for bs={bs}, i={i}, j={j}, targets=({n_i1},{n_i})",
            )
    return SweepResult("chain system infeasibility", True, samples)


def sweep_mckay() -> SweepResult:
    """Class counts and A/D/E curve counts for the five families."""
    cases = 0
    expectations = [("Q8", 8, 5), ("2T", 24, 7), ("2O", 48, 8), ("2I", 120, 9)]
    for name, order, classes in expectations:
        cases += 1
        g = group_closure(builtin_generators(name))
        cc = conjugacy_classes(g)
        if g.order != order or cc.count != classes or not mckay_report(g, cc).matches:
            return SweepResult("mckay families", False, cases, f"{name}: order {g.order}, classes {cc.count}")
    for m in range(1, 13):
        cases += 1
        g = group_closure(builtin_generators(f"cyclic:{m}"))
        cc = conjugacy_classes(g)
        if cc.count != m or not mckay_report(g, cc).matches:
            return SweepResult("mckay families", False, cases, f"cyclic:{m}")
    for n in range(2, 7):
        cases += 1
        g = group_closure(builtin_generators(f"bd:{n}"))
        cc = conjugacy_classes(g)
        if cc.count != n + 3 or not mckay_report(g, cc).matches:
            return SweepResult("mckay families", False, cases, f"bd:{n}")
    return SweepResult("mckay families", True, cases)


def _chain_graph(bs) -> PlumbingGraph:
    vs = tuple(Vertex(f"v{i}", -b, 0) for i, b in enumerate(bs))
    es = tuple((f"v{i}", f"v{i+1}") for i in range(len(bs) - 1))
    return PlumbingGraph(vs, es, "chain")


def _cycle_graph(bs) -> PlumbingGraph:
    k = len(bs)
    vs = tuple(Vertex(f"v{i}", -b, 0) for i, b in enumerate(bs))
    if k == 1:
        es = (("v0", "v0"),)
    else:
        es = tuple((f"v{i}", f"v{(i+1) % k}") for i in range(k))
    return PlumbingGraph(vs, es, "cycle")


def e8_graph() -> PlumbingGraph:
    names = ["c", "a1", "b1", "b2", "d1", "d2", "d3", "d4"]
    vs = tuple(Vertex(n, -2, 0) for n in names)
    es = (("c", "a1"), ("c", "b1"), ("b1", "b2"), ("c", "d1"), ("d1", "d2"), ("d2", "d3"), ("d3", "d4"))
    return PlumbingGraph(vs, es, "e8")


def sigma_2_3_7() -> PlumbingGraph:
    vs = (Vertex("c", -1, 0), Vertex("p", -2, 0), Vertex("q", -3, 0), Vertex("r", -7, 0))
    es = (("c", "p"), ("c", "q"), ("c", "r"))
    return PlumbingGraph(vs, es, "sigma237")


# -- definiteness oracles ---------------------------------------------------------
#
# Dense, textbook routes kept only to check the sparse elimination in
# graph_core against: they share no code with it.


def determinant(mat) -> int:
    """Exact integer determinant by fraction-free Bareiss elimination."""
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    # Bareiss with row pivoting; exact over the integers.
    a = [list(row) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def sylvester_negative_definite(mat) -> bool:
    """Sylvester's criterion: the leading principal minors of A alternate
    in sign, starting negative."""
    for k in range(1, len(mat) + 1):
        if (-1) ** k * determinant([row[:k] for row in mat[:k]]) <= 0:
            return False
    return True


def _random_multigraph(rng: random.Random, max_n: int = 7) -> PlumbingGraph:
    """A small graph with random weights, loops and parallel edges."""
    n = rng.randint(1, max_n)
    vs = tuple(Vertex(f"v{i}", rng.randint(-7, 1)) for i in range(n))
    es = tuple((f"v{rng.randrange(n)}", f"v{rng.randrange(n)}") for _ in range(rng.randint(0, n + 3)))
    return PlumbingGraph(vs, es, "random")


def sweep_negative_definite(max_chain: int = 8, samples: int = 400, seed: int = 5) -> SweepResult:
    """E8 and the A_n chains pass; +1 fails; valid cusp cycles pass; on
    seeded random multigraphs the sparse test agrees with Sylvester."""
    cases = 0
    if not is_negative_definite(intersection_matrix(e8_graph())):
        return SweepResult("negative definiteness gate", False, 1, "E8 rejected")
    cases += 1
    for n in range(1, max_chain + 1):
        cases += 1
        g = _chain_graph([2] * n)
        if not is_negative_definite(intersection_matrix(g)):
            return SweepResult("negative definiteness gate", False, cases, f"A{n} rejected")
    cases += 1
    if is_negative_definite([[1]]):
        return SweepResult("negative definiteness gate", False, cases, "+1 vertex accepted")
    for bs in _valid_sequences(4, 4):
        cases += 1
        if not is_negative_definite(intersection_matrix(_cycle_graph(bs))):
            return SweepResult("negative definiteness gate", False, cases, f"cusp cycle {bs} rejected")
    rng = random.Random(seed)
    for _ in range(samples):
        cases += 1
        g = _random_multigraph(rng)
        mat = intersection_matrix(g)
        want = sylvester_negative_definite(mat)
        if is_negative_definite(mat) != want or is_negative_definite_graph(g) != want:
            witness = f"{g.vertices} {g.edges}: Sylvester says {want}"
            return SweepResult("negative definiteness gate", False, cases, witness)
    return SweepResult("negative definiteness gate", True, cases)


# -- Seifert invariants of a star ---------------------------------------------------

# The central vertex contributes the fiber generator h; each leg with
# continued fraction [b_1,...,b_s] (b_1 next to the node) contributes a
# Seifert pair (alpha_i, omega_i) and an end generator g_i with
# g_i^{alpha_i} = h (Neumann, A calculus for plumbing, 1981).


@dataclass(frozen=True, slots=True)
class SeifertLeg:
    alpha: int
    omega: int
    leg_id: str          # vertex of the leg adjacent to the node
    terms: tuple[int, ...]  # b_1..b_s read node-outward

    def __post_init__(self) -> None:
        if self.alpha < 2 or not (0 < self.omega < self.alpha) or gcd(self.alpha, self.omega) != 1:
            raise ValueError(f"invalid Seifert pair ({self.alpha}, {self.omega})")


@dataclass(frozen=True, slots=True)
class SeifertData:
    b: int                       # negated central Euler number
    genus: int
    legs: tuple[SeifertLeg, ...]
    center: str = "center"

    @property
    def n(self) -> int:
        return len(self.legs)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((leg.alpha, leg.omega) for leg in self.legs)


def seifert_data(g: PlumbingGraph) -> SeifertData:
    """Read (b; g; (alpha_i, omega_i)) off a star-shaped graph."""
    shape = classify_shape(g)
    if shape.kind is Shape.STAR:
        center = shape.center
    elif len(g.vertices) == 1:
        center = g.vertices[0].id
    else:
        raise GraphError(f"graph is {shape.kind.value}, not star-shaped")
    cv = g.vertex(center)
    legs = []
    for chain in star_legs(g, center):
        terms = tuple(-g.vertex(v).euler for v in chain)
        if any(t < 2 for t in terms):
            raise GraphError(f"leg through {chain[0]!r} is not minimal (some b < 2)")
        alpha, omega = hj_pair(terms)
        legs.append(SeifertLeg(alpha, omega, leg_id=chain[0], terms=terms))
    return SeifertData(b=-cv.euler, genus=cv.genus, legs=tuple(legs), center=center)


def has_finite_pi1(sd: SeifertData) -> bool:
    """Finite iff the base orbifold group is spherical."""
    if sd.genus > 0:
        return False
    if sd.n <= 2:
        return True
    if sd.n == 3:
        return sum(Fraction(1, leg.alpha) for leg in sd.legs) > 1
    return False


def seifert_labels(sd: SeifertData, bound: int) -> list[tuple]:
    """Sorted component labels of a closed link with infinite pi_1, read
    off its Seifert data alone: h^m for m <= bound, and g_i^m for each leg
    with alpha_i not dividing m (g_i^{alpha_i} = h is already central)."""
    if has_finite_pi1(sd):
        raise ValueError("finite fundamental group: route to the quotient machinery")
    if bound < 1:
        raise ValueError("bound must be positive")
    ms = range(1, bound + 1)
    labels = [("curve_interior", sd.center, m) for m in ms]
    labels += [
        ("orbifold_point", sd.center, leg.leg_id, m, leg.alpha)
        for leg in sd.legs
        for m in ms
        if m % leg.alpha
    ]
    return sorted(labels)


def sweep_seifert_vs_components(bound: int = 6) -> SweepResult:
    """Sigma(2,3,7): both routes give the same 19 labels at bound 6."""
    g = sigma_2_3_7()
    model = minimal_dlt_model(g)
    comp_labels = sorted(c.label() for c in enumerate_components(model, bound))
    seif_labels = seifert_labels(seifert_data(g), bound)
    ok = comp_labels == seif_labels and len(comp_labels) == 19
    witness = "" if ok else f"{len(comp_labels)} vs {len(seif_labels)} labels"
    return SweepResult("seifert vs components (sigma(2,3,7))", ok, 1, witness)


def sweep_chain_quotient_agreement(max_len: int = 6, max_b: int = 5, bound: int = 2) -> SweepResult:
    """Chains route to SelfDlt cyclic quotients 1/m(q, 1) whose chain the
    expansion of m/q gives back, and whose labels a/m (1 <= a <= bound*m)
    carry the model arc (a, c) with c*q = a mod m.  For m <= 16 the label
    count is also bound times the class count of the closed cyclic group
    of order m.  The label list is a function of (m, q) alone, so it is
    checked on the first chain that routes to each pair; a chain and its
    reverse share the pair."""
    cases = 0
    class_counts: dict[int, int] = {}  # one closure per distinct m
    checked: set[tuple[int, int]] = set()  # one label list per distinct (m, q)
    for k in range(1, max_len + 1):
        for bs in product(range(2, max_b + 1), repeat=k):
            cases += 1
            g = _chain_graph(bs)
            model = minimal_dlt_model(g)
            if model.kind is not DltKind.SELF_DLT:
                return SweepResult("chain quotient agreement", False, cases, f"{bs} not SelfDlt")
            cls = model.sing_class
            m, q = cls.m, cls.q
            m_direct, om_f = hj_pair(list(bs))
            _, om_b = hj_pair(list(bs)[::-1])
            if m != m_direct or q not in (om_f, om_b):
                return SweepResult("chain quotient agreement", False, cases, f"{bs}: class {cls}")
            if hj_expand(m, q) not in (list(bs), list(bs)[::-1]):
                return SweepResult("chain quotient agreement", False, cases, f"{bs}: {m}/{q} expands otherwise")
            if m <= 300 and (m, q) not in checked:  # the full label list where affordable
                checked.add((m, q))
                labels = cyclic_quotient_components(m, q, bound)
                if len(labels) != bound * m:
                    return SweepResult("chain quotient agreement", False, cases, f"{bs}: {len(labels)} labels")
                if m <= 16:
                    if m not in class_counts:
                        class_counts[m] = conjugacy_classes(group_closure(builtin_generators(f"cyclic:{m}"))).count
                    if len(labels) != bound * class_counts[m]:
                        witness = f"{bs}: {len(labels)} labels, {class_counts[m]} classes in Z/{m}"
                        return SweepResult("chain quotient agreement", False, cases, witness)
                for a, r in enumerate(labels, start=1):
                    label, center, m1, c = r
                    if (
                        label.numerator * m != a * label.denominator  # label == a/m
                        or (center is ArcCenter.ON_CURVE) != (a % m == 0)
                        or m1 != a
                        or not 0 <= c < m
                        or (c * q - a) % m
                    ):
                        return SweepResult("chain quotient agreement", False, cases, f"{bs}: label {a}/{m} is {r}")
    return SweepResult("chain quotient agreement", True, cases)


def sweep_quotient_detection(max_alpha: int = 8) -> SweepResult:
    """Shape-based quotient test agrees with the Seifert finiteness test."""
    cases = 0
    for alphas in product(range(2, max_alpha + 1), repeat=3):
        cases += 1
        # Single-vertex legs with euler -a carry Seifert pair (a, 1).
        vs = [Vertex("c", -len(alphas), 0)] + [Vertex(f"l{i}", -a, 0) for i, a in enumerate(alphas)]
        es = tuple(("c", f"l{i}") for i in range(3))
        g = PlumbingGraph(tuple(vs), es, "star")
        if not is_negative_definite(intersection_matrix(g)):
            continue
        cls = singularity_class(g)
        sd = seifert_data(g)
        if cls.is_quotient() != has_finite_pi1(sd):
            return SweepResult("quotient detection", False, cases, f"alphas {alphas}")
    return SweepResult("quotient detection", True, cases)


def sweep_inoue() -> SweepResult:
    """The two standard field examples pass the full cross-check."""
    one = QuadNum.of(1)
    omega = QuadNum.of(Fraction(1, 2), Fraction(1, 2), 5)
    u5 = QuadNum.of(Fraction(3, 2), Fraction(1, 2), 5)
    rep5 = inoue_cross_check(5, (one, omega), u5, 3)
    if not rep5.passed or rep5.sequence != (3,):
        return SweepResult("inoue cross-check", False, 1, rep5.render())
    sqrt2 = QuadNum.of(0, 1, 2)
    rep2 = inoue_cross_check(2, (one, sqrt2), QuadNum.of(3, 2, 2), 3)
    if not rep2.passed:
        return SweepResult("inoue cross-check", False, 2, rep2.render())
    return SweepResult("inoue cross-check", True, 2)


def _run(sweep) -> SweepResult:
    """A sweep that raises one of the library's errors (all ValueErrors)
    falsifies too: the sweep builds only valid inputs, so the library has
    rejected one of its own results.  The result is named after the
    function, as the sweep never got to name it."""
    try:
        return sweep()
    except ValueError as exc:
        return SweepResult(sweep.__name__, False, 0, f"raised {type(exc).__name__}: {exc}")


def run_all_sweeps() -> list[SweepResult]:
    return [
        _run(sweep)
        for sweep in (
            sweep_duality,
            sweep_dual_involution,
            sweep_recover_roundtrip,
            sweep_chain_system,
            sweep_mckay,
            sweep_negative_definite,
            sweep_seifert_vs_components,
            sweep_chain_quotient_agreement,
            sweep_quotient_detection,
            sweep_inoue,
        )
    ]
