"""Exhaustive desk-scale sweeps of the library's mathematical identities.

Each sweep is written as a generator that yields once per case: None for
a pass, a witness string for a falsification.  One runner, ``_sweep``,
counts the cases, stops at the first witness and returns a SweepResult.
The CLI ``check`` subcommand runs all of them and exits nonzero if any
fails, and the acceptance tests reuse them directly.  The oracles the
sweeps test against live here too: the dense definiteness route, the
closed-form solver of the chain conjugacy system, a 2x2 matrix product
of their own for the recovered conjugators, and the Seifert
invariants of a star with the finiteness test of its fundamental group.
Only the CLI imports this module.
"""
from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache, wraps
from itertools import product, repeat
from math import gcd
from typing import NamedTuple

from .calculus import DltKind, minimal_dlt_model, singularity_class
from .components import enumerate_components
from .cusp import (
    CuspSequence,
    check_duality,
    dual_sequence,
    monodromy,
    recover_sequence,
    recover_with_conjugator,
)
from .graph_core import (
    GraphError,
    PlumbingGraph,
    Shape,
    Vertex,
    classify_shape,
    intersection_matrix,
    is_negative_definite,
    is_negative_definite_graph,
    walk,
)
from .hjcf import Mat2, hj_expand, hj_numerator, hj_pair
from .inoue import inoue_cross_check
from .inputs import Record
from .quadratic import QuadNum
from .quotient import (
    ArcCenter,
    builtin_generators,
    conjugacy_classes,
    cyclic_quotient_components,
    group_closure,
    mckay_report,
)


class SweepResult(NamedTuple):
    name: str
    passed: bool
    cases: int
    witness: str = ""

    def render(self) -> str:
        mark = "ok" if self.passed else "FALSIFIED"
        out = f"[{mark}] {self.name} ({self.cases} cases)"
        return out + (f": {self.witness}" if self.witness else "")


def _sweep(name: str):
    """Run the decorated generator of case witnesses as the sweep ``name``.

    The SweepResult counts the cases up to the first witness.  A library
    error (every one is a ValueError) falsifies too: the sweep builds only
    valid inputs, so the library has rejected one of its own results.  So
    does an ArithmeticError, such as a division by a zero that exact
    arithmetic should never meet.  Inside a ``witness`` function wrapped
    by ``_naming_case`` the error is that case's witness and names it;
    anywhere else it ends the sweep with the cases completed before it.
    """
    def decorate(cases):
        @wraps(cases)
        def sweep(*args, **kwargs) -> SweepResult:
            count = 0
            try:
                for witness in cases(*args, **kwargs):
                    count += 1
                    if witness is not None:
                        return SweepResult(name, False, count, witness)
            except (ValueError, ArithmeticError) as exc:
                return SweepResult(name, False, count, f"raised {type(exc).__name__}: {exc}")
            return SweepResult(name, True, count)
        return sweep
    return decorate


def _naming_case(witness):
    """Wrap a sweep's ``witness(*case)`` so that a library error raised on
    a case becomes that case's witness, naming it."""
    def named(*case):
        try:
            return witness(*case)
        except (ValueError, ArithmeticError) as exc:
            return f"raised {type(exc).__name__}: {exc} at {', '.join(map(str, case))}"
    return named


def _valid_sequences(max_k: int, max_b: int):
    for k in range(1, max_k + 1):
        for bs in product(range(2, max_b + 1), repeat=k):
            if any(b > 2 for b in bs):
                yield bs


@_sweep("duality sweep")
def sweep_duality(max_k: int = 6, max_b: int = 6):
    """M T = T M* and trace >= 3 over every valid sequence in range.

    The trace is read from the monodromy of the rotation that
    check_duality uses: rotation conjugates M and keeps its trace.
    """
    @_naming_case
    def witness(bs):
        report = check_duality(CuspSequence(bs))
        if report.m.trace() < 3:
            return f"trace < 3 at {bs}"
        if not report.ok:
            return f"MT != TM* at {bs}"
        return None

    yield from map(witness, _valid_sequences(max_k, max_b))


@_sweep("dual involution")
def sweep_dual_involution(max_k: int = 5, max_b: int = 5):
    """dual(dual(b)) is a rotation of b and traces agree."""
    @_naming_case
    def witness(bs):
        c = CuspSequence(bs)
        dual = dual_sequence(c)
        if not dual_sequence(dual).is_rotation_of(c):
            return f"not involutive at {bs}"
        if monodromy(dual).trace() != monodromy(c).trace():
            return f"trace changed at {bs}"
        return None

    yield from map(witness, _valid_sequences(max_k, max_b))


def _mul(x, y):
    """The product of 2x2 integer matrices as row-major 4-tuples."""
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def _monodromy_of(bs):
    """The product of the matrices ((b, 1), (-1, 0)), by ``_mul``."""
    out = (1, 0, 0, 1)
    for b in bs:
        out = _mul(out, (b, 1, -1, 0))
    return out


def _small_sl2(rng: random.Random, size: int = 4):
    """A seeded determinant-1 matrix with p, q, r in [-size, size]."""
    while True:
        p, q, r = (rng.randint(-size, size) for _ in range(3))
        if p and (q * r + 1) % p == 0:
            return (p, q, r, (q * r + 1) // p)


@_sweep("recover roundtrip")
def sweep_recover_roundtrip(samples: int = 500, max_k: int = 8, max_b: int = 9, seed: int = 7):
    """recover_sequence(monodromy(b)) is a rotation of b, randomized.

    Each case also recovers P M P^-1 for a seeded small P in SL(2, Z),
    whose fixed point has a pre-period, and checks the returned
    conjugator with ``_mul``, not with the library's own verification.
    """
    @_naming_case
    def witness(bs, pm):
        c = CuspSequence(bs)
        rec = recover_sequence(monodromy(c))
        if not rec.is_rotation_of(c):
            return f"{bs} -> {rec.b}"
        p, q, r, s = pm
        target = _mul(_mul(pm, _monodromy_of(bs)), (s, -q, -r, p))
        seq, conj = recover_with_conjugator(Mat2(*target))
        if not seq.is_rotation_of(c):
            return f"{bs} conjugated by {pm} -> {seq.b}"
        qm = (conj.p, conj.q, conj.r, conj.s)
        if qm[0] * qm[3] - qm[1] * qm[2] != 1 or _mul(qm, _monodromy_of(seq.b)) != _mul(target, qm):
            return f"{bs} conjugated by {pm}: {qm} does not conjugate {seq.b} to {target}"
        return None

    rng, conj_rng = random.Random(seed), random.Random(seed + 1)
    for _ in range(samples):
        bs = (2,)
        while all(b == 2 for b in bs):  # redraw the invalid all-2 sequences
            bs = tuple(rng.randint(2, max_b) for _ in range(rng.randint(1, max_k)))
        yield witness(bs, _small_sl2(conj_rng))


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

    The system's matrix is the monodromy product M(b_{i+1}, ..., b_j), a
    product of the SL(2, Z) matrices ((b, 1), (-1, 0)), so its
    determinant is 1 and the unique solution is the adjugate applied to
    the targets, which is integral.  A determinant other than 1 means the
    continuants are wrong and raises ValueError.
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
    if det != 1:
        raise ValueError(f"the chain matrix of {bs[i:j]} has determinant {det}, not 1")
    m_j1 = a22 * n_i1 - a12 * n_i
    m_j = a11 * n_i - a21 * n_i1
    return m_j >= 0 and m_j1 > 0


@_sweep("chain system infeasibility")
def sweep_chain_system(samples: int = 200, seed: int = 11):
    """The conjugacy chain system has no admissible solution (Thm-level)."""
    rng = random.Random(seed)
    for _ in range(samples):
        s = rng.randint(1, 6)
        bs = [rng.randint(2, 6) for _ in range(s)]
        i = rng.randint(0, s - 1)
        j = rng.randint(i + 1, s)
        n_i = rng.randint(0, 6)
        n_i1 = rng.randint(1, 6)
        solved = chain_system_solvable(bs, i, j, n_i, n_i1)
        yield f"solution found for bs={bs}, i={i}, j={j}, targets=({n_i1},{n_i})" if solved else None


@_sweep("mckay families")
def sweep_mckay():
    """Class counts and A/D/E curve counts for the five families, and the
    orders of the exceptional groups (order None: not checked)."""
    expectations = [("Q8", 8, 5), ("2T", 24, 7), ("2O", 48, 8), ("2I", 120, 9)]
    expectations += [(f"cyclic:{m}", None, m) for m in range(1, 13)]
    expectations += [(f"bd:{n}", None, n + 3) for n in range(2, 7)]
    for name, order, classes in expectations:
        g = group_closure(builtin_generators(name))
        cc = conjugacy_classes(g)
        ok = order in (None, g.order) and cc.count == classes and mckay_report(g, cc).matches
        yield None if ok else name if order is None else f"{name}: order {g.order}, classes {cc.count}"


@lru_cache(maxsize=None)
def _curve(i: int, b: int) -> Vertex:
    """The rational curve v_i of self-intersection -b.  A Vertex is
    immutable, so the sweeps' graphs share one per (i, b)."""
    return Vertex(f"v{i}", -b, 0)


@lru_cache(maxsize=None)
def _path_edges(k: int) -> tuple[tuple[str, str], ...]:
    return tuple((f"v{i}", f"v{i+1}") for i in range(k - 1))


def _chain_graph(bs) -> PlumbingGraph:
    return PlumbingGraph(tuple(map(_curve, range(len(bs)), bs)), _path_edges(len(bs)), "chain")


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
# A dense, textbook route kept only to check the sparse elimination in
# graph_core against: it shares no code with it.


def sylvester_negative_definite(mat) -> bool:
    """Sylvester's criterion: the leading principal minors of A alternate
    in sign, starting negative.  Bareiss elimination without row swaps
    leaves the (k+1)-th leading minor as its k-th pivot, so one pass
    reads them all; a zero minor stops it before it would divide by zero."""
    a = [list(row) for row in mat]
    n = len(a)
    prev = 1
    for k in range(n):
        d = a[k][k]
        if (d if k % 2 else -d) <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * d - a[i][k] * a[k][j]) // prev
        prev = d
    return True


def _random_multigraph(rng: random.Random, max_n: int = 7) -> PlumbingGraph:
    """A small graph with random weights, loops and parallel edges."""
    n = rng.randint(1, max_n)
    vs = tuple(Vertex(f"v{i}", rng.randint(-7, 1)) for i in range(n))
    es = tuple((f"v{rng.randrange(n)}", f"v{rng.randrange(n)}") for _ in range(rng.randint(0, n + 3)))
    return PlumbingGraph(vs, es, "random")


def _chain_heavy_multigraph(rng: random.Random) -> PlumbingGraph:
    """A graph of at most ten curves: runs of -1 to -4 curves on one to
    three nodes.

    Each run joins two nodes, closes a cycle at one node (a one-curve run
    there meets its node twice), or closes on itself with no node; two
    nodes joined by several runs make a theta graph.  Up to two more edges
    give the nodes loops and parallel edges.
    """
    nodes = [f"n{i}" for i in range(rng.randint(1, 3))]
    vs = [Vertex(v, rng.randint(-8, -1)) for v in nodes]
    es = []
    n = rng.randint(len(nodes) + 1, 10)
    while len(vs) < n:
        k = rng.randint(1, n - len(vs))
        run = [f"c{len(vs) + i}" for i in range(k)]
        vs += [Vertex(c, rng.choice((-1, -2, -2, -2, -3, -4))) for c in run]
        es += zip(run, run[1:])
        if k >= 3 and rng.randrange(5) == 0:
            es.append((run[-1], run[0]))
        else:
            es += [(rng.choice(nodes), run[0]), (run[-1], rng.choice(nodes))]
    es += [(rng.choice(nodes), rng.choice(nodes)) for _ in range(rng.randint(0, 2))]
    return PlumbingGraph(tuple(vs), tuple(es), "chains")


def _boundary_multigraph(rng: random.Random) -> PlumbingGraph:
    """Two nodes u and w on the definiteness boundary, so that a wrong
    Schur term of a run shows (every node joins at least three edge-ends).

    Either a theta graph: two runs from u to w that blow down to [1, 1],
    so each ends at P_k = 0 and u is met by both, and one or two more
    runs or edges from u to w.  Or -2 runs and parallel edges from u to
    w, perhaps a -2 cycle and a loop at u, with each node's weight its
    degree: -A is then the graph Laplacian, semidefinite on (1, ..., 1),
    and definite once u's weight drops by one more.
    """
    vs: list[Vertex] = []
    es: list[tuple[str, str]] = []

    def run(bs: list[int], a: str, b: str) -> None:
        ids = [f"c{len(vs) + i}" for i in range(len(bs))]
        vs.extend(Vertex(c, -x) for c, x in zip(ids, bs))
        es.extend(zip([a, *ids], [*ids, b]))

    if rng.randrange(2):
        for _ in range(2):
            bs = [1, 1]
            for _ in range(rng.randint(0, 3)):  # blow up an edge or the end
                i = rng.randrange(len(bs))
                bs[i:i + 2] = [bs[i] + 1, 1, *(x + 1 for x in bs[i + 1:i + 2])]
            run(bs, "u", "w")
        for _ in range(rng.randint(1, 2)):
            if rng.randrange(2):
                run([rng.randint(1, 4) for _ in range(rng.randint(1, 3))], "u", "w")
            else:
                es.append(("u", "w"))
        vs += [Vertex("u", rng.randint(-8, -1)), Vertex("w", rng.randint(-8, -1))]
    else:
        k = rng.randint(1, 2)
        for _ in range(k):
            run([2] * rng.randint(1, 4), "u", "w")
        es += [("u", "w")] * rng.randint(3 - k, 2)
        if rng.randrange(2):
            run([2] * rng.randint(2, 4), "u", "u")
        es += [("u", "u")] * rng.randrange(2)
        deg = {x: sum((a == x) + (b == x) for a, b in es) for x in "uw"}
        vs += [Vertex("u", -deg["u"] - rng.randrange(2)), Vertex("w", -deg["w"])]
    return PlumbingGraph(tuple(vs), tuple(es), "boundary")


@_sweep("negative definiteness gate")
def sweep_negative_definite(max_chain: int = 8, samples: int = 400, seed: int = 5):
    """E8 and the A_n chains pass; +1 fails; valid cusp cycles pass, each
    through both the graph test (runs compressed) and the matrix test
    (plain LDL); on seeded random multigraphs, then on seeded chain-heavy
    ones, then on seeded graphs on the definiteness boundary, both tests
    agree with Sylvester."""
    @_naming_case
    def rejected(g, label):
        definite = is_negative_definite(intersection_matrix(g)) and is_negative_definite_graph(g)
        return None if definite else f"{label} rejected"

    @_naming_case
    def witness(g):
        mat = intersection_matrix(g)
        want = sylvester_negative_definite(mat)
        agree = is_negative_definite(mat) == want and is_negative_definite_graph(g) == want
        return None if agree else f"{g.vertices} {g.edges}: Sylvester says {want}"

    yield rejected(e8_graph(), "E8")
    for n in range(1, max_chain + 1):
        yield rejected(_chain_graph([2] * n), f"A{n}")
    plus_one = PlumbingGraph((Vertex("v0", 1),), (), "plus_one")
    accepted = is_negative_definite([[1]]) or is_negative_definite_graph(plus_one)
    yield "+1 vertex accepted" if accepted else None
    for bs in _valid_sequences(4, 4):
        yield rejected(_cycle_graph(bs), f"cusp cycle {bs}")
    rng = random.Random(seed)
    for _ in range(samples):
        yield witness(_random_multigraph(rng))
    for _ in range(100):
        yield witness(_chain_heavy_multigraph(rng))
    for _ in range(40):
        yield witness(_boundary_multigraph(rng))


# -- Seifert invariants of a star ---------------------------------------------------

# The central vertex contributes the fiber generator h; each leg with
# continued fraction [b_1,...,b_s] (b_1 next to the node) contributes a
# Seifert pair (alpha_i, omega_i) and an end generator g_i with
# g_i^{alpha_i} = h (Neumann, A calculus for plumbing, 1981).


class SeifertLeg(Record):
    """``leg_id`` is the vertex of the leg adjacent to the node, and
    ``terms`` are b_1..b_s read node-outward."""

    __slots__ = ("alpha", "omega", "leg_id", "terms")

    def __init__(self, alpha: int, omega: int, leg_id: str, terms: tuple[int, ...]) -> None:
        if alpha < 2 or not (0 < omega < alpha) or gcd(alpha, omega) != 1:
            raise ValueError(f"invalid Seifert pair ({alpha}, {omega})")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "leg_id", leg_id)
        object.__setattr__(self, "terms", terms)


class SeifertData(NamedTuple):
    b: int                       # negated central Euler number
    genus: int
    legs: tuple[SeifertLeg, ...]
    center: str = "center"

    @property
    def n(self) -> int:
        return len(self.legs)

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((leg.alpha, leg.omega) for leg in self.legs)


def star_legs(g: PlumbingGraph, center: str) -> list[list[str]]:
    """Legs of a star, each listed from the center outward."""
    return sorted(list(walk(g, center, first)) for first in g.neighbors(center))


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
        # Folded here from the free end, (p, q) <- (b*p - q, p), and not read
        # from hjcf.hj_pair as the model's tails are: the two sides of the
        # quotient-detection sweep then share no continued fraction.
        alpha, omega = 1, 0
        for b in reversed(terms):
            alpha, omega = b * alpha - omega, alpha
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


@_sweep("seifert vs components (sigma(2,3,7))")
def sweep_seifert_vs_components(bound: int = 6):
    """Sigma(2,3,7): both routes give the same 19 labels at bound 6."""
    g = sigma_2_3_7()
    model = minimal_dlt_model(g)
    comp_labels = sorted(c.label() for c in enumerate_components(model, bound))
    seif_labels = seifert_labels(seifert_data(g), bound)
    ok = comp_labels == seif_labels and len(comp_labels) == 19
    yield None if ok else f"{len(comp_labels)} vs {len(seif_labels)} labels"


def _label_oracle(m: int, q: int, bound: int) -> list[tuple]:
    """The label rows of 1/m(q, 1) as plain tuples (m, center, m1, c).

    q^-1 is found by search, not by the library's ``pow``, and c = a*q^-1
    mod m, so c*q = a mod m, which the assertion restates on the period
    a = 1..m.  Every row condition holds there: m, m1 = a, the center on
    the curve exactly when m divides a, 0 <= c < m and c*q = a mod m.
    Each depends on a only through a mod m, so it holds on every later
    period, which repeats the first with a shifted by m."""
    q_inv = next(x for x in range(m) if (x * q - 1) % m == 0)
    cs = [a * q_inv % m for a in range(1, m + 1)]
    assert all((c * q - a) % m == 0 for a, c in enumerate(cs, start=1))
    centers = [ArcCenter.AT_ORIGIN] * (m - 1) + [ArcCenter.ON_CURVE]
    return list(zip(repeat(m), centers * bound, range(1, bound * m + 1), cs * bound))


@_sweep("chain quotient agreement")
def sweep_chain_quotient_agreement(max_len: int = 6, max_b: int = 5, bound: int = 2):
    """Chains route to SelfDlt cyclic quotients 1/m(q, 1) whose chain the
    expansion of m/q gives back, and whose labels a/m (1 <= a <= bound*m)
    carry the model arc (a, c) with c*q = a mod m.  A label row holds
    ints and its label is m1/m, so label a/m is the row's m equal to m
    and its m1 equal to a.  The whole label list is compared once with
    ``_label_oracle``'s, which states every row condition.  For m <= 16
    the label count is also bound times the class count of the closed
    cyclic group of order m.  The label list is a function of (m, q)
    alone, so it is checked on the first chain that routes to each pair;
    a chain and its reverse share the pair."""
    class_counts: dict[int, int] = {}  # one closure per distinct m
    checked: set[tuple[int, int]] = set()  # one label list per distinct (m, q)

    @_naming_case
    def witness(bs):
        model = minimal_dlt_model(_chain_graph(bs))
        if model.kind is not DltKind.SELF_DLT:
            return f"{bs} not SelfDlt"
        cls = model.sing_class
        m, q = cls.m, cls.q
        m_direct, om_f = hj_pair(list(bs))
        _, om_b = hj_pair(list(bs)[::-1])
        if m != m_direct or q not in (om_f, om_b):
            return f"{bs}: class {cls}"
        if hj_expand(m, q) not in (list(bs), list(bs)[::-1]):
            return f"{bs}: {m}/{q} expands otherwise"
        if m > 300 or (m, q) in checked:  # the full label list where affordable, once
            return None
        checked.add((m, q))
        labels = cyclic_quotient_components(m, q, bound)
        if len(labels) != bound * m:
            return f"{bs}: {len(labels)} labels"
        if m <= 16:
            if m not in class_counts:
                class_counts[m] = conjugacy_classes(group_closure(builtin_generators(f"cyclic:{m}"))).count
            if len(labels) != bound * class_counts[m]:
                return f"{bs}: {len(labels)} labels, {class_counts[m]} classes in Z/{m}"
        want = _label_oracle(m, q, bound)
        if labels != want:
            a = next(i for i, (r, w) in enumerate(zip(labels, want), start=1) if r != w)
            return f"{bs}: label {a}/{m} is {labels[a - 1]}"
        return None

    for k in range(1, max_len + 1):
        yield from map(witness, product(range(2, max_b + 1), repeat=k))


@_sweep("quotient detection")
def sweep_quotient_detection(max_alpha: int = 8):
    """Shape-based quotient test agrees with the Seifert finiteness test."""
    for alphas in product(range(2, max_alpha + 1), repeat=3):
        # Single-vertex legs with euler -a carry Seifert pair (a, 1).
        vs = [Vertex("c", -len(alphas), 0)] + [Vertex(f"l{i}", -a, 0) for i, a in enumerate(alphas)]
        es = tuple(("c", f"l{i}") for i in range(3))
        g = PlumbingGraph(tuple(vs), es, "star")
        agree = not is_negative_definite(intersection_matrix(g)) or (
            singularity_class(g).is_quotient() == has_finite_pi1(seifert_data(g)))
        yield None if agree else f"alphas {alphas}"


@_sweep("inoue cross-check")
def sweep_inoue():
    """The two standard field examples pass the full cross-check, the golden
    one also with u^-1 < 1, whose own orbit window would be empty."""
    one = QuadNum.of(1)
    omega = QuadNum.of(Fraction(1, 2), Fraction(1, 2), 5)
    u5 = QuadNum.of(Fraction(3, 2), Fraction(1, 2), 5)
    for u in (u5, u5.inverse()):
        rep5 = inoue_cross_check(5, (one, omega), u, 3)
        yield None if rep5.passed and rep5.sequence == (3,) else rep5.render()
    sqrt2 = QuadNum.of(0, 1, 2)
    rep2 = inoue_cross_check(2, (one, sqrt2), QuadNum.of(3, 2, 2), 3)
    yield None if rep2.passed else rep2.render()


def run_all_sweeps() -> list[SweepResult]:
    return [
        sweep()
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
