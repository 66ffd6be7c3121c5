"""Real quadratic cross-check of the cusp lattice picture.

A rank-2 lattice H in K = Q(sqrt(d)) together with a totally positive
unit u with uH = H realizes the cusp monodromy as multiplication by u.
Short arcs on the two cusps correspond to the four sign cones of (m, m');
everything here verifies that correspondence exactly, orbit by orbit.
Rows are integer coordinate vectors in the given basis; field arithmetic
(QuadNum) enters only at the input and in the two checks that compare
field products with M_u.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .cusp import (
    Cone,
    CuspSequence,
    cone_position,
    enumerate_cusp_components,
    four_cone,
    recover_with_conjugator,
    reduce_mod_monodromy,
)
from .hjcf import Mat2, mono_product
from .inputs import InputError, numbered_lines
from .quadratic import QuadNum, parse_quad_token, quadint_sign

Vec = tuple[int, int]


class InoueError(InputError):
    """Violated precondition in the field data."""


# -- multiplication matrices ------------------------------------------------


def _solve_coordinates(x: QuadNum, basis: tuple[QuadNum, QuadNum]) -> tuple[Fraction, Fraction]:
    """Rational coordinates of x in the given basis (exact)."""
    b1, b2 = basis
    det = b1.a * b2.b - b2.a * b1.b
    if det == 0:
        raise InoueError("basis elements are linearly dependent over Q")
    c1 = (x.a * b2.b - b2.a * x.b) / det
    c2 = (b1.a * x.b - x.a * b1.b) / det
    return c1, c2


def coordinates(x: QuadNum, basis: tuple[QuadNum, QuadNum]) -> Vec:
    """Integer coordinates of a lattice element; error if not integral."""
    c1, c2 = _solve_coordinates(x, basis)
    if c1.denominator != 1 or c2.denominator != 1:
        raise InoueError(f"{x} is not in the lattice spanned by the basis")
    return int(c1), int(c2)


def from_coordinates(v: Vec, basis: tuple[QuadNum, QuadNum]) -> QuadNum:
    return basis[0] * v[0] + basis[1] * v[1]


def quad_mult_matrix(u: QuadNum, basis: tuple[QuadNum, QuadNum]) -> Mat2:
    """Integer matrix of multiplication by u in the given lattice basis.

    Requires u totally positive with norm 1 and uH = H; the matrix then
    has determinant 1 and trace u + u' >= 3.
    """
    if u.is_zero():
        raise InoueError("u must be nonzero")
    n = u.norm()
    if n == -1:
        raise InoueError("norm(u) = -1: pass u^2 instead")
    if u.sign() <= 0 or u.conjugate().sign() <= 0:
        raise InoueError("u must be totally positive (u > 0 and u' > 0)")
    if n != 1:
        raise InoueError(f"norm(u) must be 1, got {n}")
    cols = []
    for beta in basis:
        c1, c2 = _solve_coordinates(u * beta, basis)
        if c1.denominator != 1 or c2.denominator != 1:
            raise InoueError("uH is not contained in H for this basis")
        cols.append((int(c1), int(c2)))
    m = Mat2(cols[0][0], cols[1][0], cols[0][1], cols[1][1])
    trace = u.trace()
    if trace.denominator != 1 or m.trace() != trace:
        raise InoueError("matrix trace disagrees with u + u'")
    if m.trace() < 3:
        raise InoueError(f"trace {m.trace()} < 3: u must not be a root of unity")
    if m.det() != 1:
        raise InoueError(f"multiplication matrix has det {m.det()}, not 1")
    return m


# -- sign cones and orbits, on integer coordinates ------------------------------


class SignCone(Enum):
    PLUS_PLUS = "this_cusp"                 # m > 0, m' > 0
    PLUS_MINUS = "dual_cusp"                # m > 0, m' < 0
    MINUS_PLUS = "dual_cusp_reversed"       # m < 0, m' > 0
    MINUS_MINUS = "this_cusp_reversed"      # m < 0, m' < 0


class LatticeForms(NamedTuple):
    """The basis as b_i = (alpha_i + beta_i*sqrt(d)) / den over one den > 0: the
    element with coordinates c is m = (alpha.c + (beta.c)*sqrt(d)) / den, so
    m' = (alpha.c - (beta.c)*sqrt(d)) / den and m - m' = 2*(beta.c)*sqrt(d) / den."""

    d: int
    alpha: Vec
    beta: Vec

    @staticmethod
    def of(basis: tuple[QuadNum, QuadNum]) -> "LatticeForms":
        b1, b2 = basis
        den = lcm(b1.a.denominator, b1.b.denominator, b2.a.denominator, b2.b.denominator)
        alpha, beta = (int(b1.a * den), int(b2.a * den)), (int(b1.b * den), int(b2.b * den))
        return LatticeForms(b1.d or b2.d, alpha, beta)


def _dot(form: Vec, c: Vec) -> int:
    return form[0] * c[0] + form[1] * c[1]


def sign_cone(c: Vec, forms: LatticeForms) -> SignCone:
    """Exact classification of (sign m, sign m') for the element with coordinates c."""
    a, b = _dot(forms.alpha, c), _dot(forms.beta, c)
    if a == 0 and b == 0:
        raise InoueError("the zero element has no sign cone")
    s, s_conj = quadint_sign(a, b, forms.d), quadint_sign(a, -b, forms.d)
    if s > 0:
        return SignCone.PLUS_PLUS if s_conj > 0 else SignCone.PLUS_MINUS
    return SignCone.MINUS_PLUS if s_conj > 0 else SignCone.MINUS_MINUS


def reduce_by_unit(c: Vec, forms: LatticeForms, m_v: Mat2) -> tuple[Vec, int]:
    """Canonical representative M_v^l * c of the orbit of a totally positive element, and l.

    M_v multiplies by v = max(u, 1/u) > 1: M_u if the sqrt(d) part of u is
    positive, else M_u^-1.  As v' = 1/v, it scales m/m' by v^2, so the
    half-open window 1 <= m/m' < v^2 meets every orbit exactly once; on
    coordinates it reads beta.c >= 0 > beta.(M_v^-1 c).
    """
    if sign_cone(c, forms) is not SignCone.PLUS_PLUS:
        raise InoueError("orbit reduction applies to totally positive elements")
    beta, m_inv = forms.beta, m_v.inverse()
    ell = 0
    while _dot(beta, c) < 0:
        c, ell = m_v.apply(c), ell + 1
    down = m_inv.apply(c)
    while _dot(beta, down) >= 0:
        c, down, ell = down, m_inv.apply(down), ell - 1
    return c, ell


# -- the cross-check -----------------------------------------------------------


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class InoueReport(NamedTuple):
    d: int
    matrix: Mat2
    sequence: tuple[int, ...]
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def first_failure(self) -> CheckResult | None:
        return next((c for c in self.checks if not c.passed), None)

    def render(self) -> str:
        lines = [
            f"d={self.d}  M_u={self.matrix}  recovered cusp sequence: "
            + ",".join(map(str, self.sequence))
        ]
        for c in self.checks:
            mark = "ok" if c.passed else "FALSIFIED"
            lines.append(f"  [{mark}] {c.name}" + (f": {c.detail}" if c.detail else ""))
        return "\n".join(lines)


# Coordinates of the nonzero lattice elements c1*b1 + c2*b2 with |c1|, |c2| <= 4.
_GRID = tuple((c1, c2) for c1 in range(-4, 5) for c2 in range(-4, 5) if c1 or c2)

_S_FLIP = Mat2(0, 1, 1, 0)


def _oriented_frame(m_u: Mat2, positive: Vec | None) -> tuple[CuspSequence, Mat2, Mat2, bool]:
    """A cusp frame in which totally positive elements hit the principal cone.

    The lattice identification underlying the cusp picture is canonical
    only up to the unit action and the orientation of the basis; an
    orientation-reversed basis shows the complementary cone instead, and
    is repaired by reading coordinates through S = ((0,1),(1,0)).
    ``positive`` holds the coordinates of one totally positive element
    (None if the grid has none, and then no orientation is found).
    Returns (sequence, conjugator P, coordinate transform C, flipped);
    coordinates enter the cusp frame as P^-1 * C * coords.
    """
    for flip in (False, True):
        mat = _S_FLIP * m_u * _S_FLIP if flip else m_u
        seq, p = recover_with_conjugator(mat)
        transform = _S_FLIP if flip else Mat2.identity()
        principal = positive and cone_position(p.inverse().apply(transform.apply(positive)), seq).cone
        if principal is Cone.CONE_MINUS:
            p = -p
            principal = Cone.CONE
        if principal is Cone.CONE:
            return seq, p, transform, flip
    raise InoueError("no orientation matches the principal cone")


def inoue_cross_check(
    d: int, basis: tuple[QuadNum, QuadNum], u: QuadNum, bound: int
) -> InoueReport:
    """Verify that the field picture reproduces the cusp lattice picture.

    Checks, all exact: the recovered b-sequence's monodromy is conjugate
    to the multiplication matrix; multiplication by u acts as that matrix
    on coordinates; the four sign cones match the four eigen-cones; the
    enumerated components pull back to totally positive elements lying in
    pairwise distinct u-orbits that exhaust the fundamental domain.

    Each row's sign cone is read off the basis's integer forms, and its
    orbit is reduced by M_v into the window 1 <= m/m' < v^2 of
    v = max(u, 1/u) (see ``reduce_by_unit``), so a unit u < 1 works too.

    ``d`` must be the field of the basis and u, which is the d of their
    irrational elements; a rational element fits every field.  If all
    three are rational, ``quad_mult_matrix`` refuses them: a rational u of
    norm 1 and trace >= 3 does not exist.
    """
    fields = sorted({x.d for x in (*basis, u)} - {0})
    if fields and fields != [d]:
        named = " and ".join(f"Q(sqrt({f}))" for f in fields)
        raise InoueError(f"d={d}, but the basis and u lie in {named}")
    checks: list[CheckResult] = []
    m_u = quad_mult_matrix(u, basis)
    forms = LatticeForms.of(basis)
    grid_cone = {c: sign_cone(c, forms) for c in _GRID}

    # Multiplication by u realizes M_u on coordinates.
    bad = next(
        (c for c in _GRID if coordinates(u * from_coordinates(c, basis), basis) != m_u.apply(c)), None
    )
    checks.append(CheckResult("coordinate action of u equals M_u", bad is None, str(bad or "")))

    # The four sign cones and the four eigen-cones of M_u match up as
    # partitions (the eigen-cone labels of a conjugate carry no canonical
    # orientation, so only the bijection is asserted here).
    mapping: dict[SignCone, Cone] = {}
    witness = ""
    for coords, sc in grid_cone.items():
        ec = four_cone(m_u, coords)
        if mapping.setdefault(sc, ec) is not ec:
            witness = f"{coords}: {sc.name} saw {mapping[sc].name} and {ec.name}"
            break
    if not witness and len(set(mapping.values())) != len(mapping):
        witness = "sign classes collapsed onto one eigen-cone"
    checks.append(CheckResult("sign cones biject with eigen-cones", not witness, witness))

    # Orient the identification and verify the conjugation exactly.
    positive = [c for c, sc in grid_cone.items() if sc is SignCone.PLUS_PLUS]
    seq, p, transform, flipped = _oriented_frame(m_u, positive[0] if positive else None)
    conjugate = p * mono_product(seq.b) == transform * m_u * transform.inverse() * p
    checks.append(
        CheckResult("recovered sequence conjugate to M_u", conjugate, f"basis orientation reversed: {flipped}")
    )
    # Cusp-frame vectors pull back to coordinates by one matrix, built once.
    back = transform.inverse() * p
    to_frame = back.inverse()

    # Every totally positive grid element lands in the principal cone.
    off = next((c for c in positive if cone_position(to_frame.apply(c), seq).cone is not Cone.CONE),
               None)
    checks.append(CheckResult("totally positive class is the principal cone", off is None, str(off or "")))

    # Pull the enumerated components back to the lattice.
    comps = enumerate_cusp_components(seq, bound)
    pulled = [back.apply(comp.vector) for comp in comps]
    cones = [sign_cone(c, forms) for c in pulled]
    seen = set(cones)
    names = ", ".join(sorted(c.name for c in seen))
    checks.append(CheckResult("components pull back totally positive", seen == {SignCone.PLUS_PLUS}, names))

    # Multiplication by u matches the monodromy action on components.
    action_bad = ""
    monod = mono_product(seq.b)
    for comp, c, sc in zip(comps[: 4 * bound], pulled, cones):
        if sc is not SignCone.PLUS_PLUS:
            continue
        moved = coordinates(u * from_coordinates(c, basis), basis)
        if to_frame.apply(moved) != monod.apply(comp.vector):
            action_bad = f"component {comp.vector}"
            break
    checks.append(
        CheckResult("u-multiplication realizes the monodromy on components", not action_bad, action_bad)
    )

    # Fundamental-domain points fall in pairwise distinct u-orbits.
    m_v = m_u if u.b > 0 else m_u.inverse()
    reps = {}
    collision = ""
    for comp, c, sc in zip(comps, pulled, cones):
        if sc is not SignCone.PLUS_PLUS:
            continue
        rep, _ = reduce_by_unit(c, forms, m_v)
        if rep in reps:
            collision = f"{reps[rep].vector} and {comp.vector} share a u-orbit"
            break
        reps[rep] = comp
    bijective = not collision and len(reps) == len(comps)
    checks.append(
        CheckResult("orbit representatives biject with fundamental-domain points", bijective, collision)
    )

    # Window completeness: any totally positive lattice element with
    # coordinates in [-3, 3] whose reduced vector has mass <= bound must
    # hit an enumerated component.
    vectors = {comp.vector for comp in comps}
    missing = ""
    for c in positive:
        if max(abs(c[0]), abs(c[1])) > 3:
            continue
        y = to_frame.apply(c)
        pos = cone_position(y, seq)
        if pos.cone is not Cone.CONE:
            missing = f"{c}: pulled-back vector left the principal cone"
            break
        rep_vec, _ = reduce_mod_monodromy(y, seq)
        if sum(cone_position(rep_vec, seq).coeffs) <= bound and rep_vec not in vectors:
            missing = f"{c}: reduced vector {rep_vec} not enumerated"
            break
    checks.append(CheckResult("window completeness of the enumeration", not missing, missing))

    return InoueReport(d=d, matrix=m_u, sequence=seq.canonical().b, checks=tuple(checks))


# -- field files -----------------------------------------------------------------


class FieldData(NamedTuple):
    d: int
    basis: tuple[QuadNum, QuadNum]
    u: QuadNum


def parse_field_file(text: str) -> FieldData:
    """Lines: d=<int>, basis=<quad> <quad>, u=<quad>; '#' comments.

    Every malformed line raises InoueError naming its line number.
    """
    d = None
    basis = None
    u = None
    for lineno, line in numbered_lines(text):
        try:
            if line.startswith("d="):
                d = int(line[2:])
            elif line.startswith("basis="):
                if d is None:
                    raise InoueError("d=<int> must come before basis=")
                toks = line[len("basis="):].split()
                if len(toks) != 2:
                    raise InoueError("basis needs exactly two elements")
                basis = (parse_quad_token(toks[0], d), parse_quad_token(toks[1], d))
            elif line.startswith("u="):
                if d is None:
                    raise InoueError("d=<int> must come before u=")
                u = parse_quad_token(line[2:].strip(), d)
            else:
                raise InoueError(f"unknown field-file line {line!r}")
        except ValueError as exc:  # InoueError included
            raise InoueError(f"line {lineno}: {exc}") from None
    if d is None or basis is None or u is None:
        raise InoueError("field file needs d=, basis= and u= lines")
    return FieldData(d, basis, u)
