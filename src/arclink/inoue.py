"""Real quadratic cross-check of the cusp lattice picture.

A rank-2 lattice H in K = Q(sqrt(d)) together with a totally positive
unit u with uH = H realizes the cusp monodromy as multiplication by u.
Short arcs on the two cusps correspond to the four sign cones of (m, m');
everything here verifies that correspondence exactly, orbit by orbit.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
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
from .quadratic import QuadNum, parse_quad_token

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


# -- sign cones ---------------------------------------------------------------


class SignCone(Enum):
    PLUS_PLUS = "this_cusp"                 # m > 0, m' > 0
    PLUS_MINUS = "dual_cusp"                # m > 0, m' < 0
    MINUS_PLUS = "dual_cusp_reversed"       # m < 0, m' > 0
    MINUS_MINUS = "this_cusp_reversed"      # m < 0, m' < 0


def sign_cone(m: QuadNum) -> SignCone:
    """Exact classification of (sign m, sign m') into the four cones."""
    if m.is_zero():
        raise InoueError("the zero element has no sign cone")
    s, s_conj = m.sign(), m.conjugate().sign()
    assert s != 0 and s_conj != 0
    if s > 0:
        return SignCone.PLUS_PLUS if s_conj > 0 else SignCone.PLUS_MINUS
    return SignCone.MINUS_PLUS if s_conj > 0 else SignCone.MINUS_MINUS


def reduce_by_unit(m: QuadNum, u: QuadNum) -> tuple[QuadNum, int]:
    """Canonical representative of the u-orbit of a totally positive m.

    Multiplication by u scales the ratio m/m' by u^2 > 1; the half-open
    window 1 <= m/m' < u^2 meets every orbit exactly once.
    """
    if sign_cone(m) is not SignCone.PLUS_PLUS:
        raise InoueError("orbit reduction applies to totally positive elements")
    u2 = u * u
    ell = 0
    ratio = m / m.conjugate()
    one = QuadNum.of(1)
    while ratio < one:
        m = m * u
        ell += 1
        ratio = m / m.conjugate()
    while ratio >= u2:
        m = m / u
        ell -= 1
        ratio = m / m.conjugate()
    return m, ell


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


def _grid_elements(basis):
    for c1 in range(-4, 5):
        for c2 in range(-4, 5):
            if c1 or c2:
                yield (c1, c2), from_coordinates((c1, c2), basis)


_S_FLIP = Mat2(0, 1, 1, 0)


def _oriented_frame(m_u: Mat2, grid) -> tuple[CuspSequence, Mat2, Mat2, bool]:
    """A cusp frame in which totally positive elements hit the principal cone.

    The lattice identification underlying the cusp picture is canonical
    only up to the unit action and the orientation of the basis; an
    orientation-reversed basis shows the complementary cone instead, and
    is repaired by reading coordinates through S = ((0,1),(1,0)).
    ``grid`` holds the (coordinates, element) pairs of the lattice grid.
    Returns (sequence, conjugator P, coordinate transform C, flipped);
    coordinates enter the cusp frame as P^-1 * C * coords.
    """
    for flip in (False, True):
        mat = _S_FLIP * m_u * _S_FLIP if flip else m_u
        seq, p = recover_with_conjugator(mat)
        transform = _S_FLIP if flip else Mat2.identity()
        p_inv = p.inverse()
        principal: Cone | None = None
        for coords, elt in grid:
            if sign_cone(elt) is SignCone.PLUS_PLUS:
                principal = cone_position(p_inv.apply(transform.apply(coords)), seq).cone
                break
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
    """
    checks: list[CheckResult] = []
    m_u = quad_mult_matrix(u, basis)
    grid = list(_grid_elements(basis))

    # Multiplication by u realizes M_u on coordinates.
    bad = None
    for coords, elt in grid:
        if coordinates(u * elt, basis) != m_u.apply(coords):
            bad = coords
            break
    checks.append(
        CheckResult("coordinate action of u equals M_u", bad is None, detail=str(bad or ""))
    )

    # The four sign cones and the four eigen-cones of M_u match up as
    # partitions (the eigen-cone labels of a conjugate carry no canonical
    # orientation, so only the bijection is asserted here).
    mapping: dict[SignCone, Cone] = {}
    consistent = True
    witness = ""
    for coords, elt in grid:
        sc = sign_cone(elt)
        ec = four_cone(m_u, coords)
        if sc in mapping and mapping[sc] is not ec:
            consistent = False
            witness = f"{coords}: {sc.name} saw {mapping[sc].name} and {ec.name}"
            break
        mapping[sc] = ec
    if consistent and len(set(mapping.values())) != len(mapping):
        consistent = False
        witness = "sign classes collapsed onto one eigen-cone"
    checks.append(CheckResult("sign cones biject with eigen-cones", consistent, witness))

    # Orient the identification and verify the conjugation exactly.
    seq, p, transform, flipped = _oriented_frame(m_u, grid)
    framed = transform * m_u * transform.inverse()
    checks.append(
        CheckResult(
            "recovered sequence conjugate to M_u",
            p * mono_product(seq.b) == framed * p,
            f"basis orientation reversed: {flipped}",
        )
    )

    def to_cusp_frame(coords: Vec) -> Vec:
        return p.inverse().apply(transform.apply(coords))

    # Every totally positive grid element lands in the principal cone.
    off = next((coords for coords, elt in grid if sign_cone(elt) is SignCone.PLUS_PLUS
                and cone_position(to_cusp_frame(coords), seq).cone is not Cone.CONE), None)
    checks.append(CheckResult("totally positive class is the principal cone", off is None, str(off or "")))

    def from_cusp_frame(vec: Vec) -> QuadNum:
        return from_coordinates(transform.inverse().apply(p.apply(vec)), basis)

    # Pull the enumerated components back to the field.
    comps = enumerate_cusp_components(seq, bound)
    pulled = [(comp, from_cusp_frame(comp.vector)) for comp in comps]
    cones = {sign_cone(elt) for _, elt in pulled}
    checks.append(
        CheckResult(
            "components pull back totally positive",
            cones == {SignCone.PLUS_PLUS},
            ", ".join(sorted(c.name for c in cones)),
        )
    )

    # Multiplication by u matches the monodromy action on components.
    action_bad = ""
    monod = mono_product(seq.b)
    for comp, elt in pulled[: 4 * bound]:
        if sign_cone(elt) is not SignCone.PLUS_PLUS:
            continue
        moved = coordinates(u * elt, basis)
        if to_cusp_frame(moved) != monod.apply(comp.vector):
            action_bad = f"component {comp.vector}"
            break
    checks.append(
        CheckResult("u-multiplication realizes the monodromy on components", not action_bad, action_bad)
    )

    # Fundamental-domain points fall in pairwise distinct u-orbits.
    reps = {}
    collision = ""
    for comp, elt in pulled:
        if sign_cone(elt) is not SignCone.PLUS_PLUS:
            continue
        rep, _ = reduce_by_unit(elt, u)
        key = (rep.a, rep.b)
        if key in reps:
            collision = f"{reps[key].vector} and {comp.vector} share a u-orbit"
            break
        reps[key] = comp
    checks.append(
        CheckResult(
            "orbit representatives biject with fundamental-domain points",
            not collision and len(reps) == len(comps),
            collision,
        )
    )

    # Window completeness: any totally positive lattice element with
    # coordinates in [-3, 3] whose reduced vector has mass <= bound must
    # hit an enumerated component.
    vectors = {comp.vector for comp in comps}
    missing = ""
    for coords, elt in grid:
        if max(abs(coords[0]), abs(coords[1])) > 3 or sign_cone(elt) is not SignCone.PLUS_PLUS:
            continue
        y = to_cusp_frame(coords)
        pos = cone_position(y, seq)
        if pos.cone is not Cone.CONE:
            missing = f"{coords}: pulled-back vector left the principal cone"
            break
        rep_vec, _ = reduce_mod_monodromy(y, seq)
        if sum(cone_position(rep_vec, seq).coeffs) <= bound and rep_vec not in vectors:
            missing = f"{coords}: reduced vector {rep_vec} not enumerated"
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
