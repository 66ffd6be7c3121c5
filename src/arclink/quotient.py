"""Finite groups with exact entries: closure, conjugacy classes, McKay.

SL(2)-type subgroups are realized as unit quaternions with coordinates in
Q(sqrt(d)); arbitrary finite subgroups of GL(n) may instead be given by
exact rational matrices (cyclic groups come in as permutation matrices).
Everything is exact; no numerical tolerance appears anywhere.
"""
from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from typing import NamedTuple

from .inputs import CLOSURE_CEILING, ROWS_CEILING, InputError, Record, numbered_lines
from .quadratic import QuadNum, parse_quad_token

# -- elements ---------------------------------------------------------------


class Quaternion(Record):
    """a + b*i + c*j + e*k with QuadNum coefficients."""

    __slots__ = ("a", "b", "c", "e")

    def __init__(self, a: QuadNum, b: QuadNum, c: QuadNum, e: QuadNum) -> None:
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "e", e)

    @staticmethod
    def of(a, b=0, c=0, e=0, d: int = 0) -> "Quaternion":
        conv = lambda x: x if isinstance(x, QuadNum) else QuadNum.of(x, 0, d)
        return Quaternion(conv(a), conv(b), conv(c), conv(e))

    def __mul__(self, o: "Quaternion") -> "Quaternion":
        a1, b1, c1, e1 = self.a, self.b, self.c, self.e
        a2, b2, c2, e2 = o.a, o.b, o.c, o.e
        return Quaternion(
            a1 * a2 - b1 * b2 - c1 * c2 - e1 * e2,
            a1 * b2 + b1 * a2 + c1 * e2 - e1 * c2,
            a1 * c2 - b1 * e2 + c1 * a2 + e1 * b2,
            a1 * e2 + b1 * c2 - c1 * b2 + e1 * a2,
        )

    def norm(self) -> QuadNum:
        return self.a * self.a + self.b * self.b + self.c * self.c + self.e * self.e

    def is_unit(self) -> bool:
        n = self.norm()
        return n.b == 0 and n.a == 1

    def __str__(self) -> str:
        return f"({self.a}, {self.b}, {self.c}, {self.e})"


Matrix = tuple[tuple[Fraction, ...], ...]


def rational_matrix(rows) -> Matrix:
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


# -- closure and conjugacy ----------------------------------------------------

class ClosureError(InputError):
    """Element ceiling exceeded, or a generator that is not invertible, not
    of the common size, or not over the common field."""


class FiniteGroup(NamedTuple):
    """A group as its Cayley table: table[x][y] is the index of e_x * e_y,
    and index 0 is the identity."""

    table: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.table)

    def inverse_index(self, i: int) -> int:
        return self.table[i].index(0)

    def element_order(self, i: int) -> int:
        n, x = 1, i
        while x != 0:
            x = self.table[x][i]
            n += 1
        return n


# Closure multiplies and hashes integer keys, never element objects.  A
# quaternion over Q(sqrt(d)) is the key (den, a, a', b, b', c, c', e, e') for
# ((a + a' sqrt(d)) + (b + b' sqrt(d)) i + (c + c' sqrt(d)) j + (e + e' sqrt(d)) k)/den,
# and a rational matrix is (den, rows) with each row a tuple of its nonzero
# (column, numerator) pairs.  Keys have den > 0 and gcd(den, numerators) = 1,
# so equal elements have equal keys.


def _quaternion_kernel(generators):
    """Check unit quaternions over one field; return the key product, the
    identity key and the generator keys."""
    d = 0
    for g in generators:
        if not isinstance(g, Quaternion):
            raise ClosureError(f"generator {g} is not a unit quaternion")
        for x in (g.a, g.b, g.c, g.e):
            if x.b and x.d != d:
                if d:
                    raise ClosureError(f"generators mix sqrt({d}) and sqrt({x.d}); one group needs one field")
                d = x.d
        if not g.is_unit():
            raise ClosureError(f"generator {g} is not a unit quaternion")

    def product(x, y):
        den, a, a_, b, b_, c, c_, e, e_ = x
        ey, p, p_, q, q_, r, r_, s, s_ = y
        nums = (
            a * p - b * q - c * r - e * s + d * (a_ * p_ - b_ * q_ - c_ * r_ - e_ * s_),
            a * p_ + a_ * p - b * q_ - b_ * q - c * r_ - c_ * r - e * s_ - e_ * s,
            a * q + b * p + c * s - e * r + d * (a_ * q_ + b_ * p_ + c_ * s_ - e_ * r_),
            a * q_ + a_ * q + b * p_ + b_ * p + c * s_ + c_ * s - e * r_ - e_ * r,
            a * r - b * s + c * p + e * q + d * (a_ * r_ - b_ * s_ + c_ * p_ + e_ * q_),
            a * r_ + a_ * r - b * s_ - b_ * s + c * p_ + c_ * p + e * q_ + e_ * q,
            a * s + b * r - c * q + e * p + d * (a_ * s_ + b_ * r_ - c_ * q_ + e_ * p_),
            a * s_ + a_ * s + b * r_ + b_ * r - c * q_ - c_ * q + e * p_ + e_ * p,
        )
        den *= ey
        g = gcd(den, *nums)
        return (den, *nums) if g == 1 else (den // g, *(v // g for v in nums))

    def key(g: Quaternion) -> tuple:
        parts = [x for coeff in (g.a, g.b, g.c, g.e) for x in (coeff.a, coeff.b)]
        den = lcm(*(x.denominator for x in parts))  # lcm of reduced fractions: normalised
        return (den, *(x.numerator * (den // x.denominator) for x in parts))

    return product, (1, 1, 0, 0, 0, 0, 0, 0, 0), [key(g) for g in generators]


def _matrix_product(x, y):
    den, ys = x[0] * y[0], y[1]
    rows = []
    for row in x[1]:
        if len(row) == 1 and row[0][1] == 1:
            # A permutation row picks y's row as it is: O(1), and the keys
            # of a permutation group share their row tuples.
            rows.append(ys[row[0][0]])
            continue
        acc: dict[int, int] = {}
        for k, v in row:
            for j, w in ys[k]:
                acc[j] = acc.get(j, 0) + v * w
        rows.append(tuple(sorted((j, v) for j, v in acc.items() if v)))
    if den > 1:
        g = gcd(den, *(v for row in rows for _, v in row))
        if g > 1:
            den //= g
            rows = [tuple((j, v // g) for j, v in row) for row in rows]
    return (den, tuple(rows))


def _is_invertible(rows) -> bool:
    """Full rank by fraction-free elimination of sparse integer rows: each
    row is reduced against the kept rows until its leading column is new."""
    pivots: dict[int, dict[int, int]] = {}
    for r in rows:
        row = dict(r)
        while row:
            lead = min(row)
            p = pivots.get(lead)
            if p is None:
                pivots[lead] = row
                break
            a, b = p[lead], row[lead]
            row = {j: a * row.get(j, 0) - b * p.get(j, 0) for j in row.keys() | p.keys()}
            row = {j: v for j, v in row.items() if v}
            if row:
                g = gcd(*row.values())
                row = {j: v // g for j, v in row.items()}
        else:
            return False
    return True


def _matrix_kernel(generators):
    """Check square invertible matrices of one size; return the key
    product, the identity key and the generator keys."""
    n = len(generators[0])
    keys = []
    for g in generators:
        if len(g) != n or any(len(row) != n for row in g):
            raise ClosureError("generators must share one matrix size")
        den = lcm(*(v.denominator for row in g for v in row))  # reduced entries: normalised
        rows = tuple(
            tuple((j, v.numerator * (den // v.denominator)) for j, v in enumerate(row) if v) for row in g
        )
        if not _is_invertible(rows):
            raise ClosureError("non-invertible generator")
        keys.append((den, rows))

    identity = (1, tuple(((i, 1),) for i in range(n)))
    return _matrix_product, identity, keys


def group_closure(generators) -> FiniteGroup:
    """Breadth-first closure under multiplication; the group comes back as
    its Cayley table, with the identity at index 0 and the other elements
    in the order the closure meets them.

    Unit quaternions over one field Q(sqrt(d)), or invertible square
    rational matrices of one size.  Products run on integer keys, exactly
    order * len(generators) of them.  A group with more than
    CLOSURE_CEILING (1024) elements raises ClosureError before its table
    is built.
    """
    if not generators:
        raise ClosureError("need at least one generator")
    kernel = _quaternion_kernel if isinstance(generators[0], Quaternion) else _matrix_kernel
    mul, identity, gens = kernel(generators)
    elements = [identity]
    index = {identity: 0}
    right: list[list[int]] = [[] for _ in gens]  # right[j][x]: the index of e_x * g_j
    parents: list[tuple[int, int]] = []  # (x, j) with e_c = e_x * g_j, for c = 1, 2, ...
    for x, e in enumerate(elements):  # reads the elements it appends: a FIFO queue
        for j, g in enumerate(gens):
            y = mul(e, g)
            c = index.get(y)
            if c is None:
                if len(elements) >= CLOSURE_CEILING:
                    raise ClosureError(
                        f"closure exceeded {CLOSURE_CEILING} elements; the group is likely infinite, "
                        "or too large for its Cayley table"
                    )
                c = index[y] = len(elements)
                elements.append(y)
                parents.append((x, j))
            right[j].append(c)
    # Column c of the table holds e_t * e_c over t.  For e_c = e_x * g_j,
    # e_t * e_c = (e_t * e_x) * g_j, read off column x and the products
    # above; x < c, so column x is already there.
    columns = [range(len(elements))]
    for x, j in parents:
        columns.append([right[j][t] for t in columns[x]])
    return FiniteGroup(tuple(zip(*columns)))


class ConjClasses(NamedTuple):
    classes: tuple[tuple[int, ...], ...]

    @property
    def count(self) -> int:  # shadows tuple.count, which no caller needs
        return len(self.classes)


def conjugacy_classes(group: FiniteGroup) -> ConjClasses:
    """Brute-force orbit partition under conjugation.  Each orbit is taken
    from the least element not yet seen, so the classes come in the order
    of their least elements."""
    n = group.order
    inverses = [group.inverse_index(i) for i in range(n)]
    unseen = set(range(n))
    classes = []
    while unseen:
        x = min(unseen)
        orbit = {group.table[group.table[g][x]][inverses[g]] for g in range(n)}
        classes.append(tuple(sorted(orbit)))
        unseen -= orbit
    return ConjClasses(tuple(classes))


# -- McKay ---------------------------------------------------------------------


class McKayReport(NamedTuple):
    group_order: int
    class_count: int
    nontrivial_classes: int
    family: str
    expected_exceptional_curves: int
    matches: bool

    def render(self) -> str:
        verdict = "OK" if self.matches else "MISMATCH"
        return (
            f"order={self.group_order} classes={self.class_count} "
            f"mckay[{self.family}]: {self.nontrivial_classes} = "
            f"{self.expected_exceptional_curves} {verdict}"
        )


def mckay_report(group: FiniteGroup, classes: ConjClasses | None = None) -> McKayReport:
    """Match class counts against the A/D/E exceptional-curve catalog.

    cyclic m -> A_{m-1} (m-1 curves); binary dihedral of order 4n ->
    D_{n+2} (n+2 curves); 2T -> E6; 2O -> E7; 2I -> E8.  A caller that
    already holds the group's classes passes them in.  A group outside
    the catalog raises InputError naming the reason.
    """
    if classes is None:
        classes = conjugacy_classes(group)
    order, count = group.order, classes.count
    table = group.table
    if table == tuple(zip(*table)):  # abelian: the table is its own transpose
        if not any(group.element_order(i) == order for i in range(order)):
            raise InputError("abelian but not cyclic: no free SL(2) action exists")
        family, expected = f"A{order - 1}", order - 1
    else:
        # The diagonal holds x * x: it is 1 for the identity and each involution.
        if sum(row[i] == 0 for i, row in enumerate(table)) != 2:
            raise InputError("a finite SL(2) subgroup has a unique involution")
        if order == 24 and count == 7:
            family, expected = "E6", 6
        elif order == 48 and count == 8:
            family, expected = "E7", 7
        elif order == 120 and count == 9:
            family, expected = "E8", 8
        elif order % 4 == 0 and count == order // 4 + 3:
            n = order // 4
            family, expected = f"D{n + 2}", n + 2
        else:
            raise InputError(f"order {order} with {count} classes is not an SL(2)-type group")
    return McKayReport(
        group_order=order,
        class_count=count,
        nontrivial_classes=count - 1,
        family=family,
        expected_exceptional_curves=expected,
        matches=(count - 1 == expected),
    )


# -- standard generators --------------------------------------------------------

_HALF = Fraction(1, 2)


def _phi_half() -> QuadNum:
    """(1 + sqrt(5))/4 * 2 = golden ratio over 2."""
    return QuadNum.of(Fraction(1, 4), Fraction(1, 4), 5)


def binary_tetrahedral_generators() -> list[Quaternion]:
    i = Quaternion.of(0, 1, 0, 0)
    w = Quaternion.of(_HALF, _HALF, _HALF, _HALF)
    return [i, w]


def binary_octahedral_generators() -> list[Quaternion]:
    w = Quaternion.of(_HALF, _HALF, _HALF, _HALF, d=2)
    r = Quaternion(
        QuadNum.of(0, _HALF, 2), QuadNum.of(0, _HALF, 2), QuadNum.of(0, 0, 2), QuadNum.of(0, 0, 2)
    )
    return [w, r]


def binary_icosahedral_generators() -> list[Quaternion]:
    w = Quaternion.of(_HALF, _HALF, _HALF, _HALF, d=5)
    # (1/2)(phi + i + j/phi): a 72-degree rotation; phi = (1+sqrt5)/2.
    phi2 = _phi_half()
    inv_phi2 = QuadNum.of(Fraction(-1, 4), Fraction(1, 4), 5)  # 1/(2 phi)
    r = Quaternion(phi2, QuadNum.of(_HALF, 0, 5), inv_phi2, QuadNum.of(0, 0, 5))
    return [w, r]


def quaternion_group_generators() -> list[Quaternion]:
    return [Quaternion.of(0, 1, 0, 0), Quaternion.of(0, 0, 1, 0)]


def binary_dihedral_generators(n: int) -> list[Quaternion]:
    """Binary dihedral group of order 4n; needs cos(pi/n) quadratic."""
    if n < 2:
        raise InputError("binary dihedral groups need n >= 2")
    j = Quaternion.of(0, 0, 1, 0)
    if n == 2:
        return [Quaternion.of(0, 0, 0, 1), j]
    if n == 3:  # cos(pi/3) = 1/2, sin = sqrt(3)/2
        x = Quaternion(
            QuadNum.of(_HALF, 0, 3), QuadNum.of(0, _HALF, 3), QuadNum.of(0, 0, 3), QuadNum.of(0, 0, 3)
        )
    elif n == 4:  # cos(pi/4) = sqrt(2)/2
        x = Quaternion(
            QuadNum.of(0, _HALF, 2), QuadNum.of(0, _HALF, 2), QuadNum.of(0, 0, 2), QuadNum.of(0, 0, 2)
        )
    elif n == 5:  # cos(pi/5) = phi/2; axis in the (i, j) plane keeps Q(sqrt5)
        x = Quaternion(_phi_half(), QuadNum.of(_HALF, 0, 5), QuadNum.of(Fraction(-1, 4), Fraction(1, 4), 5), QuadNum.of(0, 0, 5))
        j = Quaternion.of(0, 0, 0, 1, d=5)  # k is orthogonal to that axis
    elif n == 6:  # cos(pi/6) = sqrt(3)/2
        x = Quaternion(
            QuadNum.of(0, _HALF, 3), QuadNum.of(_HALF, 0, 3), QuadNum.of(0, 0, 3), QuadNum.of(0, 0, 3)
        )
    else:
        raise InputError(f"cos(pi/{n}) is not quadratic; no Q(sqrt(d)) model here")
    return [x, j]


def cyclic_permutation_generators(m: int) -> list[Matrix]:
    """Z/m as the m-by-m cyclic shift matrix, with int entries 0 and 1."""
    if m < 1:
        raise InputError("m must be positive")
    if m > CLOSURE_CEILING:
        raise ClosureError(f"Z/{m} has more than the {CLOSURE_CEILING} elements a closure accepts")
    return [tuple(tuple(int(j == (i + 1) % m) for j in range(m)) for i in range(m))]


BUILTIN_GROUPS = {
    "2T": binary_tetrahedral_generators,
    "2O": binary_octahedral_generators,
    "2I": binary_icosahedral_generators,
    "Q8": quaternion_group_generators,
}


def builtin_generators(name: str):
    """Generators for '2T', '2O', '2I', 'Q8', 'cyclic:m' or 'bd:n'."""
    if name in BUILTIN_GROUPS:
        return BUILTIN_GROUPS[name]()
    family, colon, size = name.partition(":")
    helpers = {"cyclic": cyclic_permutation_generators, "bd": binary_dihedral_generators}
    if not colon or family not in helpers:
        raise InputError(f"unknown builtin group {name!r}")
    try:
        n = int(size)
    except ValueError:
        raise InputError(f"{family}:<n> needs an integer n, got {name!r}") from None
    return helpers[family](n)


# -- cyclic quotient component labels --------------------------------------------


class ArcCenter(Enum):
    ON_CURVE = "on_curve"
    AT_ORIGIN = "at_origin"


class CyclicComponentLabel(NamedTuple):
    """One component of the cyclic-quotient pair ((x=0) in C^2)/(1/m)(q,1).

    Every field but ``center`` is a plain int: the intersection number
    with the image curve is m1/m, read as a ``Fraction`` through the
    ``label`` property, and the model arc downstairs is t -> (t^{m1}, t^c).
    """

    m: int
    center: ArcCenter
    m1: int
    c: int

    @property
    def label(self) -> Fraction:
        """The intersection number m1/m, normalised."""
        return Fraction(self.m1, self.m)


def checked_label_count(m: int, bound: int) -> int:
    """The B*m rows of ``cyclic_quotient_components(m, q, bound)``, refused
    with an InputError that names them past ``inputs.ROWS_CEILING``."""
    rows = bound * m
    if rows > ROWS_CEILING:
        raise InputError(f"the enumeration would have B*m = {rows} rows, more than {ROWS_CEILING}")
    return rows


def cyclic_quotient_components(m: int, q: int, bound: int) -> list[CyclicComponentLabel]:
    """Labels a/m for 1 <= a <= bound*m; integer labels sit on the curve.
    Each row holds the ints (m, m1 = a, c) and no ``Fraction``; its
    ``label`` property is m1/m.  More rows than ``inputs.ROWS_CEILING``
    are refused before any is built.

    The rows are periodic in a: the center depends only on whether m
    divides a, and c = a*q^-1 mod m only on a mod m, since
    (a + m)*q^-1 = a*q^-1 + m*q^-1 = a*q^-1 mod m.  So the centers and
    the c of one period a = 1..m are computed once, repeated ``bound``
    times, and zipped with m and a = 1..bound*m; ``tuple.__new__`` makes
    each zipped 4-tuple a row without a Python call per row."""
    if m < 1:
        raise ValueError("m must be positive")
    if m == 1:
        if q != 0:
            raise ValueError("the smooth case m = 1 takes q = 0")
    elif not (0 < q < m) or gcd(m, q) != 1:
        raise ValueError(f"need 0 < q < m coprime, got q={q}, m={m}")
    if bound < 1:
        raise ValueError("bound must be positive")
    rows = checked_label_count(m, bound)
    q_inv = pow(q, -1, m) if m > 1 else 0
    centers = [ArcCenter.AT_ORIGIN] * (m - 1) + [ArcCenter.ON_CURVE]
    cs = [a * q_inv % m for a in range(1, m + 1)]
    fields = zip(repeat(m), centers * bound, range(1, rows + 1), cs * bound)
    return list(map(tuple.__new__, repeat(CyclicComponentLabel), fields))


# -- group files --------------------------------------------------------------------


def parse_group_file(text: str):
    """Generators from the group file format.

    Lines: ``d=<int>`` (field for sqrt parts), ``matrix <n>`` followed by
    n rows of n rationals, or four whitespace-separated quadratic tokens
    forming a quaternion a + b i + c j + e k.  '#' starts a comment.
    Every malformed line raises InputError naming its line number.
    """
    d = 0
    quats: list[Quaternion] = []
    mats: list[Matrix] = []
    lines = numbered_lines(text)
    pos = 0
    while pos < len(lines):
        lineno, line = lines[pos]
        try:
            if line.startswith("d="):
                d = int(line[2:])
                pos += 1
                continue
            if line.startswith("matrix"):
                head = line.split()
                if len(head) != 2 or not head[1].isdigit() or int(head[1]) < 1:
                    raise ValueError(f"expected 'matrix <n>' with n >= 1, got {line!r}")
                n = int(head[1])
                if pos + n >= len(lines):
                    raise ValueError(f"'matrix {n}' needs {n} rows, got {len(lines) - pos - 1}")
                rows = []
                for r in range(1, n + 1):
                    lineno, row = lines[pos + r]
                    rows.append([Fraction(tok) for tok in row.split()])
                    if len(rows[-1]) != n:
                        raise ValueError(f"matrix row {r} must have {n} entries")
                mats.append(rational_matrix(rows))
                pos += n + 1
                continue
            tokens = line.split()
            if len(tokens) != 4:
                raise ValueError(f"expected 4 quaternion coefficients, got {line!r}")
            coeffs = [parse_quad_token(t, d) for t in tokens]
        except ZeroDivisionError:
            raise InputError(f"line {lineno}: zero denominator") from None
        except ValueError as exc:
            raise InputError(f"line {lineno}: {exc}") from None
        quats.append(Quaternion(*coeffs))
        pos += 1
    if quats and mats:
        raise InputError("mix of quaternion and matrix generators is not supported")
    return quats or mats
