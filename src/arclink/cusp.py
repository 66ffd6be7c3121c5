"""Cusp singularities: monodromy, the lattice fan, duality, recovery.

A cusp is encoded by its cyclic sequence (b_1,...,b_k), every b_i >= 2
and not all equal to 2.  The monodromy M = M(b_1,...,b_k) has trace >= 3;
its eigendirections span an open cone whose lattice points, taken modulo
the action of M, index the components of the space of short arcs.  All
cone membership tests run in Z[sqrt(D)], D = trace^2 - 4.
"""
from __future__ import annotations

from enum import Enum
from math import isqrt
from typing import NamedTuple

from .hjcf import Mat2, mono_product
from .inputs import DUAL_CEILING, ROWS_CEILING, InputError, Record
from .quadratic import quadint_sign

Vec = tuple[int, int]


class CuspError(InputError):
    """Invalid cusp sequence or vector outside the expected cone."""


class CuspSequence(Record):
    __slots__ = ("b",)

    def __init__(self, b: tuple[int, ...]) -> None:
        b = tuple(b)
        if not b:
            raise CuspError("empty cusp sequence")
        if min(b) < 2:
            raise CuspError(f"all entries must be >= 2, got {b}")
        if max(b) == 2:
            raise CuspError(f"sum(b_i - 2) must be positive, got {b}")
        object.__setattr__(self, "b", b)

    @property
    def k(self) -> int:
        return len(self.b)

    def term(self, i: int) -> int:
        """b_i with a 1-based index read cyclically."""
        return self.b[(i - 1) % self.k]

    def canonical(self) -> "CuspSequence":
        """The lexicographically least rotation, found in O(k).

        Two candidate starts i != j are compared from offset ``off``; at the
        first difference the start with the larger entry and the ``off``
        starts after it are ruled out, so every step either grows ``off`` or
        rules out starts (Booth 1980, Duval 1983).  Reading the doubled tuple keeps each
        index below 2k without a modulus.
        """
        b, n = self.b, self.k
        bb = b + b
        i, j, off = 0, 1, 0
        while i < n and j < n and off < n:
            x, y = bb[i + off], bb[j + off]
            if x == y:
                off += 1
                continue
            if x > y:
                i += off + 1
            else:
                j += off + 1
            if i == j:
                j += 1
            off = 0
        start = min(i, j)
        return self if start == 0 else CuspSequence(bb[start:start + n])

    def is_rotation_of(self, other: "CuspSequence") -> bool:
        return self.canonical().b == other.canonical().b


def monodromy(c: CuspSequence) -> Mat2:
    m = mono_product(c.b)
    if m.trace() < 3:
        raise CuspError(f"monodromy trace {m.trace()} < 3 for {c.b}")
    return m


def v_sequence(c: CuspSequence, lo: int, hi: int) -> list[Vec]:
    """Vectors v_lo..v_hi; v_0=(0,1), v_1=(1,0), v_{i+1}=b_i v_i - v_{i-1}."""
    if lo > hi:
        raise CuspError(f"need lo <= hi, got {lo} > {hi}")
    fwd: dict[int, Vec] = {0: (0, 1), 1: (1, 0)}
    i = 1
    while i < hi:
        b = c.term(i)
        v, u = fwd[i], fwd[i - 1]
        fwd[i + 1] = (b * v[0] - u[0], b * v[1] - u[1])
        i += 1
    i = 0
    while i > lo:
        # v_{i-1} = b_i * v_i - v_{i+1}
        b = c.term(i)
        v, w = fwd[i], fwd[i + 1]
        fwd[i - 1] = (b * v[0] - w[0], b * v[1] - w[1])
        i -= 1
    return [fwd[j] for j in range(lo, hi + 1)]


# -- the four cones -----------------------------------------------------


class Cone(Enum):
    CONE = "cone"                    # R_{>0} <V1, V2>: this cusp
    CONE_MINUS = "cone_minus"        # its negative: reversed boundary orientation
    DUAL_CONE = "dual_cone"          # complementary cone: the dual cusp
    DUAL_CONE_MINUS = "dual_cone_minus"


class ConePosition(NamedTuple):
    cone: Cone
    witness: Vec
    # For vectors inside CONE only:
    ray_index: int | None = None     # i mod k when on a ray
    sector_index: int | None = None  # i mod k when strictly inside [v_i, v_{i+1})
    coeffs: tuple[int, ...] = ()
    index_abs: int | None = None     # the absolute fan index i


def _det2(u: Vec, w: Vec) -> int:
    return u[0] * w[1] - u[1] * w[0]


def _eigen_sign_pair(m: Mat2, w: Vec) -> tuple[int, int]:
    """Signs of cross(V1, w) and cross(V2_paper, w) in Z[sqrt(D)].

    V1 = (2q, (s-p) + sqrt(D)) spans the attracting eigendirection and
    V2_paper = (-2q, (p-s) + sqrt(D)) the repelling one, oriented so that
    the open cone between them contains (0, 1) for monodromy matrices.
    """
    d = m.trace() ** 2 - 4
    s1 = quadint_sign(2 * m.q * w[1] - (m.s - m.p) * w[0], -w[0], d)
    s2 = quadint_sign(-2 * m.q * w[1] - (m.p - m.s) * w[0], -w[0], d)
    return s1, s2


def four_cone(m: Mat2, w: Vec) -> Cone:
    """Which of the four eigen-cones of m contains w (m: det 1, trace >= 3).

    Eigenrays carry no lattice points, so the answer is always one of the
    four open cones.
    """
    if m.q == 0:
        raise CuspError("degenerate matrix: q = 0 cannot have trace >= 3 in SL(2,Z)")
    chi = 1 if m.q > 0 else -1
    s1, s2 = _eigen_sign_pair(m, w)
    if (s1, s2) == (chi, -chi):
        return Cone.CONE
    if (s1, s2) == (-chi, chi):
        return Cone.CONE_MINUS
    if (s1, s2) == (chi, chi):
        return Cone.DUAL_CONE
    return Cone.DUAL_CONE_MINUS


def cone_position(w: Vec, c: CuspSequence) -> ConePosition:
    """Exact classification of a nonzero lattice vector.

    Inside the principal cone the position is located in the fan: either
    on the ray through some v_i (with multiplicity m) or strictly between
    v_i and v_{i+1} (with positive sector coordinates).

    Since v_{i+jk} = M^j v_i and det M = 1, w = M^j w' has the coefficients
    of w' at index i + jk.  So w is first moved into the fundamental period
    [v_0, v_k) by whole powers of M, one matrix-vector product per period
    crossed, and then located among at most k rays with small integers:
    O(|l| + k) steps for w at fan depth l periods.
    """
    return _locate(w, c)[0]


def _locate(w: Vec, c: CuspSequence) -> tuple[ConePosition, Vec | None]:
    """``cone_position(w, c)`` and, for w in the principal cone, the
    translate of w by whole periods that lies in [v_0, v_k)."""
    if w == (0, 0):
        raise CuspError("zero vector has no cone position")
    m = monodromy(c)
    cone = four_cone(m, w)
    if cone is not Cone.CONE:
        return ConePosition(cone, w), None
    v0: Vec = (0, 1)
    vk: Vec = (m.q, m.s)  # v_k = M v_0
    m_inv = m.inverse()
    u, periods = w, 0
    while _det2(vk, u) <= 0:  # u at or past v_k
        u = m_inv.apply(u)
        periods += 1
    while _det2(u, v0) < 0:  # u before v_0
        u = m.apply(u)
        periods -= 1
    # Walk right from [v_0, v_1): u lies in [v_i, v_{i+1}) for some i < k.
    vi, vi1 = v0, (1, 0)
    for i in range(c.k):
        a = _det2(vi1, u)   # coefficient on v_i
        if a > 0:
            b = _det2(u, vi)  # coefficient on v_{i+1}, >= 0
            index_abs = i + periods * c.k
            if b == 0:
                return ConePosition(Cone.CONE, w, ray_index=i, coeffs=(a,), index_abs=index_abs), u
            return ConePosition(Cone.CONE, w, sector_index=i, coeffs=(a, b), index_abs=index_abs), u
        # step right: v_{i+2} = b_{i+1} v_{i+1} - v_i
        bterm = c.term(i + 1)
        vi, vi1 = vi1, (bterm * vi1[0] - vi[0], bterm * vi1[1] - vi[1])
    raise RuntimeError(f"fan walk failed to locate {w}")  # pragma: no cover


def reduce_mod_monodromy(w: Vec, c: CuspSequence) -> tuple[Vec, int]:
    """Unique M^l * w inside the fundamental sectors [v_0, v_k), with l.

    The fan walk of ``cone_position`` already moved w there by whole
    periods, so the representative is the vector it located."""
    pos, rep = _locate(w, c)
    if pos.cone is not Cone.CONE:
        raise CuspError(f"{w} lies in {pos.cone.value}, not in the principal cone")
    return rep, -(pos.index_abs // c.k)


# -- component enumeration ----------------------------------------------


class CuspComponent(NamedTuple):
    """One component of the short-arc space of a cusp.

    Ray components carry (index i, multiplicity m) and live on the curve
    indexed by i; sector components carry (index i, m_i, m_{i+1}) and sit
    at the node between consecutive curves.  ``vector`` is the winding
    class in the canonical pi_1(T) = Z^2 basis.  A record is a tuple, so
    it also equals the plain tuple of its fields.
    """

    kind: str  # "ray" | "sector"
    index: int
    multiplicities: tuple[int, ...]
    vector: Vec


def enumerate_cusp_components(c: CuspSequence, bound: int) -> list[CuspComponent]:
    """Lattice points of the half-open fundamental sectors, mass <= bound.

    Rays contribute m*v_i with 1 <= m <= bound; open sectors contribute
    m_i v_i + m_{i+1} v_{i+1} with m_i, m_{i+1} >= 1, m_i + m_{i+1} <= bound.
    That is k*B*(B+1)/2 rows for B = bound, counted before any is built.

    Each row's vector is its predecessor's plus v_i on a ray, or plus
    v_{i+1} in a sector, so a row costs one addition per coordinate of
    O(k) digits, where the closed form takes two products and a sum.
    """
    if bound < 1:
        raise CuspError("bound must be positive")
    rows = c.k * bound * (bound + 1) // 2
    if rows > ROWS_CEILING:
        raise CuspError(f"the enumeration would have k*B*(B+1)/2 = {rows} rows, more than {ROWS_CEILING}")
    vs = v_sequence(c, 0, c.k)
    singles = [(m,) for m in range(1, bound + 1)]
    pairs = [[(mi, mj) for mj in range(1, bound - mi + 1)] for mi in range(1, bound)]
    new = tuple.__new__
    # All rays, then all sectors, each by (index, multiplicities): the
    # order of (kind, index, multiplicities), so no sort is needed.
    out: list[CuspComponent] = []
    append = out.append
    for i in range(c.k):
        dx, dy = vs[i]
        x = y = 0
        for mults in singles:
            x += dx
            y += dy
            append(new(CuspComponent, ("ray", i, mults, (x, y))))
    for i in range(c.k):
        (ax, ay), (dx, dy) = vs[i], vs[i + 1]
        px = py = 0  # m_i * v_i
        for run in pairs:
            px += ax
            py += ay
            x, y = px, py
            for mults in run:
                x += dx
                y += dy
                append(new(CuspComponent, ("sector", i, mults, (x, y))))
    return out


# -- duality --------------------------------------------------------------

T_MATRIX = Mat2(-1, -1, 1, 2)

def _construction_rotation(b: tuple[int, ...]) -> tuple[int, ...]:
    """Smallest rotation of a cusp sequence with last entry >= 3 (always exists).

    The rotation by s ends in b[s - 1], so one scan finds the shift; the
    rotation by 0 is b itself.
    """
    if b[-1] >= 3:
        return b
    for shift in range(1, len(b)):
        if b[shift - 1] >= 3:
            return b[shift:] + b[:shift]
    raise CuspError("no entry >= 3; invalid cusp sequence")  # pragma: no cover


def dual_construction(c: CuspSequence) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(rotated input, dual sequence) with matching cut conventions.

    The rotation ends in an entry >= 3, so it reads as blocks
    2^{k1*-1}, k1+2, 2^{k2*-1}, k2+2, ... with every ki*, ki >= 1; block i
    gives the dual entries ki* + 2 and then ki - 1 twos, in one pass.
    Both come back as plain tuples: every dual entry is >= 2 and the first
    is >= 3, so the dual is a cusp sequence without a second validation.
    A dual longer than ``inputs.DUAL_CEILING`` is refused before it is built."""
    length = sum(c.b) - 2 * c.k
    if length > DUAL_CEILING:
        raise CuspError(f"the dual would have sum(b_i - 2) = {length} entries, more than {DUAL_CEILING}")
    rot = _construction_rotation(c.b)
    dual: list[int] = []
    run = 0  # the twos before the next entry >= 3: k* - 1
    for x in rot:
        if x == 2:
            run += 1
        else:
            dual.append(run + 3)
            dual += [2] * (x - 3)
            run = 0
    return rot, tuple(dual)


def dual_sequence(c: CuspSequence) -> CuspSequence:
    """The dual cusp's b-sequence, canonically rotated."""
    _, dual = dual_construction(c)
    return CuspSequence(dual).canonical()


class DualityReport(NamedTuple):
    sequence: tuple[int, ...]          # the rotation actually used
    dual: tuple[int, ...]              # dual in construction order
    m: Mat2
    m_star: Mat2
    t_identity_holds: bool             # M T == T M*
    traces_equal: bool

    @property
    def ok(self) -> bool:
        return self.t_identity_holds and self.traces_equal

    def canonical_dual(self) -> tuple[tuple[int, ...], bool]:
        """The dual's canonical rotation, and whether it is the sequence's
        own: each side is canonicalised once."""
        dual = CuspSequence(self.dual).canonical()
        return dual.b, dual == CuspSequence(self.sequence).canonical()


def check_duality(c: CuspSequence) -> DualityReport:
    """Verify M T = T M* and trace equality for the dual pair, exactly.

    The identity is tested entry by entry on the ints of M = ((p, q),
    (r, s)), M* = ((p*, q*), (r*, s*)) and T, with no product matrix
    built.  For T = ((-1, -1), (1, 2)) it reads
    q - p = -(p* + r*), 2q - p = -(q* + s*), s - r = p* + 2r* and
    2s - r = q* + 2s*.  T is read from ``T_MATRIX`` at each call."""
    rot, dual = dual_construction(c)
    m = mono_product(rot)
    m_star = mono_product(dual)
    p, q, r, s = m.p, m.q, m.r, m.s
    ps, qs, rs, ss = m_star.p, m_star.q, m_star.r, m_star.s
    tp, tq, tr, ts = T_MATRIX.p, T_MATRIX.q, T_MATRIX.r, T_MATRIX.s
    return DualityReport(
        sequence=rot,
        dual=dual,
        m=m,
        m_star=m_star,
        t_identity_holds=(
            p * tp + q * tr == tp * ps + tq * rs
            and p * tq + q * ts == tp * qs + tq * ss
            and r * tp + s * tr == tr * ps + ts * rs
            and r * tq + s * ts == tr * qs + ts * ss
        ),
        traces_equal=p + s == ps + ss,
    )


# -- recovering the sequence from a matrix --------------------------------


def _floor_quad(a: int, c: int, d: int, r: int) -> int:
    """floor((a + sqrt(d)) / c) for integer a, c != 0, non-square d > 0
    and r = isqrt(d).

    Exact from r alone: d is not a square, so r < sqrt(d) < r + 1 and
    no integer lies in (a + r, a + sqrt(d)].  For c > 0 the multiple
    n*c therefore passes a + sqrt(d) exactly when it passes a + r, and
    the floor is (a + r) // c.  For c < 0 the quotient is irrational,
    so its floor is -1 - (a + r) // |c|, which is (a + r + 1) // c."""
    return (a + r) // c if c > 0 else (a + r + 1) // c


def _recover_with_transition(m: Mat2) -> tuple[tuple[int, ...], Mat2]:
    """Period of the attracting fixed point plus an exact conjugator.

    Returns (b_sequence, P) with m == P * mono_product(b_sequence) * P^-1,
    verified exactly before returning.

    The expansion is the reduction of an indefinite binary quadratic form
    (Zagier, Zetafunktionen und quadratische Körper, 1981).  Its state is
    x = (a + sqrt(D)) / c with c dividing a^2 - D; the loop carries the
    cofactor e of a^2 - D = c * e as well, so no step squares or divides a
    number of O(k) bits:

    - Start: a = p - s and c = -2r.  As det m = 1, a^2 - D =
      (p - s)^2 - (p + s)^2 + 4 = -4(ps - 1) = -4qr, so e = 2q.
    - Step: with b = ceil(x), a' = b*c - a and a'^2 - D = b^2 c^2 - 2abc
      + c*e = c * (e + b*(a' - a)), so (a, c, e) becomes
      (a', e + b*(a' - a), c).  The big-number work is a product with the
      small b and additions; only the floor in ``_floor_quad`` divides,
      and its quotient is small.

    If c divides a^2 - D, it divides (b*c - a)^2 - D, so an assertion that
    each step divides exactly would be a tautology.  The one exactness
    check is the conjugator verification at the end.
    """
    if m.det() != 1:
        raise CuspError(f"det must be 1, got {m.det()}")
    tau = m.trace()
    if tau < 3:
        raise CuspError(f"trace must be >= 3, got {tau}")
    d = tau * tau - 4
    if m.r == 0:
        raise CuspError("r = 0 is impossible for trace >= 3 in SL(2,Z)")
    # Expand x = (s - p - sqrt(D)) / (2r) = ((p - s) + sqrt(D)) / (-2r),
    # the image of the attracting fixed point under the standard
    # orientation flip, as a minus continued fraction b - 1/(b' - ...).
    a, cden, e = m.p - m.s, -2 * m.r, 2 * m.q
    r = isqrt(d)
    seen: dict[tuple[int, int], int] = {}
    emitted: list[int] = []
    while (a, cden) not in seen:
        seen[(a, cden)] = len(emitted)
        b = _floor_quad(a, cden, d, r) + 1  # ceil: x is irrational
        emitted.append(b)
        a2 = b * cden - a
        a, cden, e = a2, e + b * (a2 - a), cden
    start = seen[(a, cden)]
    period = emitted[start:]
    assert all(b >= 2 for b in period) and not all(b == 2 for b in period)
    # Repetition count: with A = M(period), det A = 1, the traces
    # tr(A^l) = tr(A) tr(A^(l-1)) - tr(A^(l-2)) grow strictly with l.
    a = mono_product(period).trace()
    prev, t, times = 2, a, 1
    while t < tau:
        prev, t = t, a * t - prev
        times += 1
    if t != tau:
        raise CuspError(f"no power of period {period} matches trace {tau}")
    # Pre-period product of N(b) = ((b,-1),(1,0)) conjugated by J = diag(1,-1)
    # transports the purely periodic fixed point to the one of m.
    w = Mat2.identity()
    for b in emitted[:start]:
        w = w * Mat2(b, -1, 1, 0)
    j = Mat2(1, 0, 0, -1)
    p_conj = j * w * j
    seq = tuple(period * times)
    if p_conj * mono_product(seq) != m * p_conj:
        raise CuspError(f"conjugator verification failed for {m}")  # pragma: no cover
    return seq, p_conj


def recover_sequence(m: Mat2) -> CuspSequence:
    """The cyclic b-sequence whose monodromy is SL(2,Z)-conjugate to m."""
    seq, _ = _recover_with_transition(m)
    return CuspSequence(seq).canonical()


def recover_with_conjugator(m: Mat2) -> tuple[CuspSequence, Mat2]:
    """Like recover_sequence but keeps the emitted rotation and the exact
    conjugator P with m = P * monodromy(seq) * P^-1."""
    seq, p = _recover_with_transition(m)
    return CuspSequence(seq), p
