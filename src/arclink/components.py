"""Component classification on minimal dlt models.

Components of the short-arc space correspond to: interior multiplicities
on each surviving curve, pairs of branch multiplicities at each node of
the divisor (including both branches of a loop), and fractional
intersection numbers at orbifold points.  Conjugacy of arc-generators is
decided through these canonical labels; the only identification is
g_i^{m} = h^{m/alpha_i} when alpha_i divides m.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import ceil, floor, gcd

from .calculus import (
    CuspStructure,
    DltKind,
    DltModel,
    EdgeInstance,
    SelfDltError,
    minimal_dlt_model,
    minimal_log_resolution,
)
from .cusp import Vec, reduce_mod_monodromy
from .graph_core import GraphError, PlumbingGraph, graph_nodes, walk
from .hjcf import chain_exponent, hj_numerator


# -- winding classes -------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SeifertWord:
    """Power word in the fiber/leg generators of one piece."""

    piece: str
    terms: tuple[tuple[str, int], ...]

    def render(self) -> str:
        return " ".join(f"{g}^{e}" if e != 1 else g for g, e in self.terms)


@dataclass(frozen=True, slots=True)
class EdgeTorus:
    """Class gamma_u^{m_u} gamma_v^{m_v} on the torus of one edge."""

    chain: EdgeInstance
    vector: tuple[int, int]

    def render(self) -> str:
        (u, v, _), (mu, mv) = self.chain, self.vector
        return f"gamma[{u}]^{mu} gamma[{v}]^{mv}"


@dataclass(frozen=True, slots=True)
class CuspLattice:
    """Lattice vector in the canonical pi_1(T) = Z^2 basis of a cusp."""

    vector: Vec

    def render(self) -> str:
        return f"({self.vector[0]},{self.vector[1]})"


WindingClass = SeifertWord | EdgeTorus | CuspLattice


def gamma_power(vertex: str, m: int) -> SeifertWord:
    """The arc-generator gamma_v^m."""
    return SeifertWord(piece=vertex, terms=((f"gamma[{vertex}]", m),))


def edge_class(u: str, v: str, m_u: int, m_v: int, instance: int = 0) -> EdgeTorus:
    """The arc-generator gamma_u^{m_u} gamma_v^{m_v} on one edge."""
    if (v, u) < (u, v):
        u, v, m_u, m_v = v, u, m_v, m_u
    return EdgeTorus(chain=(u, v, instance), vector=(m_u, m_v))


# -- homotopy types ----------------------------------------------------------


class HomotopyKind(Enum):
    CIRCLE_TIMES_WEDGE = "circle_times_wedge"
    CIRCLE_BUNDLE = "circle_bundle_over_closed_surface"
    TWO_TORUS = "two_torus"
    CIRCLE = "circle"


@dataclass(frozen=True, slots=True)
class HomotopyType:
    kind: HomotopyKind
    wedge_count: int | None = None
    genus: int | None = None
    chern: int | None = None

    def render(self) -> str:
        if self.kind is HomotopyKind.CIRCLE_TIMES_WEDGE:
            return f"S1 x wedge({self.wedge_count} circles)"
        if self.kind is HomotopyKind.CIRCLE_BUNDLE:
            return f"S1-bundle over genus-{self.genus} surface, chern {self.chern}"
        if self.kind is HomotopyKind.TWO_TORUS:
            return "S1 x S1"
        return "S1"


# -- arc components -----------------------------------------------------------


class ComponentKind(Enum):
    CURVE_INTERIOR = "curve_interior"
    NODE_POINT = "node_point"
    ORBIFOLD_POINT = "orbifold_point"


@dataclass(frozen=True, slots=True)
class ArcComponent:
    kind: ComponentKind
    location: tuple
    multiplicities: tuple[int, ...]
    denominator: int | None
    winding: WindingClass
    homotopy: HomotopyType

    def __post_init__(self) -> None:
        if any(m <= 0 for m in self.multiplicities):
            raise ValueError("multiplicities must be strictly positive")
        if self.kind is ComponentKind.ORBIFOLD_POINT:
            if self.denominator is None or self.multiplicities[0] % self.denominator == 0:
                raise ValueError("orbifold numerator must not be divisible by m")

    def label(self) -> tuple:
        if self.kind is ComponentKind.ORBIFOLD_POINT:
            return (self.kind.value, *self.location, *self.multiplicities, self.denominator)
        return (self.kind.value, *self.location, *self.multiplicities)

    def intersection_number(self) -> Fraction | None:
        if self.kind is ComponentKind.ORBIFOLD_POINT:
            return Fraction(self.multiplicities[0], self.denominator)
        return None

    def sort_key(self) -> tuple:
        return (self.kind.value, tuple(str(x) for x in self.location), self.multiplicities)


# -- JSJ splitting --------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class JsjChain:
    """One maximal node-to-node chain, cut at ``cut_edge``."""

    node_a: str
    node_b: str
    interior: tuple[str, ...]
    terms: tuple[int, ...]
    cut_edge: EdgeInstance


@dataclass(frozen=True, slots=True)
class JsjSplit:
    pieces: tuple[PlumbingGraph, ...]
    chains: tuple[JsjChain, ...]


def _maximal_chains(g: PlumbingGraph, nodes: set[str]):
    """Traverse maximal chains of non-node vertices between terminals.

    Yields (end_a, end_b, interior, instance_path); terminals are nodes or
    chain ends (leaves), and each edge instance is consumed exactly once.
    Chains leave each node in the order of their first edge instance, and
    the copies of a parallel edge are consumed in index order, so a count
    of used copies per vertex pair names each instance.
    """
    used: dict[tuple[str, str], int] = {}

    def instance(u: str, v: str) -> EdgeInstance:
        key = (u, v) if u <= v else (v, u)
        k = used.get(key, 0)
        used[key] = k + 1
        return (key[0], key[1], k)

    for node in sorted(nodes):
        for first in sorted(g.neighbors(node) + [node]):  # node itself: its loops
            key = (node, first) if node <= first else (first, node)
            while used.get(key, 0) < g.edge_multiplicity(node, first):
                prev, interior, path = node, [], []
                for cur in walk(g, node, first):
                    path.append(instance(prev, cur))
                    if cur in nodes:
                        break
                    interior.append(cur)
                    prev = cur
                else:
                    interior.pop()  # the walk ended at a leaf
                yield node, cur, interior, path


def jsj_split(g: PlumbingGraph) -> JsjSplit:
    """One Seifert piece per node; node-to-node chains cut into arrows.

    The cut edge of every chain is the first edge out of its smaller-id
    end; both sides receive a matching arrowhead.  Tails stay attached to
    their node's piece.
    """
    if g.arrows:
        raise GraphError("jsj_split expects an uncut graph")
    mlr = minimal_log_resolution(g)
    if mlr.edges != g.edges or mlr.vertex_ids() != g.vertex_ids():
        raise GraphError("jsj_split expects a minimal log resolution")
    nodes = set(graph_nodes(g))
    if not nodes:
        raise GraphError("no nodes: route to the seifert, cusp or quotient paths")
    keep_vertices: dict[str, set[str]] = {n: {n} for n in nodes}
    keep_edges: dict[str, list[tuple[str, str]]] = {n: [] for n in nodes}
    arrows: dict[str, list[str]] = {n: [] for n in nodes}
    chains: list[JsjChain] = []
    for end_a, end_b, interior, path in _maximal_chains(g, nodes):
        if end_b not in nodes:
            # A tail: attach it all to end_a's piece.
            keep_vertices[end_a].update(interior)
            keep_vertices[end_a].add(end_b)
            for inst in path:
                keep_edges[end_a].append((inst[0], inst[1]))
            continue
        cut = path[0]
        terms = tuple(-g.vertex(v).euler for v in interior)
        chains.append(JsjChain(end_a, end_b, tuple(interior), terms, cut))
        # Side of end_a: nothing beyond the node; arrow on end_a.
        arrows[end_a].append(end_a)
        # Side of end_b: the whole interior plus an arrow at the cut point.
        keep_vertices[end_b].update(interior)
        for inst in path[1:]:
            keep_edges[end_b].append((inst[0], inst[1]))
        arrows[end_b].append(interior[0] if interior else end_b)
    pieces = []
    for n in sorted(nodes):
        vs = tuple(v for v in g.vertices if v.id in keep_vertices[n])
        pieces.append(
            PlumbingGraph(vs, tuple(keep_edges[n]), tuple(arrows[n]), name=f"{g.name}/{n}")
        )
    return JsjSplit(tuple(pieces), tuple(chains))


# -- windings ---------------------------------------------------------------


def _cusp_vector(frame: CuspStructure, location: tuple, multiplicities: tuple[int, ...]) -> Vec:
    """Lattice vector of gamma_v^m (location (v,)) or of an edge class
    (location an edge instance, multiplicities in its (u, v) order)."""
    if len(location) == 1:
        (vid,) = location
        if vid not in frame.ray:
            raise GraphError(f"curve {vid!r} is not part of the model")
        (m,) = multiplicities
        x, y = frame.fan[frame.ray[vid]]
        return (m * x, m * y)
    if location not in frame.sector:
        raise GraphError(f"edge instance {location} is not part of the model")
    i, first = frame.sector[location]
    mu, mv = multiplicities
    if location[0] != first:
        mu, mv = mv, mu
    vi, vi1 = frame.fan[i], frame.fan[i + 1]
    return (mu * vi[0] + mv * vi1[0], mu * vi[1] + mv * vi1[1])


def _winding(
    frame: CuspStructure | None, kind: ComponentKind, location: tuple, multiplicities: tuple[int, ...]
) -> WindingClass:
    """A lattice vector in a cusp frame; otherwise the fiber power, the
    edge class or the leg power of the component."""
    if frame is not None:
        return CuspLattice(_cusp_vector(frame, location, multiplicities))
    if kind is ComponentKind.CURVE_INTERIOR:
        return gamma_power(location[0], multiplicities[0])
    if kind is ComponentKind.NODE_POINT:
        return EdgeTorus(location, multiplicities)
    host, leg = location
    return SeifertWord(piece=host, terms=((_leg_generator(host, leg), multiplicities[0]),))


def _leg_generator(host: str, leg: str) -> str:
    """The name of the leg generator of the orbifold point (host, leg).
    A backslash or "/" inside an id is escaped with a backslash, so the
    name tells the point even when the ids contain "/"."""

    def esc(vid: str) -> str:
        return vid.replace("\\", "\\\\").replace("/", "\\/")

    return f"g[{esc(host)}/{esc(leg)}]"


# -- enumeration -------------------------------------------------------------


def _branch_count(g: PlumbingGraph, vid: str, model: DltModel) -> int:
    return g.degree(vid) + len(model.orbifold_points_at(vid))


def _curve_homotopy(model: DltModel, vid: str, m: int) -> HomotopyType:
    v = model.residual.vertex(vid)
    r = _branch_count(model.residual, vid, model)
    if r == 0:
        return HomotopyType(HomotopyKind.CIRCLE_BUNDLE, genus=v.genus, chern=m * (-v.euler))
    return HomotopyType(HomotopyKind.CIRCLE_TIMES_WEDGE, wedge_count=2 * v.genus + r - 1)


def enumerate_components(model: DltModel, bound: int) -> list[ArcComponent]:
    """All short-arc components with multiplicity data bounded by ``bound``.

    Curve interiors carry m <= bound, node points m_u + m_v <= bound and
    orbifold points numerators <= bound (numerators divisible by the
    orbifold order coincide with central classes and are skipped).  On
    cusp models the windings are lattice vectors read in the cusp frame.
    """
    if model.kind is not DltKind.MODEL:
        raise SelfDltError("quotient singularity: route to the quotient machinery")
    if bound < 1:
        raise ValueError("bound must be positive")
    frame = model.frame
    out: list[ArcComponent] = []

    def add(kind, location, multiplicities, denominator, homotopy) -> None:
        winding = _winding(frame, kind, location, multiplicities)
        out.append(ArcComponent(kind, location, multiplicities, denominator, winding, homotopy))

    g = model.residual
    for vid in sorted(g.vertex_ids()):
        for m in range(1, bound + 1):
            add(ComponentKind.CURVE_INTERIOR, (vid,), (m,), None, _curve_homotopy(model, vid, m))
    torus = HomotopyType(HomotopyKind.TWO_TORUS)
    for inst in g.edge_instances():
        for mu in range(1, bound):
            for mv in range(1, bound - mu + 1):
                add(ComponentKind.NODE_POINT, inst, (mu, mv), None, torus)
    circle = HomotopyType(HomotopyKind.CIRCLE)
    for pt in model.orbifold_points:
        for a in range(1, bound + 1):
            if a % pt.m:
                add(ComponentKind.ORBIFOLD_POINT, (pt.host, pt.leg), (a,), pt.m, circle)
    out.sort(key=ArcComponent.sort_key)
    return out


def winding_class(comp: ArcComponent, model: DltModel) -> WindingClass:
    """The winding class of a component of ``model``, once its location is
    checked to be part of the model."""
    if model.kind is not DltKind.MODEL:
        raise SelfDltError("quotient singularity has no dlt winding labels")
    frame = model.frame
    if frame is not None:
        # The frame's lookups check curves and edge instances.
        if comp.kind is ComponentKind.ORBIFOLD_POINT:
            raise ValueError("cusp models have no orbifold points")
    elif comp.kind is ComponentKind.CURVE_INTERIOR:
        (vid,) = comp.location
        model.residual.vertex(vid)
    elif comp.kind is ComponentKind.NODE_POINT:
        if comp.location not in model.residual.edge_instances():
            raise GraphError(f"edge instance {comp.location} is not part of the model")
    else:
        host, leg = comp.location
        if not any(pt.host == host and pt.leg == leg for pt in model.orbifold_points):
            raise GraphError(f"orbifold point {host}/{leg} is not part of the model")
    return _winding(frame, comp.kind, comp.location, comp.multiplicities)


# -- conjugacy ---------------------------------------------------------------


def _require_positive(w: WindingClass) -> None:
    # Lattice vectors may have negative coordinates (monodromy translates);
    # their validity is cone membership, checked during reduction.
    if isinstance(w, SeifertWord):
        exps = [e for _, e in w.terms]
    elif isinstance(w, EdgeTorus):
        exps = list(w.vector)
    else:
        return
    if any(e <= 0 for e in exps):
        raise ValueError(
            "m-arc-generators with nonpositive exponents are outside the label "
            "calculus; use chain_system_solvable as the falsification oracle"
        )


def _parse_gamma(term: str) -> str:
    if term.startswith("gamma[") and term.endswith("]"):
        return term[6:-1]
    raise ValueError(f"expected a raw fiber generator gamma[v], got {term!r}")


def _tail_position(model: DltModel, vid: str):
    for pt in model.orbifold_points:
        if vid in pt.tail_ids:
            return pt, pt.tail_ids.index(vid) + 1
    return None, None


def _reduce_leg_power(pt, exponent: int):
    if exponent % pt.m == 0:
        return ("curve_interior", pt.host, exponent // pt.m)
    return ("orbifold_point", pt.host, pt.leg, exponent, pt.m)


def _vertex_label(model: DltModel, vid: str, m: int):
    if model.residual.has_vertex(vid):
        return ("curve_interior", vid, m)
    pt, pos = _tail_position(model, vid)
    if pt is None:
        raise GraphError(f"vertex {vid!r} is not part of the model")
    exp = m * chain_exponent(len(pt.terms), pos, pt.terms)
    return _reduce_leg_power(pt, exp)


def _edge_label(model: DltModel, chain: EdgeInstance, mu: int, mv: int):
    u, v, idx = chain
    res = model.residual
    if res.has_vertex(u) and res.has_vertex(v):
        if chain not in res.edge_instances():
            raise GraphError(f"edge instance {chain} is not part of the model")
        return ("node_point", *chain, mu, mv)
    pt_u, pos_u = _tail_position(model, u)
    pt_v, pos_v = _tail_position(model, v)
    if pt_u is not None and pt_v is not None:
        if pt_u != pt_v or abs(pos_u - pos_v) != 1:
            raise GraphError(f"{u!r} and {v!r} are not adjacent on one tail")
        s = len(pt_u.terms)
        exp = mu * chain_exponent(s, pos_u, pt_u.terms) + mv * chain_exponent(s, pos_v, pt_u.terms)
        return _reduce_leg_power(pt_u, exp)
    # One endpoint survives, the other sits on its tail at position 1.
    if pt_u is None:
        host_id, host_m, pt, pos, tail_m = u, mu, pt_v, pos_v, mv
    else:
        host_id, host_m, pt, pos, tail_m = v, mv, pt_u, pos_u, mu
    if pt is None or pt.host != host_id or pos != 1:
        raise GraphError(f"({u}, {v}) is not an edge of the source graph")
    s = len(pt.terms)
    exp = host_m * pt.m + tail_m * chain_exponent(s, 1, pt.terms)
    return _reduce_leg_power(pt, exp)


def _cusp_label(frame: CuspStructure, w: WindingClass):
    if isinstance(w, CuspLattice):
        vec = w.vector
    elif isinstance(w, SeifertWord):
        if len(w.terms) != 1:
            raise ValueError("expected a single fiber power for a cusp graph")
        gen, m = w.terms[0]
        vec = _cusp_vector(frame, (_parse_gamma(gen),), (m,))
    else:
        vec = _cusp_vector(frame, w.chain, w.vector)
    rep, _ = reduce_mod_monodromy(vec, frame.sequence)
    return ("cusp_lattice", rep)


def canonical_label(w: WindingClass, model: DltModel) -> tuple:
    """Reduce an arc-generator to its component label on the dlt model."""
    _require_positive(w)
    if model.kind is not DltKind.MODEL:
        raise SelfDltError(
            "finite fundamental group: conjugacy goes through the quotient machinery"
        )
    if model.frame is not None:
        return _cusp_label(model.frame, w)
    if isinstance(w, CuspLattice):
        raise ValueError("lattice classes only make sense on cusp graphs")
    if isinstance(w, SeifertWord):
        if len(w.terms) != 1:
            raise ValueError("arc-generators are single fiber powers")
        gen, m = w.terms[0]
        if gen.startswith("g[") and gen.endswith("]"):
            for pt in model.orbifold_points:
                if gen == _leg_generator(pt.host, pt.leg):
                    return _reduce_leg_power(pt, m)
            raise GraphError(f"no orbifold point for generator {gen!r}")
        return _vertex_label(model, _parse_gamma(gen), m)
    return _edge_label(model, w.chain, *w.vector)


def are_conjugate(w1: WindingClass, w2: WindingClass, g: PlumbingGraph) -> bool:
    """Whether two arc-generators on g label the same arc component.

    g must be a minimal log resolution with infinite fundamental group;
    conjugacy reduces to equality of canonical component labels.
    """
    model = minimal_dlt_model(g)
    if model.source.vertex_ids() != g.vertex_ids():
        raise GraphError("are_conjugate expects a minimal log resolution")
    return canonical_label(w1, model) == canonical_label(w2, model)


# -- the chain conjugacy system ---------------------------------------------


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
