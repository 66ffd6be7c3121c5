"""Component classification on minimal dlt models.

Components of the short-arc space correspond to: interior multiplicities
on each surviving curve, pairs of branch multiplicities at each node of
the divisor (including both branches of a loop), and fractional
intersection numbers at orbifold points.  ``enumerate_components`` emits
one row per component up to a bound; ``ArcComponent.label()`` is its
label, and its winding class names the arc-generator of the component
(a fiber power, an edge class, a leg power, or a lattice vector in the
cusp frame).
"""
from __future__ import annotations

from collections import Counter
from enum import Enum
from itertools import repeat
from typing import NamedTuple

from .calculus import DltKind, DltModel, SelfDltError, SingKind
from .cusp import CuspSequence, Vec, v_sequence
from .graph_core import GraphError, PlumbingGraph, Shape, connected_shape
from .inputs import ROWS_CEILING, InputError

EdgeInstance = tuple[str, str, int]


# -- winding classes -------------------------------------------------------


class SeifertWord(NamedTuple):
    """Power word in the fiber/leg generators of one piece."""

    piece: str
    terms: tuple[tuple[str, int], ...]

    def render(self) -> str:
        return " ".join(f"{g}^{e}" if e != 1 else g for g, e in self.terms)


class EdgeTorus(NamedTuple):
    """Class gamma_u^{m_u} gamma_v^{m_v} on the torus of one edge."""

    chain: EdgeInstance
    vector: tuple[int, int]


class CuspLattice(NamedTuple):
    """Lattice vector in the canonical pi_1(T) = Z^2 basis of a cusp."""

    vector: Vec


WindingClass = SeifertWord | EdgeTorus | CuspLattice


def gamma_power(vertex: str, m: int) -> SeifertWord:
    """The arc-generator gamma_v^m."""
    return SeifertWord(piece=vertex, terms=((f"gamma[{vertex}]", m),))


# -- homotopy types ----------------------------------------------------------


class HomotopyKind(Enum):
    CIRCLE_TIMES_WEDGE = "circle_times_wedge"
    CIRCLE_BUNDLE = "circle_bundle_over_closed_surface"
    TWO_TORUS = "two_torus"
    CIRCLE = "circle"


class HomotopyType(NamedTuple):
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


class _ArcComponentFields(NamedTuple):
    kind: ComponentKind
    location: tuple
    multiplicities: tuple[int, ...]
    denominator: int | None
    winding: WindingClass
    homotopy: HomotopyType


class ArcComponent(_ArcComponentFields):
    """One component: a tuple record whose constructor refuses a
    nonpositive multiplicity, and an orbifold point without an order or
    with a numerator divisible by it."""

    __slots__ = ()

    def __new__(
        cls,
        kind: ComponentKind,
        location: tuple,
        multiplicities: tuple[int, ...],
        denominator: int | None,
        winding: WindingClass,
        homotopy: HomotopyType,
    ) -> "ArcComponent":
        if min(multiplicities, default=1) <= 0:
            raise ValueError("multiplicities must be strictly positive")
        if kind is ComponentKind.ORBIFOLD_POINT:
            if denominator is None or multiplicities[0] % denominator == 0:
                raise ValueError("orbifold numerator must not be divisible by m")
        return tuple.__new__(cls, (kind, location, multiplicities, denominator, winding, homotopy))

    def label(self) -> tuple:
        if self.kind is ComponentKind.ORBIFOLD_POINT:
            return (self.kind.value, *self.location, *self.multiplicities, self.denominator)
        return (self.kind.value, *self.location, *self.multiplicities)


def _leg_generator(host: str, leg: str) -> str:
    """The name of the leg generator of the orbifold point (host, leg).
    A backslash or "/" inside an id is escaped with a backslash, so the
    name tells the point even when the ids contain "/"."""

    def esc(vid: str) -> str:
        return vid.replace("\\", "\\\\").replace("/", "\\/")

    return f"g[{esc(host)}/{esc(leg)}]"


# -- enumeration -------------------------------------------------------------


def component_count(model: DltModel, bound: int) -> int:
    """The number of rows ``enumerate_components(model, bound)`` returns:
    B per residual curve, B(B-1)/2 per residual edge instance and
    B - floor(B/m) per orbifold point of order m, for B = bound."""
    g = model.residual
    return (
        bound * len(g.vertices)
        + bound * (bound - 1) // 2 * len(g.edges)
        + sum(bound - bound // pt.m for pt in model.orbifold_points)
    )


def checked_component_count(model: DltModel, bound: int) -> int:
    """``component_count(model, bound)``, refused with an InputError that
    names it when it passes ``inputs.ROWS_CEILING``."""
    rows = component_count(model, bound)
    if rows > ROWS_CEILING:
        raise InputError(
            f"the enumeration would have B*V + B*(B-1)/2*E + sum(B - B//m) = {rows} rows, "
            f"more than {ROWS_CEILING}"
        )
    return rows


def enumerate_components(model: DltModel, bound: int) -> list[ArcComponent]:
    """All short-arc components with multiplicity data bounded by ``bound``.

    Curve interiors carry m <= bound, node points m_u + m_v <= bound and
    orbifold points numerators <= bound (numerators divisible by the
    orbifold order coincide with central classes and are skipped).  On
    cusp models the windings are lattice vectors read in the cusp frame.
    More rows than ``inputs.ROWS_CEILING`` are refused before any is built.

    The rows come in their final order: curve interiors by vertex id, then
    node points by edge instance (u, v, str(copy index)), then orbifold
    points by (host, leg); within each location the multiplicities rise
    lexicographically.  Copy indices compare as strings (1, 10, 11, 2, ...)
    because the JSON locations are strings.

    Each location's parts are made once: its location tuple, its homotopy
    type (but a closed curve's, whose Chern number grows with m), an
    orbifold point's leg generator, and in a cusp frame its ray or its two
    sector vectors.  A lattice winding is its predecessor's plus the ray, or plus
    the sector's second vector, so a row costs one addition per coordinate.
    The cusp frame is built here, once per call (see ``_cusp_frame``), and
    a cusp model with an orbifold point is refused before any row is built.
    """
    if model.kind is not DltKind.MODEL:
        raise SelfDltError("quotient singularity: route to the quotient machinery")
    if bound < 1:
        raise ValueError("bound must be positive")
    checked_component_count(model, bound)
    g = model.residual
    cusp = model.sing_class.kind is SingKind.CUSP
    if cusp and model.orbifold_points:
        raise GraphError("an orbifold point has no winding in the frame of a cusp model")
    rays, sectors = _cusp_frame(g) if cusp else ({}, {})
    singles = [(m,) for m in range(1, bound + 1)]
    out: list[ArcComponent] = []
    append = out.append

    points_at = Counter(pt.host for pt in model.orbifold_points)
    curve = ComponentKind.CURVE_INTERIOR
    for vid in sorted(g.vertex_ids()):
        v = g.vertex(vid)
        location = (vid,)
        if cusp:
            windings = _lattice_run((0, 0), rays[vid], bound)
        else:
            windings = [gamma_power(vid, m) for m in range(1, bound + 1)]
        branches = g.degree(vid) + points_at[vid]
        if branches:
            wedge = HomotopyType(HomotopyKind.CIRCLE_TIMES_WEDGE, wedge_count=2 * v.genus + branches - 1)
            homotopies = repeat(wedge)
        else:  # a closed curve: the circle bundle of Chern number m * (-e_v)
            homotopies = [
                HomotopyType(HomotopyKind.CIRCLE_BUNDLE, genus=v.genus, chern=m * (-v.euler))
                for m in range(1, bound + 1)
            ]
        for mults, winding, homotopy in zip(singles, windings, homotopies):
            append(ArcComponent(curve, location, mults, None, winding, homotopy))

    node = ComponentKind.NODE_POINT
    torus = HomotopyType(HomotopyKind.TWO_TORUS)
    pairs = [[(mu, mv) for mv in range(1, bound - mu + 1)] for mu in range(1, bound)]
    for inst in sorted(g.edge_instances(), key=lambda e: (e[0], e[1], str(e[2]))):
        if cusp:
            a, b = sectors[inst]
            x = y = 0  # m_u * a
        for run in pairs:
            if cusp:
                x, y = x + a[0], y + a[1]
                windings = _lattice_run((x, y), b, len(run))
            else:
                windings = [EdgeTorus(inst, mults) for mults in run]
            for mults, winding in zip(run, windings):
                append(ArcComponent(node, inst, mults, None, winding, torus))

    orbifold = ComponentKind.ORBIFOLD_POINT
    circle = HomotopyType(HomotopyKind.CIRCLE)
    for pt in sorted(model.orbifold_points, key=lambda p: (p.host, p.leg)):
        location = (pt.host, pt.leg)
        generator = _leg_generator(pt.host, pt.leg)
        for mults in singles:
            if mults[0] % pt.m:
                winding = SeifertWord(piece=pt.host, terms=((generator, mults[0]),))
                append(ArcComponent(orbifold, location, mults, pt.m, winding, circle))
    return out


def _cusp_frame(g: PlumbingGraph) -> tuple[dict[str, Vec], dict[EdgeInstance, tuple[Vec, Vec]]]:
    """The cusp frame of a cycle: each curve's ray and each edge instance's
    sector, from one walk of the cycle and one fan v_0..v_k.

    Curve order[t] carries the ray v_{t+1} (indices mod k), and the edge
    instance of step t spans the sector v_{t+1}, v_{t+2}, whose two vectors
    come in the instance's (u, v) order.  Any graph but one cycle is refused.
    """
    shape = connected_shape(g)
    order = shape.order
    k = len(order)
    # two disjoint cycles read as one cycle, whose walk comes round again
    if shape.kind is not Shape.CYCLE or len(set(order)) != k:
        raise GraphError(f"the residual {g.name!r} of a cusp model is not one cycle")
    fan = v_sequence(CuspSequence(tuple(-g.vertex(v).euler for v in order)), 0, k)
    ray: dict[str, Vec] = {}
    sector: dict[EdgeInstance, tuple[Vec, Vec]] = {}
    counts: dict[tuple[str, str], int] = {}
    for t, u in enumerate(order):
        i = (t + 1) % k
        v = order[i]
        key = (u, v) if u <= v else (v, u)
        idx = counts.get(key, 0)
        counts[key] = idx + 1
        ray[u] = fan[i]
        sector[(*key, idx)] = (fan[i], fan[i + 1]) if key[0] == u else (fan[i + 1], fan[i])
    return ray, sector


def _lattice_run(start: Vec, step: Vec, n: int) -> list[CuspLattice]:
    """The n windings start + step, start + 2*step, ...: one addition per
    coordinate each, where the closed form m*v_i or m_u*v_i + m_v*v_{i+1}
    takes two products and a sum."""
    x, y = start
    dx, dy = step
    out = []
    for _ in range(n):
        x += dx
        y += dy
        out.append(CuspLattice((x, y)))
    return out
