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
from typing import NamedTuple

from .calculus import (
    CuspStructure,
    DltKind,
    DltModel,
    EdgeInstance,
    SelfDltError,
)
from .cusp import Vec
from .graph_core import GraphError
from .inputs import ROWS_CEILING, InputError, Record


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


class ArcComponent(Record):
    __slots__ = ("kind", "location", "multiplicities", "denominator", "winding", "homotopy")

    def __init__(
        self,
        kind: ComponentKind,
        location: tuple,
        multiplicities: tuple[int, ...],
        denominator: int | None,
        winding: WindingClass,
        homotopy: HomotopyType,
    ) -> None:
        if any(m <= 0 for m in multiplicities):
            raise ValueError("multiplicities must be strictly positive")
        if kind is ComponentKind.ORBIFOLD_POINT:
            if denominator is None or multiplicities[0] % denominator == 0:
                raise ValueError("orbifold numerator must not be divisible by m")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "location", location)
        object.__setattr__(self, "multiplicities", multiplicities)
        object.__setattr__(self, "denominator", denominator)
        object.__setattr__(self, "winding", winding)
        object.__setattr__(self, "homotopy", homotopy)

    def label(self) -> tuple:
        if self.kind is ComponentKind.ORBIFOLD_POINT:
            return (self.kind.value, *self.location, *self.multiplicities, self.denominator)
        return (self.kind.value, *self.location, *self.multiplicities)


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
    """
    if model.kind is not DltKind.MODEL:
        raise SelfDltError("quotient singularity: route to the quotient machinery")
    if bound < 1:
        raise ValueError("bound must be positive")
    rows = component_count(model, bound)
    if rows > ROWS_CEILING:
        raise InputError(
            f"the enumeration would have B*V + B*(B-1)/2*E + sum(B - B//m) = {rows} rows, "
            f"more than {ROWS_CEILING}"
        )
    frame = model.frame
    out: list[ArcComponent] = []

    def add(kind, location, multiplicities, denominator, homotopy) -> None:
        winding = _winding(frame, kind, location, multiplicities)
        out.append(ArcComponent(kind, location, multiplicities, denominator, winding, homotopy))

    g = model.residual
    points_at = Counter(pt.host for pt in model.orbifold_points)
    for vid in sorted(g.vertex_ids()):
        v = g.vertex(vid)
        branches = g.degree(vid) + points_at[vid]
        wedge = HomotopyType(HomotopyKind.CIRCLE_TIMES_WEDGE, wedge_count=2 * v.genus + branches - 1)
        for m in range(1, bound + 1):
            homotopy = wedge
            if not branches:  # a closed curve: the circle bundle of Chern number m * (-e_v)
                homotopy = HomotopyType(HomotopyKind.CIRCLE_BUNDLE, genus=v.genus, chern=m * (-v.euler))
            add(ComponentKind.CURVE_INTERIOR, (vid,), (m,), None, homotopy)
    torus = HomotopyType(HomotopyKind.TWO_TORUS)
    for inst in sorted(g.edge_instances(), key=lambda e: (e[0], e[1], str(e[2]))):
        for mu in range(1, bound):
            for mv in range(1, bound - mu + 1):
                add(ComponentKind.NODE_POINT, inst, (mu, mv), None, torus)
    circle = HomotopyType(HomotopyKind.CIRCLE)
    for pt in sorted(model.orbifold_points, key=lambda p: (p.host, p.leg)):
        for a in range(1, bound + 1):
            if a % pt.m:
                add(ComponentKind.ORBIFOLD_POINT, (pt.host, pt.leg), (a,), pt.m, circle)
    return out
