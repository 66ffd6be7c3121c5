"""Plumbing calculus: minimal log resolution, tail contraction, dlt models.

The rewriting steps follow the usual surface rules: a genus-0 vertex with
Euler number -1 meeting the rest of the configuration in at most two
points gets blown down, its neighbors gaining +1 per incidence (and a
loop when both incidences hit the same neighbor).  Tails of rational
chains are then contracted into orbifold points (m, omega) read off the
chain via minus continued fractions.
"""
from __future__ import annotations

import heapq
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from .cusp import CuspSequence
from .graph_core import (
    GraphError,
    PlumbingGraph,
    Shape,
    Vertex,
    connected_shape,
    is_negative_definite_graph,
    walk,
)
from .hjcf import hj_pair, mono_product
from .inputs import InputError, Record


class SelfDltError(InputError):
    """Operation needs a genuine dlt model, not a quotient singularity."""


class SingKind(Enum):
    CYCLIC_QUOTIENT = "cyclic_quotient"
    NONCYCLIC_QUOTIENT = "noncyclic_quotient"
    CUSP = "cusp"
    GENERAL = "general"


class SingClass(NamedTuple):
    kind: SingKind
    m: int | None = None
    q: int | None = None
    alphas: tuple[int, int, int] | None = None
    b_sequence: tuple[int, ...] | None = None

    def is_quotient(self) -> bool:
        return self.kind in (SingKind.CYCLIC_QUOTIENT, SingKind.NONCYCLIC_QUOTIENT)

    def describe(self) -> str:
        if self.kind is SingKind.CYCLIC_QUOTIENT:
            if self.m == 1:
                return "smooth"
            return f"cyclic quotient 1/{self.m}({self.q},1)"
        if self.kind is SingKind.NONCYCLIC_QUOTIENT:
            return "noncyclic quotient ({},{},{})".format(*self.alphas)
        if self.kind is SingKind.CUSP:
            return "cusp " + ",".join(str(b) for b in self.b_sequence)
        return "general"


class DltKind(Enum):
    SELF_DLT = "self_dlt"
    MODEL = "model"


class OrbifoldPoint(Record):
    """Cyclic quotient point of order m on a surviving curve.

    ``tail_ids`` lists the contracted tail read from the surviving curve
    outward, matching ``terms``; ``leg`` is the tail vertex that met the
    survivor.
    """

    __slots__ = ("host", "m", "omega", "leg", "terms", "tail_ids")

    def __init__(
        self, host: str, m: int, omega: int, leg: str, terms: tuple[int, ...], tail_ids: tuple[str, ...]
    ) -> None:
        if not (0 < omega < m) or gcd(m, omega) != 1:
            raise ValueError(f"invalid orbifold data ({m}, {omega})")
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "leg", leg)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "tail_ids", tail_ids)


class DltModel(NamedTuple):
    """``source`` is the minimal log resolution the model was built from."""

    kind: DltKind
    residual: PlumbingGraph
    orbifold_points: tuple[OrbifoldPoint, ...]
    sing_class: SingClass
    source: PlumbingGraph


# -- minimal log resolution ---------------------------------------------


def _check_definite(g: PlumbingGraph) -> None:
    """The precondition of every stage below: connected, negative definite."""
    if not g.is_connected():
        raise GraphError("graph must be connected")
    if not is_negative_definite_graph(g, connected=True):
        raise GraphError("graph is not negative definite")


def minimal_log_resolution(g: PlumbingGraph) -> PlumbingGraph:
    """Blow down -1 curves until none with <= 2 intersection points remain."""
    _check_definite(g)
    return _resolve(g)


def _resolve(g: PlumbingGraph) -> PlumbingGraph:
    """minimal_log_resolution on a graph already known to be connected and
    negative definite.  A blow-down splits the lattice as L = L' + <-1>,
    so every intermediate graph stays negative definite.

    The smallest contractible id goes first.  Every -1 curve is a first
    candidate, and a graph with none comes back as it is, with nothing
    copied.  Only the ends of a blown-down vertex change, so they are the
    only new candidates for the heap.  Each blow-down updates one working
    copy (euler numbers, neighbor multiplicities, loop counts), and one
    graph is built at the end, unless nothing was blown down.
    """
    heap = [v.id for v in g.vertices if v.euler == -1]
    if not heap:
        return g
    heapq.heapify(heap)
    euler = {v.id: v.euler for v in g.vertices}
    rational = {v.id for v in g.vertices if v.genus == 0}
    mult = {vid: g.multiplicities(vid) for vid in euler}
    loops = {vid: g.loops_at(vid) for vid in euler}

    def contractible(vid: str) -> bool:
        return (
            euler[vid] == -1 and vid in rational and not loops[vid] and sum(mult[vid].values()) <= 2
        )

    while heap:
        vid = heapq.heappop(heap)
        if vid not in euler or not contractible(vid):
            continue
        del euler[vid], loops[vid]
        nbrs = mult.pop(vid)
        ends = [w for w, m in nbrs.items() for _ in range(m)]
        for w, m in nbrs.items():
            euler[w] += m
            del mult[w][vid]
        if len(ends) == 2:
            u, w = ends
            if u == w:
                loops[u] += 1
            else:
                mult[u][w] = mult[u].get(w, 0) + 1
                mult[w][u] = mult[w].get(u, 0) + 1
        for u in nbrs:
            if contractible(u):
                heapq.heappush(heap, u)
    if len(euler) == len(g.vertices):
        return g
    vs = tuple(
        v if v.euler == euler[v.id] else Vertex(v.id, euler[v.id], v.genus)
        for v in g.vertices
        if v.id in euler
    )
    es = [(u, w) for u, inc in mult.items() for w, m in inc.items() if u < w for _ in range(m)]
    es += [(u, u) for u, n in loops.items() for _ in range(n)]
    return PlumbingGraph(vs, tuple(es), g.name)


# -- minimal dlt model and singularity class ------------------------------


def singularity_class(g: PlumbingGraph) -> SingClass:
    """The class of a connected negative-definite graph: the class of its
    minimal dlt model (see ``minimal_dlt_model``)."""
    return minimal_dlt_model(g).sing_class


@lru_cache(maxsize=16)
def _empty_graph(name: str) -> PlumbingGraph:
    """The residual of a SelfDlt model.  A graph is immutable, so the
    models of one name share one."""
    return PlumbingGraph((), (), name)


def minimal_dlt_model(g: PlumbingGraph) -> DltModel:
    """The minimal dlt model of a connected negative-definite graph and its
    class: check it once, resolve it once, then dispatch on the shape of
    the resolution.

    A chain is a cyclic quotient and a genus-0 cycle a cusp, whose model is
    the cycle itself.  Every other graph has its maximal rational chain
    tails contracted into orbifold points.  A star's legs are its tails,
    each read from the centre outward, so the point's m is the leg's
    Seifert alpha: a genus-0 star with three legs and 1/a1 + 1/a2 + 1/a3 > 1
    is a finite noncyclic quotient, and everything else has infinite,
    non-cusp fundamental group.  Quotient singularities are their own
    minimal dlt modification and come back as SelfDlt with an empty
    residual graph.
    """
    _check_definite(g)
    g = _resolve(g)
    shape = connected_shape(g)
    if shape.kind is Shape.CHAIN:
        # One product of ((b, 1), (-1, 0)) along the chain: p = [b_1..b_k],
        # q = [b_1..b_{k-1}] and -r = [b_2..b_k], the second numerators of
        # the chain read from either end.  The empty chain gives m = 1, q = 0.
        mono = mono_product(-g.vertex(v).euler for v in shape.order)
        cls = SingClass(SingKind.CYCLIC_QUOTIENT, m=mono.p, q=min(mono.q, -mono.r))
        return DltModel(DltKind.SELF_DLT, _empty_graph(g.name), (), cls, g)
    if shape.kind is Shape.CYCLE:
        bs = [-g.vertex(v).euler for v in shape.order]
        # least rotation of either direction; the definiteness gate makes bs a cusp sequence
        b_sequence = min(CuspSequence(bs).canonical().b, CuspSequence(bs[::-1]).canonical().b)
        return DltModel(DltKind.MODEL, g, (), SingClass(SingKind.CUSP, b_sequence=b_sequence), g)
    # A tail is the walk from a non-node vertex of degree 1 up to the
    # first node, its host.  Before that node each vertex on the walk has
    # genus 0, one edge back and at most one edge on (valency <= 2, and a
    # double edge or a loop would raise it to 3), so it is a rational chain
    # vertex meeting the rest at one point.  Chains and cycles are routed
    # away above, so the graph has a node, and a walk cannot end before
    # one: it would then be a connected path, the whole graph.
    star = shape.kind is Shape.STAR
    nodes = {shape.center} if star else set(shape.nodes)
    points = []
    removed: set[str] = set()
    for v in g.vertices:
        if v.id in nodes or g.degree(v.id) != 1:
            continue
        tail = []
        for host in walk(g, None, v.id):
            if host in nodes:
                break
            tail.append(host)
        outward = tail[::-1]  # host-adjacent first, free end last
        terms = tuple(-g.vertex(w).euler for w in outward)
        m, omega = hj_pair(terms)
        points.append(OrbifoldPoint(host, m, omega, leg=outward[0], terms=terms, tail_ids=tuple(outward)))
        removed.update(tail)
    if star and g.vertex(shape.center).genus == 0 and len(points) == 3:
        alphas = sorted(p.m for p in points)
        if sum(Fraction(1, a) for a in alphas) > 1:
            cls = SingClass(SingKind.NONCYCLIC_QUOTIENT, alphas=tuple(alphas))
            return DltModel(DltKind.SELF_DLT, _empty_graph(g.name), (), cls, g)
    residual = g.restricted_to(set(g.vertex_ids()) - removed)
    points.sort(key=lambda p: (p.host, p.leg))
    return DltModel(DltKind.MODEL, residual, tuple(points), SingClass(SingKind.GENERAL), g)

