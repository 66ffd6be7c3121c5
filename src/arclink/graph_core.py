"""Plumbing graphs: data model, text format, intersection matrix, shapes.

A plumbing graph is a weighted multigraph: each vertex carries an Euler
number e_v and a genus g_v; loops and parallel edges are allowed.  Every
graph is closed: the plumbing describes the whole link, never a cut-open
piece of it.

Vertex ids are free-form tokens so that calculus steps can delete
vertices without renumbering.
"""
from __future__ import annotations

import heapq
from enum import Enum
from itertools import islice
from math import gcd
from typing import Iterator, NamedTuple, Sequence

from .inputs import InputError, Record, numbered_lines


class GraphError(InputError):
    """Malformed graph text or violated structural invariant."""


class Vertex(Record):
    __slots__ = ("id", "euler", "genus")

    def __init__(self, id: str, euler: int, genus: int = 0) -> None:
        if genus < 0:
            raise GraphError(f"vertex {id}: genus must be nonnegative")
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "euler", euler)
        object.__setattr__(self, "genus", genus)


class _Incidence:
    """One vertex's entry in the adjacency index of a PlumbingGraph.

    ``ends`` is the vertex's degree, its number of edge-ends (a loop
    counts twice), kept up to date as the graph's constructor adds edges,
    so the walks and the chain-vertex test read it instead of summing
    ``mult``."""

    __slots__ = ("mult", "loops", "ends")

    def __init__(self) -> None:
        self.mult: dict[str, int] = {}  # neighbor -> edge count, loops excluded
        self.loops = 0
        self.ends = 0


_NO_INCIDENCE = _Incidence()


class PlumbingGraph(Record):
    """Immutable weighted multigraph.

    Next to the id lookup it keeps an adjacency index, so the local
    queries (degree, neighbors, loops, multiplicities) cost O(degree)
    rather than a scan of every edge.  Equality, hash and repr leave the
    two indexes out.
    """

    __slots__ = ("vertices", "edges", "name", "_by_id", "_adj")
    _fields = ("vertices", "edges", "name")

    def __init__(
        self, vertices: tuple[Vertex, ...], edges: tuple[tuple[str, str], ...] = (), name: str = "graph"
    ) -> None:
        by_id = {}
        for v in vertices:
            if v.id in by_id:
                raise GraphError(f"duplicate vertex id {v.id!r}")
            by_id[v.id] = v
        adj = {vid: _Incidence() for vid in by_id}
        for u, v in edges:
            if u not in adj or v not in adj:
                end = u if u not in adj else v
                raise GraphError(f"edge ({u}, {v}) references unknown vertex {end!r}")
            iu, iv = adj[u], adj[v]
            iu.ends += 1
            iv.ends += 1
            if u == v:
                iu.loops += 1
            else:
                iu.mult[v] = iu.mult.get(v, 0) + 1
                iv.mult[u] = iv.mult.get(u, 0) + 1
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", tuple(sorted([(u, v) if u <= v else (v, u) for u, v in edges])))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_adj", adj)

    # -- basic queries -------------------------------------------------

    def vertex(self, vid: str) -> Vertex:
        try:
            return self._by_id[vid]
        except KeyError:
            raise GraphError(f"no vertex {vid!r}") from None

    def vertex_ids(self) -> tuple[str, ...]:
        return tuple(v.id for v in self.vertices)

    def loops_at(self, vid: str) -> int:
        return self._adj.get(vid, _NO_INCIDENCE).loops

    def degree(self, vid: str) -> int:
        """Number of incident edge-ends; a loop counts twice."""
        return self._adj.get(vid, _NO_INCIDENCE).ends

    def neighbors(self, vid: str) -> list[str]:
        """Distinct neighbors, loops excluded, sorted."""
        return sorted(self._adj.get(vid, _NO_INCIDENCE).mult)

    def multiplicities(self, vid: str) -> dict[str, int]:
        """Neighbor -> number of edges to it, loops excluded, as a new dict."""
        return dict(self._adj.get(vid, _NO_INCIDENCE).mult)

    def edge_instances(self) -> list[tuple[str, str, int]]:
        """Edges with a copy index distinguishing parallel edges."""
        seen: dict[tuple[str, str], int] = {}
        out = []
        for e in self.edges:
            k = seen.get(e, 0)
            out.append((e[0], e[1], k))
            seen[e] = k + 1
        return out

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        stack = [self.vertices[0].id]
        seen = {stack[0]}
        while stack:
            for w in self._adj[stack.pop()].mult:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)

    # -- rewriting helpers (return new graphs) -------------------------

    def restricted_to(self, keep: set[str]) -> "PlumbingGraph":
        vs = tuple(v for v in self.vertices if v.id in keep)
        es = tuple(e for e in self.edges if e[0] in keep and e[1] in keep)
        return PlumbingGraph(vs, es, self.name)


# -- text format -------------------------------------------------------


def parse_plumbing(text: str) -> PlumbingGraph:
    """Parse the line-oriented graph format.

    Directives: ``graph <name>``, ``vertex <id> euler=<int> genus=<uint>``,
    ``edge <id> <id>``.  '#' starts a comment; repeated edge lines create
    parallel edges and ``edge a a`` creates a loop.  Any other directive is
    an error that names its line.
    """
    name = "graph"
    vertices: list[Vertex] = []
    ids = set()
    edges: list[tuple[str, str]] = []
    for lineno, line in numbered_lines(text):
        tokens = line.split()
        kind = tokens[0]

        def fail(msg: str) -> GraphError:
            return GraphError(f"line {lineno}: {msg}")

        if kind == "graph":
            if len(tokens) != 2:
                raise fail("expected 'graph <name>'")
            name = tokens[1]
        elif kind == "vertex":
            if len(tokens) != 4:
                raise fail("expected 'vertex <id> euler=<int> genus=<uint>'")
            vid = tokens[1]
            if vid in ids:
                raise fail(f"duplicate vertex id {vid!r}")
            props = {}
            for tok in tokens[2:]:
                if "=" not in tok:
                    raise fail(f"expected key=value, got {tok!r}")
                key, _, val = tok.partition("=")
                try:
                    props[key] = int(val)
                except ValueError:
                    raise fail(f"non-integer value in {tok!r}") from None
            if set(props) != {"euler", "genus"}:
                raise fail("vertex needs exactly euler=<int> and genus=<uint>")
            if props["genus"] < 0:
                raise fail("genus must be nonnegative")
            vertices.append(Vertex(vid, props["euler"], props["genus"]))
            ids.add(vid)
        elif kind == "edge":
            if len(tokens) != 3:
                raise fail("expected 'edge <id> <id>'")
            for end in tokens[1:]:
                if end not in ids:
                    raise fail(f"edge endpoint {end!r} is not a declared vertex")
            edges.append((tokens[1], tokens[2]))
        else:
            raise fail(f"unknown directive {kind!r}")
    return PlumbingGraph(tuple(vertices), tuple(edges), name)


# -- intersection matrix and definiteness ------------------------------


def intersection_matrix(g: PlumbingGraph) -> list[list[int]]:
    """A_vv = e_v + 2*(#loops at v); A_uv = #edges between u and v.

    Rows follow the graph's vertex order.
    """
    ids = g.vertex_ids()
    index = {vid: i for i, vid in enumerate(ids)}
    n = len(ids)
    mat = [[0] * n for _ in range(n)]
    for v in g.vertices:
        mat[index[v.id]][index[v.id]] = v.euler
    for u, v in g.edges:
        if u == v:
            mat[index[u]][index[u]] += 2
        else:
            mat[index[u]][index[v]] += 1
            mat[index[v]][index[u]] += 1
    return mat


def is_negative_definite(mat: Sequence[Sequence[int]]) -> bool:
    """Exact negative-definiteness test of a symmetric integer matrix A.

    Method: a sparse LDL^T factorisation of B = -A in exact rationals,
    eliminating vertices in minimum-degree order (a heap with lazy
    deletion), which stops with False at the first pivot <= 0.

    Why the order may be chosen freely: for a permutation matrix P the
    matrix P B P^T is congruent to B, so both have the same inertia.  The
    first k pivots of P B P^T multiply to its k-th leading principal
    minor, so by Sylvester's criterion P B P^T -- and hence B -- is
    positive definite iff every pivot is positive.  A pivot <= 0 at step
    k is a principal minor of B that is <= 0, so B is not definite.  On
    trees with a few cycles minimum degree eliminates leaves and chain
    vertices first and creates almost no fill.
    """
    n = len(mat)
    for row in mat:
        if len(row) != n:
            raise ValueError("matrix must be square")
    for i in range(n):
        for j in range(n):
            if mat[i][j] != mat[j][i]:
                raise ValueError("matrix must be symmetric")
    diag = [(-mat[i][i], 1) for i in range(n)]
    rows = [{j: (-x, 1) for j, x in enumerate(mat[i]) if x and j != i} for i in range(n)]
    return _positive_definite_ldl(diag, rows)


def is_negative_definite_graph(g: PlumbingGraph, *, connected: bool | None = None) -> bool:
    """``is_negative_definite(intersection_matrix(g))`` without the n x n
    matrix: a diagonal-dominance certificate first, and otherwise every run
    of chain vertices compressed.  ``connected`` is the caller's known
    value of ``g.is_connected()``; None scans for it when needed.

    Certificate.  Row v of B = -A has diagonal B_vv = -(e_v + 2*loops(v))
    and off-diagonal entries -#edges(v, u), whose absolute values sum to
    ends(v) - 2*loops(v), the count of v's non-loop edge-ends.  If
      1. every row has B_vv >= ends(v) - 2*loops(v), that is -e_v >= ends(v),
      2. some row meets this strictly, and
      3. the graph is connected (B is irreducible),
    then B is irreducibly diagonally dominant, hence nonsingular (Taussky,
    *A recurring theorem on determinants*, 1949).  Its diagonal is
    positive (each row of a connected graph on two or more vertices has a
    non-loop end, and a lone vertex is the strict row), so by Gershgorin
    every eigenvalue of the symmetric B is >= 0, and none is 0: B is
    positive definite.  The test is one scan of plain ints.  It covers
    chains and nodeless cycles with every b_i >= 2 and some b_i >= 3, but
    not a -1 curve between two others, a Laplacian (dominant with no
    strict row) or a disconnected graph; those go on to the compression.

    Compression.  A chain vertex has no loop and two distinct neighbours,
    each joined by one edge; every other vertex is a node.  Let a maximal
    run v_1..v_k of chain vertices (diagonal b_1..b_k of B) join the nodes
    u (next to v_1) and w (next to v_k).

    Lemma.  Write P_i for the continuant P_i = b_i P_{i-1} - P_{i-2}
    (P_0 = 1, P_{-1} = 0) and C for the run's tridiagonal block.  Its
    leading minors are P_1..P_k, so C is positive definite iff every P_i
    is positive (Sylvester).  Then C^{-1} has (1,1) entry
    cont(b_2..b_k)/P_k, (k,k) entry P_{k-1}/P_k and (1,k) entry 1/P_k, so
    the Schur complement onto the nodes takes cont(b_2..b_k)/P_k from B_uu,
    P_{k-1}/P_k from B_ww and 1/P_k from B_uw; when u = w, B_uu loses the
    sum of the three with 1/P_k counted twice.  Inertia is additive over a
    Schur complement (Haynsworth 1968), and the runs are disjoint blocks
    joined only through nodes, so B is positive definite iff every run is
    and the compressed node matrix is.  A cycle with no node makes one of
    its vertices a node.

    The continuants come from the int recurrence of the product of the
    matrices ((b_i, -1), (1, 0)), which is ((P_k, -P_{k-1}),
    (cont(b_2..b_k), -cont(b_2..b_{k-1}))); its determinant 1 makes each
    quotient reduced, so the walk along a run takes no gcd.  The node
    matrix goes to the minimum-degree LDL of ``is_negative_definite``.
    Chains of rational curves and their continued fractions: Neumann,
    *A calculus for plumbing* (1981).
    """
    if _diagonally_dominant(g) and (g.is_connected() if connected is None else connected):
        return True
    adj, by_id = g._adj, g._by_id
    # two edge-ends at two distinct neighbours: no loop and one edge to each
    chain = {vid for vid, inc in adj.items() if inc.ends == 2 and len(inc.mult) == 2}
    index: dict[str, int] = {}  # node -> row of the compressed matrix
    diag: list[tuple[int, int]] = []
    rows: list[dict[int, tuple[int, int]]] = []
    seen: set[str] = set()  # chain vertices already in a compressed run

    def add_node(vid: str) -> None:
        index[vid] = len(diag)
        diag.append((-(by_id[vid].euler + 2 * adj[vid].loops), 1))
        rows.append({})

    def compress(u: str, first: str) -> bool:
        """Fold the run that leaves node u through ``first`` into the node
        matrix; False if the run's block is not positive definite."""
        p, q, r, s = 1, 0, 0, 1
        for x in walk(g, u, first):
            if x in index:
                break
            seen.add(x)
            b = -by_id[x].euler
            p, q, r, s = p * b + q, -p, r * b + s, -r
            if p <= 0:
                return False
        i, j = index[u], index[x]
        if i == j:
            n = r - q + 2
            h = gcd(n, p)
            diag[i] = _sub_mul(*diag[i], n // h, p // h, 1, 1)
        else:
            diag[i] = _sub_mul(*diag[i], r, p, 1, 1)
            diag[j] = _sub_mul(*diag[j], -q, p, 1, 1)
            rows[i][j] = rows[j][i] = _sub_mul(*rows[i].get(j, (0, 1)), 1, p, 1, 1)
        return True

    for v in g.vertices:
        if v.id not in chain:
            add_node(v.id)
    for u, i in index.items():
        for w, m in adj[u].mult.items():
            if w in index:
                rows[i][index[w]] = (-m, 1)
    for u in index:
        for first in adj[u].mult:
            if first in chain and first not in seen and not compress(u, first):
                return False
    for v in g.vertices:  # what is left are cycles with no node
        if v.id in chain and v.id not in seen:
            add_node(v.id)
            if not compress(v.id, next(iter(adj[v.id].mult))):
                return False
    return _positive_definite_ldl(diag, rows)


def _diagonally_dominant(g: PlumbingGraph) -> bool:
    """Conditions 1 and 2 of the certificate: -e_v >= ends(v) at every
    vertex, strictly at one."""
    adj = g._adj
    strict = False
    for v in g.vertices:
        slack = -v.euler - adj[v.id].ends
        if slack < 0:
            return False
        strict = strict or slack > 0
    return strict


def _positive_definite_ldl(diag: list[tuple[int, int]], rows: list[dict[int, tuple[int, int]]]) -> bool:
    """Whether the symmetric rational matrix B with diagonal ``diag`` and
    off-diagonal nonzeros ``rows[i] = {j: B_ij}`` is positive definite.

    Both arguments are consumed.  Every entry is a reduced pair
    (numerator, denominator > 0) of plain ints.  Eliminating pivot p
    subtracts B_ip B_pj / B_pp from every entry (i, j) over the neighbors
    of p; entries that cancel to zero are dropped so degrees stay exact.
    The update is Fraction's arithmetic inlined (``_sub_mul``).
    """
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapq.heapify(heap)
    done = [False] * len(diag)
    while heap:
        deg, p = heapq.heappop(heap)
        if done[p] or deg != len(rows[p]):
            continue  # eliminated, or a stale entry for an older degree
        dn, dd = diag[p]
        if dn <= 0:
            return False
        done[p] = True
        nbrs = []  # (i, B_ip, B_ip / B_pp), each a reduced pair
        for i, (an, ad) in rows[p].items():
            del rows[i][p]
            g, h = gcd(an, dn), gcd(ad, dd)
            nbrs.append((i, an, ad, (an // g) * (dd // h), (ad // h) * (dn // g)))
        for s, (i, an, ad, ln, ld) in enumerate(nbrs):
            diag[i] = _sub_mul(*diag[i], ln, ld, an, ad)
            row_i = rows[i]
            for j, bn, bd, _, _ in nbrs[s + 1:]:
                xn, xd = _sub_mul(*row_i.get(j, (0, 1)), ln, ld, bn, bd)
                if xn:
                    row_i[j] = rows[j][i] = (xn, xd)
                elif j in row_i:
                    del row_i[j], rows[j][i]
        for i, *_ in nbrs:
            heapq.heappush(heap, (len(rows[i]), i))
    return True


def _sub_mul(xn: int, xd: int, un: int, ud: int, vn: int, vd: int) -> tuple[int, int]:
    """x - u*v for reduced pairs, reduced.  As in ``Fraction``, the product
    cancels crosswise and the difference takes the gcd of the denominators
    first, so no gcd runs on a whole product."""
    g, h = gcd(un, vd), gcd(vn, ud)
    yn, yd = (un // g) * (vn // h), (ud // h) * (vd // g)
    g = gcd(xd, yd)
    if g == 1:
        return xn * yd - yn * xd, xd * yd
    s = xd // g
    t = xn * (yd // g) - yn * s
    h = gcd(t, g)
    return t // h, s * (yd // h)


# -- shape classification ----------------------------------------------


class Shape(Enum):
    CHAIN = "chain"
    STAR = "star"
    CYCLE = "cycle"
    GENERAL = "general"


class ShapeClass(NamedTuple):
    """A connected graph's shape.

    ``nodes`` lists a general graph's nodes (genus > 0 or valency >= 3),
    sorted.  ``order`` lists a chain's vertices in path order from its
    smaller end, and a cycle's in traversal order from its smallest id
    towards that id's smaller neighbour; it is empty for a star, whose
    legs are the tails that ``calculus.minimal_dlt_model`` reads, and for a
    general graph.
    """

    kind: Shape
    center: str | None = None
    nodes: tuple[str, ...] = ()
    order: tuple[str, ...] = ()


def classify_shape(g: PlumbingGraph) -> ShapeClass:
    """Chain / Cycle / Star / General for a connected graph."""
    if not g.is_connected():
        raise GraphError("classify_shape expects a connected graph")
    return connected_shape(g)


def connected_shape(g: PlumbingGraph) -> ShapeClass:
    """The shape of a graph already checked connected, with the order of
    a chain or a cycle (see ``ShapeClass``).  One pass over the vertices
    finds the nodes and a chain's smaller end; the order is one walk."""
    adj = g._adj
    nodes = []
    end = None  # the smallest vertex of valency <= 1
    for v in g.vertices:
        ends = adj[v.id].ends
        if v.genus > 0 or ends >= 3:
            nodes.append(v.id)
        elif ends <= 1 and (end is None or v.id < end):
            end = v.id
    if not nodes:
        # Every vertex has genus 0 and valency <= 2: a path, or one cycle
        # when no vertex has valency <= 1.
        if end is not None:
            return ShapeClass(Shape.CHAIN, order=tuple(walk(g, None, end)))
        if not adj:
            return ShapeClass(Shape.CHAIN)
        start = min(adj)
        # Entering start from its larger neighbour leaves it towards the
        # smaller one; a loop has no neighbour, and the walk stops at once.
        order = islice(walk(g, max(adj[start].mult, default=None), start), len(adj))
        return ShapeClass(Shape.CYCLE, order=tuple(order))
    if len(nodes) == 1 and len(g.edges) == len(adj) - 1:
        # A connected graph with n - 1 edges is a tree: no loops and no
        # parallel edges.  Every other vertex is not a node, so it has
        # genus 0 and valency <= 2, and a leg attached at an inner vertex
        # would give that vertex valency 3: the legs are chains hanging
        # off the center at one end.
        return ShapeClass(Shape.STAR, center=nodes[0])
    return ShapeClass(Shape.GENERAL, nodes=tuple(sorted(nodes)))


def walk(g: PlumbingGraph, prev: str | None, start: str) -> Iterator[str]:
    """Yield ``start``, then the path that leaves ``prev`` through it.

    Each step takes the one edge-end at the current vertex other than the
    end it arrived by (none is discounted at ``start`` when ``prev`` is
    None).  A loop counts as two ends and each copy of a parallel edge as
    one, so a walk may turn back along a double edge or round a loop.  The
    walk ends at a vertex with zero or several remaining ends; around a
    cycle it never ends, so the caller stops it.
    """
    cur = start
    while True:
        yield cur
        inc = g._adj[cur]
        if inc.ends - (prev is not None) != 1:
            return
        if inc.loops:  # arrived by one end of the loop, leave by the other
            nxt = cur
        elif len(inc.mult) == 1:  # the one end left, or back along a double edge
            nxt = next(iter(inc.mult))
        else:  # two single edges, one of them to prev
            u, w = inc.mult
            nxt = w if u == prev else u
        prev, cur = cur, nxt
