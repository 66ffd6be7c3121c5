from __future__ import annotations

import pytest
from hypothesis import strategies as st

from arclink.graph_core import PlumbingGraph, Vertex, parse_plumbing


def determinant(mat) -> int:
    """Exact integer determinant by fraction-free Bareiss elimination."""
    n = len(mat)
    if n == 0:
        return 1
    if n == 1:
        return mat[0][0]
    # Bareiss with row pivoting; exact over the integers.
    a = [list(row) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def chain_graph(bs, prefix: str = "v") -> PlumbingGraph:
    vs = tuple(Vertex(f"{prefix}{i}", -b, 0) for i, b in enumerate(bs))
    es = tuple((f"{prefix}{i}", f"{prefix}{i+1}") for i in range(len(bs) - 1))
    return PlumbingGraph(vs, es, "chain")


def cycle_graph(bs, prefix: str = "v") -> PlumbingGraph:
    k = len(bs)
    vs = tuple(Vertex(f"{prefix}{i}", -b, 0) for i, b in enumerate(bs))
    if k == 1:
        es = ((f"{prefix}0", f"{prefix}0"),)
    elif k == 2:
        es = ((f"{prefix}0", f"{prefix}1"), (f"{prefix}0", f"{prefix}1"))
    else:
        es = tuple((f"{prefix}{i}", f"{prefix}{(i+1) % k}") for i in range(k))
    return PlumbingGraph(vs, es, "cycle")


def star_graph(center_euler: int, legs, genus: int = 0) -> PlumbingGraph:
    """legs: list of b-term lists, each read center-outward."""
    vs = [Vertex("c", center_euler, genus)]
    es = []
    for i, leg in enumerate(legs):
        prev = "c"
        for j, b in enumerate(leg):
            vid = f"l{i}_{j}"
            vs.append(Vertex(vid, -b, 0))
            es.append((prev, vid))
            prev = vid
    return PlumbingGraph(tuple(vs), tuple(es), "star")


@st.composite
def definite_graphs(draw):
    """Connected graphs that are negative definite by construction.

    With -e_v >= valency (loops counting twice) at every vertex and strict
    at one, -A is irreducibly diagonally dominant, hence positive definite.
    Point and edge blow-ups then keep the lattice definite and give the
    resolution something to blow down.
    """
    n = draw(st.integers(1, 7))
    ids = [f"v{i}" for i in range(n)]
    edges = [(ids[i], ids[draw(st.integers(0, i - 1))]) for i in range(1, n)]
    edges += draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=3))
    valency = dict.fromkeys(ids, 0)
    for u, w in edges:
        valency[u] += 1
        valency[w] += 1
    strict = draw(st.sampled_from(ids))
    euler = {v: -valency[v] - draw(st.integers(0, 2)) - (v == strict) for v in ids}
    genus = {v: draw(st.sampled_from((0, 0, 0, 1))) for v in ids}
    for b in range(draw(st.integers(0, 3))):
        new = f"e{b}"
        if edges and draw(st.booleans()):  # an intersection point, or a loop's double point
            u, w = edges.pop(draw(st.integers(0, len(edges) - 1)))
            edges += [(u, new), (new, w)]
            euler[w] -= 1
        else:  # a general point of one curve
            u = draw(st.sampled_from(ids))
            edges.append((u, new))
        euler[u] -= 1
        ids.append(new)
        euler[new], genus[new] = -1, 0
    vs = tuple(Vertex(v, euler[v], genus[v]) for v in ids)
    return PlumbingGraph(vs, tuple(edges), "definite")


E8_TEXT = """
graph e8
vertex c euler=-2 genus=0
vertex a1 euler=-2 genus=0
vertex b1 euler=-2 genus=0
vertex b2 euler=-2 genus=0
vertex d1 euler=-2 genus=0
vertex d2 euler=-2 genus=0
vertex d3 euler=-2 genus=0
vertex d4 euler=-2 genus=0
edge c a1
edge c b1
edge b1 b2
edge c d1
edge d1 d2
edge d2 d3
edge d3 d4
"""

SIGMA_237_TEXT = """
graph sigma237
vertex c euler=-1 genus=0
vertex p euler=-2 genus=0
vertex q euler=-3 genus=0
vertex r euler=-7 genus=0
edge c p
edge c q
edge c r
"""


@pytest.fixture
def e8() -> PlumbingGraph:
    return parse_plumbing(E8_TEXT)


@pytest.fixture
def sigma237() -> PlumbingGraph:
    return parse_plumbing(SIGMA_237_TEXT)


@pytest.fixture
def cusp333() -> PlumbingGraph:
    return cycle_graph([3, 3, 3])
