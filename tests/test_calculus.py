from __future__ import annotations

import random
from math import gcd

import pytest
from hypothesis import given, settings

from arclink.calculus import (
    DltKind,
    SingKind,
    minimal_dlt_model,
    minimal_log_resolution,
    singularity_class,
)
from arclink.graph_core import (
    GraphError,
    PlumbingGraph,
    Vertex,
    connected_shape,
    intersection_matrix,
    is_negative_definite,
    parse_plumbing,
)
from arclink.hjcf import hj_numerator
from conftest import chain_graph, cycle_graph, definite_graphs, star_graph


# -- minimal log resolution -------------------------------------------------


def test_blowdown_chain():
    g = parse_plumbing("vertex a euler=-1 genus=0\nvertex b euler=-3 genus=0\nedge a b")
    r = minimal_log_resolution(g)
    assert [(v.id, v.euler) for v in r.vertices] == [("b", -2)]


def test_minimal_is_fixpoint(e8, sigma237):
    assert minimal_log_resolution(e8) == e8
    assert minimal_log_resolution(sigma237) == sigma237


def test_non_negative_definite_rejected():
    bad = chain_graph([2, 1, 2])  # (-2)-(-1)-(-2) is only semidefinite
    with pytest.raises(GraphError, match="negative definite"):
        minimal_log_resolution(bad)


def test_double_edge_blowdown_creates_loop():
    g = parse_plumbing(
        "vertex a euler=-1 genus=0\nvertex b euler=-5 genus=0\nedge a b\nedge a b"
    )
    r = minimal_log_resolution(g)
    assert r.edges == (("b", "b"),)
    assert r.vertex("b").euler == -3
    # The result is the k = 1 cusp cycle with b = 3.
    assert singularity_class(r).b_sequence == (3,)


def test_resolution_without_a_minus_one_curve_copies_nothing(e8, cusp333, monkeypatch):
    # With no -1 curve there is nothing to blow down: the input graph
    # itself comes back, and no working copy of its adjacency is made.
    calls = []
    real = PlumbingGraph.multiplicities
    monkeypatch.setattr(PlumbingGraph, "multiplicities", lambda g, v: calls.append(v) or real(g, v))
    genus = parse_plumbing("vertex a euler=-3 genus=1\nvertex b euler=-2 genus=0\nedge a b")
    for g in (e8, cusp333, cycle_graph([3]), chain_graph([4, 2, 3]), genus):
        assert minimal_log_resolution(g) is g
    assert calls == []


def test_disconnected_rejected():
    g = parse_plumbing("vertex a euler=-2 genus=0\nvertex b euler=-2 genus=0")
    with pytest.raises(GraphError, match="connected"):
        minimal_log_resolution(g)


def _blow_up_edge(g: PlumbingGraph, u: str, w: str, new_id: str) -> PlumbingGraph:
    """Inverse of a blow-down at a point where two curves meet."""
    edges = list(g.edges)
    edges.remove(tuple(sorted((u, w))))
    edges += [(u, new_id), (new_id, w)]
    vs = tuple(
        Vertex(v.id, v.euler - (1 if v.id in (u, w) else 0), v.genus) for v in g.vertices
    ) + (Vertex(new_id, -1, 0),)
    return PlumbingGraph(vs, tuple(edges), g.name)


def _blow_up_free_point(g: PlumbingGraph, u: str, new_id: str) -> PlumbingGraph:
    vs = tuple(
        Vertex(v.id, v.euler - (1 if v.id == u else 0), v.genus) for v in g.vertices
    ) + (Vertex(new_id, -1, 0),)
    return PlumbingGraph(vs, g.edges + ((u, new_id),), g.name)


def test_blowups_contract_back(e8):
    rng = random.Random(3)
    for trial in range(20):
        g = e8
        for step in range(rng.randint(1, 4)):
            new_id = f"x{trial}_{step}"
            if g.edges and rng.random() < 0.5:
                u, w = rng.choice([e for e in g.edges if e[0] != e[1]])
                g = _blow_up_edge(g, u, w, new_id)
            else:
                u = rng.choice(g.vertex_ids())
                g = _blow_up_free_point(g, u, new_id)
        assert is_negative_definite(intersection_matrix(g))
        r = minimal_log_resolution(g)
        assert sorted((v.id, v.euler, v.genus) for v in r.vertices) == sorted(
            (v.id, v.euler, v.genus) for v in e8.vertices
        )
        assert r.edges == e8.edges


def test_resolution_preserves_negative_definiteness_stepwise():
    g = _blow_up_edge(chain_graph([2, 3]), "v0", "v1", "m")
    while True:
        assert is_negative_definite(intersection_matrix(g))
        candidates = [
            v.id
            for v in g.vertices
            if v.euler == -1 and v.genus == 0 and g.degree(v.id) <= 2 and g.loops_at(v.id) == 0
        ]
        if not candidates:
            break
        before = len(g.vertices)
        g = blow_down(g, candidates[0])
        assert len(g.vertices) == before - 1


def test_idempotent(e8):
    r = minimal_log_resolution(e8)
    assert minimal_log_resolution(r) == r


# -- rational chain tails ------------------------------------------------------


def test_tails_of_e8():
    # E8's star with its one-vertex leg at -3: 1/3 + 1/3 + 1/5 < 1, so the
    # class is general and the legs of lengths 1, 2 and 4 become tails.
    g = star_graph(-2, [[3], [2, 2], [2, 2, 2, 2]])
    points = minimal_dlt_model(g).orbifold_points
    assert sorted(len(p.tail_ids) for p in points) == [1, 2, 4]
    # read from the surviving curve outward: each tail's first vertex borders c
    for p in points:
        assert p.host == "c" and p.leg == p.tail_ids[0] and "c" in g.neighbors(p.leg)
    # pairwise disjoint
    seen = [v for p in points for v in p.tail_ids]
    assert len(seen) == len(set(seen))


def test_tails_of_cycle_empty(cusp333):
    assert minimal_dlt_model(cusp333).orbifold_points == ()


def test_genus_blocks_tail():
    g = parse_plumbing(
        "vertex n euler=-2 genus=1\nvertex t euler=-2 genus=1\nedge n t"
    )
    assert minimal_dlt_model(g).orbifold_points == ()


def _tails_by_edge_scan(g: PlumbingGraph) -> list[tuple[str, tuple[str, ...]]]:
    """(host, tail read from the host outward) for every rational tail of
    a graph with a node, read off the edge list alone.  A tail member has
    genus 0, no loop, at most two edge-ends and no parallel edge; a tail
    starts at a member of degree 1 and runs over members to the first
    vertex that is not one, its host."""
    ends: dict[str, list[str]] = {v.id: [] for v in g.vertices}
    for u, w in g.edges:
        ends[u].append(w)
        ends[w].append(u)

    def member(v: str) -> bool:
        nbrs = ends[v]
        return g.vertex(v).genus == 0 and v not in nbrs and len(nbrs) <= 2 and len(set(nbrs)) == len(nbrs)

    out = []
    for v in sorted(ends):
        if len(ends[v]) != 1 or not member(v):
            continue
        tail, prev = [v], None
        while True:
            (host,) = [w for w in ends[tail[-1]] if w != prev]
            if not member(host):
                break
            prev = tail[-1]
            tail.append(host)
        out.append((host, tuple(tail[::-1])))
    return sorted(out)


def _assert_tails_match_edge_scan(g: PlumbingGraph) -> None:
    model = minimal_dlt_model(g)
    if model.kind is DltKind.SELF_DLT:
        return
    src = model.source
    assert sorted((p.host, p.tail_ids) for p in model.orbifold_points) == _tails_by_edge_scan(src)
    for p in model.orbifold_points:
        assert p.leg == p.tail_ids[0]
        assert p.terms == tuple(-src.vertex(v).euler for v in p.tail_ids)


@given(definite_graphs())
@settings(max_examples=300, deadline=None)
def test_tails_match_an_edge_scan(g):
    _assert_tails_match_edge_scan(g)


def test_tails_stop_at_genus_double_edges_and_loops():
    graphs = {
        # the genus-1 curve h has degree 2 inside a leg: the tail t stops
        # at it, and the -2 curve a between c and h survives
        "genus_in_leg": "vertex c euler=-4 genus=0\nvertex x euler=-2 genus=0\nvertex y euler=-3 genus=0\n"
        "vertex a euler=-2 genus=0\nvertex h euler=-3 genus=1\nvertex t euler=-2 genus=0\n"
        "edge c x\nedge c y\nedge c a\nedge a h\nedge h t",
        # the double edge u = w is one step from the leaf t
        "double_edge": "vertex t euler=-2 genus=0\nvertex u euler=-4 genus=0\nvertex w euler=-4 genus=0\n"
        "vertex s euler=-3 genus=0\nedge t u\nedge u w\nedge u w\nedge w s",
        # the host h carries a loop
        "loop_at_host": "vertex h euler=-4 genus=0\nvertex t euler=-2 genus=0\nvertex s euler=-3 genus=0\n"
        "edge h h\nedge h t\nedge t s",
    }
    want = {
        "genus_in_leg": [("c", ("x",)), ("c", ("y",)), ("h", ("t",))],
        "double_edge": [("u", ("t",)), ("w", ("s",))],
        "loop_at_host": [("h", ("t", "s"))],
    }
    for name, text in graphs.items():
        g = parse_plumbing(text)
        assert _tails_by_edge_scan(g) == want[name], name
        _assert_tails_match_edge_scan(g)


def _order_by_edge_scan(g: PlumbingGraph) -> list[str]:
    """A chain's path from its smaller end, or a cycle's walk from its
    smallest id towards that id's smaller neighbour, read off the edge list
    by crossing each edge at most once."""
    ids = [v.id for v in g.vertices]
    unused = list(g.edges)
    leaves = [v for v in ids if sum((a == v) + (b == v) for a, b in unused) <= 1]
    order = [min(leaves or ids)]
    while len(order) < len(ids):
        cur = order[-1]
        e = min((e for e in unused if cur in e), key=lambda e: e[0] if e[1] == cur else e[1])
        unused.remove(e)
        order.append(e[0] if e[1] == cur else e[1])
    return order


def _shuffled(g0: PlumbingGraph, rng: random.Random) -> PlumbingGraph:
    """``g0`` as text with fresh ids, its vertex and edge lines shuffled
    and each edge's ends in random order, parsed back."""
    n = len(g0.vertices)
    fresh = {vid: f"x{k}" for vid, k in zip(g0.vertex_ids(), rng.sample(range(100), n))}
    lines = [f"vertex {fresh[v.id]} euler={v.euler} genus={v.genus}" for v in g0.vertices]
    rng.shuffle(lines)
    edges = [(fresh[u], fresh[w]) for u, w in g0.edges]
    rng.shuffle(edges)
    lines += [f"edge {u} {w}" if rng.random() < 0.5 else f"edge {w} {u}" for u, w in edges]
    return parse_plumbing("\n".join(lines))


def test_shape_order_matches_an_edge_scan():
    rng = random.Random(2606)
    for case in range(300):
        n = case // 2 % 12 + 1  # every length, the loop and the double edge among them
        cycle = case % 2 == 1
        if cycle:
            g0 = cycle_graph([rng.randint(2, 5) for _ in range(n)])
        else:
            g0 = chain_graph([rng.randint(1, 5) for _ in range(n)])
        g = _shuffled(g0, rng)
        shape = connected_shape(g)
        assert shape.kind.value == ("cycle" if cycle else "chain")
        assert list(shape.order) == _order_by_edge_scan(g), (case, g)


# -- singularity classes ---------------------------------------------------------


def test_cyclic_quotient_chain():
    cls = singularity_class(chain_graph([2, 2, 2, 2]))
    assert cls.kind is SingKind.CYCLIC_QUOTIENT
    assert (cls.m, cls.q) == (5, 4)


def test_chain_q_convention():
    # [3,2] = 5/2 read one way, 5/3 the other; the smaller omega is kept.
    cls = singularity_class(chain_graph([3, 2]))
    assert (cls.m, cls.q) == (5, 2)
    assert gcd(cls.m, cls.q) == 1


def test_chain_m_is_continuant():
    for bs in ([2], [3, 2], [2, 3, 2], [4, 2, 3]):
        cls = singularity_class(chain_graph(bs))
        assert cls.m == hj_numerator(bs)
        assert 0 < cls.q < cls.m and gcd(cls.m, cls.q) == 1


def test_e8_class(e8):
    cls = singularity_class(e8)
    assert cls.kind is SingKind.NONCYCLIC_QUOTIENT
    assert cls.alphas == (2, 3, 5)


def test_sigma237_is_general(sigma237):
    assert singularity_class(sigma237).kind is SingKind.GENERAL


def test_cusp_class(cusp333):
    cls = singularity_class(cusp333)
    assert cls.kind is SingKind.CUSP
    assert cls.b_sequence == (3, 3, 3)


def test_cusp_class_canonical_rotation():
    # the last two read least in the reverse direction
    for bs in ([2, 2, 3, 4], [2, 2, 4, 3], [3, 2, 5, 2, 4, 2]):
        cls = singularity_class(cycle_graph(bs))
        assert cls.b_sequence == min(
            tuple(seq[i:] + seq[:i]) for seq in (bs, bs[::-1]) for i in range(len(bs))
        )


def test_spherical_triples():
    # (2,3,5) is spherical, (2,3,7) is not; (2,2,n) always is.
    e8ish = star_graph(-2, [[2], [2, 2], [2, 2, 2, 2]])
    assert singularity_class(e8ish).kind is SingKind.NONCYCLIC_QUOTIENT
    assert singularity_class(star_graph(-2, [[2], [2], [5]])).kind is SingKind.NONCYCLIC_QUOTIENT
    assert singularity_class(star_graph(-1, [[2], [3], [7]])).kind is SingKind.GENERAL


@pytest.mark.parametrize(
    "legs, alphas",
    [((1, 1, n - 1), (2, 2, n)) for n in range(2, 9)]  # D4..D10
    + [((1, 2, 2), (2, 3, 3)), ((1, 2, 3), (2, 3, 4)), ((1, 2, 4), (2, 3, 5))],  # E6, E7, E8
    ids=[f"D{n + 2}" for n in range(2, 9)] + ["E6", "E7", "E8"],
)
def test_dynkin_stars_are_noncyclic_quotients(legs, alphas):
    # A leg of k -2 curves is one tail with m = k + 1.
    star = star_graph(-2, [[2] * k for k in legs])
    rng = random.Random(sum(legs))
    for g in (star, _shuffled(star, rng), _shuffled(star, rng)):
        model = minimal_dlt_model(g)
        assert model.kind is DltKind.SELF_DLT and not model.orbifold_points
        assert model.sing_class.kind is SingKind.NONCYCLIC_QUOTIENT
        assert model.sing_class.alphas == alphas
        assert singularity_class(g) == model.sing_class


@pytest.mark.parametrize(
    "center_euler, genus, legs",
    [(-3, 0, [[2], [2], [2], [2]]), (-2, 1, [[2], [3], [5]]), (-2, 0, [[3], [3], [3]])],
    ids=["four-legs", "genus-1", "euclidean-333"],
)
def test_boundary_stars_are_general_with_their_tails(center_euler, genus, legs):
    g = star_graph(center_euler, legs, genus=genus)
    model = minimal_dlt_model(g)
    assert model.kind is DltKind.MODEL and model.sing_class.kind is SingKind.GENERAL
    assert [v.id for v in model.residual.vertices] == ["c"]
    points = [(p.host, p.m, p.omega, p.terms) for p in model.orbifold_points]
    assert sorted(points) == sorted(("c", b, 1, (b,)) for (b,) in legs)
    assert singularity_class(g) == model.sing_class


def test_genus_center_is_general():
    g = parse_plumbing("vertex a euler=-3 genus=2")
    assert singularity_class(g).kind is SingKind.GENERAL


# -- minimal dlt models ------------------------------------------------------------


def test_sigma237_model(sigma237):
    model = minimal_dlt_model(sigma237)
    assert model.kind is DltKind.MODEL
    assert [v.id for v in model.residual.vertices] == ["c"]
    assert sorted((p.m, p.omega) for p in model.orbifold_points) == [(2, 1), (3, 1), (7, 1)]
    for p in model.orbifold_points:
        assert gcd(p.m, p.omega) == 1 and 0 < p.omega < p.m


def test_cusp_model_keeps_cycle(cusp333):
    model = minimal_dlt_model(cusp333)
    assert model.kind is DltKind.MODEL
    assert not model.orbifold_points
    assert len(model.residual.vertices) == 3


def test_quotients_are_self_dlt(e8):
    assert minimal_dlt_model(chain_graph([2, 2, 2, 2])).kind is DltKind.SELF_DLT
    assert minimal_dlt_model(e8).kind is DltKind.SELF_DLT


def test_model_tail_reading_order():
    # A two-curve tail [3, 2] read from the survivor outward gives (5, 2).
    g = star_graph(-2, [[3, 2], [2], [2]], genus=1)
    model = minimal_dlt_model(g)
    pairs = sorted((p.m, p.omega) for p in model.orbifold_points)
    assert pairs == [(2, 1), (2, 1), (5, 2)]
    long_tail = [p for p in model.orbifold_points if p.m == 5][0]
    assert long_tail.terms == (3, 2)


def test_model_residual_has_no_tails(sigma237):
    model = minimal_dlt_model(sigma237)
    # Residual curves either are nodes of the source or carry orbifold points.
    for v in model.residual.vertices:
        attached = sum(p.host == v.id for p in model.orbifold_points)
        assert attached > 0 or v.genus > 0 or model.residual.degree(v.id) >= 3


def test_model_of_general_graph_with_interior_chain():
    g = parse_plumbing(
        "\n".join(
            [
                "vertex n1 euler=-2 genus=1",
                "vertex m euler=-2 genus=0",
                "vertex n2 euler=-2 genus=1",
                "vertex t euler=-3 genus=0",
                "edge n1 m",
                "edge m n2",
                "edge n2 t",
            ]
        )
    )
    model = minimal_dlt_model(g)
    # The interior chain vertex m survives; the tail t becomes (3,1).
    assert {v.id for v in model.residual.vertices} == {"n1", "m", "n2"}
    assert [(p.m, p.omega, p.host) for p in model.orbifold_points] == [(3, 1, "n2")]


def test_model_is_fixpoint_of_tail_contraction(cusp333):
    # Applying the construction to the residual graph reproduces the model
    # (on models whose residual is itself a valid resolution graph).
    model = minimal_dlt_model(cusp333)
    again = minimal_dlt_model(model.residual)
    assert again.kind is DltKind.MODEL
    assert again.residual.edges == model.residual.edges
    assert again.orbifold_points == model.orbifold_points

    theta = parse_plumbing(
        "\n".join(
            [
                "vertex n1 euler=-3 genus=1",
                "vertex n2 euler=-3 genus=1",
                "edge n1 n2",
                "edge n1 n2",
            ]
        )
    )
    model2 = minimal_dlt_model(theta)
    assert model2.kind is DltKind.MODEL and not model2.orbifold_points
    assert minimal_dlt_model(model2.residual).residual.edges == model2.residual.edges


def test_public_stages_resolve_a_blown_up_graph():
    # The 3,2,3 cusp cycle with two of its node points blown up.
    g = cycle_graph([4, 1, 4, 1, 4])
    assert minimal_dlt_model(g) == minimal_dlt_model(minimal_log_resolution(g))
    cls = singularity_class(g)
    assert cls.kind is SingKind.CUSP and cls.b_sequence == (2, 3, 3)
    assert singularity_class(chain_graph([2, 1, 3])).describe() == "smooth"


def test_one_connectivity_scan_per_analysis(e8, sigma237, monkeypatch):
    # The input is checked connected once; its resolution is not scanned again.
    calls = []
    real = PlumbingGraph.is_connected
    monkeypatch.setattr(PlumbingGraph, "is_connected", lambda g: calls.append(g) or real(g))
    loop_pair = parse_plumbing(
        "vertex a euler=-7 genus=0\nvertex b euler=-5 genus=1\nedge a a\nedge a b\nedge a b"
    )
    for g in (cycle_graph([4, 1, 4, 1, 4]), chain_graph([2, 1, 3]), e8, sigma237, loop_pair):
        for stage in (minimal_dlt_model, singularity_class):
            calls.clear()
            stage(g)
            assert calls == [g]


def test_single_vertex_chain_class():
    g = parse_plumbing("vertex a euler=-2 genus=0")
    cls = singularity_class(g)
    assert (cls.kind, cls.m, cls.q) == (SingKind.CYCLIC_QUOTIENT, 2, 1)


def test_classification_stable_under_blow_up():
    # Blowing up a point on an edge and resolving back never changes the
    # singularity class.
    rng = random.Random(4242)
    checked = 0
    while checked < 60:
        n = rng.randint(1, 7)
        vs = [Vertex(f"v{i}", -rng.randint(2, 5), rng.choice([0, 0, 0, 1])) for i in range(n)]
        es = tuple((f"v{rng.randint(0, i - 1)}", f"v{i}") for i in range(1, n))
        g = PlumbingGraph(tuple(vs), es, "fuzz")
        if not is_negative_definite(intersection_matrix(g)) or not g.edges:
            continue
        cls0 = singularity_class(g)
        u, w = rng.choice(g.edges)
        blown = _blow_up_edge(g, u, w, "fresh")
        assert singularity_class(minimal_log_resolution(blown)) == cls0
        checked += 1


def blow_down(g: PlumbingGraph, vid: str) -> PlumbingGraph:
    """Contract one -1 vertex meeting the rest in at most two points."""
    v = g.vertex(vid)
    if v.euler != -1 or v.genus != 0 or g.loops_at(vid) or g.degree(vid) > 2:
        raise GraphError(f"vertex {vid!r} is not contractible")
    ends = [w for w in g.neighbors(vid) for _ in range(g.multiplicities(vid).get(w, 0))]
    vs = tuple(
        Vertex(v.id, v.euler + ends.count(v.id), v.genus) if v.id in ends else v
        for v in g.vertices
        if v.id != vid
    )
    es = [e for e in g.edges if vid not in e]
    if len(ends) == 2:
        es.append((ends[0], ends[1]))
    return PlumbingGraph(vs, tuple(es), g.name)


def _resolve_by_rescan(g: PlumbingGraph) -> PlumbingGraph:
    """Reference order: blow down the smallest contractible id, rescan."""
    while True:
        for vid in sorted(g.vertex_ids()):
            try:
                g = blow_down(g, vid)
                break
            except GraphError:
                continue
        else:
            return g


def test_resolution_order_matches_rescan():
    # The resolution's heap of candidates must reach the graph that a full
    # rescan after every blow-down reaches.
    # A -1 curve on a double edge blows down to a loop at its neighbor.
    loop = parse_plumbing("vertex a euler=-5 genus=0\nvertex e euler=-1 genus=0\nedge a e\nedge a e\n")
    assert minimal_log_resolution(loop) == _resolve_by_rescan(loop)
    assert minimal_log_resolution(loop) == PlumbingGraph((Vertex("a", -3),), (("a", "a"),), "graph")
    # A -1 curve whose two neighbors already meet blows down to a parallel
    # edge; the -2 curve b on w survives beside the new double edge.
    parallel = parse_plumbing(
        "vertex u euler=-4 genus=0\nvertex w euler=-4 genus=0\nvertex e euler=-1 genus=0\n"
        "vertex b euler=-2 genus=0\nedge u w\nedge u e\nedge e w\nedge w b\n"
    )
    want = PlumbingGraph(
        (Vertex("u", -3), Vertex("w", -3), Vertex("b", -2)), (("u", "w"), ("u", "w"), ("b", "w")), "graph"
    )
    assert minimal_log_resolution(parallel) == _resolve_by_rescan(parallel) == want
    # The same with a -2 neighbor: the parallel edge makes it a -1 curve
    # on a double edge, which then blows down to a loop.
    cascade = parse_plumbing(
        "vertex u euler=-6 genus=0\nvertex w euler=-2 genus=0\nvertex e euler=-1 genus=0\n"
        "edge u w\nedge u e\nedge e w\n"
    )
    assert minimal_log_resolution(cascade) == _resolve_by_rescan(cascade)
    assert minimal_log_resolution(cascade) == PlumbingGraph((Vertex("u", -3),), (("u", "u"),), "graph")
    rng = random.Random(977)
    checked = 0
    while checked < 150:
        n = rng.randint(1, 9)
        vs = [Vertex(f"v{i}", rng.choice([-1, -1, -2, -3, -4]), 0) for i in range(n)]
        es = [(f"v{rng.randint(0, i - 1)}", f"v{i}") for i in range(1, n)]
        es += [(f"v{rng.randrange(n)}", f"v{rng.randrange(n)}") for _ in range(rng.randint(0, 2))]
        g = PlumbingGraph(tuple(vs), tuple(es), "fuzz")
        if not is_negative_definite(intersection_matrix(g)):
            continue
        assert minimal_log_resolution(g) == _resolve_by_rescan(g)
        checked += 1


def test_ten_thousand_vertex_blown_up_cycle():
    # n cusp curves with a -1 curve blown up on every cycle edge: one
    # blow-down per edge gives back the cycle of the base weights, whose
    # class is the least rotation or reflection of those weights.  The
    # 5,000 weights are shuffled; the 10,000 (2*10^4 vertices) are the
    # period 4,2,3,2, whose class is the period 2,3,2,4 repeated.
    shuffled = [(2, 3, 2, 4)[i % 4] for i in range(5000)]
    random.Random(10_000).shuffle(shuffled)
    least = min(min(t[i:i + 5000] for i in range(5000)) for t in (tuple(shuffled) * 2, tuple(shuffled[::-1]) * 2))
    periodic = [(4, 2, 3, 2)[i % 4] for i in range(10_000)]
    for bs, least in ((shuffled, least), (periodic, (2, 3, 2, 4) * 2500)):
        n = len(bs)
        vs = [Vertex(f"c{i}", -(b + 2)) for i, b in enumerate(bs)] + [Vertex(f"e{i}", -1) for i in range(n)]
        es = [(f"c{i}", f"e{i}") for i in range(n)] + [(f"e{i}", f"c{(i + 1) % n}") for i in range(n)]
        model = minimal_dlt_model(PlumbingGraph(tuple(vs), tuple(es), "blown"))
        assert model.sing_class.kind is SingKind.CUSP
        assert model.sing_class.b_sequence == least
        assert len(model.source.vertices) == n and len(model.source.edges) == n
        assert all(v.euler != -1 for v in model.source.vertices)
        assert sorted(-v.euler for v in model.source.vertices) == sorted(bs)
