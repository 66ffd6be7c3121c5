from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from arclink.checks import star_legs, sylvester_negative_definite
from arclink.graph_core import (
    GraphError,
    PlumbingGraph,
    Shape,
    Vertex,
    _diagonally_dominant,
    classify_shape,
    intersection_matrix,
    is_negative_definite,
    is_negative_definite_graph,
    parse_plumbing,
    walk,
)
from conftest import chain_graph, cycle_graph, determinant, star_graph


# -- parser ------------------------------------------------------------


def test_parse_single_vertex():
    g = parse_plumbing("vertex a euler=-1 genus=0")
    assert len(g.vertices) == 1
    assert g.vertex("a").euler == -1 and g.vertex("a").genus == 0


def test_parse_e8(e8):
    assert len(e8.vertices) == 8
    assert len(e8.edges) == 7
    assert all(v.euler == -2 for v in e8.vertices)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphError, match="line 2"):
        parse_plumbing("vertex a euler=-2 genus=0\nedge a b")
    with pytest.raises(GraphError, match="line 3"):
        parse_plumbing("vertex a euler=-2 genus=0\nvertex b euler=-2 genus=0\nvertex a euler=-1 genus=0")
    with pytest.raises(GraphError, match="line 1"):
        parse_plumbing("vertex a euler=x genus=0")
    with pytest.raises(GraphError, match="line 1"):
        parse_plumbing("frobnicate a b")
    with pytest.raises(GraphError, match="line 2: unknown directive 'arrow'"):
        parse_plumbing("vertex a euler=-2 genus=0\narrow a")


def test_parse_multi_edges_and_loops():
    g = parse_plumbing(
        "vertex a euler=-1 genus=0\nvertex b euler=-5 genus=0\nedge a b\nedge a b\nedge a a"
    )
    assert g.multiplicities("a").get("b", 0) == 2
    assert g.loops_at("a") == 1
    assert g.degree("a") == 4


def test_comments_and_blank_lines():
    g = parse_plumbing("# nothing\n\nvertex a euler=-2 genus=1  # inline\n")
    assert g.vertex("a").genus == 1


def serialize_plumbing(g: PlumbingGraph) -> str:
    """Canonical text form: sorted vertices, then the edges in graph order."""
    lines = [f"graph {g.name}"]
    for v in sorted(g.vertices, key=lambda v: v.id):
        lines.append(f"vertex {v.id} euler={v.euler} genus={v.genus}")
    for u, v in g.edges:
        lines.append(f"edge {u} {v}")
    return "\n".join(lines) + "\n"


def test_serialize_parse_identity(e8):
    text = serialize_plumbing(e8)
    again = parse_plumbing(text)
    assert serialize_plumbing(again) == text
    assert again.edges == e8.edges and set(again.vertex_ids()) == set(e8.vertex_ids())


_random_graph = st.builds(
    lambda n, eulers, genera, edge_picks: _make_graph(n, eulers, genera, edge_picks),
    st.integers(1, 8),
    st.lists(st.integers(-7, 3), min_size=8, max_size=8),
    st.lists(st.integers(0, 2), min_size=8, max_size=8),
    st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=12),
)


def _make_graph(n, eulers, genera, edge_picks):
    vs = tuple(Vertex(f"v{i}", eulers[i], genera[i]) for i in range(n))
    es = tuple((f"v{a % n}", f"v{b % n}") for a, b in edge_picks)
    return PlumbingGraph(vs, es, "random")


@given(_random_graph)
@settings(max_examples=120)
def test_serialize_roundtrip_random(g):
    assert serialize_plumbing(parse_plumbing(serialize_plumbing(g))) == serialize_plumbing(g)


# -- intersection matrix ------------------------------------------------


def test_matrix_examples():
    assert intersection_matrix(parse_plumbing("vertex a euler=-2 genus=0")) == [[-2]]
    g = chain_graph([2, 2])
    assert intersection_matrix(g) == [[-2, 1], [1, -2]]
    loop = parse_plumbing("vertex a euler=-3 genus=0\nedge a a")
    assert intersection_matrix(loop) == [[-1]]


@given(_random_graph)
@settings(max_examples=120)
def test_matrix_symmetric_and_diagonal(g):
    m = intersection_matrix(g)
    n = len(m)
    for i in range(n):
        for j in range(n):
            assert m[i][j] == m[j][i]
    if all(g.loops_at(v.id) == 0 for v in g.vertices):
        for i, v in enumerate(g.vertices):
            assert m[i][i] == v.euler


# -- negative definiteness ----------------------------------------------


def test_definiteness_examples(e8):
    assert is_negative_definite([[-2]])
    assert not is_negative_definite([[1]])
    assert not is_negative_definite([[0]])
    m = intersection_matrix(e8)
    assert is_negative_definite(m)
    assert determinant(m) == 1  # E8 is unimodular


def test_definiteness_input_validation():
    with pytest.raises(ValueError):
        is_negative_definite([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        is_negative_definite([[1, 2, 3], [2, 1, 3]])


def negative_definite_cholesky(mat) -> bool:
    """Dense rational LDL^T on -A in the given order, all pivots positive."""
    n = len(mat)
    a = [[Fraction(-mat[i][j]) for j in range(n)] for i in range(n)]
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= f * a[k][j]
    return True


@given(_random_graph)
@settings(max_examples=200)
def test_definiteness_agrees_with_cholesky_oracle(g):
    m = intersection_matrix(g)
    assert is_negative_definite(m) == negative_definite_cholesky(m)


def test_valid_cusp_cycles_are_negative_definite():
    # Cycles with all b >= 2 and some b >= 3 pass the gate.
    from itertools import product

    for k in range(1, 5):
        for bs in product(range(2, 5), repeat=k):
            if all(b == 2 for b in bs):
                continue
            assert is_negative_definite(intersection_matrix(cycle_graph(list(bs))))
    # The all -2 cycle is only semidefinite.
    assert not is_negative_definite(intersection_matrix(cycle_graph([2, 2, 2])))


@given(_random_graph)
@settings(max_examples=300)
def test_definiteness_agrees_with_sylvester_oracle(g):
    m = intersection_matrix(g)
    want = sylvester_negative_definite(m)
    assert is_negative_definite(m) == want
    assert is_negative_definite_graph(g) == want


@given(_random_graph, st.randoms(use_true_random=False))
@settings(max_examples=150)
def test_definiteness_invariant_under_relabelling_and_reordering(g, rnd):
    ids = list(g.vertex_ids())
    fresh = {vid: f"w{k}" for vid, k in zip(ids, rnd.sample(range(10 * len(ids)), len(ids)))}
    vertex_lines = [f"vertex {fresh[v.id]} euler={v.euler} genus={v.genus}" for v in g.vertices]
    edge_lines = [f"edge {fresh[u]} {fresh[w]}" for u, w in g.edges]
    rnd.shuffle(vertex_lines)
    rnd.shuffle(edge_lines)
    relabelled = parse_plumbing("\n".join(vertex_lines + edge_lines))
    assert is_negative_definite_graph(relabelled) == is_negative_definite_graph(g)
    assert is_negative_definite(intersection_matrix(relabelled)) == is_negative_definite(
        intersection_matrix(g)
    )


_big = st.integers(-(2**40), 2**40)


@st.composite
def _big_symmetric(draw):
    """A symmetric matrix with entries past 2^32: either -(X^T X + D) for
    an r x n matrix X and a diagonal D >= 0 (negative definite exactly when
    X^T X + D is nonsingular, and otherwise a pivot cancels to zero), or a
    symmetric matrix with free entries."""
    n = draw(st.integers(1, 6))
    if draw(st.booleans()):
        r = draw(st.integers(0, n))
        x = [[draw(st.integers(-(2**20), 2**20)) for _ in range(n)] for _ in range(r)]
        d = [draw(st.sampled_from([0, 0, 1, 2**33])) for _ in range(n)]
        return [
            [-sum(row[i] * row[j] for row in x) - (d[i] if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
    mat = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            mat[i][j] = mat[j][i] = draw(_big)
    return mat


@given(_big_symmetric())
@settings(max_examples=300)
def test_definiteness_agrees_with_oracles_on_large_entries(mat):
    want = sylvester_negative_definite(mat)
    assert is_negative_definite(mat) == want == negative_definite_cholesky(mat)


def test_zero_pivots_are_rejected():
    # Each singular matrix here meets a pivot that cancels to exactly zero
    # in the minimum-degree order; ``big`` puts entries past 2^32.
    big = 2**35 + 7
    assert not is_negative_definite([[-1, 1], [1, -1]])
    assert not is_negative_definite([[-big, big], [big, -big]])
    assert not is_negative_definite([[-big * big, big], [big, -1]])
    assert is_negative_definite([[-big * big - 1, big], [big, -1]])
    # -A = v v^T + w w^T on three coordinates: rank 2, so not definite.
    v, w = (big, 1, 3), (2, -big, 5)
    mat = [[-(v[i] * v[j] + w[i] * w[j]) for j in range(3)] for i in range(3)]
    assert sylvester_negative_definite(mat) is False
    assert not is_negative_definite(mat)
    assert is_negative_definite([[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(mat)])


def test_large_chain_accepted():
    # The leading minors of -A(A_n) are the continuants P_k = k + 1 > 0.
    for n in (1000, 10_000):
        assert is_negative_definite_graph(chain_graph([2] * n))


def test_large_cycle_with_a_three_accepted():
    # -A is irreducibly diagonally dominant (strictly at the -3 vertex).
    for n in (1000, 10_000):
        bs = [2] * n
        bs[417] = 3
        g = cycle_graph(bs)
        assert is_negative_definite_graph(g)
        if n == 1000:  # the dense matrix, 10^6 entries
            assert is_negative_definite(intersection_matrix(g))


def test_large_all_minus_two_cycle_rejected():
    # -A is the cycle Laplacian: the all-ones vector spans its kernel.  With
    # one vertex made a node, its pivot is 2 - (k + k + 2)/(k + 1) = 0 after
    # the run of the other k: the semidefinite boundary P_k = 0.
    g = cycle_graph([2] * 1000)
    assert all(sum(row) == 0 for row in intersection_matrix(g))
    for n in (1000, 10_000):
        assert not is_negative_definite_graph(cycle_graph([2] * n))


def _graph(text: str) -> PlumbingGraph:
    """Vertex lines 'id:euler' and edge lines 'u-v', space-separated."""
    vs, es = [], []
    for tok in text.split():
        if ":" in tok:
            vid, e = tok.split(":")
            vs.append(Vertex(vid, int(e)))
        else:
            es.append(tuple(tok.split("-")))
    return PlumbingGraph(tuple(vs), tuple(es), "runs")


@pytest.mark.parametrize(
    "text",
    [
        # a run between two nodes, with a -1 curve inside (P_3 = 0) or not
        "a:-3 b:-3 x:-2 y:-1 z:-2 l1:-2 l2:-2 l3:-2 l4:-2 a-x x-y y-z z-b a-l1 a-l2 b-l3 b-l4",
        "a:-3 b:-3 x:-2 y:-2 z:-2 l1:-2 l2:-2 l3:-2 l4:-2 a-x x-y y-z z-b a-l1 a-l2 b-l3 b-l4",
        # a run that closes a cycle at one node, and a loop there
        "a:-3 x:-2 y:-2 z:-3 a-x x-y y-z z-a a-a",
        "a:-7 x:-2 y:-2 z:-3 a-x x-y y-z z-a a-a",
        # a one-curve run meeting its node twice is no run
        "a:-4 x:-3 a-x a-x",
        # cycles with no node, definite and semidefinite
        "x:-2 y:-3 z:-2 x-y y-z z-x",
        "x:-2 y:-2 z:-2 w:-2 x-y y-z z-w w-x",
        "x:-1 y:-5 z:-5 x-y y-z z-x",
        # theta graphs, and two nodes joined by parallel edges
        "a:-3 b:-3 x:-2 y:-2 z:-2 a-x x-b a-y y-b a-z z-b",
        "a:-2 b:-3 x:-2 y:-1 z:-2 a-x x-b a-y y-b a-z z-b",
        "a:-3 b:-3 x:-1 y:-1 z:-1 w:-1 l:-2 m:-2 a-x x-y y-b a-z z-w w-b a-l b-m",  # P_2 = 0 twice
        "a:-4 b:-4 x:-2 y:-3 a-x x-y y-b a-b a-b",
        # a run and a double edge: B_ab = -2 - 1/2, semidefinite on (1, 1, 1)
        "a:-3 b:-3 x:-2 a-x x-b a-b a-b",
        # two components, one of them a cycle with no node
        "a:-2 b:-2 a-b x:-2 y:-2 z:-3 x-y y-z z-x",
    ],
)
def test_compressed_runs_agree_with_sylvester(text):
    g = _graph(text)
    mat = intersection_matrix(g)
    assert is_negative_definite_graph(g) == is_negative_definite(mat) == sylvester_negative_definite(mat)


# -- the diagonal-dominance certificate -------------------------------------


def _laplacian_part(rng: random.Random, prefix: str, strict: int) -> tuple[list[Vertex], list[tuple[str, str]]]:
    """A connected multigraph of one to eight curves (a random spanning
    tree, then extra edges that may be loops or parallel copies) weighted
    so that -A is its Laplacian: every row weakly dominant, none strictly.
    ``strict`` of its vertices then lose one or two more."""
    ids = [f"{prefix}{i}" for i in range(rng.randint(1, 8))]
    es = [(ids[rng.randrange(i)], ids[i]) for i in range(1, len(ids))]
    es += [(rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, len(ids)))]
    ends = Counter(x for e in es for x in e)  # a loop counts twice
    lowered = set(rng.sample(ids, strict))
    return [Vertex(v, -ends[v] - (rng.randint(1, 2) if v in lowered else 0)) for v in ids], es


def _agree_with_sylvester(g: PlumbingGraph) -> bool:
    want = sylvester_negative_definite(intersection_matrix(g))
    assert is_negative_definite_graph(g) == want
    return want


def test_certificate_at_the_dominance_boundary():
    rng = random.Random(25)
    loops = parallel = 0
    for _ in range(300):
        # weak dominance everywhere: a Laplacian, singular on (1, ..., 1)
        vs, es = _laplacian_part(rng, "v", 0)
        g = PlumbingGraph(tuple(vs), tuple(es), "laplacian")
        assert not _diagonally_dominant(g) and not _agree_with_sylvester(g)
        loops += any(u == w for u, w in g.edges)
        parallel += len(set(g.edges)) < len(g.edges)
        # exactly one strict vertex: the certificate holds
        vs, es = _laplacian_part(rng, "v", 1)
        g = PlumbingGraph(tuple(vs), tuple(es), "one strict")
        assert _diagonally_dominant(g) and _agree_with_sylvester(g)
        # one vertex raised by one: mostly a row short of dominance, which
        # leaves the decision to the compression
        vs, es = _laplacian_part(rng, "v", 1)
        low = rng.choice([v for v in vs if v.euler < 0])
        vs = [Vertex(v.id, v.euler + 1) if v is low else v for v in vs]
        g = PlumbingGraph(tuple(vs), tuple(es), "one short")
        _agree_with_sylvester(g)
    assert loops > 50 and parallel > 50


def test_certificate_needs_a_connected_graph():
    # A strict component beside a Laplacian one is dominant with a strict
    # row, but the union is singular: a certificate that skipped the
    # connectivity condition would accept it.  Two strict components are
    # definite, which the compression finds.
    rng = random.Random(26)
    for _ in range(200):
        vs, es = _laplacian_part(rng, "a", 1)
        for strict, want in ((0, False), (1, True)):
            ws, fs = _laplacian_part(rng, "b", strict)
            g = PlumbingGraph(tuple(vs + ws), tuple(es + fs), "union")
            assert _diagonally_dominant(g) and not g.is_connected()
            assert _agree_with_sylvester(g) is want


# -- adjacency index ------------------------------------------------------


@given(_random_graph)
@settings(max_examples=200)
def test_adjacency_index_matches_edge_scan(g):
    ids = g.vertex_ids()
    for v in ids:
        assert g.loops_at(v) == sum(1 for a, b in g.edges if a == b == v)
        assert g.degree(v) == sum((a == v) + (b == v) for a, b in g.edges)
        assert g.neighbors(v) == sorted(
            {b if a == v else a for a, b in g.edges if v in (a, b) and a != b}
        )
        for w in ids:
            key = (v, w) if v <= w else (w, v)
            got = g.loops_at(v) if v == w else g.multiplicities(v).get(w, 0)
            assert got == sum(1 for e in g.edges if e == key)


# -- shapes ---------------------------------------------------------------


def test_shape_examples(e8):
    assert classify_shape(chain_graph([2, 2, 2])).kind is Shape.CHAIN
    sh = classify_shape(e8)
    assert sh.kind is Shape.STAR and sh.center == "c"
    assert classify_shape(cycle_graph([3, 3, 3])).kind is Shape.CYCLE


def test_shape_small_cycles():
    assert classify_shape(cycle_graph([3])).kind is Shape.CYCLE  # loop
    assert classify_shape(cycle_graph([2, 3])).kind is Shape.CYCLE  # double edge


def test_shape_nodes_and_general():
    g = star_graph(-2, [[2], [2], [2], [2]])
    assert classify_shape(g).kind is Shape.STAR
    genus = parse_plumbing("vertex a euler=-2 genus=1")
    assert classify_shape(genus).kind is Shape.STAR  # genus makes it a node
    two_nodes = parse_plumbing(
        "vertex a euler=-2 genus=1\nvertex b euler=-2 genus=1\nedge a b"
    )
    sh = classify_shape(two_nodes)
    assert sh.kind is Shape.GENERAL and sh.nodes == ("a", "b")


def test_shape_rejects_disconnected_and_arrows():
    g = parse_plumbing("vertex a euler=-2 genus=0\nvertex b euler=-2 genus=0")
    with pytest.raises(GraphError):
        classify_shape(g)
    # A graph with an arrowhead never reaches the classifier: the parser refuses it.
    with pytest.raises(GraphError, match="unknown directive 'arrow'"):
        classify_shape(parse_plumbing("vertex a euler=-2 genus=0\narrow a"))


# -- path walker -------------------------------------------------------------


def test_walk_double_edge_two_cycle():
    g = cycle_graph([2, 3])  # v0 and v1 joined by two edges
    assert list(islice(walk(g, "v1", "v0"), 5)) == ["v0", "v1", "v0", "v1", "v0"]
    assert list(walk(g, None, "v0")) == ["v0"]  # two ends left: no step


def test_walk_one_vertex_loop():
    g = cycle_graph([3])
    assert list(islice(walk(g, "v0", "v0"), 3)) == ["v0", "v0", "v0"]
    assert list(walk(g, None, "v0")) == ["v0"]


def test_walk_from_and_to_a_leaf():
    g = chain_graph([2, 3, 4])
    assert list(walk(g, None, "v0")) == ["v0", "v1", "v2"]
    assert list(walk(g, None, "v2")) == ["v2", "v1", "v0"]
    assert list(walk(g, "v0", "v1")) == ["v1", "v2"]
    assert list(walk(g, "v1", "v2")) == ["v2"]


def test_walk_turns_back_along_a_double_edge_to_its_node():
    g = parse_plumbing(
        "vertex n euler=-4 genus=0\nvertex x euler=-2 genus=0\nvertex y euler=-2 genus=0\n"
        "edge n x\nedge x n\nedge n y"
    )
    # x leaves by the other copy of the double edge; n has two ends left.
    assert list(walk(g, "n", "x")) == ["x", "n"]
    assert list(walk(g, "n", "y")) == ["y"]


def test_walk_stops_at_a_node_and_star_legs(e8):
    assert list(walk(e8, None, "d4")) == ["d4", "d3", "d2", "d1", "c"]
    assert star_legs(e8, "c") == [["a1"], ["b1", "b2"], ["d1", "d2", "d3", "d4"]]


def _reference_walk(g, prev, start, steps):
    """``walk`` read off the edge list: each edge-end at the current vertex
    names the vertex across it (a loop gives two ends back to it), the end
    arrived by is dropped, and the walk goes on while exactly one is left."""
    out, cur = [], start
    while len(out) < steps:
        out.append(cur)
        ends = [b if a == cur else a for a, b in g.edges if cur in (a, b) for _ in range(1 + (a == b))]
        if prev is not None:
            ends.remove(prev)
        if len(ends) != 1:
            break
        prev, cur = cur, ends[0]
    return out


@given(_random_graph)
@settings(max_examples=200)
def test_walk_matches_the_edge_list(g):
    # The walker reads each vertex's stored degree and its neighbour
    # counts; the reference counts edge-ends in the edge list instead.
    steps = len(g.vertices) + 3
    for v in g.vertex_ids():
        starts = [(None, v)] + [(w, v) for w in g.neighbors(v)] + [(v, v)] * bool(g.loops_at(v))
        for prev, start in starts:
            assert list(islice(walk(g, prev, start), steps)) == _reference_walk(g, prev, start, steps)
