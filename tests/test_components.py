from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction
from itertools import product
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from arclink import components
from arclink.calculus import (
    DltKind,
    DltModel,
    OrbifoldPoint,
    SelfDltError,
    SingClass,
    SingKind,
    minimal_dlt_model,
    minimal_log_resolution,
    singularity_class,
)
from arclink.checks import chain_system_solvable, seifert_data, seifert_labels
from arclink.components import (
    ArcComponent,
    ComponentKind,
    CuspLattice,
    EdgeInstance,
    EdgeTorus,
    HomotopyKind,
    HomotopyType,
    SeifertWord,
    WindingClass,
    _leg_generator,
    component_count,
    enumerate_components,
    gamma_power,
)
from arclink.cli import analysis_report
from arclink.cusp import CuspSequence, Vec, enumerate_cusp_components, reduce_mod_monodromy, v_sequence
from arclink.graph_core import GraphError, PlumbingGraph, Vertex, connected_shape, parse_plumbing
from arclink.hjcf import hj_numerator
from arclink.inputs import ROWS_CEILING, InputError
from conftest import SIGMA_237_TEXT, cycle_graph, definite_graphs, star_graph
from test_golden_json import GOLDEN


# -- the label oracle --------------------------------------------------------------
#
# A second way to label a component, from its arc-generator rather than
# from the enumeration: two arc-generators are conjugate exactly when
# canonical_label gives them the same label on the model.  The only
# identification is g_i^m = h^(m/alpha_i) when alpha_i divides m; on a
# rational tail [b_1, ..., b_s] the curve at position i carries
# gamma_i = gamma_s^E_i with E_i = det[b_(i+1), ..., b_s], the continuant
# of the suffix.  Exponents outside this calculus are the business of the
# chain-system oracle in arclink.checks.


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
            "calculus; use arclink.checks.chain_system_solvable as the "
            "falsification oracle"
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
    if vid in model.residual.vertex_ids():
        return ("curve_interior", vid, m)
    pt, pos = _tail_position(model, vid)
    if pt is None:
        raise GraphError(f"vertex {vid!r} is not part of the model")
    return _reduce_leg_power(pt, m * hj_numerator(pt.terms[pos:]))


def _edge_label(model: DltModel, chain: EdgeInstance, mu: int, mv: int):
    u, v, idx = chain
    res = model.residual
    if u in res.vertex_ids() and v in res.vertex_ids():
        if chain not in res.edge_instances():
            raise GraphError(f"edge instance {chain} is not part of the model")
        return ("node_point", *chain, mu, mv)
    pt_u, pos_u = _tail_position(model, u)
    pt_v, pos_v = _tail_position(model, v)
    if pt_u is not None and pt_v is not None:
        if pt_u != pt_v or abs(pos_u - pos_v) != 1:
            raise GraphError(f"{u!r} and {v!r} are not adjacent on one tail")
        exp = mu * hj_numerator(pt_u.terms[pos_u:]) + mv * hj_numerator(pt_u.terms[pos_v:])
        return _reduce_leg_power(pt_u, exp)
    # One endpoint survives, the other sits on its tail at position 1.
    if pt_u is None:
        host_id, host_m, pt, pos, tail_m = u, mu, pt_v, pos_v, mv
    else:
        host_id, host_m, pt, pos, tail_m = v, mv, pt_u, pos_u, mu
    if pt is None or pt.host != host_id or pos != 1:
        raise GraphError(f"({u}, {v}) is not an edge of the source graph")
    return _reduce_leg_power(pt, host_m * pt.m + tail_m * hj_numerator(pt.terms[1:]))


class CuspFrame(NamedTuple):
    """The oracle's own cusp frame of a cycle model.  ``fan`` holds
    v_0..v_k.  Curve order[t] carries the ray v_{t+1} (indices mod k), and
    the edge instance of step t spans the sector v_{t+1}, v_{t+2} with
    order[t] as the curve on its first ray."""

    sequence: CuspSequence
    fan: list[Vec]
    ray: dict[str, int]  # curve id -> fan index
    sector: dict[EdgeInstance, tuple[int, str]]  # -> (fan index, first curve)


def cusp_frame(model: DltModel) -> CuspFrame | None:
    """The cusp frame of a cusp model's residual cycle, read in its walk
    order; None for any other model."""
    if model.sing_class.kind is not SingKind.CUSP:
        return None
    g = model.residual
    order = connected_shape(g).order
    k = len(order)
    seq = CuspSequence(tuple(-g.vertex(v).euler for v in order))
    ray, sector, copies = {}, {}, Counter()
    for t, u in enumerate(order):
        i = (t + 1) % k
        key = tuple(sorted((u, order[i])))
        ray[u] = i
        sector[(*key, copies[key])] = (i, u)  # the copies of an edge count up in walk order
        copies[key] += 1
    return CuspFrame(seq, v_sequence(seq, 0, k), ray, sector)


def _cusp_vector(frame: CuspFrame, location: tuple, multiplicities: tuple[int, ...]):
    """Lattice vector of gamma_v^m (location (v,)) or of an edge class
    (location an edge instance, multiplicities in its (u, v) order), from
    the closed forms m*v_i and m_u*v_i + m_v*v_{i+1}."""
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


def _cusp_label(frame: CuspFrame, w: WindingClass):
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
    frame = cusp_frame(model)
    if frame is not None:
        return _cusp_label(frame, w)
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


def edge_class(u: str, v: str, m_u: int, m_v: int, instance: int = 0) -> EdgeTorus:
    """The arc-generator gamma_u^{m_u} gamma_v^{m_v} on one edge."""
    if (v, u) < (u, v):
        u, v, m_u, m_v = v, u, m_v, m_u
    return EdgeTorus(chain=(u, v, instance), vector=(m_u, m_v))


def row_key(c: ArcComponent) -> tuple:
    """The order ``enumerate_components`` emits: kind, then the location
    compared as strings, then the multiplicities."""
    return (c.kind.value, tuple(str(x) for x in c.location), c.multiplicities)


def same_label(w1, w2, g: PlumbingGraph) -> bool:
    """Whether two arc-generators on g label the same arc component."""
    model = minimal_dlt_model(g)
    return canonical_label(w1, model) == canonical_label(w2, model)


# -- enumeration -----------------------------------------------------------------


def test_sigma237_matches_seifert(sigma237):
    model = minimal_dlt_model(sigma237)
    comps = enumerate_components(model, 6)
    assert len(comps) == 19
    assert sorted(c.label() for c in comps) == seifert_labels(seifert_data(sigma237), 6)


def test_enumeration_is_refused_past_the_row_ceiling():
    # Two -3 curves on a double edge: B*V + B(B-1)/2*E is 199,362 rows at
    # B = 446 and 200,256 at B = 447, the first bound past the ceiling.
    model = minimal_dlt_model(cycle_graph([3, 3]))
    assert component_count(model, 446) == 199_362 <= ROWS_CEILING
    with pytest.raises(InputError, match="200256 rows, more than 200000"):
        enumerate_components(model, 447)


def test_self_dlt_is_rejected(e8):
    with pytest.raises(SelfDltError):
        enumerate_components(minimal_dlt_model(e8), 2)


def test_single_genus_one_vertex():
    g = parse_plumbing("vertex a euler=-1 genus=1")
    comps = enumerate_components(minimal_dlt_model(g), 1)
    assert len(comps) == 1
    h = comps[0].homotopy
    assert h.kind is HomotopyKind.CIRCLE_BUNDLE
    assert h.genus == 1 and h.chern == 1


def test_chern_scales_with_multiplicity():
    g = parse_plumbing("vertex a euler=-3 genus=2")
    comps = enumerate_components(minimal_dlt_model(g), 3)
    cherns = sorted(c.homotopy.chern for c in comps)
    assert cherns == [3, 6, 9]


def test_homotopy_wedge_counts(sigma237):
    model = minimal_dlt_model(sigma237)
    comps = enumerate_components(model, 2)
    central = [c for c in comps if c.kind is ComponentKind.CURVE_INTERIOR]
    # genus 0, three orbifold branches: wedge count 2*0 + 3 - 1 = 2
    assert all(c.homotopy.wedge_count == 2 for c in central)
    orb = [c for c in comps if c.kind is ComponentKind.ORBIFOLD_POINT]
    assert all(c.homotopy.kind is HomotopyKind.CIRCLE for c in orb)


def test_cusp_delegation_matches_lattice(cusp333):
    model = minimal_dlt_model(cusp333)
    comps = enumerate_components(model, 2)
    lattice = enumerate_cusp_components(CuspSequence((3, 3, 3)), 2)
    assert len(comps) == len(lattice)
    assert sorted(c.winding.vector for c in comps) == sorted(x.vector for x in lattice)
    # ray points become curve interiors, sector points become node points
    kinds = {c.kind for c in comps}
    assert kinds == {ComponentKind.CURVE_INTERIOR, ComponentKind.NODE_POINT}
    for c in comps:
        if c.kind is ComponentKind.NODE_POINT:
            assert c.homotopy.kind is HomotopyKind.TWO_TORUS
        else:
            assert c.homotopy.kind is HomotopyKind.CIRCLE_TIMES_WEDGE
            assert c.homotopy.wedge_count == 1  # genus 0, two branches
    # Rays are curve interiors and sectors node points, with the node
    # multiplicities read in traversal order: the curve the step leaves
    # carries v_i.  The lattice enumeration is the independent side.
    for bs in ([3], [2, 3], [3, 3, 3], [2, 2, 3, 4]):
        model = minimal_dlt_model(cycle_graph(bs))
        order = connected_shape(model.residual).order
        seq = CuspSequence(tuple(-model.residual.vertex(v).euler for v in order))
        for bound in (1, 2, 3, 4):
            ours = sorted(
                ("ray", c.multiplicities, c.winding.vector)
                if c.kind is ComponentKind.CURVE_INTERIOR
                else ("sector", _traversal_multiplicities(order, c), c.winding.vector)
                for c in enumerate_components(model, bound)
            )
            theirs = sorted(
                (x.kind, x.multiplicities, x.vector) for x in enumerate_cusp_components(seq, bound)
            )
            assert ours == theirs, (bs, bound)


def _traversal_multiplicities(order, comp):
    """A node point's multiplicities, the curve the step leaves first.
    Copy j of a parallel pair is the step out of order[j]; a loop keeps
    its own order."""
    u, v, j = comp.location
    k = len(order)
    if k == 2:
        first = order[j]
    else:
        first = u if order[(order.index(u) + 1) % k] == v else v
    mu, mv = comp.multiplicities
    return (mu, mv) if u == first else (mv, mu)


def test_cusp_counts_match_direct_census():
    # The lattice route and a direct per-curve/per-edge census agree.
    for bs in ([3], [2, 3], [3, 3, 3], [2, 2, 3, 4]):
        g = cycle_graph(bs)
        model = minimal_dlt_model(g)
        for bound in (1, 2, 3):
            comps = enumerate_components(model, bound)
            k = len(bs)
            expect = k * bound + k * (bound * (bound - 1) // 2)
            assert len(comps) == expect, (bs, bound)


def test_node_points_at_loop_edge():
    g = cycle_graph([3])  # one vertex with a loop
    comps = enumerate_components(minimal_dlt_model(g), 3)
    nodes = [c for c in comps if c.kind is ComponentKind.NODE_POINT]
    assert {c.location for c in nodes} == {("v0", "v0", 0)}
    assert sorted(c.multiplicities for c in nodes) == [(1, 1), (1, 2), (2, 1)]


def test_components_sorted_and_positive(sigma237):
    comps = enumerate_components(minimal_dlt_model(sigma237), 4)
    assert comps == sorted(comps, key=row_key)
    assert all(all(m > 0 for m in c.multiplicities) for c in comps)
    with pytest.raises(ValueError):
        enumerate_components(minimal_dlt_model(sigma237), 0)


def test_row_order_is_pinned():
    # Twelve parallel edges: the copy indices order as strings, as the JSON
    # locations do.  Legs at both nodes give orbifold points at two hosts,
    # listed in the graph out of (host, leg) order.
    vs = [Vertex("b", -30), Vertex("a", -30), Vertex("z", -2), Vertex("y", -3),
          Vertex("x", -2), Vertex("w", -5), Vertex("x2", -2)]
    es = [("b", "a")] * 12 + [("b", "z"), ("a", "y"), ("b", "x"), ("x", "x2"), ("a", "w")]
    model = minimal_dlt_model(PlumbingGraph(tuple(vs), tuple(es), "pin"))
    comps = enumerate_components(model, 3)
    copies = [0, 1, 10, 11, 2, 3, 4, 5, 6, 7, 8, 9]
    points = [("a", "w", 5), ("a", "y", 3), ("b", "x", 3), ("b", "z", 2)]
    want = [("curve_interior", (v,), (m,)) for v in "ab" for m in (1, 2, 3)]
    want += [("node_point", ("a", "b", k), mult) for k in copies for mult in [(1, 1), (1, 2), (2, 1)]]
    want += [("orbifold_point", (host, leg), (a,)) for host, leg, m in points for a in (1, 2, 3) if a % m]
    assert [(c.kind.value, c.location, c.multiplicities) for c in comps] == want
    assert comps == sorted(comps, key=row_key)
    rows = analysis_report(model.source, 3)["components"]
    assert [(r["kind"], r["location"]) for r in rows] == [(k, [str(x) for x in loc]) for k, loc, _ in want]


def test_arc_component_refuses_a_nonpositive_multiplicity_and_a_central_numerator():
    torus, circle = HomotopyType(HomotopyKind.TWO_TORUS), HomotopyType(HomotopyKind.CIRCLE)
    for mults in [(0, 1), (2, -1)]:
        with pytest.raises(ValueError, match="strictly positive"):
            ArcComponent(ComponentKind.NODE_POINT, ("a", "b", 0), mults, None, EdgeTorus(("a", "b", 0), mults), torus)
    with pytest.raises(ValueError, match="strictly positive"):
        ArcComponent(ComponentKind.CURVE_INTERIOR, ("a",), (0,), None, gamma_power("a", 0), circle)
    word = SeifertWord("c", (("g[c/b]", 6),))
    for denominator in (3, 2, 1, None):
        with pytest.raises(ValueError, match="divisible by m"):
            ArcComponent(ComponentKind.ORBIFOLD_POINT, ("c", "b"), (6,), denominator, word, circle)
    row = ArcComponent(ComponentKind.ORBIFOLD_POINT, ("c", "b"), (6,), 4, word, circle)
    assert row.label() == ("orbifold_point", "c", "b", 6, 4)
    assert row == (ComponentKind.ORBIFOLD_POINT, ("c", "b"), (6,), 4, word, circle)


# Vertex ids with "/" and a backslash test the leg generator's escapes; each
# graph samples its distinct ids from this pool.
_IDS = ("a", "b/c", "d\\e", "f/", "g", "h/i/j", "k", "l\\/m")


def _seeded_graph(rng: random.Random) -> PlumbingGraph:
    """A connected graph, negative definite by diagonal dominance: a random
    tree, then up to three more edges (loops and parallel edges among them);
    or a cycle of rational curves, a cusp, with ids from the same pool."""
    if rng.random() < 0.3:
        k = rng.randint(1, 6)
        bs = [rng.randint(2, 5) for _ in range(k)]
        bs[rng.randrange(k)] = rng.randint(3, 5)  # an entry of at least 3: a cusp
        return cycle_graph(bs, prefix=rng.choice(("v", "w/", "x\\")))
    n = rng.randint(1, 6)
    ids = rng.sample(_IDS, n)
    edges = [(ids[i], ids[rng.randrange(i)]) for i in range(1, n)]
    edges += [(rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, 3))]
    valency = Counter(v for e in edges for v in e)
    strict = rng.choice(ids)
    vs = tuple(
        Vertex(v, -valency[v] - rng.randint(0, 2) - (v == strict), rng.choice((0, 0, 0, 1, 2))) for v in ids
    )
    return PlumbingGraph(vs, tuple(edges), "seeded")


def _closed_form_winding(model: DltModel, c: ArcComponent) -> WindingClass:
    """The winding of a row from its location and multiplicities alone:
    the closed-form lattice vector in a cusp frame, otherwise the fiber
    power, the edge class or the leg power."""
    frame = cusp_frame(model)
    if frame is not None:
        return CuspLattice(_cusp_vector(frame, c.location, c.multiplicities))
    if c.kind is ComponentKind.CURVE_INTERIOR:
        return gamma_power(c.location[0], c.multiplicities[0])
    if c.kind is ComponentKind.NODE_POINT:
        return EdgeTorus(c.location, c.multiplicities)
    host, leg = c.location
    return SeifertWord(host, ((_leg_generator(host, leg), c.multiplicities[0]),))


def _component_json(c: ArcComponent) -> dict:
    """One row of the report built from that row alone, as the CLI built
    every row before it shared each location's strings."""
    out = {
        "kind": c.kind.value,
        "location": [str(x) for x in c.location],
        "multiplicities": list(c.multiplicities),
    }
    if c.denominator is not None:
        out["denominator"] = c.denominator
        out["intersection_number"] = str(Fraction(c.multiplicities[0], c.denominator))
    w = c.winding
    if isinstance(w, SeifertWord):
        out["winding"] = {"type": "seifert_word", "piece": w.piece, "word": w.render()}
    elif isinstance(w, EdgeTorus):
        out["winding"] = {"type": "edge_torus", "chain": list(w.chain), "vector": list(w.vector)}
    else:
        out["winding"] = {"type": "cusp_lattice", "vector": list(w.vector)}
    out["homotopy"] = {"type": c.homotopy.kind.value, "description": c.homotopy.render()}
    return out


def _report_graphs() -> list[PlumbingGraph]:
    rng = random.Random(28)
    golden = [parse_plumbing(text) for text, _ in GOLDEN.values()]
    return golden + [_seeded_graph(rng) for _ in range(150)]


def test_report_rows_equal_rows_built_one_by_one():
    seen = Counter()
    for g in _report_graphs():
        model = minimal_dlt_model(g)
        if model.kind is not DltKind.MODEL:
            continue
        for bound in range(1, 5):
            comps = enumerate_components(model, bound)
            assert [c.winding for c in comps] == [_closed_form_winding(model, c) for c in comps]
            rows = analysis_report(g, bound)["components"]
            assert json.dumps(rows) == json.dumps([_component_json(c) for c in comps])
        seen[model.sing_class.kind.value] += 1
        seen["closed curve"] += any(not model.residual.degree(v) for v in model.residual.vertex_ids())
        seen["loop"] += any(u == v for u, v in model.residual.edges)
        seen["parallel edges"] += len(set(model.residual.edges)) < len(model.residual.edges)
        seen["'/' in an orbifold id"] += any("/" in p.host + p.leg for p in model.orbifold_points)
    assert min(seen.values()) >= 3, seen


# -- winding classes -----------------------------------------------------------------


def test_winding_central_power(sigma237):
    model = minimal_dlt_model(sigma237)
    comps = enumerate_components(model, 2)
    central = [c for c in comps if c.kind is ComponentKind.CURVE_INTERIOR]
    w = central[0].winding
    assert w.piece == "c" and w.terms[0][0] == "gamma[c]"


def test_winding_cusp_ray_is_lattice_vector(cusp333):
    model = minimal_dlt_model(cusp333)
    comps = enumerate_components(model, 1)
    for c in comps:
        assert isinstance(c.winding, CuspLattice)


# -- conjugacy -----------------------------------------------------------------------


def test_leg_power_equals_center(sigma237):
    # g_i^{alpha_i} = h: the full-order leg power is the central fiber.
    assert same_label(gamma_power("p", 2), gamma_power("c", 1), sigma237)
    assert same_label(gamma_power("q", 3), gamma_power("c", 1), sigma237)
    assert same_label(gamma_power("r", 14), gamma_power("c", 2), sigma237)


def test_distinct_center_powers(sigma237):
    assert not same_label(gamma_power("c", 2), gamma_power("c", 3), sigma237)


def test_distinct_legs_not_conjugate(sigma237):
    assert not same_label(gamma_power("p", 1), gamma_power("q", 1), sigma237)


def test_conjugacy_reflexive_symmetric(sigma237):
    a, b = gamma_power("p", 2), gamma_power("c", 1)
    assert same_label(a, a, sigma237)
    assert same_label(b, a, sigma237) == same_label(a, b, sigma237) == True


def test_conjugacy_on_cusp_graph(cusp333):
    # gamma_{v0} and its monodromy translate represent the same component.
    m = gamma_power("v0", 1)
    assert same_label(m, m, cusp333)
    assert not same_label(gamma_power("v0", 1), gamma_power("v0", 2), cusp333)
    # distinct curves are distinct components
    assert not same_label(gamma_power("v0", 1), gamma_power("v1", 1), cusp333)


def test_conjugacy_rejects_negative_exponents(sigma237):
    with pytest.raises(ValueError, match="arclink.checks.chain_system_solvable"):
        same_label(gamma_power("c", -1), gamma_power("c", 1), sigma237)


def test_conjugacy_rejects_quotients(e8):
    with pytest.raises(SelfDltError):
        same_label(gamma_power("c", 1), gamma_power("c", 1), e8)


def test_labels_separate_components(sigma237):
    # Distinct component labels are never conjugate (injectivity).
    model = minimal_dlt_model(sigma237)
    comps = enumerate_components(model, 3)
    labels = [canonical_label(c.winding, model) for c in comps]
    assert len(set(labels)) == len(labels)


def test_edge_class_labels(sigma237):
    model = minimal_dlt_model(sigma237)
    # h * g_p^{E_1}: exponent 2*1 + 1*1 = 3, odd, so an orbifold label.
    assert canonical_label(edge_class("c", "p", 1, 1), model) == (
        "orbifold_point",
        "c",
        "p",
        3,
        2,
    )
    # h * g_p: exponent 2 + 2 = 4 = 2*alpha: the central class h^2.
    assert canonical_label(edge_class("c", "p", 1, 2), model) == ("curve_interior", "c", 2)


def test_tail_interior_edge_class():
    g = star_graph(-2, [[3, 2], [2], [2]], genus=1)
    model = minimal_dlt_model(g)
    # The tail [3,2] has exponents E_1 = det[2] = 2, E_2 = det[] = 1 and
    # alpha = 5: gamma_1 gamma_2 maps to g^(2+1) = g^3.
    lab = canonical_label(edge_class("l0_0", "l0_1", 1, 1), model)
    assert lab == ("orbifold_point", "c", "l0_0", 3, 5)


def test_label_constant_on_component(cusp333):
    # All monodromy translates of a lattice class share one label.
    from arclink.components import CuspLattice as CL
    from arclink.cusp import monodromy

    model = minimal_dlt_model(cusp333)
    m = monodromy(CuspSequence((3, 3, 3)))
    base = (1, 1)
    lab0 = canonical_label(CL(base), model)
    for j in (1, 2):
        lab = canonical_label(CL((m ** j).apply(base)), model)
        assert lab == lab0


# -- the chain system -----------------------------------------------------------------


def test_chain_system_example():
    assert chain_system_solvable([2, 2], 0, 1, 0, 1) is False


def test_chain_system_validation():
    with pytest.raises(IndexError):
        chain_system_solvable([2, 2], 1, 1, 0, 1)
    with pytest.raises(IndexError):
        chain_system_solvable([2, 2], 0, 3, 0, 1)
    with pytest.raises(ValueError):
        chain_system_solvable([2, 2], 0, 1, -1, 1)
    with pytest.raises(ValueError):
        chain_system_solvable([2, 2], 0, 1, 0, 0)


def test_chain_system_random_sweep():
    rng = random.Random(23)
    for _ in range(200):
        s = rng.randint(1, 6)
        bs = [rng.randint(2, 6) for _ in range(s)]
        i = rng.randint(0, s - 1)
        j = rng.randint(i + 1, s)
        ni, ni1 = rng.randint(0, 6), rng.randint(1, 6)
        assert chain_system_solvable(bs, i, j, ni, ni1) is False


def test_chain_system_exhaustive_small():
    for s in (1, 2, 3):
        for bs in product(range(2, 5), repeat=s):
            for i in range(s):
                for j in range(i + 1, s + 1):
                    for ni in range(0, 4):
                        for ni1 in range(1, 4):
                            assert not chain_system_solvable(list(bs), i, j, ni, ni1)


def test_more_stars_match_seifert():
    # Infinite-pi1 stars of various shapes: both modules agree on labels.
    cases = [
        star_graph(-1, [[2], [3], [7]]),
        star_graph(-2, [[2, 2], [3], [4]]),
        star_graph(-3, [[2], [2], [2], [2]]),
        star_graph(-3, [[3, 2], [2, 2, 2]], genus=1),
    ]
    for g in cases:
        model = minimal_dlt_model(minimal_log_resolution(g))
        comps = enumerate_components(model, 4)
        assert sorted(c.label() for c in comps) == seifert_labels(seifert_data(g), 4)


def test_orbifold_winding_from_two_two_tail():
    # A tail [2,2] carries (alpha, omega) = (3, 2); the numerator-1
    # component winds as the first power of the leg generator.
    g = star_graph(-2, [[2, 2], [2], [2]], genus=1)
    model = minimal_dlt_model(g)
    orb = [
        c
        for c in enumerate_components(model, 1)
        if c.kind is ComponentKind.ORBIFOLD_POINT and c.denominator == 3
    ]
    assert len(orb) == 1
    w = orb[0].winding
    assert w.terms == ((f"g[c/l0_0]", 1),)


TWO_SLASHED_NODES_TEXT = """
vertex a euler=-3 genus=0
vertex a/b euler=-3 genus=0
vertex b/c euler=-2 genus=0
vertex x euler=-3 genus=0
vertex c euler=-2 genus=0
vertex y euler=-5 genus=0
edge a a/b
edge a b/c
edge a x
edge a/b c
edge a/b y
"""


def test_canonical_label_matches_leg_generators_whole():
    # A "/" in the host id must not split the generator g[host/leg].
    model = minimal_dlt_model(parse_plumbing(SIGMA_237_TEXT.replace(" c ", " c/1 ")))
    comps = enumerate_components(model, 6)
    assert {c.location[0] for c in comps if c.kind is ComponentKind.ORBIFOLD_POINT} == {"c/1"}
    for c in comps:
        assert canonical_label(c.winding, model) == c.label()
    # (host a, leg b/c) and (host a/b, leg c) read alike when joined with "/".
    model = minimal_dlt_model(parse_plumbing(TWO_SLASHED_NODES_TEXT))
    comps = [c for c in enumerate_components(model, 6) if c.kind is ComponentKind.ORBIFOLD_POINT]
    assert {c.location for c in comps} == {("a", "b/c"), ("a", "x"), ("a/b", "c"), ("a/b", "y")}
    assert len({c.winding.terms[0][0] for c in comps}) == 4
    for c in comps:
        assert canonical_label(c.winding, model) == c.label()


def test_canonical_label_is_the_label_of_every_component():
    # Node points included: their label is flat, ("node_point", u, v, idx, mu, mv).
    model = minimal_dlt_model(parse_plumbing(TWO_SLASHED_NODES_TEXT))
    comps = enumerate_components(model, 6)
    assert {c.kind for c in comps} == set(ComponentKind)
    for c in comps:
        assert canonical_label(c.winding, model) == c.label()


def test_cusp_frame_is_built_once_per_model(monkeypatch, cusp333, sigma237):
    # The model holds its five fields alone; only the enumeration reads the
    # fan, and it builds it once per call.
    calls = []
    real = components.v_sequence
    monkeypatch.setattr(components, "v_sequence", lambda *args: calls.append(args) or real(*args))
    model = minimal_dlt_model(cusp333)
    assert singularity_class(cusp333) == model.sing_class
    assert analysis_report(cusp333, 3, rows=False)["components"] == component_count(model, 3)
    assert calls == []
    for c in enumerate_components(model, 3):
        canonical_label(c.winding, model)
    assert len(calls) == 1
    enumerate_components(model, 2)
    assert len(calls) == 2
    assert "frame" not in repr(model)
    enumerate_components(minimal_dlt_model(sigma237), 3)
    assert len(calls) == 2


def test_dlt_model_frame_follows_its_class(cusp333):
    # A hand-built model with the same five fields is the same model, and
    # the enumeration builds the same frame from its class.
    model = minimal_dlt_model(cusp333)
    by_hand = DltModel(DltKind.MODEL, model.residual, (), model.sing_class, model.source)
    assert by_hand == model and hash(by_hand) == hash(model)
    assert enumerate_components(by_hand, 3) == enumerate_components(model, 3)
    with pytest.raises(TypeError):
        DltModel(DltKind.MODEL, model.residual, (), model.sing_class, model.source, None)


_TRIANGLE, _DOUBLE_EDGE = cycle_graph([3, 3, 3], "a"), cycle_graph([3, 4], "b")


@pytest.mark.parametrize(
    "residual, points, match",
    [
        (parse_plumbing("vertex u euler=-3 genus=0\nvertex v euler=-4 genus=0\nedge u v\n"), (), "not one cycle"),
        (
            PlumbingGraph(_TRIANGLE.vertices + _DOUBLE_EDGE.vertices, _TRIANGLE.edges + _DOUBLE_EDGE.edges, "two"),
            (),
            "not one cycle",
        ),
        (_DOUBLE_EDGE, (OrbifoldPoint("b0", 2, 1, leg="t", terms=(2,), tail_ids=("t",)),), "orbifold point"),
    ],
    ids=["chain", "two cycles", "orbifold point"],
)
def test_a_cusp_model_is_one_cycle_alone(residual, points, match):
    # Read as one cycle, a chain would gain a sector for a closing edge it
    # does not have, and two cycles would be walked round the first twice.
    # An orbifold point has no winding in the frame.
    model = DltModel(DltKind.MODEL, residual, points, SingClass(SingKind.CUSP, b_sequence=(3, 4)), residual)
    with pytest.raises(GraphError, match=match):
        enumerate_components(model, 3)


def test_canonical_label_rejects_foreign_curve_and_edge(cusp333):
    model = minimal_dlt_model(cusp333)
    with pytest.raises(GraphError, match="nope"):
        canonical_label(gamma_power("nope", 1), model)
    with pytest.raises(GraphError, match="'v0', 'v1', 5"):
        canonical_label(edge_class("v0", "v1", 1, 1, 5), model)


def _random_negative_definite_tree(rng):
    from arclink.graph_core import PlumbingGraph, Vertex, intersection_matrix, is_negative_definite

    while True:
        n = rng.randint(1, 7)
        vs = [Vertex(f"t{i}", -rng.randint(2, 5), rng.choice([0, 0, 0, 1])) for i in range(n)]
        es = tuple((f"t{rng.randint(0, i - 1)}", f"t{i}") for i in range(1, n))
        g = PlumbingGraph(tuple(vs), es, "fuzz")
        if is_negative_definite(intersection_matrix(g)):
            return g


def test_pipeline_on_random_trees():
    # Random minimal negative definite trees: the enumeration satisfies
    # its counting identities and labels stay unique and sorted.
    rng = random.Random(99)
    from arclink.calculus import DltKind

    for _ in range(60):
        g = _random_negative_definite_tree(rng)
        model = minimal_dlt_model(minimal_log_resolution(g))
        if model.kind is not DltKind.MODEL:
            continue
        bound = 3
        comps = enumerate_components(model, bound)
        labels = [c.label() for c in comps]
        assert len(labels) == len(set(labels))
        assert comps == sorted(comps, key=row_key)
        n_curves = len(model.residual.vertices)
        n_edges = len(model.residual.edges)
        expected = n_curves * bound + n_edges * (bound * (bound - 1) // 2)
        expected += sum(
            bound - bound // pt.m for pt in model.orbifold_points
        )
        assert len(comps) == expected


def test_chain_bracket_matrix_is_monodromy_product():
    # The bracketed-determinant matrix of the conjugacy system is exactly
    # M(b_{i+1},...,b_j), so its determinant is always 1.
    from arclink.checks import _continuant
    from arclink.hjcf import mono_product

    rng = random.Random(1)
    for _ in range(300):
        s = rng.randint(1, 6)
        bs = [rng.randint(-3, 6) for _ in range(s)]
        i = rng.randint(0, s - 1)
        j = rng.randint(i + 1, s)
        m = mono_product(bs[i:j])
        assert (m.p, m.q) == (_continuant(bs, i + 1, j), _continuant(bs, i + 1, j - 1))
        assert (m.r, m.s) == (-_continuant(bs, i + 2, j), -_continuant(bs, i + 2, j - 1))


def test_chain_system_finds_constructed_solutions():
    # The oracle must not be constantly False: push admissible unknowns
    # through the matrix and demand a True verdict.  Such cases only occur
    # for decorations outside the negative definite range, which is the
    # theorem's content.
    from arclink.hjcf import mono_product

    rng = random.Random(8)
    found = 0
    while found < 40:
        s = rng.randint(1, 5)
        bs = [rng.randint(-2, 6) for _ in range(s)]
        i = rng.randint(0, s - 1)
        j = rng.randint(i + 1, s)
        mj1, mj = rng.randint(1, 5), rng.randint(0, 5)
        n_i1, n_i = mono_product(bs[i:j]).apply((mj1, mj))
        if n_i < 0 or n_i1 <= 0:
            continue
        found += 1
        assert chain_system_solvable(bs, i, j, n_i, n_i1) is True


# -- relabelling invariance of the whole pipeline ----------------------------------


def _pipeline_summary(g: PlumbingGraph):
    model = minimal_dlt_model(minimal_log_resolution(g))
    shape = (
        model.kind,
        len(model.residual.vertices),
        len(model.residual.edges),
        sorted((p.m, p.omega, p.terms) for p in model.orbifold_points),
    )
    count = len(enumerate_components(model, 2)) if model.kind is DltKind.MODEL else None
    return model.sing_class, shape, count


@given(definite_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_pipeline_invariant_under_relabelling_and_reordering(g, rnd):
    ids = list(g.vertex_ids())
    fresh = {vid: f"w{k}" for vid, k in zip(ids, rnd.sample(range(10 * len(ids)), len(ids)))}
    vertex_lines = [f"vertex {fresh[v.id]} euler={v.euler} genus={v.genus}" for v in g.vertices]
    edge_lines = [f"edge {fresh[u]} {fresh[w]}" for u, w in g.edges]
    rnd.shuffle(vertex_lines)
    rnd.shuffle(edge_lines)
    relabelled = parse_plumbing("\n".join(vertex_lines + edge_lines))
    assert _pipeline_summary(relabelled) == _pipeline_summary(g)
