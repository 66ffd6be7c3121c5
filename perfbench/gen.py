"""Seeded inputs for the arclink benchmark, each paired with the answer its
generator implies.

Every expectation here is derived from how the input was built (the cusp
sequence before a blow-up, the group's textbook order, the closed-form
component count, the exponent a vector was translated by), never from
arclink's own output.  Sizes are fixed constants so that two commits run
identical inputs for the same seed; the seed only chooses arrangements,
labels and values that leave the amount of work the same.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

BOUND = 3  # analysis_report bound used by graph_scale

# Graph families at fixed, growing sizes.  The size is the family's own
# unit: cycle length, base cycle length, leg length, node count.  The
# largest sizes take half a second to a second per analysis_report call
# at seed.
GRAPH_SIZES = {
    "cycle": (10, 20, 30, 40, 50),
    "blowup": (6, 12, 18, 24, 30),
    "star": (3, 6, 9, 12, 15),
    "multinode": (2, 3, 4, 5, 6),
}
GRAPH_VARIANTS = 2
TINY_GRAPH_SIZES = {"cycle": (4, 8, 12), "blowup": (3, 6, 9), "star": (3, 5, 7),
                    "multinode": (2, 3, 4)}

# (k, max b) grid for cusp sequences, and the reduction cases.  Sizes
# double, so that case times spread evenly and the median and tail case
# times fall among many cases of similar cost.
CUSP_GRID = tuple((k, max_b) for k in (4, 8, 16, 32, 64, 128, 256, 512, 1024) for max_b in (3, 8))
REDUCE_GRID = tuple((k, 4) for k in (16, 32, 64, 128, 256, 512))  # (k, max b)
REDUCE_POWERS = (1, -2, 3, -4, 5, -6)  # the translations M^l
GROUPS = ("2T", "2O", "2I", "bd:2", "bd:3", "bd:4", "bd:5", "bd:6",
          "cyclic:4", "cyclic:8", "cyclic:12", "cyclic:16")
TINY_CUSP_GRID = ((3, 3), (5, 4))
TINY_REDUCE_GRID = ((4, 4),)
TINY_GROUPS = ("2T", "bd:3", "cyclic:4")


# -- exact helpers the expectations rest on ------------------------------------


def continuant(terms) -> int:
    """det[b_1..b_s] of a rational chain by the three-term recursion."""
    prev2, prev1 = 0, 1
    for b in terms:
        prev2, prev1 = prev1, b * prev1 - prev2
    return prev1


def mat_mul(x, y):
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def mat_pow(m, n):
    if n < 0:
        p, q, r, s = m  # det 1
        m, n = (s, -q, -r, p), -n
    out = (1, 0, 0, 1)
    for _ in range(n):
        out = mat_mul(out, m)
    return out


def monodromy_of(bs):
    """Product of ((b, 1), (-1, 0)) over the sequence, as (p, q, r, s)."""
    out = (1, 0, 0, 1)
    for b in bs:
        out = mat_mul(out, (b, 1, -1, 0))
    return out


def canonical_cycle(bs) -> list[int]:
    """Least rotation of the sequence or of its reverse."""
    cands = []
    for seq in (list(bs), list(bs)[::-1]):
        cands.extend(seq[i:] + seq[:i] for i in range(len(seq)))
    return min(cands)


def is_rotation(a, b) -> bool:
    a, b = list(a), list(b)
    if len(a) != len(b):
        return False
    doubled = b + b
    return any(doubled[i:i + len(a)] == a for i in range(len(b)))


# -- graph corpus ------------------------------------------------------------------


@dataclass
class GraphCase:
    id: str
    family: str
    size: int
    text: str
    vertices: int
    edges: int
    expect: dict = field(default_factory=dict)


class _GraphText:
    """Collects vertices and edges under seeded, shuffled vertex labels."""

    def __init__(self, rng: random.Random, n_hint: int):
        self.labels = rng.sample(range(10 * n_hint + 10), 10 * n_hint + 10)
        self.vertex_lines: list[str] = []
        self.edge_lines: list[str] = []

    def vertex(self, euler: int, genus: int = 0) -> str:
        vid = f"x{self.labels[len(self.vertex_lines)]}"
        self.vertex_lines.append(f"vertex {vid} euler={euler} genus={genus}")
        return vid

    def edge(self, u: str, v: str) -> None:
        self.edge_lines.append(f"edge {u} {v}")

    def text(self, name: str) -> str:
        return "\n".join([f"graph {name}", *self.vertex_lines, *self.edge_lines]) + "\n"


def _mixed_terms(rng: random.Random, n: int, values) -> list[int]:
    """n terms with fixed proportions of each value, in seeded order."""
    terms = [values[i % len(values)] for i in range(n)]
    rng.shuffle(terms)
    return terms


CYCLE_WEIGHTS = (2, 3, 2, 4)  # b = -euler of the cycle curves, in these proportions


def _cusp_expect(bs, bound: int = BOUND) -> dict:
    k = len(bs)
    return {"kind": "cusp", "b_sequence": canonical_cycle(bs),
            "components": k * bound * (bound + 1) // 2, "orbifold_ms": []}


def cycle_case(rng: random.Random, n: int, cid: str) -> GraphCase:
    bs = _mixed_terms(rng, n, CYCLE_WEIGHTS)
    b = _GraphText(rng, n)
    ids = [b.vertex(-x) for x in bs]
    for i in range(n):
        b.edge(ids[i], ids[(i + 1) % n])
    exp = _cusp_expect(bs) | {"blowdowns": 0, "tail_vertices": 0}
    return GraphCase(cid, "cycle", n, b.text(cid), n, n, exp)


def blowup_case(rng: random.Random, n: int, cid: str) -> GraphCase:
    """A cusp cycle with one -1 curve blown up on every cycle edge."""
    bs = _mixed_terms(rng, n, CYCLE_WEIGHTS)
    b = _GraphText(rng, 2 * n)
    ids = [b.vertex(-(x + 2)) for x in bs]
    for i in range(n):
        e = b.vertex(-1)
        b.edge(ids[i], e)
        b.edge(e, ids[(i + 1) % n])
    exp = _cusp_expect(bs) | {"blowdowns": n, "tail_vertices": 0}
    return GraphCase(cid, "blowup", n, b.text(cid), 2 * n, 2 * n, exp)


def _general_count(res_vertices: int, res_edges: int, ms, bound: int) -> int:
    """Curve interiors, node points and orbifold numerators up to bound."""
    nodes = bound * (bound - 1) // 2
    orb = sum(bound - bound // m for m in ms)
    return bound * res_vertices + nodes * res_edges + orb


def star_case(rng: random.Random, leg: int, cid: str, bound: int = BOUND) -> GraphCase:
    """Genus-0 centre with three rational legs of length >= 3.

    Each leg has continuant >= 4, so 1/a1 + 1/a2 + 1/a3 < 1: the class is
    general and the three legs contract to three orbifold points.
    """
    b = _GraphText(rng, 3 * leg + 1)
    centre = b.vertex(-3)
    ms = []
    for _ in range(3):
        terms = _mixed_terms(rng, leg, (2, 3))
        prev = centre
        for x in terms:
            v = b.vertex(-x)
            b.edge(prev, v)
            prev = v
        ms.append(continuant(terms))
    exp = {"kind": "general", "components": _general_count(1, 0, ms, bound),
           "orbifold_ms": sorted(ms), "blowdowns": 0, "tail_vertices": 3 * leg}
    return GraphCase(cid, "star", leg, b.text(cid), 3 * leg + 1, 3 * leg, exp)


MULTINODE_TAIL = 3
MULTINODE_BRIDGE = 2


def multinode_case(rng: random.Random, nodes: int, cid: str, bound: int = BOUND) -> GraphCase:
    """A path of nodes joined by -2 bridges, two rational tails per node.

    Node genus is seeded; every node has Euler number -(valency + 1), so
    the matrix is irreducibly diagonally dominant, hence negative definite.
    """
    b = _GraphText(rng, nodes * (1 + MULTINODE_BRIDGE + 2 * MULTINODE_TAIL))
    node_ids = []
    ms = []
    for i in range(nodes):
        valency = 2 + (i > 0) + (i < nodes - 1)
        nid = b.vertex(-(valency + 1), genus=rng.randint(0, 2))
        node_ids.append(nid)
        for _ in range(2):
            terms = _mixed_terms(rng, MULTINODE_TAIL, (2, 3))
            prev = nid
            for x in terms:
                v = b.vertex(-x)
                b.edge(prev, v)
                prev = v
            ms.append(continuant(terms))
    for u, w in zip(node_ids, node_ids[1:]):
        prev = u
        for _ in range(MULTINODE_BRIDGE):
            v = b.vertex(-2)
            b.edge(prev, v)
            prev = v
        b.edge(prev, w)
    res_v = nodes + (nodes - 1) * MULTINODE_BRIDGE
    res_e = (nodes - 1) * (MULTINODE_BRIDGE + 1)
    tails = 2 * nodes * MULTINODE_TAIL
    exp = {"kind": "general", "components": _general_count(res_v, res_e, ms, bound),
           "orbifold_ms": sorted(ms), "blowdowns": 0, "tail_vertices": tails}
    return GraphCase(cid, "multinode", nodes, b.text(cid), res_v + tails, res_e + tails, exp)


FAMILIES = {"cycle": cycle_case, "blowup": blowup_case, "star": star_case,
            "multinode": multinode_case}


def graph_corpus(seed: int, tiny: bool = False) -> list[GraphCase]:
    rng = random.Random(f"graph_scale:{seed}")
    sizes = TINY_GRAPH_SIZES if tiny else GRAPH_SIZES
    variants = 1 if tiny else GRAPH_VARIANTS
    cases = []
    for family, make in FAMILIES.items():
        for size in sizes[family]:
            for v in range(variants):
                cases.append(make(rng, size, f"{family}-{size}-{v}"))
    rng.shuffle(cases)
    return cases


# -- cusp and group corpus ----------------------------------------------------------


@dataclass
class CuspCase:
    id: str
    kind: str  # "sequence" | "reduce" | "group" | "field"
    data: dict


def cusp_terms(rng: random.Random, k: int, max_b: int) -> list[int]:
    """k terms cycling through 3..max_b and 2 in fixed proportions, shuffled."""
    return _mixed_terms(rng, k, (*range(3, max_b + 1), 2))


def fan_vectors(bs, upto: int):
    """v_0 = (0,1), v_1 = (1,0), v_{i+1} = b_i v_i - v_{i-1}."""
    vs = [(0, 1), (1, 0)]
    for i in range(1, upto):
        b = bs[(i - 1) % len(bs)]
        vs.append((b * vs[i][0] - vs[i - 1][0], b * vs[i][1] - vs[i - 1][1]))
    return vs


GROUP_FACTS = {"2T": (24, 7, "E6"), "2O": (48, 8, "E7"), "2I": (120, 9, "E8")}


def group_expect(name: str) -> tuple[int, int, str]:
    """Order, class count and A/D/E family from the textbook catalog."""
    if name in GROUP_FACTS:
        return GROUP_FACTS[name]
    kind, n = name.split(":")
    n = int(n)
    if kind == "bd":
        return 4 * n, n + 3, f"D{n + 2}"
    return n, n, f"A{n - 1}"


FIELDS = (
    # d, basis, u; trace of u is 2a for u = a + b sqrt(d).
    {"id": "field-golden", "d": 5, "basis": ("1", "1/2+1/2*sqrt"), "u": "3/2+1/2*sqrt",
     "trace": 3, "sequence": [3]},
    {"id": "field-sqrt2", "d": 2, "basis": ("1", "sqrt"), "u": "3+2*sqrt",
     "trace": 6, "sequence": None},
)


def cusp_corpus(seed: int, tiny: bool = False) -> list[CuspCase]:
    rng = random.Random(f"cusp_group:{seed}")
    cases = []
    for k, max_b in TINY_CUSP_GRID if tiny else CUSP_GRID:
        for v in range(1 if tiny else 2):
            bs = cusp_terms(rng, k, max_b)
            cases.append(CuspCase(f"seq-{k}-{max_b}-{v}", "sequence", {"b": bs}))
    for k, max_b in TINY_REDUCE_GRID if tiny else REDUCE_GRID:
        bs = cusp_terms(rng, k, max_b)
        vs = fan_vectors(bs, k + 1)
        mono = monodromy_of(bs)
        i = k // 16  # the fan walk grows with i, so it is fixed
        for j, power in enumerate(REDUCE_POWERS[:2] if tiny else REDUCE_POWERS):
            mi = rng.randint(1, BOUND)
            mj = rng.randint(0, BOUND - mi)
            w = (mi * vs[i][0] + mj * vs[i + 1][0], mi * vs[i][1] + mj * vs[i + 1][1])
            p, q, r, s = mat_pow(mono, power)
            moved = (p * w[0] + q * w[1], r * w[0] + s * w[1])
            cases.append(CuspCase(f"reduce-{k}-{j}", "reduce",
                                  {"b": bs, "w": w, "moved": moved, "power": power}))
    for name in TINY_GROUPS if tiny else GROUPS:
        cases.append(CuspCase(f"group-{name}", "group", {"name": name}))
    for fdata in FIELDS:
        cases.append(CuspCase(fdata["id"], "field", dict(fdata)))
    rng.shuffle(cases)
    return cases


# -- CLI corpus ---------------------------------------------------------------------


@dataclass
class CliCase:
    id: str
    argv: list[str]           # "{name}" tokens name files in ``files``
    expect: dict
    files: dict[str, str] = field(default_factory=dict)
    known_defect: bool = False  # a traceback listed as open in ROADMAP item 4

    @property
    def sub(self) -> str:
        return self.argv[0]


LARGE_BOUND = 30
E8_TEXT = (
    "graph e8\n" + "".join(f"vertex {v} euler=-2 genus=0\n"
                           for v in ("c", "a1", "b1", "b2", "d1", "d2", "d3", "d4"))
    + "edge c a1\nedge c b1\nedge b1 b2\nedge c d1\nedge d1 d2\nedge d2 d3\nedge d3 d4\n"
)
GROUP_2I_TEXT = "d=5\n1/2 1/2 1/2 1/2\n1/4+1/4*sqrt 1/2 -1/4+1/4*sqrt 0\n"
GROUP_C3_TEXT = "matrix 3\n0 1 0\n0 0 1\n1 0 0\n"


def field_text(f: dict, u: str | None = None) -> str:
    return f"d={f['d']}\nbasis={f['basis'][0]} {f['basis'][1]}\nu={u or f['u']}\n"


def _chain_text(rng: random.Random, bs, name: str) -> str:
    b = _GraphText(rng, len(bs))
    ids = [b.vertex(-x) for x in bs]
    for u, w in zip(ids, ids[1:]):
        b.edge(u, w)
    return b.text(name)


def cli_corpus(seed: int, tiny: bool = False) -> list[CliCase]:
    """Small inputs covering all seven subcommands, plus malformed ones.

    ``tiny`` keeps one valid case per subcommand; ``check`` is not part of
    the corpus (the harness times it on its own).
    """
    rng = random.Random(f"cli_batch:{seed}")
    B = LARGE_BOUND
    cases: list[CliCase] = []

    def graph(case: GraphCase, sub: str, bound: int, count: int | None = None) -> CliCase:
        exp = dict(case.expect)
        if count is not None:
            exp["components"] = count
        return CliCase(f"{sub}-{case.id}-b{bound}", [sub, "{g}", "--bound", str(bound), "--json"],
                       {"json": sub, "graph": exp}, {"g": case.text})

    cyc = cycle_case(rng, 5, "cyc5")
    cases.append(graph(cyc, "analyze", 3))
    cases.append(graph(blowup_case(rng, 4, "blow4"), "analyze", 3))
    cases.append(graph(star_case(rng, 4, "star4"), "analyze", 3))
    big_cyc = cycle_case(rng, 6, "cyc6")
    cases.append(graph(big_cyc, "components", B, 6 * B * (B + 1) // 2))
    cases.append(graph(star_case(rng, 4, "star4b", bound=B), "analyze", B))
    cases.append(graph(multinode_case(rng, 3, "multi3", bound=B), "components", B))
    chain = _mixed_terms(rng, 4, (2, 3, 4, 5))
    m = continuant(chain)
    q = min(continuant(chain[1:]), continuant(chain[:-1]))
    cases.append(CliCase("analyze-chain4", ["analyze", "{g}", "--json"],
                         {"json": "analyze", "graph": {"kind": "cyclic_quotient", "m": m, "q": q,
                                                       "components": BOUND * m}},
                         {"g": _chain_text(rng, chain, "chain4")}))
    cases.append(CliCase("analyze-e8", ["analyze", "{g}", "--json"],
                         {"json": "analyze", "graph": {"kind": "noncyclic_quotient",
                                                       "alphas": [2, 3, 5]}},
                         {"g": E8_TEXT}))
    for k, max_b, bound in ((6, 6, 3), (20, 4, 10)):
        bs = cusp_terms(rng, k, max_b)
        cases.append(CliCase(f"cusp-{k}-{max_b}", ["cusp", "--seq", ",".join(map(str, bs)),
                                                   "--bound", str(bound), "--json"],
                             {"json": "cusp", "b": bs, "count": k * bound * (bound + 1) // 2}))
    for k, max_b in ((8, 5), (30, 5)):
        bs = cusp_terms(rng, k, max_b)
        cases.append(CliCase(f"dual-{k}-{max_b}", ["dual", "--seq", ",".join(map(str, bs)), "--json"],
                             {"json": "dual", "b": bs}))
    for name in ("2O", "bd:5", "cyclic:6"):
        order, classes, family = group_expect(name)
        cases.append(CliCase(f"quotient-{name}", ["quotient", "--builtin", name, "--json"],
                             {"json": "quotient", "order": order, "classes": classes,
                              "family": family}))
    cases.append(CliCase("quotient-file-2I", ["quotient", "--group", "{f}", "--json"],
                         {"json": "quotient", "order": 120, "classes": 9, "family": "E8"},
                         {"f": GROUP_2I_TEXT}))
    cases.append(CliCase("quotient-file-c3", ["quotient", "--group", "{f}", "--json"],
                         {"json": "quotient", "order": 3, "classes": 3, "family": "A2"},
                         {"f": GROUP_C3_TEXT}))
    for f in FIELDS:
        cases.append(CliCase(f"inoue-{f['id']}", ["inoue", "--field", "{f}", "--bound", "3", "--json"],
                             {"json": "inoue", "trace": f["trace"], "sequence": f["sequence"]},
                             {"f": field_text(f)}))
    if tiny:
        seen = set()
        cases = [c for c in cases if not (c.sub in seen or seen.add(c.sub))]

    error = {"error": True}
    bad = [
        CliCase("bad-bound-0", ["analyze", "{g}", "--bound", "0", "--json"], error,
                {"g": cyc.text}, known_defect=True),
        CliCase("bad-u-token", ["inoue", "--field", "{f}"], error,
                {"f": field_text(FIELDS[0], u="3/2+1/2*sqrtx")}, known_defect=True),
        CliCase("bad-matrix-truncated", ["quotient", "--group", "{f}"], error,
                {"f": "matrix 2\n1 0\n"}, known_defect=True),
        CliCase("bad-directive", ["analyze", "{g}"], error, {"g": cyc.text + "face x0\n"}),
        CliCase("bad-not-definite", ["analyze", "{g}"], error,
                {"g": _chain_text(rng, [1, 1, 2], "pos")}),
        CliCase("bad-disconnected", ["components", "{g}"], error,
                {"g": "graph two\nvertex a euler=-2 genus=0\nvertex b euler=-3 genus=0\n"}),
        CliCase("bad-seq-all-2", ["cusp", "--seq", "2,2,2"], error),
        CliCase("bad-seq-token", ["dual", "--seq", "3,x"], error),
        CliCase("bad-builtin", ["quotient", "--builtin", "3X"], error),
        CliCase("bad-edge", ["components", "{g}"], error,
                {"g": "graph e\nvertex a euler=-2 genus=0\nedge a zz\n"}),
    ]
    cases.extend(bad[:4] if tiny else bad)
    rng.shuffle(cases)
    return cases
